//! Fanout specification.

/// Per-layer neighbor sampling fanout, **bottom layer first** — `[25, 10,
/// 5]` is the paper's default (§5.1): 25 neighbors at the bottom (feature)
/// layer, 5 at the layer touching the training vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fanout(Vec<usize>);

impl Fanout {
    /// Builds a fanout from bottom-first counts. Must be non-empty.
    pub fn new(bottom_first: Vec<usize>) -> Self {
        assert!(!bottom_first.is_empty(), "fanout needs at least one layer");
        assert!(
            bottom_first.iter().all(|&f| f > 0),
            "fanouts must be positive"
        );
        Self(bottom_first)
    }

    /// The paper's default `[25, 10, 5]` for 3-layer models, extended with
    /// 5s beyond three layers ("sampling fan-out beyond 3 layers will be set
    /// to 5", §5.1).
    pub fn paper_default(layers: usize) -> Self {
        assert!(layers >= 1);
        // Base pattern [25, 10, 5] bottom-first; deeper models keep 5s on
        // the extra bottom hops, shallower ones trim from the top side.
        let mut v = vec![5usize; layers];
        if layers >= 3 {
            v[layers - 3] = 25;
            v[layers - 2] = 10;
        } else if layers == 2 {
            v[0] = 10;
        }
        Self(v)
    }

    /// Number of model layers.
    pub fn layers(&self) -> usize {
        self.0.len()
    }

    /// Fanout of layer `l` (0 = bottom).
    pub fn at(&self, l: usize) -> usize {
        self.0[l]
    }

    /// Bottom-first slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_three_layers() {
        assert_eq!(Fanout::paper_default(3).as_slice(), &[25, 10, 5]);
    }

    #[test]
    fn paper_default_extends_deeper_models_with_fives() {
        assert_eq!(Fanout::paper_default(4).as_slice(), &[5, 25, 10, 5]);
        assert_eq!(Fanout::paper_default(5).as_slice(), &[5, 5, 25, 10, 5]);
    }

    #[test]
    fn paper_default_shallow_models() {
        assert_eq!(Fanout::paper_default(1).as_slice(), &[5]);
        assert_eq!(Fanout::paper_default(2).as_slice(), &[10, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_empty() {
        let _ = Fanout::new(vec![]);
    }
}
