//! Hotness rankings and hot-vertex sets (§4.1.2).

use neutron_graph::VertexId;

/// Per-vertex access frequencies plus the descending-hotness order.
#[derive(Clone, Debug)]
pub struct HotnessRanking {
    counts: Vec<u32>,
    order: Vec<VertexId>,
}

impl HotnessRanking {
    /// Builds a ranking from raw access counts (index = vertex id).
    pub fn from_counts(counts: Vec<u32>) -> Self {
        let mut order: Vec<VertexId> = (0..counts.len() as u32).collect();
        // Stable tie-break on vertex id keeps rankings deterministic.
        order.sort_by_key(|&v| (std::cmp::Reverse(counts[v as usize]), v));
        Self { counts, order }
    }

    /// Access count of vertex `v`.
    pub fn count(&self, v: VertexId) -> u32 {
        self.counts[v as usize]
    }

    /// All vertices in descending hotness order.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.counts.len()
    }

    /// Selects the hottest `ratio` fraction of vertices ("hot vertex ratio",
    /// §4.1.2; the paper reports datasets supporting 10%–30%).
    pub fn hot_set(&self, ratio: f64) -> HotSet {
        assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} out of [0,1]");
        let k = (self.counts.len() as f64 * ratio).round() as usize;
        let hot = self.order[..k.min(self.order.len())].to_vec();
        HotSet::ranked(hot, self.counts.len())
    }

    /// Fraction of all recorded accesses that fall on the given hot set —
    /// the cache-hit / CPU-reuse rate that the orchestrators feed into the
    /// cost model.
    pub fn access_coverage(&self, hot: &HotSet) -> f64 {
        let total: u64 = self.counts.iter().map(|&c| c as u64).sum();
        if total == 0 {
            return 0.0;
        }
        let covered: u64 = hot
            .hot
            .iter()
            .map(|&v| self.counts[v as usize] as u64)
            .sum();
        covered as f64 / total as f64
    }
}

/// [`HotSet`]'s rank of a cold vertex.
const COLD: u32 = u32::MAX;

/// A selected set of hot vertices. A hot vertex's **rank** is its position
/// in the set's order; a rank-indexed table (the embedding store) keeps its
/// row there, so the rank is the only map from a vertex to its row.
#[derive(Clone, Debug)]
pub struct HotSet {
    hot: Vec<VertexId>,
    /// `rank[v]`: `v`'s position in `hot`, or [`COLD`].
    rank: Vec<u32>,
}

impl HotSet {
    /// `hot`, in that order, over vertices `0..num_vertices`.
    fn ranked(hot: Vec<VertexId>, num_vertices: usize) -> Self {
        let mut rank = vec![COLD; num_vertices];
        for (r, &v) in hot.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        Self { hot, rank }
    }

    /// Every vertex of `0..num_vertices`, ranked by id (rank = vertex id):
    /// the key space of a store that keeps every vertex's row.
    pub fn all(num_vertices: usize) -> Self {
        Self::ranked((0..num_vertices as VertexId).collect(), num_vertices)
    }

    /// Hot vertices in descending hotness order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.hot
    }

    /// Number of hot vertices.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// True if no vertices are hot.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// Number of vertices of the graph the set was selected from.
    pub fn num_vertices(&self) -> usize {
        self.rank.len()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.rank[v as usize] != COLD
    }

    /// `v`'s position in [`Self::vertices`]; `None` for a cold vertex or an
    /// id past the graph.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Option<u32> {
        self.rank.get(v as usize).copied().filter(|&r| r != COLD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_descending_with_stable_ties() {
        let r = HotnessRanking::from_counts(vec![3, 9, 9, 1]);
        assert_eq!(r.order(), &[1, 2, 0, 3]);
    }

    #[test]
    fn hot_set_selects_top_ratio() {
        let r = HotnessRanking::from_counts(vec![5, 1, 10, 0, 7]);
        let hot = r.hot_set(0.4);
        assert_eq!(hot.len(), 2);
        assert!(hot.contains(2));
        assert!(hot.contains(4));
        assert!(!hot.contains(0));
        assert_eq!(hot.num_vertices(), 5);
        let ranks: Vec<_> = (0..6).map(|v| hot.rank(v)).collect();
        assert_eq!(ranks, [None, None, Some(0), None, Some(1), None]);
    }

    #[test]
    fn the_whole_set_ranks_by_id() {
        let all = HotSet::all(4);
        assert_eq!(all.vertices(), &[0, 1, 2, 3]);
        assert!((0..4).all(|v| all.rank(v) == Some(v)));
        assert_eq!(all.rank(4), None);
    }

    #[test]
    fn coverage_is_share_of_accesses() {
        let r = HotnessRanking::from_counts(vec![8, 1, 1]);
        let hot = r.hot_set(1.0 / 3.0);
        assert!((r.access_coverage(&hot) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn ratio_zero_and_one_edge_cases() {
        let r = HotnessRanking::from_counts(vec![1, 2, 3]);
        assert!(r.hot_set(0.0).is_empty());
        assert_eq!(r.hot_set(1.0).len(), 3);
        assert!((r.access_coverage(&r.hot_set(1.0)) - 1.0).abs() < 1e-9);
    }
}
