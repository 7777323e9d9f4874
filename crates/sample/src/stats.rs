//! Sampled-subgraph statistics — the workload quantities the hardware
//! simulator converts into time (Fig 7's per-layer |V| and dimensions).

use crate::block::Block;

/// Per-layer size statistics of one sampled batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerStats {
    /// Destination (output) vertices of the layer.
    pub num_dst: usize,
    /// Source (input) vertices of the layer.
    pub num_src: usize,
    /// Sampled edges (excluding implicit self edges).
    pub num_edges: usize,
}

/// Statistics of a full multi-hop sampled batch, bottom layer first.
#[derive(Clone, Debug, Default)]
pub struct SampleStats {
    /// One entry per layer, `layers[0]` = bottom.
    pub layers: Vec<LayerStats>,
}

impl SampleStats {
    /// Measures a sampled batch.
    pub fn measure(blocks: &[Block]) -> Self {
        let layers = blocks
            .iter()
            .map(|b| LayerStats {
                num_dst: b.num_dst(),
                num_src: b.num_src(),
                num_edges: b.num_edges(),
            })
            .collect();
        Self { layers }
    }

    /// Total sampled edges across all layers.
    pub fn total_edges(&self) -> usize {
        self.layers.iter().map(|l| l.num_edges).sum()
    }

    /// Total source vertices across all layers (with multiplicity across
    /// layers) — proportional to activation memory during training.
    pub fn total_src(&self) -> usize {
        self.layers.iter().map(|l| l.num_src).sum()
    }

    /// Bottom-layer source count — the raw-feature working set of the batch.
    pub fn bottom_src(&self) -> usize {
        self.layers.first().map_or(0, |l| l.num_src)
    }

    /// Share of all sampled edges that belong to the bottom layer; the
    /// paper's §5.7 reports 59–65% for 3–5-layer models.
    pub fn bottom_edge_share(&self) -> f64 {
        let total = self.total_edges();
        if total == 0 {
            return 0.0;
        }
        self.layers[0].num_edges as f64 / total as f64
    }

    /// Element-wise accumulation (used to average over batches).
    pub fn accumulate(&mut self, other: &SampleStats) {
        if self.layers.is_empty() {
            self.layers = vec![LayerStats::default(); other.layers.len()];
        }
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.num_dst += b.num_dst;
            a.num_src += b.num_src;
            a.num_edges += b.num_edges;
        }
    }

    /// Divides all counters by `n` (integer mean over batches).
    pub fn scale_down(&mut self, n: usize) {
        assert!(n > 0);
        for l in &mut self.layers {
            l.num_dst /= n;
            l.num_src /= n;
            l.num_edges /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::Fanout;
    use crate::neighbor::NeighborSampler;
    use neutron_graph::generate::{rmat, RmatParams};

    #[test]
    fn bottom_layer_dominates_edges_with_paper_fanout() {
        let g = rmat(3000, 60_000, RmatParams::graph500(), 1);
        let s = NeighborSampler::new(Fanout::paper_default(3));
        let blocks = s.sample_batch(&g, &(0..128).collect::<Vec<_>>(), 2);
        let stats = SampleStats::measure(&blocks);
        assert!(
            stats.bottom_edge_share() > 0.5,
            "bottom layer should hold most sampled edges, got {:.2}",
            stats.bottom_edge_share()
        );
        assert!(stats.layers[0].num_src >= stats.layers[2].num_src);
    }

    #[test]
    fn accumulate_and_scale_down_average() {
        let mut acc = SampleStats::default();
        let a = SampleStats {
            layers: vec![LayerStats {
                num_dst: 2,
                num_src: 4,
                num_edges: 6,
            }],
        };
        acc.accumulate(&a);
        acc.accumulate(&a);
        acc.scale_down(2);
        assert_eq!(acc.layers[0], a.layers[0]);
    }
}
