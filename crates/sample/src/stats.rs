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

    /// Bottom-layer source count — the raw-feature working set of the batch.
    pub fn bottom_src(&self) -> usize {
        self.layers.first().map_or(0, |l| l.num_src)
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
        // §5.7: the bottom layer holds 59–65% of sampled edges at 3–5 layers.
        let share = stats.layers[0].num_edges as f64 / stats.total_edges() as f64;
        assert!(
            share > 0.5,
            "bottom layer should hold most sampled edges, got {share:.2}"
        );
        assert!(stats.layers[0].num_src >= stats.layers[2].num_src);
    }
}
