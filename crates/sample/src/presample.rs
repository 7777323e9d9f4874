//! GNNLab-style pre-sampling hotness estimation (§4.1.2).
//!
//! "We employ the pre-sampling method of GNNLab to sample multi-hop
//! neighbors multiple times for each training vertex and record the accessed
//! frequencies (i.e., hotness) of the vertices."

use crate::batch::BatchIterator;
use crate::hotness::HotnessRanking;
use crate::neighbor::{BlockBuilder, NeighborSampler};
use neutron_graph::Csr;

/// Runs a few simulated sampling epochs and records how often each vertex
/// appears as a **bottom-layer input** (a raw-feature read — the access that
/// caching or CPU offloading can save).
pub struct PreSampler {
    /// Number of simulated epochs; GNNLab uses a small constant.
    pub epochs: usize,
}

impl Default for PreSampler {
    fn default() -> Self {
        Self { epochs: 2 }
    }
}

impl PreSampler {
    /// Creates a pre-sampler running `epochs` simulated epochs.
    pub fn new(epochs: usize) -> Self {
        assert!(epochs >= 1);
        Self { epochs }
    }

    /// Estimates per-vertex hotness for the given sampling configuration.
    /// Only `sampler`'s fanout is used: hotness is what an *unpruned* run
    /// would read, so a sampler that already carries a bottom skip set
    /// ([`NeighborSampler::with_bottom_skip`]) ranks exactly like one
    /// without. One [`BlockBuilder`] serves every batch, and each batch's
    /// blocks go back to it once counted, so a batch costs no `O(|V|)`
    /// scratch set-up and no fresh block buffers.
    pub fn estimate(
        &self,
        g: &Csr,
        sampler: &NeighborSampler,
        batches: &BatchIterator,
        seed: u64,
    ) -> HotnessRanking {
        let sampler = NeighborSampler::new(sampler.fanout().clone());
        let mut counts = vec![0u32; g.num_vertices()];
        let mut builder = BlockBuilder::new();
        for epoch in 0..self.epochs {
            for (bi, batch) in batches.epoch_batches(epoch).iter().enumerate() {
                let seed = seed ^ ((epoch * 131 + bi) as u64);
                let mut blocks = sampler.sample_batch_pooled(g, batch, seed, &mut builder);
                for &v in blocks[0].src() {
                    counts[v as usize] += 1;
                }
                for block in blocks.drain(..) {
                    builder.donate_parts(block.into_parts());
                }
                builder.donate_stack(blocks);
            }
        }
        HotnessRanking::from_counts(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::Fanout;
    use neutron_graph::generate::{rmat, RmatParams};

    #[test]
    fn hubs_are_hotter_than_leaves() {
        let g = rmat(800, 12_000, RmatParams::graph500(), 1);
        let sampler = NeighborSampler::new(Fanout::new(vec![5, 5]));
        let batches = BatchIterator::new((0..400).collect(), 64, 2);
        let ranking = PreSampler::new(2).estimate(&g, &sampler, &batches, 3);
        // The hottest decile should absorb a disproportionate share of
        // accesses on a skewed graph.
        let top = ranking.order()[..80]
            .iter()
            .map(|&v| ranking.count(v) as u64)
            .sum::<u64>();
        let total: u64 = (0..800).map(|v| ranking.count(v) as u64).sum();
        // Uniform access would give the decile 10%; skew should at least
        // double that.
        assert!(
            top as f64 > 0.20 * total as f64,
            "top decile {top} of {total}"
        );
    }

    #[test]
    fn counts_are_deterministic() {
        let g = rmat(200, 2_000, RmatParams::graph500(), 4);
        let sampler = NeighborSampler::new(Fanout::new(vec![3]));
        let batches = BatchIterator::new((0..100).collect(), 32, 5);
        let a = PreSampler::new(1).estimate(&g, &sampler, &batches, 6);
        let b = PreSampler::new(1).estimate(&g, &sampler, &batches, 6);
        assert_eq!(a.order(), b.order());
    }

    #[test]
    fn training_vertices_always_accessed() {
        // Every training vertex appears in its own bottom-layer src set, so
        // its count is at least epochs.
        let g = rmat(100, 600, RmatParams::mild(), 7);
        let sampler = NeighborSampler::new(Fanout::new(vec![2, 2]));
        let batches = BatchIterator::new((0..50).collect(), 25, 8);
        let r = PreSampler::new(3).estimate(&g, &sampler, &batches, 9);
        for v in 0..50 {
            assert!(r.count(v) >= 3, "train vertex {v} count {}", r.count(v));
        }
    }
}
