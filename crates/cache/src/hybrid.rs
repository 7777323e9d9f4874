//! Hybrid hot-vertex processing (§4.1.3).
//!
//! NeutronOrch splits the hot set between **CPU embedding computation** and
//! **GPU feature caching**: when the GPU has spare memory and is idling on
//! CPU-side work, hot vertices shift to the GPU cache; when GPU memory is
//! tight (or idle time reaches zero), they stay on the CPU. Embeddings are
//! smaller than features (hidden_dim < feature_dim), which is where the
//! Fig 13 memory savings come from.

use neutron_graph::VertexId;
use neutron_sample::HotSet;

/// Outcome of the hybrid split.
#[derive(Clone, Debug)]
pub struct HybridPlan {
    /// Hot vertices whose embeddings the CPU computes and the GPU reuses.
    pub cpu_compute: Vec<VertexId>,
    /// Hot vertices whose raw features are cached in GPU memory.
    pub gpu_cache: Vec<VertexId>,
    /// GPU bytes consumed: cached features + staged hot embeddings.
    pub gpu_bytes: u64,
}

impl HybridPlan {
    /// Fraction of the hot set assigned to CPU computation.
    pub fn cpu_fraction(&self) -> f64 {
        let total = self.cpu_compute.len() + self.gpu_cache.len();
        if total == 0 {
            0.0
        } else {
            self.cpu_compute.len() as f64 / total as f64
        }
    }
}

/// The adaptive splitter.
#[derive(Clone, Copy, Debug)]
pub struct HybridPolicy {
    /// Bytes of one raw feature row.
    pub feature_row_bytes: u64,
    /// Bytes of one embedding row (hidden dim).
    pub embedding_row_bytes: u64,
}

impl HybridPolicy {
    /// Plans the split of `hot`, the hot set's vertices hottest first, into
    /// a CPU-computed prefix and a GPU-cached suffix. `idle_fraction` is the
    /// measured share of GPU time spent waiting on CPU embedding work;
    /// `gpu_free_bytes` is what the memory ledger has left after
    /// topology/batch allocations.
    ///
    /// Rules from §4.1.3:
    /// - move hot vertices from CPU to GPU cache while the GPU is idle
    ///   (idle time > 0) **and** memory remains;
    /// - stop when memory is exhausted or idle time reaches zero.
    pub fn plan(&self, hot: &[VertexId], idle_fraction: f64, gpu_free_bytes: u64) -> HybridPlan {
        let (cpu, gpu) = hot.split_at(self.cpu_len(hot.len(), idle_fraction, gpu_free_bytes));
        HybridPlan {
            cpu_compute: cpu.to_vec(),
            gpu_cache: gpu.to_vec(),
            gpu_bytes: gpu.len() as u64 * self.feature_row_bytes
                + cpu.len() as u64 * self.embedding_row_bytes,
        }
    }

    /// Length of the CPU-computed prefix of a `hot_len`-vertex hot set.
    fn cpu_len(&self, hot_len: usize, idle_fraction: f64, gpu_free_bytes: u64) -> usize {
        // The idle fraction comes from wall-clock measurements, so NaN and
        // slightly-out-of-range values happen; clamp rather than panic
        // (NaN maps to 0.0: no evidence of idleness, nothing moves).
        let idle = if idle_fraction.is_nan() {
            0.0
        } else {
            idle_fraction.clamp(0.0, 1.0)
        };
        // Idleness decides the *target* share moved to the GPU: fully idle
        // GPU (waiting on the CPU) pulls the whole hot set into its cache;
        // zero idle keeps everything on the CPU.
        let want_gpu = (hot_len as f64 * idle).round() as usize;
        // Memory caps the move; every cached vertex also frees the staging
        // slot its embedding would have used, so charge the net difference.
        // Zero net cost (embeddings at least as large as features) means
        // costless rows, and costless rows always fit, under any budget.
        let per_vertex = self
            .feature_row_bytes
            .saturating_sub(self.embedding_row_bytes);
        let fit_gpu = gpu_free_bytes
            .checked_div(per_vertex)
            .map_or(usize::MAX, |n| n as usize);
        let to_gpu = want_gpu.min(fit_gpu).min(hot_len);
        // The *least* hot of the hot set go to the GPU cache: the hottest
        // vertices are reused most, so CPU-computing them saves the most
        // repeated GPU work per embedding update.
        hot_len - to_gpu
    }

    /// [`Self::plan`] driven by a *measured* train-stage occupancy rather
    /// than a pre-computed idle fraction — the §4.1.3 feedback loop closed
    /// at runtime. `train_occupancy` is the fraction of wall-clock the
    /// training device spent computing (e.g.
    /// `PipelineReport::train_occupancy`); its complement is the idle share
    /// available for hot-feature caching. Values outside `[0, 1]` (possible
    /// from coarse timers) are clamped instead of panicking.
    pub fn plan_from_occupancy(
        &self,
        hot: &HotSet,
        train_occupancy: f64,
        gpu_free_bytes: u64,
    ) -> HybridPlan {
        let idle = (1.0 - train_occupancy).clamp(0.0, 1.0);
        self.plan(hot.vertices(), idle, gpu_free_bytes)
    }

    /// [`HybridPlan::cpu_fraction`] of [`Self::plan_from_occupancy`]'s plan
    /// for a `hot_len`-vertex hot set, read off the split point without
    /// copying the hot set into the plan's two vertex lists.
    pub fn cpu_fraction_from_occupancy(
        &self,
        hot_len: usize,
        train_occupancy: f64,
        gpu_free_bytes: u64,
    ) -> f64 {
        let idle = (1.0 - train_occupancy).clamp(0.0, 1.0);
        let k = self.cpu_len(hot_len, idle, gpu_free_bytes);
        if hot_len == 0 {
            0.0
        } else {
            k as f64 / hot_len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_sample::HotnessRanking;

    fn hot_set(n: usize, ratio: f64) -> HotSet {
        let counts: Vec<u32> = (0..n as u32).rev().collect();
        HotnessRanking::from_counts(counts).hot_set(ratio)
    }

    fn policy() -> HybridPolicy {
        HybridPolicy {
            feature_row_bytes: 400,
            embedding_row_bytes: 100,
        }
    }

    #[test]
    fn zero_idle_keeps_everything_on_cpu() {
        let hot = hot_set(100, 0.2);
        let plan = policy().plan(hot.vertices(), 0.0, u64::MAX);
        assert_eq!(plan.cpu_compute.len(), 20);
        assert!(plan.gpu_cache.is_empty());
        assert!((plan.cpu_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_idle_with_memory_moves_all_to_gpu() {
        let hot = hot_set(100, 0.2);
        let plan = policy().plan(hot.vertices(), 1.0, u64::MAX);
        assert!(plan.cpu_compute.is_empty());
        assert_eq!(plan.gpu_cache.len(), 20);
    }

    #[test]
    fn memory_caps_the_gpu_share() {
        let hot = hot_set(100, 0.2);
        // Each cached vertex costs its 400 B feature row but frees the
        // 100 B embedding staging slot: net 300 B. Room for exactly 5.
        let plan = policy().plan(hot.vertices(), 1.0, 5 * 300);
        assert_eq!(plan.gpu_cache.len(), 5);
        assert_eq!(plan.cpu_compute.len(), 15);
    }

    #[test]
    fn memory_cap_uses_net_bytes_not_gross() {
        let hot = hot_set(100, 0.2);
        // 4 gross rows (4 * 400 B) hold 5 vertices once each freed 100 B
        // staging slot is credited back.
        let plan = policy().plan(hot.vertices(), 1.0, 4 * 400);
        assert_eq!(plan.gpu_cache.len(), 5);
    }

    #[test]
    fn zero_net_row_cost_fits_everything() {
        // Embeddings as large as features: caching is memory-neutral, so
        // any budget (even zero) admits the whole idle-driven target.
        let hot = hot_set(100, 0.2);
        let p = HybridPolicy {
            feature_row_bytes: 128,
            embedding_row_bytes: 128,
        };
        let plan = p.plan(hot.vertices(), 1.0, 0);
        assert_eq!(plan.gpu_cache.len(), 20);
        assert!(plan.cpu_compute.is_empty());
    }

    #[test]
    fn nan_and_out_of_range_idleness_are_clamped() {
        let hot = hot_set(100, 0.2);
        let p = policy();
        // NaN (e.g. 0/0 from two zero timers) means "no evidence of
        // idleness": nothing moves, and no panic.
        let nan = p.plan(hot.vertices(), f64::NAN, u64::MAX);
        assert!(nan.gpu_cache.is_empty());
        let over = p.plan(hot.vertices(), 1.7, u64::MAX);
        assert_eq!(over.gpu_cache.len(), 20);
        let under = p.plan(hot.vertices(), -0.3, u64::MAX);
        assert!(under.gpu_cache.is_empty());
        // The same safety holds through the occupancy wrapper.
        let nan_occ = p.plan_from_occupancy(&hot, f64::NAN, u64::MAX);
        assert!(nan_occ.gpu_cache.is_empty());
    }

    #[test]
    fn hottest_vertices_stay_on_cpu() {
        let hot = hot_set(10, 1.0);
        let plan = policy().plan(hot.vertices(), 0.5, u64::MAX);
        // counts were descending by id, so vertex 0 is hottest.
        assert!(plan.cpu_compute.contains(&0));
        assert!(!plan.gpu_cache.contains(&0));
    }

    #[test]
    fn gpu_bytes_mix_features_and_embeddings() {
        let hot = hot_set(10, 1.0);
        let plan = policy().plan(hot.vertices(), 0.5, u64::MAX);
        let expect = plan.gpu_cache.len() as u64 * 400 + plan.cpu_compute.len() as u64 * 100;
        assert_eq!(plan.gpu_bytes, expect);
    }

    #[test]
    fn occupancy_plan_complements_idleness_and_clamps() {
        let hot = hot_set(100, 0.2);
        let p = policy();
        // Fully busy trainer → no idle → everything stays CPU-computed.
        let busy = p.plan_from_occupancy(&hot, 1.0, u64::MAX);
        assert!(busy.gpu_cache.is_empty());
        // Starved trainer → fully idle → the whole hot set moves to GPU.
        let starved = p.plan_from_occupancy(&hot, 0.0, u64::MAX);
        assert!(starved.cpu_compute.is_empty());
        // Timer noise outside [0,1] is clamped, not a panic.
        let noisy = p.plan_from_occupancy(&hot, 1.3, u64::MAX);
        assert!(noisy.gpu_cache.is_empty());
        let negative = p.plan_from_occupancy(&hot, -0.2, u64::MAX);
        assert!(negative.cpu_compute.is_empty());
    }

    #[test]
    fn empty_hot_set_is_fine() {
        let hot = hot_set(10, 0.0);
        let plan = policy().plan(hot.vertices(), 0.7, 1000);
        assert_eq!(plan.cpu_fraction(), 0.0);
        assert_eq!(plan.gpu_bytes, 0);
    }

    #[test]
    fn cpu_fraction_from_occupancy_is_the_plans_fraction() {
        let p = policy();
        for (n, ratio) in [(10, 0.0), (100, 0.2), (333, 0.37), (1000, 1.0)] {
            let hot = hot_set(n, ratio);
            for occupancy in [f64::NAN, -0.2, 0.0, 0.013, 0.25, 0.5, 0.61, 0.999, 1.0, 1.3] {
                for budget in [0, 300, 7_000, u64::MAX] {
                    let plan = p.plan_from_occupancy(&hot, occupancy, budget);
                    let direct = p.cpu_fraction_from_occupancy(hot.len(), occupancy, budget);
                    assert_eq!(
                        direct.to_bits(),
                        plan.cpu_fraction().to_bits(),
                        "{n} hot at ratio {ratio}, occupancy {occupancy}, budget {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn cpu_gpu_split_partitions_hot_set() {
        let hot = hot_set(4, 1.0);
        let plan = policy().plan(hot.vertices(), 0.5, u64::MAX);
        assert_eq!(plan.cpu_compute, vec![0, 1]);
        assert_eq!(plan.gpu_cache, vec![2, 3]);
        let all_cpu = policy().plan(hot.vertices(), 0.0, u64::MAX);
        assert_eq!(all_cpu.cpu_compute.len(), 4);
        assert!(all_cpu.gpu_cache.is_empty());
    }
}
