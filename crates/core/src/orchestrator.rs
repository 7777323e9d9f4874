//! The orchestrator abstraction and shared workload arithmetic.

use crate::profile::WorkloadProfile;
use crate::report::EpochReport;
use neutron_hetero::{HardwareSpec, OomError};
use neutron_nn::flops;
use neutron_nn::model::ModelConfig;

/// A task-orchestration strategy (one path through the paper's Fig 1 tree,
/// or NeutronOrch's layer-based split).
pub trait Orchestrator {
    /// Display name used in tables/figures.
    fn name(&self) -> String;

    /// Simulates one epoch on `hw`; `Err` is an OOM, matching the "OOM"
    /// cells of the paper's tables.
    fn simulate_epoch(
        &self,
        profile: &WorkloadProfile,
        hw: &HardwareSpec,
    ) -> Result<EpochReport, OomError>;
}

/// Derived per-batch workload arithmetic shared by every orchestrator.
pub struct Lens<'a> {
    /// The profiled workload.
    pub profile: &'a WorkloadProfile,
    /// Per-layer `(in_dim, out_dim)`.
    pub dims: Vec<(usize, usize)>,
}

impl<'a> Lens<'a> {
    /// Builds the lens for a profile.
    pub fn new(profile: &'a WorkloadProfile) -> Self {
        let cfg = ModelConfig {
            kind: profile.config.kind,
            feature_dim: profile.spec.feature_dim,
            hidden_dim: profile.spec.hidden_dim,
            num_classes: profile.spec.num_classes,
            layers: profile.config.layers,
            seed: 0,
        };
        Self {
            profile,
            dims: cfg.layer_dims(),
        }
    }

    /// Total sampled edges of batch `i` (the sampling workload).
    pub fn sampled_edges(&self, i: usize) -> u64 {
        self.profile.stats(i).total_edges() as u64
    }

    /// Forward+backward FLOPs of batch `i` over all layers.
    pub fn train_flops(&self, i: usize) -> u64 {
        let (bottom, upper) = self.train_flops_layer_split(i);
        bottom + upper
    }

    /// FLOPs of batch `i` split at NeutronOrch's layer boundary (§4.1.1):
    /// (the bottom layer, all upper layers).
    pub fn train_flops_layer_split(&self, i: usize) -> (u64, u64) {
        let mut per_layer =
            self.profile
                .stats(i)
                .layers
                .iter()
                .zip(&self.dims)
                .map(|(l, &(din, dout))| {
                    flops::layer_train_flops(
                        self.profile.config.kind,
                        l.num_dst as u64,
                        l.num_src as u64,
                        l.num_edges as u64,
                        din as u64,
                        dout as u64,
                    )
                });
        let bottom = per_layer.next().unwrap_or(0);
        (bottom, per_layer.sum())
    }

    /// Raw feature bytes of batch `i`'s bottom-layer source set.
    pub fn bottom_feature_bytes(&self, i: usize) -> u64 {
        self.profile.stats(i).bottom_src() as u64 * self.profile.spec.feature_row_bytes()
    }

    /// Bytes of the sampled subgraph structure (u32 src/dst per edge).
    pub fn block_bytes(&self, i: usize) -> u64 {
        self.sampled_edges(i) * 8
    }

    /// Bytes of the model parameters (weights only, f32).
    pub fn param_bytes(&self) -> u64 {
        let per_layer_factor: u64 = match self.profile.config.kind {
            neutron_nn::LayerKind::Gcn => 1,
            neutron_nn::LayerKind::Sage => 2,
            neutron_nn::LayerKind::Gat => 1,
        };
        self.dims
            .iter()
            .map(|&(i, o)| per_layer_factor * (i as u64 * o as u64 + o as u64) * 4)
            .sum()
    }

    // ------------------------------------------------------------------
    // Paper-scale memory estimators.
    //
    // Compute and transfer workloads use replica-measured statistics, but
    // *memory* effects (cache ratios, OOM) are capacity phenomena of the
    // full-size datasets. These estimators reconstruct paper-scale working
    // sets analytically (top-down fanout expansion with birthday-paradox
    // dedup), so the ledger can run against the real 16 GB V100 budget.
    // ------------------------------------------------------------------

    /// Estimated per-layer `(dst, src)` sizes at **paper scale** for a batch
    /// of `seeds`, bottom layer first.
    pub fn paper_layer_sizes(&self, seeds: usize) -> Vec<(f64, f64)> {
        let v = self.profile.spec.paper_vertices as f64;
        let fanout = self.profile.config.fanout();
        let mut sizes_top_down = Vec::with_capacity(fanout.layers());
        let mut dst = seeds as f64;
        for l in (0..fanout.layers()).rev() {
            let picks = dst * (fanout.at(l) as f64 + 1.0);
            // Expected unique vertices after `picks` draws from `v`.
            let uniq = v * (1.0 - (-picks / v).exp());
            let src = picks.min(uniq);
            sizes_top_down.push((dst, src));
            dst = src;
        }
        sizes_top_down.reverse();
        sizes_top_down
    }

    /// Estimated GPU bytes one in-flight batch occupies at paper scale:
    /// bottom-layer features + hidden activations (value+grad) + block
    /// structure.
    pub fn paper_batch_bytes(&self, seeds: usize) -> u64 {
        let sizes = self.paper_layer_sizes(seeds);
        let feat = self.profile.spec.feature_row_bytes() as f64;
        let hid = self.profile.spec.hidden_row_bytes() as f64;
        let bottom_src = sizes.first().map(|&(_, s)| s).unwrap_or(0.0);
        let mut bytes = bottom_src * feat;
        for &(dst, src) in sizes.iter().skip(1) {
            bytes += (src + dst) * hid * 2.0;
        }
        // Sampled structure: ~8 bytes per sampled edge.
        let fanout = self.profile.config.fanout();
        for (l, &(dst, _)) in sizes.iter().enumerate() {
            bytes += dst * fanout.at(l) as f64 * 8.0;
        }
        bytes as u64
    }

    /// Paper-scale topology bytes (CSR offsets + targets).
    pub fn paper_topology_bytes(&self) -> u64 {
        self.profile.spec.paper_edges * 4 + self.profile.spec.paper_vertices * 8
    }

    /// Paper-scale bytes of the full feature matrix.
    pub fn paper_feature_bytes(&self) -> u64 {
        self.profile.spec.paper_vertices * self.profile.spec.feature_row_bytes()
    }

    /// Sizes a feature cache of `budget_bytes` at paper scale and returns
    /// `(cache ratio, expected hit ratio)`. Hit rates use the paper-scale
    /// access-skew model; degree ranking (PaGraph) pays a penalty versus
    /// pre-sampling (GNNLab), matching the paper's Fig 13 ordering.
    pub fn cache_plan(&self, budget_bytes: u64, degree_ranked: bool) -> (f64, f64) {
        let row = self.profile.spec.feature_row_bytes().max(1);
        let cache_n_paper = (budget_bytes / row).min(self.profile.spec.paper_vertices);
        let ratio = cache_n_paper as f64 / self.profile.spec.paper_vertices as f64;
        let hit = self.profile.paper_coverage(ratio);
        if degree_ranked {
            (ratio, hit * 0.85)
        } else {
            (ratio, hit)
        }
    }

    /// Paper-scale GAS working set: the batch's full 1-hop neighborhood.
    pub fn paper_one_hop_bytes(&self, seeds: usize) -> u64 {
        let v = self.profile.spec.paper_vertices as f64;
        let picks = seeds as f64 * (self.profile.avg_degree + 1.0);
        let src = picks.min(v * (1.0 - (-picks / v).exp()));
        let feat = self.profile.spec.feature_row_bytes() as f64;
        let hid = self.profile.spec.hidden_row_bytes() as f64;
        let layers = self.profile.config.layers as f64;
        (src * feat + (src + seeds as f64) * hid * 2.0 * layers) as u64
    }
}

/// The tiny-replica workload (batch 64, 2 layers) on the single-V100 server
/// that the simulator unit tests share.
#[cfg(test)]
pub(crate) fn tiny_fixture(
    kind: neutron_nn::LayerKind,
    profiled_batches: usize,
) -> (WorkloadProfile, HardwareSpec) {
    let mut cfg = crate::profile::WorkloadConfig::paper_default(kind);
    cfg.batch_size = 64;
    cfg.layers = 2;
    cfg.profiled_batches = profiled_batches;
    let profile = WorkloadProfile::build(&neutron_graph::DatasetSpec::tiny(), &cfg);
    (profile, HardwareSpec::v100_server(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_nn::LayerKind;

    #[test]
    fn flops_split_is_less_than_total() {
        let (p, _) = tiny_fixture(LayerKind::Gcn, 2);
        let lens = Lens::new(&p);
        let (bottom, upper) = lens.train_flops_layer_split(0);
        assert_eq!(bottom + upper, lens.train_flops(0));
        assert!(bottom > 0);
        assert!(upper > 0);
    }

    #[test]
    fn bottom_feature_bytes_use_spec_dim() {
        let (p, _) = tiny_fixture(LayerKind::Gcn, 2);
        let lens = Lens::new(&p);
        let expect = p.stats(0).bottom_src() as u64 * 16 * 4; // tiny: 16 dims
        assert_eq!(lens.bottom_feature_bytes(0), expect);
    }

    #[test]
    fn param_bytes_positive_and_kind_sensitive() {
        let (p, _) = tiny_fixture(LayerKind::Gcn, 2);
        let lens = Lens::new(&p);
        assert!(lens.param_bytes() > 0);
    }
}
