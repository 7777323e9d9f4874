//! Property tests of the orchestrators' shared workload arithmetic
//! ([`neutronorch::core::orchestrator::Lens`]): degenerate shapes — single
//! layer, batch size 1, empty hot set — must never panic and must keep the
//! basic conservation invariants.

use neutronorch::core::orchestrator::Lens;
use neutronorch::core::profile::{WorkloadConfig, WorkloadProfile};
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::LayerKind;
use proptest::prelude::*;

proptest! {
    // Each case builds a replica profile (graph generation + pre-sampling),
    // so keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `train_flops_layer_split` and `paper_layer_sizes` over the whole
    /// degenerate-config lattice: `layers == 1`, `batch_size == 1`, and
    /// `hot_ratio == 0` (empty hot set) included.
    #[test]
    fn lens_arithmetic_survives_degenerate_shapes(
        layers in 1usize..4,
        batch_size in 1usize..40,
        hot_mode in 0u8..3,
        seeds in 1usize..2048,
    ) {
        let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
        cfg.layers = layers;
        cfg.batch_size = batch_size;
        cfg.hot_ratio = match hot_mode {
            0 => 0.0, // empty hot set
            1 => 0.15,
            _ => 1.0, // everything hot
        };
        cfg.profiled_batches = 2;
        let profile = WorkloadProfile::build(&DatasetSpec::tiny(), &cfg);
        let lens = Lens::new(&profile);
        for i in 0..profile.per_batch.len() {
            let total = lens.train_flops(i);
            let (bottom, upper) = lens.train_flops_layer_split(i);
            prop_assert_eq!(
                bottom + upper,
                total,
                "batch {}: the split must partition the total",
                i
            );
            if layers == 1 {
                prop_assert_eq!(upper, 0, "single-layer model has no upper layers");
            } else {
                prop_assert!(upper > 0, "multi-layer model must have upper-layer work");
            }
            prop_assert!(bottom > 0, "every model has a bottom layer");
            prop_assert!(lens.bottom_feature_bytes(i) > 0);
        }
        let sizes = lens.paper_layer_sizes(seeds);
        prop_assert_eq!(sizes.len(), layers, "one (dst, src) pair per layer");
        for (l, &(dst, src)) in sizes.iter().enumerate() {
            prop_assert!(dst.is_finite() && src.is_finite(), "layer {l} sizes not finite");
            prop_assert!(dst >= 1.0, "layer {l} dst {dst} collapsed");
            prop_assert!(src > 0.0, "layer {l} src {src} collapsed");
        }
        // Top layer dst is the seed count itself.
        prop_assert!((sizes[layers - 1].0 - seeds as f64).abs() < 1e-9);
        prop_assert!(lens.paper_batch_bytes(seeds) > 0);
        prop_assert!(lens.param_bytes() > 0);
        let (ratio, hit) = lens.cache_plan(1 << 20, false);
        prop_assert!((0.0..=1.0).contains(&ratio));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&hit));
    }

    /// The batch-size-1 corner specifically: every per-batch quantity stays
    /// well-formed when each batch holds a single training vertex.
    #[test]
    fn single_vertex_batches_never_panic(layers in 1usize..4, seed_pick in 0u64..64) {
        let mut cfg = WorkloadConfig::paper_default(LayerKind::Sage);
        cfg.layers = layers;
        cfg.batch_size = 1;
        cfg.profiled_batches = 3;
        cfg.seed ^= seed_pick;
        let profile = WorkloadProfile::build(&DatasetSpec::tiny(), &cfg);
        let lens = Lens::new(&profile);
        prop_assert!(profile.num_batches >= 1);
        for i in 0..profile.per_batch.len() {
            let (bottom, upper) = lens.train_flops_layer_split(i);
            prop_assert_eq!(bottom + upper, lens.train_flops(i));
        }
        let sizes = lens.paper_layer_sizes(1);
        prop_assert_eq!(sizes.len(), layers);
        prop_assert!((sizes[layers - 1].0 - 1.0).abs() < 1e-9);
    }
}
