//! End-to-end integration tests spanning all crates: dataset synthesis →
//! profiling → orchestration simulation → numeric training.

use neutronorch::core::baselines::{roster, Case1Dgl};
use neutronorch::core::profile::{WorkloadConfig, WorkloadProfile};
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutronorch::core::{NeutronOrch, Orchestrator};
use neutronorch::graph::DatasetSpec;
use neutronorch::hetero::HardwareSpec;
use neutronorch::nn::LayerKind;

fn small_profile(kind: LayerKind) -> WorkloadProfile {
    let mut spec = DatasetSpec::reddit_scaled();
    spec.vertices = 3_000;
    spec.edges = 240_000;
    let mut cfg = WorkloadConfig::paper_default(kind);
    cfg.batch_size = 256;
    cfg.profiled_batches = 3;
    WorkloadProfile::build(&spec, &cfg)
}

#[test]
fn every_orchestrator_simulates_a_full_epoch() {
    let profile = small_profile(LayerKind::Gcn);
    let hw = HardwareSpec::v100_server(1.0);
    let mut systems: Vec<Box<dyn Orchestrator>> = roster(LayerKind::Gcn)
        .into_iter()
        .map(|(name, sys)| sys.unwrap_or_else(|| panic!("{name} supports GCN")))
        .collect();
    systems.push(Box::new(Case1Dgl { pipelined: false }));
    for sys in systems {
        let r = sys.simulate_epoch(&profile, &hw).unwrap_or_else(|e| {
            panic!("{} OOMed on a tiny replica: {e}", sys.name());
        });
        assert!(
            r.epoch_seconds.is_finite() && r.epoch_seconds > 0.0,
            "{}",
            r.system
        );
        assert!(
            (0.0..=1.0).contains(&r.cpu_util),
            "{}: cpu {}",
            r.system,
            r.cpu_util
        );
        assert!(
            (0.0..=1.0).contains(&r.gpu_util),
            "{}: gpu {}",
            r.system,
            r.gpu_util
        );
        assert!(r.gpu_mem_peak > 0);
        assert_eq!(r.num_batches, profile.num_batches);
        // Busy-time breakdown must not exceed what the devices could do.
        assert!(r.train_seconds <= r.epoch_seconds + 1e-9, "{}", r.system);
    }
}

#[test]
fn neutronorch_simulation_beats_dgl_for_all_three_models() {
    let hw = HardwareSpec::v100_server(1.0);
    for kind in LayerKind::ALL {
        let profile = small_profile(kind);
        let ours = NeutronOrch::new().simulate_epoch(&profile, &hw).unwrap();
        let dgl = Case1Dgl { pipelined: true }
            .simulate_epoch(&profile, &hw)
            .unwrap();
        assert!(
            ours.epoch_seconds < dgl.epoch_seconds,
            "{kind:?}: {} !< {}",
            ours.epoch_seconds,
            dgl.epoch_seconds
        );
    }
}

#[test]
fn numeric_training_converges_and_respects_the_bound_for_all_models() {
    for kind in [LayerKind::Gcn, LayerKind::Sage] {
        let ds = DatasetSpec::tiny().build_full();
        let mut cfg = TrainerConfig::convergence_default(
            kind,
            ReusePolicy::HotnessAware {
                hot_ratio: 0.25,
                super_batch: 3,
            },
        );
        cfg.batch_size = 64;
        let mut trainer = ConvergenceTrainer::new(ds, cfg);
        let mut last = None;
        for e in 0..8 {
            let obs = trainer.train_epoch(e);
            assert!(obs.max_staleness < 6, "{kind:?}: 2n bound violated");
            last = Some(obs);
        }
        let last = last.unwrap();
        assert!(last.train_loss.is_finite());
        assert!(
            last.test_accuracy > 0.4,
            "{kind:?}: accuracy {}",
            last.test_accuracy
        );
    }
}

#[test]
fn gat_training_is_stable_with_reuse() {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(
        LayerKind::Gat,
        ReusePolicy::HotnessAware {
            hot_ratio: 0.2,
            super_batch: 2,
        },
    );
    cfg.batch_size = 64;
    cfg.lr = 0.1;
    let mut trainer = ConvergenceTrainer::new(ds, cfg);
    for e in 0..4 {
        let obs = trainer.train_epoch(e);
        assert!(obs.train_loss.is_finite(), "GAT diverged at epoch {e}");
    }
}

#[test]
fn oom_is_an_error_value_never_a_panic() {
    // A replica whose paper-scale batch cannot fit a 16 GB device.
    let mut spec = DatasetSpec::wikipedia_scaled();
    spec.vertices = 3_000;
    spec.edges = 96_000;
    let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
    cfg.layers = 5;
    cfg.batch_size = 2048;
    cfg.profiled_batches = 2;
    let profile = WorkloadProfile::build(&spec, &cfg);
    let hw = HardwareSpec::v100_server(1.0);
    let result = Case1Dgl { pipelined: true }.simulate_epoch(&profile, &hw);
    let err = result.expect_err("5-layer Wikipedia at bs2048 must OOM on DGL");
    assert!(err.to_string().contains("OOM"));
}

#[test]
fn hybrid_and_pipeline_flags_change_behaviour_not_correctness() {
    use neutronorch::core::neutronorch::NeutronOrchConfig;
    let profile = small_profile(LayerKind::Gcn);
    let hw = HardwareSpec::v100_server(1.0);
    for (_, cfg) in NeutronOrchConfig::ablation_ladder() {
        let r = NeutronOrch::with_config(cfg)
            .simulate_epoch(&profile, &hw)
            .unwrap();
        assert!(r.epoch_seconds > 0.0);
    }
}
