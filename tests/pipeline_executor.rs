//! Integration tests of the pipelined stage graph, one epoch at a time:
//! determinism versus the sequential trainer, determinism across thread
//! counts, and the §4.2.2 staleness bound under real concurrency.

use neutronorch::core::pipeline::{run_epoch_sequential, PipelineConfig, PipelineReport};
use neutronorch::core::session::{Session, SessionConfig};
use neutronorch::core::trainer::{
    ConvergenceTrainer, EpochObservation, ReusePolicy, TrainerConfig,
};
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::LayerKind;

fn trainer(policy: ReusePolicy) -> ConvergenceTrainer {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
    cfg.batch_size = 48;
    cfg.lr = 0.4;
    ConvergenceTrainer::new(ds, cfg)
}

fn pipeline(sampler_threads: usize, gather_threads: usize) -> PipelineConfig {
    PipelineConfig {
        sampler_threads,
        gather_threads,
        channel_depth: 3,
        h2d_gibps: 0.0,
    }
}

/// Runs `epoch` as a session of its own — workers spawned and joined per
/// call — with no cache, so byte volumes equal the sequential reference's.
fn run_epoch(
    (sampler_threads, gather_threads): (usize, usize),
    t: &mut ConvergenceTrainer,
    epoch: usize,
) -> (EpochObservation, PipelineReport) {
    let session = Session::new(SessionConfig {
        pipeline: pipeline(sampler_threads, gather_threads),
        gpu_free_bytes: 0,
        ..SessionConfig::default()
    });
    let run = session.run_session(t, epoch, 1).epochs.remove(0);
    (run.observation, run.report)
}

/// Under `ReusePolicy::Exact` the pipelined executor must reproduce the
/// sequential trainer's loss trajectory bit-for-bit: sampling is seeded per
/// `(seed, epoch, batch index)` and the train stage is in-order, so
/// concurrency may never change results.
#[test]
fn pipelined_exact_matches_sequential_loss_trajectory() {
    let mut seq = trainer(ReusePolicy::Exact);
    let mut pip = trainer(ReusePolicy::Exact);
    for epoch in 0..4 {
        let a = seq.train_epoch(epoch);
        let (b, report) = run_epoch((3, 2), &mut pip, epoch);
        assert_eq!(a.train_loss, b.train_loss, "epoch {epoch}: loss diverged");
        assert_eq!(
            a.test_accuracy, b.test_accuracy,
            "epoch {epoch}: accuracy diverged"
        );
        assert_eq!(a.max_staleness, 0);
        assert_eq!(b.max_staleness, 0);
        assert!(
            report.num_batches > 1,
            "tiny replica should have several batches"
        );
    }
}

/// The trajectory is also invariant to the *amount* of concurrency.
#[test]
fn pipelined_trajectory_is_deterministic_across_thread_counts() {
    let mut narrow = trainer(ReusePolicy::Exact);
    let mut wide = trainer(ReusePolicy::Exact);
    for epoch in 0..3 {
        let (a, _) = run_epoch((1, 1), &mut narrow, epoch);
        let (b, _) = run_epoch((4, 3), &mut wide, epoch);
        assert_eq!(
            a.train_loss, b.train_loss,
            "epoch {epoch}: thread count changed loss"
        );
        assert_eq!(a.test_accuracy, b.test_accuracy);
    }
}

/// Under `HotnessAware` the super-batch barrier still runs on the train
/// thread, so every observed version gap stays `< 2n` no matter how many
/// stage workers run concurrently; embeddings must actually be reused.
#[test]
fn pipelined_hotness_aware_observes_staleness_bound() {
    let n = 2usize;
    let mut t = trainer(ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: n,
    });
    let mut max_staleness = 0;
    for epoch in 0..6 {
        let (obs, _) = run_epoch((3, 2), &mut t, epoch);
        max_staleness = max_staleness.max(obs.max_staleness);
        assert!(
            obs.max_staleness < 2 * n as u64,
            "epoch {epoch}: observed gap {} ≥ 2n = {}",
            obs.max_staleness,
            2 * n
        );
    }
    assert!(
        t.embedding_reuses() > 0,
        "hot embeddings must actually be reused"
    );
    assert!(
        max_staleness > 0,
        "bound test is vacuous if no gap was ever observed"
    );
}

/// The report must account every batch and every transferred byte, and the
/// stage-busy breakdown must be populated.
#[test]
fn pipeline_report_accounts_stages_and_bytes() {
    let mut t = trainer(ReusePolicy::Exact);
    let (_, report) = run_epoch((2, 1), &mut t, 0);
    let expected_batches = t.epoch_batches(0).len();
    assert_eq!(report.num_batches, expected_batches);
    assert!(report.sample_seconds > 0.0);
    assert!(report.gather_collect_seconds > 0.0);
    assert!(
        report.h2d_bytes > 0,
        "feature + block bytes must be accounted"
    );
    assert!(report.batches_per_second() > 0.0);
    assert!(report.train_occupancy() <= 1.0 + 1e-9);
    // Sequential baseline over the same work ships the same bytes.
    let mut s = trainer(ReusePolicy::Exact);
    let (_, seq) = run_epoch_sequential(&pipeline(2, 1), &mut s, 0);
    assert_eq!(seq.h2d_bytes, report.h2d_bytes);
}
