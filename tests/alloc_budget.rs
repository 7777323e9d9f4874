//! Allocation-budget regression test for the pooled engine hot path.
//!
//! Only meaningful with the counting `#[global_allocator]` installed, so
//! the whole file is gated on the facade's `count-allocs` feature:
//!
//! ```text
//! cargo test --release -p neutronorch --features count-allocs --test alloc_budget
//! ```
//!
//! A single test function owns the process-global counters end to end (the
//! allocator state is shared, so concurrent tests would cross-contaminate
//! the per-stage attribution).
#![cfg(feature = "count-allocs")]

use neutronorch::core::engine::{EngineConfig, TrainingEngine};
use neutronorch::core::pipeline::{PipelineConfig, PipelineExecutor};
use neutronorch::core::replica::{ReplicatedConfig, ReplicatedEngine};
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::LayerKind;
use neutronorch::tensor::alloc::{self, Stage};

/// Hard ceiling on staging (sample + gather + transfer) heap allocations
/// per warm engine epoch on the tiny workload. The pooled path measures
/// ~35/epoch here (residual capacity-growth on recycled buffers); the
/// ceiling leaves headroom while still catching any reintroduced per-batch
/// or per-vertex Vec churn, which lands in the hundreds even on this
/// workload.
const WARM_STAGING_ALLOC_BUDGET: u64 = 300;

/// The warm sequential path must allocate at least this many times more
/// than the pooled engine path. The tiny workload runs only a couple of
/// batches per epoch, so per-epoch constants dominate and the ratio is
/// modest (~3x measured); the headline ≥10x claim is gated on the bench
/// workload by `cargo xtask bench-diff` against `BENCH_engine.json`.
const MIN_IMPROVEMENT: u64 = 2;

/// Hard ceiling on refresh-stage heap allocations per warm engine epoch on
/// the tiny workload, with every refresh row computed on the refresh
/// worker (fixed all-CPU split, one shard). An epoch launches three tasks
/// here; a task costs a sampled block, a gathered feature matrix and the
/// bottom layer's forward — 14 allocations whatever its size, 42 an
/// epoch. One `Vec` per refreshed row (90 hot rows a task) lands at 300+.
const WARM_REFRESH_ALLOC_BUDGET: u64 = 100;

fn trainer() -> ConvergenceTrainer {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(
        LayerKind::Gcn,
        ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        },
    );
    cfg.batch_size = 48;
    cfg.lr = 0.4;
    ConvergenceTrainer::new(ds, cfg)
}

#[test]
fn warm_engine_epochs_stay_inside_the_staging_alloc_budget() {
    assert!(
        alloc::counting_installed(),
        "count-allocs must install the counting global allocator"
    );
    let epochs = 4;

    // Sequential "before" numbers: the executor tags stages itself, so the
    // staging delta is directly comparable with the engine's.
    let exec = PipelineExecutor::new(PipelineConfig::default());
    let mut seq = trainer();
    alloc::reset();
    alloc::set_enabled(true);
    let mut seq_staging = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let before = alloc::snapshot();
        exec.run_epoch_sequential(&mut seq, epoch);
        seq_staging.push(alloc::snapshot().since(&before).staging_allocs());
    }

    let mut eng = trainer();
    let engine = TrainingEngine::new(EngineConfig {
        pipeline: PipelineConfig {
            sampler_threads: 2,
            gather_threads: 2,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        adaptive_split: true,
        gpu_free_bytes: 64 << 20,
        ..EngineConfig::default()
    });
    let session = engine.run_session(&mut eng, 0, epochs);

    // Same engine with the whole refresh pinned to the refresh worker, so
    // the refresh-stage window sees every row a boundary recomputes.
    let mut pinned = trainer();
    let pinned_session = TrainingEngine::new(EngineConfig {
        adaptive_split: false,
        refresh_workers: 1,
        ..engine.config().clone()
    })
    .run_session(&mut pinned, 0, epochs);

    // Data-parallel engine at R=2: both replicas run the same pooled
    // staging path, so the process-wide per-epoch window (the counters are
    // global, per-replica attribution is not tracked) must hold R times
    // the single-engine ceiling on warm epochs.
    let replicas = 2;
    let mut rep = trainer();
    let replicated = ReplicatedEngine::new(ReplicatedConfig {
        pipeline: PipelineConfig {
            sampler_threads: 1,
            gather_threads: 1,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        replicas,
        ..ReplicatedConfig::default()
    });
    let rep_session = replicated.run_session(&mut rep, 0, epochs);
    alloc::set_enabled(false);

    assert_eq!(session.epochs.len(), epochs);
    // Epoch 0 pays the one-time pool fill; every later epoch is "warm" and
    // must run on recycled buffers.
    for run in &session.epochs[1..] {
        let staging = run.allocs.staging_allocs();
        println!(
            "epoch {}: engine staging allocs {staging} (sequential {})",
            run.epoch, seq_staging[run.epoch]
        );
        for (name, stat) in run.allocs.iter() {
            println!("    {name}: {} allocs {} B", stat.allocs, stat.bytes);
        }
        assert!(
            staging <= WARM_STAGING_ALLOC_BUDGET,
            "warm epoch {} staged {staging} allocs, budget {WARM_STAGING_ALLOC_BUDGET} — \
             did a pooled path regress to allocating?",
            run.epoch
        );
        assert!(
            seq_staging[run.epoch] >= MIN_IMPROVEMENT * staging.max(1),
            "warm epoch {}: sequential path staged {} allocs, engine {staging} — \
             expected at least {MIN_IMPROVEMENT}x fewer on the pooled path",
            run.epoch,
            seq_staging[run.epoch]
        );
    }

    for run in &pinned_session.epochs[1..] {
        let refresh = run.allocs.get(Stage::Refresh).allocs;
        println!(
            "epoch {}: refresh-stage allocs {refresh} for {} refreshed rows",
            run.epoch, run.refresh_rows
        );
        assert_eq!(run.refresh_cpu_fraction, 1.0);
        assert!(
            refresh <= WARM_REFRESH_ALLOC_BUDGET,
            "warm epoch {} spent {refresh} allocs in the refresh stage, budget \
             {WARM_REFRESH_ALLOC_BUDGET} — did refresh rows go back to one Vec each?",
            run.epoch
        );
    }

    assert_eq!(rep_session.epochs.len(), epochs);
    let replicated_budget = replicas as u64 * WARM_STAGING_ALLOC_BUDGET;
    for run in &rep_session.epochs[1..] {
        let staging = run.allocs.staging_allocs();
        println!(
            "replicated (R={replicas}) epoch {}: staging allocs {staging} \
             (budget {replicated_budget})",
            run.epoch
        );
        assert!(
            staging <= replicated_budget,
            "warm replicated epoch {} staged {staging} allocs across {replicas} replicas, \
             budget {replicated_budget} — did a pooled path regress to allocating?",
            run.epoch
        );
    }
}
