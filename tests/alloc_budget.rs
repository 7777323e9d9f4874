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

use neutronorch::core::baselines::Case1Dgl;
use neutronorch::core::fault::{FailureAction, FailurePolicy, FaultPlan};
use neutronorch::core::pipeline::{run_epoch_sequential, PipelineConfig};
use neutronorch::core::session::{Session, SessionConfig};
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutronorch::core::{NeutronOrch, Orchestrator, WorkloadConfig, WorkloadProfile};
use neutronorch::graph::DatasetSpec;
use neutronorch::hetero::HardwareSpec;
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
/// modest (~3x measured); the headline ≥10x claim is held on the scaled
/// workload below ([`SCALED_MIN_IMPROVEMENT`]).
const MIN_IMPROVEMENT: u64 = 2;

/// Epochs of the scaled workload (32 batches an epoch): the 8k-vertex /
/// 640k-edge Reddit-convergence replica, where per-batch churn dominates
/// the per-epoch constants.
const SCALED_EPOCHS: usize = 8;

/// Ceiling on the mean staging allocations per warm epoch (epochs 1..) of
/// the scaled session. Measured 29–38 (capacity growth on recycled buffers
/// while epochs 1–3 still warm up); one per-batch allocation at one
/// callsite adds 32.
const SCALED_WARM_STAGING_ALLOC_BUDGET: f64 = 150.0;

/// Over the last half of the scaled epochs — every pooled buffer has grown
/// to the working set — the session must make at least this many times
/// fewer staging allocations than `run_epoch_sequential`. Measured 30–90x.
const SCALED_MIN_IMPROVEMENT: f64 = 10.0;

/// Ceiling on the train-stage bytes allocated per warm epoch (epochs 1..)
/// of the scaled session, with the whole refresh on its worker (the
/// default all-CPU split; the figure repeats to within 0.3 %). Measured
/// 26.3–26.5 MiB in every warm epoch: activations, layer contexts and the
/// upper layer's input gradient, fresh per batch. 63.0 MiB when the bottom
/// layer also computed the `num_src × feature_dim` `∂L/∂features` that
/// nobody reads; up to 32.5 MiB in epochs 1–3 (26.4 MiB after) while the
/// train stage still assembled cache hits and misses into one dense matrix
/// per batch, in buffers recycled bundles had to grow first.
const SCALED_STEADY_TRAIN_BYTES_BUDGET: u64 = 27 << 20;

/// Hard ceiling on refresh-stage heap allocations per warm engine epoch on
/// the tiny workload, with every refresh row computed on the refresh
/// worker (fixed all-CPU split, one shard). A task costs a sampled block
/// and the bottom layer's forward over host rows read in place: measured
/// 20–29 allocations an epoch (28 while each task also gathered its rows
/// into a dense matrix). One `Vec` per refreshed row (170-odd refreshed
/// rows an epoch) lands at 300+.
const WARM_REFRESH_ALLOC_BUDGET: u64 = 100;

/// Ceiling on the staging allocations of the last three epochs *together*
/// of a session that dropped a replica seven epochs earlier (see the
/// degraded case below): measured 0–4, ~125 when the remaining lanes'
/// spent bundles land where only the dropped lane would draw them.
const SETTLED_DEGRADED_ALLOC_BUDGET: u64 = 60;

/// Batches of the simulator's short epoch; the long one runs four times as
/// many (the fixture's profiled stats cycle).
const SIM_BATCHES: usize = 64;

/// Ceiling on how many more allocations one NeutronOrch epoch plus one
/// `Case1Dgl` epoch make at `4 * SIM_BATCHES` batches than at
/// `SIM_BATCHES`. The task list and the flat deps grow by doubling, so a
/// fourfold epoch costs each growing buffer of each DES run two more
/// allocations: measured +15 (162 → 177). Per-task or per-event
/// allocation shows up in the thousands: +28,640 (9,573 → 38,213) while
/// every task carried its own deps `Vec` and stream `String` and every
/// event allocated its rates and water-filling lists.
const SIM_4X_EXTRA_ALLOCS: u64 = 32;

/// Allocations of one NeutronOrch (hybrid: two DES runs) and one pipelined
/// `Case1Dgl` epoch over `batches` batches of `profile`.
fn sim_epoch_allocs(profile: &mut WorkloadProfile, batches: usize) -> u64 {
    let hw = HardwareSpec::v100_server(1.0);
    profile.num_batches = batches;
    let before = alloc::snapshot();
    let orch = NeutronOrch::new().simulate_epoch(profile, &hw);
    let dgl = Case1Dgl { pipelined: true }.simulate_epoch(profile, &hw);
    let spent = alloc::snapshot().since(&before).total_allocs();
    assert!(orch.is_ok() && dgl.is_ok(), "the fixture fits a V100");
    spent
}

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

fn scaled_trainer() -> ConvergenceTrainer {
    let mut spec = DatasetSpec::reddit_convergence();
    spec.vertices = 8_000;
    spec.edges = 640_000;
    let config = TrainerConfig {
        kind: LayerKind::Gcn,
        layers: 2,
        batch_size: 256,
        lr: 0.2,
        seed: 0xe4e,
        policy: ReusePolicy::HotnessAware {
            hot_ratio: 0.2,
            super_batch: 2,
        },
    };
    ConvergenceTrainer::new(spec.build_full(), config)
}

/// Sequential "before" numbers, per epoch: the executor tags stages itself,
/// so the staging delta is directly comparable with the engine's.
fn sequential_staging_allocs(mut trainer: ConvergenceTrainer, epochs: usize) -> Vec<u64> {
    let pipeline = PipelineConfig::default();
    (0..epochs)
        .map(|epoch| {
            let before = alloc::snapshot();
            run_epoch_sequential(&pipeline, &mut trainer, epoch);
            alloc::snapshot().since(&before).staging_allocs()
        })
        .collect()
}

#[test]
fn warm_engine_epochs_stay_inside_the_staging_alloc_budget() {
    assert!(
        alloc::counting_installed(),
        "count-allocs must install the counting global allocator"
    );
    let epochs = 4;

    alloc::reset();
    alloc::set_enabled(true);

    // The simulator: allocation-free per task and per event.
    let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
    cfg.batch_size = 64;
    cfg.layers = 2;
    cfg.profiled_batches = 4;
    let mut profile = WorkloadProfile::build(&DatasetSpec::tiny(), &cfg);
    let sim_short = sim_epoch_allocs(&mut profile, SIM_BATCHES);
    let sim_long = sim_epoch_allocs(&mut profile, 4 * SIM_BATCHES);
    println!(
        "simulator: {sim_short} allocs at {SIM_BATCHES} batches, {sim_long} at {}",
        4 * SIM_BATCHES
    );
    assert!(
        sim_long <= sim_short + SIM_4X_EXTRA_ALLOCS,
        "a 4x longer simulated epoch made {sim_long} allocs against {sim_short}, more than \
         {SIM_4X_EXTRA_ALLOCS} extra — did a per-task or per-event allocation come back?"
    );
    let seq_staging = sequential_staging_allocs(trainer(), epochs);

    let mut eng = trainer();
    let engine = Session::new(SessionConfig {
        pipeline: PipelineConfig {
            sampler_threads: 2,
            gather_threads: 2,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        gpu_free_bytes: 64 << 20,
        ..SessionConfig::default()
    });
    let session = engine.run_session(&mut eng, 0, epochs);

    // Data-parallel engine at R=2: both replicas run the same pooled
    // staging path, so the process-wide per-epoch window (the counters are
    // global, per-replica attribution is not tracked) must hold R times
    // the single-engine ceiling on warm epochs.
    let replicas = 2;
    let mut rep = trainer();
    let replicated = Session::new(SessionConfig {
        pipeline: PipelineConfig {
            sampler_threads: 1,
            gather_threads: 1,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        replicas,
        ..SessionConfig::default()
    });
    let rep_session = replicated.run_session(&mut rep, 0, epochs);

    // Degraded mode: R=3 loses replica 1 at the start of epoch 1, and the
    // session replays epoch 1 on a fresh attempt of two lanes. That
    // attempt's pool is sized for its two lanes and fed only by them, so
    // their spent bundles keep coming back to *them* — a pool that still
    // counted the lost lane would hold bundles nobody draws and make the
    // two allocate multi-MiB bundles every few steps.
    let survivors = 2;
    let mut degraded = trainer();
    let degraded_session = Session::new(SessionConfig {
        replicas: survivors + 1,
        fault_plan: Some(std::sync::Arc::new(
            FaultPlan::parse("crash@r1e1s0").expect("fault spec"),
        )),
        on_replica_failure: FailurePolicy::DropReplica,
        ..replicated.config().clone()
    })
    .run_session(&mut degraded, 0, 10);

    // The scaled workload on the default session (one lane, depth 4,
    // serial refresh worker, 64 MiB cache budget).
    let scaled_seq = sequential_staging_allocs(scaled_trainer(), SCALED_EPOCHS);
    let scaled_session =
        Session::new(SessionConfig::default()).run_session(&mut scaled_trainer(), 0, SCALED_EPOCHS);
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

    // Every row a boundary recomputes, priming included, runs on the
    // refresh worker, so its stage window sees the whole refresh.
    for run in &session.epochs[1..] {
        let refresh = run.allocs.get(Stage::Refresh).allocs;
        println!(
            "epoch {}: refresh-stage allocs {refresh} for {} refreshed rows",
            run.epoch, run.refresh_rows
        );
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

    let scaled = scaled_session.series(|run| run.allocs.staging_allocs());
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    let scaled_warm = mean(&scaled[1..]);
    let (seq_steady, steady) = (
        mean(&scaled_seq[SCALED_EPOCHS / 2..]),
        mean(&scaled[SCALED_EPOCHS / 2..]),
    );
    println!(
        "scaled: session staging allocs {scaled:?} (warm mean {scaled_warm:.1}, steady \
         {steady:.1}), sequential {scaled_seq:?}"
    );
    assert!(
        scaled_warm <= SCALED_WARM_STAGING_ALLOC_BUDGET,
        "scaled warm epochs staged {scaled_warm:.1} allocs on average, budget \
         {SCALED_WARM_STAGING_ALLOC_BUDGET} — a hot-path allocation crept back in"
    );
    assert!(
        seq_steady >= SCALED_MIN_IMPROVEMENT * steady.max(1.0),
        "scaled steady state: session staged {steady:.1} allocs an epoch, not \
         {SCALED_MIN_IMPROVEMENT}x below the sequential path's {seq_steady:.1}"
    );

    for run in &scaled_session.epochs[1..] {
        let train = run.allocs.get(Stage::Train).bytes;
        println!(
            "scaled, refresh on its worker: epoch {} allocated {train} B ({:.1} MiB) in the train stage",
            run.epoch,
            train as f64 / (1u64 << 20) as f64
        );
        assert!(
            train <= SCALED_STEADY_TRAIN_BYTES_BUDGET,
            "warm scaled epoch {} allocated {train} B in the train stage, budget \
             {SCALED_STEADY_TRAIN_BYTES_BUDGET} — is a matrix nobody reads being computed again?",
            run.epoch
        );
    }

    let dropped = &degraded_session.epochs[1].report.failures;
    assert!(
        dropped
            .iter()
            .any(|e| e.replica == 1 && e.action == FailureAction::DroppedReplica),
        "replica 1 must have been dropped in epoch 1: {dropped:?}"
    );
    // The replayed epoch 1 is the two-lane attempt's first: it fills the
    // fresh pool and grows the bundles to the redistributed batches once;
    // from epoch 2 on the lanes are warm.
    let degraded_budget = survivors as u64 * WARM_STAGING_ALLOC_BUDGET;
    for run in &degraded_session.epochs[2..] {
        let staging = run.allocs.staging_allocs();
        println!(
            "degraded (R=3, one dropped) epoch {}: staging allocs {staging} \
             (budget {degraded_budget})",
            run.epoch
        );
        assert!(
            staging <= degraded_budget,
            "warm degraded epoch {} staged {staging} allocs on {survivors} survivors, budget \
             {degraded_budget}",
            run.epoch
        );
    }
    // ... and they *settle*: a fresh bundle costs ~14 allocations, and
    // bundles parked out of reach cost the two lanes about three of them an
    // epoch, forever (~40 allocations an epoch on this workload). The last
    // three epochs together get less than half of that.
    let settled: u64 = degraded_session.epochs[7..]
        .iter()
        .map(|run| run.allocs.staging_allocs())
        .sum();
    assert!(
        settled <= SETTLED_DEGRADED_ALLOC_BUDGET,
        "the last three degraded epochs staged {settled} allocs, budget \
         {SETTLED_DEGRADED_ALLOC_BUDGET} — are spent bundles still routed to the dead replica?"
    );
}
