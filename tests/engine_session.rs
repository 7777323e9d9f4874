//! Integration tests of the persistent multi-epoch engine: determinism
//! versus repeated sequential epochs at any thread count (with the refresh
//! worker and the occupancy-driven hybrid planner both active), staleness
//! under the double-buffered refresh, split invariance, the spawn-once
//! guarantee of the persistent pool, and the hot-vertex pruning contract
//! (hot rows never reach the device path; their embeddings are primed
//! before batch 0 and a missing one is fatal, never a silent zero).

use neutronorch::core::engine::{EngineConfig, TrainingEngine};
use neutronorch::core::pipeline::{PipelineConfig, PipelineExecutor};
use neutronorch::core::refresh::InlineRefresh;
use neutronorch::core::replica::{ReplicatedConfig, ReplicatedEngine};
use neutronorch::core::trainer::{ConvergenceTrainer, PreparedBatch, ReusePolicy, TrainerConfig};
use neutronorch::graph::DatasetSpec;
use neutronorch::hetero::InterconnectSpec;
use neutronorch::nn::LayerKind;
use proptest::prelude::*;

fn trainer(policy: ReusePolicy) -> ConvergenceTrainer {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
    cfg.batch_size = 48;
    cfg.lr = 0.4;
    ConvergenceTrainer::new(ds, cfg)
}

/// Batch `index` of `epoch`, staged the way every executor stages it:
/// through the trainer's own sampler and per-batch seed.
fn stage(t: &ConvergenceTrainer, epoch: usize, index: usize) -> PreparedBatch {
    ConvergenceTrainer::prepare_batch(
        &t.dataset_handle(),
        t.sampler(),
        t.config().seed,
        epoch,
        index,
        t.epoch_batches(epoch).batch(index),
    )
}

fn engine(sampler_threads: usize, gather_threads: usize, adaptive: bool) -> TrainingEngine {
    TrainingEngine::new(EngineConfig {
        pipeline: PipelineConfig {
            sampler_threads,
            gather_threads,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        adaptive_split: adaptive,
        gpu_free_bytes: 64 << 20,
        ..EngineConfig::default()
    })
}

/// The acceptance criterion of the persistent-engine refactor: a session
/// over E epochs is bit-identical to E sequential `run_epoch_sequential`
/// calls, at every tested thread count, while the background refresh worker
/// and the occupancy-driven `HybridPolicy::plan` feedback are both active.
/// The adaptive split changes *which device computes* hot embeddings,
/// never the numerical result.
#[test]
fn session_bit_identical_to_sequential_epochs_at_any_thread_count() {
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: 2,
    };
    let epochs = 4;
    let seq_exec = PipelineExecutor::new(PipelineConfig::default());
    let mut seq = trainer(policy());
    let reference: Vec<_> = (0..epochs)
        .map(|e| seq_exec.run_epoch_sequential(&mut seq, e).0)
        .collect();
    for (st, gt) in [(1, 1), (2, 2), (4, 3)] {
        let mut t = trainer(policy());
        let session = engine(st, gt, true).run_session(&mut t, 0, epochs);
        assert_eq!(session.epochs.len(), epochs);
        for (run, want) in session.epochs.iter().zip(&reference) {
            assert_eq!(
                run.observation.train_loss, want.train_loss,
                "epoch {} loss diverged at {st}x{gt} threads",
                run.epoch
            );
            assert_eq!(
                run.observation.test_accuracy, want.test_accuracy,
                "epoch {} accuracy diverged at {st}x{gt} threads",
                run.epoch
            );
        }
    }
}

/// Sharding the refresh worker's CPU partition across threads must be
/// invisible: shards are contiguous sub-partitions and every vertex's
/// sampler is seeded per-vertex, so any `refresh_workers` setting — serial,
/// few, or far more threads than shards — replays the exact sequential
/// trajectory.
#[test]
fn sharded_refresh_is_bit_identical_at_any_worker_count() {
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: 2,
    };
    let epochs = 4;
    let seq_exec = PipelineExecutor::new(PipelineConfig::default());
    let mut seq = trainer(policy());
    let reference: Vec<_> = (0..epochs)
        .map(|e| seq_exec.run_epoch_sequential(&mut seq, e).0)
        .collect();
    for refresh_workers in [1, 2, 3, 16] {
        let mut t = trainer(policy());
        let mut config = EngineConfig {
            pipeline: PipelineConfig {
                sampler_threads: 2,
                gather_threads: 2,
                channel_depth: 3,
                h2d_gibps: 0.0,
            },
            adaptive_split: true,
            gpu_free_bytes: 64 << 20,
            ..EngineConfig::default()
        };
        config.refresh_workers = refresh_workers;
        let session = TrainingEngine::new(config).run_session(&mut t, 0, epochs);
        for (run, want) in session.epochs.iter().zip(&reference) {
            assert_eq!(
                run.observation.train_loss, want.train_loss,
                "epoch {} loss diverged with {refresh_workers} refresh workers",
                run.epoch
            );
            assert_eq!(
                run.observation.test_accuracy, want.test_accuracy,
                "epoch {} accuracy diverged with {refresh_workers} refresh workers",
                run.epoch
            );
        }
    }
}

/// One session is also bit-identical to many single-epoch sessions (the
/// compat path used by `PipelineExecutor::run_epoch`), proving the parked
/// worker pool and the in-flight refresh hand-off across epoch boundaries
/// change nothing.
#[test]
fn one_session_equals_many_single_epoch_sessions() {
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.25,
        super_batch: 3,
    };
    let epochs = 3;
    let mut many = trainer(policy());
    let exec = PipelineExecutor::new(PipelineConfig::default());
    let reference: Vec<_> = (0..epochs)
        .map(|e| exec.run_epoch(&mut many, e).0)
        .collect();
    let mut once = trainer(policy());
    let session = engine(2, 1, true).run_session(&mut once, 0, epochs);
    for (run, want) in session.epochs.iter().zip(&reference) {
        assert_eq!(run.observation.train_loss, want.train_loss);
        assert_eq!(run.observation.test_accuracy, want.test_accuracy);
    }
}

/// The hybrid split is placement, not arithmetic: pinning the CPU share of
/// the refresh to 0, ½ or 1 (adaptive planner off) yields bit-identical
/// trajectories, because refresh tasks are partition-stable pure functions
/// of the boundary's parameter snapshot.
#[test]
fn refresh_split_never_changes_the_trajectory() {
    let run = |cpu_fraction: f64| {
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        });
        t.set_refresh_cpu_fraction(cpu_fraction);
        let session = engine(2, 1, false).run_session(&mut t, 0, 3);
        assert_eq!(t.refresh_cpu_fraction(), cpu_fraction, "split must persist");
        session
            .epochs
            .iter()
            .map(|r| (r.observation.train_loss, r.observation.test_accuracy))
            .collect::<Vec<_>>()
    };
    let all_cpu = run(1.0);
    let half = run(0.5);
    let all_gpu = run(0.0);
    assert_eq!(all_cpu, half, "cpu=1.0 vs cpu=0.5 diverged");
    assert_eq!(all_cpu, all_gpu, "cpu=1.0 vs cpu=0.0 diverged");
}

/// Bit-identity is independent of the GPU feature-cache budget: the cache
/// only decides *where* a feature row is read from (verbatim copies), so
/// any budget — zero, tiny, or effectively unlimited — yields the same
/// trajectory while the byte accounting stays exact: hits + misses always
/// equal the sequential baseline's gathered-vertex count, a nonzero budget
/// never ships more bytes than the cache-less run, and a zero budget ships
/// exactly the sequential baseline's bytes with zero hits.
#[test]
fn cache_budget_never_changes_the_trajectory() {
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: 2,
    };
    let epochs = 4;
    let seq_exec = PipelineExecutor::new(PipelineConfig::default());
    let mut seq = trainer(policy());
    let reference: Vec<_> = (0..epochs)
        .map(|e| seq_exec.run_epoch_sequential(&mut seq, e))
        .collect();
    for budget in [0u64, 48 << 10, 64 << 20] {
        let mut t = trainer(policy());
        let engine = TrainingEngine::new(EngineConfig {
            pipeline: PipelineConfig {
                sampler_threads: 2,
                gather_threads: 2,
                channel_depth: 3,
                h2d_gibps: 0.0,
            },
            adaptive_split: true,
            gpu_free_bytes: budget,
            ..EngineConfig::default()
        });
        let session = engine.run_session(&mut t, 0, epochs);
        for (run, (want, seq_report)) in session.epochs.iter().zip(&reference) {
            assert_eq!(
                run.observation.train_loss, want.train_loss,
                "epoch {} loss diverged at budget {budget}",
                run.epoch
            );
            assert_eq!(
                run.observation.test_accuracy, want.test_accuracy,
                "epoch {} accuracy diverged at budget {budget}",
                run.epoch
            );
            assert_eq!(
                run.report.cache_hits + run.report.cache_misses,
                seq_report.cache_misses,
                "epoch {}: hits+misses must cover every gathered vertex",
                run.epoch
            );
            assert!(
                run.report.h2d_bytes <= seq_report.h2d_bytes,
                "epoch {}: a cache may only remove bytes",
                run.epoch
            );
            if budget == 0 {
                assert_eq!(run.report.cache_hits, 0, "zero budget must never hit");
                assert_eq!(
                    run.report.h2d_bytes, seq_report.h2d_bytes,
                    "zero budget must ship exactly the sequential bytes"
                );
            }
        }
    }
}

/// Bit-identity is independent of the buffer-return pool size: recycled
/// bundles only donate *capacity* (every pooled path clears before
/// refilling), so a pool of 1 (smaller than the in-flight batch depth — the
/// samplers mostly allocate fresh), the auto size, and an oversized pool
/// all replay the sequential trajectory exactly.
#[test]
fn pool_size_never_changes_the_trajectory() {
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: 2,
    };
    let epochs = 4;
    let seq_exec = PipelineExecutor::new(PipelineConfig::default());
    let mut seq = trainer(policy());
    let reference: Vec<_> = (0..epochs)
        .map(|e| seq_exec.run_epoch_sequential(&mut seq, e).0)
        .collect();
    for pool_batches in [1usize, 2, 0, 64] {
        let mut t = trainer(policy());
        let mut config = EngineConfig {
            pipeline: PipelineConfig {
                sampler_threads: 3,
                gather_threads: 2,
                channel_depth: 3,
                h2d_gibps: 0.0,
            },
            adaptive_split: true,
            gpu_free_bytes: 64 << 20,
            ..EngineConfig::default()
        };
        config.pool_batches = pool_batches;
        let session = TrainingEngine::new(config).run_session(&mut t, 0, epochs);
        for (run, want) in session.epochs.iter().zip(&reference) {
            assert_eq!(
                run.observation.train_loss, want.train_loss,
                "epoch {} loss diverged with pool_batches={pool_batches}",
                run.epoch
            );
            assert_eq!(
                run.observation.test_accuracy, want.test_accuracy,
                "epoch {} accuracy diverged with pool_batches={pool_batches}",
                run.epoch
            );
        }
    }
}

/// The persistent pool spawns its workers exactly once per session,
/// independent of how many epochs the session runs, and opens one gate
/// generation per epoch.
#[test]
fn workers_spawn_once_per_session() {
    for epochs in [1usize, 2, 6] {
        let mut t = trainer(ReusePolicy::Exact);
        let session = engine(3, 2, true).run_session(&mut t, 0, epochs);
        assert_eq!(
            session.workers_spawned,
            3 + 2 + 1 + 1,
            "samplers + gatherers + transfer + refresh, once, for {epochs} epochs"
        );
        assert_eq!(session.generations, epochs as u64);
        assert_eq!(session.epochs.len(), epochs);
    }
}

/// Double buffering is real: with the deferred publish, embeddings read in
/// super-batch k carry the version of boundary k−1, so the observed gap
/// reaches at least n (and stays < 2n). A refresh published immediately
/// (the old schedule) could never produce a gap ≥ n.
#[test]
fn double_buffered_refresh_gap_spans_n_to_2n() {
    let n = 3usize;
    let mut t = trainer(ReusePolicy::HotnessAware {
        hot_ratio: 0.4,
        super_batch: n,
    });
    let session = engine(2, 1, true).run_session(&mut t, 0, 5);
    let max_gap = session
        .epochs
        .iter()
        .map(|r| r.observation.max_staleness)
        .max()
        .unwrap();
    assert!(max_gap < 2 * n as u64, "gap {max_gap} ≥ 2n = {}", 2 * n);
    assert!(
        max_gap >= n as u64,
        "gap {max_gap} < n = {n}: refresh was not deferred one super-batch"
    );
    assert!(t.embedding_reuses() > 0, "hot embeddings must be reused");
}

/// Priming: a fresh trainer's first boundary computes and publishes the
/// whole hot set before batch 0 trains, so the very first batch already
/// reuses (at gap 0) every hot row the sampler pruned, the first
/// super-batch reads at gap ≤ n−1, and the bound holds in every epoch of a
/// session — epoch 0 included.
#[test]
fn fresh_session_reuses_primed_embeddings_from_batch_zero() {
    let n = 3usize;
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.4,
        super_batch: n,
    };
    let mut t = trainer(policy());
    let first = stage(&t, 0, 0);
    let hot = t.hot_set().unwrap();
    let reused = first.blocks[1]
        .src()
        .iter()
        .filter(|&&v| hot.contains(v))
        .count();
    assert!(reused > 0, "batch 0 must touch the hot set");
    let mut want: Vec<u32> = hot.vertices().to_vec();
    want.sort_unstable();

    t.train_batches([first]);
    assert_eq!(
        t.embedding_reuses(),
        reused as u64,
        "every pruned row is read"
    );
    assert_eq!(
        t.max_staleness(),
        0,
        "batch 0 reads what its boundary primed"
    );
    let state = t.capture_state(&mut InlineRefresh::default());
    let stored: Vec<u32> = state.store.unwrap().rows.iter().map(|r| r.0).collect();
    assert_eq!(stored, want, "the first boundary stores the whole hot set");

    // The rest of super-batch 0 still reads the version-0 rows.
    let mut t = trainer(policy());
    let super_batch: Vec<_> = (0..n).map(|i| stage(&t, 0, i)).collect();
    t.train_batches(super_batch);
    assert_eq!(t.max_staleness(), n as u64 - 1);

    let mut t = trainer(policy());
    let session = engine(2, 2, true).run_session(&mut t, 0, 3);
    for run in &session.epochs {
        assert!(
            run.observation.max_staleness < 2 * n as u64,
            "epoch {}: gap {} > 2n−1",
            run.epoch,
            run.observation.max_staleness
        );
    }
    assert!(session.epochs[0].observation.max_staleness >= n as u64);
}

/// Hot vertices leave the device path: whatever either engine stages, its
/// bottom blocks hold no hot dst — the gathered-source count of every
/// epoch is exactly what the trainer's own (pruning) sampler produces,
/// strictly below what training without reuse gathers — and every hot row
/// the layer above needs is read from the store instead.
#[test]
fn hot_vertices_never_reach_the_device_path() {
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: 2,
    };
    let epochs = 2;
    let probe = trainer(policy());
    let hot = probe.hot_set().unwrap();
    let exact = trainer(ReusePolicy::Exact);
    let mut want_sources = Vec::new();
    let mut want_reuses = 0u64;
    for e in 0..epochs {
        let (mut pruned, mut unpruned) = (0u64, 0u64);
        for i in 0..probe.epoch_batches(e).len() {
            let item = stage(&probe, e, i);
            assert!(item.blocks[0].dst().iter().all(|&v| !hot.contains(v)));
            pruned += item.blocks[0].num_src() as u64;
            unpruned += stage(&exact, e, i).blocks[0].num_src() as u64;
            want_reuses += item.blocks[1]
                .src()
                .iter()
                .filter(|&&v| hot.contains(v))
                .count() as u64;
        }
        assert!(pruned < unpruned, "epoch {e}: {pruned} vs {unpruned}");
        want_sources.push(pruned);
    }

    let mut single = trainer(policy());
    let session = engine(2, 2, true).run_session(&mut single, 0, epochs);
    let staged: Vec<u64> = session
        .epochs
        .iter()
        .map(|r| r.report.cache_hits + r.report.cache_misses)
        .collect();
    assert_eq!(staged, want_sources, "TrainingEngine staged unpruned rows");
    assert_eq!(single.embedding_reuses(), want_reuses);

    let mut replicated = trainer(policy());
    let cfg = ReplicatedConfig {
        replicas: 1,
        ..ReplicatedConfig::default()
    };
    let session = ReplicatedEngine::new(cfg).run_session(&mut replicated, 0, epochs);
    let staged: Vec<u64> = session
        .epochs
        .iter()
        .map(|r| r.report.cache_hits + r.report.cache_misses)
        .collect();
    assert_eq!(
        staged, want_sources,
        "ReplicatedEngine staged unpruned rows"
    );
    assert_eq!(replicated.embedding_reuses(), want_reuses);
}

/// A pruned row that is missing from the store must end the session — by
/// a panic of the train stage or a typed `SessionError` — on both engines.
/// It may never hang the pipeline, and it may never train on a zero row
/// (which would let the session finish `Ok`).
#[test]
fn a_missing_hot_embedding_ends_the_session_loudly() {
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: 2,
    };
    let mut t = trainer(policy());
    t.train_epoch(0);
    let mut state = t.capture_state(&mut InlineRefresh::default());
    // Drop a hot vertex that epoch 1's first batch reads, from the store
    // and from the refresh that the next boundary would publish.
    let first = stage(&t, 1, 0);
    let hot = t.hot_set().unwrap();
    let victim = *first.blocks[1]
        .src()
        .iter()
        .find(|&&v| hot.contains(v))
        .expect("batch 0 touches the hot set");
    state.store.as_mut().unwrap().rows.retain(|r| r.0 != victim);
    let pending = state.pending.as_mut().unwrap();
    pending.cpu_rows.retain(|r| r.0 != victim);
    pending.gpu_rows.retain(|r| r.0 != victim);

    let restored = || {
        let mut t = trainer(policy());
        t.restore_state(&state).unwrap();
        t
    };
    let loud = |outcome: std::thread::Result<Result<(), String>>, engine: &str| match outcome {
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                message.contains("no stored embedding"),
                "{engine}: unexpected panic: {message}"
            );
        }
        Ok(Err(_typed)) => {}
        Ok(Ok(())) => panic!("{engine}: trained on a row nobody supplied"),
    };
    let mut a = restored();
    loud(
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine(2, 2, true)
                .run_session_checked(&mut a, 1, 1)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })),
        "TrainingEngine",
    );
    let mut b = restored();
    loud(
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ReplicatedEngine::new(ReplicatedConfig {
                replicas: 2,
                ..ReplicatedConfig::default()
            })
            .run_session_checked(&mut b, 1, 1)
            .map(|_| ())
            .map_err(|e| e.to_string())
        })),
        "ReplicatedEngine",
    );
}

/// The data-parallel acceptance criterion: a replicated session at R=1 is
/// bit-identical to the single-replica engine session — at every staging
/// depth, buffer-pool size, per-replica cache budget and locality setting.
/// A 1-way partition owns everything, so the batch stream, the sampling
/// seeds and the one-replica train path are all literally the
/// single-replica ones.
#[test]
fn replicated_r1_is_bit_identical_to_the_engine_session() {
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: 2,
    };
    let epochs = 3;
    let mut single = trainer(policy());
    let reference = engine(2, 2, true).run_session(&mut single, 0, epochs);
    for (depth, pool, budget, locality) in [
        (1usize, 0usize, 0u64, true),
        (3, 1, 48 << 10, false),
        (4, 16, 64 << 20, true),
    ] {
        let mut t = trainer(policy());
        let mut cfg = ReplicatedConfig {
            replicas: 1,
            locality_aware: locality,
            gpu_free_bytes: budget,
            pool_batches: pool,
            ..ReplicatedConfig::default()
        };
        cfg.pipeline.channel_depth = depth;
        let session = ReplicatedEngine::new(cfg).run_session(&mut t, 0, epochs);
        for (run, want) in session.epochs.iter().zip(&reference.epochs) {
            assert_eq!(
                run.observation.train_loss, want.observation.train_loss,
                "epoch {} loss diverged at depth={depth} pool={pool} budget={budget} locality={locality}",
                run.epoch
            );
            assert_eq!(
                run.observation.test_accuracy, want.observation.test_accuracy,
                "epoch {} accuracy diverged at depth={depth} pool={pool} budget={budget} locality={locality}",
                run.epoch
            );
            assert_eq!(run.allreduce_bytes, 0, "R=1 must not exchange gradients");
            assert_eq!(run.remote_feature_bytes, 0, "R=1 owns every vertex");
        }
    }
}

/// R ∈ {2, 4} sessions replay exactly across repeats: losses, remote
/// feature bytes and all-reduce bytes are all pure functions of the seed,
/// the partition and the replica count — and the all-reduce series obeys
/// the closed-form `steps × 2(R−1) × model_bytes` law on both fabrics.
#[test]
fn replicated_sessions_are_deterministic_at_r2_and_r4() {
    let run = |replicas: usize, link: InterconnectSpec| {
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        });
        let cfg = ReplicatedConfig {
            replicas,
            interconnect: link,
            ..ReplicatedConfig::default()
        };
        ReplicatedEngine::new(cfg).run_session(&mut t, 0, 3)
    };
    for replicas in [2usize, 4] {
        let a = run(replicas, InterconnectSpec::nvlink_like());
        let b = run(replicas, InterconnectSpec::nvlink_like());
        assert_eq!(a.loss_trajectory(), b.loss_trajectory(), "R={replicas}");
        assert_eq!(a.remote_bytes_trajectory(), b.remote_bytes_trajectory());
        assert_eq!(
            a.allreduce_bytes_trajectory(),
            b.allreduce_bytes_trajectory()
        );
        for run in &a.epochs {
            assert_eq!(
                run.allreduce_bytes,
                run.steps as u64 * 2 * (replicas as u64 - 1) * a.model_bytes,
                "ring all-reduce law broken at R={replicas}"
            );
            assert!(run.remote_feature_bytes > 0, "a hash cut pulls remote rows");
        }
        // The interconnect model only reprices the same bytes: a slower
        // fabric must cost more simulated seconds on an identical run.
        let slow = run(replicas, InterconnectSpec::ethernet_like());
        assert_eq!(a.loss_trajectory(), slow.loss_trajectory());
        assert_eq!(a.remote_bytes_trajectory(), slow.remote_bytes_trajectory());
        for (fast, eth) in a.epochs.iter().zip(&slow.epochs) {
            assert!(eth.interconnect_seconds > fast.interconnect_seconds);
        }
    }
}

/// Partition-aware sampling must *measurably* cut the remote-feature
/// traffic versus the locality-blind ablation, without touching the PCIe
/// byte accounting invariants.
#[test]
fn locality_aware_sampling_reduces_remote_feature_bytes() {
    let run = |locality: bool| {
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        });
        let cfg = ReplicatedConfig {
            replicas: 2,
            locality_aware: locality,
            ..ReplicatedConfig::default()
        };
        ReplicatedEngine::new(cfg).run_session(&mut t, 0, 2)
    };
    let aware = run(true);
    let blind = run(false);
    let aware_bytes: u64 = aware.remote_bytes_trajectory().iter().sum();
    let blind_bytes: u64 = blind.remote_bytes_trajectory().iter().sum();
    assert!(
        aware_bytes < blind_bytes,
        "locality-aware sampling must pull fewer remote rows: {aware_bytes} vs {blind_bytes}"
    );
    for run in aware.epochs.iter().chain(&blind.epochs) {
        let picked: u64 = run.per_replica.iter().map(|s| s.h2d_bytes).sum();
        assert_eq!(picked, run.report.h2d_bytes, "per-replica bytes must sum");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Staleness property: for random super-batch sizes, hot ratios and
    /// thread counts, every historical read mid-super-batch stays under the
    /// 2n bound while the refresh worker runs in the background. The store
    /// enforces the bound *hard* (a violating read is an error that panics
    /// the trainer), so surviving the run at all is the property; the
    /// observation double-checks the recorded maximum.
    #[test]
    fn staleness_bound_holds_for_any_super_batch_shape(
        n in 1usize..5,
        hot_pct in 1u32..10,
        sampler_threads in 1usize..4,
        epochs in 1usize..4,
    ) {
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: hot_pct as f64 / 10.0,
            super_batch: n,
        });
        let session = engine(sampler_threads, 1, true).run_session(&mut t, 0, epochs);
        for run in &session.epochs {
            prop_assert!(
                run.observation.max_staleness < 2 * n as u64,
                "epoch {}: gap {} ≥ 2n = {}",
                run.epoch,
                run.observation.max_staleness,
                2 * n
            );
        }
    }
}
