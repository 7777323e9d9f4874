//! Integration tests of the training session: determinism versus repeated
//! sequential epochs (with the background refresh worker and the feature
//! cache active), staleness under the double-buffered refresh, split and
//! cache invariance, the spawn-once guarantee of the persistent workers,
//! the report shape per replica count, the configurations a session
//! rejects, and the hot-vertex pruning contract (hot rows never reach the
//! device path; their embeddings are primed before batch 0 and a missing
//! one is fatal, never a silent zero). The failure policies live in
//! `tests/fault_injection.rs`.

use neutronorch::cache::EmbeddingRows;
use neutronorch::core::fault::{FailurePolicy, FaultPlan};
use neutronorch::core::pipeline::{run_epoch_sequential, PipelineConfig, PipelineReport};
use neutronorch::core::pool::BatchBuffers;
use neutronorch::core::refresh::InlineRefresh;
use neutronorch::core::session::{ReplicaEpochStats, Session, SessionConfig, SessionReport};
use neutronorch::core::trainer::{
    batch_sample_seed, ConvergenceTrainer, EpochObservation, PreparedBatch, ReusePolicy,
    TrainerConfig,
};
use neutronorch::graph::partition::hash_partition;
use neutronorch::graph::DatasetSpec;
use neutronorch::hetero::InterconnectSpec;
use neutronorch::nn::LayerKind;
use neutronorch::sample::BatchIterator;
use neutronorch::tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

fn trainer(policy: ReusePolicy) -> ConvergenceTrainer {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
    cfg.batch_size = 48;
    cfg.lr = 0.4;
    ConvergenceTrainer::new(ds, cfg)
}

/// `batch` as step `index` of `epoch` under the sampling stream `seed`:
/// the trainer's own sampler at the per-batch seed, and a full host gather
/// of the bottom sources — what staging against an empty cache yields.
fn prepare(
    t: &ConvergenceTrainer,
    seed: u64,
    epoch: usize,
    index: usize,
    batch: &[u32],
) -> PreparedBatch {
    let ds = t.dataset_handle();
    let seed = batch_sample_seed(seed, epoch, index);
    let blocks = t.sampler().sample_batch(&ds.csr, batch, seed);
    let features = ds.features().gather_rows_u32(blocks[0].src());
    let scrap = BatchBuffers::new();
    PreparedBatch {
        index,
        blocks,
        features,
        hits: Default::default(),
        scrap,
    }
}

/// Batch `index` of `epoch`, staged the way every executor stages it.
fn stage(t: &ConvergenceTrainer, epoch: usize, index: usize) -> PreparedBatch {
    let batches = t.epoch_batches(epoch);
    prepare(t, t.config().seed, epoch, index, batches.batch(index))
}

/// The reuse policy most tests train under.
fn hot_policy() -> ReusePolicy {
    ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: 2,
    }
}

/// A one-lane session config. The thread counts are inert (one fused
/// worker per lane); tests vary them to show nothing reads them.
fn config(sampler_threads: usize, gather_threads: usize) -> SessionConfig {
    SessionConfig {
        pipeline: PipelineConfig {
            sampler_threads,
            gather_threads,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        gpu_free_bytes: 64 << 20,
        ..SessionConfig::default()
    }
}

fn engine(sampler_threads: usize, gather_threads: usize) -> Session {
    Session::new(config(sampler_threads, gather_threads))
}

/// `epochs` epochs of the sequential reference under [`hot_policy`].
fn sequential_reference(epochs: usize) -> Vec<(EpochObservation, PipelineReport)> {
    let mut seq = trainer(hot_policy());
    (0..epochs)
        .map(|e| run_epoch_sequential(&PipelineConfig::default(), &mut seq, e))
        .collect()
}

/// Asserts that `session` replays the reference trajectory bit for bit.
fn assert_replays(
    session: &SessionReport,
    reference: &[(EpochObservation, PipelineReport)],
    what: &str,
) {
    assert_eq!(session.epochs.len(), reference.len());
    for (run, (want, _)) in session.epochs.iter().zip(reference) {
        let (epoch, got) = (run.epoch, run.observation);
        assert_eq!(
            got.train_loss, want.train_loss,
            "epoch {epoch} loss, {what}"
        );
        assert_eq!(
            got.test_accuracy, want.test_accuracy,
            "epoch {epoch} accuracy, {what}"
        );
    }
}

/// The acceptance criterion of the persistent-engine refactor: a session
/// over E epochs is bit-identical to E sequential `run_epoch_sequential`
/// calls, whatever the (inert) thread counts say, while the background
/// refresh worker and the feature cache are both active. They change
/// *where* hot embeddings are computed and features are read, never the
/// numerical result.
#[test]
fn session_bit_identical_to_sequential_epochs_at_any_thread_count() {
    let reference = sequential_reference(4);
    for (st, gt) in [(1, 1), (2, 2), (4, 3)] {
        let session = engine(st, gt).run_session(&mut trainer(hot_policy()), 0, 4);
        assert_replays(&session, &reference, &format!("{st}x{gt} threads"));
    }
}

/// One session is also bit-identical to many single-epoch sessions,
/// proving the persistent workers and the in-flight refresh hand-off across
/// epoch boundaries change nothing. At one lane and at two: lanes of one
/// session stage into the next epoch before the current one ends, those of
/// a single-epoch session cannot, and every lane's per-epoch stats agree —
/// a batch's stats count in the epoch it belongs to, whenever it was staged.
#[test]
fn one_session_equals_many_single_epoch_sessions() {
    let policy = || ReusePolicy::HotnessAware {
        hot_ratio: 0.25,
        super_batch: 3,
    };
    let epochs = 3;
    for replicas in [1, 2] {
        let mut many = trainer(policy());
        let single_epoch = Session::new(SessionConfig {
            replicas,
            ..SessionConfig::default()
        });
        let reference: Vec<_> = (0..epochs)
            .map(|e| single_epoch.run_session(&mut many, e, 1).epochs.remove(0))
            .collect();
        let mut once = trainer(policy());
        let session = Session::new(SessionConfig {
            replicas,
            ..config(2, 1)
        })
        .run_session(&mut once, 0, epochs);
        for (run, want) in session.epochs.iter().zip(&reference) {
            let what = format!("R = {replicas}, epoch {}", run.epoch);
            let (got, want_obs) = (&run.observation, &want.observation);
            assert_eq!(got.train_loss, want_obs.train_loss, "{what}");
            assert_eq!(got.test_accuracy, want_obs.test_accuracy, "{what}");
            assert_eq!(run.report.h2d_bytes, want.report.h2d_bytes, "{what}");
            assert_eq!(run.report.cache_hits, want.report.cache_hits, "{what}");
            assert_eq!(run.report.cache_misses, want.report.cache_misses, "{what}");
            assert_eq!(run.per_replica.len(), replicas, "{what}");
            for (got, want) in run.per_replica.iter().zip(&want.per_replica) {
                assert_eq!(lane_counts(got), lane_counts(want), "{what}");
                assert_eq!(got.batches, run.steps, "{what}");
            }
        }
    }
}

/// A lane's byte, pick and batch counts — its per-epoch stats less the
/// busy seconds.
fn lane_counts(s: &ReplicaEpochStats) -> (u64, u64, u64, u64, usize) {
    let ReplicaEpochStats {
        h2d_bytes,
        remote_feature_bytes,
        local_picks,
        remote_picks,
        batches,
        ..
    } = *s;
    (
        h2d_bytes,
        remote_feature_bytes,
        local_picks,
        remote_picks,
        batches,
    )
}

/// Bit-identity is independent of the GPU feature-cache budget: the cache
/// only decides *where* a feature row is read from (verbatim copies), so
/// any budget — zero, tiny, or effectively unlimited — yields the same
/// trajectory while the byte accounting stays exact: hits + misses always
/// equal the sequential baseline's gathered-vertex count, a nonzero budget
/// never ships more bytes than the cache-less run, and a zero budget ships
/// exactly the sequential baseline's bytes with zero hits.
///
/// The cache rule is an input here: each lane caches its owned vertices in
/// descending presample order, hot then cold, until the budget is spent
/// (§5.2), built once, so every epoch — epoch 0 included — runs with
/// `min(owned vertices, budget / row bytes)` cached vertices per lane, and
/// a nonzero budget hits from the first epoch on. At a budget every row
/// fits, one lane never misses (only block structure crosses the link) and
/// two lanes together cache the whole feature table.
#[test]
fn cache_budget_never_changes_the_trajectory() {
    let reference = sequential_reference(4);
    let probe = trainer(hot_policy());
    let hot = probe.hot_set().unwrap().len();
    let ds = probe.dataset_handle();
    let (n, row_bytes) = (ds.csr.num_vertices(), ds.spec.feature_row_bytes());
    let part = hash_partition(n, 2);
    // None, a third of the hot set (the budget binds), every row.
    let budgets = [0u64, hot as u64 / 3 * row_bytes, 64 << 20];
    assert!(budgets[2] / row_bytes >= n as u64);
    // `min(owned vertices, budget rows)`, summed over the lanes of `replicas`.
    let want_cached = |budget: u64, replicas: usize| -> usize {
        let rows = (budget / row_bytes) as usize;
        (0..replicas)
            .map(|r| {
                let owned = (0..n as u32).filter(|&v| replicas == 1 || part.owner(v) == r);
                owned.count().min(rows)
            })
            .sum()
    };
    for budget in budgets {
        let session = Session::new(SessionConfig {
            gpu_free_bytes: budget,
            ..config(2, 2)
        })
        .run_session(&mut trainer(hot_policy()), 0, 4);
        assert_replays(&session, &reference, &format!("budget {budget}"));
        for (run, (_, seq_report)) in session.epochs.iter().zip(&reference) {
            assert_eq!(
                run.cache_vertices,
                want_cached(budget, 1),
                "budget {budget}"
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
            if budget == budgets[2] {
                assert_eq!(
                    run.report.cache_misses, 0,
                    "epoch {}: every row fits",
                    run.epoch
                );
                let structure = seq_report.h2d_bytes - seq_report.cache_misses * row_bytes;
                assert_eq!(
                    run.report.h2d_bytes, structure,
                    "epoch {}: a full cache ships block structure only",
                    run.epoch
                );
            }
            if budget == 0 {
                assert_eq!(run.report.cache_hits, 0, "an empty cache must never hit");
                assert_eq!(
                    run.report.h2d_bytes, seq_report.h2d_bytes,
                    "an empty cache must ship exactly the sequential bytes"
                );
            } else {
                assert!(
                    run.report.cache_hits > 0 && run.report.h2d_bytes < seq_report.h2d_bytes,
                    "epoch {}, budget {budget}: the cache is in force from epoch 0",
                    run.epoch
                );
            }
        }
    }

    // Two lanes: each caches its own owned vertices in presample order, and
    // no budget moves the (deterministic) R = 2 trajectory either.
    let run_r2 = |budget: u64| {
        Session::new(SessionConfig {
            replicas: 2,
            gpu_free_bytes: budget,
            ..SessionConfig::default()
        })
        .run_session(&mut trainer(hot_policy()), 0, 2)
    };
    let uncached = run_r2(0);
    let losses = |s: &SessionReport| s.series(|r| r.observation.train_loss.to_bits());
    for budget in budgets {
        let session = run_r2(budget);
        assert_eq!(losses(&session), losses(&uncached), "R=2 budget {budget}");
        for run in &session.epochs {
            assert_eq!(
                run.cache_vertices,
                want_cached(budget, 2),
                "R=2 budget {budget}"
            );
            if budget == budgets[2] {
                assert_eq!(run.cache_vertices, n, "two lanes cache every row");
            }
        }
    }
}

/// A session spawns its workers exactly once, independent of how many
/// epochs it runs — one fused worker per lane plus the refresh worker,
/// whatever the inert thread counts say.
#[test]
fn workers_spawn_once_per_session() {
    for epochs in [1usize, 2, 6] {
        let mut t = trainer(ReusePolicy::Exact);
        let session = engine(3, 2).run_session(&mut t, 0, epochs);
        assert_eq!(
            session.workers_spawned,
            1 + 1,
            "one lane + refresh, once, for {epochs} epochs"
        );
        assert_eq!(session.epochs.len(), epochs);
    }
}

/// `SessionConfig::default()` is field for field what the two configs it
/// replaced defaulted to — the engine's pipeline shape, checkpoint,
/// fault and stall settings, and the replicated config's one replica,
/// locality-aware sampling, NVLink-class fabric and `Fail` policy — except
/// that the refresh worker runs serially (`refresh_workers` has no auto
/// value any more).
#[test]
fn default_config_keeps_both_legacy_defaults() {
    let c = SessionConfig::default();
    assert_eq!(
        (c.pipeline.sampler_threads, c.pipeline.gather_threads),
        (2, 1)
    );
    assert_eq!((c.pipeline.channel_depth, c.pipeline.h2d_gibps), (4, 0.0));
    assert_eq!(c.gpu_free_bytes, 64 << 20);
    assert_eq!(c.refresh_workers, 1);
    assert_eq!((c.checkpoint_every, c.checkpoint_path), (0, None));
    assert!(c.fault_plan.is_none());
    assert_eq!(c.stall_timeout, std::time::Duration::from_secs(5));
    assert_eq!(c.replicas, 1);
    assert!(c.locality_aware);
    assert_eq!(c.interconnect, InterconnectSpec::nvlink_like());
    assert_eq!(c.on_replica_failure, FailurePolicy::Fail);
}

/// The report shape per replica count: R lanes plus one refresh worker
/// (the inert thread counts spawn nothing); one lane has one `per_replica`
/// entry and nothing on the interconnect, two obey the ring all-reduce law.
#[test]
fn session_dispatches_on_the_replica_count() {
    let run = |replicas: usize| {
        let mut t = trainer(hot_policy());
        let mut config = SessionConfig {
            replicas,
            ..SessionConfig::default()
        };
        config.pipeline.sampler_threads = 3;
        config.pipeline.gather_threads = 2;
        Session::new(config).run_session(&mut t, 0, 2)
    };
    let one = run(1);
    assert_eq!((one.replicas, one.workers_spawned), (1, 1 + 1));
    for run in &one.epochs {
        assert_eq!(run.per_replica.len(), 1);
        assert_eq!(run.per_replica[0].h2d_bytes, run.report.h2d_bytes);
        assert_eq!(run.per_replica[0].remote_picks, 0);
        assert_eq!(run.steps, run.report.num_batches);
        assert_eq!((run.allreduce_bytes, run.remote_feature_bytes), (0, 0));
        assert_eq!(run.interconnect_seconds, 0.0);
    }
    let two = run(2);
    assert_eq!((two.replicas, two.workers_spawned), (2, 2 + 1));
    for run in &two.epochs {
        assert_eq!(run.per_replica.len(), 2);
        assert_eq!(run.allreduce_bytes, run.steps as u64 * 2 * two.model_bytes);
        assert!(run.interconnect_seconds > 0.0);
    }
}

/// Configurations a session could only ignore are rejected up front.
#[test]
#[should_panic(expected = "at least one replica")]
fn zero_replicas_are_rejected() {
    Session::new(SessionConfig {
        replicas: 0,
        ..SessionConfig::default()
    });
}

/// A fault addressed past the last lane would never be delivered, so a
/// drill built on it would pass vacuously — at R = 1 that is any replica
/// but 0, however many (inert) sampler threads the config names.
#[test]
#[should_panic(expected = "crash@r1e0s0 addresses worker 1 but the session has 1 replica(s)")]
fn a_fault_beyond_the_one_lane_is_rejected() {
    Session::new(SessionConfig {
        pipeline: PipelineConfig {
            sampler_threads: 2,
            ..PipelineConfig::default()
        },
        fault_plan: Some(Arc::new(FaultPlan::parse("crash@r1e0s0").unwrap())),
        ..SessionConfig::default()
    });
}

/// The same at R >= 2.
#[test]
#[should_panic(expected = "crash@r7e1s0 addresses worker 7 but the session has 2 replica(s)")]
fn a_fault_beyond_the_replicas_is_rejected() {
    Session::new(SessionConfig {
        replicas: 2,
        fault_plan: Some(Arc::new(FaultPlan::parse("crash@r7e1s0").unwrap())),
        on_replica_failure: FailurePolicy::DropReplica,
        ..SessionConfig::default()
    });
}

/// The staleness bound holds with the refresh on the background worker —
/// which actually carries refresh work.
#[test]
fn session_keeps_staleness_bound_with_background_refresh() {
    let n = 2;
    let mut t = trainer(ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: n,
    });
    let session = Session::new(SessionConfig::default()).run_session(&mut t, 0, 4);
    for run in &session.epochs {
        assert!(
            run.observation.max_staleness < 2 * n as u64,
            "epoch {}: gap {} ≥ 2n",
            run.epoch,
            run.observation.max_staleness
        );
    }
    assert!(t.embedding_reuses() > 0);
    let refresh_seconds: f64 = session.epochs.iter().map(|e| e.refresh_seconds).sum();
    assert!(refresh_seconds > 0.0);
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
    let session = engine(2, 1).run_session(&mut t, 0, 5);
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

    t.train_batches_recycling([first], &mut InlineRefresh::default(), |_| {});
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
    let stored = state.store.unwrap().rows;
    assert_eq!(
        stored.vertices(),
        want,
        "the first boundary stores the whole hot set"
    );

    // The rest of super-batch 0 still reads the version-0 rows.
    let mut t = trainer(policy());
    let super_batch: Vec<_> = (0..n).map(|i| stage(&t, 0, i)).collect();
    t.train_batches_recycling(super_batch, &mut InlineRefresh::default(), |_| {});
    assert_eq!(t.max_staleness(), n as u64 - 1);

    let mut t = trainer(policy());
    let session = engine(2, 2).run_session(&mut t, 0, 3);
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

/// Hot vertices leave the device path: whatever a session stages, its
/// bottom blocks hold no hot dst. At R = 1 and R = 2 the gathered-source
/// count of every epoch is exactly what the trainer's own (pruning) sampler
/// produces for the batches the lanes stage — at R = 1 strictly below what
/// training without reuse gathers — and every hot row the layer above
/// needs is read from the store instead.
#[test]
fn hot_vertices_never_reach_the_device_path() {
    let epochs = 2;
    let probe = trainer(hot_policy());
    let hot = probe.hot_set().unwrap();
    let exact = trainer(ReusePolicy::Exact);
    // What one batch puts on the device path / reads from the store.
    let tally = |item: &PreparedBatch| {
        assert!(item.blocks[0].dst().iter().all(|&v| !hot.contains(v)));
        let reads = item.blocks[1].src().iter().filter(|&&v| hot.contains(v));
        (item.blocks[0].num_src() as u64, reads.count() as u64)
    };
    let check = |config: SessionConfig, want_sources: &[u64], want_reuses: u64| {
        let mut t = trainer(hot_policy());
        let session = Session::new(config).run_session(&mut t, 0, epochs);
        let staged = session.series(|r| r.report.cache_hits + r.report.cache_misses);
        assert_eq!(staged, want_sources, "staged unpruned rows");
        assert_eq!(t.embedding_reuses(), want_reuses);
    };

    let (mut want_sources, mut want_reuses) = (vec![0u64; epochs], 0u64);
    for (e, pruned) in want_sources.iter_mut().enumerate() {
        let mut unpruned = 0u64;
        for i in 0..probe.epoch_batches(e).len() {
            let (sources, reads) = tally(&stage(&probe, e, i));
            *pruned += sources;
            want_reuses += reads;
            unpruned += stage(&exact, e, i).blocks[0].num_src() as u64;
        }
        assert!(*pruned < unpruned, "epoch {e}: {pruned} vs {unpruned}");
    }
    check(config(2, 2), &want_sources, want_reuses);

    // Two lanes, locality-blind so each replica samples
    // with the trainer's own sampler: replica `r` stages its partition's
    // batches under its own seed stream, trimmed to the common step count.
    let ds = probe.dataset_handle();
    let part = hash_partition(ds.csr.num_vertices(), 2);
    let cfg = probe.config();
    let streams = [0, 1].map(|r| {
        let owned = ds.train.iter().copied().filter(|&v| part.owner(v) == r);
        // Replica r's sampling seed: the trainer's, salted per lane.
        let seed = cfg.seed ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (
            BatchIterator::new(owned.collect(), cfg.batch_size, cfg.seed),
            seed,
        )
    });
    let (mut want_sources, mut want_reuses) = (vec![0u64; epochs], 0u64);
    for (e, pruned) in want_sources.iter_mut().enumerate() {
        let lists = streams
            .each_ref()
            .map(|(batches, _)| batches.epoch_batches(e));
        let steps = lists[0].len().min(lists[1].len());
        for ((_, seed), list) in streams.iter().zip(&lists) {
            for (i, seeds) in list.iter().take(steps).enumerate() {
                let (sources, reads) = tally(&prepare(&probe, *seed, e, i, seeds));
                *pruned += sources;
                want_reuses += reads;
            }
        }
    }
    let fused = SessionConfig {
        replicas: 2,
        locality_aware: false,
        ..SessionConfig::default()
    };
    check(fused, &want_sources, want_reuses);
}

/// `rows` less the row of `victim`.
fn without(rows: &EmbeddingRows, victim: u32) -> EmbeddingRows {
    let kept: Vec<_> = rows.iter().filter(|r| r.0 != victim).collect();
    let width = rows.iter().next().map_or(0, |r| r.1.len());
    let data = kept.iter().flat_map(|r| r.1.iter().copied()).collect();
    let vertices = kept.iter().map(|r| r.0).collect();
    EmbeddingRows::new(vertices, Matrix::from_vec(kept.len(), width, data))
}

/// A pruned row that is missing from the store must end the session — by
/// a panic of the train stage or a typed `SessionError` — at any R.
/// It may never hang the pipeline, and it may never train on a zero row
/// (which would let the session finish `Ok`).
#[test]
fn a_missing_hot_embedding_ends_the_session_loudly() {
    let mut t = trainer(hot_policy());
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
    let snap = state.store.as_mut().unwrap();
    if let Some(at) = snap.rows.vertices().iter().position(|&v| v == victim) {
        snap.versions.remove(at);
    }
    snap.rows = without(&snap.rows, victim);
    let pending = state.pending.as_mut().unwrap();
    pending.rows = without(&pending.rows, victim);

    let restored = || {
        let mut t = trainer(hot_policy());
        t.restore_state(&state).unwrap();
        t
    };
    for replicas in [1, 2] {
        let mut t = restored();
        let session = Session::new(SessionConfig {
            replicas,
            ..config(2, 2)
        });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run_session_checked(&mut t, 1, 1)
        }));
        match outcome {
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                assert!(
                    message.contains("no stored embedding"),
                    "R={replicas}: unexpected panic: {message}"
                );
            }
            Ok(Err(_typed)) => {}
            Ok(Ok(_)) => panic!("R={replicas}: trained on a row nobody supplied"),
        }
    }
}

/// A one-replica session is bit-identical to the sequential reference at
/// every staging depth and cache budget, and whatever
/// `locality_aware` says (one partition owns every vertex, so there is
/// nothing remote to prefer).
#[test]
fn replicated_r1_is_bit_identical_to_the_engine_session() {
    let reference = sequential_reference(3);
    for (depth, budget, locality) in [
        (1usize, 0u64, true),
        (3, 48 << 10, false),
        (4, 64 << 20, true),
    ] {
        let mut cfg = SessionConfig {
            replicas: 1,
            locality_aware: locality,
            gpu_free_bytes: budget,
            ..SessionConfig::default()
        };
        cfg.pipeline.channel_depth = depth;
        let session = Session::new(cfg).run_session(&mut trainer(hot_policy()), 0, 3);
        let what = format!("depth={depth} budget={budget} locality={locality}");
        assert_replays(&session, &reference, &what);
        for run in &session.epochs {
            assert_eq!(run.allreduce_bytes, 0, "R=1 must not exchange gradients");
            assert_eq!(run.remote_feature_bytes, 0, "R=1 owns every vertex");
        }
    }
}

/// The R = 1 identity at the smoke example's scale: the Reddit convergence
/// replica has far more batches and super-batch boundaries per epoch than
/// `tiny`, and SAGE instead of GCN layers.
#[test]
fn r1_identity_holds_on_the_scaled_reddit_replica() {
    let make = || {
        let ds = DatasetSpec::reddit_convergence().build_full();
        let cfg = TrainerConfig::convergence_default(LayerKind::Sage, hot_policy());
        ConvergenceTrainer::new(ds, cfg)
    };
    let (mut seq, mut t) = (make(), make());
    let session = Session::new(SessionConfig::default()).run_session(&mut t, 0, 2);
    for run in &session.epochs {
        let want = seq.train_epoch(run.epoch);
        assert_eq!(run.observation.train_loss, want.train_loss);
        assert_eq!(run.observation.test_accuracy, want.test_accuracy);
    }
}

/// R ∈ {2, 4} sessions replay exactly across repeats: losses, remote
/// feature bytes and all-reduce bytes are all pure functions of the seed,
/// the partition and the replica count — and the all-reduce series obeys
/// the closed-form `steps × 2(R−1) × model_bytes` law on both fabrics.
#[test]
fn replicated_sessions_are_deterministic_at_r2_and_r4() {
    let run = |replicas: usize, link: InterconnectSpec| {
        let mut t = trainer(hot_policy());
        let cfg = SessionConfig {
            replicas,
            interconnect: link,
            ..SessionConfig::default()
        };
        Session::new(cfg).run_session(&mut t, 0, 3)
    };
    for replicas in [2usize, 4] {
        let a = run(replicas, InterconnectSpec::nvlink_like());
        let b = run(replicas, InterconnectSpec::nvlink_like());
        // Losses and both wire-byte series reproduce exactly.
        let wire = |s: &SessionReport| {
            s.series(|r| {
                (
                    r.observation.train_loss,
                    r.remote_feature_bytes,
                    r.allreduce_bytes,
                )
            })
        };
        assert_eq!(wire(&a), wire(&b), "R={replicas}");
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
        assert_eq!(wire(&a), wire(&slow));
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
        let mut t = trainer(hot_policy());
        let cfg = SessionConfig {
            replicas: 2,
            locality_aware: locality,
            ..SessionConfig::default()
        };
        Session::new(cfg).run_session(&mut t, 0, 2)
    };
    let aware = run(true);
    let blind = run(false);
    let remote_bytes = |s: &SessionReport| s.epochs.iter().map(|r| r.remote_feature_bytes).sum();
    let (aware_bytes, blind_bytes): (u64, u64) = (remote_bytes(&aware), remote_bytes(&blind));
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
        let session = engine(sampler_threads, 1).run_session(&mut t, 0, epochs);
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
