//! The one runner of a [`Session`]: data-parallel training over a
//! partitioned graph, one **lane** per partition
//! ([`neutron_graph::partition::hash_partition`]; at `replicas == 1` one
//! partition owns every vertex).
//!
//! ```text
//! lane r:  [sample → gather → transfer] --staging ch--> ┐
//!            fused worker, one per lane                 ├─> [train] (caller thread:
//!          spent-buffer pool (session-wide) <───────────┘    one batch per lane a step)
//! [refresh worker] <--task-- train thread at super-batch boundaries:
//!                            the hot rows the *next* super-batch reads
//!                  --rows--> published at the *next* boundary (double buffer)
//! ```
//!
//! - **Lanes.** Each lane owns the training vertices its partition assigns
//!   to it and prepares its batches on one dedicated *fused* worker thread
//!   (sample, gather and transfer back to back:
//!   [`crate::pipeline::stage_batch`]) into its own staging channel, in
//!   batch order. Spent buffer bundles return through one
//!   session-wide pool, so warm epochs allocate (near) nothing on the
//!   staging path (`tests/alloc_budget.rs`).
//! - **One cache rule.** Each lane's [`FeatureCache`] holds its hottest
//!   *owned* hot vertices under [`SessionConfig::gpu_free_bytes`], built
//!   once at session start and in force from epoch 0.
//! - **Pipelined, demand-driven refresh (Fig 8, §4.2).** The train loop
//!   keeps `2n−1` staged steps in hand
//!   ([`ConvergenceTrainer::lookahead`]; they count against the staging
//!   depth), so at each super-batch boundary it already holds the next
//!   super-batch. The refresh of the hot rows those batches read goes to
//!   the session's background refresh worker and is collected one boundary
//!   later (`WorkerRefresh`); the priming boundary of a fresh trainer
//!   collects at once. The worker's in-flight
//!   refresh is settled once at session end and before a
//!   [`FailurePolicy::Restore`] rolls the trainer back.
//! - **One step per lane.** The train stage consumes one staged batch from
//!   every live lane per step, computes per-lane gradients at the same
//!   parameter version, tree-averages them ([`neutron_nn::tree_average`] —
//!   an order-independent reduction), and applies one shared optimizer
//!   step (`ConvergenceTrainer::train_steps_replicated`).
//!
//! Determinism contract:
//!
//! - **R=1 is bit-identical to the sequential trainer.** A 1-way partition
//!   owns every vertex, so lane 0's train list is `dataset.train` in its
//!   original order, the epoch shuffle and the per-batch
//!   [`batch_sample_seed`] stream are unchanged, and the one-lane step
//!   inside `train_steps_replicated` is literally `train_prepared` — no
//!   gradient clone, no averaging, no extra float ops. The cache and the
//!   refresh placement only move bytes and work, never numbers.
//! - **Any R is deterministic.** The partition is a pure function of
//!   `(num_vertices, R)`, each lane's batch order is a pure function of
//!   `(seed, epoch)`, each staging channel is single-producer in-order, and
//!   the train stage consumes lanes in fixed `0..R` order, so repeated runs
//!   reproduce losses *and* byte series exactly.
//!
//! Lanes also meter a simulated **interconnect** distinct from the PCIe
//! H2D path ([`neutron_hetero::InterconnectSpec`]): remote (non-owned)
//! feature rows pulled per batch and ring all-reduce gradient bytes per
//! step become first-class per-epoch series in the session report (zero at
//! R = 1).

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use neutron_cache::FeatureCache;
use neutron_graph::partition::{hash_partition, Partition};
use neutron_graph::{Dataset, VertexId};
use neutron_sample::{BatchIterator, BlockBuilder, EpochBatches, SamplerScratch};
use neutron_tensor::alloc::{self, Stage};

use crate::checkpoint::CheckpointError;
use crate::engine::{Bounded, BusyNs, Defer, RecvTimeout};
use crate::fault::{FailureAction, FailureEvent, FailurePolicy};
use crate::gather::StagedBatch;
use crate::pipeline::{stage_batch, PipelineReport, StageCounters, StageInputs};
use crate::pool::BatchBuffers;
use crate::refresh::{CpuPart, RefreshBackend, RefreshOutput, RefreshTask};
use crate::session::{
    recycle_into, BatchRing, Checkpointer, EpochRun, ReplicaEpochStats, Session, SessionConfig,
    SessionError, SessionReport, Supervisor,
};
use crate::trainer::{batch_sample_seed, ConvergenceTrainer};

/// The multi-lane spelling of [`Session`], kept for callers that name it.
pub type ReplicatedEngine = Session;
/// The multi-lane spelling of [`SessionConfig`], kept for callers that name it.
pub type ReplicatedConfig = SessionConfig;
/// The multi-lane spelling of [`EpochRun`], kept for callers that name it.
pub type ReplicatedEpochRun = EpochRun;
/// The multi-lane spelling of [`SessionReport`], kept for callers that name it.
pub type ReplicatedSessionReport = SessionReport;

/// Per-lane share of the session-wide bundle pool: enough for the staging
/// channel, the train loop's `lookahead` window (counted against the
/// channel, [`crate::pipeline::PipelineConfig::train_feed_depth`]), and
/// in-flight and recycling slack. Any size is bit-identical: a drained pool
/// just allocates fresh.
fn pool_capacity(config: &SessionConfig, lookahead: usize) -> usize {
    let staged = config.pipeline.train_feed_depth(lookahead);
    config.pipeline.channel_depth + staged + lookahead + 4
}

/// Lane `lane`'s sampling-stream seed: the trainer's `seed`, salted per
/// lane. Lane 0's salt vanishes, so a one-lane session samples under the
/// trainer's own seed — the R = 1 bit-identity with the sequential trainer.
pub(crate) fn lane_seed(seed: u64, lane: usize) -> u64 {
    seed ^ (lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One epoch's worth of work for a lane's worker.
struct ReplicaJob {
    epoch: usize,
    /// Batches to stage this epoch (the global step count — the worker
    /// never produces tail batches other lanes cannot match).
    limit: usize,
    batches: Arc<EpochBatches>,
}

/// Refresh backend bridging the trainer's super-batch boundaries to the
/// session's background refresh worker.
struct WorkerRefresh<'a> {
    tasks: &'a Bounded<RefreshTask>,
    outputs: &'a Bounded<RefreshOutput>,
    /// Cumulative time the train thread spent blocked in [`Self::collect`]
    /// waiting for the refresh worker. This is train-stage *starvation*
    /// (the training device idling on CPU work) and is reported as wait,
    /// not compute, so `train_occupancy` reads low exactly when the refresh
    /// worker is the bottleneck.
    wait: Duration,
    /// Set when [`Self::collect`] found the output channel closed with a
    /// collect outstanding — the refresh worker died mid-task. The session
    /// checks this after the epoch and fails (the substituted empty output
    /// keeps the trainer unwedged until then).
    failed: bool,
}

impl RefreshBackend for WorkerRefresh<'_> {
    fn submit(&mut self, task: RefreshTask) -> CpuPart {
        match self.tasks.send_or_return(task) {
            None => CpuPart::Submitted,
            // Channel closed (teardown/panic path): compute locally so the
            // trainer's refresh schedule stays intact.
            Some(task) => CpuPart::Ready(task.run(1, &mut SamplerScratch::new())),
        }
    }

    fn collect(&mut self) -> RefreshOutput {
        let t0 = Instant::now();
        let out = self.outputs.recv();
        self.wait += t0.elapsed();
        out.unwrap_or_else(|| {
            // The worker died between accepting the task and producing
            // rows. Panicking here would wedge the lanes; flag it for the
            // session to turn into a typed error at the epoch boundary.
            self.failed = true;
            RefreshOutput::default()
        })
    }
}

/// The error a dead refresh worker ends the session with: its recorded
/// panic, or a placeholder if it vanished without one.
fn refresh_died(supervisor: &Supervisor) -> SessionError {
    supervisor
        .first_panic()
        .unwrap_or_else(|| SessionError::WorkerPanicked {
            stage: "refresh",
            message: "refresh worker died with a collect outstanding".into(),
        })
}

/// Runs the session — [`Session::run_session_checked`], at every replica
/// count. The train thread doubles as the supervisor: it detects a dead
/// lane by its poisoned staging channel and a stalled one by the stall
/// timeout, then applies the configured [`FailurePolicy`].
pub(crate) fn run_fused(
    config: &SessionConfig,
    trainer: &mut ConvergenceTrainer,
    first_epoch: usize,
    num_epochs: usize,
) -> Result<SessionReport, SessionError> {
    let replicas = config.replicas;
    let dataset = trainer.dataset_handle();
    let partition = Arc::new(hash_partition(dataset.csr.num_vertices(), replicas));
    let partition_stats = partition.stats(&dataset.csr);
    let model_bytes = trainer.model_bytes();

    // Per-lane train lists preserve `dataset.train` order, so a 1-way
    // partition reproduces the sequential batch stream exactly.
    let config_seed = trainer.config().seed;
    let batch_size = trainer.config().batch_size;
    let checkpointer = Checkpointer::new(config, trainer);

    // Mutable ownership map over `dataset.train` positions: starts as
    // the hash partition, and DropReplica reassigns a dead replica's
    // slots to the survivors at an epoch boundary.
    let mut owner_of: Vec<usize> = dataset.train.iter().map(|&v| partition.owner(v)).collect();
    let build_iterators = |owner_of: &[usize]| -> Vec<BatchIterator> {
        (0..replicas)
            .map(|r| {
                let owned: Vec<VertexId> = dataset
                    .train
                    .iter()
                    .copied()
                    .zip(owner_of.iter())
                    .filter(|&(_, &o)| o == r)
                    .map(|(v, _)| v)
                    .collect();
                BatchIterator::new(owned, batch_size, config_seed)
            })
            .collect()
    };
    let mut iterators = build_iterators(&owner_of);

    let caches: Vec<Arc<FeatureCache>> = (0..replicas)
        .map(|r| Arc::new(replica_cache(config, trainer, &dataset, &partition, r)))
        .collect();
    let cache_vertices: usize = caches.iter().map(|c| c.len()).sum();

    let counters: Vec<Arc<StageCounters>> = (0..replicas)
        .map(|_| Arc::new(StageCounters::default()))
        .collect();
    // The train loop holds `lookahead` steps itself; they count against
    // each lane's staging depth.
    let lookahead = trainer.lookahead();
    let staged_depth = config.pipeline.train_feed_depth(lookahead);
    let job_channels: RefCell<Vec<Arc<Bounded<ReplicaJob>>>> =
        RefCell::new((0..replicas).map(|_| Arc::new(Bounded::new(1))).collect());
    let staged_channels: RefCell<Vec<Arc<Bounded<StagedBatch>>>> = RefCell::new(
        (0..replicas)
            .map(|_| Arc::new(Bounded::new(staged_depth)))
            .collect(),
    );
    // One session-wide return pool, sized for every lane at once: a spent
    // bundle serves whichever lane stages next, so a dropped lane's share
    // keeps circulating among the survivors instead of filling up
    // and forcing them to allocate fresh.
    let pool: Bounded<BatchBuffers> = Bounded::new(replicas * pool_capacity(config, lookahead));
    let tasks: Bounded<RefreshTask> = Bounded::new(1);
    let outputs: Bounded<RefreshOutput> = Bounded::new(1);
    let refresh_busy = BusyNs::default();

    let supervisor = Supervisor::new(config.fault_plan.clone());
    let sampler0 = trainer.sampler().clone();
    let policy = config.on_replica_failure;
    let stall_timeout = config.stall_timeout;
    // One partition has nothing remote to prefer: the unbiased sampler
    // draws the same blocks without splitting every neighborhood.
    let locality_aware = config.locality_aware && replicas > 1;

    let mut epochs = Vec::with_capacity(num_epochs);
    let mut workers_spawned = 0usize;
    let mut generations = 0u64;
    let mut startup_seconds = 0.0;
    let session_start = Instant::now();
    let caller_stage = alloc::set_stage(Stage::Train);

    let outcome: Result<(), SessionError> = std::thread::scope(|scope| {
        // Unblock every worker on unwind or normal exit: waking the
        // job channels ends their loops, waking the staging channels
        // unblocks any worker parked on a full channel, closing the
        // refresh channels ends the refresh worker, and tearing the
        // supervisor down frees workers parked in an injected stall.
        let _teardown = Defer(|| {
            supervisor.tear_down();
            tasks.close();
            outputs.close();
            for ch in job_channels.borrow().iter() {
                ch.close();
            }
            for ch in staged_channels.borrow().iter() {
                ch.close();
            }
            pool.close();
        });

        let spawn_worker =
            |r: usize, jobs: Arc<Bounded<ReplicaJob>>, staged_tx: Arc<Bounded<StagedBatch>>| {
                let counters = Arc::clone(&counters[r]);
                let cache = Arc::clone(&caches[r]);
                let partition = Arc::clone(&partition);
                let dataset = Arc::clone(&dataset);
                let sampler = sampler0.clone();
                let seed = lane_seed(config_seed, r);
                let (supervisor, pool) = (&supervisor, &pool);
                scope.spawn(move || {
                    // Poison both endpoints on every exit path so the
                    // supervisor sees a closed channel instead of
                    // blocking forever on a dead lane.
                    let _poison = Defer(|| {
                        staged_tx.close();
                        jobs.close();
                    });
                    let body = AssertUnwindSafe(|| {
                        let inputs = StageInputs {
                            pipeline: &config.pipeline,
                            dataset: &dataset,
                            sampler: &sampler,
                            cache: &cache,
                            partition: Some((&partition.assignment, r as u32)),
                            locality_aware,
                            counters: &counters,
                        };
                        let mut builder = BlockBuilder::default();
                        while let Some(job) = jobs.recv() {
                            for i in 0..job.limit {
                                if supervisor.fault_hook("replica", r, job.epoch, i).is_break() {
                                    return;
                                }
                                let bufs = pool.try_recv().unwrap_or_default();
                                let staged = stage_batch(
                                    &inputs,
                                    i,
                                    job.batches.batch(i),
                                    batch_sample_seed(seed, job.epoch, i),
                                    &mut builder,
                                    bufs,
                                );
                                if !staged_tx.send(staged) {
                                    return; // session tearing down
                                }
                            }
                        }
                    });
                    if let Err(payload) = catch_unwind(body) {
                        supervisor.record_panic("replica", payload);
                    }
                });
            };

        {
            let jobs = job_channels.borrow();
            let staged = staged_channels.borrow();
            for r in 0..replicas {
                spawn_worker(r, Arc::clone(&jobs[r]), Arc::clone(&staged[r]));
            }
        }
        let (tasks, outputs, refresh_busy) = (&tasks, &outputs, &refresh_busy);
        let supervisor = &supervisor;
        scope.spawn(move || {
            let _liveness = Defer(|| outputs.close());
            alloc::set_stage(Stage::Refresh);
            let body = AssertUnwindSafe(|| {
                let mut scratch = SamplerScratch::new();
                while let Some(task) = tasks.recv() {
                    let t0 = Instant::now();
                    // Sharding is placement-only: `run` concatenates
                    // partition-stable shards in order, so the rows are the
                    // serial rows bit for bit at any thread count.
                    let out = task.run(config.refresh_workers, &mut scratch);
                    refresh_busy.add(t0);
                    if !outputs.send(out) {
                        break;
                    }
                }
            });
            if let Err(payload) = catch_unwind(body) {
                // A later submit must not queue behind a dead worker; the
                // closed output channel (`_liveness`) fails the next collect.
                supervisor.record_panic("refresh", payload);
                tasks.close();
            }
        });
        workers_spawned = replicas + 1;
        startup_seconds = session_start.elapsed().as_secs_f64();
        let mut backend = WorkerRefresh {
            tasks,
            outputs,
            wait: Duration::ZERO,
            failed: false,
        };

        let mut batch_rings: Vec<BatchRing> = (0..replicas).map(|_| BatchRing::default()).collect();

        let alive = RefCell::new(vec![true; replicas]);
        let mut pending_redistribute = false;
        // Backstop against a restore loop on a persistently failing
        // setup; injected faults are one-shot, so this only trips on a
        // genuinely unrecoverable session.
        let mut restores_left = 4usize;

        let end_epoch = first_epoch + num_epochs;
        let mut epoch = first_epoch;
        while epoch < end_epoch {
            let alive_at_start = alive.borrow().clone();
            if pending_redistribute {
                let survivors: Vec<usize> = (0..replicas).filter(|&r| alive_at_start[r]).collect();
                if survivors.is_empty() {
                    return Err(SessionError::NoSurvivors { epoch });
                }
                let mut rr = 0usize;
                for slot in owner_of.iter_mut() {
                    if !alive_at_start[*slot] {
                        *slot = survivors[rr % survivors.len()];
                        rr += 1;
                    }
                }
                iterators = build_iterators(&owner_of);
                pending_redistribute = false;
            }

            let epoch_wall = Instant::now();
            let alloc_before = alloc::snapshot();
            let refresh_rows_before = trainer.refresh_rows();
            let refresh_busy_before = refresh_busy.seconds();
            let collect_wait_before = backend.wait;
            let baselines: Vec<ReplicaEpochStats> = counters.iter().map(|c| c.snapshot()).collect();

            let filled: Vec<Option<Arc<EpochBatches>>> = (0..replicas)
                .map(|r| {
                    let fill = |ids: &mut EpochBatches| iterators[r].fill_epoch_batches(epoch, ids);
                    alive_at_start[r].then(|| batch_rings[r].next(fill))
                })
                .collect();
            let lens: Vec<usize> = filled
                .iter()
                .map(|b| b.as_ref().map_or(0, |b| b.len()))
                .collect();
            let steps = filled.iter().flatten().map(|b| b.len()).min().unwrap_or(0);
            for (r, batches) in filled.into_iter().enumerate() {
                let Some(batches) = batches else {
                    continue;
                };
                // A worker that died after its last drain shows up as a
                // closed channel here; the feed below detects it.
                let _ = job_channels.borrow()[r].send(ReplicaJob {
                    epoch,
                    limit: steps,
                    batches,
                });
            }
            generations += 1;

            let mut wait = Duration::ZERO;
            let mut cache_hits = 0u64;
            let mut cache_misses = 0u64;
            let epoch_error: RefCell<Option<SessionError>> = RefCell::new(None);
            let want_restore = Cell::new(false);
            let consumed: RefCell<Vec<usize>> = RefCell::new(vec![0usize; replicas]);
            let train_wall = Instant::now();
            let stats = {
                let feed = (0..steps).map_while(|si| {
                    let mut step = Vec::with_capacity(replicas);
                    for (r, cache) in caches.iter().enumerate() {
                        if !alive.borrow()[r] {
                            continue;
                        }
                        let ch = Arc::clone(&staged_channels.borrow()[r]);
                        let blocked = Instant::now();
                        let got = ch.recv_timeout(stall_timeout);
                        wait += blocked.elapsed();
                        match got {
                            RecvTimeout::Item(staged) => {
                                consumed.borrow_mut()[r] += 1;
                                debug_assert_eq!(staged.index, si);
                                cache_hits += staged.features.num_hits() as u64;
                                cache_misses += staged.features.num_misses() as u64;
                                step.push(staged.into_prepared(cache));
                            }
                            RecvTimeout::Closed | RecvTimeout::TimedOut => {
                                alive.borrow_mut()[r] = false;
                                let detail = if matches!(got, RecvTimeout::TimedOut) {
                                    format!(
                                        "replica {r} stalled: no staged batch within \
                                         {stall_timeout:?}"
                                    )
                                } else if let Some(SessionError::WorkerPanicked {
                                    message, ..
                                }) = supervisor.first_panic()
                                {
                                    format!("replica {r} worker panicked: {message}")
                                } else {
                                    format!("replica {r} worker exited early")
                                };
                                let action = match policy {
                                    FailurePolicy::Fail => {
                                        *epoch_error.borrow_mut() =
                                            Some(SessionError::ReplicaDied {
                                                replica: r,
                                                epoch,
                                                step: si,
                                                detail: detail.clone(),
                                            });
                                        FailureAction::Failed
                                    }
                                    FailurePolicy::DropReplica => FailureAction::DroppedReplica,
                                    FailurePolicy::Restore => {
                                        want_restore.set(true);
                                        FailureAction::RestoredCheckpoint
                                    }
                                };
                                supervisor.note(FailureEvent {
                                    epoch,
                                    step: si,
                                    replica: r,
                                    detail,
                                    action,
                                });
                            }
                        }
                    }
                    if epoch_error.borrow().is_some() || want_restore.get() {
                        return None;
                    }
                    if step.is_empty() {
                        *epoch_error.borrow_mut() = Some(SessionError::NoSurvivors { epoch });
                        return None;
                    }
                    Some(step)
                });
                trainer.train_steps_replicated(feed, &mut backend, recycle_into(&pool))
            };
            let train_wall = train_wall.elapsed().as_secs_f64();
            let epoch_seconds = epoch_wall.elapsed().as_secs_f64();
            let allocs = alloc::snapshot().since(&alloc_before);

            if let Some(err) = epoch_error.into_inner() {
                return Err(err);
            }
            if backend.failed {
                return Err(refresh_died(supervisor));
            }
            if want_restore.get() {
                // Drain the survivors so their workers finish the
                // aborted epoch and park on their job channels, then
                // roll back and replace the casualties.
                let alive_after = alive.borrow().clone();
                for (r, &still_alive) in alive_after.iter().enumerate() {
                    let ch = Arc::clone(&staged_channels.borrow()[r]);
                    if !still_alive {
                        while ch.try_recv().is_some() {}
                        continue;
                    }
                    let mut got = consumed.borrow()[r];
                    while got < steps {
                        match ch.recv_timeout(stall_timeout) {
                            RecvTimeout::Item(_) => got += 1,
                            _ => break,
                        }
                    }
                }
                if restores_left == 0 {
                    return Err(SessionError::Checkpoint(CheckpointError::Io(
                        "restore budget exhausted: session keeps failing after rollback".into(),
                    )));
                }
                restores_left -= 1;
                // The refresh on the worker belongs to the abandoned
                // timeline; collect it now, or the restored trainer's next
                // collect would publish its rows.
                trainer.settle_refresh(&mut backend);
                let ck = checkpointer.load()?;
                // Only a checkpoint this session (or the run it continues)
                // wrote is a resume point: one from another run's future
                // or past would replay the wrong epochs from its state.
                let resume = ck.next_epoch as usize;
                if !(first_epoch..=epoch).contains(&resume) {
                    return Err(SessionError::Checkpoint(CheckpointError::Io(format!(
                        "the checkpoint resumes at epoch {resume}, outside this session's \
                         epochs {first_epoch}..={epoch} (epoch {epoch} failed)"
                    ))));
                }
                trainer
                    .restore_state(&ck.state)
                    .map_err(|m| SessionError::Checkpoint(CheckpointError::Corrupt(m)))?;
                for (r, &still_alive) in alive_after.iter().enumerate() {
                    if still_alive {
                        continue;
                    }
                    let jobs = Arc::new(Bounded::new(1));
                    let staged = Arc::new(Bounded::new(staged_depth));
                    job_channels.borrow_mut()[r] = Arc::clone(&jobs);
                    staged_channels.borrow_mut()[r] = Arc::clone(&staged);
                    spawn_worker(r, jobs, staged);
                    workers_spawned += 1;
                    alive.borrow_mut()[r] = true;
                }
                epochs.truncate(resume - first_epoch);
                epoch = resume;
                continue;
            }
            // A lane lost this epoch hands its train vertices to the
            // survivors at the next boundary.
            pending_redistribute = *alive.borrow() != alive_at_start;

            // Starvation = blocked on the lanes + blocked on the refresh
            // worker at super-batch boundaries (see `WorkerRefresh::wait`).
            let train_wait = (wait + (backend.wait - collect_wait_before)).as_secs_f64();
            let per_replica: Vec<ReplicaEpochStats> = (0..replicas)
                .map(|r| counters[r].snapshot().since(&baselines[r], steps, lens[r]))
                .collect();

            let remote_feature_bytes: u64 =
                per_replica.iter().map(|s| s.remote_feature_bytes).sum();
            let h2d_bytes: u64 = per_replica.iter().map(|s| s.h2d_bytes).sum();
            let allreduce_bytes = steps as u64 * 2 * (replicas as u64 - 1) * model_bytes;
            let link = &config.interconnect;
            let mut interconnect_seconds =
                steps as f64 * link.allreduce_seconds(model_bytes, replicas);
            for s in &per_replica {
                if s.remote_feature_bytes > 0 {
                    // One remote pull message per step per lane.
                    interconnect_seconds += steps as f64 * link.latency
                        + s.remote_feature_bytes as f64 / link.bandwidth;
                }
            }

            let report = PipelineReport {
                epoch_seconds,
                num_batches: steps,
                sample_seconds: per_replica.iter().map(|s| s.sample_seconds).sum(),
                gather_collect_seconds: per_replica.iter().map(|s| s.gather_seconds).sum(),
                transfer_seconds: per_replica.iter().map(|s| s.transfer_seconds).sum(),
                train_seconds: (train_wall - train_wait).max(0.0),
                train_wait_seconds: train_wait,
                h2d_bytes,
                reorder_peak: 0,
                cache_hits,
                cache_misses,
                failures: supervisor.take_timeline(),
            };

            let pre_eval_stage = alloc::set_stage(Stage::Other);
            let eval_wall = Instant::now();
            let observation = trainer.observe_epoch(stats);
            let eval_seconds = eval_wall.elapsed().as_secs_f64();
            alloc::set_stage(pre_eval_stage);

            let mut run = EpochRun {
                epoch,
                observation,
                report,
                per_replica,
                steps,
                allreduce_bytes,
                remote_feature_bytes,
                interconnect_seconds,
                refresh_cpu_fraction: trainer.refresh_cpu_fraction(),
                refresh_seconds: refresh_busy.seconds() - refresh_busy_before,
                refresh_rows: trainer.refresh_rows() - refresh_rows_before,
                eval_seconds,
                cache_vertices,
                allocs,
                checkpoint_bytes: 0,
                checkpoint_seconds: 0.0,
            };
            checkpointer.at_boundary(trainer, &mut backend, &mut run)?;
            epochs.push(run);

            epoch += 1;
        }
        // Resolve the refresh still on the worker so the trainer can
        // outlive this session (the rows publish at a later boundary).
        trainer.settle_refresh(&mut backend);
        if backend.failed {
            return Err(refresh_died(supervisor));
        }
        Ok(())
    });
    alloc::set_stage(caller_stage);
    outcome?;

    Ok(SessionReport {
        epochs,
        replicas,
        model_bytes,
        workers_spawned,
        generations,
        startup_seconds,
        partition_cut_fraction: partition_stats.cut_fraction(),
        partition_balance: partition_stats.balance(),
    })
}

/// Builds lane `r`'s feature cache — the session's one cache rule: its
/// hottest *owned* hot vertices, capped by the per-lane byte budget
/// ([`SessionConfig::gpu_free_bytes`]). Empty when the trainer's policy has
/// no hotness ranking.
fn replica_cache(
    config: &SessionConfig,
    trainer: &ConvergenceTrainer,
    dataset: &Dataset,
    partition: &Partition,
    r: usize,
) -> FeatureCache {
    let Some(hot) = trainer.hot_set() else {
        return FeatureCache::empty();
    };
    let row_bytes = dataset.spec.feature_row_bytes().max(1);
    let budget_rows = (config.gpu_free_bytes / row_bytes) as usize;
    let owned: Vec<VertexId> = hot
        .vertices()
        .iter()
        .copied()
        .filter(|&v| partition.owner(v) == r)
        .take(budget_rows)
        .collect();
    FeatureCache::for_vertices(
        &owned,
        dataset.csr.num_vertices(),
        dataset.features().as_slice(),
        dataset.spec.feature_dim,
    )
}
