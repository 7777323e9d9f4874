//! The one runner of a [`Session`]: data-parallel training over a
//! partitioned graph, one **lane** per partition
//! ([`neutron_graph::partition::hash_partition`]; at `replicas == 1` one
//! partition owns every vertex).
//!
//! ```text
//! lane r:  [sample → gather → transfer] --staging ch--> ┐
//!            fused worker, one per lane                 ├─> [train] (caller thread:
//!          spent-buffer pool (all lanes) <──────────────┘    one batch per lane a step)
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
//!   pool all lanes share, so warm epochs allocate (near) nothing on the
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
//!   collects at once. The refresh still on the worker is settled at
//!   every exit of an attempt, failed ones included.
//! - **Restore is a replay.** A session runs as *attempts*: one attempt
//!   spawns the lanes and the refresh worker and runs epochs until the
//!   session's end or its first failure. Under [`FailurePolicy::Restore`] a
//!   failed lane ends the attempt; the session reloads its last checkpoint
//!   and starts a new attempt at the checkpoint's epoch on fresh workers
//!   and channels, through the same start-up as any session.
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

use std::ops::Range;
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

/// Per-lane share of the bundle pool all lanes share: enough for the staging
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
    /// collect outstanding — the refresh worker died mid-task. The attempt
    /// stops after the epoch and fails on its way out (the substituted
    /// empty output keeps the trainer unwedged until then).
    failed: bool,
}

impl RefreshBackend for WorkerRefresh<'_> {
    fn submit(&mut self, task: RefreshTask) -> CpuPart {
        match self.tasks.send_or_return(task) {
            None => CpuPart::Submitted,
            // Channel closed (the refresh worker panicked): compute locally
            // so the trainer's refresh schedule stays intact.
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

/// Runs the session — [`Session::run_session_checked`], at every replica
/// count — as one or more attempts ([`Shared::attempt`]); under
/// [`FailurePolicy::Restore`] a failed attempt is replayed from the last
/// checkpoint (module docs).
pub(crate) fn run_fused(
    config: &SessionConfig,
    trainer: &mut ConvergenceTrainer,
    first_epoch: usize,
    num_epochs: usize,
) -> Result<SessionReport, SessionError> {
    let (started, replicas) = (Instant::now(), config.replicas);
    let dataset = trainer.dataset_handle();
    let partition = hash_partition(dataset.csr.num_vertices(), replicas);
    let partition_stats = partition.stats(&dataset.csr);
    let shared = Shared {
        config,
        caches: (0..replicas)
            .map(|r| replica_cache(config, trainer, &dataset, &partition, r))
            .collect(),
        counters: (0..replicas).map(|_| StageCounters::default()).collect(),
        checkpointer: Checkpointer::new(config, trainer),
        started,
        dataset,
        partition,
    };
    let mut report = SessionReport {
        epochs: Vec::with_capacity(num_epochs),
        replicas,
        model_bytes: trainer.model_bytes(),
        workers_spawned: 0,
        generations: 0,
        startup_seconds: 0.0,
        partition_cut_fraction: partition_stats.cut_fraction(),
        partition_balance: partition_stats.balance(),
    };
    let end = first_epoch + num_epochs;
    let mut start = first_epoch;
    let mut timeline = Vec::new();
    // Backstop against a restore loop on a persistently failing setup;
    // injected faults are one-shot, so this only trips on a genuinely
    // unrecoverable session.
    let mut restores_left = 4usize;
    loop {
        let died = match shared.attempt(&mut report, trainer, start..end, &mut timeline) {
            Ok(()) => return Ok(report),
            Err(SessionError::ReplicaDied {
                replica,
                epoch,
                step,
                detail,
            }) if config.on_replica_failure == FailurePolicy::Restore => FailureEvent {
                epoch,
                step,
                replica,
                detail,
                action: FailureAction::RestoredCheckpoint,
            },
            Err(err) => return Err(err),
        };
        restores_left = restores_left.checked_sub(1).ok_or_else(|| {
            CheckpointError::Io(
                "restore budget exhausted: session keeps failing after rollback".into(),
            )
        })?;
        let ck = shared.checkpointer.load()?;
        // Only a checkpoint this session (or the run it continues) wrote is
        // a resume point: one from another run's future or past would
        // replay the wrong epochs from its state.
        let (resume, failed) = (ck.next_epoch as usize, died.epoch);
        if !(first_epoch..=failed).contains(&resume) {
            return Err(SessionError::Checkpoint(CheckpointError::Io(format!(
                "the checkpoint resumes at epoch {resume}, outside this session's \
                 epochs {first_epoch}..={failed} (epoch {failed} failed)"
            ))));
        }
        trainer
            .restore_state(&ck.state)
            .map_err(|m| SessionError::Checkpoint(CheckpointError::Corrupt(m)))?;
        report.epochs.truncate(resume - first_epoch);
        timeline.push(died);
        start = resume;
    }
}

/// What every attempt of one session shares: the parts that are pure
/// functions of `(config, trainer)`, built once. Channels, the pool, the
/// [`Supervisor`] and the workers belong to one attempt.
struct Shared<'a> {
    config: &'a SessionConfig,
    dataset: Arc<Dataset>,
    partition: Partition,
    caches: Vec<FeatureCache>,
    counters: Vec<StageCounters>,
    checkpointer: Checkpointer<'a>,
    started: Instant,
}

impl Shared<'_> {
    /// One attempt: `epochs` on a fresh set of workers, into `report`. The
    /// train thread supervises: a poisoned staging channel is a dead lane, a
    /// stall timeout a stalled one. `DropReplica` continues with the
    /// survivors; under `Fail` and `Restore` the lane ends the attempt with
    /// [`SessionError::ReplicaDied`]. `timeline` carries failure events
    /// into the first epoch, and the leftovers back out.
    fn attempt(
        &self,
        report: &mut SessionReport,
        trainer: &mut ConvergenceTrainer,
        mut epochs: Range<usize>,
        timeline: &mut Vec<FailureEvent>,
    ) -> Result<(), SessionError> {
        let config = self.config;
        let replicas = config.replicas;
        let stall_timeout = config.stall_timeout;
        // One partition has nothing remote to prefer: the unbiased sampler
        // draws the same blocks without splitting every neighborhood.
        let locality_aware = config.locality_aware && replicas > 1;

        // Per-lane train lists preserve `dataset.train` order, so a 1-way
        // partition reproduces the sequential batch stream exactly.
        let (config_seed, batch_size) = (trainer.config().seed, trainer.config().batch_size);
        let train = &self.dataset.train;
        // Mutable ownership map over `dataset.train` positions: starts as
        // the hash partition, and DropReplica reassigns a dead replica's
        // slots to the survivors at an epoch boundary.
        let mut owner_of: Vec<usize> = train.iter().map(|&v| self.partition.owner(v)).collect();
        let build_iterators = |owner_of: &[usize]| -> Vec<BatchIterator> {
            (0..replicas)
                .map(|r| {
                    let owned: Vec<VertexId> = train
                        .iter()
                        .zip(owner_of)
                        .filter_map(|(&v, &o)| (o == r).then_some(v))
                        .collect();
                    BatchIterator::new(owned, batch_size, config_seed)
                })
                .collect()
        };
        let mut iterators = build_iterators(&owner_of);

        // The train loop holds `lookahead` steps itself; they count against
        // each lane's staging depth.
        let lookahead = trainer.lookahead();
        let staged_depth = config.pipeline.train_feed_depth(lookahead);
        let job_channels: Vec<Bounded<ReplicaJob>> =
            (0..replicas).map(|_| Bounded::new(1)).collect();
        let staged_channels: Vec<Bounded<StagedBatch>> =
            (0..replicas).map(|_| Bounded::new(staged_depth)).collect();
        // One return pool, sized for every lane at once: a spent bundle
        // serves whichever lane stages next, so a dropped lane's share keeps
        // circulating among the survivors instead of filling up and forcing
        // them to allocate fresh.
        let pool: Bounded<BatchBuffers> = Bounded::new(replicas * pool_capacity(config, lookahead));
        let tasks: Bounded<RefreshTask> = Bounded::new(1);
        let outputs: Bounded<RefreshOutput> = Bounded::new(1);
        let refresh_busy = BusyNs::default();
        let supervisor = Supervisor::new(config.fault_plan.clone(), std::mem::take(timeline));
        let sampler = trainer.sampler().clone();
        let caller_stage = alloc::set_stage(Stage::Train);

        let outcome = std::thread::scope(|scope| {
            // Unblock every worker on unwind or normal exit: waking the
            // job channels ends their loops, waking the staging channels
            // unblocks any worker parked on a full channel, closing the
            // refresh channels ends the refresh worker, and tearing the
            // supervisor down frees workers parked in an injected stall.
            let _teardown = Defer(|| {
                supervisor.tear_down();
                tasks.close();
                outputs.close();
                job_channels.iter().for_each(Bounded::close);
                staged_channels.iter().for_each(Bounded::close);
                pool.close();
            });

            let (supervisor, pool, sampler) = (&supervisor, &pool, &sampler);
            for r in 0..replicas {
                let (jobs, staged_tx) = (&job_channels[r], &staged_channels[r]);
                let seed = lane_seed(config_seed, r);
                scope.spawn(move || {
                    // Poison both endpoints on every exit path so the
                    // supervisor sees a closed channel instead of blocking
                    // forever on a dead lane.
                    let _poison = Defer(|| {
                        staged_tx.close();
                        jobs.close();
                    });
                    let body = AssertUnwindSafe(|| {
                        let inputs = StageInputs {
                            pipeline: &config.pipeline,
                            dataset: &self.dataset,
                            sampler,
                            cache: &self.caches[r],
                            partition: Some((&self.partition.assignment, r as u32)),
                            locality_aware,
                            counters: &self.counters[r],
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
            }
            let (tasks, outputs, refresh_busy) = (&tasks, &outputs, &refresh_busy);
            scope.spawn(move || {
                let _liveness = Defer(|| outputs.close());
                alloc::set_stage(Stage::Refresh);
                let body = AssertUnwindSafe(|| {
                    let mut scratch = SamplerScratch::new();
                    while let Some(task) = tasks.recv() {
                        let t0 = Instant::now();
                        // Sharding is placement-only: `run` concatenates
                        // partition-stable shards in order, so the rows are
                        // the serial rows bit for bit at any thread count.
                        let out = task.run(config.refresh_workers, &mut scratch);
                        refresh_busy.add(t0);
                        if !outputs.send(out) {
                            break;
                        }
                    }
                });
                if let Err(payload) = catch_unwind(body) {
                    // A later submit must not queue behind a dead worker;
                    // the closed output channel (`_liveness`) fails the next
                    // collect.
                    supervisor.record_panic("refresh", payload);
                    tasks.close();
                }
            });
            if report.workers_spawned == 0 {
                report.startup_seconds = self.started.elapsed().as_secs_f64();
            }
            report.workers_spawned += replicas + 1;
            let mut backend = WorkerRefresh {
                tasks,
                outputs,
                wait: Duration::ZERO,
                failed: false,
            };

            let mut batch_rings: Vec<BatchRing> =
                (0..replicas).map(|_| BatchRing::default()).collect();
            let mut alive = vec![true; replicas];
            let outcome = loop {
                let Some(epoch) = epochs.next() else {
                    break Ok(());
                };
                // A lane lost last epoch hands its train vertices to the
                // survivors, round-robin, at this boundary. An epoch that
                // completed kept at least one lane alive.
                if owner_of.iter().any(|&o| !alive[o]) {
                    let survivors: Vec<usize> = (0..replicas).filter(|&r| alive[r]).collect();
                    let orphans = owner_of.iter_mut().filter(|o| !alive[**o]);
                    for (slot, &heir) in orphans.zip(survivors.iter().cycle()) {
                        *slot = heir;
                    }
                    iterators = build_iterators(&owner_of);
                }

                let epoch_wall = Instant::now();
                let alloc_before = alloc::snapshot();
                let refresh_rows_before = trainer.refresh_rows();
                let refresh_busy_before = refresh_busy.seconds();
                let collect_wait_before = backend.wait;
                let baselines: Vec<ReplicaEpochStats> =
                    self.counters.iter().map(|c| c.snapshot()).collect();

                let filled: Vec<Option<Arc<EpochBatches>>> = (0..replicas)
                    .map(|r| {
                        let fill =
                            |ids: &mut EpochBatches| iterators[r].fill_epoch_batches(epoch, ids);
                        alive[r].then(|| batch_rings[r].next(fill))
                    })
                    .collect();
                let lens: Vec<usize> = filled
                    .iter()
                    .map(|b| b.as_ref().map_or(0, |b| b.len()))
                    .collect();
                let steps = filled.iter().flatten().map(|b| b.len()).min().unwrap_or(0);
                for (jobs, batches) in job_channels.iter().zip(filled) {
                    // A worker that died after its last drain shows up as a
                    // closed channel here; the feed below detects it.
                    if let Some(batches) = batches {
                        let limit = steps;
                        let _ = jobs.send(ReplicaJob {
                            epoch,
                            limit,
                            batches,
                        });
                    }
                }
                report.generations += 1;

                let (mut wait, mut cache_hits, mut cache_misses) = (Duration::ZERO, 0u64, 0u64);
                let mut epoch_error = None;
                let train_wall = Instant::now();
                let feed = (0..steps).map_while(|si| {
                    let mut step = Vec::with_capacity(replicas);
                    for (r, cache) in self.caches.iter().enumerate() {
                        if !alive[r] {
                            continue;
                        }
                        let blocked = Instant::now();
                        let got = staged_channels[r].recv_timeout(stall_timeout);
                        wait += blocked.elapsed();
                        let detail = match got {
                            RecvTimeout::Item(staged) => {
                                debug_assert_eq!(staged.index, si);
                                cache_hits += staged.features.num_hits() as u64;
                                cache_misses += staged.features.num_misses() as u64;
                                step.push(staged.into_prepared(cache));
                                continue;
                            }
                            RecvTimeout::TimedOut => format!(
                                "replica {r} stalled: no staged batch within {stall_timeout:?}"
                            ),
                            RecvTimeout::Closed => match supervisor.first_panic() {
                                Some(SessionError::WorkerPanicked { message, .. }) => {
                                    format!("replica {r} worker panicked: {message}")
                                }
                                _ => format!("replica {r} worker exited early"),
                            },
                        };
                        if config.on_replica_failure != FailurePolicy::DropReplica {
                            epoch_error = Some(SessionError::ReplicaDied {
                                replica: r,
                                epoch,
                                step: si,
                                detail,
                            });
                            return None;
                        }
                        alive[r] = false;
                        supervisor.note(FailureEvent {
                            epoch,
                            step: si,
                            replica: r,
                            detail,
                            action: FailureAction::DroppedReplica,
                        });
                    }
                    if step.is_empty() {
                        epoch_error = Some(SessionError::NoSurvivors { epoch });
                        return None;
                    }
                    Some(step)
                });
                let stats = trainer.train_steps_replicated(feed, &mut backend, recycle_into(pool));
                let train_wall = train_wall.elapsed().as_secs_f64();
                let epoch_seconds = epoch_wall.elapsed().as_secs_f64();
                let allocs = alloc::snapshot().since(&alloc_before);

                if let Some(err) = epoch_error {
                    break Err(err);
                }
                // Rows a dead refresh worker never produced must not reach
                // a checkpoint; the exit below reports it.
                if backend.failed {
                    break Ok(());
                }
                // Starvation = blocked on the lanes + blocked on the refresh
                // worker at super-batch boundaries (see `WorkerRefresh::wait`).
                let train_wait = (wait + (backend.wait - collect_wait_before)).as_secs_f64();
                let per_replica: Vec<ReplicaEpochStats> = (0..replicas)
                    .map(|r| {
                        self.counters[r]
                            .snapshot()
                            .since(&baselines[r], steps, lens[r])
                    })
                    .collect();

                let remote_feature_bytes: u64 =
                    per_replica.iter().map(|s| s.remote_feature_bytes).sum();
                let h2d_bytes: u64 = per_replica.iter().map(|s| s.h2d_bytes).sum();
                let model_bytes = report.model_bytes;
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

                let pipeline_report = PipelineReport {
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
                    report: pipeline_report,
                    per_replica,
                    steps,
                    allreduce_bytes,
                    remote_feature_bytes,
                    interconnect_seconds,
                    refresh_cpu_fraction: trainer.refresh_cpu_fraction(),
                    refresh_seconds: refresh_busy.seconds() - refresh_busy_before,
                    refresh_rows: trainer.refresh_rows() - refresh_rows_before,
                    eval_seconds,
                    cache_vertices: self.caches.iter().map(|c| c.len()).sum(),
                    allocs,
                    checkpoint_bytes: 0,
                    checkpoint_seconds: 0.0,
                };
                if let Err(err) = self
                    .checkpointer
                    .at_boundary(trainer, &mut backend, &mut run)
                {
                    break Err(err);
                }
                report.epochs.push(run);
            };
            // Every exit collects the refresh still on the worker, before
            // teardown closes its channels: the trainer outlives this
            // attempt (the rows publish at a later boundary) and holds no
            // task a later backend was never given.
            trainer.settle_refresh(&mut backend);
            match outcome {
                // The collect that found the refresh worker dead left the
                // trainer short of its rows: the attempt fails with the
                // worker's recorded panic (or a placeholder).
                Ok(()) if backend.failed => {
                    Err(supervisor
                        .first_panic()
                        .unwrap_or_else(|| SessionError::WorkerPanicked {
                            stage: "refresh",
                            message: "refresh worker died with a collect outstanding".into(),
                        }))
                }
                outcome => outcome,
            }
        });
        alloc::set_stage(caller_stage);
        *timeline = supervisor.take_timeline();
        outcome
    }
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
