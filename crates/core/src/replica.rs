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
//!   batch order, the attempt's epochs back to back: at most one channel
//!   depth ahead of the train thread, each batch carrying its own staging
//!   stats into the epoch it belongs to. Spent buffer bundles return
//!   through one pool all lanes share, so warm epochs allocate (near)
//!   nothing on the staging path (`tests/alloc_budget.rs`).
//! - **One cache rule.** Lane r caches its owned vertices in descending
//!   presample order ([`ConvergenceTrainer::presample_order`]) until
//!   [`SessionConfig::gpu_free_bytes`] is spent: the hot set first, then
//!   the next-hottest cold vertices ("increase the feature cache ratio"
//!   when GPU memory allows, §5.2 — the simulator's rule too). Built once
//!   at session start and in force from epoch 0.
//! - **Pipelined, demand-driven refresh (Fig 8, §4.2).** The train loop
//!   keeps `2n−1` staged steps in hand
//!   ([`ConvergenceTrainer::lookahead`]; they count against the staging
//!   depth), so at each super-batch boundary it already holds the next
//!   super-batch. The refresh of the hot rows those batches read goes to
//!   the session's background refresh worker and is collected one boundary
//!   later (`WorkerRefresh`); the priming boundary of a fresh trainer
//!   collects at once. The refresh still on the worker is settled at
//!   every exit of an attempt, failed ones included.
//! - **Every recovery is a replay.** A session runs as *attempts*: one
//!   attempt spawns a fixed set of lanes and the refresh worker and runs
//!   epochs until the session's end or its first lost lane, which ends it
//!   with [`SessionError::ReplicaDied`]. The next attempt starts on fresh
//!   workers and channels, through the same start-up as any session:
//!   [`FailurePolicy::Restore`] reloads the last checkpoint and resumes at
//!   its epoch; [`FailurePolicy::DropReplica`] restores the failed epoch's
//!   start state (captured at every epoch start under that policy only)
//!   and replays the epoch without the lost lane — left with lane 0 alone,
//!   that is an R = 1 session, bit for bit. A boundary's pending refresh
//!   and the model version move together through either replay, which
//!   keeps the staleness bound.
//! - **One step per lane.** The train stage consumes one staged batch from
//!   every lane of the attempt per step, computes per-lane gradients at
//!   the same parameter version, tree-averages them
//!   ([`neutron_nn::tree_average`] — an order-independent reduction), and
//!   applies one shared optimizer step
//!   (`ConvergenceTrainer::train_steps_replicated`).
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
//!   the train stage consumes lanes in ascending replica order, so repeated
//!   runs reproduce losses *and* byte series exactly — replays included.
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
use crate::pipeline::{stage_batch, PipelineReport, StageInputs};
use crate::pool::BatchBuffers;
use crate::refresh::{CpuPart, RefreshBackend, RefreshOutput, RefreshTask};
use crate::session::{
    recycle_into, Checkpointer, EpochRun, ReplicaEpochStats, Session, SessionConfig, SessionError,
    SessionReport, Supervisor,
};
use crate::trainer::{batch_sample_seed, ConvergenceTrainer, TrainerState};

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
            Some(task) => CpuPart::Ready(task.run(&mut SamplerScratch::new())),
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
/// count — as one or more attempts ([`Shared::attempt`]). A lost lane ends
/// an attempt with [`SessionError::ReplicaDied`]; the policy decides where
/// the next one starts (module docs), and `Fail` returns the error.
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
        startup_seconds: 0.0,
        partition_cut_fraction: partition_stats.cut_fraction(),
        partition_balance: partition_stats.balance(),
    };
    let end = first_epoch + num_epochs;
    let (mut start, mut lanes) = (first_epoch, (0..replicas).collect::<Vec<_>>());
    let (mut timeline, mut epoch_start) = (Vec::new(), None);
    // Backstop against a restore loop on a persistently failing setup;
    // injected faults are one-shot, so this only trips on a genuinely
    // unrecoverable session. `DropReplica` needs none: it runs out of lanes.
    let mut restores_left = 4usize;
    loop {
        let Err(err) = shared.attempt(
            &mut report,
            trainer,
            &lanes,
            start..end,
            &mut timeline,
            &mut epoch_start,
        ) else {
            return Ok(report);
        };
        let SessionError::ReplicaDied {
            replica,
            epoch,
            step,
            ref detail,
        } = err
        else {
            return Err(err);
        };
        // Where the next attempt starts, and from what state.
        let (state, resume, action) = match config.on_replica_failure {
            FailurePolicy::DropReplica => {
                lanes.retain(|&lane| lane != replica);
                let Some(state) = epoch_start.take().filter(|_| !lanes.is_empty()) else {
                    return Err(err);
                };
                (state, epoch, FailureAction::DroppedReplica)
            }
            FailurePolicy::Restore if restores_left > 0 => {
                restores_left -= 1;
                let ck = shared.checkpointer.load()?;
                // Only a checkpoint this session (or the run it continues)
                // wrote is a resume point: one from another run's future or
                // past would replay the wrong epochs from its state.
                let resume = ck.next_epoch as usize;
                if !(first_epoch..=epoch).contains(&resume) {
                    return Err(SessionError::Checkpoint(CheckpointError::Io(format!(
                        "the checkpoint resumes at epoch {resume}, outside this session's \
                         epochs {first_epoch}..={epoch} (epoch {epoch} failed)"
                    ))));
                }
                (ck.state, resume, FailureAction::RestoredCheckpoint)
            }
            // `Fail`, or a `Restore` out of budget.
            _ => return Err(err),
        };
        trainer
            .restore_state(&state)
            .map_err(|m| SessionError::Checkpoint(CheckpointError::Corrupt(m)))?;
        report.epochs.truncate(resume - first_epoch);
        timeline.push(FailureEvent {
            epoch,
            step,
            replica,
            detail: detail.clone(),
            action,
        });
        start = resume;
    }
}

/// What every attempt of one session shares: the parts that are pure
/// functions of `(config, trainer)`, built once and indexed by replica id.
/// The lane set, channels, the pool, the [`Supervisor`] and the workers
/// belong to one attempt.
struct Shared<'a> {
    config: &'a SessionConfig,
    dataset: Arc<Dataset>,
    partition: Partition,
    caches: Vec<FeatureCache>,
    checkpointer: Checkpointer<'a>,
    started: Instant,
}

impl Shared<'_> {
    /// One attempt: `epochs` on one worker per lane of `lanes` (replica ids,
    /// ascending) — a lane set fixed for the attempt's whole life — into
    /// `report`. The train thread supervises: a poisoned staging channel is
    /// a dead lane, a stall timeout a stalled one, and either ends the
    /// attempt with [`SessionError::ReplicaDied`]. `timeline` carries
    /// failure events into the first epoch, and the leftovers back out;
    /// under `DropReplica` `epoch_start` receives each epoch's start state,
    /// the point a replay without the lost lane resumes from.
    fn attempt(
        &self,
        report: &mut SessionReport,
        trainer: &mut ConvergenceTrainer,
        lanes: &[usize],
        mut epochs: Range<usize>,
        timeline: &mut Vec<FailureEvent>,
        epoch_start: &mut Option<TrainerState>,
    ) -> Result<(), SessionError> {
        let config = self.config;
        let stall_timeout = config.stall_timeout;
        // One partition has nothing remote to prefer: the unbiased sampler
        // draws the same blocks without splitting every neighborhood.
        let locality_aware = config.locality_aware && lanes.len() > 1;

        // The owner of every `dataset.train` position: the hash partition,
        // with the slots of replicas outside this attempt dealt round-robin
        // to its lanes. Per-lane train lists preserve `dataset.train` order,
        // so a one-lane attempt reproduces the sequential batch stream.
        let train = &self.dataset.train;
        let mut owner_of: Vec<usize> = train.iter().map(|&v| self.partition.owner(v)).collect();
        let orphans = owner_of.iter_mut().filter(|o| !lanes.contains(o));
        for (slot, &heir) in orphans.zip(lanes.iter().cycle()) {
            *slot = heir;
        }
        let (config_seed, batch_size) = (trainer.config().seed, trainer.config().batch_size);
        let iterators: Vec<BatchIterator> = lanes
            .iter()
            .map(|&r| {
                let owned = train.iter().zip(&owner_of);
                let owned = owned.filter_map(|(&v, &o)| (o == r).then_some(v));
                BatchIterator::new(owned.collect(), batch_size, config_seed)
            })
            .collect();
        // The steps every lane can fill an epoch: no lane stages a tail
        // batch the others cannot match.
        let per_lane = iterators.iter().map(BatchIterator::batches_per_epoch);
        let steps = per_lane.min().unwrap_or(0);

        // The train loop holds `lookahead` steps itself; they count against
        // each lane's staging depth.
        let lookahead = trainer.lookahead();
        let staged_depth = config.pipeline.train_feed_depth(lookahead);
        // Each staged batch travels with its own stats; the channel bound is
        // all that holds a lane back, across epoch ends too.
        let staged_channels: Vec<Bounded<(StagedBatch, ReplicaEpochStats)>> =
            lanes.iter().map(|_| Bounded::new(staged_depth)).collect();
        // One return pool, sized for every lane at once: a spent bundle
        // serves whichever lane stages next.
        let pool: Bounded<BatchBuffers> =
            Bounded::new(lanes.len() * pool_capacity(config, lookahead));
        let tasks: Bounded<RefreshTask> = Bounded::new(1);
        let outputs: Bounded<RefreshOutput> = Bounded::new(1);
        let refresh_busy = BusyNs::default();
        let supervisor = Supervisor::new(config.fault_plan.clone(), std::mem::take(timeline));
        let sampler = trainer.sampler().clone();
        let caller_stage = alloc::set_stage(Stage::Train);

        let outcome = std::thread::scope(|scope| {
            // Unblock every worker on unwind or normal exit: closing the
            // staging channels unblocks any lane parked on a full one,
            // closing the refresh channels ends the refresh worker, and
            // tearing the supervisor down frees workers parked in an
            // injected stall.
            let _teardown = Defer(|| {
                supervisor.tear_down();
                tasks.close();
                outputs.close();
                staged_channels.iter().for_each(Bounded::close);
                pool.close();
            });

            let (supervisor, pool, sampler) = (&supervisor, &pool, &sampler);
            for (lane, &r) in lanes.iter().enumerate() {
                let (staged_tx, iterator) = (&staged_channels[lane], &iterators[lane]);
                let (seed, lane_epochs) = (lane_seed(config_seed, r), epochs.clone());
                scope.spawn(move || {
                    // Close the staging channel on every exit path so the
                    // supervisor sees a closed channel instead of blocking
                    // forever on a dead lane.
                    let _poison = Defer(|| staged_tx.close());
                    let body = AssertUnwindSafe(|| {
                        let inputs = StageInputs {
                            pipeline: &config.pipeline,
                            dataset: &self.dataset,
                            sampler,
                            cache: &self.caches[r],
                            partition: Some((&self.partition.assignment, r as u32)),
                            locality_aware,
                        };
                        let mut builder = BlockBuilder::default();
                        let mut batches = EpochBatches::default();
                        for epoch in lane_epochs {
                            iterator.fill_epoch_batches(epoch, &mut batches);
                            for i in 0..steps {
                                if supervisor.fault_hook("replica", r, epoch, i).is_break() {
                                    return;
                                }
                                let bufs = pool.try_recv().unwrap_or_default();
                                let staged = stage_batch(
                                    &inputs,
                                    i,
                                    batches.batch(i),
                                    batch_sample_seed(seed, epoch, i),
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
                        let out = task.run(&mut scratch);
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
            report.workers_spawned += lanes.len() + 1;
            let mut backend = WorkerRefresh {
                tasks,
                outputs,
                wait: Duration::ZERO,
                failed: false,
            };

            let outcome = loop {
                let Some(epoch) = epochs.next() else {
                    break Ok(());
                };
                // Taken before the epoch's wall-clock and alloc windows
                // open, so the capture never shows in either.
                if config.on_replica_failure == FailurePolicy::DropReplica {
                    *epoch_start = Some(trainer.capture_state(&mut backend));
                }

                let epoch_wall = Instant::now();
                let alloc_before = alloc::snapshot();
                let refresh_rows_before = trainer.refresh_rows();
                let refresh_busy_before = refresh_busy.seconds();
                let collect_wait_before = backend.wait;

                let (mut wait, mut cache_hits, mut cache_misses) = (Duration::ZERO, 0u64, 0u64);
                let mut per_replica = vec![ReplicaEpochStats::default(); config.replicas];
                let mut epoch_error = None;
                let train_wall = Instant::now();
                let feed = (0..steps).map_while(|si| {
                    let mut step = Vec::with_capacity(lanes.len());
                    for (&r, staged_rx) in lanes.iter().zip(&staged_channels) {
                        let blocked = Instant::now();
                        let got = staged_rx.recv_timeout(stall_timeout);
                        wait += blocked.elapsed();
                        let detail = match got {
                            RecvTimeout::Item((staged, stats)) => {
                                debug_assert_eq!(staged.index, si);
                                per_replica[r].add(&stats);
                                cache_hits += staged.features.num_hits() as u64;
                                cache_misses += staged.features.num_misses() as u64;
                                step.push(staged.into_prepared(&self.caches[r]));
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
                        epoch_error = Some(SessionError::ReplicaDied {
                            replica: r,
                            epoch,
                            step: si,
                            detail,
                        });
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

                let remote_feature_bytes: u64 =
                    per_replica.iter().map(|s| s.remote_feature_bytes).sum();
                let h2d_bytes: u64 = per_replica.iter().map(|s| s.h2d_bytes).sum();
                let (model_bytes, group) = (report.model_bytes, lanes.len());
                let allreduce_bytes = steps as u64 * 2 * (group as u64 - 1) * model_bytes;
                let link = &config.interconnect;
                let mut interconnect_seconds =
                    steps as f64 * link.allreduce_seconds(model_bytes, group);
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
                    failures: supervisor.take_timeline(epoch),
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
                    cache_vertices: lanes.iter().map(|&r| self.caches[r].len()).sum(),
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
        *timeline = supervisor.take_timeline(usize::MAX);
        outcome
    }
}

/// Builds lane `r`'s feature cache — the session's one cache rule: its
/// owned vertices in descending presample order, hot then cold, until the
/// per-lane byte budget ([`SessionConfig::gpu_free_bytes`]) is spent
/// (§5.2; the simulator's cold-feature cache follows the same rule). Empty
/// when the trainer's policy has no presample ranking.
fn replica_cache(
    config: &SessionConfig,
    trainer: &ConvergenceTrainer,
    dataset: &Dataset,
    partition: &Partition,
    r: usize,
) -> FeatureCache {
    let Some(order) = trainer.presample_order() else {
        return FeatureCache::empty();
    };
    let row_bytes = dataset.spec.feature_row_bytes().max(1);
    let budget_rows = (config.gpu_free_bytes / row_bytes) as usize;
    let owned: Vec<VertexId> = order
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
