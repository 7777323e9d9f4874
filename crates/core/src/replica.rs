//! Multi-replica data-parallel training over a partitioned graph.
//!
//! [`ReplicatedEngine`] runs **R model replicas** of the staged
//! sample→gather→transfer→train pipeline, one per graph partition
//! ([`neutron_graph::partition::hash_partition`]). Each replica owns the
//! training vertices its partition assigns to it and prepares its own
//! batches on a dedicated worker thread with **per-replica** staging pools
//! and a **per-replica** [`FeatureCache`] snapshot of its hottest *owned*
//! vertices. The shared train stage consumes one staged batch from every
//! replica per step, computes per-replica gradients at the same parameter
//! version, tree-averages them ([`neutron_nn::tree_average`] — an
//! order-independent reduction), and applies one shared optimizer step
//! (`ConvergenceTrainer::train_steps_replicated`).
//!
//! Determinism contract:
//!
//! - **R=1 is bit-identical to the single-replica engine.** A 1-way
//!   partition owns every vertex, so replica 0's train list is
//!   `dataset.train` in its original order, the epoch shuffle and the
//!   per-batch [`batch_sample_seed`] stream are unchanged, the
//!   locality-biased sampler degenerates to the unbiased one (every
//!   neighbor is local), and the one-replica step path inside
//!   `train_steps_replicated` is literally `train_prepared` — no gradient
//!   clone, no averaging, no extra float ops.
//! - **Any R is deterministic.** The partition is a pure function of
//!   `(num_vertices, R)`, each replica's batch order is a pure function of
//!   `(seed, epoch)`, each replica's staging channel is single-producer
//!   in-order, and the train stage consumes replicas in fixed `0..R`
//!   order, so repeated runs reproduce losses *and* byte series exactly.
//!
//! Replicas also meter a simulated **interconnect** distinct from the
//! PCIe H2D path ([`InterconnectSpec`]): remote (non-owned) feature rows
//! pulled per batch and ring all-reduce gradient bytes per step become
//! first-class per-epoch series in the session report.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use neutron_cache::FeatureCache;
use neutron_graph::partition::{hash_partition, Partition};
use neutron_graph::{Dataset, VertexId};
use neutron_hetero::InterconnectSpec;
use neutron_sample::{BatchIterator, BlockBuilder, EpochBatches, LocalityCounts};
use neutron_tensor::alloc::{self, AllocSnapshot, Stage};

use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::engine::{
    panic_message, transfer_stage, Bounded, BusyNs, Defer, FailureCell, RecvTimeout, SessionError,
};
use crate::fault::{FailureAction, FailureEvent, FailurePolicy, FaultKind, FaultPlan};
use crate::gather::{GatheredFeatures, StagedBatch};
use crate::pipeline::{PipelineConfig, PipelineReport};
use crate::pool::BatchBuffers;
use crate::refresh::InlineRefresh;
use crate::trainer::{batch_sample_seed, ConvergenceTrainer, EpochObservation, PreparedBatch};

/// Configuration of a replicated session.
#[derive(Clone, Debug)]
pub struct ReplicatedConfig {
    /// Staging shape shared by every replica worker. Only `channel_depth`
    /// (per-replica staging depth) and `h2d_gibps` (simulated PCIe stall)
    /// are consulted: each replica runs one fused
    /// sample→gather→transfer worker, so the engine's separate
    /// sampler/gather thread counts do not apply.
    pub pipeline: PipelineConfig,
    /// Number of model replicas / graph partitions (R ≥ 1).
    pub replicas: usize,
    /// Prefer partition-local neighbors while sampling. The biased picker
    /// is bit-identical to the unbiased one when every neighbor is local,
    /// so this flag is inert at R=1; at R>1 it trades neighborhood
    /// diversity for fewer remote feature pulls. `false` is the
    /// locality-blind ablation.
    pub locality_aware: bool,
    /// Per-replica feature-cache budget in bytes (each replica snapshots
    /// its hottest *owned* vertices into its own cache).
    pub gpu_free_bytes: u64,
    /// Simulated replica-to-replica fabric used to price remote feature
    /// pulls and gradient all-reduces. Distinct from the PCIe H2D model.
    pub interconnect: InterconnectSpec,
    /// Per-replica recycled staging-buffer pool size; 0 = auto (see
    /// [`Self::effective_pool_batches`]).
    pub pool_batches: usize,
    /// Write a checkpoint after every epoch whose number + 1 is a multiple
    /// of this (0 disables). Same absolute-epoch cadence as the
    /// single-replica engine, so restored sessions keep the schedule.
    pub checkpoint_every: usize,
    /// Checkpoint file location; required (together with a nonzero
    /// [`Self::checkpoint_every`]) for checkpoints to be written and for
    /// the [`FailurePolicy::Restore`] policy to have something to load.
    pub checkpoint_path: Option<PathBuf>,
    /// Deterministic fault schedule consulted by the replica workers.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// How long the supervisor waits on a replica's staging channel before
    /// declaring the replica stalled.
    pub stall_timeout: Duration,
    /// What the supervisor does when a replica dies or stalls mid-epoch.
    pub on_replica_failure: FailurePolicy,
}

impl Default for ReplicatedConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            replicas: 1,
            locality_aware: true,
            gpu_free_bytes: 64 << 20,
            interconnect: InterconnectSpec::nvlink_like(),
            pool_batches: 0,
            checkpoint_every: 0,
            checkpoint_path: None,
            fault_plan: None,
            stall_timeout: Duration::from_secs(5),
            on_replica_failure: FailurePolicy::Fail,
        }
    }
}

impl ReplicatedConfig {
    /// Per-replica staging pool capacity: explicit, or enough for the
    /// staging channel, the train loop's `lookahead` window (counted
    /// against the channel, [`PipelineConfig::train_feed_depth`]), and
    /// in-flight and recycling slack.
    pub fn effective_pool_batches(&self, lookahead: usize) -> usize {
        match self.pool_batches {
            0 => {
                let staged = self.pipeline.train_feed_depth(lookahead);
                self.pipeline.channel_depth + staged + lookahead + 4
            }
            n => n,
        }
    }
}

/// One epoch's measurements for a single replica.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaEpochStats {
    /// Busy seconds of this replica's sampling phase.
    pub sample_seconds: f64,
    /// Busy seconds of this replica's gather phase.
    pub gather_seconds: f64,
    /// Busy seconds of this replica's transfer phase (incl. simulated
    /// PCIe stall).
    pub transfer_seconds: f64,
    /// Host→device bytes this replica staged this epoch.
    pub h2d_bytes: u64,
    /// Feature bytes this replica pulled for source vertices its
    /// partition does not own — the interconnect (not PCIe) traffic.
    pub remote_feature_bytes: u64,
    /// Neighbor picks that landed on partition-local vertices.
    pub local_picks: u64,
    /// Neighbor picks that landed on remote vertices.
    pub remote_picks: u64,
    /// Batches this replica contributed to the epoch's steps.
    pub batches: usize,
    /// Tail batches dropped because another replica had fewer.
    pub dropped_batches: usize,
}

/// One epoch of a replicated session.
#[derive(Clone, Debug)]
pub struct ReplicatedEpochRun {
    /// Epoch index.
    pub epoch: usize,
    /// Loss / accuracy / staleness observation.
    pub observation: EpochObservation,
    /// Stage timing aggregated across replicas. `num_batches` counts
    /// optimizer *steps* (each consuming R replica batches), so the R=1
    /// series lines up with the single-replica engine's.
    pub report: PipelineReport,
    /// Per-replica breakdown, indexed by replica id.
    pub per_replica: Vec<ReplicaEpochStats>,
    /// Optimizer steps this epoch (min batch count across replicas).
    pub steps: usize,
    /// Total ring all-reduce wire bytes across all replicas this epoch:
    /// `steps × 2(R−1) × model_bytes`; zero at R=1.
    pub allreduce_bytes: u64,
    /// Remote feature bytes summed across replicas.
    pub remote_feature_bytes: u64,
    /// Simulated seconds the interconnect model prices this epoch's
    /// all-reduces and remote pulls at (closed-form, not slept).
    pub interconnect_seconds: f64,
    /// Allocation window covering the epoch's staging + training (eval
    /// excluded), attributed by stage.
    pub allocs: AllocSnapshot,
    /// Hot rows put on refresh worklists during this epoch (the union over
    /// the replicas' batches of the next super-batch, or the whole hot set
    /// at the epoch's last boundary and at priming).
    pub refresh_rows: u64,
    /// Seconds spent in test-set evaluation (outside `report` timings).
    pub eval_seconds: f64,
    /// Bytes of the checkpoint written at this epoch's boundary (0 when
    /// none was due).
    pub checkpoint_bytes: u64,
    /// Wall-clock spent writing that checkpoint, outside the epoch's timed
    /// window.
    pub checkpoint_seconds: f64,
}

/// A replicated session: per-epoch runs plus session-constant facts.
#[derive(Clone, Debug)]
pub struct ReplicatedSessionReport {
    /// Per-epoch measurements, in epoch order.
    pub epochs: Vec<ReplicatedEpochRun>,
    /// Number of replicas the session ran.
    pub replicas: usize,
    /// Model parameter bytes (the all-reduce payload per step).
    pub model_bytes: u64,
    /// Replica worker threads spawned.
    pub workers_spawned: usize,
    /// Edge-cut fraction of the hash partition the session used.
    pub partition_cut_fraction: f64,
    /// Size balance (max/ideal) of the partition.
    pub partition_balance: f64,
}

impl ReplicatedSessionReport {
    /// Per-epoch mean train loss, in epoch order.
    pub fn loss_trajectory(&self) -> Vec<f32> {
        self.epochs
            .iter()
            .map(|e| e.observation.train_loss)
            .collect()
    }

    /// Per-epoch remote feature bytes, in epoch order.
    pub fn remote_bytes_trajectory(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.remote_feature_bytes).collect()
    }

    /// Per-epoch all-reduce wire bytes, in epoch order.
    pub fn allreduce_bytes_trajectory(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.allreduce_bytes).collect()
    }
}

/// One epoch's worth of work for a replica worker.
struct ReplicaJob {
    epoch: usize,
    /// Batches to stage this epoch (the global step count — the worker
    /// never produces tail batches other replicas cannot match).
    limit: usize,
    batches: Arc<EpochBatches>,
    cache: Arc<FeatureCache>,
}

/// Per-replica counters the worker publishes and the train thread reads
/// at epoch boundaries. Updates land before the batch they describe is
/// sent, so draining the staging channel synchronizes the reads.
#[derive(Default)]
struct ReplicaCounters {
    h2d_bytes: AtomicU64,
    remote_feature_bytes: AtomicU64,
    local_picks: AtomicU64,
    remote_picks: AtomicU64,
    sample_busy: BusyNs,
    gather_busy: BusyNs,
    transfer_busy: BusyNs,
}

/// Snapshot of the monotone per-replica counters, for per-epoch deltas.
#[derive(Clone, Copy, Default)]
struct CounterBaseline {
    h2d_bytes: u64,
    remote_feature_bytes: u64,
    local_picks: u64,
    remote_picks: u64,
    sample_seconds: f64,
    gather_seconds: f64,
    transfer_seconds: f64,
}

impl ReplicaCounters {
    fn baseline(&self) -> CounterBaseline {
        CounterBaseline {
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            remote_feature_bytes: self.remote_feature_bytes.load(Ordering::Relaxed),
            local_picks: self.local_picks.load(Ordering::Relaxed),
            remote_picks: self.remote_picks.load(Ordering::Relaxed),
            sample_seconds: self.sample_busy.seconds(),
            gather_seconds: self.gather_busy.seconds(),
            transfer_seconds: self.transfer_busy.seconds(),
        }
    }
}

/// Data-parallel driver over R partition-owning replicas.
pub struct ReplicatedEngine {
    config: ReplicatedConfig,
}

impl ReplicatedEngine {
    /// Builds a driver; panics on a zero-replica config.
    pub fn new(config: ReplicatedConfig) -> Self {
        assert!(config.replicas >= 1, "need at least one replica");
        assert!(
            config.pipeline.channel_depth >= 1,
            "staging needs a channel depth of at least 1"
        );
        Self { config }
    }

    /// The configuration the driver runs with.
    pub fn config(&self) -> &ReplicatedConfig {
        &self.config
    }

    /// Runs `num_epochs` epochs starting at `first_epoch`, mutating
    /// `trainer` exactly as `train_steps_replicated` dictates. Panics on a
    /// session failure; see [`Self::run_session_checked`] for the typed
    /// error surface.
    pub fn run_session(
        &self,
        trainer: &mut ConvergenceTrainer,
        first_epoch: usize,
        num_epochs: usize,
    ) -> ReplicatedSessionReport {
        self.run_session_checked(trainer, first_epoch, num_epochs)
            .unwrap_or_else(|e| panic!("replicated session failed: {e}"))
    }

    /// [`Self::run_session`] with the failure surface exposed: replica
    /// deaths, stalls, and checkpoint problems come back as
    /// [`SessionError`] instead of panics. The supervisor (this thread)
    /// detects a dead replica by its poisoned staging channel and a
    /// stalled one by [`ReplicatedConfig::stall_timeout`], then applies
    /// [`ReplicatedConfig::on_replica_failure`]:
    ///
    /// * `Fail` — tear down and return [`SessionError::ReplicaDied`].
    /// * `DropReplica` — finish the epoch with the survivors (the tree
    ///   average already rescales by group size) and redistribute the dead
    ///   replica's train vertices round-robin over the survivors at the
    ///   next epoch boundary.
    /// * `Restore` — drain the survivors, roll the trainer back to the
    ///   last checkpoint, respawn a replacement worker on fresh channels,
    ///   and resume from the checkpointed epoch.
    pub fn run_session_checked(
        &self,
        trainer: &mut ConvergenceTrainer,
        first_epoch: usize,
        num_epochs: usize,
    ) -> Result<ReplicatedSessionReport, SessionError> {
        let replicas = self.config.replicas;
        let dataset = trainer.dataset_handle();
        let partition = Arc::new(hash_partition(dataset.csr.num_vertices(), replicas));
        let partition_stats = partition.stats(&dataset.csr);
        let model_bytes = trainer.model_bytes();

        // Per-replica train lists preserve `dataset.train` order, so a
        // 1-way partition reproduces the single-replica batch stream
        // exactly.
        let config_seed = trainer.config().seed;
        let batch_size = trainer.config().batch_size;
        let replica_seeds: Vec<u64> = (0..replicas)
            .map(|r| config_seed ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();

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
            .map(|r| Arc::new(self.replica_cache(trainer, &dataset, &partition, r)))
            .collect();

        let counters: Vec<Arc<ReplicaCounters>> = (0..replicas)
            .map(|_| Arc::new(ReplicaCounters::default()))
            .collect();
        // The train loop holds `lookahead` steps itself; they count against
        // each replica's staging depth.
        let lookahead = trainer.lookahead();
        let staged_depth = self.config.pipeline.train_feed_depth(lookahead);
        let job_channels: RefCell<Vec<Arc<Bounded<ReplicaJob>>>> =
            RefCell::new((0..replicas).map(|_| Arc::new(Bounded::new(1))).collect());
        let staged_channels: RefCell<Vec<Arc<Bounded<StagedBatch>>>> = RefCell::new(
            (0..replicas)
                .map(|_| Arc::new(Bounded::new(staged_depth)))
                .collect(),
        );
        let pools: Vec<Arc<Bounded<BatchBuffers>>> = (0..replicas)
            .map(|_| Arc::new(Bounded::new(self.config.effective_pool_batches(lookahead))))
            .collect();

        let failures = FailureCell::default();
        let timeline: Mutex<Vec<FailureEvent>> = Mutex::new(Vec::new());
        let stall_release = AtomicBool::new(false);
        let fault_plan = self.config.fault_plan.clone();
        let sampler0 = trainer.sampler().clone();
        let policy = self.config.on_replica_failure;
        let stall_timeout = self.config.stall_timeout;
        let digest = checkpoint::config_digest(trainer.config(), replicas);
        let checkpoint_on =
            self.config.checkpoint_every > 0 && self.config.checkpoint_path.is_some();

        let mut epochs = Vec::with_capacity(num_epochs);
        let mut workers_spawned = 0usize;
        let caller_stage = alloc::set_stage(Stage::Train);

        let outcome: Result<(), SessionError> = std::thread::scope(|scope| {
            // Unblock every worker on unwind or normal exit: waking the
            // job channels ends their loops, waking the staging channels
            // unblocks any worker parked on a full channel, and the stall
            // release flag frees workers parked in an injected stall.
            let _teardown = Defer(|| {
                stall_release.store(true, Ordering::Release);
                for ch in job_channels.borrow().iter() {
                    ch.close();
                }
                for ch in staged_channels.borrow().iter() {
                    ch.close();
                }
                for pool in &pools {
                    pool.close();
                }
            });

            let spawn_worker =
                |r: usize, jobs: Arc<Bounded<ReplicaJob>>, staged_tx: Arc<Bounded<StagedBatch>>| {
                    let pool = Arc::clone(&pools[r]);
                    let counters = Arc::clone(&counters[r]);
                    let partition = Arc::clone(&partition);
                    let dataset = Arc::clone(&dataset);
                    let sampler = sampler0.clone();
                    let pipeline_cfg = self.config.pipeline.clone();
                    let locality_aware = self.config.locality_aware;
                    let replica_seed = replica_seeds[r];
                    let feature_row_bytes = dataset.spec.feature_row_bytes();
                    let fault_plan = fault_plan.clone();
                    let failures = &failures;
                    let timeline = &timeline;
                    let stall_release = &stall_release;
                    scope.spawn(move || {
                        // Poison both endpoints on every exit path so the
                        // supervisor sees a closed channel instead of
                        // blocking forever on a dead replica.
                        let _poison = Defer(|| {
                            staged_tx.close();
                            jobs.close();
                        });
                        let body = AssertUnwindSafe(|| {
                            let mut builder = BlockBuilder::default();
                            while let Some(job) = jobs.recv() {
                                for i in 0..job.limit {
                                    if let Some(plan) = fault_plan.as_deref() {
                                        if plan.take_crash(r, job.epoch, i) {
                                            timeline.lock().unwrap().push(FailureEvent {
                                                epoch: job.epoch,
                                                step: i,
                                                replica: r,
                                                detail: "injected crash: worker exiting cleanly"
                                                    .into(),
                                                action: FailureAction::Observed,
                                            });
                                            return;
                                        }
                                        match plan.take(r, job.epoch, i) {
                                            None => {}
                                            Some(FaultKind::Crash) => unreachable!(),
                                            Some(FaultKind::Panic) => {
                                                timeline.lock().unwrap().push(FailureEvent {
                                                    epoch: job.epoch,
                                                    step: i,
                                                    replica: r,
                                                    detail: "injected panic".into(),
                                                    action: FailureAction::Observed,
                                                });
                                                panic!(
                                                    "injected fault: replica {r} panicked at \
                                                     epoch {} step {i}",
                                                    job.epoch
                                                );
                                            }
                                            Some(FaultKind::Stall) => {
                                                timeline.lock().unwrap().push(FailureEvent {
                                                    epoch: job.epoch,
                                                    step: i,
                                                    replica: r,
                                                    detail: "injected stall".into(),
                                                    action: FailureAction::Observed,
                                                });
                                                while !stall_release.load(Ordering::Acquire) {
                                                    std::thread::sleep(Duration::from_millis(1));
                                                }
                                                return;
                                            }
                                            Some(FaultKind::Straggler) => {
                                                timeline.lock().unwrap().push(FailureEvent {
                                                    epoch: job.epoch,
                                                    step: i,
                                                    replica: r,
                                                    detail: "injected straggler delay".into(),
                                                    action: FailureAction::Observed,
                                                });
                                                std::thread::sleep(Duration::from_millis(25));
                                            }
                                        }
                                    }
                                    let t_sample = Instant::now();
                                    let stage_before = alloc::set_stage(Stage::Sample);
                                    let mut bufs = pool.try_recv().unwrap_or_default();
                                    bufs.donate_to(&mut builder);
                                    let seed = batch_sample_seed(replica_seed, job.epoch, i);
                                    let mut picks = LocalityCounts::default();
                                    let blocks = if locality_aware {
                                        sampler.sample_batch_pooled_biased(
                                            &dataset.csr,
                                            job.batches.batch(i),
                                            seed,
                                            &mut builder,
                                            &partition.assignment,
                                            r as u32,
                                            &mut picks,
                                        )
                                    } else {
                                        sampler.sample_batch_pooled(
                                            &dataset.csr,
                                            job.batches.batch(i),
                                            seed,
                                            &mut builder,
                                        )
                                    };
                                    let remote_rows = blocks[0]
                                        .src()
                                        .iter()
                                        .filter(|&&v| partition.assignment[v as usize] != r as u32)
                                        .count()
                                        as u64;
                                    counters.remote_feature_bytes.fetch_add(
                                        remote_rows * feature_row_bytes,
                                        Ordering::Relaxed,
                                    );
                                    counters
                                        .local_picks
                                        .fetch_add(picks.local_picks, Ordering::Relaxed);
                                    counters
                                        .remote_picks
                                        .fetch_add(picks.remote_picks, Ordering::Relaxed);
                                    counters.sample_busy.add(t_sample);

                                    let t_gather = Instant::now();
                                    alloc::set_stage(Stage::Gather);
                                    let features = GatheredFeatures::gather_pooled(
                                        &dataset, &blocks[0], &job.cache, &mut bufs,
                                    );
                                    counters.gather_busy.add(t_gather);

                                    let t_transfer = Instant::now();
                                    alloc::set_stage(Stage::Transfer);
                                    let staged = StagedBatch {
                                        index: i,
                                        blocks,
                                        features,
                                        bufs,
                                    };
                                    transfer_stage(&pipeline_cfg, &staged, &counters.h2d_bytes);
                                    counters.transfer_busy.add(t_transfer);
                                    alloc::set_stage(stage_before);
                                    if !staged_tx.send(staged) {
                                        return; // session tearing down
                                    }
                                }
                            }
                        });
                        if let Err(payload) = catch_unwind(body) {
                            failures.record("replica", panic_message(payload));
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
            workers_spawned = replicas;

            // EpochBatches recycling with a two-epoch lag: by the time
            // epoch e+2 starts, the worker has received job e+1, which it
            // could only do after dropping job e's Arc.
            let mut spare: Vec<Option<Arc<EpochBatches>>> = vec![None; replicas];
            let mut prev: Vec<Option<Arc<EpochBatches>>> = vec![None; replicas];

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
                    let survivors: Vec<usize> =
                        (0..replicas).filter(|&r| alive_at_start[r]).collect();
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
                let baselines: Vec<CounterBaseline> =
                    counters.iter().map(|c| c.baseline()).collect();

                let mut lens = vec![0usize; replicas];
                let mut filled: Vec<Option<Arc<EpochBatches>>> = vec![None; replicas];
                for r in 0..replicas {
                    if !alive_at_start[r] {
                        spare[r] = None;
                        prev[r] = None;
                        continue;
                    }
                    let mut eb = spare[r]
                        .take()
                        .and_then(|a| Arc::try_unwrap(a).ok())
                        .unwrap_or_default();
                    iterators[r].fill_epoch_batches(epoch, &mut eb);
                    lens[r] = eb.len();
                    filled[r] = Some(Arc::new(eb));
                }
                let steps = (0..replicas)
                    .filter(|&r| alive_at_start[r])
                    .map(|r| lens[r])
                    .min()
                    .unwrap_or(0);
                for r in 0..replicas {
                    let Some(batches) = filled[r].as_ref() else {
                        continue;
                    };
                    // A worker that died after its last drain shows up as a
                    // closed channel here; the feed below detects it.
                    let _ = job_channels.borrow()[r].send(ReplicaJob {
                        epoch,
                        limit: steps,
                        batches: Arc::clone(batches),
                        cache: Arc::clone(&caches[r]),
                    });
                    spare[r] = prev[r].take();
                    prev[r] = Some(Arc::clone(batches));
                }
                drop(filled);

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
                                        message,
                                        ..
                                    }) = failures.first()
                                    {
                                        format!("replica {r} worker panicked: {message}")
                                    } else {
                                        format!("replica {r} worker exited early")
                                    };
                                    let action = match policy {
                                        FailurePolicy::Fail => FailureAction::Failed,
                                        FailurePolicy::DropReplica => FailureAction::DroppedReplica,
                                        FailurePolicy::Restore => FailureAction::RestoredCheckpoint,
                                    };
                                    timeline.lock().unwrap().push(FailureEvent {
                                        epoch,
                                        step: si,
                                        replica: r,
                                        detail: detail.clone(),
                                        action,
                                    });
                                    match policy {
                                        FailurePolicy::Fail => {
                                            *epoch_error.borrow_mut() =
                                                Some(SessionError::ReplicaDied {
                                                    replica: r,
                                                    epoch,
                                                    step: si,
                                                    detail,
                                                });
                                        }
                                        FailurePolicy::DropReplica => {}
                                        FailurePolicy::Restore => want_restore.set(true),
                                    }
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
                    let mut recycled = 0usize;
                    let recycle = |item: PreparedBatch| {
                        let r = recycled % replicas;
                        recycled += 1;
                        let PreparedBatch {
                            blocks,
                            features,
                            scrap: mut bufs,
                            ..
                        } = item;
                        bufs.put_f32(features.into_vec());
                        bufs.recycle_blocks(blocks);
                        let _ = pools[r].try_send(bufs);
                    };
                    let mut backend = InlineRefresh::default();
                    let stats = trainer.train_steps_replicated(feed, &mut backend, recycle);
                    trainer.settle_refresh(&mut backend);
                    stats
                };
                let train_wall = train_wall.elapsed().as_secs_f64();
                let epoch_seconds = epoch_wall.elapsed().as_secs_f64();
                let allocs = alloc::snapshot().since(&alloc_before);

                if let Some(err) = epoch_error.into_inner() {
                    return Err(err);
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
                    let Some(path) = self.config.checkpoint_path.as_ref() else {
                        return Err(SessionError::Checkpoint(CheckpointError::Io(
                            "FailurePolicy::Restore needs a configured checkpoint_path".into(),
                        )));
                    };
                    let ck = checkpoint::load(path, digest)?;
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
                    let resume = (ck.next_epoch as usize).max(first_epoch);
                    epochs.truncate(resume - first_epoch);
                    epoch = resume;
                    for r in 0..replicas {
                        spare[r] = None;
                        prev[r] = None;
                    }
                    continue;
                }
                let newly_dead = {
                    let alive_now = alive.borrow();
                    (0..replicas).any(|r| alive_at_start[r] && !alive_now[r])
                };
                if newly_dead {
                    pending_redistribute = true;
                }

                let per_replica: Vec<ReplicaEpochStats> = (0..replicas)
                    .map(|r| {
                        let now = counters[r].baseline();
                        let base = baselines[r];
                        ReplicaEpochStats {
                            sample_seconds: now.sample_seconds - base.sample_seconds,
                            gather_seconds: now.gather_seconds - base.gather_seconds,
                            transfer_seconds: now.transfer_seconds - base.transfer_seconds,
                            h2d_bytes: now.h2d_bytes - base.h2d_bytes,
                            remote_feature_bytes: now.remote_feature_bytes
                                - base.remote_feature_bytes,
                            local_picks: now.local_picks - base.local_picks,
                            remote_picks: now.remote_picks - base.remote_picks,
                            batches: steps,
                            dropped_batches: lens[r].saturating_sub(steps),
                        }
                    })
                    .collect();

                let remote_feature_bytes: u64 =
                    per_replica.iter().map(|s| s.remote_feature_bytes).sum();
                let h2d_bytes: u64 = per_replica.iter().map(|s| s.h2d_bytes).sum();
                let allreduce_bytes = if replicas > 1 {
                    steps as u64 * 2 * (replicas as u64 - 1) * model_bytes
                } else {
                    0
                };
                let link = &self.config.interconnect;
                let mut interconnect_seconds =
                    steps as f64 * link.allreduce_seconds(model_bytes, replicas);
                for s in &per_replica {
                    if s.remote_feature_bytes > 0 {
                        // One remote pull message per step per replica.
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
                    train_seconds: (train_wall - wait.as_secs_f64()).max(0.0),
                    train_wait_seconds: wait.as_secs_f64(),
                    h2d_bytes,
                    reorder_peak: 0,
                    cache_hits,
                    cache_misses,
                    failures: std::mem::take(&mut *timeline.lock().unwrap()),
                };

                let pre_eval_stage = alloc::set_stage(Stage::Other);
                let eval_wall = Instant::now();
                let observation = trainer.observe_epoch(stats);
                let eval_seconds = eval_wall.elapsed().as_secs_f64();
                alloc::set_stage(pre_eval_stage);

                epochs.push(ReplicatedEpochRun {
                    epoch,
                    observation,
                    report,
                    per_replica,
                    steps,
                    allreduce_bytes,
                    remote_feature_bytes,
                    interconnect_seconds,
                    allocs,
                    refresh_rows: trainer.refresh_rows() - refresh_rows_before,
                    eval_seconds,
                    checkpoint_bytes: 0,
                    checkpoint_seconds: 0.0,
                });

                // Checkpoint cadence keys on the absolute epoch number so a
                // restored session writes at the same boundaries as the
                // uninterrupted run. The write lands after the epoch's
                // timings are recorded, so it never skews them.
                if checkpoint_on && (epoch + 1).is_multiple_of(self.config.checkpoint_every) {
                    let t0 = Instant::now();
                    let mut ck_backend = InlineRefresh::default();
                    let state = trainer.capture_state(&mut ck_backend);
                    let ck = Checkpoint {
                        next_epoch: epoch as u64 + 1,
                        replicas: replicas as u64,
                        rng_seeds: replica_seeds.clone(),
                        state,
                    };
                    let path = self.config.checkpoint_path.as_ref().unwrap();
                    let bytes = checkpoint::save(path, digest, &ck)?;
                    let run = epochs.last_mut().unwrap();
                    run.checkpoint_bytes = bytes;
                    run.checkpoint_seconds = t0.elapsed().as_secs_f64();
                }

                epoch += 1;
            }
            Ok(())
        });
        alloc::set_stage(caller_stage);
        outcome?;

        Ok(ReplicatedSessionReport {
            epochs,
            replicas,
            model_bytes,
            workers_spawned,
            partition_cut_fraction: partition_stats.cut_fraction(),
            partition_balance: partition_stats.balance(),
        })
    }

    /// Builds replica `r`'s feature cache: its hottest *owned* vertices,
    /// capped by the per-replica byte budget. Empty when the trainer's
    /// policy has no hotness ranking.
    fn replica_cache(
        &self,
        trainer: &ConvergenceTrainer,
        dataset: &Dataset,
        partition: &Partition,
        r: usize,
    ) -> FeatureCache {
        let Some(hot) = trainer.hot_set() else {
            return FeatureCache::empty();
        };
        let row_bytes = dataset.spec.feature_row_bytes().max(1);
        let budget_rows = (self.config.gpu_free_bytes / row_bytes) as usize;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{ReusePolicy, TrainerConfig};
    use neutron_graph::DatasetSpec;
    use neutron_nn::LayerKind;

    fn trainer(policy: ReusePolicy) -> ConvergenceTrainer {
        let ds = DatasetSpec::tiny().build_full();
        let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
        cfg.batch_size = 64;
        cfg.lr = 0.5;
        ConvergenceTrainer::new(ds, cfg)
    }

    fn policy() -> ReusePolicy {
        ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        }
    }

    #[test]
    fn r1_session_matches_sequential_epochs_exactly() {
        let mut seq = trainer(policy());
        let mut expected = Vec::new();
        for epoch in 0..3 {
            expected.push(seq.train_epoch(epoch));
        }

        let mut replicated = trainer(policy());
        let engine = ReplicatedEngine::new(ReplicatedConfig::default());
        let report = engine.run_session(&mut replicated, 0, 3);

        assert_eq!(report.replicas, 1);
        assert_eq!(report.epochs.len(), 3);
        for (run, want) in report.epochs.iter().zip(&expected) {
            assert_eq!(run.observation.train_loss, want.train_loss);
            assert_eq!(run.observation.test_accuracy, want.test_accuracy);
            assert_eq!(run.allreduce_bytes, 0, "R=1 exchanges no gradients");
            assert_eq!(run.remote_feature_bytes, 0, "1-way partition owns all");
            assert_eq!(run.per_replica.len(), 1);
            assert_eq!(run.per_replica[0].remote_picks, 0);
        }
    }

    #[test]
    fn r1_identity_holds_across_depths_pools_and_locality() {
        let mut seq = trainer(policy());
        let want = seq.train_epoch(0).train_loss;
        for (depth, pool, locality) in [(1, 0, true), (4, 3, false), (2, 8, true)] {
            let mut t = trainer(policy());
            let mut cfg = ReplicatedConfig::default();
            cfg.pipeline.channel_depth = depth;
            cfg.pool_batches = pool;
            cfg.locality_aware = locality;
            let report = ReplicatedEngine::new(cfg).run_session(&mut t, 0, 1);
            assert_eq!(
                report.epochs[0].observation.train_loss, want,
                "depth={depth} pool={pool} locality={locality}"
            );
        }
    }

    #[test]
    fn multi_replica_runs_are_deterministic_and_meter_the_interconnect() {
        let run = |replicas: usize| {
            let mut t = trainer(policy());
            let cfg = ReplicatedConfig {
                replicas,
                ..ReplicatedConfig::default()
            };
            ReplicatedEngine::new(cfg).run_session(&mut t, 0, 3)
        };
        for replicas in [2usize, 4] {
            let a = run(replicas);
            let b = run(replicas);
            assert_eq!(a.loss_trajectory(), b.loss_trajectory());
            assert_eq!(a.remote_bytes_trajectory(), b.remote_bytes_trajectory());
            assert_eq!(
                a.allreduce_bytes_trajectory(),
                b.allreduce_bytes_trajectory()
            );
            for run in &a.epochs {
                assert_eq!(
                    run.allreduce_bytes,
                    run.steps as u64 * 2 * (replicas as u64 - 1) * a.model_bytes
                );
                assert!(run.interconnect_seconds > 0.0);
                assert_eq!(run.per_replica.len(), replicas);
            }
        }
    }

    #[test]
    fn locality_aware_sampling_cuts_remote_feature_bytes() {
        let run = |locality: bool| {
            let mut t = trainer(policy());
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
        let picks: u64 = aware.epochs[0]
            .per_replica
            .iter()
            .map(|s| s.remote_picks + s.local_picks)
            .sum();
        assert!(picks > 0, "biased sampler reports pick counts");
    }
}
