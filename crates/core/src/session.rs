//! The one training-session API: one engine type, one config, one report.
//!
//! A [`Session`] runs the paper's stage graph (Fig 8: sample → gather →
//! transfer → train, plus the super-batch hot-embedding refresh) over a
//! span of epochs on **one runner** ([`crate::replica`]): one lane per
//! graph partition ([`SessionConfig::replicas`]; the default single lane
//! owns every vertex), each with one fused sample → gather → transfer
//! worker and a feature cache of its owned vertices in presample order up
//! to its budget, plus one background refresh worker — DistDGL's view of
//! one machine as the one-partition case of the distributed design.
//!
//! What the runner builds on, here: the worker-side fault hook and stall
//! latch (`Supervisor`), the checkpoint-at-boundary step (`Checkpointer`)
//! and the post-train bundle recycler (`recycle_into`). A lane's staging
//! itself is [`crate::pipeline::stage_batch`].

use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::engine::Bounded;
use crate::fault::{FailureAction, FailureEvent, FailurePolicy, FaultKind, FaultPlan};
use crate::pipeline::{PipelineConfig, PipelineReport};
use crate::pool::BatchBuffers;
use crate::refresh::RefreshBackend;
use crate::trainer::{ConvergenceTrainer, EpochObservation, PreparedBatch};
use neutron_hetero::InterconnectSpec;
use neutron_tensor::alloc::AllocSnapshot;
use std::fmt;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a training session.
///
/// `pipeline.sampler_threads`, `pipeline.gather_threads` and
/// `refresh_workers` are inert: each lane has one fused worker (see
/// [`PipelineConfig`]) and one refresh worker runs each task serially.
/// `locality_aware` and `interconnect` only matter at `replicas ≥ 2`.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Per-lane staging depth and the simulated H2D link.
    pub pipeline: PipelineConfig,
    /// Number of model replicas / graph partitions — one lane each.
    pub replicas: usize,
    /// Device memory each lane spends on cached features: its owned
    /// vertices in descending presample order, hot then cold, until this
    /// many bytes are spent (§5.2).
    pub gpu_free_bytes: u64,
    /// Inert: the refresh worker runs each task serially on its one
    /// thread. Kept because the benchmark adapter sets it.
    pub refresh_workers: usize,
    /// Prefer partition-local neighbours while sampling (R ≥ 2);
    /// `false` is the locality-blind ablation.
    pub locality_aware: bool,
    /// Simulated replica-to-replica fabric pricing remote feature pulls and
    /// gradient all-reduces (distinct from the H2D link; unused at R = 1).
    pub interconnect: InterconnectSpec,
    /// Write a checkpoint after every epoch whose (absolute) number + 1 is
    /// a multiple of this; `0` disables. Keyed on the absolute epoch, so a
    /// restored session checkpoints where the uninterrupted run would.
    pub checkpoint_every: usize,
    /// Checkpoint file (atomically replaced per write). Needed, with a
    /// nonzero [`Self::checkpoint_every`], for checkpoints to be written
    /// and for [`FailurePolicy::Restore`] to have something to load.
    pub checkpoint_path: Option<PathBuf>,
    /// Deterministic fault schedule consulted by the staging workers, set
    /// by the fault drill (`cargo test --release -p neutronorch --test
    /// fault_injection`); `None` in production runs.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// How long the train stage tolerates an empty staging channel (with
    /// work outstanding) before declaring its producer stalled.
    pub stall_timeout: Duration,
    /// What the session does when a lane dies or stalls mid-epoch: every
    /// policy but `Fail` replays, on fresh workers
    /// ([`Session::run_session_checked`]). At R = 1 `DropReplica` has no
    /// lane left to replay on and fails like `Fail`.
    pub on_replica_failure: FailurePolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            replicas: 1,
            gpu_free_bytes: 64 << 20,
            refresh_workers: 1,
            locality_aware: true,
            interconnect: InterconnectSpec::nvlink_like(),
            checkpoint_every: 0,
            checkpoint_path: None,
            fault_plan: None,
            stall_timeout: Duration::from_secs(5),
            on_replica_failure: FailurePolicy::Fail,
        }
    }
}

/// One lane's staging stats over one batch ([`crate::pipeline::stage_batch`]
/// returns them with it) or one epoch (the sum over the batches its steps
/// took from the lane, however early each was staged).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaEpochStats {
    /// Busy seconds of this replica's sampling phase.
    pub sample_seconds: f64,
    /// Busy seconds of this replica's gather phase.
    pub gather_seconds: f64,
    /// Busy seconds of this replica's transfer phase (incl. simulated
    /// PCIe stall).
    pub transfer_seconds: f64,
    /// Host→device bytes this replica staged.
    pub h2d_bytes: u64,
    /// Feature bytes this replica pulled for source vertices its
    /// partition does not own — the interconnect (not PCIe) traffic.
    pub remote_feature_bytes: u64,
    /// Neighbor picks that landed on partition-local vertices (counted by
    /// the locality-biased sampler only).
    pub local_picks: u64,
    /// Neighbor picks that landed on remote vertices.
    pub remote_picks: u64,
    /// Batches these stats cover: 1 for one batch; an epoch's steps for a
    /// lane of its attempt.
    pub batches: usize,
}

/// One epoch of a session.
#[derive(Clone, Debug)]
pub struct EpochRun {
    /// Epoch number.
    pub epoch: usize,
    /// Loss/accuracy/staleness of the epoch.
    pub observation: EpochObservation,
    /// Measured per-stage breakdown, summed across replicas. `num_batches`
    /// counts optimizer *steps*, so series line up at every R.
    pub report: PipelineReport,
    /// Per-lane staging breakdown, indexed by replica id: the sum of the
    /// stats of every batch the epoch's steps took from the lane (zero for
    /// a replica a `DropReplica` replay runs without).
    pub per_replica: Vec<ReplicaEpochStats>,
    /// Optimizer steps this epoch (min batch count across the lanes).
    pub steps: usize,
    /// Ring all-reduce wire bytes across the lanes this epoch:
    /// `steps × 2(R−1) × model_bytes` for R lanes; zero at one lane.
    pub allreduce_bytes: u64,
    /// Remote feature bytes summed across replicas; zero at R = 1.
    pub remote_feature_bytes: u64,
    /// Simulated seconds the interconnect model prices this epoch's
    /// all-reduces and remote pulls at (closed-form, not slept).
    pub interconnect_seconds: f64,
    /// Share of this epoch's refresh rows computed on the refresh worker:
    /// always 1.0 ([`ConvergenceTrainer::refresh_cpu_fraction`]). Kept for
    /// callers that read it.
    pub refresh_cpu_fraction: f64,
    /// Busy seconds the background refresh worker spent during this
    /// epoch's wall-clock window (a task submitted at an epoch's last
    /// boundary is credited where it physically ran). That is every
    /// refresh row, priming included; the train thread's wait for them is
    /// in `report.train_wait_seconds`.
    pub refresh_seconds: f64,
    /// Hot rows put on refresh worklists during this epoch: what the next
    /// super-batch reads, or the whole hot set at the epoch's last boundary
    /// and at priming.
    pub refresh_rows: u64,
    /// Seconds spent in test-set evaluation after the epoch — inference,
    /// kept out of `report.epoch_seconds`.
    pub eval_seconds: f64,
    /// Vertices resident in the GPU feature caches during this epoch,
    /// summed across lanes.
    pub cache_vertices: usize,
    /// Heap allocations attributed per stage during this epoch's training
    /// window (evaluation excluded). All zero unless a
    /// [`neutron_tensor::alloc::CountingAllocator`] is installed and
    /// enabled.
    pub allocs: AllocSnapshot,
    /// Bytes of the checkpoint written at this epoch's boundary (0 when no
    /// checkpoint was due).
    pub checkpoint_bytes: u64,
    /// Wall-clock spent capturing + writing that checkpoint — measured
    /// outside `report.epoch_seconds`, so checkpoint cadence never skews
    /// the throughput trajectory.
    pub checkpoint_seconds: f64,
}

/// What a whole session produced.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Per-epoch results, in order.
    pub epochs: Vec<EpochRun>,
    /// Number of replicas the session ran.
    pub replicas: usize,
    /// Model parameter bytes (the all-reduce payload per step).
    pub model_bytes: u64,
    /// Worker threads spawned: one per lane plus the refresh worker, a
    /// fresh set per replay — independent of epoch count.
    pub workers_spawned: usize,
    /// Wall-clock from session start to all workers spawned — the one-time
    /// cost the persistent workers amortise over every epoch.
    pub startup_seconds: f64,
    /// Edge-cut fraction of the hash partition (0 at R = 1).
    pub partition_cut_fraction: f64,
    /// Size balance (max/ideal) of the partition (1 at R = 1).
    pub partition_balance: f64,
}

impl SessionReport {
    /// One per-epoch series of the session: `f` of every epoch's run, in
    /// epoch order. `|run| run.observation.train_loss` is the loss
    /// trajectory, `|run| run.report.h2d_bytes` the transfer volume the
    /// feature caches leave on the link.
    pub fn series<T>(&self, f: impl FnMut(&EpochRun) -> T) -> Vec<T> {
        self.epochs.iter().map(f).collect()
    }
}

/// Why a training session failed. Every variant is a *detected* failure:
/// the session's supervisor turned a worker panic, a stall or a bad
/// checkpoint into this typed error instead of hanging a `recv` forever.
#[derive(Clone, Debug)]
pub enum SessionError {
    /// The refresh worker panicked; its channels were closed so the train
    /// stage unblocked.
    WorkerPanicked {
        /// Stage the panicking worker belonged to.
        stage: &'static str,
        /// The panic payload (stringified).
        message: String,
    },
    /// A lane's worker died (panicked or exited early) or stalled (nothing
    /// staged within [`SessionConfig::stall_timeout`]) mid-epoch, and the
    /// session could not replay: the policy was [`FailurePolicy::Fail`],
    /// `DropReplica` lost its last lane, or `Restore` spent its budget.
    ReplicaDied {
        /// The replica that died.
        replica: usize,
        /// Epoch at detection.
        epoch: usize,
        /// Step (batch index) at detection.
        step: usize,
        /// What was detected.
        detail: String,
    },
    /// Writing or reading a checkpoint failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::WorkerPanicked { stage, message } => {
                write!(f, "{stage} worker panicked: {message}")
            }
            SessionError::ReplicaDied {
                replica,
                epoch,
                step,
                detail,
            } => write!(
                f,
                "replica {replica} died in epoch {epoch} at step {step}: {detail}"
            ),
            SessionError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}

/// A training session over persistent workers (see the module docs).
pub struct Session {
    config: SessionConfig,
}

impl Session {
    /// Builds a session. Panics on a configuration it could not honour:
    /// zero replicas, a zero channel depth, or a fault addressed to a lane
    /// the session does not have — it would never be delivered.
    pub fn new(config: SessionConfig) -> Self {
        let replicas = config.replicas;
        assert!(replicas >= 1, "need at least one replica");
        assert!(
            config.pipeline.channel_depth >= 1,
            "staging needs a channel depth of at least 1"
        );
        for spec in config.fault_plan.iter().flat_map(|plan| plan.specs()) {
            assert!(
                spec.replica < replicas,
                "fault {spec} addresses worker {} but the session has {replicas} replica(s): \
                 it would never be delivered",
                spec.replica
            );
        }
        Self { config }
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs `num_epochs` epochs starting at `first_epoch` over one set of
    /// persistent workers. At R = 1 numerically identical to calling
    /// `trainer.train_epoch(e)` for the same epochs, at any staging depth,
    /// cache budget and refresh thread count; at any R
    /// deterministic — concurrency changes wall-clock and placement, never
    /// results.
    ///
    /// Panics on session failure; use [`Self::run_session_checked`] to get
    /// the typed error instead.
    pub fn run_session(
        &self,
        trainer: &mut ConvergenceTrainer,
        first_epoch: usize,
        num_epochs: usize,
    ) -> SessionReport {
        self.run_session_checked(trainer, first_epoch, num_epochs)
            .unwrap_or_else(|e| panic!("training session failed: {e}"))
    }

    /// [`Self::run_session`] with failures surfaced as [`SessionError`]
    /// instead of panics. The supervisor detects a dead lane by its closed
    /// staging channel and a stalled one by
    /// [`SessionConfig::stall_timeout`]; either ends the attempt, and
    /// [`SessionConfig::on_replica_failure`] picks the replay:
    ///
    /// * `Fail` — none: tear down and return [`SessionError::ReplicaDied`].
    /// * `DropReplica` — tear down, restore the state the failed epoch
    ///   started from and replay that epoch without the lane: its train
    ///   vertices are dealt round-robin over the rest. With no lane left
    ///   (always, at R = 1) it returns the `ReplicaDied`.
    /// * `Restore` — tear down, load the last checkpoint into the trainer
    ///   and replay from its epoch on a fresh set of workers, the way a
    ///   session started there would — at R = 1 too. After four restores
    ///   the next lost lane's `ReplicaDied` is returned.
    ///
    /// Every exit, failed ones included, settles the refresh the trainer
    /// left on the refresh worker, so the trainer outlives the session.
    pub fn run_session_checked(
        &self,
        trainer: &mut ConvergenceTrainer,
        first_epoch: usize,
        num_epochs: usize,
    ) -> Result<SessionReport, SessionError> {
        crate::replica::run_fused(&self.config, trainer, first_epoch, num_epochs)
    }
}

// ---------------------------------------------------------------------------
// What the runner builds on.
// ---------------------------------------------------------------------------

impl ReplicaEpochStats {
    /// Adds `other`'s stats (one batch's, typically) into these.
    pub(crate) fn add(&mut self, other: &Self) {
        self.sample_seconds += other.sample_seconds;
        self.gather_seconds += other.gather_seconds;
        self.transfer_seconds += other.transfer_seconds;
        self.h2d_bytes += other.h2d_bytes;
        self.remote_feature_bytes += other.remote_feature_bytes;
        self.local_picks += other.local_picks;
        self.remote_picks += other.remote_picks;
        self.batches += other.batches;
    }
}

/// Fault-tolerance state shared by a session's staging workers and its
/// train thread: the panic record, the failure/recovery timeline surfaced
/// per epoch, the deterministic fault schedule the workers consult, and the
/// latch an injected-stall worker parks on until teardown.
#[derive(Default)]
pub(crate) struct Supervisor {
    plan: Option<Arc<FaultPlan>>,
    panics: Mutex<Vec<(&'static str, String)>>,
    timeline: Mutex<Vec<FailureEvent>>,
    torn_down: Mutex<bool>,
    teardown: Condvar,
}

impl Supervisor {
    /// A supervisor over `plan`, its timeline seeded by a failed attempt.
    pub(crate) fn new(plan: Option<Arc<FaultPlan>>, timeline: Vec<FailureEvent>) -> Self {
        Self {
            plan,
            timeline: Mutex::new(timeline),
            ..Self::default()
        }
    }

    /// Deposits a panicking worker's stage and payload (the `&str`/`String`
    /// cases panics actually carry; anything else gets a placeholder).
    pub(crate) fn record_panic(&self, stage: &'static str, payload: Box<dyn std::any::Any + Send>) {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        self.panics.lock().unwrap().push((stage, message));
    }

    /// The first recorded worker panic, as the error the session returns.
    pub(crate) fn first_panic(&self) -> Option<SessionError> {
        let panics = self.panics.lock().unwrap();
        panics
            .first()
            .map(|(stage, message)| SessionError::WorkerPanicked {
                stage,
                message: message.clone(),
            })
    }

    /// Appends to the failure/recovery timeline.
    pub(crate) fn note(&self, event: FailureEvent) {
        self.timeline.lock().unwrap().push(event);
    }

    /// Hands the events recorded for epochs up to `through` to that
    /// epoch's report, in detection order; later epochs' events (a lane
    /// staging ahead, or a replay resuming before the failed epoch) wait
    /// for their own epoch.
    pub(crate) fn take_timeline(&self, through: usize) -> Vec<FailureEvent> {
        let mut timeline = self.timeline.lock().unwrap();
        let (due, later) = timeline.drain(..).partition(|event| event.epoch <= through);
        *timeline = later;
        due
    }

    fn observed(&self, worker: usize, epoch: usize, step: usize, detail: String) {
        self.note(FailureEvent {
            epoch,
            step,
            replica: worker,
            detail,
            action: FailureAction::Observed,
        });
    }

    /// Worker-side fault hook, consulted before a lane stages `step`. A
    /// crash records itself and breaks, so the worker exits cleanly with
    /// nothing staged; a panic fault panics here; a stall parks the worker —
    /// alive, the batch never produced, which is what the stall timeout
    /// must detect — until [`Self::tear_down`] and then breaks so the scope
    /// can join it; a straggler sleeps 25 ms (that delay *is* the injected
    /// fault) and continues, so results stay bit-identical.
    pub(crate) fn fault_hook(
        &self,
        role: &str,
        worker: usize,
        epoch: usize,
        step: usize,
    ) -> ControlFlow<()> {
        let Some(kind) = self
            .plan
            .as_deref()
            .and_then(|p| p.take(worker, epoch, step))
        else {
            return ControlFlow::Continue(());
        };
        match kind {
            FaultKind::Crash => {
                let detail = format!("injected {role} crash (clean exit before staging)");
                self.observed(worker, epoch, step, detail);
                ControlFlow::Break(())
            }
            FaultKind::Panic => {
                self.observed(worker, epoch, step, format!("injected {role} panic"));
                panic!("injected fault: {role} {worker} panicked at epoch {epoch} step {step}");
            }
            FaultKind::Stall => {
                self.observed(worker, epoch, step, format!("injected {role} stall"));
                let mut torn_down = self.torn_down.lock().unwrap();
                while !*torn_down {
                    torn_down = self.teardown.wait(torn_down).unwrap();
                }
                ControlFlow::Break(())
            }
            FaultKind::Straggler => {
                self.observed(
                    worker,
                    epoch,
                    step,
                    "injected straggler delay (25ms)".into(),
                );
                std::thread::sleep(Duration::from_millis(25));
                ControlFlow::Continue(())
            }
        }
    }

    /// Releases every worker parked in an injected stall; part of session
    /// teardown, on every exit path.
    pub(crate) fn tear_down(&self) {
        *self.torn_down.lock().unwrap() = true;
        self.teardown.notify_all();
    }
}

/// The checkpoint-at-boundary step: what a session writes after an epoch
/// whose cadence is due, and what [`FailurePolicy::Restore`] loads back.
pub(crate) struct Checkpointer<'a> {
    config: &'a SessionConfig,
    digest: u64,
}

impl<'a> Checkpointer<'a> {
    pub(crate) fn new(config: &'a SessionConfig, trainer: &ConvergenceTrainer) -> Self {
        Self {
            config,
            digest: checkpoint::config_digest(trainer.config(), config.replicas),
        }
    }

    /// Writes the checkpoint due at the boundary after `run.epoch`, if the
    /// cadence says so, and records its size and cost on `run`. Called
    /// after the epoch's wall-clock window closed, so checkpoint cost never
    /// folds into `epoch_seconds`. `capture_state` settles the in-flight
    /// refresh on `backend` first (numerically identical), so the file is a
    /// complete, self-contained resume point.
    pub(crate) fn at_boundary(
        &self,
        trainer: &mut ConvergenceTrainer,
        backend: &mut dyn RefreshBackend,
        run: &mut EpochRun,
    ) -> Result<(), SessionError> {
        let every = self.config.checkpoint_every;
        let Some(path) = self.config.checkpoint_path.as_ref().filter(|_| every > 0) else {
            return Ok(());
        };
        if !(run.epoch + 1).is_multiple_of(every) {
            return Ok(());
        }
        let t0 = Instant::now();
        let ck = Checkpoint {
            next_epoch: run.epoch as u64 + 1,
            state: trainer.capture_state(backend),
        };
        run.checkpoint_bytes = checkpoint::save(path, self.digest, &ck)?;
        run.checkpoint_seconds = t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// Loads the last checkpoint this session (or a predecessor with the
    /// same configuration) wrote.
    pub(crate) fn load(&self) -> Result<Checkpoint, SessionError> {
        let Some(path) = self.config.checkpoint_path.as_ref() else {
            return Err(SessionError::Checkpoint(CheckpointError::Io(
                "FailurePolicy::Restore needs a configured checkpoint_path".into(),
            )));
        };
        Ok(checkpoint::load(path, self.digest)?)
    }
}

/// The post-train recycler: dismantles each trained batch into its buffer
/// bundle and offers it to `pool`. Purely a capacity transfer — the batch's
/// numbers are already folded into the model, so recycling cannot perturb
/// results; a full (or closed) pool drops the bundle.
pub(crate) fn recycle_into(pool: &Bounded<BatchBuffers>) -> impl FnMut(PreparedBatch) + '_ {
    move |item| {
        let PreparedBatch {
            blocks,
            features,
            hits,
            scrap: mut bufs,
            ..
        } = item;
        bufs.put_f32(features.into_vec());
        if !hits.index.is_empty() {
            bufs.put_pos(hits.index);
        }
        bufs.recycle_blocks(blocks);
        let _ = pool.try_send(bufs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_worker_parks_until_teardown() {
        let plan = FaultPlan::parse("stall@r0e0s1").unwrap();
        let sup = Supervisor::new(Some(Arc::new(plan)), Vec::new());
        assert!(sup.fault_hook("sampler", 0, 0, 0).is_continue());
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| sup.fault_hook("sampler", 0, 0, 1));
            // The stall event is recorded before the worker parks.
            while sup.timeline.lock().unwrap().is_empty() {
                std::thread::yield_now();
            }
            assert!(!parked.is_finished());
            sup.tear_down();
            assert!(parked.join().unwrap().is_break());
        });
        let events = sup.take_timeline(0);
        assert_eq!(events.len(), 1);
        assert!(events[0].detail.contains("stall"));
        // One-shot: after teardown a late call falls straight through.
        assert!(sup.fault_hook("sampler", 0, 0, 1).is_continue());
    }
}
