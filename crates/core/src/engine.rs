//! The persistent multi-epoch training engine.
//!
//! PR 1's [`crate::pipeline::PipelineExecutor`] proved the stage-overlap
//! claim but paid thread spawn/teardown on every `run_epoch` call and ran
//! the super-batch hot-embedding refresh inline on the train thread. This
//! module keeps the same stage graph alive for a whole *session*:
//!
//! ```text
//!              ┌───────────── generation-stamped epoch gate ─────────────┐
//!              ▼                                                         │
//! [sample xN] --ch--> [gather xM] --ch--> [transfer] --ch--> [train]  (epoch
//!   persistent          persistent          persistent        caller   loop)
//!      ▲                                                         │
//!      └─────────── spent-buffer return channel (pool) ◄─────────┘
//!
//! [refresh worker] <--task-- train thread at super-batch boundaries:
//!                             the hot rows the *next* super-batch reads
//!                  --rows--> published at the *next* boundary (double buffer)
//! ```
//!
//! - **Persistent pool** — sampler/gather/transfer/refresh workers are
//!   spawned exactly once per [`TrainingEngine::run_session`]. Between
//!   epochs the samplers park on the [`EpochGate`], a generation-stamped
//!   barrier: the train thread publishes the next epoch's batch list under
//!   a new generation and the workers wake, claim batch indices from the
//!   job's shared counter, and go back to waiting when the counter runs
//!   dry. Gather/transfer workers park implicitly on their empty input
//!   channels. Multi-epoch runs pay thread startup once, not per epoch.
//! - **Allocation-free steady state** — after each batch trains, its spent
//!   buffers ([`BatchBuffers`]) flow back to the sampler pool through a
//!   bounded return channel and are refilled in place; the epoch-batch
//!   list, the train-side reorder window and every per-batch vector reuse
//!   session-lifetime capacity. Warm epochs allocate (near) nothing on the
//!   sample/gather/transfer hot path — measured per stage by
//!   [`neutron_tensor::alloc`] and regression-gated by
//!   `cargo xtask bench-diff`.
//! - **Pipelined, demand-driven refresh (Fig 8, §4.2)** — the train loop
//!   keeps `2n−1` staged batches in hand
//!   ([`ConvergenceTrainer::lookahead`]; they count against
//!   `channel_depth`, not on top of it), so at each super-batch boundary it
//!   already holds the next super-batch. The trainer snapshots its
//!   bottom-layer parameters into a [`RefreshTask`] over the hot rows those
//!   batches read and hands the CPU share to the dedicated refresh worker;
//!   the rows are collected and published one boundary later
//!   (see [`crate::trainer::ConvergenceTrainer::train_batches_with`]), so
//!   the refresh overlaps training and historical reads keep the `< 2n`
//!   version-gap bound.
//! - **Occupancy-driven hybrid split (§4.1.3/§4.3)** — after every epoch
//!   the engine feeds the measured
//!   [`PipelineReport::train_occupancy`] into
//!   [`HybridPolicy::plan_from_occupancy`] and installs the planned CPU
//!   fraction for the next epoch's refreshes: a starved train stage pulls
//!   hot vertices onto the training device's cache, a saturated one pushes
//!   them back to the CPU. The split moves *work between devices*, never
//!   numbers: refresh tasks are partition-stable pure functions of their
//!   parameter snapshot, so the loss trajectory is bit-identical to the
//!   sequential trainer at every thread count and every split.

use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::fault::{FailureAction, FailureEvent, FaultKind, FaultPlan};
use crate::gather::{GatheredFeatures, StagedBatch};
use crate::pipeline::{PipelineConfig, PipelineReport};
use crate::pool::BatchBuffers;
use crate::refresh::{CpuPart, RefreshBackend, RefreshOutput, RefreshTask};
use crate::trainer::{batch_sample_seed, ConvergenceTrainer, EpochObservation};
use neutron_cache::{FeatureCache, HybridPolicy};
use neutron_sample::{Block, BlockBuilder, EpochBatches, SamplerScratch};
use neutron_tensor::alloc::{self, AllocSnapshot, Stage};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Concurrency primitives shared with the pipeline module.
// ---------------------------------------------------------------------------

/// A bounded MPMC channel built on `Mutex` + `Condvar` — the workspace
/// avoids external concurrency crates, and `std::sync::mpsc` receivers
/// cannot be shared by a pool of gather workers.
pub(crate) struct Bounded<T> {
    state: Mutex<ChannelState<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Bounded<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        Self {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                closed: false,
            }),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Blocks while full. Returns `false` (dropping `item`) if the channel
    /// was closed.
    pub(crate) fn send(&self, item: T) -> bool {
        self.send_or_return(item).is_none()
    }

    /// Blocks while full. On a closed channel the item is handed back so
    /// the caller can fall back to computing locally.
    pub(crate) fn send_or_return(&self, item: T) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        while st.queue.len() >= self.capacity && !st.closed {
            st = self.not_full.wait(st).unwrap();
        }
        if st.closed {
            return Some(item);
        }
        st.queue.push_back(item);
        self.not_empty.notify_one();
        None
    }

    /// Blocks while empty. Returns `None` once the channel is closed *and*
    /// drained.
    pub(crate) fn recv(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.queue.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Non-blocking **LIFO** receive: `None` when the queue is momentarily
    /// empty (or closed) — the pool path's "no spare bundle, allocate
    /// fresh". Popping the most recently returned item keeps a buffer pool
    /// cycling its hottest bundles — the ones whose capacities have already
    /// grown to the working set — so steady state arrives after a handful
    /// of batches instead of after every pooled bundle has individually
    /// served the largest batch.
    pub(crate) fn try_recv(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        let item = st.queue.pop_back();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Non-blocking send: hands `item` back when the channel is full or
    /// closed, so a bounded pool can simply drop surplus bundles instead
    /// of stalling the train stage on its own recycling.
    pub(crate) fn try_send(&self, item: T) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        if st.closed || st.queue.len() >= self.capacity {
            return Some(item);
        }
        st.queue.push_back(item);
        self.not_empty.notify_one();
        None
    }

    /// Like [`Self::recv`], but gives up after `timeout` of continuous
    /// emptiness — the supervisor's only way to tell a *stalled* producer
    /// (alive but not progressing) from a merely slow one. A closed+drained
    /// channel still reports [`RecvTimeout::Closed`] immediately.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> RecvTimeout<T> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.queue.pop_front() {
                self.not_full.notify_one();
                return RecvTimeout::Item(item);
            }
            if st.closed {
                return RecvTimeout::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return RecvTimeout::TimedOut;
            }
            let (guard, _) = self.not_empty.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    /// Marks the channel closed; receivers drain the queue then see `None`.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Outcome of [`Bounded::recv_timeout`].
pub(crate) enum RecvTimeout<T> {
    /// An item arrived within the timeout.
    Item(T),
    /// The channel is closed and drained — the producer exited.
    Closed,
    /// Nothing arrived for the whole timeout — the producer may be stalled.
    TimedOut,
}

/// Accumulates busy nanoseconds across worker threads.
#[derive(Default)]
pub(crate) struct BusyNs(AtomicU64);

impl BusyNs {
    pub(crate) fn add(&self, since: Instant) {
        self.0
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn seconds(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Runs a closure on drop — used so that channel close / gate shutdown
/// happens even when a stage panics, turning a bug-induced panic into a
/// propagated failure instead of a deadlock (workers blocked forever on a
/// channel nobody will close).
pub(crate) struct Defer<F: FnMut()>(pub(crate) F);

impl<F: FnMut()> Drop for Defer<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// Why a training session failed. Every variant is a *detected* failure:
/// the session's supervisor turned a worker panic, a stall or a bad
/// checkpoint into this typed error instead of hanging a `recv` forever.
#[derive(Clone, Debug)]
pub enum SessionError {
    /// A stage worker panicked; the batch it held is lost and the pipeline
    /// was poisoned so every other stage unblocked.
    WorkerPanicked {
        /// Stage the panicking worker belonged to.
        stage: &'static str,
        /// The panic payload (stringified).
        message: String,
    },
    /// The pipeline stopped making progress: nothing reached the train
    /// stage for the configured stall timeout while work remained.
    Stalled {
        /// Epoch being trained when progress stopped.
        epoch: usize,
        /// First batch index that never arrived.
        step: usize,
        /// The timeout that expired.
        timeout: Duration,
    },
    /// A replica's worker died (panicked or exited early) mid-epoch and the
    /// failure policy was [`crate::fault::FailurePolicy::Fail`].
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
    /// Every replica died; no degradation policy can continue.
    NoSurvivors {
        /// Epoch at which the last replica was lost.
        epoch: usize,
    },
    /// An epoch ended with fewer batches trained than scheduled and no
    /// panic to blame — e.g. every worker of a stage exited cleanly.
    EpochIncomplete {
        /// The epoch that came up short.
        epoch: usize,
        /// Batches actually trained.
        trained: usize,
        /// Batches scheduled.
        total: usize,
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
            SessionError::Stalled {
                epoch,
                step,
                timeout,
            } => write!(
                f,
                "pipeline stalled in epoch {epoch}: batch {step} never arrived within {timeout:?}"
            ),
            SessionError::ReplicaDied {
                replica,
                epoch,
                step,
                detail,
            } => write!(
                f,
                "replica {replica} died in epoch {epoch} at step {step}: {detail}"
            ),
            SessionError::NoSurvivors { epoch } => {
                write!(f, "all replicas lost by epoch {epoch}")
            }
            SessionError::EpochIncomplete {
                epoch,
                trained,
                total,
            } => write!(
                f,
                "epoch {epoch} incomplete: trained {trained} of {total} batches"
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

/// Shared scratch where panicking workers deposit their stage name and
/// panic payload before poisoning the pipeline; the supervisor turns the
/// first entry into [`SessionError::WorkerPanicked`].
#[derive(Default)]
pub(crate) struct FailureCell(Mutex<Vec<(&'static str, String)>>);

impl FailureCell {
    pub(crate) fn record(&self, stage: &'static str, message: String) {
        self.0.lock().unwrap().push((stage, message));
    }

    pub(crate) fn first(&self) -> Option<SessionError> {
        self.0
            .lock()
            .unwrap()
            .first()
            .map(|(stage, message)| SessionError::WorkerPanicked {
                stage,
                message: message.clone(),
            })
    }
}

/// Stringifies a panic payload (the `&str`/`String` cases panics actually
/// carry; anything else gets a placeholder).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The transfer stage for one batch: account host→device bytes and, when a
/// simulated link is configured, stall for the PCIe time. Shared by the
/// engine's transfer worker and the sequential baseline so their per-batch
/// costing can never drift apart. Charges only the batch's *miss* bytes —
/// cache-resident features never cross the link.
pub(crate) fn transfer_stage(cfg: &PipelineConfig, batch: &StagedBatch, h2d_bytes: &AtomicU64) {
    let bytes = batch.h2d_bytes();
    h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
    if cfg.h2d_gibps > 0.0 {
        let secs = bytes as f64 / (cfg.h2d_gibps * (1u64 << 30) as f64);
        std::thread::sleep(Duration::from_secs_f64(secs));
    }
}

// ---------------------------------------------------------------------------
// The generation-stamped epoch gate.
// ---------------------------------------------------------------------------

/// One epoch's worth of work, published to the persistent sampler pool.
#[derive(Clone)]
struct EpochJob {
    /// Gate generation this job was published under (stricly increasing).
    generation: u64,
    /// Epoch number (seeds batch sampling).
    epoch: usize,
    /// The epoch's shuffled batches, in train order. The `Arc` is recycled
    /// across epochs (see `run_session`): one flat id buffer serves the
    /// whole session instead of a fresh `Vec<Vec<_>>` per epoch.
    batches: Arc<EpochBatches>,
    /// Shared claim counter: samplers `fetch_add` to pick the next batch.
    next: Arc<AtomicUsize>,
    /// The GPU feature cache in effect for this epoch. Published with the
    /// job (not read from shared engine state) so every worker probes the
    /// exact same snapshot: rebuilds between epochs can never race a
    /// straggling gather, because an epoch's channels fully drain before
    /// the next generation opens.
    cache: Arc<FeatureCache>,
}

/// The barrier persistent workers park on between epochs. The train thread
/// opens a new generation with the next epoch's job; workers wake, drain
/// the job, and wait for a generation newer than the last one they served.
struct EpochGate {
    state: Mutex<GateState>,
    opened: Condvar,
}

struct GateState {
    generation: u64,
    job: Option<EpochJob>,
    shutdown: bool,
}

impl EpochGate {
    fn new() -> Self {
        Self {
            state: Mutex::new(GateState {
                generation: 0,
                job: None,
                shutdown: false,
            }),
            opened: Condvar::new(),
        }
    }

    /// Publishes `job` under a new generation, waking every parked worker.
    fn open(&self, job: EpochJob) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(job.generation > st.generation, "generations must advance");
        st.generation = job.generation;
        st.job = Some(job);
        self.opened.notify_all();
    }

    /// Parks until a generation newer than `seen` is open (returning its
    /// job) or the gate shuts down (returning `None`).
    fn wait_past(&self, seen: u64) -> Option<EpochJob> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            if st.generation > seen {
                return st.job.clone();
            }
            st = self.opened.wait(st).unwrap();
        }
    }

    /// Ends the session: every parked worker wakes and exits.
    fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.opened.notify_all();
    }
}

/// One sampled batch in flight between the sampler pool and the gather
/// workers, carrying the recycled buffer bundle whose block capacity it was
/// (partly) built from — the gather stage draws its own buffers from the
/// same bundle, and the whole thing rides to the train stage and back to
/// the pool.
struct SampledItem {
    index: usize,
    blocks: Vec<Block>,
    cache: Arc<FeatureCache>,
    bufs: BatchBuffers,
}

/// Train-stage input adaptor for one epoch: receives possibly out-of-order
/// prepared batches and yields exactly `remaining` of them in epoch order,
/// tracking starvation time and the reorder window. Bounded by count (not
/// channel close) because the channels outlive the epoch. The reorder
/// window itself is caller-owned and reused across epochs — a ring of
/// slots indexed by distance from the next in-order batch, replacing the
/// node-per-batch `BTreeMap` the hot path used to allocate into.
struct EpochReorder<'a> {
    source: &'a Bounded<StagedBatch>,
    window: &'a mut VecDeque<Option<StagedBatch>>,
    next_index: usize,
    remaining: usize,
    live: usize,
    wait: Duration,
    peak: usize,
    /// How long the train stage waits on an empty channel before declaring
    /// the pipeline stalled.
    stall_timeout: Duration,
    /// Latched when a wait timed out: the feed ends and the supervisor
    /// raises [`SessionError::Stalled`] instead of blocking forever on a
    /// worker that will never produce.
    stalled: bool,
}

impl<'a> EpochReorder<'a> {
    fn new(
        source: &'a Bounded<StagedBatch>,
        total: usize,
        window: &'a mut VecDeque<Option<StagedBatch>>,
        stall_timeout: Duration,
    ) -> Self {
        window.clear(); // keeps capacity: steady-state epochs never regrow it
        Self {
            source,
            window,
            next_index: 0,
            remaining: total,
            live: 0,
            wait: Duration::ZERO,
            peak: 0,
            stall_timeout,
            stalled: false,
        }
    }
}

impl Iterator for EpochReorder<'_> {
    type Item = StagedBatch;

    fn next(&mut self) -> Option<StagedBatch> {
        if self.remaining == 0 || self.stalled {
            return None;
        }
        loop {
            if matches!(self.window.front(), Some(Some(_))) {
                let item = self.window.pop_front().flatten().unwrap();
                self.next_index += 1;
                self.remaining -= 1;
                self.live -= 1;
                return Some(item);
            }
            let t0 = Instant::now();
            let received = self.source.recv_timeout(self.stall_timeout);
            self.wait += t0.elapsed();
            match received {
                RecvTimeout::Item(item) => {
                    let offset = item.index - self.next_index;
                    while self.window.len() <= offset {
                        self.window.push_back(None);
                    }
                    self.window[offset] = Some(item);
                    self.live += 1;
                    self.peak = self.peak.max(self.live);
                }
                RecvTimeout::Closed => return None,
                RecvTimeout::TimedOut => {
                    self.stalled = true;
                    return None;
                }
            }
        }
    }
}

/// Refresh backend bridging the trainer's super-batch boundaries to the
/// session's dedicated refresh worker.
struct WorkerRefresh<'a> {
    tasks: &'a Bounded<RefreshTask>,
    outputs: &'a Bounded<RefreshOutput>,
    /// Cumulative time the train thread spent blocked in [`Self::collect`]
    /// waiting for the refresh worker. This is train-stage *starvation*
    /// (the training device idling on CPU work), and must be attributed to
    /// wait — not compute — or the measured occupancy would read ~1.0
    /// exactly when the refresh worker is the bottleneck, inverting the
    /// §4.1.3 feedback (the planner would keep hot vertices on the
    /// overloaded CPU instead of offloading them to the idle trainer).
    wait: Duration,
    /// Set when [`Self::collect`] found the output channel closed with a
    /// collect outstanding — the refresh worker died mid-task. The session
    /// supervisor checks this after the epoch and fails the session (the
    /// substituted empty output keeps the trainer unwedged until then).
    failed: bool,
}

impl RefreshBackend for WorkerRefresh<'_> {
    fn submit(&mut self, task: RefreshTask) -> CpuPart {
        match self.tasks.send_or_return(task) {
            None => CpuPart::Submitted,
            // Channel closed (teardown/panic path): compute locally so the
            // trainer's refresh schedule stays intact.
            Some(task) => CpuPart::Ready(task.run()),
        }
    }

    fn collect(&mut self) -> RefreshOutput {
        let t0 = Instant::now();
        let out = self.outputs.recv();
        self.wait += t0.elapsed();
        match out {
            Some(out) => out,
            // The refresh worker died between accepting the task and
            // producing rows (panic path: its channels are poisoned). Do
            // NOT panic here — that used to deadlock the other stages.
            // Hand back an empty output so the train thread stays live and
            // flag the failure for the supervisor to turn into a typed
            // session error at the epoch boundary.
            None => {
                self.failed = true;
                RefreshOutput::default()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// Engine configuration: the stage-graph shape plus the adaptive-split loop.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Stage thread counts, channel depth and simulated link (shared with
    /// the single-epoch executor).
    pub pipeline: PipelineConfig,
    /// Re-plan the hybrid hot-set split from measured train occupancy
    /// between epochs (§4.1.3 closed at runtime). When `false` the split
    /// stays wherever
    /// [`ConvergenceTrainer::set_refresh_cpu_fraction`] put it.
    pub adaptive_split: bool,
    /// Device memory the hybrid planner may spend on cached hot features.
    pub gpu_free_bytes: u64,
    /// EWMA weight of the newest occupancy measurement in the adaptive
    /// feedback signal: `s ← α·measured + (1−α)·s_prev`. `1.0` disables
    /// smoothing (raw per-epoch occupancy, the pre-v2 behaviour); smaller
    /// values damp per-epoch timer noise before it reaches the planner.
    pub occupancy_ewma_alpha: f64,
    /// Dead band of the split controller: a newly planned CPU fraction only
    /// replaces the installed one — and rebuilds the GPU feature cache —
    /// when it differs from it by more than this. Suppresses the ±0.1
    /// plan churn visible in `BENCH_engine.json` trajectories. The first
    /// plan of a session always installs (there is nothing to churn yet, and
    /// the cache must get populated).
    pub split_hysteresis: f64,
    /// Threads the refresh worker spreads each task's vertex list over
    /// (via [`RefreshTask::run_sharded`] — partition-stable, so any value
    /// is bit-identical). `0` means auto: one shard per available core.
    /// `1` keeps the pre-sharding serial behaviour.
    pub refresh_workers: usize,
    /// Capacity of the train→sample buffer return channel: how many spent
    /// [`BatchBuffers`] bundles the session keeps circulating. `0` means
    /// auto — enough to hold every bundle that can be in flight at once
    /// (three staging channels plus one per stage worker and reorder
    /// slack), so the end-of-epoch drain never overflows the pool and
    /// drops a grown bundle's capacity. Any value (even `1`) is
    /// bit-identical: a drained pool just means the sampler allocates
    /// fresh, exactly like the cold-start path.
    pub pool_batches: usize,
    /// Write a checkpoint after every epoch whose (absolute) number + 1 is
    /// a multiple of this. `0` disables checkpointing. The cadence keys on
    /// the absolute epoch, so a restored session checkpoints at the same
    /// boundaries the uninterrupted run would have.
    pub checkpoint_every: usize,
    /// Where the checkpoint file lives (atomically replaced at each write).
    /// Checkpointing needs both this and a nonzero
    /// [`Self::checkpoint_every`].
    pub checkpoint_path: Option<PathBuf>,
    /// Deterministic fault schedule consulted by the stage workers — test
    /// and drill harness, `None` in production runs.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// How long the train stage tolerates an empty staging channel (with
    /// work outstanding) before declaring the pipeline stalled.
    pub stall_timeout: Duration,
}

impl EngineConfig {
    /// Resolves [`Self::refresh_workers`]'s auto (`0`) setting.
    pub fn effective_refresh_workers(&self) -> usize {
        match self.refresh_workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            n => n,
        }
    }

    /// Resolves [`Self::pool_batches`]'s auto (`0`) setting. The auto size
    /// must cover the session's maximum in-flight bundle count — the three
    /// staging channels and the train loop's `lookahead` window
    /// ([`ConvergenceTrainer::lookahead`]; the last channel shrinks by it,
    /// [`PipelineConfig::train_feed_depth`]). If the pool can overflow
    /// during the end-of-epoch drain, `try_send` drops a warmed-up bundle
    /// and the next epoch re-grows a fresh one from zero, leaving
    /// steady-state allocation churn that never converges.
    pub fn effective_pool_batches(&self, lookahead: usize) -> usize {
        match self.pool_batches {
            0 => {
                2 * self.pipeline.channel_depth
                    + self.pipeline.train_feed_depth(lookahead)
                    + lookahead
                    + self.pipeline.sampler_threads
                    + self.pipeline.gather_threads
                    + 10
            }
            n => n,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            adaptive_split: true,
            gpu_free_bytes: 64 << 20,
            occupancy_ewma_alpha: 0.4,
            split_hysteresis: 0.05,
            refresh_workers: 0,
            pool_batches: 0,
            checkpoint_every: 0,
            checkpoint_path: None,
            fault_plan: None,
            stall_timeout: Duration::from_secs(5),
        }
    }
}

/// One epoch of a session: observation, stage report and the refresh split
/// that was in effect.
#[derive(Clone, Debug)]
pub struct EpochRun {
    /// Epoch number.
    pub epoch: usize,
    /// Loss/accuracy/staleness of the epoch.
    pub observation: EpochObservation,
    /// Measured per-stage breakdown.
    pub report: PipelineReport,
    /// CPU share of the hot-set refresh during this epoch (1.0 = all
    /// refreshes on the CPU worker).
    pub refresh_cpu_fraction: f64,
    /// Busy seconds the background refresh worker spent *during this
    /// epoch's wall-clock window*. A refresh submitted at an epoch's last
    /// super-batch boundary mostly executes early in the next epoch, so its
    /// time is credited where it physically ran — per-epoch values describe
    /// worker load over time, not per-epoch task provenance.
    pub refresh_seconds: f64,
    /// Hot rows put on refresh worklists during this epoch, both shares:
    /// what the next super-batch reads, or the whole hot set at the
    /// epoch's last boundary and at priming.
    pub refresh_rows: u64,
    /// Seconds spent in test-set evaluation after the epoch — inference,
    /// kept out of `report.epoch_seconds` so throughput numbers measure
    /// training only.
    pub eval_seconds: f64,
    /// Vertices resident in the GPU feature cache *during* this epoch (the
    /// snapshot the gather workers probed; rebuilds planned at the end of
    /// the epoch take effect in the next one).
    pub cache_vertices: usize,
    /// EWMA-smoothed train occupancy after folding in this epoch's
    /// measurement — the signal the planner actually sees. Equals the raw
    /// measurement when the adaptive split is off.
    pub smoothed_occupancy: f64,
    /// Heap allocations attributed per stage during this epoch's training
    /// window (gate open → last batch trained; evaluation excluded). All
    /// zero unless a [`neutron_tensor::alloc::CountingAllocator`] is
    /// installed and enabled — see `BENCH_engine.json`'s `allocs_per_epoch`.
    pub allocs: AllocSnapshot,
    /// Bytes of the checkpoint written at this epoch's boundary (0 when no
    /// checkpoint was due).
    pub checkpoint_bytes: u64,
    /// Wall-clock spent capturing + writing that checkpoint — measured
    /// outside `report.epoch_seconds`, so checkpoint cadence never skews
    /// the throughput trajectory (it is gated separately by
    /// `cargo xtask bench-diff`).
    pub checkpoint_seconds: f64,
}

/// What a whole session produced.
#[derive(Debug)]
pub struct SessionReport {
    /// Per-epoch results, in order.
    pub epochs: Vec<EpochRun>,
    /// Worker threads spawned — once per session, independent of epoch
    /// count (samplers + gatherers + transfer + refresh).
    pub workers_spawned: usize,
    /// Gate generations opened (== epochs run).
    pub generations: u64,
    /// Wall-clock from session start to all workers spawned — the one-time
    /// cost the persistent pool amortises over every epoch (the respawn
    /// path pays it per epoch).
    pub startup_seconds: f64,
}

impl SessionReport {
    /// The adaptive split's trajectory: CPU refresh share per epoch.
    pub fn cpu_fraction_trajectory(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.refresh_cpu_fraction).collect()
    }

    /// Host→device bytes shipped per epoch — the trajectory that drops as
    /// the planner shifts hot vertices into the GPU feature cache.
    pub fn h2d_bytes_trajectory(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.report.h2d_bytes).collect()
    }

    /// Summed wall-clock of all epochs.
    pub fn total_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.report.epoch_seconds).sum()
    }
}

/// The persistent multi-epoch training engine (see module docs).
pub struct TrainingEngine {
    config: EngineConfig,
}

impl TrainingEngine {
    /// Builds an engine; thread counts must be positive.
    pub fn new(config: EngineConfig) -> Self {
        assert!(
            config.pipeline.sampler_threads > 0,
            "need at least one sampler thread"
        );
        assert!(
            config.pipeline.gather_threads > 0,
            "need at least one gather thread"
        );
        Self { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs `num_epochs` epochs starting at `first_epoch` over one
    /// persistent worker pool. Numerically identical to calling
    /// `trainer.train_epoch(e)` (or the sequential executor) for the same
    /// epochs, at any thread count and any hybrid split — concurrency and
    /// the adaptive planner change wall-clock and placement, never results.
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
    /// instead of panics: a panicking stage worker poisons the pipeline
    /// (closing every staging channel so no stage can block forever on a
    /// peer that died) and the session returns
    /// [`SessionError::WorkerPanicked`] carrying the worker's stage and
    /// panic payload; a producer that stops producing without exiting trips
    /// the [`EngineConfig::stall_timeout`] and returns
    /// [`SessionError::Stalled`].
    pub fn run_session_checked(
        &self,
        trainer: &mut ConvergenceTrainer,
        first_epoch: usize,
        num_epochs: usize,
    ) -> Result<SessionReport, SessionError> {
        let pcfg = &self.config.pipeline;
        let dataset = trainer.dataset_handle();
        let sampler = trainer.sampler().clone();
        let config_seed = trainer.config().seed;
        let policy = HybridPolicy {
            feature_row_bytes: dataset.spec.feature_row_bytes(),
            embedding_row_bytes: dataset.spec.hidden_row_bytes(),
        };

        let gate = EpochGate::new();
        let sampled: Bounded<SampledItem> = Bounded::new(pcfg.channel_depth);
        let prepared: Bounded<StagedBatch> = Bounded::new(pcfg.channel_depth);
        // The train loop holds `lookahead` batches itself; they count
        // against the depth of the channel that feeds it.
        let lookahead = trainer.lookahead();
        let ready: Bounded<StagedBatch> = Bounded::new(pcfg.train_feed_depth(lookahead));
        // The return path: spent per-batch buffer bundles flow train→sample
        // against the forward channels, making steady-state epochs (near)
        // allocation-free. Both ends are non-blocking (`try_*`): an empty
        // pool allocates fresh, a full pool drops the surplus bundle.
        let pool: Bounded<BatchBuffers> =
            Bounded::new(self.config.effective_pool_batches(lookahead));
        let tasks: Bounded<RefreshTask> = Bounded::new(1);
        let outputs: Bounded<RefreshOutput> = Bounded::new(1);
        let live_samplers = AtomicUsize::new(pcfg.sampler_threads);
        let live_gatherers = AtomicUsize::new(pcfg.gather_threads);
        let sample_busy = BusyNs::default();
        let gather_busy = BusyNs::default();
        let transfer_busy = BusyNs::default();
        let refresh_busy = BusyNs::default();
        let h2d_bytes = AtomicU64::new(0);
        // samplers + gatherers + transfer + refresh, spawned exactly once.
        let workers_spawned = pcfg.sampler_threads + pcfg.gather_threads + 2;

        // Fault-tolerance plumbing: where panicking workers report in, the
        // failure/recovery timeline surfaced per epoch, the flag that frees
        // an (injected) stalled worker at teardown so the scope can join
        // it, and the deterministic fault schedule the workers consult.
        let failures = FailureCell::default();
        let timeline: Mutex<Vec<FailureEvent>> = Mutex::new(Vec::new());
        let stall_release = AtomicBool::new(false);
        let fault_plan = self.config.fault_plan.as_deref();
        let checkpoint_on =
            self.config.checkpoint_every > 0 && self.config.checkpoint_path.is_some();
        let digest = checkpoint::config_digest(trainer.config(), 1);

        // A panicking stage worker cannot just die: its peers may be
        // blocked in `send` on a full channel only the dead worker
        // would have drained (the liveness Defers handle *clean* exits,
        // not a consumer that vanishes with its input open). Poisoning
        // closes every staging channel so all stages unblock, then the
        // supervisor reports the recorded panic as a typed error.
        let poison = |stage: &'static str, payload: Box<dyn std::any::Any + Send>| {
            failures.record(stage, panic_message(payload));
            gate.shutdown();
            sampled.close();
            prepared.close();
            ready.close();
            tasks.close();
            outputs.close();
        };

        let mut runs: Vec<EpochRun> = Vec::with_capacity(num_epochs);
        let mut startup_seconds = 0.0;
        let session_start = Instant::now();
        let outcome: Result<(), SessionError> = std::thread::scope(|scope| {
            // If the train stage (this thread) panics or errors, unblock
            // every worker so `thread::scope` can join them and propagate
            // the failure instead of deadlocking.
            let _teardown = Defer(|| {
                stall_release.store(true, Ordering::Release);
                gate.shutdown();
                sampled.close();
                prepared.close();
                ready.close();
                pool.close();
                tasks.close();
                outputs.close();
            });
            // Shadow the shared state as references so the `move` worker
            // closures (which must own their loop index) capture borrows,
            // not the values.
            let (gate, sampled, prepared, ready, pool, tasks, outputs) =
                (&gate, &sampled, &prepared, &ready, &pool, &tasks, &outputs);
            let (live_samplers, live_gatherers) = (&live_samplers, &live_gatherers);
            let (sample_busy, gather_busy, transfer_busy, refresh_busy) =
                (&sample_busy, &gather_busy, &transfer_busy, &refresh_busy);
            let (h2d_bytes, dataset, sampler) = (&h2d_bytes, &dataset, &sampler);
            let (timeline, stall_release) = (&timeline, &stall_release);
            for w in 0..pcfg.sampler_threads {
                let poison = &poison;
                scope.spawn(move || {
                    // When the last sampler exits (shutdown), close the
                    // sampled channel so gather workers drain and exit too.
                    let _liveness = Defer(|| {
                        if live_samplers.fetch_sub(1, Ordering::AcqRel) == 1 {
                            sampled.close();
                        }
                    });
                    alloc::set_stage(Stage::Sample);
                    let body = AssertUnwindSafe(|| {
                        let mut builder = BlockBuilder::new();
                        let mut seen = 0u64;
                        while let Some(job) = gate.wait_past(seen) {
                            seen = job.generation;
                            let total = job.batches.len();
                            loop {
                                // Injected crash: a clean exit *before*
                                // claiming a batch — the shared claim
                                // counter lets the surviving samplers steal
                                // every remaining batch, so the session
                                // completes bit-identically.
                                if let Some(plan) = fault_plan {
                                    let reached = job.next.load(Ordering::Relaxed);
                                    if plan.take_crash(w, job.epoch, reached) {
                                        timeline.lock().unwrap().push(FailureEvent {
                                            epoch: job.epoch,
                                            step: reached,
                                            replica: w,
                                            detail: "injected sampler crash (clean exit); peers steal its work".into(),
                                            action: FailureAction::Observed,
                                        });
                                        return;
                                    }
                                }
                                let i = job.next.fetch_add(1, Ordering::Relaxed);
                                if i >= total {
                                    break;
                                }
                                if let Some(kind) = fault_plan.and_then(|p| p.take(w, job.epoch, i))
                                {
                                    match kind {
                                        FaultKind::Crash => unreachable!("crash is pre-claim"),
                                        FaultKind::Panic => {
                                            timeline.lock().unwrap().push(FailureEvent {
                                                epoch: job.epoch,
                                                step: i,
                                                replica: w,
                                                detail: "injected sampler panic".into(),
                                                action: FailureAction::Failed,
                                            });
                                            panic!(
                                                "injected fault: sampler {w} panicked at epoch {} step {i}",
                                                job.epoch
                                            );
                                        }
                                        FaultKind::Stall => {
                                            // Alive but never producing
                                            // again: batch `i` is claimed
                                            // and will never arrive, which
                                            // is exactly what the stall
                                            // timeout must detect. Exits
                                            // only at teardown so the
                                            // scope can join.
                                            timeline.lock().unwrap().push(FailureEvent {
                                                epoch: job.epoch,
                                                step: i,
                                                replica: w,
                                                detail: "injected sampler stall".into(),
                                                action: FailureAction::Observed,
                                            });
                                            while !stall_release.load(Ordering::Acquire) {
                                                std::thread::sleep(Duration::from_millis(1));
                                            }
                                            return;
                                        }
                                        FaultKind::Straggler => {
                                            // Transient slowdown; recovers
                                            // and processes the batch, so
                                            // results are bit-identical.
                                            timeline.lock().unwrap().push(FailureEvent {
                                                epoch: job.epoch,
                                                step: i,
                                                replica: w,
                                                detail: "injected straggler delay (25ms)".into(),
                                                action: FailureAction::Observed,
                                            });
                                            std::thread::sleep(Duration::from_millis(25));
                                        }
                                    }
                                }
                                let t0 = Instant::now();
                                // Feed the builder a recycled bundle's block
                                // capacity (if one is back from the train
                                // stage), then sample into it. Identical RNG
                                // stream and results either way.
                                let mut bufs = pool.try_recv().unwrap_or_default();
                                bufs.donate_to(&mut builder);
                                let blocks = sampler.sample_batch_pooled(
                                    &dataset.csr,
                                    job.batches.batch(i),
                                    batch_sample_seed(config_seed, job.epoch, i),
                                    &mut builder,
                                );
                                sample_busy.add(t0);
                                let item = SampledItem {
                                    index: i,
                                    blocks,
                                    cache: Arc::clone(&job.cache),
                                    bufs,
                                };
                                if !sampled.send(item) {
                                    return;
                                }
                            }
                        }
                    });
                    if let Err(payload) = catch_unwind(body) {
                        poison("sample", payload);
                    }
                });
            }
            for _ in 0..pcfg.gather_threads {
                let poison = &poison;
                scope.spawn(move || {
                    let _liveness = Defer(|| {
                        if live_gatherers.fetch_sub(1, Ordering::AcqRel) == 1 {
                            prepared.close();
                        }
                    });
                    alloc::set_stage(Stage::Gather);
                    let body = AssertUnwindSafe(|| {
                        while let Some(item) = sampled.recv() {
                            let SampledItem {
                                index,
                                blocks,
                                cache,
                                mut bufs,
                            } = item;
                            let t0 = Instant::now();
                            // Cache-keyed gather: probe the epoch's cache
                            // snapshot and host-gather only the misses,
                            // drawing position/miss buffers from the
                            // recycled bundle.
                            let features = GatheredFeatures::gather_pooled(
                                dataset, &blocks[0], &cache, &mut bufs,
                            );
                            gather_busy.add(t0);
                            if !prepared.send(StagedBatch {
                                index,
                                blocks,
                                features,
                                bufs,
                            }) {
                                break;
                            }
                        }
                    });
                    if let Err(payload) = catch_unwind(body) {
                        poison("gather", payload);
                    }
                });
            }
            {
                let poison = &poison;
                scope.spawn(move || {
                    let _liveness = Defer(|| ready.close());
                    alloc::set_stage(Stage::Transfer);
                    let body = AssertUnwindSafe(|| {
                        while let Some(batch) = prepared.recv() {
                            let t0 = Instant::now();
                            transfer_stage(pcfg, &batch, h2d_bytes);
                            transfer_busy.add(t0);
                            if !ready.send(batch) {
                                break;
                            }
                        }
                    });
                    if let Err(payload) = catch_unwind(body) {
                        poison("transfer", payload);
                    }
                });
            }
            {
                let poison = &poison;
                scope.spawn(move || {
                    let _liveness = Defer(|| outputs.close());
                    alloc::set_stage(Stage::Refresh);
                    let body = AssertUnwindSafe(|| {
                        let shard_workers = self.config.effective_refresh_workers();
                        let mut scratch = SamplerScratch::new();
                        while let Some(task) = tasks.recv() {
                            let t0 = Instant::now();
                            // Sharding is placement-only: run_sharded
                            // concatenates partition-stable shards in
                            // order, so the rows are the serial rows bit
                            // for bit at any worker count.
                            let out = if shard_workers > 1 {
                                task.run_sharded(shard_workers)
                            } else {
                                task.run_with_scratch(&mut scratch)
                            };
                            refresh_busy.add(t0);
                            if !outputs.send(out) {
                                break;
                            }
                        }
                    });
                    if let Err(payload) = catch_unwind(body) {
                        poison("refresh", payload);
                    }
                });
            }

            startup_seconds = session_start.elapsed().as_secs_f64();
            let mut backend = WorkerRefresh {
                tasks,
                outputs,
                wait: Duration::ZERO,
                failed: false,
            };
            // Adaptive-split v2 controller state: the GPU feature cache in
            // effect (empty until the first plan installs), the EWMA of the
            // measured occupancy, and whether any plan has installed yet
            // (the first one always does; hysteresis only damps changes
            // *between* plans).
            let mut epoch_cache: Arc<FeatureCache> = Arc::new(FeatureCache::empty());
            let mut smoothed_occupancy: Option<f64> = None;
            let mut split_installed = false;
            // Session-lifetime hot-path state: the train thread's stage tag,
            // the reused reorder window, and the recycled epoch-batch Arcs.
            // `prev`/`spare` lag the recycling by one epoch because the gate
            // holds the current job (and its Arc) until the next `open`;
            // the epoch-before-last is guaranteed unreferenced by then.
            let caller_stage = alloc::set_stage(Stage::Train);
            // Restore the caller's alloc stage on every exit path — the
            // typed-error returns below bail out mid-loop.
            let _restore_stage = Defer(move || {
                alloc::set_stage(caller_stage);
            });
            let mut reorder_window: VecDeque<Option<StagedBatch>> = VecDeque::new();
            let mut spare_batches: Option<Arc<EpochBatches>> = None;
            let mut prev_batches: Option<Arc<EpochBatches>> = None;
            for e in 0..num_epochs {
                let epoch = first_epoch + e;
                let mut epoch_ids = spare_batches
                    .take()
                    .and_then(|arc| Arc::try_unwrap(arc).ok())
                    .unwrap_or_default();
                trainer.fill_epoch_batches(epoch, &mut epoch_ids);
                let batches = Arc::new(epoch_ids);
                let total = batches.len();
                let before = (
                    sample_busy.seconds(),
                    gather_busy.seconds(),
                    transfer_busy.seconds(),
                    refresh_busy.seconds(),
                    h2d_bytes.load(Ordering::Relaxed),
                );
                let refresh_cpu_fraction = trainer.refresh_cpu_fraction();
                let refresh_rows_before = trainer.refresh_rows();
                let collect_wait_before = backend.wait;
                let alloc_before = alloc::snapshot();

                let wall = Instant::now();
                gate.open(EpochJob {
                    generation: e as u64 + 1,
                    epoch,
                    batches: Arc::clone(&batches),
                    next: Arc::new(AtomicUsize::new(0)),
                    cache: Arc::clone(&epoch_cache),
                });
                // Train stage on the calling thread: in-order, owns the
                // model; super-batch refreshes flow through the worker.
                // Device-side feature assembly (cache rows + shipped miss
                // rows) happens here, after the transfer stage — hits never
                // cross the simulated link.
                let mut reorder =
                    EpochReorder::new(ready, total, &mut reorder_window, self.config.stall_timeout);
                let mut cache_hits = 0u64;
                let mut cache_misses = 0u64;
                let stats = {
                    let assembly_cache = Arc::clone(&epoch_cache);
                    let feed = (&mut reorder).map(|staged| {
                        cache_hits += staged.features.num_hits() as u64;
                        cache_misses += staged.features.num_misses() as u64;
                        staged.into_prepared(&assembly_cache)
                    });
                    // After each batch trains, dismantle it into its buffer
                    // bundle and push that down the return channel. Purely
                    // a capacity transfer — the batch's numbers are already
                    // folded into the model, so recycling cannot perturb
                    // results at any pool size.
                    trainer.train_batches_recycling(feed, &mut backend, |mut item| {
                        let mut bufs = std::mem::take(&mut item.scrap);
                        bufs.put_f32(std::mem::take(&mut item.features).into_vec());
                        bufs.recycle_blocks(std::mem::take(&mut item.blocks));
                        let _ = pool.try_send(bufs);
                    })
                };
                let epoch_seconds = wall.elapsed().as_secs_f64();
                // Leftover-batch guard: train_batches_with consumes every
                // batch today, but the channels persist across epochs and
                // indices restart at 0 each epoch — if it ever gains an
                // early-exit path, undelivered batches must not leak into
                // the next epoch's reorderer (they would alias its indices
                // and be trained on silently). Drain them here.
                while reorder.next().is_some() {}
                // Close the per-epoch allocation window before evaluation:
                // eval is inference, and its allocations are tagged `Other`
                // so they can never masquerade as hot-path staging churn.
                let allocs = alloc::snapshot().since(&alloc_before);
                // Supervision: turn whatever kept the epoch from completing
                // into a typed error *now*, instead of evaluating (and
                // reporting) a half-trained epoch. Order matters — a panic
                // poisons channels and therefore also looks like an early
                // close, so check the panic record first.
                if let Some(err) = failures.first() {
                    return Err(err);
                }
                if backend.failed {
                    return Err(SessionError::WorkerPanicked {
                        stage: "refresh",
                        message: "refresh worker died with a collect outstanding".into(),
                    });
                }
                if reorder.stalled {
                    let step = reorder.next_index;
                    timeline.lock().unwrap().push(FailureEvent {
                        epoch,
                        step,
                        replica: 0,
                        detail: format!(
                            "pipeline stalled: batch {step} never arrived within {:?}",
                            self.config.stall_timeout
                        ),
                        action: FailureAction::Failed,
                    });
                    return Err(SessionError::Stalled {
                        epoch,
                        step,
                        timeout: self.config.stall_timeout,
                    });
                }
                if reorder.remaining > 0 {
                    return Err(SessionError::EpochIncomplete {
                        epoch,
                        trained: total - reorder.remaining,
                        total,
                    });
                }

                let t_eval = Instant::now();
                let pre_eval_stage = alloc::set_stage(Stage::Other);
                let observation = trainer.observe_epoch(stats);
                alloc::set_stage(pre_eval_stage);
                let eval_seconds = t_eval.elapsed().as_secs_f64();
                // Starvation = blocked on upstream batches + blocked on the
                // refresh worker at super-batch boundaries (see
                // `WorkerRefresh::wait`).
                let train_wait =
                    (reorder.wait + (backend.wait - collect_wait_before)).as_secs_f64();
                let report = PipelineReport {
                    epoch_seconds,
                    num_batches: total,
                    sample_seconds: sample_busy.seconds() - before.0,
                    gather_collect_seconds: gather_busy.seconds() - before.1,
                    transfer_seconds: transfer_busy.seconds() - before.2,
                    train_seconds: (epoch_seconds - train_wait).max(0.0),
                    train_wait_seconds: train_wait,
                    h2d_bytes: h2d_bytes.load(Ordering::Relaxed) - before.4,
                    reorder_peak: reorder.peak,
                    cache_hits,
                    cache_misses,
                    failures: std::mem::take(&mut *timeline.lock().unwrap()),
                };
                // §4.1.3/§4.3 feedback, v2: smooth the measured occupancy
                // with an EWMA, plan from the smoothed signal, and only
                // install (and rebuild the feature cache) when the planned
                // split leaves the hysteresis band around the installed one
                // — timer noise must not churn the cache. Placement and
                // caching only: the refresh rows and the assembled feature
                // matrices are split-invariant, so results never change.
                let cache_vertices = epoch_cache.len();
                let measured = report.train_occupancy();
                let mut smoothed_this = measured;
                if self.config.adaptive_split {
                    if let Some(hot) = trainer.hot_set() {
                        let alpha = self.config.occupancy_ewma_alpha;
                        smoothed_this = match smoothed_occupancy {
                            None => measured,
                            Some(prev) => alpha * measured + (1.0 - alpha) * prev,
                        };
                        smoothed_occupancy = Some(smoothed_this);
                        let plan = policy.plan_from_occupancy(
                            hot,
                            smoothed_this,
                            self.config.gpu_free_bytes,
                        );
                        let planned = plan.cpu_fraction();
                        let installed = trainer.refresh_cpu_fraction();
                        if !split_installed
                            || (planned - installed).abs() > self.config.split_hysteresis
                        {
                            split_installed = true;
                            trainer.set_refresh_cpu_fraction(planned);
                            epoch_cache = Arc::new(if plan.gpu_cache.is_empty() {
                                FeatureCache::empty()
                            } else {
                                FeatureCache::for_vertices(
                                    &plan.gpu_cache,
                                    dataset.csr.num_vertices(),
                                    dataset.features().as_slice(),
                                    dataset.spec.feature_dim,
                                )
                            });
                        }
                    }
                }
                runs.push(EpochRun {
                    epoch,
                    observation,
                    report,
                    refresh_cpu_fraction,
                    refresh_seconds: refresh_busy.seconds() - before.3,
                    refresh_rows: trainer.refresh_rows() - refresh_rows_before,
                    eval_seconds,
                    cache_vertices,
                    smoothed_occupancy: smoothed_this,
                    allocs,
                    checkpoint_bytes: 0,
                    checkpoint_seconds: 0.0,
                });
                // Checkpoint at the epoch boundary, after the epoch's
                // wall-clock window closed — checkpoint cost is measured
                // and gated separately, never folded into epoch_seconds.
                // `capture_state` settles the in-flight refresh first
                // (numerically identical), so the file is a complete,
                // self-contained resume point.
                if checkpoint_on && (epoch + 1).is_multiple_of(self.config.checkpoint_every) {
                    let t0 = Instant::now();
                    let state = trainer.capture_state(&mut backend);
                    let ck = Checkpoint {
                        next_epoch: epoch as u64 + 1,
                        replicas: 1,
                        rng_seeds: vec![config_seed],
                        state,
                    };
                    let path = self.config.checkpoint_path.as_ref().unwrap();
                    let bytes = checkpoint::save(path, digest, &ck)?;
                    let run = runs.last_mut().unwrap();
                    run.checkpoint_bytes = bytes;
                    run.checkpoint_seconds = t0.elapsed().as_secs_f64();
                }
                spare_batches = prev_batches.take();
                prev_batches = Some(batches);
            }
            // Resolve any refresh still on the worker so the trainer can
            // outlive this session (the rows publish at a later boundary).
            trainer.settle_refresh(&mut backend);
            if let Some(err) = failures.first() {
                return Err(err);
            }
            Ok(())
        });
        outcome?;

        Ok(SessionReport {
            epochs: runs,
            workers_spawned,
            generations: num_epochs as u64,
            startup_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{ReusePolicy, TrainerConfig};
    use neutron_graph::DatasetSpec;
    use neutron_nn::LayerKind;
    use neutron_tensor::Matrix;

    fn trainer(policy: ReusePolicy) -> ConvergenceTrainer {
        let ds = DatasetSpec::tiny().build_full();
        let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
        cfg.batch_size = 64;
        cfg.lr = 0.5;
        ConvergenceTrainer::new(ds, cfg)
    }

    #[test]
    fn bounded_channel_blocks_at_capacity_and_drains_after_close() {
        let ch: Arc<Bounded<u32>> = Arc::new(Bounded::new(2));
        let producer = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || {
                for i in 0..10 {
                    assert!(ch.send(i));
                }
                ch.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = ch.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // After close, sends hand the item back and recv keeps seeing None.
        assert!(!ch.send(99));
        assert_eq!(ch.send_or_return(7), Some(7));
        assert!(ch.recv().is_none());
    }

    #[test]
    fn try_ops_never_block_and_bounce_at_capacity_or_close() {
        let ch: Bounded<u32> = Bounded::new(2);
        assert_eq!(ch.try_recv(), None, "empty channel yields nothing");
        assert_eq!(ch.try_send(1), None);
        assert_eq!(ch.try_send(2), None);
        assert_eq!(ch.try_send(3), Some(3), "full channel bounces the item");
        assert_eq!(ch.try_recv(), Some(2), "try_recv is LIFO: hottest first");
        assert_eq!(ch.try_send(3), None, "recv made room");
        ch.close();
        assert_eq!(ch.try_send(4), Some(4), "closed channel bounces");
        // A closed channel still drains — the pool's teardown path.
        assert_eq!(ch.try_recv(), Some(3));
        assert_eq!(ch.try_recv(), Some(1));
        assert_eq!(ch.try_recv(), None);
    }

    #[test]
    fn epoch_reorder_restores_order_and_stops_at_count() {
        let ch: Bounded<StagedBatch> = Bounded::new(8);
        for index in [2usize, 0, 1, 3] {
            ch.send(StagedBatch {
                index,
                blocks: Vec::new(),
                features: GatheredFeatures::dense(Matrix::zeros(1, 1)),
                bufs: BatchBuffers::new(),
            });
        }
        // Note: not closed — the channel outlives epochs in a session.
        let mut window = VecDeque::new();
        let mut reorder = EpochReorder::new(&ch, 4, &mut window, Duration::from_secs(5));
        let order: Vec<usize> = (&mut reorder).map(|b| b.index).collect();
        let peak = reorder.peak;
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(peak, 2, "2 was buffered while 0 then 1 arrived");
        assert!(window.is_empty(), "reused window drains with the epoch");
    }

    #[test]
    fn gate_wakes_workers_per_generation_and_shuts_down() {
        let gate = Arc::new(EpochGate::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let worker = {
            let gate = Arc::clone(&gate);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut last = 0u64;
                while let Some(job) = gate.wait_past(last) {
                    last = job.generation;
                    seen.lock().unwrap().push(job.epoch);
                }
            })
        };
        for (generation, epoch) in [(1u64, 5usize), (2, 6), (3, 7)] {
            gate.open(EpochJob {
                generation,
                epoch,
                batches: Arc::new(EpochBatches::default()),
                next: Arc::new(AtomicUsize::new(0)),
                cache: Arc::new(FeatureCache::empty()),
            });
            // Wait until the worker consumed this generation before the next.
            while seen.lock().unwrap().len() < generation as usize {
                std::thread::yield_now();
            }
        }
        gate.shutdown();
        worker.join().unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![5, 6, 7]);
    }

    #[test]
    fn session_matches_repeated_sequential_epochs_exactly() {
        let mut seq = trainer(ReusePolicy::Exact);
        let mut eng = trainer(ReusePolicy::Exact);
        let engine = TrainingEngine::new(EngineConfig {
            pipeline: PipelineConfig {
                sampler_threads: 3,
                gather_threads: 2,
                channel_depth: 2,
                h2d_gibps: 0.0,
            },
            ..EngineConfig::default()
        });
        let session = engine.run_session(&mut eng, 0, 3);
        assert_eq!(session.epochs.len(), 3);
        assert_eq!(session.workers_spawned, 3 + 2 + 1 + 1);
        for run in &session.epochs {
            let a = seq.train_epoch(run.epoch);
            assert_eq!(a.train_loss, run.observation.train_loss);
            assert_eq!(a.test_accuracy, run.observation.test_accuracy);
        }
    }

    #[test]
    fn session_keeps_staleness_bound_with_background_refresh() {
        let n = 2;
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: n,
        });
        let engine = TrainingEngine::new(EngineConfig::default());
        let session = engine.run_session(&mut t, 0, 4);
        for run in &session.epochs {
            assert!(
                run.observation.max_staleness < 2 * n as u64,
                "epoch {}: gap {} ≥ 2n",
                run.epoch,
                run.observation.max_staleness
            );
        }
        assert!(t.embedding_reuses() > 0);
        // The refresh worker actually carried refresh work.
        assert!(
            session
                .epochs
                .iter()
                .map(|e| e.refresh_seconds)
                .sum::<f64>()
                > 0.0
        );
    }

    #[test]
    fn adaptive_split_replans_between_epochs() {
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        });
        let engine = TrainingEngine::new(EngineConfig::default());
        let session = engine.run_session(&mut t, 0, 3);
        let traj = session.cpu_fraction_trajectory();
        // Epoch 0 always starts all-CPU; later epochs follow the measured
        // plan (whatever it is, it must be a valid fraction).
        assert_eq!(traj[0], 1.0);
        assert!(traj.iter().all(|f| (0.0..=1.0).contains(f)));
    }
}
