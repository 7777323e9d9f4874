//! The staged runner: what a [`Session`] executes at `replicas == 1`.
//!
//! The stage graph stays alive for a whole *session*:
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
//!   spawned exactly once per session. Between epochs the samplers park on
//!   the [`EpochGate`], a generation-stamped barrier: the train thread
//!   publishes the next epoch's batch list under a new generation and the
//!   workers wake, claim batch indices from the job's shared counter, and
//!   go back to waiting when the counter runs dry. Gather/transfer workers
//!   park implicitly on their empty input channels. Multi-epoch runs pay
//!   thread startup once, not per epoch.
//! - **Allocation-free steady state** — after each batch trains, its spent
//!   buffers ([`BatchBuffers`]) flow back to the sampler pool through a
//!   bounded return channel and are refilled in place; the epoch-batch
//!   list, the train-side reorder window and every per-batch vector reuse
//!   session-lifetime capacity. Warm epochs allocate (near) nothing on the
//!   sample/gather/transfer hot path — measured per stage by
//!   [`neutron_tensor::alloc`] and regression-gated by
//!   `tests/alloc_budget.rs`.
//! - **Pipelined, demand-driven refresh (Fig 8, §4.2)** — the train loop
//!   keeps `2n−1` staged batches in hand
//!   ([`ConvergenceTrainer::lookahead`]; they count against
//!   `channel_depth`, not on top of it), so at each super-batch boundary it
//!   already holds the next super-batch. The trainer snapshots its
//!   bottom-layer parameters into a [`RefreshTask`] over the hot rows those
//!   batches read and hands the CPU share to the dedicated refresh worker;
//!   the rows are collected and published one boundary later
//!   (see [`ConvergenceTrainer::train_steps_replicated`]), so the refresh
//!   overlaps training and historical reads keep the `< 2n` version-gap
//!   bound.
//! - **Occupancy-driven hybrid split (§4.1.3/§4.3)** — after every epoch
//!   the runner feeds the measured [`PipelineReport::train_occupancy`] into
//!   [`HybridPolicy::plan_from_occupancy`] and installs the planned CPU
//!   fraction for the next epoch's refreshes: a starved train stage pulls
//!   hot vertices onto the training device's cache, a saturated one pushes
//!   them back to the CPU. The split moves *work between devices*, never
//!   numbers: refresh tasks are partition-stable pure functions of their
//!   parameter snapshot, so the loss trajectory is bit-identical to the
//!   sequential trainer at every thread count and every split.
//!
//! The module also owns the concurrency primitives both runners build on
//! (`Bounded`, `BusyNs`, `Defer`).

use crate::gather::{GatheredFeatures, StagedBatch};
use crate::pipeline::{PipelineConfig, PipelineReport};
use crate::pool::BatchBuffers;
use crate::refresh::{CpuPart, RefreshBackend, RefreshOutput, RefreshTask};
use crate::session::{
    recycle_into, BatchRing, Checkpointer, EpochRun, Session, SessionConfig, SessionError,
    SessionReport, StageCounters, Supervisor,
};
use crate::trainer::{batch_sample_seed, ConvergenceTrainer};
use neutron_cache::{FeatureCache, HybridPolicy};
use neutron_sample::{Block, BlockBuilder, EpochBatches, SamplerScratch};
use neutron_tensor::alloc::{self, Stage};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The R = 1 spelling of [`Session`], kept for callers that name it.
pub type TrainingEngine = Session;
/// The R = 1 spelling of [`SessionConfig`], kept for callers that name it.
pub type EngineConfig = SessionConfig;

// ---------------------------------------------------------------------------
// Concurrency primitives shared with the fused runner and the sequential
// baseline.
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
    /// across epochs (see [`BatchRing`]): one flat id buffer serves the
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
// The staged runner.
// ---------------------------------------------------------------------------

/// EWMA weight of the newest occupancy measurement in the adaptive-split
/// feedback signal: `s ← α·measured + (1−α)·s_prev`. Damps per-epoch timer
/// noise before it reaches the planner.
const OCCUPANCY_EWMA_ALPHA: f64 = 0.4;

/// Dead band of the split controller: a newly planned CPU fraction only
/// replaces the installed one — and rebuilds the GPU feature cache — when
/// it differs from it by more than this. The first plan of a session
/// always installs (there is nothing to churn yet, and the cache must get
/// populated).
const SPLIT_HYSTERESIS: f64 = 0.05;

/// Capacity of the train→sample buffer return channel. The auto size must
/// cover the session's maximum in-flight bundle count — the three staging
/// channels and the train loop's `lookahead` window
/// ([`ConvergenceTrainer::lookahead`]; the last channel shrinks by it,
/// [`PipelineConfig::train_feed_depth`]). If the pool can overflow during
/// the end-of-epoch drain, `try_send` drops a warmed-up bundle and the next
/// epoch re-grows a fresh one from zero, leaving steady-state allocation
/// churn that never converges.
fn pool_capacity(config: &SessionConfig, lookahead: usize) -> usize {
    match config.pool_batches {
        0 => {
            2 * config.pipeline.channel_depth
                + config.pipeline.train_feed_depth(lookahead)
                + lookahead
                + config.pipeline.sampler_threads
                + config.pipeline.gather_threads
                + 10
        }
        n => n,
    }
}

/// Runs the session on the staged sampler/gather/transfer/refresh pool —
/// [`Session::run_session_checked`] at `replicas == 1`.
pub(crate) fn run_staged(
    config: &SessionConfig,
    trainer: &mut ConvergenceTrainer,
    first_epoch: usize,
    num_epochs: usize,
) -> Result<SessionReport, SessionError> {
    let pcfg = &config.pipeline;
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
    let pool: Bounded<BatchBuffers> = Bounded::new(pool_capacity(config, lookahead));
    let tasks: Bounded<RefreshTask> = Bounded::new(1);
    let outputs: Bounded<RefreshOutput> = Bounded::new(1);
    let live_samplers = AtomicUsize::new(pcfg.sampler_threads);
    let live_gatherers = AtomicUsize::new(pcfg.gather_threads);
    let counters = StageCounters::default();
    let refresh_busy = BusyNs::default();
    // samplers + gatherers + transfer + refresh, spawned exactly once.
    let workers_spawned = pcfg.sampler_threads + pcfg.gather_threads + 2;

    let supervisor = Supervisor::new(config.fault_plan.clone());
    let checkpointer = Checkpointer::new(config, trainer);

    // A panicking stage worker cannot just die: its peers may be
    // blocked in `send` on a full channel only the dead worker
    // would have drained (the liveness Defers handle *clean* exits,
    // not a consumer that vanishes with its input open). Poisoning
    // closes every staging channel so all stages unblock, then the
    // train thread reports the recorded panic as a typed error.
    let close_staging = || {
        gate.shutdown();
        sampled.close();
        prepared.close();
        ready.close();
        tasks.close();
        outputs.close();
    };
    let poison = |stage: &'static str, payload: Box<dyn std::any::Any + Send>| {
        supervisor.record_panic(stage, payload);
        close_staging();
    };

    let mut runs: Vec<EpochRun> = Vec::with_capacity(num_epochs);
    let mut startup_seconds = 0.0;
    let session_start = Instant::now();
    let outcome: Result<(), SessionError> = std::thread::scope(|scope| {
        // If the train stage (this thread) panics or errors, unblock
        // every worker so `thread::scope` can join them and propagate
        // the failure instead of deadlocking.
        let _teardown = Defer(|| {
            supervisor.tear_down();
            close_staging();
            pool.close();
        });
        // Shadow the shared state as references so the `move` worker
        // closures (which must own their loop index) capture borrows,
        // not the values.
        let (gate, sampled, prepared, ready, pool, tasks, outputs) =
            (&gate, &sampled, &prepared, &ready, &pool, &tasks, &outputs);
        let (live_samplers, live_gatherers) = (&live_samplers, &live_gatherers);
        let (counters, refresh_busy) = (&counters, &refresh_busy);
        let (dataset, sampler) = (&dataset, &sampler);
        let (supervisor, poison) = (&supervisor, &poison);
        for w in 0..pcfg.sampler_threads {
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
                            // An injected crash exits *before* claiming a
                            // batch: the shared claim counter lets the
                            // surviving samplers steal every remaining
                            // batch, so the session completes
                            // bit-identically.
                            let reached = job.next.load(Ordering::Relaxed);
                            if supervisor.crash_due("sampler", w, job.epoch, reached) {
                                return;
                            }
                            let i = job.next.fetch_add(1, Ordering::Relaxed);
                            if i >= total {
                                break;
                            }
                            if supervisor
                                .after_claim("sampler", w, job.epoch, i)
                                .is_break()
                            {
                                return;
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
                            counters.sample_busy.add(t0);
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
                        let features =
                            GatheredFeatures::gather_pooled(dataset, &blocks[0], &cache, &mut bufs);
                        counters.gather_busy.add(t0);
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
        scope.spawn(move || {
            let _liveness = Defer(|| ready.close());
            alloc::set_stage(Stage::Transfer);
            let body = AssertUnwindSafe(|| {
                while let Some(batch) = prepared.recv() {
                    let t0 = Instant::now();
                    transfer_stage(pcfg, &batch, &counters.h2d_bytes);
                    counters.transfer_busy.add(t0);
                    if !ready.send(batch) {
                        break;
                    }
                }
            });
            if let Err(payload) = catch_unwind(body) {
                poison("transfer", payload);
            }
        });
        scope.spawn(move || {
            let _liveness = Defer(|| outputs.close());
            alloc::set_stage(Stage::Refresh);
            let body = AssertUnwindSafe(|| {
                let shard_workers = config.effective_refresh_workers();
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

        startup_seconds = session_start.elapsed().as_secs_f64();
        let mut backend = WorkerRefresh {
            tasks,
            outputs,
            wait: Duration::ZERO,
            failed: false,
        };
        // Split controller state: the GPU feature cache in effect (empty
        // until the first plan installs), the EWMA of the measured
        // occupancy, and whether any plan has installed yet (the first one
        // always does; hysteresis only damps changes *between* plans).
        let mut epoch_cache: Arc<FeatureCache> = Arc::new(FeatureCache::empty());
        let mut smoothed_occupancy: Option<f64> = None;
        let mut split_installed = false;
        // Session-lifetime hot-path state: the train thread's stage tag,
        // the reused reorder window, and the recycled epoch-batch lists.
        let caller_stage = alloc::set_stage(Stage::Train);
        // Restore the caller's alloc stage on every exit path — the
        // typed-error returns below bail out mid-loop.
        let _restore_stage = Defer(move || {
            alloc::set_stage(caller_stage);
        });
        let mut reorder_window: VecDeque<Option<StagedBatch>> = VecDeque::new();
        let mut batch_ring = BatchRing::default();
        for e in 0..num_epochs {
            let epoch = first_epoch + e;
            let batches = batch_ring.next(|ids| trainer.fill_epoch_batches(epoch, ids));
            let total = batches.len();
            let staged_before = counters.snapshot();
            let refresh_busy_before = refresh_busy.seconds();
            let refresh_cpu_fraction = trainer.refresh_cpu_fraction();
            let refresh_rows_before = trainer.refresh_rows();
            let collect_wait_before = backend.wait;
            let alloc_before = alloc::snapshot();

            let wall = Instant::now();
            gate.open(EpochJob {
                generation: e as u64 + 1,
                epoch,
                batches,
                next: Arc::new(AtomicUsize::new(0)),
                cache: Arc::clone(&epoch_cache),
            });
            // Train stage on the calling thread: in-order, owns the
            // model; super-batch refreshes flow through the worker.
            // Device-side feature assembly (cache rows + shipped miss
            // rows) happens here, after the transfer stage — hits never
            // cross the simulated link.
            let mut reorder =
                EpochReorder::new(ready, total, &mut reorder_window, config.stall_timeout);
            let mut cache_hits = 0u64;
            let mut cache_misses = 0u64;
            let stats = {
                let assembly_cache = Arc::clone(&epoch_cache);
                let feed = (&mut reorder).map(|staged| {
                    cache_hits += staged.features.num_hits() as u64;
                    cache_misses += staged.features.num_misses() as u64;
                    staged.into_prepared(&assembly_cache)
                });
                trainer.train_batches_recycling(feed, &mut backend, recycle_into(pool))
            };
            let epoch_seconds = wall.elapsed().as_secs_f64();
            // Leftover-batch guard: the train loop consumes every batch
            // today, but the channels persist across epochs and indices
            // restart at 0 each epoch — if it ever gains an early-exit
            // path, undelivered batches must not leak into the next
            // epoch's reorderer (they would alias its indices and be
            // trained on silently). Drain them here.
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
            if let Some(err) = supervisor.first_panic() {
                return Err(err);
            }
            if backend.failed {
                return Err(SessionError::WorkerPanicked {
                    stage: "refresh",
                    message: "refresh worker died with a collect outstanding".into(),
                });
            }
            if reorder.stalled {
                return Err(SessionError::Stalled {
                    epoch,
                    step: reorder.next_index,
                    timeout: config.stall_timeout,
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
            let train_wait = (reorder.wait + (backend.wait - collect_wait_before)).as_secs_f64();
            let staged = counters.snapshot().since(&staged_before, total, total);
            let report = PipelineReport {
                epoch_seconds,
                num_batches: total,
                sample_seconds: staged.sample_seconds,
                gather_collect_seconds: staged.gather_seconds,
                transfer_seconds: staged.transfer_seconds,
                train_seconds: (epoch_seconds - train_wait).max(0.0),
                train_wait_seconds: train_wait,
                h2d_bytes: staged.h2d_bytes,
                reorder_peak: reorder.peak,
                cache_hits,
                cache_misses,
                failures: supervisor.take_timeline(),
            };
            // §4.1.3/§4.3 feedback: smooth the measured occupancy with
            // an EWMA, plan from the smoothed signal, and only install
            // (and rebuild the feature cache) when the planned split
            // leaves the hysteresis band around the installed one —
            // timer noise must not churn the cache. Placement and
            // caching only: the refresh rows and the assembled feature
            // matrices are split-invariant, so results never change.
            let cache_vertices = epoch_cache.len();
            let measured = report.train_occupancy();
            let mut smoothed_this = measured;
            if let Some(hot) = trainer.hot_set().filter(|_| config.adaptive_split) {
                smoothed_this = match smoothed_occupancy {
                    None => measured,
                    Some(prev) => {
                        OCCUPANCY_EWMA_ALPHA * measured + (1.0 - OCCUPANCY_EWMA_ALPHA) * prev
                    }
                };
                smoothed_occupancy = Some(smoothed_this);
                let plan = policy.plan_from_occupancy(hot, smoothed_this, config.gpu_free_bytes);
                let planned = plan.cpu_fraction();
                let installed = trainer.refresh_cpu_fraction();
                if !split_installed || (planned - installed).abs() > SPLIT_HYSTERESIS {
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
            let mut run = EpochRun {
                epoch,
                observation,
                per_replica: vec![staged],
                report,
                steps: total,
                allreduce_bytes: 0,
                remote_feature_bytes: 0,
                interconnect_seconds: 0.0,
                refresh_cpu_fraction,
                refresh_seconds: refresh_busy.seconds() - refresh_busy_before,
                refresh_rows: trainer.refresh_rows() - refresh_rows_before,
                eval_seconds,
                cache_vertices,
                smoothed_occupancy: smoothed_this,
                allocs,
                checkpoint_bytes: 0,
                checkpoint_seconds: 0.0,
            };
            checkpointer.at_boundary(trainer, &mut backend, &mut run)?;
            runs.push(run);
        }
        // Resolve any refresh still on the worker so the trainer can
        // outlive this session (the rows publish at a later boundary).
        trainer.settle_refresh(&mut backend);
        if let Some(err) = supervisor.first_panic() {
            return Err(err);
        }
        Ok(())
    });
    outcome?;

    Ok(SessionReport {
        epochs: runs,
        replicas: 1,
        model_bytes: trainer.model_bytes(),
        workers_spawned,
        generations: num_epochs as u64,
        startup_seconds,
        // One partition owns every vertex: nothing is cut, nothing skewed.
        partition_cut_fraction: 0.0,
        partition_balance: 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_tensor::Matrix;

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
}
