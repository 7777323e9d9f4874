//! The one place the benchmark touches the measured program.
//!
//! Every `neutron_*` item the benchmark uses is named in this file and
//! nowhere else; the rest of the crate sees the plain structs below. The
//! exact list is kept in `api_surface.txt` next to the crate manifest (a
//! crate test checks the two agree), so a refactor of the engines knows
//! what must stay source-compatible.
//!
//! Entry points are the ones the engines themselves call on their hot path
//! (`sample_batch_pooled`, `gather_pooled`, `into_prepared`,
//! `train_batches_recycling`), not the allocating variants or the
//! `PipelineExecutor` compat wrapper that ROADMAP marks for deletion.

use crate::trace::{Recorder, SpanId};
use neutron_bench::{build_profile, Setup};
use neutron_cache::{FeatureCache, HybridPolicy};
use neutron_core::baselines::{Case1Dgl, Case2DglUva, Case3PaGraph, Case4GnnLab, GasLike};
use neutron_core::checkpoint;
use neutron_core::engine::{EngineConfig, TrainingEngine};
use neutron_core::gather::{GatheredFeatures, StagedBatch};
use neutron_core::neutronorch::NeutronOrchConfig;
use neutron_core::pipeline::{PipelineConfig, PipelineReport};
use neutron_core::pool::BatchBuffers;
use neutron_core::profile::{WorkloadConfig, WorkloadProfile};
use neutron_core::refresh::{CpuPart, InlineRefresh, RefreshBackend, RefreshOutput, RefreshTask};
use neutron_core::replica::{ReplicatedConfig, ReplicatedEngine};
use neutron_core::trainer::{
    batch_sample_seed, ConvergenceTrainer, EpochObservation, PreparedBatch, ReusePolicy,
    TrainerConfig,
};
use neutron_core::{NeutronOrch, Orchestrator};
use neutron_graph::dataset::Topology;
use neutron_graph::generate::RmatParams;
use neutron_graph::partition::hash_partition;
use neutron_graph::{Dataset, DatasetSpec};
use neutron_hetero::{HardwareSpec, InterconnectSpec};
use neutron_nn::flops::layer_train_flops;
use neutron_nn::loss::cross_entropy;
use neutron_nn::model::{GnnModel, ModelConfig};
use neutron_nn::optim::{Optimizer, Sgd};
use neutron_nn::{tree_average, GradSet, LayerKind};
use neutron_sample::{BatchIterator, BlockBuilder, NeighborSampler, PreSampler};
use neutron_tensor::alloc::{self, AllocSnapshot, Stage};
use neutron_tensor::timing;
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::time::Instant;

/// The counting allocator the traced binary installs.
pub use neutron_tensor::alloc::CountingAllocator;

/// Seed salts the benchmark XORs `--seed` into (so seed 0 reproduces the
/// program's own defaults).
const TRAINER_SEED: u64 = 0xe4e;

/// Replica graph family of a training workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// Planted-partition community graph with learnable labels.
    Community,
    /// R-MAT (Graph500 parameters): skewed degrees, random labels.
    Rmat,
}

/// GNN architecture of a training workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    Gcn,
    Sage,
}

impl Model {
    fn kind(self) -> LayerKind {
        match self {
            Model::Gcn => LayerKind::Gcn,
            Model::Sage => LayerKind::Sage,
        }
    }
}

/// Reuse policy of a trainer the benchmark builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// `HotnessAware { hot_ratio, super_batch }` — the system under test.
    HotnessAware,
    /// Plain exact sample-gather-train: the single-worker baseline.
    Exact,
}

/// Everything that defines one training workload; plain data.
#[derive(Clone, Debug)]
pub struct TrainSpec {
    pub graph: GraphKind,
    pub vertices: usize,
    pub edges: usize,
    pub feature_dim: usize,
    pub model: Model,
    pub batch_size: usize,
    pub hot_ratio: f64,
    pub super_batch: usize,
    /// Simulated H2D link; fixed per workload, never calibrated. 0 = bytes
    /// counted, no stall.
    pub h2d_gibps: f64,
    pub gpu_free_bytes: u64,
    /// 1 = `TrainingEngine`; more = `ReplicatedEngine`.
    pub replicas: usize,
    /// Checkpoint cadence in epochs (0 = none).
    pub checkpoint_every: usize,
}

impl TrainSpec {
    fn dataset_spec(&self, seed: u64) -> DatasetSpec {
        let base = DatasetSpec::reddit_convergence();
        DatasetSpec {
            vertices: self.vertices,
            edges: self.edges,
            feature_dim: self.feature_dim,
            topology: match self.graph {
                GraphKind::Community => base.topology,
                GraphKind::Rmat => Topology::Rmat(RmatParams::graph500()),
            },
            seed: base.seed ^ seed,
            ..base
        }
    }

    fn trainer_config(&self, seed: u64, policy: Policy) -> TrainerConfig {
        let policy = match policy {
            Policy::HotnessAware => ReusePolicy::HotnessAware {
                hot_ratio: self.hot_ratio,
                super_batch: self.super_batch,
            },
            Policy::Exact => ReusePolicy::Exact,
        };
        TrainerConfig {
            batch_size: self.batch_size,
            seed: TRAINER_SEED ^ seed,
            ..TrainerConfig::convergence_default(self.model.kind(), policy)
        }
    }

    /// Stage threads are pinned by config, never by the machine: the `0 =
    /// auto` settings would make the numbers depend on `nproc`.
    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            sampler_threads: 1,
            gather_threads: 1,
            channel_depth: 4,
            h2d_gibps: self.h2d_gibps,
        }
    }
}

/// A built dataset (topology, labels, splits, features).
pub struct Data(Dataset);

impl Data {
    pub fn build(spec: &TrainSpec, seed: u64) -> Data {
        Data(spec.dataset_spec(seed).build_full())
    }

    pub fn edges(&self) -> usize {
        self.0.csr.num_edges()
    }

    /// Edge-cut fraction of the `parts`-way hash partition.
    pub fn partition_cut_fraction(&self, parts: usize) -> f64 {
        hash_partition(self.0.csr.num_vertices(), parts)
            .stats(&self.0.csr)
            .cut_fraction()
    }
}

/// One epoch of a session, flattened from `EpochRun` /
/// `ReplicatedEpochRun` + `PipelineReport`. Fields a session kind does not
/// have stay at their zero default (e.g. replica fields on R=1).
#[derive(Clone, Debug, Default)]
pub struct EpochStats {
    pub loss: f32,
    pub test_accuracy: f64,
    pub max_staleness: u64,
    pub epoch_s: f64,
    pub eval_s: f64,
    pub steps: usize,
    pub sample_s: f64,
    pub gather_s: f64,
    pub transfer_s: f64,
    pub train_s: f64,
    pub train_wait_s: f64,
    pub occupancy: f64,
    pub h2d_bytes: u64,
    pub reorder_peak: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cached_vertices: usize,
    pub cpu_fraction: f64,
    pub refresh_s: f64,
    pub checkpoint_bytes: u64,
    pub checkpoint_s: f64,
    pub staging_allocs: u64,
    pub train_allocs: u64,
    pub train_alloc_bytes: u64,
    pub refresh_allocs: u64,
    pub allreduce_bytes: u64,
    pub remote_feature_bytes: u64,
    pub remote_picks: u64,
    pub interconnect_s: f64,
    /// Per-replica staging busy seconds (sample + gather + transfer).
    pub replica_staging_s: Vec<f64>,
}

impl EpochStats {
    fn fill(&mut self, obs: &EpochObservation, report: &PipelineReport, allocs: &AllocSnapshot) {
        self.loss = obs.train_loss;
        self.test_accuracy = obs.test_accuracy;
        self.max_staleness = obs.max_staleness;
        self.epoch_s = report.epoch_seconds;
        self.steps = report.num_batches;
        self.sample_s = report.sample_seconds;
        self.gather_s = report.gather_collect_seconds;
        self.transfer_s = report.transfer_seconds;
        self.train_s = report.train_seconds;
        self.train_wait_s = report.train_wait_seconds;
        self.occupancy = report.train_occupancy();
        self.h2d_bytes = report.h2d_bytes;
        self.reorder_peak = report.reorder_peak;
        self.cache_hits = report.cache_hits;
        self.cache_misses = report.cache_misses;
        self.staging_allocs = allocs.staging_allocs();
        self.train_allocs = allocs.get(Stage::Train).allocs;
        self.train_alloc_bytes = allocs.get(Stage::Train).bytes;
        self.refresh_allocs = allocs.get(Stage::Refresh).allocs;
    }
}

/// What a session produced.
#[derive(Clone, Debug, Default)]
pub struct Session {
    pub epochs: Vec<EpochStats>,
    /// Wall from session start to all workers spawned (R=1 only).
    pub startup_s: f64,
}

/// A trainer over a built dataset.
pub struct Trainer {
    inner: ConvergenceTrainer,
    replicas: usize,
}

impl Trainer {
    /// `ConvergenceTrainer::new` — includes pre-sampling under
    /// [`Policy::HotnessAware`].
    pub fn new(data: Data, spec: &TrainSpec, seed: u64, policy: Policy) -> Trainer {
        Trainer {
            inner: ConvergenceTrainer::new(data.0, spec.trainer_config(seed, policy)),
            replicas: spec.replicas,
        }
    }

    /// The plain sequential epoch (`train_epoch`), the bit-identity oracle;
    /// returns its mean training loss.
    pub fn sequential_epoch(&mut self, epoch: usize) -> f32 {
        self.inner.train_epoch(epoch).train_loss
    }

    pub fn model_bytes(&self) -> u64 {
        self.inner.model_bytes()
    }

    pub fn embedding_reuses(&self) -> u64 {
        self.inner.embedding_reuses()
    }

    pub fn train_vertices(&self) -> usize {
        self.inner.dataset_handle().train.len()
    }

    /// Runs `epochs` epochs from `first_epoch` through the workload's
    /// engine, checkpointing to `(path, every n epochs)` if given. Any
    /// `SessionError` comes back as its message.
    pub fn run_session(
        &mut self,
        spec: &TrainSpec,
        first_epoch: usize,
        epochs: usize,
        checkpoint: Option<(&Path, usize)>,
    ) -> Result<Session, String> {
        let (checkpoint_path, checkpoint_every) = match checkpoint {
            Some((path, every)) => (Some(path), every),
            None => (None, 0),
        };
        let mut out = Session::default();
        if spec.replicas == 1 {
            let engine = TrainingEngine::new(EngineConfig {
                pipeline: spec.pipeline(),
                gpu_free_bytes: spec.gpu_free_bytes,
                refresh_workers: 1,
                checkpoint_every,
                checkpoint_path: checkpoint_path.map(Into::into),
                ..EngineConfig::default()
            });
            let session = engine
                .run_session_checked(&mut self.inner, first_epoch, epochs)
                .map_err(|e| e.to_string())?;
            out.startup_s = session.startup_seconds;
            for run in &session.epochs {
                let mut e = EpochStats::default();
                e.fill(&run.observation, &run.report, &run.allocs);
                e.eval_s = run.eval_seconds;
                e.cached_vertices = run.cache_vertices;
                e.cpu_fraction = run.refresh_cpu_fraction;
                e.refresh_s = run.refresh_seconds;
                e.checkpoint_bytes = run.checkpoint_bytes;
                e.checkpoint_s = run.checkpoint_seconds;
                out.epochs.push(e);
            }
        } else {
            let engine = ReplicatedEngine::new(ReplicatedConfig {
                pipeline: spec.pipeline(),
                replicas: spec.replicas,
                locality_aware: true,
                gpu_free_bytes: spec.gpu_free_bytes,
                interconnect: InterconnectSpec::ethernet_like(),
                checkpoint_every,
                checkpoint_path: checkpoint_path.map(Into::into),
                ..ReplicatedConfig::default()
            });
            let session = engine
                .run_session_checked(&mut self.inner, first_epoch, epochs)
                .map_err(|e| e.to_string())?;
            for run in &session.epochs {
                let mut e = EpochStats::default();
                e.fill(&run.observation, &run.report, &run.allocs);
                e.eval_s = run.eval_seconds;
                e.cpu_fraction = self.inner.refresh_cpu_fraction();
                e.checkpoint_bytes = run.checkpoint_bytes;
                e.checkpoint_s = run.checkpoint_seconds;
                e.allreduce_bytes = run.allreduce_bytes;
                e.remote_feature_bytes = run.remote_feature_bytes;
                e.interconnect_s = run.interconnect_seconds;
                e.remote_picks = run.per_replica.iter().map(|r| r.remote_picks).sum();
                e.replica_staging_s = run
                    .per_replica
                    .iter()
                    .map(|r| r.sample_seconds + r.gather_seconds + r.transfer_seconds)
                    .collect();
                out.epochs.push(e);
            }
        }
        Ok(out)
    }

    /// `checkpoint::load` + `restore_state`: the kill-and-restore half of
    /// the oracle. Returns the epoch the file resumes at.
    pub fn restore_from(&mut self, path: &Path) -> Result<usize, String> {
        let digest = checkpoint::config_digest(self.inner.config(), self.replicas);
        let ck = checkpoint::load(path, digest).map_err(|e| e.to_string())?;
        self.inner.restore_state(&ck.state)?;
        Ok(ck.next_epoch as usize)
    }
}

// ---------------------------------------------------------------------------
// Traced pass: benchmark-driven sequential epochs and per-layer probes.
// ---------------------------------------------------------------------------

/// Span names of one benchmark-driven epoch, one per layer boundary.
pub mod span {
    pub const EPOCH: &str = "epoch";
    pub const SAMPLE: &str = "sample.batch";
    pub const GATHER: &str = "gather.batch";
    pub const TRANSFER: &str = "transfer.account";
    pub const ASSEMBLE: &str = "gather.assemble";
    pub const STEP: &str = "trainer.step";
    pub const REFRESH: &str = "refresh.run";
    pub const RECYCLE: &str = "pool.recycle";
    pub const NN_FORWARD: &str = "nn.forward";
    pub const NN_BACKWARD: &str = "nn.backward";
    pub const NN_STEP: &str = "nn.sgd_step";
    pub const GRAPH_TOPOLOGY: &str = "graph.build_topology";
    pub const SAMPLE_PROFILE: &str = "sample.profile";
    pub const SIMULATE: &str = "hetero.simulate";
    /// Root span of the traced `sim_grid` pass.
    pub const GRID: &str = "grid";
}

/// Count names recorded at the same boundaries as the spans.
pub mod count {
    pub const EDGES: &str = "sample.edges";
    pub const SRC: &str = "sample.src_vertices";
    pub const MISS_ROWS: &str = "gather.miss_rows";
    pub const H2D_BYTES: &str = "h2d.bytes";
    pub const STRUCTURE_BYTES: &str = "h2d.structure_bytes";
    pub const REFRESH_ROWS: &str = "refresh.rows";
    pub const FLOPS: &str = "nn.flops";
    pub const NN_BATCHES: &str = "nn.batches";
}

/// A planned and materialised feature cache, with what planning and
/// building it cost.
pub struct PlannedCache {
    cache: FeatureCache,
    pub plan_s: f64,
    pub build_s: f64,
    pub cached_vertices: usize,
    pub bytes: u64,
}

/// `HybridPolicy::plan_from_occupancy` + `FeatureCache::for_vertices` at a
/// fixed occupancy, so the benchmark-driven epochs run against the same
/// cache on every run (the engine's own plan follows measured timing).
pub fn plan_cache(trainer: &Trainer, spec: &TrainSpec, occupancy: f64) -> PlannedCache {
    let dataset = trainer.inner.dataset_handle();
    let policy = HybridPolicy {
        feature_row_bytes: dataset.spec.feature_row_bytes(),
        embedding_row_bytes: dataset.spec.hidden_row_bytes(),
    };
    let hot = trainer
        .inner
        .hot_set()
        .expect("traced workloads train with the hotness-aware policy");
    let t0 = Instant::now();
    let plan = policy.plan_from_occupancy(hot, occupancy, spec.gpu_free_bytes);
    let plan_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let cache = FeatureCache::for_vertices(
        &plan.gpu_cache,
        dataset.csr.num_vertices(),
        dataset.features().as_slice(),
        dataset.spec.feature_dim,
    );
    let build_s = t1.elapsed().as_secs_f64();
    PlannedCache {
        plan_s,
        build_s,
        cached_vertices: cache.len(),
        bytes: cache.bytes(),
        cache,
    }
}

/// `PreSampler::estimate` on the trainer's own sampler and batches, timed,
/// plus the access coverage of the resulting hot set.
pub fn presample(trainer: &Trainer, spec: &TrainSpec) -> (f64, f64) {
    let dataset = trainer.inner.dataset_handle();
    let cfg = trainer.inner.config();
    let batches = BatchIterator::new(dataset.train.clone(), cfg.batch_size, cfg.seed);
    let t0 = Instant::now();
    let ranking = PreSampler::new(1).estimate(
        &dataset.csr,
        trainer.inner.sampler(),
        &batches,
        cfg.seed ^ 0x407,
    );
    let secs = t0.elapsed().as_secs_f64();
    let coverage = ranking.access_coverage(&ranking.hot_set(spec.hot_ratio));
    (secs, coverage)
}

/// The refresh backend of the benchmark-driven epochs: `InlineRefresh`
/// with a span around each task, parented to the step that triggered it.
struct SpanRefresh<'a> {
    inner: InlineRefresh,
    rec: &'a Recorder,
    step: &'a Cell<Option<SpanId>>,
    batch: &'a Cell<u32>,
}

impl RefreshBackend for SpanRefresh<'_> {
    fn submit(&mut self, task: RefreshTask) -> CpuPart {
        let id = self
            .rec
            .begin(span::REFRESH, self.step.get(), self.batch.get());
        let part = self.inner.submit(task);
        self.rec.end(id);
        if let CpuPart::Ready(out) = &part {
            self.rec.count(count::REFRESH_ROWS, out.rows.len() as u64);
        }
        part
    }

    fn collect(&mut self) -> RefreshOutput {
        self.inner.collect()
    }
}

/// The sampler and seed of a trainer, detached so batches can be staged
/// while the trainer itself is mutably borrowed by its train loop.
struct Staging {
    sampler: NeighborSampler,
    seed: u64,
    builder: BlockBuilder,
}

impl Staging {
    fn of(trainer: &ConvergenceTrainer) -> Self {
        Self {
            sampler: trainer.sampler().clone(),
            seed: trainer.config().seed,
            builder: BlockBuilder::new(),
        }
    }

    /// Stages one batch through the engines' own pooled entry points, with
    /// a span around each call and counts at the same boundaries.
    #[allow(clippy::too_many_arguments)] // one operand per stage input
    fn stage(
        &mut self,
        dataset: &Dataset,
        batch: &[u32],
        epoch: usize,
        index: usize,
        cache: &FeatureCache,
        mut bufs: BatchBuffers,
        rec: &Recorder,
        parent: Option<SpanId>,
    ) -> PreparedBatch {
        let id = index as u32 + 1;
        let seed = batch_sample_seed(self.seed, epoch, index);
        let blocks = rec.span(span::SAMPLE, parent, id, || {
            bufs.donate_to(&mut self.builder);
            self.sampler
                .sample_batch_pooled(&dataset.csr, batch, seed, &mut self.builder)
        });
        rec.count(
            count::EDGES,
            blocks.iter().map(|b| b.num_edges() as u64).sum(),
        );
        rec.count(count::SRC, blocks[0].num_src() as u64);
        let features = rec.span(span::GATHER, parent, id, || {
            GatheredFeatures::gather_pooled(dataset, &blocks[0], cache, &mut bufs)
        });
        rec.count(count::MISS_ROWS, features.num_misses() as u64);
        let staged = StagedBatch {
            index,
            blocks,
            features,
            bufs,
        };
        // Byte accounting only — the simulated link is never slept on here.
        let bytes = rec.span(span::TRANSFER, parent, id, || staged.h2d_bytes());
        rec.count(count::H2D_BYTES, bytes);
        rec.count(
            count::STRUCTURE_BYTES,
            bytes - staged.features.h2d_feature_bytes(),
        );
        rec.span(span::ASSEMBLE, parent, id, || staged.into_prepared(cache))
    }
}

/// Dismantles a trained batch back into its buffer bundle, as the engine's
/// recycler does.
fn recycle(mut item: PreparedBatch) -> BatchBuffers {
    let mut bufs = std::mem::take(&mut item.scrap);
    bufs.put_f32(std::mem::take(&mut item.features).into_vec());
    bufs.recycle_blocks(std::mem::take(&mut item.blocks));
    bufs
}

/// One benchmark-driven sequential epoch: the benchmark itself calls
/// sample → gather → byte accounting → assemble for every batch and hands
/// them to `train_batches_recycling`; `trainer.step` is the gap between
/// yielding batch *i* and being asked for batch *i+1*. Returns the epoch's
/// mean training loss.
pub fn traced_epoch(
    trainer: &mut Trainer,
    epoch: usize,
    planned: &PlannedCache,
    rec: &Recorder,
) -> f32 {
    let dataset = trainer.inner.dataset_handle();
    let batches = trainer.inner.epoch_batches(epoch);
    let mut staging = Staging::of(&trainer.inner);
    let epoch_span = rec.begin(span::EPOCH, None, 0);
    let open_step: Cell<Option<SpanId>> = Cell::new(None);
    let current: Cell<u32> = Cell::new(0);
    let spare: RefCell<Vec<BatchBuffers>> = RefCell::new(Vec::new());
    let items = (0..batches.len()).map(|i| {
        if let Some(step) = open_step.take() {
            rec.end(step);
        }
        let bufs = spare.borrow_mut().pop().unwrap_or_default();
        let prepared = staging.stage(
            &dataset,
            batches.batch(i),
            epoch,
            i,
            &planned.cache,
            bufs,
            rec,
            Some(epoch_span),
        );
        current.set(i as u32 + 1);
        open_step.set(Some(rec.begin(span::STEP, Some(epoch_span), i as u32 + 1)));
        prepared
    });
    let mut backend = SpanRefresh {
        inner: InlineRefresh::default(),
        rec,
        step: &open_step,
        batch: &current,
    };
    let stats = trainer
        .inner
        .train_batches_recycling(items, &mut backend, |item| {
            let id = rec.begin(span::RECYCLE, open_step.get(), current.get());
            spare.borrow_mut().push(recycle(item));
            rec.end(id);
        });
    if let Some(step) = open_step.take() {
        rec.end(step);
    }
    rec.end(epoch_span);
    stats.losses.iter().sum::<f32>() / stats.losses.len().max(1) as f32
}

/// Forward / backward / optimizer step of the benchmark's own `GnnModel`
/// (same dimensions as the trainer's) on every `stride`-th batch of
/// `epoch`, each under its own span; counts the batches' train FLOPs.
pub fn nn_probe(trainer: &Trainer, epoch: usize, stride: usize, rec: &Recorder) {
    let dataset = trainer.inner.dataset_handle();
    let cfg = trainer.inner.config();
    let model_cfg = ModelConfig {
        kind: cfg.kind,
        feature_dim: dataset.spec.feature_dim,
        hidden_dim: dataset.spec.hidden_dim,
        num_classes: dataset.spec.num_classes,
        layers: cfg.layers,
        seed: cfg.seed ^ 0x5eed,
    };
    let dims = model_cfg.layer_dims();
    let mut model = GnnModel::new(model_cfg);
    let mut optimizer = Sgd::new(cfg.lr);
    let batches = trainer.inner.epoch_batches(epoch);
    let mut staging = Staging::of(&trainer.inner);
    let cache = FeatureCache::empty();
    // Staging spans of the probe go to a throw-away recorder: only the nn
    // spans belong in the trace.
    let scratch = Recorder::new();
    for i in (0..batches.len()).step_by(stride.max(1)) {
        let seeds = batches.batch(i);
        let item = staging.stage(
            &dataset,
            seeds,
            epoch,
            i,
            &cache,
            BatchBuffers::new(),
            &scratch,
            None,
        );
        let id = i as u32 + 1;
        let labels: Vec<usize> = seeds.iter().map(|&v| dataset.labels[v as usize]).collect();
        let pass = rec.span(span::NN_FORWARD, None, id, || {
            model.forward(&item.blocks, &item.features)
        });
        let loss = cross_entropy(pass.logits(), &labels);
        rec.span(span::NN_BACKWARD, None, id, || {
            model.zero_grad();
            model.backward(&item.blocks, pass, &loss.d_logits)
        });
        rec.span(span::NN_STEP, None, id, || {
            optimizer.step(&mut model.params_mut())
        });
        let flops: u64 = item
            .blocks
            .iter()
            .zip(&dims)
            .map(|(b, &(i, o))| {
                layer_train_flops(
                    cfg.kind,
                    b.num_dst() as u64,
                    b.num_src() as u64,
                    b.num_edges() as u64,
                    i as u64,
                    o as u64,
                )
            })
            .sum();
        rec.count(count::FLOPS, flops);
        rec.count(count::NN_BATCHES, 1);
    }
}

/// Seconds `tree_average` takes on two model-shaped gradient sets.
pub fn tree_average_seconds(trainer: &Trainer) -> f64 {
    let groups: Vec<GradSet> = vec![trainer.inner.clone_grads(), trainer.inner.clone_grads()];
    let t0 = Instant::now();
    std::hint::black_box(tree_average(std::hint::black_box(groups)));
    t0.elapsed().as_secs_f64()
}

/// Turns the program's public kernel-timing hooks and allocation counters
/// on (after zeroing them) or off.
pub fn set_hooks(on: bool) {
    if on {
        timing::reset();
        alloc::reset();
    }
    timing::set_enabled(on);
    alloc::set_enabled(on);
}

/// Whether a counting global allocator is installed in this process.
pub fn counting_allocator_installed() -> bool {
    alloc::counting_installed()
}

/// `(kernel name, seconds, calls)` since the hooks were last switched on.
pub fn kernel_timing() -> Vec<(&'static str, f64, u64)> {
    let snap = timing::snapshot();
    timing::KERNELS
        .iter()
        .map(|&k| (k.name(), snap.get(k).seconds(), snap.get(k).calls))
        .collect()
}

// ---------------------------------------------------------------------------
// Simulator: the paper's grid on the discrete-event model.
// ---------------------------------------------------------------------------

/// The systems of the grid, in column order; Case 1–4 first.
pub const SYSTEMS: [&str; 6] = ["dgl", "dgl-uva", "pagraph", "gnnlab", "gas", "neutronorch"];
/// How many leading entries of [`SYSTEMS`] are the paper's Case 1–4.
pub const CASES: usize = 4;
/// Column of NeutronOrch itself.
pub const NEUTRONORCH: usize = SYSTEMS.len() - 1;
/// Models of the grid, in row-group order.
pub const MODELS: [&str; 3] = ["gcn", "sage", "gat"];

/// Rungs of the Fig 12 ablation ladder; they follow [`SYSTEMS`] as further
/// columns of a profile (`SYSTEMS.len() + rung`).
pub fn ladder_rungs() -> usize {
    NeutronOrchConfig::ablation_ladder().len()
}

/// The orchestrator behind a column, or `None` where the modelled system
/// does not support the architecture (§5.2: PaGraph and GNNLab lack GAT,
/// GAS lacks GraphSAGE).
fn orchestrator(column: usize, kind: LayerKind) -> Option<Box<dyn Orchestrator>> {
    let Some(&name) = SYSTEMS.get(column) else {
        let (_, config) = *NeutronOrchConfig::ablation_ladder().get(column - SYSTEMS.len())?;
        return Some(Box::new(NeutronOrch::with_config(config)));
    };
    let supported: Box<dyn Orchestrator> = match name {
        "dgl" => Box::new(Case1Dgl { pipelined: true }),
        "dgl-uva" => Box::new(Case2DglUva { pipelined: true }),
        "pagraph" if kind != LayerKind::Gat => Box::new(Case3PaGraph),
        "gnnlab" if kind != LayerKind::Gat => Box::new(Case4GnnLab),
        "gas" if kind != LayerKind::Sage => Box::new(GasLike),
        "neutronorch" => Box::new(NeutronOrch::new()),
        _ => return None,
    };
    Some(supported)
}

/// One simulated epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimEpoch {
    /// Simulated seconds.
    pub epoch_s: f64,
    /// Simulated host→device bytes.
    pub h2d_bytes: u64,
    /// Batches in the simulated epoch.
    pub batches: usize,
}

/// Outcome of one grid cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimOutcome {
    Ok(SimEpoch),
    /// The modelled system ran out of device memory.
    Oom,
}

/// The replica datasets of the grid: the six Table-4 replicas
/// (`Setup::Paper`), or their miniature `Setup::Smoke` versions.
pub struct GridDatasets {
    setup: Setup,
    specs: Vec<DatasetSpec>,
}

impl GridDatasets {
    pub fn new(smoke: bool, seed: u64) -> Self {
        let setup = if smoke { Setup::Smoke } else { Setup::Paper };
        let mut specs = setup.datasets();
        for spec in &mut specs {
            spec.seed ^= seed;
            if smoke {
                // `Setup::Smoke` still leaves Reddit at 2.4M edges; the
                // crate's tests run in a debug build.
                spec.vertices /= 8;
                spec.edges /= 8;
            }
        }
        Self { setup, specs }
    }

    pub fn len(&self) -> usize {
        self.specs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    pub fn name(&self, dataset: usize) -> &'static str {
        self.specs[dataset].name
    }

    /// `DatasetSpec::build_topology` alone — what `WorkloadProfile::build`
    /// starts with; timed separately so the profile span can be split into
    /// its graph and sample shares. Returns the edge count.
    pub fn build_topology(&self, dataset: usize) -> usize {
        self.specs[dataset].build_topology().csr.num_edges()
    }

    /// `neutron_bench::build_profile` with the paper's cell parameters (3
    /// layers, batch 1024).
    pub fn build_profile(&self, dataset: usize, model: usize) -> SimProfile {
        SimProfile(build_profile(
            self.setup,
            &self.specs[dataset],
            LayerKind::ALL[model],
            3,
            1024,
        ))
    }
}

/// A measured workload profile the orchestrators simulate on.
pub struct SimProfile(WorkloadProfile);

impl SimProfile {
    /// The profile of a training workload's own graph and sampling
    /// configuration, so the paper's figure of merit can be read on it.
    pub fn of_training(spec: &TrainSpec, seed: u64) -> SimProfile {
        let config = WorkloadConfig {
            layers: 2,
            batch_size: spec.batch_size,
            hot_ratio: spec.hot_ratio,
            super_batch: spec.super_batch,
            profiled_batches: 5,
            ..WorkloadConfig::paper_default(spec.model.kind())
        };
        SimProfile(WorkloadProfile::build(&spec.dataset_spec(seed), &config))
    }

    pub fn hot_coverage(&self) -> f64 {
        self.0.hot_coverage
    }

    /// Training seeds one simulated epoch covers.
    pub fn seeds_per_epoch(&self) -> u64 {
        (0..self.0.num_batches)
            .map(|i| self.0.seeds(i) as u64)
            .sum()
    }

    /// Whether the column's modelled system supports this profile's
    /// architecture.
    pub fn supports(&self, column: usize) -> bool {
        orchestrator(column, self.0.config.kind).is_some()
    }

    /// `Orchestrator::simulate_epoch` of one column on the paper's
    /// hardware (`HardwareSpec::v100_server(1.0)`).
    pub fn simulate(&self, column: usize) -> SimOutcome {
        let orchestrator =
            orchestrator(column, self.0.config.kind).expect("caller checked `supports`");
        match orchestrator.simulate_epoch(&self.0, &HardwareSpec::v100_server(1.0)) {
            Ok(r) => SimOutcome::Ok(SimEpoch {
                epoch_s: r.epoch_seconds,
                h2d_bytes: r.h2d_bytes,
                batches: r.num_batches,
            }),
            Err(_) => SimOutcome::Oom,
        }
    }
}
