//! Numeric training with historical-embedding reuse policies.
//!
//! This is the *real* (non-simulated) training path behind the Fig 16
//! convergence curves: stale embeddings are actually spliced into the
//! bottom layer and gradients through them are actually cut, so accuracy
//! differences between policies are measured, not modelled.
//!
//! Under [`ReusePolicy::HotnessAware`] the reuse *removes* device work
//! (§4.1.2): the trainer's sampler drops hot vertices from the frontier
//! before the bottom hop ([`NeighborSampler::with_bottom_skip`]), so their
//! neighbours are never sampled, gathered or transferred and the bottom
//! layer never runs for them; [`ConvergenceTrainer::grad_prepared`] fills
//! their rows of the bottom layer's output straight from the
//! [`EmbeddingStore`]. Every pruned row must therefore be in the store from
//! batch 0: the first super-batch boundary of a fresh trainer resolves its
//! refresh through the backend at once and publishes it, so reads in the
//! first super-batch see a version gap in `[0, n−1]`, every later one
//! `[n, 2n−1]` — always under the `< 2n` bound.
//!
//! The one batch loop ([`ConvergenceTrainer::train_steps_replicated`]) is
//! **demand-driven** (§4.2): it holds the next `2n−1` prepared steps, so at
//! super-batch boundary `k` it already has super-batch `k+1` and refreshes
//! only the hot rows those batches read.
//!
//! The trainer never stages a batch itself: its batches arrive prepared by
//! [`crate::pipeline::stage_batch`], the one sample → gather → transfer
//! path, whether a session lane runs it or
//! [`ConvergenceTrainer::train_epoch`] (which is [`run_epoch_sequential`]).
//! The bottom layer reads its input in place through
//! [`PreparedBatch::rows`]; refresh tasks and evaluation read host rows by
//! vertex id the same way ([`RowView::gather`]).

use crate::gather::CacheHits;
use crate::pipeline::{run_epoch_sequential, PipelineConfig};
use crate::pool::BatchBuffers;
use crate::refresh::{CpuPart, RefreshBackend, RefreshOutput, RefreshTask};
use neutron_cache::EmbeddingStore;
use neutron_graph::{Dataset, VertexId};
use neutron_nn::loss::cross_entropy;
use neutron_nn::metrics::accuracy;
use neutron_nn::model::{GnnModel, ModelConfig};
use neutron_nn::optim::{Optimizer, Sgd};
use neutron_nn::LayerKind;
use neutron_sample::{
    full_one_hop, BatchIterator, Block, EpochBatches, Fanout, HotSet, HotnessRanking,
    NeighborSampler, PreSampler, SamplerScratch,
};
use neutron_tensor::{Matrix, RowView};
use std::collections::VecDeque;
use std::sync::Arc;

/// Bounds on [`ConvergenceTrainer::evaluate`]'s working set: neighbours read
/// per vertex (the CSR prefix) and bottom-layer dst rows computed at a time.
const EVAL_NEIGHBOR_CAP: usize = 32;
const EVAL_BOTTOM_CHUNK: usize = 4096;

fn labels_of(dataset: &Dataset, vertices: &[VertexId]) -> Vec<usize> {
    let labels = &dataset.labels;
    vertices.iter().map(|&v| labels[v as usize]).collect()
}

/// Historical-embedding reuse policy.
#[derive(Clone, Debug)]
pub enum ReusePolicy {
    /// No reuse — exact sample-gather-train (DGL / PaGraph / GNNLab all
    /// share these semantics; their curves coincide in Fig 16).
    Exact,
    /// GAS-like: reuse bottom-layer embeddings of **all** vertices with no
    /// staleness control within an epoch.
    GasLike,
    /// NeutronOrch: reuse only hot vertices, refreshed every super-batch,
    /// version gap strictly `< 2n` (§4.2.2). Hot vertices leave the device
    /// path entirely: they are pruned from the bottom block at sample time
    /// and their embeddings come from the store. A one-layer model has no
    /// layer above the bottom one to reuse into, so it builds no hot set
    /// and no store and trains exactly like [`ReusePolicy::Exact`].
    HotnessAware {
        /// Fraction of vertices treated as hot.
        hot_ratio: f64,
        /// Batches per super-batch (`n`).
        super_batch: usize,
    },
}

impl ReusePolicy {
    /// Label used in convergence plots.
    pub fn label(&self) -> &'static str {
        match self {
            ReusePolicy::Exact => "Exact (DGL/PaGraph/GNNLab)",
            ReusePolicy::GasLike => "GAS",
            ReusePolicy::HotnessAware { .. } => "NeutronOrch",
        }
    }
}

/// Trainer configuration.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// GNN architecture.
    pub kind: LayerKind,
    /// Model depth.
    pub layers: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Sampling/shuffling seed.
    pub seed: u64,
    /// Reuse policy under test.
    pub policy: ReusePolicy,
}

impl TrainerConfig {
    /// A small-scale default suitable for the convergence replicas.
    pub fn convergence_default(kind: LayerKind, policy: ReusePolicy) -> Self {
        Self {
            kind,
            layers: 2,
            batch_size: 256,
            lr: 0.3,
            seed: 0xacc,
            policy,
        }
    }
}

/// Epoch-level observation.
#[derive(Clone, Copy, Debug)]
pub struct EpochObservation {
    /// Mean training loss over the epoch's batches.
    pub train_loss: f32,
    /// Accuracy on the held-out test vertices.
    pub test_accuracy: f64,
    /// Largest embedding version gap observed so far (0 for exact).
    pub max_staleness: u64,
    /// §4.3's tolerated staleness bound `ε = max‖ΔW‖∞ × 2n`, measured over
    /// this epoch's super-batches (0 when no reuse policy is active).
    pub staleness_epsilon: f32,
}

/// The deterministic per-batch sampling seed shared by the sequential
/// trainer and the pipelined executor: any executor that derives block
/// sampling from `(config seed, epoch, batch index)` this way reproduces
/// the exact training trajectory regardless of thread count. Epoch and
/// index occupy disjoint bit ranges so seeds never collide between epochs,
/// however many batches an epoch has.
pub fn batch_sample_seed(config_seed: u64, epoch: usize, index: usize) -> u64 {
    config_seed ^ ((epoch as u64) << 32 | index as u64)
}

/// A batch after the CPU-side sample + gather stages: everything the train
/// stage needs, detached from the trainer so it can be produced by worker
/// threads.
pub struct PreparedBatch {
    /// Position of this batch within its epoch (train order).
    pub index: usize,
    /// Bottom-first sampled block stack.
    pub blocks: Vec<Block>,
    /// The shipped raw feature rows of `blocks[0].src()`, in source order:
    /// all of them when `hits` is empty, else the cache misses alone.
    pub features: Matrix,
    /// Where the cache hits among the sources are read.
    pub hits: CacheHits,
    /// Spent staging buffers that accumulated while preparing this batch;
    /// the engine's recycler folds the blocks, the feature buffer and the
    /// hit index in after training and returns the bundle to the pool.
    /// Empty on the allocating (sequential) path.
    pub scrap: BatchBuffers,
}

impl PreparedBatch {
    /// The bottom layer's input, one row per `blocks[0].src()` vertex, read
    /// where it lives: hits in the cache's table, the rest in `features`.
    pub fn rows(&self) -> RowView<'_> {
        let CacheHits { index, table } = &self.hits;
        if index.is_empty() {
            RowView::dense(&self.features)
        } else {
            RowView::split(&self.features, table, index)
        }
    }
}

/// What one epoch's batch loop produced, before test-set evaluation —
/// see [`ConvergenceTrainer::train_batches_recycling`].
pub struct BatchLoopStats {
    /// Per-batch training losses, in epoch order.
    pub losses: Vec<f32>,
    /// §4.3's `ε = max‖ΔW‖∞ × 2n` over the epoch's super-batches (0 when
    /// no reuse policy is active).
    pub staleness_epsilon: f32,
}

/// Everything about a [`ConvergenceTrainer`] that mutates across epochs —
/// the complete checkpoint payload. Everything *not* here (hot set, model
/// shapes, sampler, batch iterator) is a pure function of `(dataset,
/// config)` and is rebuilt deterministically by [`ConvergenceTrainer::new`];
/// all sampling/shuffling randomness is derived per `(seed, epoch, index)`,
/// so no generator state exists to capture. Restoring this state into a
/// freshly built trainer and training the remaining epochs is bit-identical
/// to never having stopped.
#[derive(Clone, Debug)]
pub struct TrainerState {
    /// Model parameter values, in the model's stable parameter order.
    pub params: Vec<Matrix>,
    /// Global batch counter == parameter version (§4.2.2).
    pub version: u64,
    /// Historical-embedding store image, including staleness counters.
    pub store: Option<neutron_cache::StoreSnapshot>,
    /// The refresh awaiting publication at the next super-batch boundary.
    /// Captured only after [`ConvergenceTrainer::settle_refresh`], so it is
    /// always concrete rows, never a task on a worker.
    pub pending: Option<RefreshOutput>,
}

/// A numeric trainer over a fully materialised [`Dataset`].
pub struct ConvergenceTrainer {
    dataset: Arc<Dataset>,
    config: TrainerConfig,
    model: GnnModel,
    sampler: NeighborSampler,
    batches: BatchIterator,
    optimizer: Sgd,
    store: Option<EmbeddingStore>,
    /// Shared with `sampler`, which prunes these vertices from the bottom
    /// block.
    hot: Option<Arc<HotSet>>,
    /// The presample ranking whose prefix is `hot`; lanes fill their
    /// feature caches in its order.
    ranking: Option<HotnessRanking>,
    /// Rows of the bottom layer's output the current batch took from the
    /// store (ascending); scratch of [`Self::grad_prepared`].
    frozen: Vec<usize>,
    /// Global batch counter == model parameter version (§4.2.2).
    version: u64,
    /// The refresh created at one super-batch boundary, held until the next
    /// boundary publishes it — the double buffer of the Fig 8 pipeline
    /// (possibly still in flight on the backend's worker).
    pending_refresh: Option<CpuPart>,
    /// Hot rows put on refresh worklists so far (telemetry, not state).
    refresh_rows: u64,
}

impl ConvergenceTrainer {
    /// Builds the trainer; `dataset` must carry features
    /// ([`neutron_graph::DatasetSpec::build_full`]).
    pub fn new(dataset: Dataset, config: TrainerConfig) -> Self {
        assert!(
            dataset.features.is_some(),
            "convergence training needs features"
        );
        let model_cfg = ModelConfig {
            kind: config.kind,
            feature_dim: dataset.spec.feature_dim,
            hidden_dim: dataset.spec.hidden_dim,
            num_classes: dataset.spec.num_classes,
            layers: config.layers,
            seed: config.seed ^ 0x5eed,
        };
        let model = GnnModel::new(model_cfg);
        let fanout = Fanout::paper_default(config.layers);
        let mut sampler = NeighborSampler::new(fanout);
        let batches = BatchIterator::new(dataset.train.clone(), config.batch_size, config.seed);
        // Reuse splices bottom-layer embeddings into the layer above; a
        // one-layer model has none, so it gets no store under any policy.
        let (store, hot, ranking) = match &config.policy {
            _ if config.layers < 2 => (None, None, None),
            ReusePolicy::Exact => (None, None, None),
            ReusePolicy::GasLike => {
                let every = Arc::new(HotSet::all(dataset.csr.num_vertices()));
                let store = EmbeddingStore::new(every, dataset.spec.hidden_dim, None);
                (Some(store), None, None)
            }
            ReusePolicy::HotnessAware {
                hot_ratio,
                super_batch,
            } => {
                let hotness = PreSampler::new(1).estimate(
                    &dataset.csr,
                    &sampler,
                    &batches,
                    config.seed ^ 0x407,
                );
                let hot = Arc::new(hotness.hot_set(*hot_ratio));
                sampler = sampler.with_bottom_skip(Arc::clone(&hot));
                // Strict bound 2n−1 (§4.2.2's largest possible gap).
                let bound = (2 * super_batch - 1) as u64;
                let store =
                    EmbeddingStore::new(Arc::clone(&hot), dataset.spec.hidden_dim, Some(bound));
                (Some(store), Some(hot), Some(hotness))
            }
        };
        let optimizer = Sgd::new(config.lr);
        Self {
            dataset: Arc::new(dataset),
            config,
            model,
            sampler,
            batches,
            optimizer,
            store,
            hot,
            ranking,
            frozen: Vec::new(),
            version: 0,
            pending_refresh: None,
            refresh_rows: 0,
        }
    }

    /// Shared handle to the dataset, for executors whose sample/gather
    /// stages run on worker threads.
    pub fn dataset_handle(&self) -> Arc<Dataset> {
        Arc::clone(&self.dataset)
    }

    /// The neighbor sampler (cloneable for worker threads). Under
    /// [`ReusePolicy::HotnessAware`] it prunes the hot set from the bottom
    /// block, which [`Self::grad_prepared`] relies on to save work — every
    /// executor must stage its batches through (a clone of) this sampler.
    pub fn sampler(&self) -> &NeighborSampler {
        &self.sampler
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// The shuffled batches of `epoch`, in train order.
    pub fn epoch_batches(&self, epoch: usize) -> EpochBatches {
        self.batches.epoch_batches(epoch)
    }

    /// Trains one epoch and reports loss/accuracy/staleness, including the
    /// §4.3 weight-variation monitor `ε = max‖ΔW‖∞ × 2n` measured across
    /// the epoch's super-batches: [`run_epoch_sequential`] with no
    /// simulated link, its stage report dropped.
    pub fn train_epoch(&mut self, epoch: usize) -> EpochObservation {
        run_epoch_sequential(&PipelineConfig::default(), self, epoch).0
    }

    /// The epoch's batch loop alone, over externally prepared batches in
    /// epoch order (`index` 0, 1, 2, …) — training, the super-batch barrier
    /// and the §4.3 weight-variation monitor, but no test-set evaluation
    /// (executors time that separately, so throughput numbers measure
    /// training, not inference). The one-replica case of
    /// [`Self::train_steps_replicated`].
    ///
    /// Every super-batch refresh is computed by `backend`.
    /// The super-batch boundary is **publish-then-launch**: rows computed
    /// from the *previous* boundary's parameter snapshot are installed into
    /// the store, then a new [`RefreshTask`] is captured from the current
    /// parameters and handed to the backend to compute during the upcoming
    /// super-batch. Embeddings read during super-batch `k ≥ 1` therefore
    /// carry the version of boundary `k−1`, giving a gap in `[n, 2n−1]` —
    /// the paper's `< 2n` bound — while the refresh itself overlaps
    /// training (super-batch 0 of a fresh trainer: gap `[0, n−1]`, see the
    /// module docs). Numbers are independent of the backend: the task is a
    /// pure function of its snapshot (see [`crate::refresh`]).
    ///
    /// Each batch is handed to `recycle` once it has trained — the hook a
    /// session uses to dismantle spent batches into its buffer pool. It
    /// runs strictly after the batch's optimizer step and version bump, so
    /// recycling can never affect numerics.
    pub fn train_batches_recycling<I, R>(
        &mut self,
        prepared: I,
        backend: &mut dyn RefreshBackend,
        recycle: R,
    ) -> BatchLoopStats
    where
        I: IntoIterator<Item = PreparedBatch>,
        R: FnMut(PreparedBatch),
    {
        self.train_steps_replicated(prepared.into_iter().map(|item| [item]), backend, recycle)
    }

    /// Prepared steps the batch loop holds beyond the one it is training:
    /// `2n−1` when a hot set is refreshed per super-batch (boundary `k`
    /// must see all of super-batch `k+1`), else 0. Executors count this
    /// window against their in-flight batch budget.
    pub fn lookahead(&self) -> usize {
        let refreshed = self.hot.as_ref().is_some_and(|hot| !hot.is_empty());
        let n = self.super_batch().filter(|_| refreshed);
        n.map_or(0, |n| 2 * n - 1)
    }

    /// `n` under [`ReusePolicy::HotnessAware`].
    fn super_batch(&self) -> Option<usize> {
        match self.config.policy {
            ReusePolicy::HotnessAware { super_batch, .. } => Some(super_batch),
            _ => None,
        }
    }

    /// The one batch loop. Every item of `steps` carries one prepared batch
    /// **per replica**, in fixed replica order, all with the step's index
    /// (`0, 1, 2, …`, asserted: the super-batch barrier and the model
    /// version advance with the train order). Each replica's gradients are
    /// computed at the same parameter version ([`Self::grad_prepared`]),
    /// tree-averaged ([`neutron_nn::tree_average`] — order-independent) and
    /// applied in one shared optimizer step; the recorded loss is the
    /// replica mean. A one-replica step is plain [`Self::train_prepared`]:
    /// no clone, no averaging, no extra float ops.
    ///
    /// The loop fills a window of [`Self::lookahead`] steps, then pulls one
    /// step per step trained, so the boundary at step `kn` can hand
    /// `refresh_boundary` super-batch `k+1`. When `steps` ends early
    /// (a stalled or dead producer) it trains what it holds and returns.
    pub fn train_steps_replicated<I, S, R>(
        &mut self,
        steps: I,
        backend: &mut dyn RefreshBackend,
        mut recycle: R,
    ) -> BatchLoopStats
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[PreparedBatch]> + IntoIterator<Item = PreparedBatch>,
        R: FnMut(PreparedBatch),
    {
        let mut steps = steps.into_iter().fuse();
        let lookahead = self.lookahead();
        let mut window = VecDeque::with_capacity(lookahead + 1);
        let mut losses = Vec::new();
        // §4.3 monitor: (n, weights at the last boundary, max ‖ΔW‖∞ so far).
        let n = self.super_batch();
        let mut reuse = n.map(|n| (n, self.model.snapshot(), 0.0f32));
        for si in 0.. {
            window.extend(steps.by_ref().take(lookahead + 1 - window.len()));
            let Some(step) = window.pop_front() else {
                break;
            };
            let batches: &[PreparedBatch] = step.as_ref();
            assert!(
                !batches.is_empty() && batches.iter().all(|item| item.index == si),
                "a step is one prepared batch per replica, in epoch order"
            );
            if let Some((n, snap, max_delta)) = reuse.as_mut().filter(|r| si % r.0 == 0) {
                // Super-batch boundary k: measure how far the weights moved
                // during the last super-batch, then publish and launch for
                // super-batch k+1, whose steps (k+1)n.. sit at window[n−1..].
                *max_delta = max_delta.max(self.model.max_weight_delta(snap));
                *snap = self.model.snapshot();
                let next = window.iter().skip(*n - 1).flat_map(|s| s.as_ref());
                self.refresh_boundary(backend, next);
            }
            let loss = if let [item] = batches {
                self.train_prepared(&item.blocks, item.rows())
            } else {
                let mut groups = Vec::with_capacity(batches.len());
                let mut loss_sum = 0.0f32;
                for item in batches {
                    loss_sum += self.grad_prepared(&item.blocks, item.rows());
                    groups.push(self.clone_grads());
                }
                self.apply_averaged_grads(neutron_nn::tree_average(groups));
                loss_sum / batches.len() as f32
            };
            losses.push(loss);
            self.version += 1;
            step.into_iter().for_each(&mut recycle);
        }
        let staleness_epsilon = reuse.map_or(0.0, |(n, snap, max_delta)| {
            max_delta.max(self.model.max_weight_delta(&snap)) * 2.0 * n as f32
        });
        BatchLoopStats {
            losses,
            staleness_epsilon,
        }
    }

    /// Completes an epoch observation from batch-loop statistics, running
    /// the (exact, full-neighbor) test-set evaluation.
    pub fn observe_epoch(&self, stats: BatchLoopStats) -> EpochObservation {
        EpochObservation {
            train_loss: stats.losses.iter().sum::<f32>() / stats.losses.len().max(1) as f32,
            test_accuracy: self.evaluate(),
            max_staleness: self.max_staleness(),
            staleness_epsilon: stats.staleness_epsilon,
        }
    }

    /// The train stage: forward/backward/step over one prepared batch,
    /// splicing historical embeddings under the configured policy.
    fn train_prepared(&mut self, blocks: &[Block], feats: RowView<'_>) -> f32 {
        let loss = self.grad_prepared(blocks, feats);
        let mut params = self.model.params_mut();
        self.optimizer.step(&mut params);
        loss
    }

    /// Forward + backward over one prepared batch **without** the optimizer
    /// step: on return every parameter's `grad` holds this batch's
    /// gradients and the model weights are untouched. This is the
    /// per-replica half of a data-parallel step — replicas call it in turn
    /// at the same parameter version, the averaged gradients are installed
    /// with [`Self::apply_averaged_grads`], and one shared step follows.
    /// [`Self::train_prepared`] is exactly this followed by the step, so
    /// the split cannot change single-replica numerics.
    pub fn grad_prepared(&mut self, blocks: &[Block], feats: RowView<'_>) -> f32 {
        let Self {
            model,
            store,
            hot,
            frozen,
            ..
        } = self;
        let hot = hot.as_deref();
        let version = self.version;
        frozen.clear();
        // `bottom_out` has one row per `blocks[1].src()` vertex; the rows a
        // pruned bottom block did not compute are zero until filled here.
        let pass = model.forward_spliced(blocks, feats, |bottom_out| {
            let Some(store) = store else { return };
            for (row, &v) in blocks[1].src().iter().enumerate() {
                // A cold vertex has no slot; under GAS every vertex has one.
                let Some(slot) = store.slot(v) else {
                    continue;
                };
                let stored = store
                    .get(slot, version)
                    .expect("super-batch refresh keeps every entry within bound");
                match (stored, hot) {
                    (Some((stored, _gap)), _) => {
                        bottom_out.copy_row_from(row, stored);
                        frozen.push(row);
                    }
                    // GAS records the embeddings it just computed so later
                    // batches can reuse them.
                    (None, None) => store.put(slot, bottom_out.row(row), version),
                    // The sampler pruned this vertex: nobody computed its
                    // row, and training on zeros would be silent garbage.
                    (None, Some(_)) => panic!(
                        "hot vertex {v} is pruned from the bottom block but has \
                         no stored embedding at version {version}"
                    ),
                }
            }
        });
        let labels = labels_of(&self.dataset, blocks.last().unwrap().dst());
        let lr = cross_entropy(pass.logits(), &labels);
        model.zero_grad();
        model.backward_with_mask(blocks, pass, &lr.d_logits, frozen);
        lr.loss
    }

    /// Clones the gradients currently accumulated on the model — one
    /// replica's contribution to a data-parallel all-reduce.
    pub fn clone_grads(&self) -> neutron_nn::GradSet {
        self.model.params().iter().map(|p| p.grad.clone()).collect()
    }

    /// Installs externally averaged gradients and applies one shared
    /// optimizer step (no version bump — the caller owns step accounting).
    pub fn apply_averaged_grads(&mut self, grads: neutron_nn::GradSet) {
        let mut params = self.model.params_mut();
        assert_eq!(params.len(), grads.len(), "gradient set shape mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            assert_eq!(p.grad.shape(), g.shape());
            p.grad = g;
        }
        self.optimizer.step(&mut params);
    }

    /// Total bytes of the model parameters — the payload one gradient
    /// all-reduce moves (gradients mirror parameter shapes exactly).
    pub fn model_bytes(&self) -> u64 {
        self.model.params().iter().map(|p| p.nbytes() as u64).sum()
    }

    /// One super-batch boundary of the double-buffered refresh pipeline:
    /// publish the rows prepared during the last super-batch, then capture
    /// a fresh parameter snapshot and launch the next refresh on `backend`
    /// — inline for the sequential trainer, a dedicated worker in a session.
    ///
    /// **What a boundary refreshes.** Rows launched at boundary `k` are read
    /// only during super-batch `k+1`, whose batches `next` yields: the
    /// worklist is `hot ∩ blocks[1].src()` over them (sorted, deduped), or
    /// the whole hot set when no next super-batch is in sight (an epoch's
    /// last boundary). A row is a pure function of (vertex, snapshot,
    /// seed), so the worklist never changes a row that is read; a hot row
    /// outside it keeps its old version, which fails the store's bound.
    ///
    /// **Priming** (see the module docs). At the first boundary of a
    /// trainer with an empty store and nothing pending, the task covers the
    /// whole hot set, is submitted like any other and resolved at once,
    /// published *and* kept pending (the next boundary republishes the same
    /// rows; nothing is computed twice). A restored trainer brings its store
    /// and pending refresh from the checkpoint and is not primed.
    fn refresh_boundary<'a>(
        &mut self,
        backend: &mut dyn RefreshBackend,
        next: impl Iterator<Item = &'a PreparedBatch>,
    ) {
        let Some(hot) = self.hot.as_deref().filter(|hot| !hot.is_empty()) else {
            return;
        };
        // Publish: the refresh computed from the *previous* boundary's
        // snapshot becomes visible now, stamped with that older version.
        let store = self.store.as_mut().expect("a hot set comes with a store");
        let prime = match self.pending_refresh.take() {
            Some(pending) => {
                let out = pending.resolve(backend);
                store.put_rows(&out.rows, out.version);
                false
            }
            None => store.is_empty(),
        };
        // Launch: snapshot the bottom layer at the current version.
        let mut next = next.peekable();
        let vertices = if prime || next.peek().is_none() {
            hot.vertices().to_vec()
        } else {
            let reads = next.flat_map(|batch| batch.blocks[1].src());
            let mut demand: Vec<VertexId> = reads.copied().filter(|&v| hot.contains(v)).collect();
            demand.sort_unstable();
            demand.dedup();
            demand
        };
        self.refresh_rows += vertices.len() as u64;
        let task = RefreshTask::new(
            Arc::clone(&self.dataset),
            self.model.layers()[0].clone(),
            self.sampler.clone(),
            vertices,
            self.version,
        );
        let mut pending = backend.submit(task);
        if prime {
            let out = pending.resolve(backend);
            store.put_rows(&out.rows, out.version);
            pending = CpuPart::Ready(out);
        }
        self.pending_refresh = Some(pending);
    }

    /// Resolves any refresh still in flight on `backend` so the trainer can
    /// outlive the backend (e.g. the end of an engine session): a
    /// `Submitted` refresh is collected and held as ready rows, to be
    /// published at whatever boundary comes next.
    pub fn settle_refresh(&mut self, backend: &mut dyn RefreshBackend) {
        if let Some(pending) = self.pending_refresh.take() {
            self.pending_refresh = Some(CpuPart::Ready(pending.resolve(backend)));
        }
    }

    /// Captures the trainer's complete mutable state for a checkpoint.
    /// Settles any refresh still in flight on `backend` first: collecting a
    /// submitted task yields exactly the rows a later `collect` would (the
    /// task is a pure function of its snapshot), so settling is invisible
    /// to the training trajectory — it only makes the state serializable.
    pub fn capture_state(&mut self, backend: &mut dyn RefreshBackend) -> TrainerState {
        self.settle_refresh(backend);
        let pending = self.pending_refresh.as_ref().map(|p| {
            let CpuPart::Ready(out) = p else {
                unreachable!("settle_refresh resolved the pending refresh")
            };
            out.clone()
        });
        TrainerState {
            params: self.model.snapshot(),
            version: self.version,
            store: self.store.as_ref().map(|s| s.snapshot()),
            pending,
        }
    }

    /// Overwrites the trainer's mutable state from a checkpoint — the
    /// restore half of [`Self::capture_state`]. The trainer must have been
    /// built from the same `(dataset, config)` the state was captured under
    /// (shape mismatches are rejected); everything else about it is already
    /// deterministic, so after this call the next `train_epoch(k)` is
    /// bit-identical to the uninterrupted run's epoch `k`.
    ///
    /// The store is rebuilt in the trainer's own key space: a stored or
    /// pending row of a vertex outside it, or of one vertex twice, is an
    /// error. A refused state leaves the trainer as it was.
    pub fn restore_state(&mut self, state: &TrainerState) -> Result<(), String> {
        let params = self.model.params();
        if params.len() != state.params.len() {
            return Err(format!(
                "parameter count mismatch: model has {}, checkpoint has {}",
                params.len(),
                state.params.len()
            ));
        }
        for (i, (p, m)) in params.iter().zip(&state.params).enumerate() {
            if p.value.shape() != m.shape() {
                return Err(format!(
                    "parameter {i} shape mismatch: model {:?}, checkpoint {:?}",
                    p.value.shape(),
                    m.shape()
                ));
            }
        }
        let dim = self.dataset.spec.hidden_dim;
        if let Some(found) = state.store.as_ref().map(|s| s.dim).filter(|&d| d != dim) {
            return Err(format!(
                "store dimension mismatch: trainer {dim}, checkpoint {found}"
            ));
        }
        if let Some(pending) = &state.pending {
            if self.hot.is_none() {
                return Err("a refresh is pending, but the trainer keeps no hot set".into());
            }
            // The next boundary publishes each row into its vertex's slot.
            let store = self.store.as_ref().expect("a hot set comes with a store");
            store.check_rows(&pending.rows, "pending")?;
        }
        // The last fallible step, and it changes nothing when it fails.
        match (&mut self.store, &state.store) {
            (Some(store), Some(snap)) => store.restore(snap)?,
            (None, None) => {}
            _ => return Err("the checkpoint's embedding store does not fit the policy".into()),
        }
        for (p, m) in self.model.params_mut().into_iter().zip(&state.params) {
            p.value.as_mut_slice().copy_from_slice(m.as_slice());
            p.grad.fill_zero();
        }
        self.version = state.version;
        self.pending_refresh = state.pending.clone().map(CpuPart::Ready);
        Ok(())
    }

    /// The hot-vertex set under `HotnessAware`, `None` otherwise.
    pub fn hot_set(&self) -> Option<&HotSet> {
        self.hot.as_deref()
    }

    /// Every vertex in descending presample hotness (GNNLab's bottom-layer
    /// source reads, the hot set its prefix) under `HotnessAware`, `None`
    /// otherwise: the order each lane fills its feature cache in.
    pub fn presample_order(&self) -> Option<&[VertexId]> {
        self.ranking.as_ref().map(HotnessRanking::order)
    }

    /// Share of each boundary's refresh rows the refresh backend computes:
    /// always 1.0, since every row is computed there. Kept for callers that
    /// read it; the §4.1.3 hybrid split lives in the simulator
    /// ([`crate::neutronorch`], Fig 13).
    pub fn refresh_cpu_fraction(&self) -> f64 {
        1.0
    }

    /// Hot rows recomputed by super-batch refreshes since construction;
    /// sessions report its per-epoch delta.
    pub fn refresh_rows(&self) -> u64 {
        self.refresh_rows
    }

    /// Test accuracy with exact (non-stale, full-neighbor) inference.
    /// Hub neighborhoods are capped at 32 to bound the working set; the cap
    /// is deterministic so evaluation is reproducible.
    pub fn evaluate(&self) -> f64 {
        let labels = labels_of(&self.dataset, &self.dataset.test);
        accuracy(&self.eval_logits(EVAL_BOTTOM_CHUNK), &labels)
    }

    /// Test-vertex logits, layer-wise: the frontiers are walked top-down
    /// once, so each needed vertex's bottom embedding is computed once, not
    /// once per test chunk that reaches it. The bottom layer — the one that
    /// touches raw features — runs `bottom_chunk` dst rows at a time. A row
    /// depends only on its own capped neighbour list, so neither the
    /// chunking nor the sharing changes a bit of it.
    fn eval_logits(&self, bottom_chunk: usize) -> Matrix {
        let csr = &self.dataset.csr;
        let layers = self.model.layers();
        // Upper-layer blocks, top first: each src is the dst frontier below.
        let mut upper: Vec<Block> = Vec::with_capacity(layers.len() - 1);
        let mut frontier = self.dataset.test.clone();
        let mut scratch = SamplerScratch::new();
        for _ in 1..layers.len() {
            let block = full_one_hop(csr, &frontier, EVAL_NEIGHBOR_CAP, &mut scratch);
            frontier = block.src().to_vec();
            upper.push(block);
        }
        let hidden = layers[0].out_dim();
        let mut bottom = Vec::with_capacity(frontier.len() * hidden);
        for chunk in frontier.chunks(bottom_chunk) {
            let block = full_one_hop(csr, chunk, EVAL_NEIGHBOR_CAP, &mut scratch);
            let feats = RowView::gather(self.dataset.features(), block.src());
            bottom.extend_from_slice(layers[0].forward(&block, feats).0.as_slice());
        }
        let mut h = Matrix::from_vec(frontier.len(), hidden, bottom);
        for (layer, block) in layers[1..].iter().zip(upper.iter().rev()) {
            h = layer.forward(block, &h).0;
        }
        h
    }

    /// Largest observed embedding version gap (0 when no reuse happened).
    pub fn max_staleness(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.max_observed_gap())
    }

    /// Number of successful embedding reuses so far.
    pub fn embedding_reuses(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.reads())
    }

    /// The policy under test.
    pub fn policy(&self) -> &ReusePolicy {
        &self.config.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refresh::InlineRefresh;
    use neutron_graph::DatasetSpec;

    fn trainer(policy: ReusePolicy) -> ConvergenceTrainer {
        let ds = DatasetSpec::tiny().build_full();
        let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
        cfg.batch_size = 64;
        cfg.lr = 0.5;
        ConvergenceTrainer::new(ds, cfg)
    }

    #[test]
    fn exact_training_learns_tiny_communities() {
        let mut t = trainer(ReusePolicy::Exact);
        let first = t.train_epoch(0);
        let mut last = first;
        for e in 1..8 {
            last = t.train_epoch(e);
        }
        assert!(
            last.test_accuracy > 0.5,
            "accuracy {} too low",
            last.test_accuracy
        );
        assert!(last.train_loss < first.train_loss, "loss must decrease");
        assert_eq!(last.max_staleness, 0);
    }

    #[test]
    fn hotness_aware_respects_staleness_bound() {
        let n = 2;
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: n,
        });
        for e in 0..6 {
            let obs = t.train_epoch(e);
            assert!(
                obs.max_staleness < 2 * n as u64,
                "gap {} ≥ 2n",
                obs.max_staleness
            );
        }
        assert!(
            t.embedding_reuses() > 0,
            "hot embeddings must actually be reused"
        );
    }

    #[test]
    fn single_layer_hotness_aware_trains_exactly_like_exact() {
        // A one-layer model has no layer above the bottom one to reuse
        // into (its bottom rows *are* the logits): no hot set, no store,
        // nothing pruned — the Exact trajectory, bit for bit.
        let one_layer = |policy: ReusePolicy| {
            let ds = DatasetSpec::tiny().build_full();
            assert_ne!(ds.spec.hidden_dim, ds.spec.num_classes);
            let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
            cfg.layers = 1;
            cfg.batch_size = 64;
            ConvergenceTrainer::new(ds, cfg)
        };
        let mut exact = one_layer(ReusePolicy::Exact);
        let mut ours = one_layer(ReusePolicy::HotnessAware {
            hot_ratio: 0.5,
            super_batch: 2,
        });
        assert!(ours.hot_set().is_none());
        for e in 0..2 {
            let (want, got) = (exact.train_epoch(e), ours.train_epoch(e));
            assert_eq!(got.train_loss.to_bits(), want.train_loss.to_bits());
            assert_eq!(got.test_accuracy, want.test_accuracy);
            assert_eq!(got.max_staleness, 0);
        }
        assert_eq!(ours.embedding_reuses(), 0);
    }

    #[test]
    fn hotness_aware_accuracy_close_to_exact() {
        let mut exact = trainer(ReusePolicy::Exact);
        let mut ours = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.2,
            super_batch: 4,
        });
        let mut acc_exact = 0.0;
        let mut acc_ours = 0.0;
        for e in 0..10 {
            acc_exact = exact.train_epoch(e).test_accuracy;
            acc_ours = ours.train_epoch(e).test_accuracy;
        }
        // Paper: "accuracy loss of no more than 1%"; allow a few points of
        // slack on the tiny replica.
        assert!(
            acc_ours > acc_exact - 0.08,
            "bounded staleness cost too much: {acc_ours} vs {acc_exact}"
        );
    }

    #[test]
    fn staleness_epsilon_shrinks_as_training_settles() {
        // §4.3: convergence relies on the weights changing slowly; the
        // measured ε = max‖ΔW‖·2n should drop from the first epochs to the
        // last ones as SGD approaches a minimum.
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.25,
            super_batch: 2,
        });
        let early = t.train_epoch(0).staleness_epsilon;
        let mut late = early;
        for e in 1..10 {
            late = t.train_epoch(e).staleness_epsilon;
        }
        assert!(early > 0.0, "monitor must be active under HE reuse");
        assert!(
            late < early,
            "epsilon should shrink: early {early} late {late}"
        );
        // Exact training reports no epsilon.
        let mut exact = trainer(ReusePolicy::Exact);
        assert_eq!(exact.train_epoch(0).staleness_epsilon, 0.0);
    }

    #[test]
    fn layer_wise_evaluation_equals_per_chunk_full_blocks() {
        for kind in LayerKind::ALL {
            for layers in 1..=3 {
                let ds = DatasetSpec::tiny().build_full();
                let mut cfg = TrainerConfig::convergence_default(kind, ReusePolicy::Exact);
                cfg.layers = layers;
                cfg.batch_size = 64;
                let mut t = ConvergenceTrainer::new(ds, cfg);
                t.train_epoch(0);
                // The former formulation: a full `layers`-hop block stack
                // and a whole-model forward per chunk of test seeds.
                let (mut want, mut correct) = (Vec::new(), 0);
                for chunk in t.dataset.test.chunks(7) {
                    let blocks = neutron_sample::full_blocks(&t.dataset.csr, chunk, layers, 32);
                    let feats = t.dataset.features().gather_rows_u32(blocks[0].src());
                    let pass = t.model.forward(&blocks, &feats);
                    let labels = labels_of(&t.dataset, chunk);
                    correct +=
                        (accuracy(pass.logits(), &labels) * labels.len() as f64).round() as usize;
                    want.extend(pass.logits().as_slice().iter().map(|x| x.to_bits()));
                }
                assert!(t.dataset.test.len() > 7, "the reference must span chunks");
                for bottom_chunk in [5, EVAL_BOTTOM_CHUNK] {
                    let got = t.eval_logits(bottom_chunk);
                    let got: Vec<u32> = got.as_slice().iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "{kind:?} x{layers}, bottom chunk {bottom_chunk}");
                }
                assert_eq!(
                    t.evaluate(),
                    correct as f64 / t.dataset.test.len() as f64,
                    "{kind:?} x{layers}"
                );
            }
        }
    }

    #[test]
    fn capture_restore_resumes_bit_identically() {
        let policy = || ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        };
        let mut full = trainer(policy());
        let mut want = Vec::new();
        for e in 0..6 {
            let obs = full.train_epoch(e);
            want.push((obs.train_loss.to_bits(), obs.max_staleness));
        }
        // Kill after epoch 3, checkpoint, restore into a fresh trainer.
        let mut killed = trainer(policy());
        for e in 0..3 {
            killed.train_epoch(e);
        }
        let state = killed.capture_state(&mut InlineRefresh::default());
        let mut resumed = trainer(policy());
        resumed.restore_state(&state).unwrap();
        for (e, want) in want.iter().enumerate().skip(3) {
            let obs = resumed.train_epoch(e);
            assert_eq!(
                (obs.train_loss.to_bits(), obs.max_staleness),
                *want,
                "epoch {e} diverged after restore"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let mut small = trainer(ReusePolicy::Exact);
        let state = small.capture_state(&mut InlineRefresh::default());
        let ds = DatasetSpec::tiny().build_full();
        let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, ReusePolicy::Exact);
        cfg.layers = 3; // different parameter list
        let mut other = ConvergenceTrainer::new(ds, cfg);
        assert!(other.restore_state(&state).is_err());
    }

    #[test]
    fn gas_reuses_with_unbounded_staleness() {
        let mut t = trainer(ReusePolicy::GasLike);
        let mut max_gap = 0;
        for e in 0..4 {
            max_gap = t.train_epoch(e).max_staleness;
        }
        assert!(t.embedding_reuses() > 0);
        // With 3+ batches per epoch and no version control, gaps exceed a
        // NeutronOrch-style bound of 2n for small n.
        assert!(
            max_gap >= 2,
            "GAS-like staleness should be loose, got {max_gap}"
        );
    }
}
