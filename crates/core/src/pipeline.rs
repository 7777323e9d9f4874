//! The stage-graph vocabulary shared by every executor — [`PipelineConfig`]
//! (staging depth, simulated H2D link) and [`PipelineReport`] (per-stage
//! busy seconds and bytes of one epoch) — the **one staging path**
//! ([`stage_batch`]: sample → gather → transfer of one batch, which
//! returns its stats) and the **sequential reference** a session is
//! measured and checked against ([`run_epoch_sequential`]).
//!
//! A session lane and the sequential reference stage every batch through
//! [`stage_batch`]; they differ only in where its buffers come from (a
//! recycled pool vs fresh ones) and in the feature cache (the lane's vs an
//! empty one). The stage graph itself (staging on one fused worker per
//! lane, train on the caller's thread) runs under
//! [`crate::session::Session`].
//!
//! Two fields stay only because the benchmark adapter
//! (`crates/orchbench`) spells them: [`PipelineConfig::sampler_threads`]
//! and [`PipelineConfig::gather_threads`] are read by nothing (a lane has
//! one fused worker), and [`PipelineReport::reorder_peak`] is always 0
//! (every lane delivers in order).
//!
//! Determinism: block sampling is seeded by `(config seed, epoch, batch
//! index)` ([`crate::trainer::batch_sample_seed`]) and the train stage
//! consumes batches in epoch order, so the loss trajectory of a session is
//! **bit-identical to the sequential reference for any thread count** —
//! concurrency changes wall-clock, never results.
//!
//! Staleness: the super-batch boundary runs on the train thread between
//! batches, publishing the refresh prepared during the *previous*
//! super-batch (double buffering, see [`crate::refresh`]); every
//! historical-embedding read observes a version gap `< 2n`, enforced hard
//! by the bounded [`neutron_cache::EmbeddingStore`].

use crate::gather::{GatheredFeatures, StagedBatch};
use crate::pool::BatchBuffers;
use crate::refresh::InlineRefresh;
use crate::session::ReplicaEpochStats;
use crate::trainer::{batch_sample_seed, ConvergenceTrainer, EpochObservation};
use neutron_cache::FeatureCache;
use neutron_graph::{Dataset, VertexId};
use neutron_sample::{BlockBuilder, LocalityCounts, NeighborSampler};
use neutron_tensor::alloc::{self, Stage};
use std::time::{Duration, Instant};

/// Stage-graph shape: staging depth and the simulated link.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Inert: each lane samples on its one fused worker. Kept because the
    /// benchmark adapter sets it (see the module docs).
    pub sampler_threads: usize,
    /// Inert, like [`Self::sampler_threads`].
    pub gather_threads: usize,
    /// Staging depth of each lane, in batches, the train loop's lookahead
    /// window included (see [`Self::train_feed_depth`]). Bounds memory.
    pub channel_depth: usize,
    /// Simulated host→device bandwidth in GiB/s; `0.0` disables the
    /// transfer stall (bytes are still accounted). Replica methodology:
    /// compute on the replica is orders of magnitude slower than the
    /// paper's V100, so a faithfully *proportioned* transfer stage scales
    /// PCIe bandwidth down by the same factor (the simulator applies the
    /// identical rule to memory capacities).
    pub h2d_gibps: f64,
}

impl PipelineConfig {
    /// Capacity of the channel that feeds a train loop holding `lookahead`
    /// prepared batches of its own
    /// ([`ConvergenceTrainer::lookahead`]): the window counts against
    /// `channel_depth` (floor 1), so in-flight memory stays what the depth
    /// promises.
    pub fn train_feed_depth(&self, lookahead: usize) -> usize {
        self.channel_depth.saturating_sub(lookahead).max(1)
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            sampler_threads: 2,
            gather_threads: 1,
            channel_depth: 4,
            h2d_gibps: 0.0,
        }
    }
}

/// Per-stage busy time and throughput of one pipelined epoch — the measured
/// counterpart of the simulator's [`crate::report::EpochReport`] (same
/// field naming so tables can mix both).
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Wall-clock of the epoch, seconds.
    pub epoch_seconds: f64,
    /// Batches executed.
    pub num_batches: usize,
    /// Busy seconds summed across sampling workers.
    pub sample_seconds: f64,
    /// Busy seconds summed across gather workers ("Gather (FC)").
    pub gather_collect_seconds: f64,
    /// Busy seconds of the transfer stage ("Gather (FT)"), including the
    /// simulated stall.
    pub transfer_seconds: f64,
    /// Seconds the train stage spent actually training (wall minus time
    /// blocked waiting for upstream stages).
    pub train_seconds: f64,
    /// Seconds the train stage spent starved, waiting on upstream.
    pub train_wait_seconds: f64,
    /// Host→device bytes the epoch shipped — miss features plus block
    /// structure; cache-resident features never cross the link.
    pub h2d_bytes: u64,
    /// Always 0: every lane delivers in order. Kept because the benchmark
    /// adapter reads it (see the module docs).
    pub reorder_peak: usize,
    /// Source vertices whose features were served from the GPU feature
    /// cache this epoch (no host gather, no H2D bytes).
    pub cache_hits: u64,
    /// Source vertices host-gathered and transferred this epoch.
    /// `cache_hits + cache_misses` is the epoch's total gathered vertex
    /// count, invariant across cache budgets.
    pub cache_misses: u64,
    /// Failure/recovery timeline of the epoch: the injected faults,
    /// detections and supervisor responses whose `epoch` is this one, in
    /// detection order. Empty in healthy epochs.
    pub failures: Vec<crate::fault::FailureEvent>,
}

impl PipelineReport {
    /// Fraction of the epoch the train stage was compute-bound (1.0 means
    /// the pipeline kept the trainer perfectly fed).
    pub fn train_occupancy(&self) -> f64 {
        self.train_seconds / self.epoch_seconds.max(1e-12)
    }
}

/// What [`stage_batch`] stages against: the inputs that stay fixed over a
/// lane's life (or a sequential epoch).
pub struct StageInputs<'a> {
    /// Its `h2d_gibps` sets the simulated transfer stall.
    pub pipeline: &'a PipelineConfig,
    /// Graph and host features.
    pub dataset: &'a Dataset,
    /// The trainer's sampler ([`ConvergenceTrainer::sampler`]), so hot
    /// vertices are pruned from the bottom block.
    pub sampler: &'a NeighborSampler,
    /// Device-resident feature rows; empty for the sequential reference.
    pub cache: &'a FeatureCache,
    /// Every vertex's partition and the lane's own: bottom-block sources
    /// owned elsewhere are counted as remote pulls. `None` is one partition.
    pub partition: Option<(&'a [u32], u32)>,
    /// Draw partition-local neighbours first (needs `partition`).
    pub locality_aware: bool,
}

/// Stages one batch — the paper's sample → gather (collect, then transfer)
/// path, written once for every executor: a session lane, the sequential
/// reference and [`ConvergenceTrainer::train_epoch`]. In order, each step
/// timed into the returned stats and tagged with its alloc [`Stage`]:
///
/// 1. sample through the pooled sampler (locality-biased when
///    `inputs.locality_aware`), drawing block buffers from `builder` and
///    the donated spares of `bufs`, then count remote rows and picks;
/// 2. the cache-keyed gather of the bottom block's sources;
/// 3. the transfer: account the batch's H2D bytes and, on a simulated link,
///    stall for their PCIe time.
///
/// Returns the staged batch with its own stats (`batches: 1`), which the
/// consumer adds into the epoch the batch belongs to.
///
/// `seed` is the batch's sampling seed ([`batch_sample_seed`]). A fresh
/// `builder` and `bufs` allocate; recycled ones only lend capacity, so the
/// staged batch is the same either way (`tests/property_pooling.rs`).
pub fn stage_batch(
    inputs: &StageInputs<'_>,
    index: usize,
    batch: &[VertexId],
    seed: u64,
    builder: &mut BlockBuilder,
    mut bufs: BatchBuffers,
) -> (StagedBatch, ReplicaEpochStats) {
    let (dataset, sampler) = (inputs.dataset, inputs.sampler);
    let row_bytes = dataset.spec.feature_row_bytes();
    let caller_stage = alloc::set_stage(Stage::Sample);
    let t_sample = Instant::now();
    bufs.donate_to(builder);
    let (csr, mut picks) = (&dataset.csr, LocalityCounts::default());
    let blocks = match inputs.partition {
        Some((owner, part)) if inputs.locality_aware => {
            sampler.sample_batch_pooled_biased(csr, batch, seed, builder, owner, part, &mut picks)
        }
        _ => sampler.sample_batch_pooled(csr, batch, seed, builder),
    };
    let remote_rows = inputs.partition.map_or(0, |(owner, part)| {
        let src = blocks[0].src();
        src.iter().filter(|&&v| owner[v as usize] != part).count() as u64
    });
    let mut stats = ReplicaEpochStats {
        remote_feature_bytes: remote_rows * row_bytes,
        local_picks: picks.local_picks,
        remote_picks: picks.remote_picks,
        batches: 1,
        sample_seconds: t_sample.elapsed().as_secs_f64(),
        ..ReplicaEpochStats::default()
    };

    alloc::set_stage(Stage::Gather);
    let t_gather = Instant::now();
    let features = GatheredFeatures::gather_pooled(dataset, &blocks[0], inputs.cache, &mut bufs);
    debug_assert_eq!(
        features.h2d_feature_bytes(),
        features.num_misses() as u64 * row_bytes,
        "only miss rows may cross the link"
    );
    stats.gather_seconds = t_gather.elapsed().as_secs_f64();

    // Transfer: only miss rows and block structure cross the link.
    alloc::set_stage(Stage::Transfer);
    let t_transfer = Instant::now();
    let staged = StagedBatch {
        index,
        blocks,
        features,
        bufs,
    };
    stats.h2d_bytes = staged.h2d_bytes();
    let gibps = inputs.pipeline.h2d_gibps;
    if gibps > 0.0 {
        let secs = stats.h2d_bytes as f64 / (gibps * (1u64 << 30) as f64);
        std::thread::sleep(Duration::from_secs_f64(secs));
    }
    stats.transfer_seconds = t_transfer.elapsed().as_secs_f64();
    alloc::set_stage(caller_stage);
    (staged, stats)
}

/// The unpipelined baseline: [`stage_batch`] and the train stage executed
/// serially on the calling thread — the paper's "w/o pipelining" ablation
/// (Fig 14). Comparing a [`crate::session::Session`] epoch against this
/// isolates the benefit of overlap, with identical per-batch work on both
/// sides, and its loss trajectory is the one every session must reproduce
/// bit for bit.
///
/// Every batch stages against an empty cache (all-miss) on a fresh
/// [`BlockBuilder`] and [`BatchBuffers`], so this is also the allocating
/// "before" the pooled session is compared against in
/// `tests/alloc_budget.rs`.
pub fn run_epoch_sequential(
    config: &PipelineConfig,
    trainer: &mut ConvergenceTrainer,
    epoch: usize,
) -> (EpochObservation, PipelineReport) {
    let dataset = trainer.dataset_handle();
    let sampler = trainer.sampler().clone();
    let config_seed = trainer.config().seed;
    let batches = trainer.epoch_batches(epoch);
    let empty_cache = FeatureCache::empty();
    let inputs = StageInputs {
        pipeline: config,
        dataset: &dataset,
        sampler: &sampler,
        cache: &empty_cache,
        partition: None,
        locality_aware: false,
    };
    let (mut cache_misses, mut stats) = (0u64, ReplicaEpochStats::default());
    let wall = Instant::now();
    let items = batches.iter().enumerate().map(|(i, batch)| {
        let seed = batch_sample_seed(config_seed, epoch, i);
        let bufs = BatchBuffers::new();
        let (staged, batch_stats) =
            stage_batch(&inputs, i, batch, seed, &mut BlockBuilder::new(), bufs);
        stats.add(&batch_stats);
        cache_misses += staged.features.num_misses() as u64;
        staged.into_prepared(&empty_cache)
    });
    let prev_stage = alloc::set_stage(Stage::Train);
    let train = trainer.train_batches_recycling(items, &mut InlineRefresh::default(), |_| {});
    alloc::set_stage(prev_stage);

    // Same timed region as a session epoch: stage graph only, no eval.
    let epoch_seconds = wall.elapsed().as_secs_f64();
    let observation = trainer.observe_epoch(train);
    let staged = stats.sample_seconds + stats.gather_seconds + stats.transfer_seconds;
    let report = PipelineReport {
        epoch_seconds,
        num_batches: batches.len(),
        sample_seconds: stats.sample_seconds,
        gather_collect_seconds: stats.gather_seconds,
        transfer_seconds: stats.transfer_seconds,
        train_seconds: (epoch_seconds - staged).max(0.0),
        train_wait_seconds: staged,
        h2d_bytes: stats.h2d_bytes,
        reorder_peak: 0,
        cache_hits: 0,
        cache_misses,
        failures: Vec::new(),
    };
    (observation, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionConfig};
    use crate::trainer::{ReusePolicy, TrainerConfig};
    use neutron_graph::DatasetSpec;
    use neutron_nn::LayerKind;

    #[test]
    fn transfer_stall_is_hidden_by_the_pipeline() {
        // With a slow simulated link, the sequential baseline pays the full
        // stall; a session overlaps it with compute. The tiny dataset's
        // per-epoch compute (<1 ms) is smaller than scheduler noise, so
        // this comparison needs a workload whose overlappable compute
        // dwarfs both worker startup and timing jitter.
        let make = || {
            let ds = DatasetSpec::reddit_convergence().build_full();
            let cfg = TrainerConfig::convergence_default(LayerKind::Gcn, ReusePolicy::Exact);
            ConvergenceTrainer::new(ds, cfg)
        };
        let cfg = PipelineConfig {
            h2d_gibps: 0.2,
            ..PipelineConfig::default()
        };
        let session = Session::new(SessionConfig {
            pipeline: cfg.clone(),
            ..SessionConfig::default()
        });
        // Even so, the whole workspace suite may be running concurrently
        // on this one core, and the pipelined side can lose its slice to a
        // competing test binary. The overlap itself is deterministic, so
        // one fairly-scheduled paired attempt out of three is conclusive.
        let mut attempts = Vec::new();
        for _ in 0..3 {
            let mut seq = make();
            let mut pip = make();
            let (_, seq_report) = run_epoch_sequential(&cfg, &mut seq, 0);
            let pip_report = session.run_session(&mut pip, 0, 1).epochs.remove(0).report;
            assert_eq!(seq_report.h2d_bytes, pip_report.h2d_bytes);
            if pip_report.epoch_seconds < seq_report.epoch_seconds {
                return;
            }
            attempts.push((pip_report.epoch_seconds, seq_report.epoch_seconds));
        }
        panic!("pipelined never beat sequential in 3 paired runs (pip, seq): {attempts:?}");
    }
}
