//! The stage-graph vocabulary shared by every executor — [`PipelineConfig`]
//! (staging depth, simulated H2D link) and [`PipelineReport`] (per-stage
//! busy seconds and bytes of one epoch) — and the **sequential reference**
//! a session is measured and checked against ([`run_epoch_sequential`]).
//!
//! The stage graph itself (sample → gather → transfer on one fused worker
//! per lane, train on the caller's thread) runs under
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

use crate::engine::{transfer_stage, BusyNs};
use crate::gather::{GatheredFeatures, StagedBatch};
use crate::pool::BatchBuffers;
use crate::refresh::InlineRefresh;
use crate::trainer::{batch_sample_seed, ConvergenceTrainer, EpochObservation};
use neutron_cache::FeatureCache;
use neutron_tensor::alloc::{self, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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
    /// Failure/recovery timeline recorded during the epoch: injected
    /// faults, detections and the supervisor's responses, in detection
    /// order. Empty in healthy epochs.
    pub failures: Vec<crate::fault::FailureEvent>,
}

impl PipelineReport {
    /// Epoch throughput in batches per second.
    pub fn batches_per_second(&self) -> f64 {
        self.num_batches as f64 / self.epoch_seconds.max(1e-12)
    }

    /// Fraction of the epoch the train stage was compute-bound (1.0 means
    /// the pipeline kept the trainer perfectly fed).
    pub fn train_occupancy(&self) -> f64 {
        self.train_seconds / self.epoch_seconds.max(1e-12)
    }
}

/// The unpipelined baseline: the *same* stage costing (including the
/// simulated transfer stall) executed serially on the calling thread —
/// the paper's "w/o pipelining" ablation (Fig 14). Comparing a
/// [`crate::session::Session`] epoch against this isolates the benefit
/// of overlap, with identical per-batch work on both sides, and its
/// loss trajectory is the one every session must reproduce bit for bit.
pub fn run_epoch_sequential(
    config: &PipelineConfig,
    trainer: &mut ConvergenceTrainer,
    epoch: usize,
) -> (EpochObservation, PipelineReport) {
    let dataset = trainer.dataset_handle();
    let sampler = trainer.sampler().clone();
    let config_seed = trainer.config().seed;
    let batches = trainer.epoch_batches(epoch);
    let total = batches.len();

    let sample_busy = BusyNs::default();
    let gather_busy = BusyNs::default();
    let transfer_busy = BusyNs::default();
    let h2d_bytes = AtomicU64::new(0);

    // The cache-less baseline runs the *same* cache-keyed gather,
    // transfer costing and device-side assembly as the engine, against
    // an empty cache (all-miss). One shared path means the accounting
    // can never drift between executors. Per-stage alloc tags give the
    // honest allocating "before" numbers the pooled engine is compared
    // against in `tests/alloc_budget.rs`.
    let empty_cache = FeatureCache::empty();
    let mut gathered_vertices = 0u64;
    let wall = Instant::now();
    let items = batches.iter().enumerate().map(|(i, batch)| {
        alloc::set_stage(Stage::Sample);
        let t0 = Instant::now();
        let blocks = sampler.sample_batch(
            &dataset.csr,
            batch,
            batch_sample_seed(config_seed, epoch, i),
        );
        sample_busy.add(t0);
        alloc::set_stage(Stage::Gather);
        let t1 = Instant::now();
        let features = GatheredFeatures::gather(&dataset, &blocks[0], &empty_cache);
        gather_busy.add(t1);
        gathered_vertices += features.num_misses() as u64;
        let item = StagedBatch {
            index: i,
            blocks,
            features,
            bufs: BatchBuffers::new(),
        };
        alloc::set_stage(Stage::Transfer);
        let t2 = Instant::now();
        transfer_stage(config, &item, &h2d_bytes);
        transfer_busy.add(t2);
        alloc::set_stage(Stage::Train);
        item.into_prepared(&empty_cache)
    });
    let prev_stage = alloc::set_stage(Stage::Train);
    let stats = trainer.train_batches_recycling(items, &mut InlineRefresh::default(), |_| {});
    alloc::set_stage(prev_stage);

    // Same timed region as a session epoch: stage graph only, no eval.
    let epoch_seconds = wall.elapsed().as_secs_f64();
    let observation = trainer.observe_epoch(stats);
    let staged = sample_busy.seconds() + gather_busy.seconds() + transfer_busy.seconds();
    let report = PipelineReport {
        epoch_seconds,
        num_batches: total,
        sample_seconds: sample_busy.seconds(),
        gather_collect_seconds: gather_busy.seconds(),
        transfer_seconds: transfer_busy.seconds(),
        train_seconds: (epoch_seconds - staged).max(0.0),
        train_wait_seconds: staged,
        h2d_bytes: h2d_bytes.load(Ordering::Relaxed),
        reorder_peak: 0,
        cache_hits: 0,
        cache_misses: gathered_vertices,
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
