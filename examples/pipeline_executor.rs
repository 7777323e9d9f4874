//! Sequential vs pipelined epoch throughput on the scaled Reddit replica,
//! and the demonstration that a pipelined session hides the (simulated)
//! host→device transfer behind compute — the paper's Fig 8 / Fig 14 claim.
//!
//! ```text
//! cargo run --release --example pipeline_executor
//! ```
//!
//! Replica methodology for the transfer stage: compute on the replica
//! (CPU-only, scalar kernels) is orders of magnitude slower than the
//! paper's V100, so a faithfully *proportioned* transfer stage must scale
//! PCIe bandwidth down by the same factor — otherwise transfer would be
//! negligible and no orchestration decision would matter, contradicting the
//! paper's own profile (Fig 2: gather/transfer dominate the epoch). The
//! example calibrates the simulated link so transfer time ≈ 50% of measured
//! compute, inside the Fig 2 Case-1 regime, then runs the *same* stall on
//! both the sequential baseline and a one-epoch pipelined `Session`.
//!
//! Writes `BENCH_pipeline.json` with the measured baseline so future PRs
//! have a perf trajectory to beat.

use neutronorch::core::pipeline::{run_epoch_sequential, PipelineConfig, PipelineReport};
use neutronorch::core::session::{Session, SessionConfig};
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::LayerKind;

const SAMPLER_THREADS: usize = 2;
const GATHER_THREADS: usize = 1;

fn trainer(spec: &DatasetSpec, policy: ReusePolicy) -> ConvergenceTrainer {
    let config = TrainerConfig {
        kind: LayerKind::Gcn,
        layers: 3,
        batch_size: 512,
        lr: 0.1,
        seed: 0x9192,
        policy,
    };
    ConvergenceTrainer::new(spec.build_full(), config)
}

fn print_report(label: &str, r: &PipelineReport) {
    println!(
        "{label:<12} epoch {:7.2}s  sample {:6.2}s  gather {:5.2}s  transfer {:6.2}s  train {:6.2}s  {:5.2} batches/s",
        r.epoch_seconds,
        r.sample_seconds,
        r.gather_collect_seconds,
        r.transfer_seconds,
        r.train_seconds,
        r.batches_per_second(),
    );
}

fn main() {
    let spec = DatasetSpec::reddit_scaled();
    println!(
        "building {} replica (|V|={}, {} feature dims)...",
        spec.name, spec.vertices, spec.feature_dim
    );

    // --- Calibration: one pure-compute epoch (no transfer stall). -------
    let mut cal = trainer(&spec, ReusePolicy::Exact);
    let calibrate = PipelineConfig {
        h2d_gibps: 0.0,
        ..PipelineConfig::default()
    };
    let (_, compute) = run_epoch_sequential(&calibrate, &mut cal, 0);
    let h2d_gibps = compute.h2d_bytes as f64 / (0.5 * compute.epoch_seconds) / (1u64 << 30) as f64;
    println!(
        "calibration: compute epoch {:.2}s, {:.1} MiB h2d -> simulated link {:.3} GiB/s (transfer ≈ 50% of compute)\n",
        compute.epoch_seconds,
        compute.h2d_bytes as f64 / (1u64 << 20) as f64,
        h2d_gibps
    );

    // --- Head-to-head: identical stage costing, serial vs overlapped. ---
    let config = PipelineConfig {
        sampler_threads: SAMPLER_THREADS,
        gather_threads: GATHER_THREADS,
        channel_depth: 4,
        h2d_gibps,
    };
    // No cache budget: both sides ship the identical byte volume.
    let session = Session::new(SessionConfig {
        pipeline: config.clone(),
        adaptive_split: false,
        gpu_free_bytes: 0,
        ..SessionConfig::default()
    });
    let pipelined_epoch = |t: &mut ConvergenceTrainer| {
        let run = session.run_session(t, 0, 1).epochs.remove(0);
        (run.observation, run.report)
    };
    let mut seq = trainer(&spec, ReusePolicy::Exact);
    let mut pip = trainer(&spec, ReusePolicy::Exact);
    let (seq_obs, seq_report) = run_epoch_sequential(&config, &mut seq, 0);
    let (pip_obs, pip_report) = pipelined_epoch(&mut pip);
    print_report("sequential", &seq_report);
    print_report("pipelined", &pip_report);
    assert_eq!(
        seq_obs.train_loss, pip_obs.train_loss,
        "pipelining must not change the training trajectory"
    );
    let speedup = seq_report.epoch_seconds / pip_report.epoch_seconds;
    println!(
        "\nloss {:.4} (identical in both modes) — pipelined speedup {speedup:.2}x with {SAMPLER_THREADS} sampler threads\n",
        pip_obs.train_loss
    );

    // --- Hotness-aware pipelined epoch: bounded-staleness reuse. --------
    let super_batch = 4;
    let mut hot = trainer(
        &spec,
        ReusePolicy::HotnessAware {
            hot_ratio: 0.15,
            super_batch,
        },
    );
    let (hot_obs, hot_report) = pipelined_epoch(&mut hot);
    print_report("hot-aware", &hot_report);
    println!(
        "hotness-aware: max staleness {} (< 2n = {}), {} embedding reuses, ε = {:.4}\n",
        hot_obs.max_staleness,
        2 * super_batch,
        hot.embedding_reuses(),
        hot_obs.staleness_epsilon
    );

    // --- Record the baseline. -------------------------------------------
    let json = format!(
        "{{\n  \"dataset\": \"{}\",\n  \"replica_vertices\": {},\n  \"layers\": 3,\n  \"batch_size\": 512,\n  \"sampler_threads\": {},\n  \"gather_threads\": {},\n  \"h2d_gibps\": {:.4},\n  \"compute_epoch_seconds\": {:.3},\n  \"sequential_epoch_seconds\": {:.3},\n  \"pipelined_epoch_seconds\": {:.3},\n  \"sequential_batches_per_second\": {:.3},\n  \"pipelined_batches_per_second\": {:.3},\n  \"speedup\": {:.3},\n  \"h2d_mib\": {:.1},\n  \"hotness_max_staleness\": {},\n  \"hotness_super_batch\": {}\n}}\n",
        spec.name,
        spec.vertices,
        SAMPLER_THREADS,
        GATHER_THREADS,
        h2d_gibps,
        compute.epoch_seconds,
        seq_report.epoch_seconds,
        pip_report.epoch_seconds,
        seq_report.batches_per_second(),
        pip_report.batches_per_second(),
        speedup,
        seq_report.h2d_bytes as f64 / (1u64 << 20) as f64,
        hot_obs.max_staleness,
        super_batch,
    );
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");
    assert!(
        speedup >= 1.3,
        "the pipelined session must demonstrate ≥ 1.3x epoch throughput (got {speedup:.2}x)"
    );
}
