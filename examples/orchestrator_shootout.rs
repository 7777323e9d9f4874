//! Orchestrator shootout: simulate one epoch of every task-orchestration
//! strategy on a scaled Reddit replica and print the Fig-2-style comparison
//! (runtime, utilization, transfers, memory).
//!
//! ```text
//! cargo run --release --example orchestrator_shootout
//! ```

use neutronorch::core::baselines::roster;
use neutronorch::core::profile::{WorkloadConfig, WorkloadProfile};
use neutronorch::graph::DatasetSpec;
use neutronorch::hetero::HardwareSpec;
use neutronorch::nn::LayerKind;

fn main() {
    let spec = DatasetSpec::reddit_scaled();
    let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
    cfg.profiled_batches = 4;
    println!(
        "profiling {} replica (|V|={}, scale {:.0}x)...",
        spec.name, spec.vertices, spec.scale
    );
    let profile = WorkloadProfile::build(&spec, &cfg);
    println!(
        "  {} batches/epoch, hot set {} vertices covering {:.0}% of paper-scale accesses\n",
        profile.num_batches,
        profile.hot.len(),
        profile.paper_coverage(cfg.hot_ratio) * 100.0
    );

    let hw = HardwareSpec::v100_server(1.0);
    println!(
        "{:<12} {:>10} {:>9} {:>9} {:>12} {:>11}",
        "system", "epoch (ms)", "CPU util", "GPU util", "h2d (MB)", "GPU mem (GB)"
    );
    let mut baseline = None;
    // The roster leads with DGL, the reference of the speedup column.
    for (name, sys) in roster(LayerKind::Gcn) {
        let sys = sys.expect("every roster system supports GCN");
        match sys.simulate_epoch(&profile, &hw) {
            Ok(r) => {
                if baseline.is_none() {
                    baseline = Some(r.epoch_seconds);
                }
                println!(
                    "{:<12} {:>10.1} {:>8.0}% {:>8.0}% {:>12.1} {:>11.2}  ({:.2}x vs DGL)",
                    r.system,
                    r.epoch_seconds * 1e3,
                    r.cpu_util * 100.0,
                    r.gpu_util * 100.0,
                    r.h2d_bytes as f64 / 1e6,
                    r.gpu_mem_peak as f64 / (1u64 << 30) as f64,
                    baseline.unwrap() / r.epoch_seconds
                );
            }
            Err(oom) => println!("{name:<12} OOM: {oom}"),
        }
    }
}
