//! Per-epoch simulation reports.

use neutron_hetero::{RunReport, TaskKind};

/// Everything an orchestrator reports about one simulated epoch — the raw
/// material for every table and figure of the evaluation.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// System label ("DGL", "NeutronOrch", …).
    pub system: String,
    /// Simulated wall-clock of the epoch, seconds.
    pub epoch_seconds: f64,
    /// CPU pool busy fraction.
    pub cpu_util: f64,
    /// GPU busy fraction (mean across GPUs).
    pub gpu_util: f64,
    /// Busy seconds of the sample step.
    pub sample_seconds: f64,
    /// Busy seconds of host-side feature collection ("Gather (FC)").
    pub gather_collect_seconds: f64,
    /// Busy seconds of host↔device transfer ("Gather (FT)").
    pub transfer_seconds: f64,
    /// Busy seconds of GPU training.
    pub train_seconds: f64,
    /// Busy seconds of CPU historical-embedding computation.
    pub hot_embed_seconds: f64,
    /// Bytes moved host→device during the epoch.
    pub h2d_bytes: u64,
    /// Peak GPU memory across the epoch (max over GPUs).
    pub gpu_mem_peak: u64,
    /// Batches in the epoch.
    pub num_batches: usize,
}

impl EpochReport {
    /// Assembles a report from an engine run plus memory/transfer tallies.
    /// The two utilisations are the means over the run's `cpu*` and `gpu*`
    /// resources.
    pub fn from_run(
        system: impl Into<String>,
        run: &RunReport,
        h2d_bytes: u64,
        gpu_mem_peak: u64,
        num_batches: usize,
    ) -> Self {
        Self {
            system: system.into(),
            epoch_seconds: run.makespan,
            cpu_util: mean_util(run, "cpu"),
            gpu_util: mean_util(run, "gpu"),
            sample_seconds: run.busy(TaskKind::Sample),
            gather_collect_seconds: run.busy(TaskKind::GatherCollect),
            transfer_seconds: run.busy(TaskKind::Transfer),
            train_seconds: run.busy(TaskKind::Train),
            hot_embed_seconds: run.busy(TaskKind::HotEmbed),
            h2d_bytes,
            gpu_mem_peak,
            num_batches,
        }
    }

    /// Gather share of the epoch (FC + FT), as reported in Table 2.
    pub fn gather_seconds(&self) -> f64 {
        self.gather_collect_seconds + self.transfer_seconds
    }
}

/// Mean utilization across all resources whose name starts with `prefix`.
fn mean_util(run: &RunReport, prefix: &str) -> f64 {
    let vals: Vec<f64> = run
        .resource_names
        .iter()
        .zip(&run.utilization)
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(_, &u)| u)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_hetero::{Engine, TaskKind};

    #[test]
    fn from_run_extracts_kind_breakdown() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu", 1.0);
        let a = e.add_task(cpu, TaskKind::Sample, 1.0, 1.0, &[]);
        let b = e.add_task(cpu, TaskKind::GatherCollect, 2.0, 1.0, &[a]);
        e.add_task(cpu, TaskKind::Transfer, 0.5, 1.0, &[b]);
        let run = e.run();
        let r = EpochReport::from_run("X", &run, 42, 7, 3);
        assert!(
            (r.cpu_util - 1.0).abs() < 1e-9,
            "the one cpu is always busy"
        );
        assert_eq!(r.gpu_util, 0.0, "no gpu resource registered");
        assert!((r.sample_seconds - 1.0).abs() < 1e-9);
        assert!((r.gather_seconds() - 2.5).abs() < 1e-9);
        assert!((r.epoch_seconds - 3.5).abs() < 1e-9);
        assert_eq!(r.h2d_bytes, 42);
        assert_eq!(r.gpu_mem_peak, 7);
    }
}
