//! DSP-like multi-GPU orchestrator: Case 4 replicated across GPUs with
//! cooperative sampling over NVLink and per-batch gradient all-reduce.

use super::step_based::{simulate_step_based, StepPlan};
use crate::orchestrator::Orchestrator;
use crate::profile::WorkloadProfile;
use crate::report::EpochReport;
use neutron_hetero::{HardwareSpec, OomError};

/// DSP-like multi-GPU system (§5.3): GPU sampling with the topology
/// partitioned across devices, popular-feature caching, NVLink exchanges.
#[derive(Clone, Debug)]
pub struct DspLike {
    /// Minimum feature-cache ratio DSP's kernels assume; falling below it is
    /// reported as a memory failure (the paper's Fig 11 "X"/"OOM" cells at
    /// low GPU counts on Papers100M).
    pub min_cache_ratio: f64,
}

impl Default for DspLike {
    fn default() -> Self {
        let min_cache_ratio = StepPlan::DSP.replicated.expect("DSP's plan is replicated");
        Self { min_cache_ratio }
    }
}

impl Orchestrator for DspLike {
    fn name(&self) -> String {
        "DSP".into()
    }

    fn simulate_epoch(
        &self,
        profile: &WorkloadProfile,
        hw: &HardwareSpec,
    ) -> Result<EpochReport, OomError> {
        let plan = StepPlan {
            replicated: Some(self.min_cache_ratio),
            ..StepPlan::DSP
        };
        simulate_step_based(self.name(), &plan, profile, hw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::tiny_fixture;
    use crate::profile::WorkloadConfig;
    use neutron_graph::DatasetSpec;
    use neutron_nn::LayerKind;

    #[test]
    fn more_gpus_reduce_epoch_time() {
        let (profile, _) = tiny_fixture(LayerKind::Sage, 2);
        let r1 = DspLike::default()
            .simulate_epoch(&profile, &HardwareSpec::dgx1_like(1, 1.0))
            .unwrap();
        let r4 = DspLike::default()
            .simulate_epoch(&profile, &HardwareSpec::dgx1_like(4, 1.0))
            .unwrap();
        assert!(
            r4.epoch_seconds < r1.epoch_seconds,
            "4 GPUs {} vs 1 GPU {}",
            r4.epoch_seconds,
            r1.epoch_seconds
        );
    }

    #[test]
    fn papers100m_replica_fails_on_one_gpu() {
        // Fig 11 shape: DSP cannot run billion-edge graphs on 1 GPU.
        let mut cfg = WorkloadConfig::paper_default(LayerKind::Sage);
        cfg.profiled_batches = 2;
        let mut spec = DatasetSpec::papers100m_scaled();
        spec.vertices = 20_000;
        spec.edges = 280_000;
        let profile = WorkloadProfile::build(&spec, &cfg);
        let err = DspLike::default()
            .simulate_epoch(&profile, &HardwareSpec::dgx1_like(1, 1.0))
            .unwrap_err();
        assert!(err.to_string().contains("OOM"));
        assert!(DspLike::default()
            .simulate_epoch(&profile, &HardwareSpec::dgx1_like(8, 1.0))
            .is_ok());
    }
}
