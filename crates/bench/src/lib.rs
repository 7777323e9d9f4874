//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5).
//!
//! Each experiment lives in [`exp`] as a pure function returning typed rows
//! plus a paper-style rendered table. The `exp` binary prints them; its
//! `--smoke` flag runs the same functions on seconds-fast configurations.
//!
//! Absolute numbers are **replica-scale simulated seconds** (the replica
//! graphs are 16–512× smaller than the paper's datasets); the comparisons —
//! who wins, by what factor, where OOMs appear — are the reproduced result.

pub mod exp;
pub mod util;

use neutron_core::profile::{WorkloadConfig, WorkloadProfile};
use neutron_graph::DatasetSpec;
use neutron_nn::LayerKind;

/// Experiment sizing: the paper-default replicas or a seconds-fast smoke
/// configuration for tests and CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setup {
    /// Full replica datasets (Table 4 registry, scaled), paper parameters.
    Paper,
    /// Tiny datasets, few batches — the same code paths in milliseconds.
    Smoke,
}

impl Setup {
    /// The evaluation datasets for this setup, in Table 4 order.
    pub fn datasets(self) -> Vec<DatasetSpec> {
        match self {
            Setup::Paper => DatasetSpec::all_scaled(),
            Setup::Smoke => {
                DatasetSpec::all_scaled()
                    .into_iter()
                    .map(|mut s| {
                        let shrink = (s.vertices / 4000).max(1);
                        s.vertices /= shrink;
                        s.edges /= shrink;
                        // Keep the paper-scale stats (and hence `scale`)
                        // untouched: memory behaviour must not change.
                        s
                    })
                    .collect()
            }
        }
    }

    /// A dataset by Table 4 name, resized for this setup.
    pub fn dataset(self, name: &str) -> DatasetSpec {
        self.datasets()
            .into_iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown dataset {name}"))
    }

    /// Batches profiled per workload.
    pub fn profiled_batches(self) -> usize {
        match self {
            Setup::Paper => 5,
            Setup::Smoke => 2,
        }
    }

    /// Epochs for convergence runs.
    pub fn convergence_epochs(self) -> usize {
        match self {
            Setup::Paper => 30,
            Setup::Smoke => 2,
        }
    }
}

/// Builds the workload profile of one experiment cell.
pub fn build_profile(
    setup: Setup,
    dataset: &DatasetSpec,
    kind: LayerKind,
    layers: usize,
    batch_size: usize,
) -> WorkloadProfile {
    let mut cfg = WorkloadConfig::paper_default(kind);
    cfg.layers = layers;
    cfg.batch_size = batch_size;
    cfg.profiled_batches = setup.profiled_batches();
    WorkloadProfile::build(dataset, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_setup_shrinks_replicas_but_keeps_paper_stats() {
        let paper = Setup::Paper.dataset("Reddit");
        let smoke = Setup::Smoke.dataset("Reddit");
        assert!(smoke.vertices <= paper.vertices);
        assert_eq!(smoke.paper_vertices, paper.paper_vertices);
        assert_eq!(smoke.feature_dim, paper.feature_dim);
    }

    #[test]
    fn all_six_datasets_present() {
        assert_eq!(Setup::Paper.datasets().len(), 6);
        let names: Vec<&str> = Setup::Smoke.datasets().iter().map(|d| d.name).collect();
        assert!(names.contains(&"Papers100M"));
    }
}
