//! One module per table/figure of the paper's evaluation section.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig02`] | Fig 2 — utilization + runtime of the orchestration methods |
//! | [`table2`] | Table 2 — DGL sample/gather breakdown on all datasets |
//! | [`table3`] | Table 3 — pipeline effect under CPU/GPU sampling |
//! | [`pipelines`] | Fig 5 — step pipeline with/without GPU contention; Fig 9 — naive vs super-batch scheduling (Gantt charts) |
//! | [`fig06`] | Fig 6 — batch size & cache ratio effects |
//! | [`fig07`] | Fig 7 — per-layer workload & transfer, layer-based split |
//! | [`fig10`] | Fig 10 — overall single-GPU comparison |
//! | [`fig11`] | Fig 11 — multi-GPU scaling |
//! | [`fig12`] | Fig 12 — ablation ladder |
//! | [`fig13`] | Fig 13 — cache policy memory/transfer |
//! | [`fig14`] | Fig 14 — GPU training time savings |
//! | [`fig15`] | Fig 15 — utilization on Lj-large and Orkut |
//! | [`table5`] | Table 5 — model depth sweep |
//! | [`table6`] | Table 6 — batch size sweep |
//! | [`fig16`] | Fig 16 — epoch-to-accuracy convergence |
//! | [`ablations`], [`hot_vertices`] | extensions: design-choice ablations; access coverage and the hybrid split |
//!
//! The systems a comparison iterates come from one roster,
//! [`neutron_core::baselines::roster`] (names, Fig 10 display order and the
//! §5.2 support matrix); a driver only filters or reorders it.

pub mod ablations;
pub mod fig02;
pub mod fig06;
pub mod fig07;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod hot_vertices;
pub mod pipelines;
pub mod table2;
pub mod table3;
pub mod table5;
pub mod table6;

use neutron_core::baselines::roster;
use neutron_core::profile::WorkloadProfile;
use neutron_core::Orchestrator;
use neutron_hetero::HardwareSpec;
use neutron_nn::LayerKind;

/// One runtime cell of a comparison table: per-epoch seconds, or the failure
/// marker — `"n/a"` where the system does not support the model, `"OOM"`.
fn cell(
    sys: Option<&dyn Orchestrator>,
    profile: &WorkloadProfile,
    hw: &HardwareSpec,
) -> Result<f64, &'static str> {
    let report = sys.ok_or("n/a")?.simulate_epoch(profile, hw);
    report.map(|r| r.epoch_seconds).map_err(|_| "OOM")
}

/// The roster in the row order of Tables 5 and 6, which list DGL-UVA before
/// GNNLab.
fn table_rows(kind: LayerKind) -> Vec<(&'static str, Option<Box<dyn Orchestrator>>)> {
    let mut systems = roster(kind);
    debug_assert_eq!((systems[2].0, systems[3].0), ("GNNLab", "DGL-UVA"));
    systems.swap(2, 3);
    systems
}

/// Every paper table/figure id accepted by the `exp` binary.
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "fig2", "table2", "table3", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "table5", "table6", "fig16",
];

/// Extension experiments beyond the paper (design-choice ablations and
/// the hot-vertex explorer).
pub const EXTRA_EXPERIMENTS: [&str; 3] = ["abl-superbatch", "abl-hotratio", "hot-vertices"];

/// The ids and groups the `exp` binary accepts, for its usage and
/// unknown-id messages.
pub fn known_ids() -> String {
    format!(
        "{}; extras: {}; groups: all extras",
        ALL_EXPERIMENTS.join(" "),
        EXTRA_EXPERIMENTS.join(" ")
    )
}

/// The driver of one experiment id: it returns the rendered report.
pub fn driver(id: &str) -> Option<fn(crate::Setup) -> String> {
    Some(match id {
        "fig2" => fig02::run,
        "table2" => table2::run,
        "table3" => table3::run,
        "fig5" => pipelines::run_fig5,
        "fig6" => fig06::run,
        "fig7" => fig07::run,
        "fig9" => pipelines::run_fig9,
        "fig10" => fig10::run,
        "fig11" => fig11::run,
        "fig12" => fig12::run,
        "fig13" => fig13::run,
        "fig14" => fig14::run,
        "fig15" => fig15::run,
        "table5" => table5::run,
        "table6" => table6::run,
        "fig16" => fig16::run,
        "abl-superbatch" => ablations::run_superbatch,
        "abl-hotratio" => ablations::run_hotratio,
        "hot-vertices" => hot_vertices::run,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_has_a_driver() {
        for id in ALL_EXPERIMENTS.iter().chain(&EXTRA_EXPERIMENTS) {
            assert!(driver(id).is_some(), "{id}");
            assert!(known_ids().contains(id), "{id}");
        }
        assert!(driver("fgi16").is_none());
    }
}
