//! Fig 12 — performance gain analysis: the cumulative ablation ladder
//! (L, HE, HH, S) over the step-based baseline, GCN on all datasets.

use crate::util::render_table;
use crate::Setup;
use neutron_core::neutronorch::NeutronOrchConfig;
use neutron_core::{NeutronOrch, Orchestrator};
use neutron_hetero::HardwareSpec;
use neutron_nn::LayerKind;

/// One dataset's ablation ladder: speedups normalised to the baseline.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    pub dataset: &'static str,
    /// `(stage label, speedup vs baseline)` in ladder order.
    pub speedups: Vec<(&'static str, f64)>,
}

/// Computes Fig 12.
pub fn data(setup: Setup) -> Vec<Fig12Row> {
    let hw = HardwareSpec::v100_server(1.0);
    setup
        .datasets()
        .iter()
        .map(|spec| {
            let profile = crate::build_profile(setup, spec, LayerKind::Gcn, 3, 1024);
            let ladder = NeutronOrchConfig::ablation_ladder();
            let times: Vec<(&'static str, f64)> = ladder
                .iter()
                .map(|(label, cfg)| {
                    let secs = NeutronOrch::with_config(*cfg)
                        .simulate_epoch(&profile, &hw)
                        .map(|r| r.epoch_seconds)
                        .unwrap_or(f64::INFINITY);
                    (*label, secs)
                })
                .collect();
            let base = times[0].1;
            Fig12Row {
                dataset: spec.name,
                speedups: times.into_iter().map(|(l, t)| (l, base / t)).collect(),
            }
        })
        .collect()
}

/// Renders Fig 12.
pub fn run(setup: Setup) -> String {
    let rows = data(setup);
    let headers: Vec<String> = std::iter::once("Dataset".to_string())
        .chain(rows[0].speedups.iter().map(|(l, _)| l.to_string()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            std::iter::once(r.dataset.to_string())
                .chain(r.speedups.iter().map(|(_, s)| format!("{s:.2}x")))
                .collect()
        })
        .collect();
    render_table(
        "Fig 12: cumulative speedup of L / HE / HH / S over the step-based baseline (GCN)",
        &header_refs,
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dataset_ends_faster_than_baseline() {
        for row in data(Setup::Smoke) {
            let full = row.speedups.last().unwrap().1;
            assert!(
                full > 1.0,
                "{}: full system speedup {full:.2} ≤ 1",
                row.dataset
            );
            assert!(
                (row.speedups[0].1 - 1.0).abs() < 1e-9,
                "baseline must be 1.0x"
            );
        }
    }

    #[test]
    fn hotness_reuse_rescues_naive_layer_split() {
        // On the miniature smoke replicas the graph saturates and access
        // skew flattens, so allow a small tolerance; at paper replica scale
        // the +HE stage strictly dominates (`exp fig12`).
        for row in data(Setup::Smoke) {
            let l = row.speedups[1].1;
            let he = row.speedups[2].1;
            assert!(
                he >= l * 0.85,
                "{}: +HE ({he:.2}) collapsed vs +L ({l:.2})",
                row.dataset
            );
        }
    }
}
