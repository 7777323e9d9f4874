//! Fig 15 — CPU and GPU utilization of five systems on Lj-large and Orkut
//! (GCN).

use crate::util::{fmt_pct, render_table};
use crate::Setup;
use neutron_core::baselines::roster;
use neutron_hetero::HardwareSpec;
use neutron_nn::LayerKind;

/// One (dataset, system) utilization pair.
#[derive(Clone, Debug)]
pub struct Fig15Row {
    pub dataset: &'static str,
    pub system: String,
    pub cpu_util: f64,
    pub gpu_util: f64,
}

/// Computes Fig 15.
pub fn data(setup: Setup) -> Vec<Fig15Row> {
    let hw = HardwareSpec::v100_server(1.0);
    let mut rows = Vec::new();
    for name in ["Lj-large", "Orkut"] {
        let spec = setup.dataset(name);
        let profile = crate::build_profile(setup, &spec, LayerKind::Gcn, 3, 1024);
        // Fig 15 plots five systems: the roster without GAS.
        for (label, sys) in roster(LayerKind::Gcn) {
            if label == "GAS" {
                continue;
            }
            let sys = sys.expect("every Fig 15 system supports GCN");
            let r = sys.simulate_epoch(&profile, &hw).expect("fits");
            rows.push(Fig15Row {
                dataset: spec.name,
                system: r.system.clone(),
                cpu_util: r.cpu_util,
                gpu_util: r.gpu_util,
            });
        }
    }
    rows
}

/// Renders Fig 15.
pub fn run(setup: Setup) -> String {
    let rows: Vec<Vec<String>> = data(setup)
        .into_iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                r.system,
                fmt_pct(r.cpu_util),
                fmt_pct(r.gpu_util),
            ]
        })
        .collect();
    render_table(
        "Fig 15: CPU & GPU utilization (3-layer GCN)",
        &["Dataset", "System", "CPU util", "GPU util"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutronorch_has_best_gpu_utilization() {
        // Paper: NeutronOrch averages 44.5% CPU and 92.9% GPU utilization —
        // both devices busy, unlike the step-based systems.
        let rows = data(Setup::Smoke);
        for name in ["Lj-large", "Orkut"] {
            let subset: Vec<&Fig15Row> = rows.iter().filter(|r| r.dataset == name).collect();
            let ours = subset.iter().find(|r| r.system == "NeutronOrch").unwrap();
            let dgl = subset.iter().find(|r| r.system == "DGL").unwrap();
            assert!(
                ours.gpu_util > dgl.gpu_util,
                "{name}: NeutronOrch GPU {:.2} must beat DGL {:.2}",
                ours.gpu_util,
                dgl.gpu_util
            );
            assert!(ours.cpu_util > 0.05, "{name}: the CPU must not idle");
        }
    }
}
