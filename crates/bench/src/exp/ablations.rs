//! Extension ablations beyond the paper's figures: the super-batch size
//! (`n`) staleness/performance tradeoff and the hot-vertex-ratio sweep.
//!
//! §4.2.2 fixes the staleness bound at `2n`; §5.5 says datasets support hot
//! ratios of 10–30%. These sweeps measure both knobs end-to-end: simulated
//! epoch time (replica scale) *and* real training accuracy/staleness.

use super::fig16::run_convergence;
use crate::util::{fmt_secs, render_table};
use crate::Setup;
use neutron_core::profile::{WorkloadConfig, WorkloadProfile};
use neutron_core::trainer::ReusePolicy;
use neutron_core::{NeutronOrch, Orchestrator};
use neutron_graph::DatasetSpec;
use neutron_hetero::HardwareSpec;
use neutron_nn::LayerKind;

/// One super-batch-size point.
#[derive(Clone, Debug)]
pub struct SuperBatchPoint {
    pub n: usize,
    /// Simulated epoch seconds on the Reddit replica.
    pub epoch_seconds: f64,
    /// Final test accuracy on the convergence replica.
    pub accuracy: f64,
    /// Largest observed embedding version gap (must stay `< 2n`).
    pub max_staleness: u64,
}

/// Sweeps the super-batch size.
pub fn superbatch_data(setup: Setup) -> Vec<SuperBatchPoint> {
    let hw = HardwareSpec::v100_server(1.0);
    let spec = setup.dataset("Reddit");
    let epochs = match setup {
        Setup::Paper => 10,
        Setup::Smoke => 3,
    };
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|n| {
            let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
            cfg.super_batch = n;
            cfg.profiled_batches = setup.profiled_batches();
            let profile = WorkloadProfile::build(&spec, &cfg);
            let epoch_seconds = NeutronOrch::new()
                .simulate_epoch(&profile, &hw)
                .expect("fits")
                .epoch_seconds;
            let curve = run_convergence(
                &DatasetSpec::reddit_convergence(),
                LayerKind::Gcn,
                ReusePolicy::HotnessAware {
                    hot_ratio: 0.2,
                    super_batch: n,
                },
                epochs,
            );
            SuperBatchPoint {
                n,
                epoch_seconds,
                accuracy: curve.best_accuracy(),
                max_staleness: curve.max_staleness(),
            }
        })
        .collect()
}

/// One hot-ratio point.
#[derive(Clone, Debug)]
pub struct HotRatioPoint {
    pub hot_ratio: f64,
    /// Paper-scale access coverage of the hot set.
    pub coverage: f64,
    /// Simulated epoch seconds.
    pub epoch_seconds: f64,
    /// CPU busy fraction.
    pub cpu_util: f64,
}

/// Sweeps the hot-vertex ratio.
pub fn hotratio_data(setup: Setup) -> Vec<HotRatioPoint> {
    let hw = HardwareSpec::v100_server(1.0);
    let spec = setup.dataset("Orkut");
    [0.0f64, 0.05, 0.10, 0.15, 0.20, 0.30]
        .into_iter()
        .map(|hot_ratio| {
            let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
            cfg.hot_ratio = hot_ratio;
            cfg.profiled_batches = setup.profiled_batches();
            let profile = WorkloadProfile::build(&spec, &cfg);
            let r = NeutronOrch::new()
                .simulate_epoch(&profile, &hw)
                .expect("fits");
            HotRatioPoint {
                hot_ratio,
                coverage: profile.paper_coverage(hot_ratio),
                epoch_seconds: r.epoch_seconds,
                cpu_util: r.cpu_util,
            }
        })
        .collect()
}

/// Renders the super-batch sweep.
pub fn run_superbatch(setup: Setup) -> String {
    let rows: Vec<Vec<String>> = superbatch_data(setup)
        .into_iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                fmt_secs(p.epoch_seconds),
                format!("{:.3}", p.accuracy),
                format!("{} (< {})", p.max_staleness, 2 * p.n),
            ]
        })
        .collect();
    render_table(
        "Ablation: super-batch size n — runtime vs staleness vs accuracy (Reddit / GCN)",
        &["n", "epoch (s)", "best acc", "max gap (bound 2n)"],
        &rows,
    )
}

/// Renders the hot-ratio sweep.
pub fn run_hotratio(setup: Setup) -> String {
    let rows: Vec<Vec<String>> = hotratio_data(setup)
        .into_iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.hot_ratio),
                format!("{:.0}%", p.coverage * 100.0),
                fmt_secs(p.epoch_seconds),
                format!("{:.0}%", p.cpu_util * 100.0),
            ]
        })
        .collect();
    render_table(
        "Ablation: hot-vertex ratio — coverage vs runtime vs CPU load (Orkut / GCN)",
        &["hot ratio", "coverage", "epoch (s)", "CPU util"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_bound_holds_for_every_superbatch_size() {
        for p in superbatch_data(Setup::Smoke) {
            assert!(
                p.max_staleness < 2 * p.n as u64,
                "n={}: gap {} ≥ 2n",
                p.n,
                p.max_staleness
            );
            assert!(p.accuracy > 0.3, "n={}: accuracy collapsed", p.n);
        }
    }

    #[test]
    fn coverage_grows_with_hot_ratio() {
        let pts = hotratio_data(Setup::Smoke);
        assert!(pts.windows(2).all(|w| w[1].coverage >= w[0].coverage));
        assert_eq!(pts[0].coverage, 0.0);
        // More CPU offloading ⇒ more CPU utilization (weakly).
        assert!(pts.last().unwrap().cpu_util >= pts[0].cpu_util * 0.9);
    }
}
