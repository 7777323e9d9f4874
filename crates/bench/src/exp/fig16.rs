//! Fig 16 — epoch-to-accuracy convergence: exact training vs GAS-style
//! unbounded reuse vs NeutronOrch's bounded staleness, with GCN and GAT on
//! the Reddit and Products convergence replicas.
//!
//! Unlike every other experiment, this one is *numeric*: embeddings are
//! really reused, gradients really cut, accuracy really measured.

use crate::util::render_table;
use crate::Setup;
use neutron_core::trainer::{ConvergenceTrainer, EpochObservation, ReusePolicy, TrainerConfig};
use neutron_graph::DatasetSpec;
use neutron_nn::LayerKind;

/// One epoch-accuracy curve.
#[derive(Clone, Debug)]
pub struct ConvergenceCurve {
    /// Policy label ("Exact…", "GAS", "NeutronOrch").
    pub label: &'static str,
    /// Per-epoch observations, index = epoch.
    pub epochs: Vec<EpochObservation>,
}

impl ConvergenceCurve {
    /// Best test accuracy across epochs.
    pub fn best_accuracy(&self) -> f64 {
        self.epochs
            .iter()
            .map(|o| o.test_accuracy)
            .fold(0.0, f64::max)
    }

    /// Largest staleness observed over the run.
    pub fn max_staleness(&self) -> u64 {
        self.epochs
            .iter()
            .map(|o| o.max_staleness)
            .max()
            .unwrap_or(0)
    }
}

/// Trains `epochs` epochs of `kind` on `spec` under `policy` and returns the
/// epoch-to-accuracy curve (one Fig 16 line).
pub fn run_convergence(
    spec: &DatasetSpec,
    kind: LayerKind,
    policy: ReusePolicy,
    epochs: usize,
) -> ConvergenceCurve {
    let label = policy.label();
    let dataset = spec.build_full();
    let config = TrainerConfig::convergence_default(kind, policy);
    let mut trainer = ConvergenceTrainer::new(dataset, config);
    let observations = (0..epochs).map(|e| trainer.train_epoch(e)).collect();
    ConvergenceCurve {
        label,
        epochs: observations,
    }
}

/// The three Fig 16 policies, in plot order.
pub fn fig16_policies(super_batch: usize) -> Vec<ReusePolicy> {
    vec![
        ReusePolicy::Exact,
        ReusePolicy::GasLike,
        ReusePolicy::HotnessAware {
            hot_ratio: 0.2,
            super_batch,
        },
    ]
}

/// One convergence panel (one subplot of Fig 16).
#[derive(Clone, Debug)]
pub struct Fig16Panel {
    pub title: String,
    pub curves: Vec<ConvergenceCurve>,
}

/// Computes all four panels.
pub fn data(setup: Setup) -> Vec<Fig16Panel> {
    let epochs = setup.convergence_epochs();
    let super_batch = 4;
    let cells: Vec<(LayerKind, DatasetSpec)> = vec![
        (LayerKind::Gcn, DatasetSpec::reddit_convergence()),
        (LayerKind::Gcn, DatasetSpec::products_convergence()),
        (LayerKind::Gat, DatasetSpec::reddit_convergence()),
        (LayerKind::Gat, DatasetSpec::products_convergence()),
    ];
    cells
        .into_iter()
        .map(|(kind, spec)| {
            let curves = fig16_policies(super_batch)
                .into_iter()
                .map(|policy| run_convergence(&spec, kind, policy, epochs))
                .collect();
            Fig16Panel {
                title: format!("{}-{}", kind.name(), spec.name),
                curves,
            }
        })
        .collect()
}

/// Renders Fig 16 as per-panel accuracy tables.
pub fn run(setup: Setup) -> String {
    let mut out = String::new();
    for panel in data(setup) {
        let epochs = panel.curves[0].epochs.len();
        let marks: Vec<usize> = if epochs <= 5 {
            (0..epochs).collect()
        } else {
            vec![0, epochs / 4, epochs / 2, 3 * epochs / 4, epochs - 1]
        };
        let headers: Vec<String> = std::iter::once("policy".to_string())
            .chain(marks.iter().map(|e| format!("ep{e}")))
            .chain(["best".to_string(), "max-stale".to_string()])
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = panel
            .curves
            .iter()
            .map(|c| {
                std::iter::once(c.label.to_string())
                    .chain(
                        marks
                            .iter()
                            .map(|&e| format!("{:.3}", c.epochs[e].test_accuracy)),
                    )
                    .chain([
                        format!("{:.3}", c.best_accuracy()),
                        c.max_staleness().to_string(),
                    ])
                    .collect()
            })
            .collect();
        out.push_str(&render_table(
            &format!("Fig 16: epoch-to-accuracy, {}", panel.title),
            &header_refs,
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_curve_accumulates_epochs() {
        let spec = DatasetSpec::tiny();
        let curve = run_convergence(&spec, LayerKind::Gcn, ReusePolicy::Exact, 3);
        assert_eq!(curve.epochs.len(), 3);
        assert!(curve.best_accuracy() >= curve.epochs[0].test_accuracy);
        assert_eq!(curve.max_staleness(), 0);
        assert_eq!(curve.label, "Exact (DGL/PaGraph/GNNLab)");
    }

    #[test]
    fn fig16_policy_set_is_complete() {
        let ps = fig16_policies(4);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[2].label(), "NeutronOrch");
    }

    /// A smaller single-panel variant so the test stays fast.
    #[test]
    fn neutronorch_tracks_exact_and_respects_bound() {
        let spec = DatasetSpec::reddit_convergence();
        let epochs = 8;
        let exact = run_convergence(&spec, LayerKind::Gcn, ReusePolicy::Exact, epochs);
        let ours = run_convergence(
            &spec,
            LayerKind::Gcn,
            ReusePolicy::HotnessAware {
                hot_ratio: 0.2,
                super_batch: 4,
            },
            epochs,
        );
        assert!(
            exact.best_accuracy() > 0.55,
            "exact must learn: {}",
            exact.best_accuracy()
        );
        // Paper: accuracy loss no more than 1%; allow replica slack.
        assert!(
            ours.best_accuracy() > exact.best_accuracy() - 0.05,
            "ours {} vs exact {}",
            ours.best_accuracy(),
            exact.best_accuracy()
        );
        assert!(
            ours.max_staleness() < 8,
            "bound 2n-1 = 7 violated: {}",
            ours.max_staleness()
        );
    }
}
