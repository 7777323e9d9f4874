//! Hot vertices (extension, not a paper figure): how access skew drives
//! the design. The paper-scale bottom-layer access coverage of the hottest
//! r of each replica's vertices, and how the §4.1.3 hybrid policy splits
//! Orkut's hot set between CPU embedding computation and the GPU feature
//! cache as GPU idleness varies (3-layer GCN, bs=1024).

use crate::util::{fmt_pct, render_table};
use crate::Setup;
use neutron_cache::{HybridPlan, HybridPolicy};
use neutron_nn::LayerKind;

/// The hot-vertex ratios of the coverage table.
pub const RATIOS: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.30];

/// The GPU idle fractions of the hybrid-split table.
pub const IDLENESS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The dataset whose hot set the split table divides.
const SPLIT_DATASET: &str = "Orkut";

/// Both tables' data.
#[derive(Clone, Debug)]
pub struct HotVertices {
    /// Per dataset, in Table 4 order: paper-scale coverage at each of
    /// [`RATIOS`].
    pub coverage: Vec<(&'static str, [f64; 5])>,
    /// Size of [`SPLIT_DATASET`]'s hot set.
    pub hot_vertices: usize,
    /// The hybrid plan at each of [`IDLENESS`], unbounded GPU memory.
    pub splits: Vec<HybridPlan>,
}

/// Computes both tables.
pub fn data(setup: Setup) -> HotVertices {
    let mut coverage = Vec::new();
    let mut split = None;
    for spec in setup.datasets() {
        let profile = crate::build_profile(setup, &spec, LayerKind::Gcn, 3, 1024);
        coverage.push((spec.name, RATIOS.map(|r| profile.paper_coverage(r))));
        if spec.name == SPLIT_DATASET {
            let policy = HybridPolicy {
                feature_row_bytes: spec.feature_row_bytes(),
                embedding_row_bytes: spec.hidden_row_bytes(),
            };
            let splits = IDLENESS
                .iter()
                .map(|&idle| policy.plan(&profile.hot, idle, u64::MAX))
                .collect();
            split = Some((profile.hot.len(), splits));
        }
    }
    let (hot_vertices, splits) = split.expect("the split dataset is a Table 4 replica");
    HotVertices {
        coverage,
        hot_vertices,
        splits,
    }
}

/// Renders both tables.
pub fn run(setup: Setup) -> String {
    let d = data(setup);
    let ratio_headers: Vec<String> = RATIOS
        .iter()
        .map(|r| format!("r={:.0}%", r * 100.0))
        .collect();
    let mut headers = vec!["dataset"];
    headers.extend(ratio_headers.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = d
        .coverage
        .iter()
        .map(|(name, cov)| {
            std::iter::once(name.to_string())
                .chain(cov.iter().map(|&c| format!("{:.1}%", c * 100.0)))
                .collect()
        })
        .collect();
    let coverage = render_table(
        "Hot vertices: paper-scale access coverage of the hottest r of vertices (GCN, bs=1024)",
        &headers,
        &rows,
    );
    let rows: Vec<Vec<String>> = IDLENESS
        .iter()
        .zip(&d.splits)
        .map(|(&idle, plan)| {
            vec![
                fmt_pct(idle),
                plan.cpu_compute.len().to_string(),
                plan.gpu_cache.len().to_string(),
                format!("{:.1}", plan.gpu_bytes as f64 / 1e6),
            ]
        })
        .collect();
    let split = render_table(
        &format!(
            "Hot vertices: hybrid split of {SPLIT_DATASET}'s hot set ({} vertices) vs GPU idleness",
            d.hot_vertices
        ),
        &["GPU idle", "CPU compute", "GPU cache", "GPU bytes (MB)"],
        &rows,
    );
    format!(
        "{coverage}\n{split}\nAn idle GPU pulls hot vertices into its feature cache; a busy GPU\n\
         leaves them to the CPU, which ships far smaller embeddings instead.\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_grows_with_the_hot_ratio_and_the_cpu_share_shrinks_with_idleness() {
        let d = data(Setup::Smoke);
        assert_eq!(d.coverage.len(), 6);
        for (name, cov) in &d.coverage {
            assert!(cov.windows(2).all(|w| w[0] <= w[1]), "{name}: {cov:?}");
        }
        let shares: Vec<f64> = d.splits.iter().map(HybridPlan::cpu_fraction).collect();
        assert!(shares.windows(2).all(|w| w[0] >= w[1]), "{shares:?}");
        // The ends of the range: a busy GPU leaves the whole hot set to
        // the CPU, an idle one with memory to spare caches all of it.
        assert_eq!(shares[0], 1.0);
        assert_eq!(shares[IDLENESS.len() - 1], 0.0);
    }
}
