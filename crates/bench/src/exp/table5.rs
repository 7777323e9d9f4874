//! Table 5 — per-epoch runtime vs model depth (3/4/5-layer GCN on Products
//! and Wikipedia).

use crate::util::{fmt_secs, render_table};
use crate::Setup;
use neutron_hetero::HardwareSpec;
use neutron_nn::LayerKind;

/// One `(dataset, depth)` column of Table 5 across systems.
#[derive(Clone, Debug)]
pub struct Table5Col {
    pub dataset: &'static str,
    pub depth: usize,
    /// `(system, seconds or failure)` in paper row order.
    pub cells: Vec<(&'static str, Result<f64, &'static str>)>,
}

/// Computes Table 5.
pub fn data(setup: Setup) -> Vec<Table5Col> {
    let hw = HardwareSpec::v100_server(1.0);
    let depths = [3usize, 4, 5];
    let mut cols = Vec::new();
    for name in ["Products", "Wikipedia"] {
        let spec = setup.dataset(name);
        for &depth in &depths {
            let profile = crate::build_profile(setup, &spec, LayerKind::Gcn, depth, 1024);
            let cells = super::table_rows(LayerKind::Gcn)
                .into_iter()
                .map(|(label, sys)| (label, super::cell(sys.as_deref(), &profile, &hw)))
                .collect();
            cols.push(Table5Col {
                dataset: spec.name,
                depth,
                cells,
            });
        }
    }
    cols
}

/// Renders Table 5.
pub fn run(setup: Setup) -> String {
    let cols = data(setup);
    let headers: Vec<String> = std::iter::once("System".to_string())
        .chain(cols.iter().map(|c| format!("{} {}L", c.dataset, c.depth)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let systems: Vec<&'static str> = cols[0].cells.iter().map(|(n, _)| *n).collect();
    let rows: Vec<Vec<String>> = systems
        .iter()
        .enumerate()
        .map(|(si, name)| {
            std::iter::once(name.to_string())
                .chain(cols.iter().map(|c| match &c.cells[si].1 {
                    Ok(s) => fmt_secs(*s),
                    Err(m) => (*m).to_string(),
                }))
                .collect()
        })
        .collect();
    render_table(
        "Table 5: per-epoch runtime vs model depth (GCN, replica scale)",
        &header_refs,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_models_cost_more_and_neutronorch_keeps_winning() {
        let cols = data(Setup::Smoke);
        // Runtime grows with depth for every system that survives.
        for name in ["Products", "Wikipedia"] {
            let per_depth: Vec<&Table5Col> = cols.iter().filter(|c| c.dataset == name).collect();
            let ours: Vec<f64> = per_depth
                .iter()
                .filter_map(|c| c.cells.last().unwrap().1.ok())
                .collect();
            assert!(
                ours.windows(2).all(|w| w[1] >= w[0] * 0.8),
                "{name}: {ours:?}"
            );
            // NeutronOrch survives all depths.
            assert_eq!(ours.len(), 3, "{name}: NeutronOrch must not OOM");
        }
        // NeutronOrch beats DGL at every depth where DGL survives.
        for c in &cols {
            let dgl = c.cells[0].1;
            let ours = c.cells.last().unwrap().1;
            if let (Ok(d), Ok(o)) = (dgl, ours) {
                assert!(o < d, "{} {}L: {o} !< {d}", c.dataset, c.depth);
            }
        }
    }
}
