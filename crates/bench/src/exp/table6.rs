//! Table 6 — per-epoch runtime vs batch size (3-layer GCN on Products and
//! Wikipedia; batch sizes 256–10000).

use crate::util::{fmt_secs, render_table};
use crate::Setup;
use neutron_hetero::HardwareSpec;
use neutron_nn::LayerKind;

/// One `(dataset, batch size)` column across systems.
#[derive(Clone, Debug)]
pub struct Table6Col {
    pub dataset: &'static str,
    pub batch_size: usize,
    pub cells: Vec<(&'static str, Result<f64, &'static str>)>,
}

/// Computes Table 6.
pub fn data(setup: Setup) -> Vec<Table6Col> {
    let hw = HardwareSpec::v100_server(1.0);
    let sizes = match setup {
        Setup::Paper => vec![256usize, 1024, 4096, 10_000],
        Setup::Smoke => vec![256usize, 1024],
    };
    let mut cols = Vec::new();
    for name in ["Products", "Wikipedia"] {
        let spec = setup.dataset(name);
        for &bs in &sizes {
            let profile = crate::build_profile(setup, &spec, LayerKind::Gcn, 3, bs);
            let cells = super::table_rows(LayerKind::Gcn)
                .into_iter()
                .map(|(label, sys)| (label, super::cell(sys.as_deref(), &profile, &hw)))
                .collect();
            cols.push(Table6Col {
                dataset: spec.name,
                batch_size: bs,
                cells,
            });
        }
    }
    cols
}

/// Renders Table 6.
pub fn run(setup: Setup) -> String {
    let cols = data(setup);
    let headers: Vec<String> = std::iter::once("System".to_string())
        .chain(
            cols.iter()
                .map(|c| format!("{} bs{}", c.dataset, c.batch_size)),
        )
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
        "Table 6: per-epoch runtime vs batch size (3-layer GCN, replica scale)",
        &header_refs,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_batches_train_faster_per_epoch() {
        // The paper's Table 6 trend: per-epoch time *drops* as batch size
        // grows (better GPU occupancy, fewer launches).
        let cols = data(Setup::Smoke);
        for name in ["Products", "Wikipedia"] {
            let ours: Vec<f64> = cols
                .iter()
                .filter(|c| c.dataset == name)
                .filter_map(|c| c.cells.last().unwrap().1.ok())
                .collect();
            assert!(ours.len() >= 2);
            assert!(
                ours[1] < ours[0],
                "{name}: bs1024 ({}) should beat bs256 ({})",
                ours[1],
                ours[0]
            );
        }
    }

    #[test]
    fn neutronorch_wins_each_batch_size() {
        let cols = data(Setup::Smoke);
        for c in &cols {
            let dgl = c.cells[0].1;
            let ours = c.cells.last().unwrap().1;
            if let (Ok(d), Ok(o)) = (dgl, ours) {
                assert!(o < d, "{} bs{}: {o} !< {d}", c.dataset, c.batch_size);
            }
        }
    }
}
