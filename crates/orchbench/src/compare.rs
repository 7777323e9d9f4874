//! `compare A.json B.json`: holds every end-to-end metric × workload cell
//! of set B to its bound against set A.
//!
//! The rule (choosing-metrics §6): B's median may be worse than A's by at
//! most the bound. Where either set's own quartile spread is wider than the
//! bound the cell is *unresolved* — not unchanged — unless every run of one
//! side reads better than every run of the other. Exact metrics (simulated
//! time) are deterministic functions of the seed: any difference, down to
//! one ulp, is a changed result.

use crate::json::Value;
use crate::metrics::{self, quartiles, Better, Bound};
use std::fmt::Write as _;

/// Verdict on one metric × workload cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Improved,
    Regress,
    Unresolved,
    /// Reported on this workload but not held to a bound there.
    NotGated,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Improved => "improved",
            Verdict::Regress => "REGRESS",
            Verdict::Unresolved => "unresolved",
            Verdict::NotGated => "not gated",
        }
    }
}

/// One compared cell.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    /// How much worse B is, as a share of A (negative = better); for
    /// absolute bounds, in the metric's unit.
    pub worse_by: f64,
    /// The wider of the two sets' quartile spreads, same scale.
    pub spread: f64,
    pub verdict: Verdict,
}

/// One side of a cell: the set's value and the samples behind it.
struct Side {
    value: f64,
    samples: Vec<f64>,
}

fn side(cell: &Value, what: &str) -> Result<Side, String> {
    let value = cell
        .get("value")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{what}: no numeric \"value\""))?;
    let samples = cell
        .get("samples")
        .and_then(Value::as_f64_series)
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| vec![value]);
    Ok(Side { value, samples })
}

/// `x` oriented so that larger is worse.
fn cost(x: f64, better: Better) -> f64 {
    match better {
        Better::Lower => x,
        Better::Higher => -x,
    }
}

fn judge(a: &Side, b: &Side, better: Better, bound: Bound) -> (f64, f64, Verdict) {
    let delta = cost(b.value, better) - cost(a.value, better);
    if bound == Bound::Exact {
        let verdict = if a.value.to_bits() == b.value.to_bits() {
            Verdict::Pass
        } else if delta > 0.0 {
            Verdict::Regress
        } else {
            Verdict::Improved
        };
        return (delta / a.value.abs(), 0.0, verdict);
    }
    let (scale, limit) = match bound {
        Bound::Relative(r) => (a.value.abs(), r),
        Bound::Absolute(x) => (1.0, x),
        Bound::Exact => unreachable!("handled above"),
    };
    let worse_by = delta / scale;
    let iqr = |s: &Side| {
        let (q1, q3) = quartiles(&s.samples);
        (q3 - q1) / scale
    };
    let spread = iqr(a).max(iqr(b));
    // "Every run of one side reads better than every run of the other."
    let costs = |s: &Side| -> (f64, f64) {
        s.samples
            .iter()
            .map(|&x| cost(x, better))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
                (lo.min(c), hi.max(c))
            })
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (costs(a), costs(b));
    let verdict = if spread > limit {
        if b_hi < a_lo {
            Verdict::Improved
        } else if b_lo > a_hi && worse_by > limit {
            Verdict::Regress
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > limit {
        Verdict::Regress
    } else if worse_by < -limit {
        Verdict::Improved
    } else {
        Verdict::Pass
    };
    (worse_by, spread, verdict)
}

/// Compares two set files (as written by `orchbench run`). Every
/// end-to-end metric present on either side must be present on both: a
/// metric missing from one side is an error, never a silent pass.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Value, which: &str| {
        doc.get("workloads")
            .and_then(Value::as_obj)
            .cloned()
            .ok_or_else(|| format!("{which}: no \"workloads\" object — not a set file"))
    };
    let (wa, wb) = (workloads(a, "A")?, workloads(b, "B")?);
    for name in wa.keys().chain(wb.keys()) {
        if !(wa.contains_key(name) && wb.contains_key(name)) {
            return Err(format!("workload \"{name}\" is missing from one side"));
        }
    }
    let mut rows = Vec::new();
    for (workload, run_a) in &wa {
        let metrics_of = |run: &Value, which: &str| {
            run.get("metrics")
                .and_then(Value::as_obj)
                .cloned()
                .ok_or_else(|| format!("{which}/{workload}: no \"metrics\" object"))
        };
        let (ma, mb) = (metrics_of(run_a, "A")?, metrics_of(&wb[workload], "B")?);
        for name in ma.keys().chain(mb.keys()) {
            if !(ma.contains_key(name) && mb.contains_key(name)) {
                return Err(format!(
                    "metric \"{name}\" of workload \"{workload}\" is missing from one side"
                ));
            }
        }
        for (name, cell_a) in &ma {
            let def = metrics::end_to_end(name).ok_or_else(|| {
                format!("metric \"{name}\" of workload \"{workload}\" is not a registered end-to-end metric")
            })?;
            let sa = side(cell_a, &format!("A/{workload}/{name}"))?;
            let sb = side(&mb[name], &format!("B/{workload}/{name}"))?;
            let (worse_by, spread, mut verdict) =
                judge(&sa, &sb, def.better, def.bound_for(workload));
            if !def.gated(workload) {
                verdict = Verdict::NotGated;
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                unit: def.unit.to_string(),
                base: sa.value,
                new: sb.value,
                worse_by,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// One row per cell, each workload in its own block.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut last = "";
    for r in rows {
        if r.workload != last {
            let _ = writeln!(out, "\n{}", r.workload);
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>14} {:>9} {:>9}  verdict",
                "metric", "A", "B", "worse by", "spread"
            );
            last = &r.workload;
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}%  {} [{}]",
            r.metric,
            r.base,
            r.new,
            100.0 * r.worse_by,
            100.0 * r.spread,
            r.verdict.as_str(),
            r.unit,
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "\n{} gated cells: {} pass, {} improved, {} unresolved, {} regress",
        rows.len() - count(Verdict::NotGated),
        count(Verdict::Pass),
        count(Verdict::Improved),
        count(Verdict::Unresolved),
        count(Verdict::Regress)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic set file: one workload, the given metrics with their
    /// per-run samples (the value is the samples' median).
    fn set(workload: &str, cells: &[(&str, &[f64])]) -> Value {
        let metrics = Value::obj(cells.iter().map(|(name, samples)| {
            (
                *name,
                Value::obj([
                    ("value", Value::Num(crate::metrics::median(samples))),
                    ("unit", Value::str("s")),
                    ("samples", Value::nums(samples)),
                ]),
            )
        }));
        Value::obj([(
            "workloads",
            Value::obj([(workload, Value::obj([("metrics", metrics)]))]),
        )])
    }

    fn verdict(a: &Value, b: &Value, metric: &str) -> Verdict {
        compare(a, b)
            .unwrap()
            .into_iter()
            .find(|r| r.metric == metric)
            .unwrap()
            .verdict
    }

    const TIGHT: [f64; 5] = [0.99, 1.0, 1.0, 1.0, 1.01];

    fn scaled(xs: &[f64], k: f64) -> Vec<f64> {
        xs.iter().map(|x| x * k).collect()
    }

    #[test]
    fn fifteen_percent_slower_warm_epoch_regresses() {
        let a = set("train_bound", &[("warm_epoch_s", &TIGHT)]);
        let b = set("train_bound", &[("warm_epoch_s", &scaled(&TIGHT, 1.15))]);
        assert_eq!(verdict(&a, &b, "warm_epoch_s"), Verdict::Regress);
    }

    #[test]
    fn three_percent_slower_warm_epoch_passes_except_on_link_bound() {
        let a = set("train_bound", &[("warm_epoch_s", &TIGHT)]);
        let b = set("train_bound", &[("warm_epoch_s", &scaled(&TIGHT, 1.03))]);
        assert_eq!(verdict(&a, &b, "warm_epoch_s"), Verdict::Pass);
        // link_bound holds warm_epoch_s to 5%: +6% is over.
        let a = set("link_bound", &[("warm_epoch_s", &TIGHT)]);
        let b = set("link_bound", &[("warm_epoch_s", &scaled(&TIGHT, 1.06))]);
        assert_eq!(verdict(&a, &b, "warm_epoch_s"), Verdict::Regress);
        // sim_grid reports a grid-pass analogue there, shown but not gated.
        let a = set("sim_grid", &[("warm_epoch_s", &TIGHT)]);
        let b = set("sim_grid", &[("warm_epoch_s", &scaled(&TIGHT, 1.5))]);
        assert_eq!(verdict(&a, &b, "warm_epoch_s"), Verdict::NotGated);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [0.8, 0.9, 1.0, 1.1, 1.2];
        let a = set("train_bound", &[("warm_epoch_s", &noisy)]);
        let b = set("train_bound", &[("warm_epoch_s", &scaled(&noisy, 1.02))]);
        assert_eq!(verdict(&a, &b, "warm_epoch_s"), Verdict::Unresolved);
        // ... unless every run of one side beats every run of the other.
        let b = set("train_bound", &[("warm_epoch_s", &scaled(&noisy, 0.5))]);
        assert_eq!(verdict(&a, &b, "warm_epoch_s"), Verdict::Improved);
        let b = set("train_bound", &[("warm_epoch_s", &scaled(&noisy, 2.0))]);
        assert_eq!(verdict(&a, &b, "warm_epoch_s"), Verdict::Regress);
    }

    #[test]
    fn an_exact_metric_off_by_one_ulp_regresses() {
        let x = 0.006613565132936519_f64;
        let a = set("sim_grid", &[("sim_orch_epoch_s", &[x])]);
        assert_eq!(verdict(&a, &a, "sim_orch_epoch_s"), Verdict::Pass);
        let up = f64::from_bits(x.to_bits() + 1);
        let b = set("sim_grid", &[("sim_orch_epoch_s", &[up])]);
        assert_eq!(verdict(&a, &b, "sim_orch_epoch_s"), Verdict::Regress);
        // The file round trip keeps the ulp.
        let b = Value::parse(&b.to_pretty()).unwrap();
        assert_eq!(verdict(&a, &b, "sim_orch_epoch_s"), Verdict::Regress);
    }

    #[test]
    fn direction_follows_the_metric() {
        let a = set("train_bound", &[("seeds_per_s", &scaled(&TIGHT, 30_000.0))]);
        let b = set("train_bound", &[("seeds_per_s", &scaled(&TIGHT, 25_000.0))]);
        assert_eq!(verdict(&a, &b, "seeds_per_s"), Verdict::Regress);
        assert_eq!(verdict(&b, &a, "seeds_per_s"), Verdict::Improved);
        // final_test_acc: absolute bound of 0.005.
        let a = set("train_bound", &[("final_test_acc", &[0.93, 0.93, 0.93])]);
        let b = set("train_bound", &[("final_test_acc", &[0.926, 0.926, 0.926])]);
        assert_eq!(verdict(&a, &b, "final_test_acc"), Verdict::Pass);
        let b = set("train_bound", &[("final_test_acc", &[0.92, 0.92, 0.92])]);
        assert_eq!(verdict(&a, &b, "final_test_acc"), Verdict::Regress);
    }

    #[test]
    fn a_metric_or_workload_missing_from_one_side_is_an_error() {
        let a = set(
            "train_bound",
            &[("warm_epoch_s", &TIGHT), ("session_s", &TIGHT)],
        );
        let b = set("train_bound", &[("warm_epoch_s", &TIGHT)]);
        assert!(compare(&a, &b).unwrap_err().contains("session_s"));
        assert!(compare(&b, &a).unwrap_err().contains("session_s"));
        let other = set("link_bound", &[("warm_epoch_s", &TIGHT)]);
        assert!(compare(&a, &other).unwrap_err().contains("missing"));
        assert!(compare(&Value::Null, &a).is_err());
        let unknown = set("train_bound", &[("made_up", &TIGHT)]);
        assert!(compare(&unknown, &unknown).unwrap_err().contains("made_up"));
    }
}
