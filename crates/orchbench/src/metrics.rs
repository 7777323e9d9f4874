//! The metric registry: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound — plus the
//! order statistics used to summarise samples.
//!
//! `BENCHMARK.json` at the repo root mirrors this file; a crate test fails
//! if the two drift apart.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` holds a metric between two sets of runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// May get worse by this share of the baseline's median.
    Relative(f64),
    /// May get worse by this much in the metric's own unit.
    Absolute(f64),
    /// A deterministic function of the seed: any difference, down to the
    /// last ulp, is a change in the program's results.
    Exact,
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The bound `BENCHMARK.json` carries for the driver's protocol: a
    /// share of the parent's median. There every run has another seed and
    /// is judged alone, on a shared 2-core box whose run-to-run spread of
    /// wall-clock medians was measured at 4–19% (BASELINE.md) — so these
    /// are at least three times that spread where the 25% cap allows, and
    /// much looser than the same-seed, pooled bounds below.
    pub driver_bound: f64,
    /// The bound `compare` applies between two sets of the *same* seed.
    pub bound: Bound,
    /// A different same-seed bound on single workloads.
    pub bound_on: &'static [(&'static str, Bound)],
    /// Workloads (by letter, see [`WORKLOADS`]) `compare` holds the bound
    /// on. The driver's contract makes every workload report every metric,
    /// so `sim_grid` reports grid-pass analogues of the epoch metrics — 40 ms
    /// of simulator host time a pass, sampled as the mean over a grid epoch
    /// of 20 passes — shown but not gated.
    pub gated_on: &'static str,
}

impl EndToEnd {
    pub fn bound_for(&self, workload: &str) -> Bound {
        self.bound_on
            .iter()
            .find(|(w, _)| *w == workload)
            .map_or(self.bound, |(_, b)| *b)
    }

    pub fn gated(&self, workload: &str) -> bool {
        WORKLOADS
            .iter()
            .find(|w| w.name == workload)
            .is_some_and(|w| self.gated_on.contains(w.letter))
    }
}

/// One per-layer metric (no bound: it explains, it does not gate).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly for a fixed seed (a count or a simulated time), so
    /// two commits compare on it bit for bit.
    pub exact: bool,
}

/// A workload's registry entry.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub letter: char,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "train_bound",
        letter: 'T',
        why: "TrainingEngine, GCN on a 40k-vertex community replica, no link stall: the train thread is the epoch, so kernel, nn, allocation and refresh work shows 1:1 and staging work is hidden",
    },
    WorkloadInfo {
        name: "link_bound",
        letter: 'L',
        why: "Same engine on a skewed R-MAT replica behind a fixed 0.10 GiB/s link: epoch = H2D bytes / bandwidth, so cache policy and batch bytes show 1:1 and kernel speed-ups show nothing",
    },
    WorkloadInfo {
        name: "replicated_r2",
        letter: 'R',
        why: "ReplicatedEngine R=2, SAGE, locality-aware sampling, priced interconnect, checkpoints every 4 epochs and a restore: fused replica workers, inline refresh, serial gradients + tree_average",
    },
    WorkloadInfo {
        name: "sim_grid",
        letter: 'S',
        why: "The paper's grid on the simulator (6 Table-4 replicas x 3 models x 6 systems + Fig 12 ladder): guards simulated epoch time vs Case 1-4 exactly; graph and sample do nearly all the host work",
    },
];

/// The end-to-end metrics. Every workload reports every one of them (the
/// driver's contract); on `sim_grid` the epoch-shaped ones read on a grid
/// pass (see the README's glossary).
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        driver_bound: 0.25,
        bound: Bound::Relative(0.10),
        bound_on: &[],
        gated_on: "TLRS",
    },
    EndToEnd {
        name: "warm_epoch_s",
        unit: "s",
        better: Better::Lower,
        driver_bound: 0.25,
        bound: Bound::Relative(0.08),
        bound_on: &[("link_bound", Bound::Relative(0.05))],
        gated_on: "TLR",
    },
    EndToEnd {
        name: "warm_epoch_p75_s",
        unit: "s",
        better: Better::Lower,
        driver_bound: 0.25,
        bound: Bound::Relative(0.12),
        bound_on: &[],
        gated_on: "TLR",
    },
    EndToEnd {
        name: "seeds_per_s",
        unit: "1/s",
        better: Better::Higher,
        driver_bound: 0.25,
        bound: Bound::Relative(0.08),
        bound_on: &[],
        gated_on: "TLR",
    },
    EndToEnd {
        name: "session_s",
        unit: "s",
        better: Better::Lower,
        driver_bound: 0.25,
        bound: Bound::Relative(0.08),
        bound_on: &[],
        gated_on: "TLRS",
    },
    EndToEnd {
        name: "h2d_mib_per_epoch",
        unit: "MiB",
        better: Better::Lower,
        driver_bound: 0.15,
        bound: Bound::Relative(0.05),
        bound_on: &[
            ("link_bound", Bound::Relative(0.08)),
            ("sim_grid", Bound::Exact),
        ],
        gated_on: "TLRS",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        driver_bound: 0.15,
        bound: Bound::Relative(0.10),
        bound_on: &[],
        gated_on: "TLRS",
    },
    EndToEnd {
        name: "sim_speedup_vs_best_case",
        unit: "x",
        better: Better::Higher,
        driver_bound: 0.02,
        bound: Bound::Exact,
        bound_on: &[],
        gated_on: "TLRS",
    },
    EndToEnd {
        name: "sim_orch_epoch_s",
        unit: "s",
        better: Better::Lower,
        driver_bound: 0.10,
        bound: Bound::Exact,
        bound_on: &[],
        gated_on: "TLRS",
    },
];

/// `final_test_acc` is end-to-end too, but exists only where labels are
/// learnable, and the driver's contract wants every metric of
/// `BENCHMARK.json` from every workload. So it stays out of that file: a
/// run reports it in its detail file on `train_bound` and `replicated_r2`
/// only, `compare` holds it to this absolute bound, and the traced pass
/// mirrors it as `trainer.final_test_acc`.
pub const FINAL_TEST_ACC: EndToEnd = EndToEnd {
    name: "final_test_acc",
    unit: "fraction",
    better: Better::Higher,
    driver_bound: 0.0,
    bound: Bound::Absolute(0.005),
    bound_on: &[],
    gated_on: "TR",
};

/// The registry entry `compare` holds `name` to.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END
        .iter()
        .chain(std::iter::once(&FINAL_TEST_ACC))
        .find(|m| m.name == name)
}

/// The instrumented kernel families of `tensor.<k>_s` / `tensor.<k>_calls`.
pub const KERNELS: [&str; 6] = [
    "matmul",
    "matmul_at_b",
    "matmul_a_bt",
    "gather",
    "scatter_add",
    "aggregate",
];

macro_rules! layer {
    ($name:expr, $unit:expr, $better:ident) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            exact: false,
        }
    };
    ($name:expr, $unit:expr, $better:ident, exact) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            exact: true,
        }
    };
}

/// The per-layer metrics, grouped by layer (workspace crate, `core` split
/// by module). Produced by the traced pass.
pub const PER_LAYER: &[PerLayer] = &[
    // graph
    layer!("graph.build_s", "s", Lower),
    layer!("graph.edges", "count", Higher, exact),
    layer!("graph.partition_cut_fraction", "fraction", Lower, exact),
    // sample
    layer!("sample.batch_s", "s", Lower),
    layer!("sample.edges_per_epoch", "count", Lower, exact),
    layer!("sample.edges_per_s", "1/s", Higher),
    layer!("sample.src_vertices_per_epoch", "count", Lower, exact),
    layer!("sample.presample_s", "s", Lower),
    layer!("sample.hot_coverage", "fraction", Higher, exact),
    layer!("sample.remote_pulls_per_epoch", "count", Lower, exact),
    layer!("sample.profile_s", "s", Lower),
    // core.gather
    layer!("gather.batch_s", "s", Lower),
    layer!("gather.rows_per_s", "1/s", Higher),
    layer!("gather.assemble_batch_s", "s", Lower),
    layer!("gather.structure_bytes_share", "fraction", Lower, exact),
    // cache
    layer!("cache.plan_s", "s", Lower),
    layer!("cache.build_s", "s", Lower),
    layer!("cache.cached_vertices", "count", Higher),
    layer!("cache.hit_ratio", "fraction", Higher),
    layer!("cache.bytes", "B", Lower, exact),
    layer!("cache.store_reuses_per_epoch", "count", Higher, exact),
    layer!("cache.max_staleness", "count", Lower),
    // tensor
    layer!("tensor.matmul_s", "s", Lower),
    layer!("tensor.matmul_at_b_s", "s", Lower),
    layer!("tensor.matmul_a_bt_s", "s", Lower),
    layer!("tensor.gather_s", "s", Lower),
    layer!("tensor.scatter_add_s", "s", Lower),
    layer!("tensor.aggregate_s", "s", Lower),
    layer!("tensor.matmul_calls", "count", Lower, exact),
    layer!("tensor.matmul_at_b_calls", "count", Lower, exact),
    layer!("tensor.matmul_a_bt_calls", "count", Lower, exact),
    layer!("tensor.gather_calls", "count", Lower, exact),
    layer!("tensor.scatter_add_calls", "count", Lower, exact),
    layer!("tensor.aggregate_calls", "count", Lower, exact),
    layer!("tensor.allocs_per_epoch.staging", "count", Lower),
    layer!("tensor.allocs_per_epoch.train", "count", Lower),
    layer!("tensor.allocs_per_epoch.refresh", "count", Lower),
    layer!("tensor.alloc_mib_per_epoch.train", "MiB", Lower),
    // nn
    layer!("nn.forward_batch_s", "s", Lower),
    layer!("nn.backward_batch_s", "s", Lower),
    layer!("nn.sgd_step_s", "s", Lower),
    layer!("nn.flops_per_batch", "count", Lower, exact),
    layer!("nn.gflops_per_s", "GFLOP/s", Higher),
    layer!("nn.tree_average_s", "s", Lower),
    layer!("nn.model_bytes", "B", Lower, exact),
    // core.trainer
    layer!("trainer.step_s", "s", Lower),
    layer!("trainer.seq_epoch_s", "s", Lower),
    layer!("trainer.exact_epoch_s", "s", Lower),
    layer!("trainer.eval_s", "s", Lower),
    layer!("trainer.final_test_acc", "fraction", Higher, exact),
    // core.refresh
    layer!("refresh.run_s", "s", Lower),
    layer!("refresh.rows_per_s", "1/s", Higher),
    layer!("refresh.worker_busy_s", "s", Lower),
    // core.engine
    layer!("engine.busy_s.sample", "s", Lower),
    layer!("engine.busy_s.gather", "s", Lower),
    layer!("engine.busy_s.transfer", "s", Lower),
    layer!("engine.busy_s.train", "s", Lower),
    layer!("engine.busy_s.train_wait", "s", Lower),
    layer!("engine.train_occupancy", "fraction", Higher),
    layer!("engine.first_epoch_s", "s", Lower),
    layer!("engine.startup_s", "s", Lower),
    layer!("engine.boundary_s", "s", Lower),
    layer!("engine.overlap_gain", "x", Higher),
    layer!("engine.speedup_vs_exact", "x", Higher),
    layer!("engine.cpu_fraction", "fraction", Lower),
    layer!("engine.reorder_peak", "count", Lower),
    // core.replica
    layer!("replica.steps_per_epoch", "count", Higher, exact),
    layer!("replica.allreduce_bytes_per_epoch", "B", Lower, exact),
    layer!("replica.remote_feature_bytes_per_epoch", "B", Lower, exact),
    layer!("replica.interconnect_s_per_epoch", "s", Lower, exact),
    layer!("replica.staging_busy_s.max", "s", Lower),
    layer!("replica.staging_imbalance", "x", Lower),
    // core.checkpoint
    layer!("checkpoint.write_s", "s", Lower),
    layer!("checkpoint.bytes", "B", Lower, exact),
    layer!("checkpoint.load_s", "s", Lower),
    layer!("checkpoint.stall_share", "fraction", Lower),
    // hetero + core orchestrators
    layer!("hetero.simulate_s", "s", Lower),
    layer!("hetero.batches", "count", Lower, exact),
    layer!("orch.sim_epoch_s.dgl", "s", Lower, exact),
    layer!("orch.sim_epoch_s.dgl-uva", "s", Lower, exact),
    layer!("orch.sim_epoch_s.pagraph", "s", Lower, exact),
    layer!("orch.sim_epoch_s.gnnlab", "s", Lower, exact),
    layer!("orch.sim_epoch_s.gas", "s", Lower, exact),
    layer!("orch.sim_epoch_s.neutronorch", "s", Lower, exact),
    layer!("orch.oom_cells", "count", Lower, exact),
    layer!("orch.ablation_monotone_cells", "count", Higher, exact),
    // the benchmark itself
    layer!("trace.overhead_ratio", "x", Lower),
    layer!("trace.coverage", "fraction", Higher),
];

/// A reported value with its unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub unit: &'static str,
}

/// Metric name → reading, name-ordered.
pub type Readings = BTreeMap<&'static str, Reading>;

/// Unit of a registered metric (either tier).
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// A zero reading for every per-layer metric: the layers a workload does
/// not exercise did no work, and say so.
pub fn per_layer_zeros() -> Readings {
    PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                Reading {
                    value: 0.0,
                    unit: m.unit,
                },
            )
        })
        .collect()
}

/// Inserts a reading under a registered name; panics on an unregistered
/// one (a bug in the benchmark, caught by its own tests).
pub fn put(readings: &mut Readings, name: &str, value: f64) {
    let (key, unit) = END_TO_END
        .iter()
        .chain(std::iter::once(&FINAL_TEST_ACC))
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not registered"));
    readings.insert(key, Reading { value, unit });
}

// ---------------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------------

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentile by linear interpolation between closest ranks (`p` in 0..=1).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method) — the spread rule the driver uses.
/// A single sample has no spread: both quartiles are that sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let at = |i: usize| {
                // Position i*(n+1)/4, 1-based, clamped into the sample.
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
                let delta = delta.clamp(0.0, 1.0);
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(1), at(3))
        }
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_within_the_contract_limits() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(ok(name), "bad name {name}");
            assert!(unit_ok(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(WORKLOADS.len() >= 2 && WORKLOADS.len() <= 8);
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.driver_bound > 0.0 && m.driver_bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.driver_bound <= setup.driver_bound));
        assert!(end_to_end("final_test_acc").is_some() && end_to_end("nope").is_none());
        for k in KERNELS {
            assert!(unit_of(&format!("tensor.{k}_s")).is_some());
            assert!(unit_of(&format!("tensor.{k}_calls")).is_some());
        }
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], which
        // Python extrapolates; we clamp into the sample instead.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn per_workload_bounds_override_the_default() {
        let warm = END_TO_END
            .iter()
            .find(|m| m.name == "warm_epoch_s")
            .unwrap();
        assert_eq!(warm.bound_for("link_bound"), Bound::Relative(0.05));
        assert_eq!(warm.bound_for("train_bound"), Bound::Relative(0.08));
        assert!(warm.gated("replicated_r2") && !warm.gated("sim_grid"));
        assert!(FINAL_TEST_ACC.gated("train_bound") && !FINAL_TEST_ACC.gated("link_bound"));
    }
}
