//! The benchmark's contract, checked on `--smoke` runs of the real
//! binaries: `BENCHMARK.json` and the emitted metrics name each other
//! exactly, with units; names and counts stay inside the driver's limits;
//! exact metrics repeat bit for bit; a set round-trips through `compare`.
//!
//! Smoke inputs are tiny (the suite runs in a debug build), so nothing here
//! looks at a timing's value — only that it is there, finite and labelled.

use orchbench::json::Value;
use orchbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const UNTRACED: &str = env!("CARGO_BIN_EXE_orchbench");
const TRACED: &str = env!("CARGO_BIN_EXE_orchbench-traced");

fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("orchbench-contract");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One `--workload … --smoke` run: the contract line and the detail file.
struct Run {
    line: Value,
    detail: Value,
}

fn smoke_run(workload: &str, trace: bool, tag: &str) -> Run {
    let detail = out_dir().join(format!("{workload}-{tag}.json"));
    // The untraced binary, as the driver calls it: it hands a traced run to
    // its sibling on its own.
    let out = Command::new(UNTRACED)
        .args(["--workload", workload, "--seed", "7", "--seconds", "16"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--out-dir")
        .arg(out_dir().join(tag))
        .arg("--detail")
        .arg(&detail)
        .output()
        .expect("run orchbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\nstdout: {stdout}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Run {
        line: Value::parse(last).expect("the last line of stdout is JSON"),
        detail: Value::parse(&std::fs::read_to_string(&detail).unwrap()).unwrap(),
    }
}

/// Every smoke run the tests look at, made once, one thread per workload.
struct Fixture {
    untraced: BTreeMap<&'static str, Run>,
    traced: BTreeMap<&'static str, Run>,
    /// Second runs of the same seed, for the exact metrics.
    untraced_again: BTreeMap<&'static str, Run>,
    traced_again: BTreeMap<&'static str, Run>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let per_workload: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = WORKLOADS
                .iter()
                .map(|w| {
                    scope.spawn(move || {
                        let untraced = smoke_run(w.name, false, "a0");
                        let traced = smoke_run(w.name, true, "a1");
                        // Second runs where an exact metric lives.
                        let untraced_again =
                            matches!(w.letter, 'T' | 'S').then(|| smoke_run(w.name, false, "b0"));
                        let traced_again =
                            matches!(w.letter, 'R' | 'S').then(|| smoke_run(w.name, true, "b1"));
                        (w.name, untraced, traced, untraced_again, traced_again)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut f = Fixture {
            untraced: BTreeMap::new(),
            traced: BTreeMap::new(),
            untraced_again: BTreeMap::new(),
            traced_again: BTreeMap::new(),
        };
        for (name, untraced, traced, untraced_again, traced_again) in per_workload {
            f.untraced.insert(name, untraced);
            f.traced.insert(name, traced);
            f.untraced_again.extend(untraced_again.map(|r| (name, r)));
            f.traced_again.extend(traced_again.map(|r| (name, r)));
        }
        f
    })
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn metric_value(run: &Run, name: &str) -> f64 {
    run.line
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn benchmark_json_is_the_registry_and_stays_inside_the_drivers_limits() {
    let doc = benchmark_json();
    assert_eq!(
        doc,
        orchbench::cli::manifest(),
        "regenerate with `orchbench manifest`"
    );
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
    assert!((2..=8).contains(&list("workloads").len()));
    assert!((1..=16).contains(&list("end_to_end").len()));
    assert!((1..=128).contains(&list("per_layer").len()));
    let name_ok = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for item in list(key) {
            let name = item.get("name").and_then(Value::as_str).unwrap();
            assert!(name_ok(name), "{name}");
            assert!(names.insert(name.to_string()), "{name} is used twice");
        }
    }
    for m in list("end_to_end") {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = &list("end_to_end")[0];
    assert_eq!(setup.get("name").and_then(Value::as_str), Some("setup_s"));
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    // The command names nothing of the repo outside `paths`.
    let paths: Vec<String> = list("paths")
        .iter()
        .map(|p| p.as_str().unwrap().to_string())
        .collect();
    for arg in list("command") {
        let arg = arg.as_str().unwrap();
        assert!(!arg.starts_with('/') && !arg.contains(".."));
        if arg.contains('/') {
            assert!(paths.iter().any(|p| arg.starts_with(p.as_str())), "{arg}");
        }
    }
    assert!(doc.to_pretty().len() <= 64 * 1024);
}

/// `metrics` of a contract line must be exactly `expected`, each with its
/// registered unit and a finite value.
fn assert_emits(run: &Run, expected: &[(&str, &str)], what: &str) {
    let emitted = run.line.get("metrics").and_then(Value::as_obj).unwrap();
    let want: Vec<&str> = {
        let mut names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names
    };
    let got: Vec<&str> = emitted.keys().map(String::as_str).collect();
    assert_eq!(got, want, "{what}: emitted metric names");
    for (name, unit) in expected {
        let m = &emitted[*name];
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(*unit),
            "{what}: {name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{what}: {name}"
        );
    }
    let keys: Vec<&str> = run
        .line
        .as_obj()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        run.line.get("correct").and_then(Value::as_bool),
        Some(true),
        "{what}"
    );
    assert!(run.line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(
        run.line.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{what}"
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_nothing_else() {
    let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        let run = &fixture().untraced[w.name];
        assert_emits(run, &expected, w.name);
        for m in &END_TO_END {
            // The driver divides by these: never zero.
            assert!(
                metric_value(run, m.name) > 0.0,
                "{}: {} is zero",
                w.name,
                m.name
            );
        }
        // The detail file adds final_test_acc where labels are learnable.
        let has_acc = run
            .detail
            .get("metrics")
            .and_then(|m| m.get("final_test_acc"))
            .is_some();
        assert_eq!(has_acc, matches!(w.letter, 'T' | 'R'), "{}", w.name);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_under_trace() {
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        let run = &fixture().traced[w.name];
        assert_emits(run, &expected, w.name);
        // A trace file per workload, loadable as Chrome trace events.
        let trace = out_dir().join("a1").join(format!("trace-{}.json", w.name));
        let doc = Value::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(!doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .unwrap()
            .is_empty());
    }
    // The layers a workload drives read non-zero there.
    let t = &fixture().traced["train_bound"];
    for name in [
        "sample.batch_s",
        "gather.batch_s",
        "trainer.step_s",
        "refresh.run_s",
        "tensor.matmul_calls",
        "tensor.allocs_per_epoch.train",
        "nn.flops_per_batch",
        "engine.train_occupancy",
        "cache.bytes",
        "trace.coverage",
        "orch.sim_epoch_s.neutronorch",
    ] {
        assert!(metric_value(t, name) > 0.0, "train_bound: {name}");
    }
    let r = &fixture().traced["replicated_r2"];
    for name in [
        "replica.allreduce_bytes_per_epoch",
        "replica.staging_imbalance",
        "checkpoint.bytes",
        "checkpoint.load_s",
    ] {
        assert!(metric_value(r, name) > 0.0, "replicated_r2: {name}");
    }
    let s = &fixture().traced["sim_grid"];
    for name in [
        "graph.build_s",
        // (`sample.profile_s` is a difference of two timings — a few noisy
        // milliseconds at smoke size — so only its presence is checked.)
        "sample.hot_coverage",
        "hetero.simulate_s",
        "orch.sim_epoch_s.dgl",
    ] {
        assert!(metric_value(s, name) > 0.0, "sim_grid: {name}");
    }
    assert_eq!(
        metric_value(s, "trainer.step_s"),
        0.0,
        "sim_grid trains nothing"
    );
}

#[test]
fn exact_metrics_repeat_bit_for_bit_across_runs() {
    let f = fixture();
    let same = |a: &Run, b: &Run, name: &str, what: &str| {
        assert_eq!(
            metric_value(a, name).to_bits(),
            metric_value(b, name).to_bits(),
            "{what}: {name} differs between two runs of one seed"
        );
    };
    for name in [
        "sim_orch_epoch_s",
        "sim_speedup_vs_best_case",
        "h2d_mib_per_epoch",
    ] {
        same(
            &f.untraced["sim_grid"],
            &f.untraced_again["sim_grid"],
            name,
            "sim_grid",
        );
    }
    for name in ["sim_orch_epoch_s", "sim_speedup_vs_best_case"] {
        same(
            &f.untraced["train_bound"],
            &f.untraced_again["train_bound"],
            name,
            "train_bound",
        );
    }
    let epoch0 = |r: &Run| {
        r.detail
            .get("samples")
            .and_then(|s| s.get("epoch0_h2d_bytes"))
            .and_then(Value::as_f64_series)
            .unwrap()
    };
    assert_eq!(
        epoch0(&f.untraced["train_bound"]),
        epoch0(&f.untraced_again["train_bound"]),
        "epoch-0 H2D bytes"
    );
    // Every per-layer metric the registry calls exact, on the workloads
    // traced twice.
    for w in ["replicated_r2", "sim_grid"] {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            same(&f.traced[w], &f.traced_again[w], m.name, w);
        }
    }
}

#[test]
fn a_set_of_runs_round_trips_through_compare() {
    let dir = out_dir().join("set");
    let set = dir.join("run.json");
    let out = Command::new(UNTRACED)
        .args(["run", "--smoke", "--runs", "1", "--seed", "7"])
        .arg("--out-dir")
        .arg(&dir)
        .arg("--out")
        .arg(&set)
        .output()
        .expect("run a set");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Every metric by name, with its unit, and the failure accounting.
    for m in &END_TO_END {
        assert!(stdout.contains(m.name), "the set's table lacks {}", m.name);
    }
    assert!(stdout.contains("ops_attempted") && stdout.contains("ops_failed 0"));
    let doc = Value::parse(&std::fs::read_to_string(&set).unwrap()).unwrap();
    let env = doc.get("env").unwrap();
    for key in [
        "commit",
        "rustc",
        "nproc",
        "cpu_model",
        "load_avg_1m_start",
        "load_avg_1m_end",
        "noisy",
    ] {
        assert!(env.get(key).is_some(), "env lacks {key}");
    }
    // A set against itself never regresses. (Smoke timings are a few noisy
    // milliseconds, so a cell may be wider than its bound — unresolved —
    // which `compare` reports and its exit code reflects.)
    let same = Command::new(UNTRACED)
        .arg("compare")
        .arg(&set)
        .arg(&set)
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(table.contains(" 0 regress"), "{table}");
    assert_eq!(
        same.status.success(),
        table.contains(" 0 unresolved"),
        "{table}\n{:?}\n{}",
        same.status,
        String::from_utf8_lossy(&same.stderr)
    );
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result_line() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "train_bound", "--trace", "2"],
        vec!["--seed", "1"],
        vec!["compare", "only-one.json"],
        vec!["--workload", "train_bound", "--frobnicate"],
    ] {
        let out = Command::new(UNTRACED).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    // The traced binary is the same command line.
    let out = Command::new(TRACED).arg("--help").output().unwrap();
    assert!(out.status.success());
}

#[test]
fn the_adapter_is_the_only_file_that_names_the_measured_program() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut stack = vec![src.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().unwrap() != "adapter.rs" {
                let text = std::fs::read_to_string(&path).unwrap();
                for line in text.lines().filter(|l| !l.trim_start().starts_with("//")) {
                    assert!(
                        !line.contains("neutron_"),
                        "{} names the program directly: {line}",
                        path.display()
                    );
                }
            }
        }
    }
    // api_surface.txt lists what the adapter uses: every listed item is in
    // the adapter, and every `neutron_*` path of its imports is listed.
    let adapter = std::fs::read_to_string(src.join("adapter.rs")).unwrap();
    let listed =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("api_surface.txt"))
            .unwrap();
    let items: Vec<&str> = listed
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert!(items.len() > 40);
    for item in &items {
        let path = item.split_whitespace().next().unwrap();
        let leaf = path.rsplit("::").next().unwrap();
        assert!(path.starts_with("neutron_"), "{item}");
        // Types reached only through another item's fields or return value
        // say so, and are not named in the adapter's source.
        assert!(
            adapter.contains(leaf) || item.contains("(through "),
            "api_surface.txt lists {path}, which the adapter does not use"
        );
    }
    for import in adapter
        .lines()
        .filter(|l| l.starts_with("use neutron_") || l.starts_with("pub use neutron_"))
    {
        let module = import
            .trim_start_matches("pub ")
            .trim_start_matches("use ")
            .split(['{', ';'])
            .next()
            .unwrap()
            .trim_end_matches("::");
        let krate = module.split("::").next().unwrap();
        assert!(
            items.iter().any(|i| i.starts_with(krate)),
            "api_surface.txt lists nothing of {krate}"
        );
    }
}
