//! Command line: one run (the form the benchmark driver calls), a set of
//! runs, the traced pass, and `compare`.

use crate::adapter;
use crate::compare;
use crate::env;
use crate::json::Value;
use crate::metrics::{self, median, percentile, quartiles, WORKLOADS};
use crate::traced;
use crate::workloads::{self, RunConfig, RunOutput};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
orchbench — one benchmark for the engine, the replicas and the simulator

  orchbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir DIR] [--detail FILE]
      One run in this process. The last line of stdout is one JSON object
      {correct, attempted, failed, metrics}: every end-to-end metric with
      --trace 0, every per-layer metric with --trace 1.
  orchbench run     [--seed 1] [--runs 3] [--seconds 16] [--smoke] [--out FILE]
      A set: every workload, each run in a fresh child process, one at a
      time, tracing off. Prints every metric with its unit; writes the set.
  orchbench trace   [--seed 1] [--seconds 16] [--smoke] [--out FILE]
      The traced pass: per-layer metrics and trace-<workload>.json files.
  orchbench compare A.json B.json
      Holds set B to the bounds against set A.
  orchbench manifest
      Prints BENCHMARK.json as the metric registry defines it.

workloads: train_bound link_bound replicated_r2 sim_grid
";

/// Parsed `--flag value` pairs, boolean flags and positionals.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

const BOOLEAN_FLAGS: [&str; 1] = ["smoke"];
const VALUE_FLAGS: [&str; 8] = [
    "workload", "seed", "seconds", "trace", "out-dir", "detail", "runs", "out",
];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if BOOLEAN_FLAGS.contains(&name) => {
                    flags.insert(name.to_string(), "1".to_string());
                }
                Some(name) if VALUE_FLAGS.contains(&name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
                Some(name) => return Err(format!("unknown flag --{name}")),
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} wants a whole number, got '{v}'")),
        }
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.flags.get(name).map(PathBuf::from)
    }

    fn run_config(&self) -> Result<RunConfig, String> {
        let seconds = self.number("seconds", RUN_SECONDS)?;
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds {seconds} is outside 1..=600"));
        }
        Ok(RunConfig {
            seed: self.number("seed", 1)?,
            seconds,
            smoke: self.flags.contains_key("smoke"),
            out_dir: self.path("out-dir").unwrap_or_else(env::default_out_dir),
        })
    }
}

/// Entry point of both binaries.
pub fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => Args::parse(&raw[1..]).and_then(|a| run_set(&a)),
        Some("trace") => Args::parse(&raw[1..]).and_then(|a| trace_set(&a)),
        Some("compare") => Args::parse(&raw[1..]).and_then(|a| compare_sets(&a)),
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            return ExitCode::SUCCESS;
        }
        Some(_) => Args::parse(&raw).and_then(|a| one_run(&a, &raw)),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("orchbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Seconds one driver run is sized for: 16 epochs of about a second each.
pub const RUN_SECONDS: u64 = 16;

/// `BENCHMARK.json`, from the registry. The driver appends `--workload
/// <name> --seed <n> --seconds <s> --trace <0|1>` to `command`; the script
/// builds both binaries and runs the untraced one with those arguments.
pub fn manifest() -> Value {
    let named = |name: &str, unit: &str, better: metrics::Better| {
        vec![
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better.as_str())),
        ]
    };
    Value::obj([
        (
            "command",
            Value::Arr(vec![
                Value::str("bash"),
                Value::str("crates/orchbench/bench.sh"),
            ]),
        ),
        ("paths", Value::Arr(vec![Value::str("crates/orchbench")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound", Value::Num(m.driver_bound)));
                        Value::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| Value::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

/// The traced binary next to this one, for a traced pass asked of the
/// untraced binary: only `orchbench-traced` installs the counting allocator.
fn traced_sibling() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name(format!("orchbench-traced{}", std::env::consts::EXE_SUFFIX));
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "the traced pass needs {} — build it with `cargo build --release -p orchbench --bins`",
            sibling.display()
        ))
    }
}

fn exit_code_of(status: std::process::ExitStatus) -> ExitCode {
    ExitCode::from(status.code().map_or(1, |c| c.clamp(0, 255) as u8))
}

fn one_run(args: &Args, raw: &[String]) -> Result<ExitCode, String> {
    if !args.positional.is_empty() {
        return Err(format!(
            "unexpected argument '{}'\n\n{USAGE}",
            args.positional[0]
        ));
    }
    let name = args
        .flags
        .get("workload")
        .ok_or_else(|| format!("--workload is required\n\n{USAGE}"))?;
    let cfg = args.run_config()?;
    let trace = match args.number("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    let workload = workloads::lookup(name, cfg.smoke)
        .ok_or_else(|| format!("unknown workload '{name}'\n\n{USAGE}"))?;
    if trace && !adapter::counting_allocator_installed() {
        // Same arguments, same stdio, in the binary that counts allocations.
        let status = Command::new(traced_sibling()?)
            .args(raw)
            .status()
            .map_err(|e| format!("starting the traced binary: {e}"))?;
        return Ok(exit_code_of(status));
    }
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;

    let started = env::Started::now();
    let out = if trace {
        traced::run(&workload, &cfg)
    } else {
        workloads::run(&workload, &cfg)
    };
    for line in &out.failures {
        eprintln!("orchbench: {name}: {line}");
    }
    if let Some(share) = started.steal_share().filter(|&s| s > 0.05) {
        eprintln!(
            "orchbench: {name}: the hypervisor withheld {:.0}% of the CPU time during this run — its timings are inflated",
            100.0 * share
        );
    }
    let expected: Vec<&str> = if trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    let missing: Vec<&str> = expected
        .iter()
        .copied()
        .filter(|m| !out.readings.get(m).is_some_and(|r| r.value.is_finite()))
        .collect();
    if let Some(path) = args.path("detail") {
        std::fs::write(&path, detail(name, &cfg, &out).to_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if !missing.is_empty() {
        // No result line: a run that cannot report every metric has failed.
        return Err(format!(
            "{name}: no finite reading for {}",
            missing.join(", ")
        ));
    }
    let contract = Value::obj([
        (
            "correct",
            Value::Bool(out.failed == 0 && out.failures.is_empty()),
        ),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        (
            "metrics",
            Value::obj(expected.iter().map(|m| {
                let r = out.readings[m];
                (
                    *m,
                    Value::obj([("value", Value::Num(r.value)), ("unit", Value::str(r.unit))]),
                )
            })),
        ),
    ]);
    println!("{}", contract.to_line());
    Ok(if out.failed == 0 && out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Everything a run measured, for the set runner: all readings (also
/// `final_test_acc`, which the contract line leaves out), the samples
/// behind them and the failure lines.
fn detail(name: &str, cfg: &RunConfig, out: &RunOutput) -> Value {
    Value::obj([
        ("workload", Value::str(name)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        (
            "failures",
            Value::Arr(out.failures.iter().map(Value::str).collect()),
        ),
        (
            "metrics",
            Value::obj(out.readings.iter().map(|(name, r)| {
                (
                    *name,
                    Value::obj([("value", Value::Num(r.value)), ("unit", Value::str(r.unit))]),
                )
            })),
        ),
        (
            "samples",
            Value::obj(
                out.samples
                    .iter()
                    .map(|(name, xs)| (*name, Value::nums(xs))),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Sets: child processes, one at a time.
// ---------------------------------------------------------------------------

/// A finished child run: its detail file, parsed.
struct ChildRun {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

fn child_run(
    exe: &Path,
    workload: &str,
    cfg: &RunConfig,
    trace: bool,
    tag: &str,
) -> Result<ChildRun, String> {
    let detail_path = cfg.out_dir.join(format!("detail-{workload}-{tag}.json"));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&cfg.out_dir)
        .arg("--detail")
        .arg(&detail_path)
        .stdout(Stdio::null());
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("starting {}: {e}", exe.display()))?;
    let text = std::fs::read_to_string(&detail_path)
        .map_err(|e| format!("{workload} ({status}) left no detail file: {e}"))?;
    std::fs::remove_file(&detail_path).ok();
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", detail_path.display()))?;
    let count = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    let samples = doc
        .get("samples")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64_series()?)))
                .collect()
        })
        .unwrap_or_default();
    let mut run = ChildRun {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
        samples,
    };
    if !status.success() {
        // A failed child is a failed set, whatever it managed to write.
        run.failed = run.failed.max(1);
    }
    Ok(run)
}

/// A set's value for one metric: `samples` are the per-run readings (what
/// `compare` takes the run-to-run spread from); `n`, `q1`, `q3` describe
/// the `pool` the value is the statistic of.
fn cell(value: f64, unit: &str, pool: &[f64], samples: &[f64]) -> Value {
    let (q1, q3) = quartiles(pool);
    Value::obj([
        ("value", Value::Num(value)),
        ("unit", Value::str(unit)),
        ("n", Value::Num(pool.len() as f64)),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        ("samples", Value::nums(samples)),
    ])
}

/// Pools the runs of one workload into the set's cells. Warm epochs are
/// pooled across runs (median and 75th percentile over all of them);
/// `seeds_per_s` is total seeds over total seconds, so slow epochs a median
/// hides still show; everything else is the median of the per-run values.
fn pool(runs: &[ChildRun]) -> BTreeMap<String, Value> {
    let per_run = |name: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect()
    };
    let pooled = |name: &str| -> Vec<f64> {
        runs.iter()
            .flat_map(|r| r.samples.get(name).cloned().unwrap_or_default())
            .collect()
    };
    let warm = pooled("warm_epoch_s");
    let mut cells = BTreeMap::new();
    for (name, _) in runs.first().map(|r| r.metrics.iter()).into_iter().flatten() {
        let unit = metrics::unit_of(name).unwrap_or("");
        let values = per_run(name);
        let value = match name.as_str() {
            "warm_epoch_s" if !warm.is_empty() => cell(median(&warm), unit, &warm, &values),
            "warm_epoch_p75_s" if !warm.is_empty() => {
                cell(percentile(&warm, 0.75), unit, &warm, &values)
            }
            "seeds_per_s" if !warm.is_empty() => {
                let seeds: f64 = pooled("warm_seeds").iter().sum();
                let seconds: f64 = pooled("warm_seconds").iter().sum();
                cell(seeds / seconds, unit, &values, &values)
            }
            _ => cell(median(&values), unit, &values, &values),
        };
        cells.insert(name.clone(), value);
    }
    cells
}

fn print_cells(workload: &str, attempted: u64, failed: u64, cells: &BTreeMap<String, Value>) {
    println!("\n{workload}: ops_attempted {attempted}, ops_failed {failed}");
    println!(
        "  {:<40} {:>16} {:<8} {:>4}  {:>14} {:>14}",
        "metric", "value", "unit", "n", "q1", "q3"
    );
    for (name, c) in cells {
        let num = |k: &str| c.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        println!(
            "  {:<40} {:>16.6} {:<8} {:>4}  {:>14.6} {:>14.6}",
            name,
            num("value"),
            c.get("unit").and_then(Value::as_str).unwrap_or(""),
            num("n"),
            num("q1"),
            num("q3"),
        );
    }
}

/// Runs `runs` child processes per workload and writes the pooled set.
fn set(args: &Args, kind: &str, exe: &Path, trace: bool, runs: u64) -> Result<ExitCode, String> {
    if !args.positional.is_empty() {
        return Err(format!(
            "unexpected argument '{}'\n\n{USAGE}",
            args.positional[0]
        ));
    }
    let cfg = args.run_config()?;
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let started = env::Started::now();
    if started.noisy() {
        eprintln!("orchbench: the load average exceeds nproc — this set is marked noisy");
    }
    let mut any_failed = false;
    let mut by_workload = BTreeMap::new();
    for w in &WORKLOADS {
        let mut done = Vec::new();
        for run in 0..runs {
            eprintln!("orchbench: {} run {}/{runs} ...", w.name, run + 1);
            done.push(child_run(
                exe,
                w.name,
                &cfg,
                trace,
                &format!("{kind}{run}"),
            )?);
        }
        let attempted: u64 = done.iter().map(|r| r.attempted).sum();
        let failed: u64 = done.iter().map(|r| r.failed).sum();
        any_failed |= failed > 0;
        let cells = pool(&done);
        print_cells(w.name, attempted, failed, &cells);
        by_workload.insert(
            w.name,
            Value::obj([
                ("ops_attempted", Value::Num(attempted as f64)),
                ("ops_failed", Value::Num(failed as f64)),
                ("metrics", Value::Obj(cells)),
            ]),
        );
    }
    let doc = Value::obj([
        ("kind", Value::str(kind)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("runs_per_workload", Value::Num(runs as f64)),
        ("seconds", Value::Num(cfg.seconds as f64)),
        ("smoke", Value::Bool(cfg.smoke)),
        ("env", started.describe()),
        ("workloads", Value::obj(by_workload)),
    ]);
    let path = args
        .path("out")
        .unwrap_or_else(|| cfg.out_dir.join(format!("{kind}-seed{}.json", cfg.seed)));
    std::fs::write(&path, doc.to_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if trace {
        println!(
            "traces: {}/trace-<workload>.json (open in https://ui.perfetto.dev)",
            cfg.out_dir.display()
        );
    }
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run_set(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let runs = args.number("runs", 3)?.max(1);
    set(args, "run", &exe, false, runs)
}

fn trace_set(args: &Args) -> Result<ExitCode, String> {
    let exe = if adapter::counting_allocator_installed() {
        std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?
    } else {
        traced_sibling()?
    };
    set(args, "trace", &exe, true, 1)
}

fn compare_sets(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err(format!("compare wants two set files\n\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    let clean = !rows.iter().any(|r| {
        matches!(
            r.verdict,
            compare::Verdict::Regress | compare::Verdict::Unresolved
        )
    });
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
