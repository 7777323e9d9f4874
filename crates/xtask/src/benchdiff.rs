//! `xtask bench-kernels` / `xtask bench-diff`: the BENCH_*.json regression
//! gate.
//!
//! `bench-kernels` runs the kernel microbench
//! (`crates/bench/benches/kernels.rs`) with the criterion stub's
//! `CRITERION_JSON` output enabled, prints the chunked-vs-scalar speedup
//! table, and with `--update` rewrites the committed `BENCH_kernels.json`.
//!
//! `bench-diff` is the CI gate. Two halves:
//!
//! - **Kernels**: re-runs the microbench and fails on regressions. The CI
//!   box is a single shared core whose timings swing ~2x between runs, so
//!   the gates are chosen to catch real regressions without flaking:
//!   same-run *ratios* (chunked vs scalar measured seconds apart) get
//!   tight-ish bounds, while cross-run absolute comparisons against the
//!   committed JSON use a generous [`CROSS_RUN_SLOWDOWN`] factor.
//! - **Engine**: validates the internal invariants of `BENCH_engine.json`
//!   (series shapes, deterministic byte accounting, stage-breakdown
//!   consistency) — generalising the inline python sanity check PR 3's CI
//!   carried. Byte series are *not* compared across runs: the cache plan
//!   depends on measured occupancy, so only invariants that hold for every
//!   valid run are checked.

use crate::json::{parse_lines, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The paired kernels `BENCH_kernels.json` tracks, in report order.
const PAIRED_KERNELS: [&str; 5] = [
    "matmul",
    "matmul_at_b",
    "matmul_a_bt",
    "gather",
    "scatter_add",
];

/// At least one paired kernel must beat its scalar reference by this much
/// in the same run (the tentpole's acceptance floor; measured headroom is
/// ~4x on matmul, ~2.6x on matmul_a_bt).
const MIN_BEST_SPEEDUP: f64 = 1.5;

/// No chunked kernel may fall below this fraction of its scalar reference
/// in the same run. Same-run ratios still jitter on the shared box (the
/// two sides run seconds apart), so this is a catastrophic-pessimisation
/// guard, not a tightness claim.
const MIN_ANY_SPEEDUP: f64 = 0.5;

/// Cross-run gate: a chunked kernel (or any non-paired bench) fails if it
/// runs this many times slower than the committed baseline. Covers the
/// observed ~2x machine noise with margin; a real algorithmic regression
/// (e.g. losing autovectorization) typically costs 3-5x.
const CROSS_RUN_SLOWDOWN: f64 = 3.0;

/// PR 4's committed warm-epoch engine mean (`engine_warm_mean_seconds` in
/// the BENCH_engine.json that PR shipped). The pooled hot path must not
/// regress wall-clock past machine noise: the gate is this baseline times
/// [`CROSS_RUN_SLOWDOWN`].
const PR4_ENGINE_WARM_MEAN_SECONDS: f64 = 0.1189;

/// Checkpoint overhead gate: the mean wall-clock of a checkpoint write may
/// cost at most this fraction of the warm-epoch mean. Checkpointing is
/// supposed to be cheap insurance — if serialization ever approaches epoch
/// cost, the format (or the cadence default) has regressed.
const MAX_CHECKPOINT_OVERHEAD_FRACTION: f64 = 0.05;

/// Absolute budget for warm-epoch (epochs 1..) staging allocations —
/// heap allocations attributed to the sample/gather/transfer stages per
/// engine epoch. Measured 29–38/epoch on the pooled engine (capacity
/// growth on recycled buffers while epochs 1–3 still warm up); the budget
/// leaves headroom for scheduling variance without letting a per-batch
/// allocation (32+/epoch per callsite) slip back in.
const WARM_STAGING_ALLOC_BUDGET: f64 = 150.0;

/// The pooled engine must make at least this many times fewer
/// **steady-state** staging allocations (mean over the last half of the
/// warm epochs, once every pooled buffer has grown to the working set)
/// than the allocating sequential baseline measured in the same bench
/// run. Measured 30–90x; 10x is the regression line.
const MIN_STAGING_ALLOC_IMPROVEMENT: f64 = 10.0;

fn workspace_root() -> PathBuf {
    // crates/xtask -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

/// Runs the kernel microbench, returning `id -> min_ns`.
fn run_microbench() -> Result<BTreeMap<String, u64>, String> {
    let root = workspace_root();
    let json_path = root.join("target").join("criterion-bench.jsonl");
    let _ = std::fs::remove_file(&json_path);
    println!("running kernel microbench (cargo bench -p neutron-bench --bench kernels)...");
    let status = Command::new("cargo")
        .current_dir(&root)
        .args(["bench", "-p", "neutron-bench", "--bench", "kernels"])
        .env("CRITERION_JSON", &json_path)
        .status()
        .map_err(|e| format!("failed to run cargo bench: {e}"))?;
    if !status.success() {
        return Err(format!("cargo bench failed with {status}"));
    }
    let text = std::fs::read_to_string(&json_path)
        .map_err(|e| format!("no bench output at {}: {e}", json_path.display()))?;
    let mut out = BTreeMap::new();
    for line in parse_lines(&text)? {
        let id = line
            .get("id")
            .and_then(Value::as_str)
            .ok_or("bench line missing id")?;
        let min = line
            .get("min_ns")
            .and_then(Value::as_u64)
            .ok_or("bench line missing min_ns")?;
        out.insert(id.to_string(), min);
    }
    Ok(out)
}

struct Pair {
    kernel: &'static str,
    scalar_ns: u64,
    chunked_ns: u64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / self.chunked_ns.max(1) as f64
    }
}

fn collect_pairs(results: &BTreeMap<String, u64>) -> Result<Vec<Pair>, String> {
    PAIRED_KERNELS
        .iter()
        .map(|&kernel| {
            let get = |variant: &str| {
                let id = format!("kern/{kernel}/{variant}");
                results
                    .get(&id)
                    .copied()
                    .ok_or(format!("microbench produced no '{id}' result"))
            };
            Ok(Pair {
                kernel,
                scalar_ns: get("scalar")?,
                chunked_ns: get("chunked")?,
            })
        })
        .collect()
}

fn print_pairs(pairs: &[Pair]) {
    println!("\nkernel          scalar(ref)      chunked      speedup");
    for p in pairs {
        println!(
            "{:<14} {:>10.1}us {:>10.1}us {:>9.2}x",
            p.kernel,
            p.scalar_ns as f64 / 1e3,
            p.chunked_ns as f64 / 1e3,
            p.speedup()
        );
    }
}

/// `xtask bench-kernels [--update]`.
pub fn bench_kernels(update: bool) -> Result<(), String> {
    let results = run_microbench()?;
    let pairs = collect_pairs(&results)?;
    print_pairs(&pairs);
    if !update {
        println!("\n(read-only; pass --update to rewrite BENCH_kernels.json)");
        return Ok(());
    }
    let mut kernels = String::new();
    for (i, p) in pairs.iter().enumerate() {
        let sep = if i + 1 == pairs.len() { "" } else { "," };
        kernels.push_str(&format!(
            "    \"{}\": {{\"scalar_ns\": {}, \"chunked_ns\": {}, \"speedup\": {:.2}}}{sep}\n",
            p.kernel,
            p.scalar_ns,
            p.chunked_ns,
            p.speedup()
        ));
    }
    let mut other = String::new();
    let others: Vec<(&String, &u64)> = results
        .iter()
        .filter(|(id, _)| !id.starts_with("kern/"))
        .collect();
    for (i, (id, ns)) in others.iter().enumerate() {
        let sep = if i + 1 == others.len() { "" } else { "," };
        other.push_str(&format!("    \"{id}\": {ns}{sep}\n"));
    }
    let json = format!(
        "{{\n  \"note\": \"min-of-N ns per iteration on the CI container (one shared core; cross-run noise ~2x — xtask bench-diff gates same-run ratios tightly, cross-run absolutes at {CROSS_RUN_SLOWDOWN}x). Refresh with: cargo xtask bench-kernels --update\",\n  \"kernels\": {{\n{kernels}  }},\n  \"other_ns\": {{\n{other}  }}\n}}\n"
    );
    let path = workspace_root().join("BENCH_kernels.json");
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// The kernel half of `xtask bench-diff`.
fn diff_kernels() -> Result<(), String> {
    let results = run_microbench()?;
    let pairs = collect_pairs(&results)?;
    print_pairs(&pairs);
    let mut failures: Vec<String> = Vec::new();

    let best = pairs
        .iter()
        .map(Pair::speedup)
        .fold(f64::NEG_INFINITY, f64::max);
    if best < MIN_BEST_SPEEDUP {
        failures.push(format!(
            "best chunked-vs-scalar speedup {best:.2}x fell below the {MIN_BEST_SPEEDUP}x floor"
        ));
    }
    for p in &pairs {
        if p.speedup() < MIN_ANY_SPEEDUP {
            failures.push(format!(
                "kernel '{}' runs {:.2}x its scalar reference (floor {MIN_ANY_SPEEDUP}x of scalar)",
                p.kernel,
                1.0 / p.speedup()
            ));
        }
    }

    // Cross-run comparison against the committed baseline, when present.
    let baseline_path = workspace_root().join("BENCH_kernels.json");
    match std::fs::read_to_string(&baseline_path) {
        Err(_) => println!(
            "\nno committed BENCH_kernels.json — skipping cross-run comparison \
             (create it with: cargo xtask bench-kernels --update)"
        ),
        Ok(text) => {
            let baseline = Value::parse(&text)?;
            for p in &pairs {
                let committed = baseline
                    .get("kernels")
                    .and_then(|k| k.get(p.kernel))
                    .and_then(|k| k.get("chunked_ns"))
                    .and_then(Value::as_u64);
                if let Some(committed) = committed {
                    let ratio = p.chunked_ns as f64 / committed.max(1) as f64;
                    if ratio > CROSS_RUN_SLOWDOWN {
                        failures.push(format!(
                            "kernel '{}' regressed {ratio:.2}x vs committed baseline \
                             ({} ns -> {} ns; gate {CROSS_RUN_SLOWDOWN}x)",
                            p.kernel, committed, p.chunked_ns
                        ));
                    }
                }
            }
            if let Some(Value::Obj(other)) = baseline.get("other_ns") {
                for (id, committed) in other {
                    let (Some(committed), Some(&fresh)) = (committed.as_u64(), results.get(id))
                    else {
                        continue;
                    };
                    let ratio = fresh as f64 / committed.max(1) as f64;
                    if ratio > CROSS_RUN_SLOWDOWN {
                        failures.push(format!(
                            "bench '{id}' regressed {ratio:.2}x vs committed baseline \
                             ({committed} ns -> {fresh} ns; gate {CROSS_RUN_SLOWDOWN}x)"
                        ));
                    }
                }
            }
        }
    }

    if failures.is_empty() {
        println!("\nkernel gate: OK (best speedup {best:.2}x)");
        Ok(())
    } else {
        Err(format!("kernel gate FAILED:\n  {}", failures.join("\n  ")))
    }
}

/// The engine half of `xtask bench-diff`: internal invariants of
/// `BENCH_engine.json`.
fn diff_engine() -> Result<(), String> {
    let path = workspace_root().join("BENCH_engine.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Value::parse(&text)?;
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(what.to_string());
        }
    };

    let epochs = doc
        .get("epochs")
        .and_then(Value::as_u64)
        .ok_or("BENCH_engine.json missing 'epochs'")? as usize;
    let series = |key: &str| -> Result<Vec<f64>, String> {
        doc.get(key)
            .and_then(Value::as_f64_series)
            .ok_or(format!("missing or non-numeric series '{key}'"))
    };

    // Series shapes + sign.
    for key in [
        "sequential_epoch_seconds",
        "engine_epoch_seconds",
        "adaptive_cpu_fraction",
        "cache_hits_per_epoch",
        "cache_misses_per_epoch",
        "h2d_bytes_per_epoch",
        "h2d_bytes_per_epoch_nocache",
        "train_occupancy",
        "losses",
    ] {
        let s = series(key)?;
        check(
            s.len() == epochs,
            &format!("series '{key}' length != epochs"),
        );
        check(
            s.iter().all(|v| v.is_finite() && *v >= 0.0),
            &format!("series '{key}' has negative or non-finite entries"),
        );
    }

    // Deterministic byte accounting (the PR 3 python step, ported).
    let cached = series("h2d_bytes_per_epoch")?;
    let nocache = series("h2d_bytes_per_epoch_nocache")?;
    let hits = series("cache_hits_per_epoch")?;
    check(
        nocache.iter().all(|&v| v > 0.0),
        "cache-less H2D volume must be nonzero every epoch",
    );
    check(
        cached[0] == nocache[0],
        "epoch 0 runs before the first plan: cached and cache-less volumes must match",
    );
    check(
        cached.iter().zip(&nocache).all(|(c, n)| c <= n),
        "the cache may only remove transferred bytes",
    );
    check(
        cached.iter().sum::<f64>() < nocache.iter().sum::<f64>(),
        "a nonzero cache budget must reduce total transferred bytes",
    );
    check(hits.iter().sum::<f64>() > 0.0, "no cache hits recorded");

    // Hot rows leave the device path: the hotness-aware engine prunes hot
    // vertices from the bottom block, so every epoch must stage (hit or
    // miss) strictly fewer deduped sources than the same data and seed
    // trained under `ReusePolicy::Exact`. Exact counts, no timing.
    let misses = series("cache_misses_per_epoch")?;
    let exact_sources = series("sources_per_epoch_exact")?;
    check(
        !exact_sources.is_empty() && exact_sources.iter().all(|&v| v > 0.0),
        "'sources_per_epoch_exact' must record at least one nonzero exact epoch",
    );
    for (e, (hit, miss)) in hits.iter().zip(&misses).enumerate() {
        let staged = hit + miss;
        check(
            exact_sources.iter().all(|&exact| staged < exact),
            &format!(
                "epoch {e}: the engine staged {staged} bottom-block sources, not fewer than \
                 exact training's {exact_sources:?} — hot vertices are not being pruned"
            ),
        );
    }

    // Stage breakdown consistency (per-stage timing added with the xtask
    // harness): every stage series spans the epochs, and the train stage's
    // busy + starved time stays within wall-clock (small tolerance for the
    // 4-decimal rounding the JSON writer applies).
    let stages = doc
        .get("stage_seconds")
        .ok_or("missing 'stage_seconds' breakdown")?;
    for key in [
        "sample",
        "gather",
        "transfer",
        "train",
        "train_wait",
        "refresh",
    ] {
        let s = stages
            .get(key)
            .and_then(Value::as_f64_series)
            .ok_or(format!("stage_seconds missing '{key}'"))?;
        check(
            s.len() == epochs,
            &format!("stage_seconds['{key}'] length != epochs"),
        );
        check(
            s.iter().all(|v| v.is_finite() && *v >= 0.0),
            &format!("stage_seconds['{key}'] has negative entries"),
        );
    }
    let wall = series("engine_epoch_seconds")?;
    let train = stages.get("train").and_then(Value::as_f64_series).unwrap();
    let wait = stages
        .get("train_wait")
        .and_then(Value::as_f64_series)
        .unwrap();
    for e in 0..epochs {
        check(
            train[e] + wait[e] <= wall[e] * 1.02 + 1e-3,
            &format!("epoch {e}: train busy+starved exceeds epoch wall-clock"),
        );
    }

    // Allocation telemetry (the pooled-hot-path gate). The bench must have
    // run under a counting allocator — all-zero series from a build without
    // one would otherwise pass as "allocation-free" vacuously.
    check(
        doc.get("alloc_counting") == Some(&Value::Bool(true)),
        "'alloc_counting' is not true — regenerate BENCH_engine.json with \
         `cargo run --release --example engine_multi_epoch --features count-allocs`",
    );
    for obj_key in ["allocs_per_epoch", "alloc_bytes_per_epoch"] {
        let obj = doc
            .get(obj_key)
            .ok_or(format!("missing '{obj_key}' breakdown"))?;
        for stage in ["other", "sample", "gather", "transfer", "train", "refresh"] {
            let s = obj
                .get(stage)
                .and_then(Value::as_f64_series)
                .ok_or(format!("{obj_key} missing stage series '{stage}'"))?;
            check(
                s.len() == epochs,
                &format!("{obj_key}['{stage}'] length != epochs"),
            );
            check(
                s.iter().all(|v| v.is_finite() && *v >= 0.0),
                &format!("{obj_key}['{stage}'] has negative or non-finite entries"),
            );
        }
    }
    let warm_mean = |s: &[f64]| s[1..].iter().sum::<f64>() / (s.len() - 1).max(1) as f64;
    // Steady state: the last half of the warm epochs, after every pooled
    // buffer has grown to the working-set capacity. The warmup epochs
    // (pool filling, capacity growth) are judged only by the absolute
    // budget above; the improvement ratio is a steady-state claim.
    let steady_mean = |s: &[f64]| {
        let tail = &s[s.len() - (s.len() / 2).max(1)..];
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    let seq_staging = series("sequential_staging_allocs_per_epoch")?;
    let eng_staging = series("engine_staging_allocs_per_epoch")?;
    check(
        seq_staging.len() == epochs && eng_staging.len() == epochs,
        "staging-alloc series must span the epochs",
    );
    let seq_warm = warm_mean(&seq_staging);
    let eng_warm = warm_mean(&eng_staging);
    let seq_steady = steady_mean(&seq_staging);
    let eng_steady = steady_mean(&eng_staging);
    check(
        seq_warm > 0.0,
        "sequential baseline recorded zero staging allocations — counting was off",
    );
    check(
        eng_warm <= WARM_STAGING_ALLOC_BUDGET,
        &format!(
            "warm-epoch staging allocations {eng_warm:.1}/epoch exceed the \
             {WARM_STAGING_ALLOC_BUDGET} budget — a hot-path allocation crept back in"
        ),
    );
    check(
        seq_steady >= MIN_STAGING_ALLOC_IMPROVEMENT * eng_steady.max(1.0),
        &format!(
            "pooled engine steady-state staging allocations ({eng_steady:.1}/epoch) are not \
             {MIN_STAGING_ALLOC_IMPROVEMENT}x below the allocating baseline ({seq_steady:.1}/epoch)"
        ),
    );
    // Warm-epoch wall-clock vs the committed PR 4 baseline (generous
    // cross-run factor — same rationale as the kernel gate).
    let warm_secs = doc
        .get("engine_warm_mean_seconds")
        .and_then(Value::as_f64)
        .ok_or("missing 'engine_warm_mean_seconds'")?;
    check(
        warm_secs <= PR4_ENGINE_WARM_MEAN_SECONDS * CROSS_RUN_SLOWDOWN,
        &format!(
            "engine warm-epoch mean {warm_secs:.4}s regressed past \
             {PR4_ENGINE_WARM_MEAN_SECONDS}s x {CROSS_RUN_SLOWDOWN} (PR 4 baseline)"
        ),
    );

    // Checkpoint telemetry: the bench runs the engine session with
    // checkpointing on, so the series must show at least one write, and
    // the mean write must stay under the overhead ceiling relative to the
    // warm-epoch wall-clock mean.
    let ck_bytes = series("checkpoint_bytes_per_epoch")?;
    let ck_secs = series("checkpoint_seconds_per_epoch")?;
    check(
        ck_bytes.len() == epochs && ck_secs.len() == epochs,
        "checkpoint series must span the epochs",
    );
    check(
        ck_bytes.iter().sum::<f64>() > 0.0,
        "no checkpoint was written during the bench — checkpointing was off",
    );
    check(
        ck_bytes
            .iter()
            .zip(&ck_secs)
            .all(|(&b, &s)| (b > 0.0) == (s > 0.0)),
        "checkpoint bytes and seconds must be nonzero on exactly the same epochs",
    );
    let writes: Vec<f64> = ck_secs.iter().copied().filter(|&s| s > 0.0).collect();
    let ck_mean = writes.iter().sum::<f64>() / writes.len().max(1) as f64;
    check(
        ck_mean <= MAX_CHECKPOINT_OVERHEAD_FRACTION * warm_secs,
        &format!(
            "mean checkpoint write {ck_mean:.4}s exceeds {:.0}% of the warm-epoch \
             mean {warm_secs:.4}s",
            100.0 * MAX_CHECKPOINT_OVERHEAD_FRACTION
        ),
    );

    // Replicated data-parallel section: the ring all-reduce byte law
    // recomputed from steps x model size, and the locality ablation
    // (partition-aware sampling must pull fewer remote feature bytes than
    // the locality-blind run of the same trajectory).
    let replicas = doc
        .get("replicas")
        .and_then(Value::as_u64)
        .ok_or("missing 'replicas'")?;
    check(
        replicas >= 2,
        "'replicas' must be >= 2 for the scaling section",
    );
    let model_bytes = doc
        .get("model_bytes")
        .and_then(Value::as_f64)
        .ok_or("missing 'model_bytes'")?;
    check(model_bytes > 0.0, "'model_bytes' must be positive");
    for key in [
        "replica_steps_per_epoch",
        "allreduce_bytes_per_epoch",
        "remote_feature_bytes_per_epoch",
        "remote_feature_bytes_per_epoch_blind",
        "interconnect_seconds_per_epoch",
        "replicated_staging_allocs_per_epoch",
    ] {
        let s = series(key)?;
        check(
            s.len() == epochs,
            &format!("series '{key}' length != epochs"),
        );
        check(
            s.iter().all(|v| v.is_finite() && *v >= 0.0),
            &format!("series '{key}' has negative or non-finite entries"),
        );
    }
    let steps = series("replica_steps_per_epoch")?;
    let allreduce = series("allreduce_bytes_per_epoch")?;
    let remote = series("remote_feature_bytes_per_epoch")?;
    let remote_blind = series("remote_feature_bytes_per_epoch_blind")?;
    let interconnect = series("interconnect_seconds_per_epoch")?;
    check(
        steps.iter().all(|&s| s > 0.0),
        "every replicated epoch must take at least one step",
    );
    for e in 0..epochs {
        let want = steps[e] * 2.0 * (replicas - 1) as f64 * model_bytes;
        check(
            (allreduce[e] - want).abs() < 0.5,
            &format!(
                "epoch {e}: allreduce_bytes {} != steps x 2(R-1) x model_bytes = {want}",
                allreduce[e]
            ),
        );
    }
    check(
        interconnect.iter().all(|&v| v > 0.0),
        "interconnect pricing must be positive while all-reduce traffic flows",
    );
    check(
        remote_blind.iter().sum::<f64>() > 0.0,
        "the locality-blind run pulled no remote features — partitioning is broken",
    );
    check(
        remote.iter().sum::<f64>() < remote_blind.iter().sum::<f64>(),
        "locality-aware sampling did not reduce remote feature bytes vs the blind ablation",
    );
    let per_rep = doc
        .get("replica_epoch_seconds")
        .ok_or("missing 'replica_epoch_seconds' breakdown")?;
    for r in 0..replicas {
        let key = format!("replica{r}");
        let s = per_rep
            .get(&key)
            .and_then(Value::as_f64_series)
            .ok_or(format!("replica_epoch_seconds missing '{key}'"))?;
        check(
            s.len() == epochs,
            &format!("replica_epoch_seconds['{key}'] length != epochs"),
        );
        check(
            s.iter().all(|v| v.is_finite() && *v >= 0.0),
            &format!("replica_epoch_seconds['{key}'] has negative entries"),
        );
    }
    // The replicated engine reuses the pooled staging path: its warm-epoch
    // staging allocations get R times the single-engine budget (R pools
    // warm up independently; the per-replica budget is gated exactly in
    // tests/alloc_budget.rs).
    let repl_staging = series("replicated_staging_allocs_per_epoch")?;
    let repl_warm = warm_mean(&repl_staging);
    check(
        repl_warm <= replicas as f64 * WARM_STAGING_ALLOC_BUDGET,
        &format!(
            "replicated warm-epoch staging allocations {repl_warm:.1}/epoch exceed \
             {replicas} x {WARM_STAGING_ALLOC_BUDGET}"
        ),
    );

    // Kernel totals from the timing hooks: present and plausible (nonzero,
    // not larger than total busy time across all workers could explain).
    let kernels = doc
        .get("kernel_seconds")
        .ok_or("missing 'kernel_seconds' (tensor timing hooks)")?;
    if let Value::Obj(map) = kernels {
        let sum: f64 = map.values().filter_map(Value::as_f64).sum();
        check(sum > 0.0, "kernel_seconds sums to zero — hooks were off");
        check(
            map.values().filter_map(Value::as_f64).all(|v| v >= 0.0),
            "kernel_seconds has negative entries",
        );
    } else {
        failures.push("'kernel_seconds' is not an object".into());
    }

    if failures.is_empty() {
        println!(
            "engine gate: OK ({} epochs, {:.1}% H2D saved by the cache, staging \
             allocs warm {:.1}/epoch, steady {:.1}/epoch vs {:.1} sequential; \
             R={replicas} replicas, {:.1}% remote bytes saved by locality)",
            epochs,
            100.0 * (1.0 - cached.iter().sum::<f64>() / nocache.iter().sum::<f64>()),
            eng_warm,
            eng_steady,
            seq_warm,
            100.0 * (1.0 - remote.iter().sum::<f64>() / remote_blind.iter().sum::<f64>()),
        );
        Ok(())
    } else {
        Err(format!("engine gate FAILED:\n  {}", failures.join("\n  ")))
    }
}

/// `xtask bench-diff [--kernels-only | --engine-only]`.
pub fn bench_diff(kernels: bool, engine: bool) -> Result<(), String> {
    let mut errors: Vec<String> = Vec::new();
    if engine {
        if let Err(e) = diff_engine() {
            errors.push(e);
        }
    }
    if kernels {
        if let Err(e) = diff_kernels() {
            errors.push(e);
        }
    }
    if errors.is_empty() {
        println!("\nbench-diff: all gates passed");
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}
