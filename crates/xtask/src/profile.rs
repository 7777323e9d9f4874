//! `xtask profile`: run a named workload under a sampling profiler, or with
//! the in-process timing hooks (`--timing`) for a per-stage / per-kernel
//! wall-time breakdown.
//!
//! Profiler mode follows the nomt xtask pattern: verify `samply` exists,
//! then re-exec this same binary under `samply record` with the subcommand
//! swapped to the inline `profile-exec` runner, so the profiled process is
//! nothing but the workload.

use neutron_core::fault::{FailurePolicy, FaultPlan};
use neutron_core::pipeline::PipelineReport;
use neutron_core::session::{Session, SessionConfig, SessionReport};
use neutron_core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutron_graph::DatasetSpec;
use neutron_nn::LayerKind;
use neutron_tensor::{alloc, timing};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The named workloads `xtask profile` can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The quickstart convergence run: sequential hotness-aware training on
    /// the Reddit-convergence replica (no pipeline).
    Quickstart,
    /// A `Session` on the scaled Reddit replica (8k vertices, GCN×2, batch
    /// 256); `--replicas R` sets `SessionConfig::replicas`.
    Engine,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "quickstart" => Ok(Self::Quickstart),
            "engine" => Ok(Self::Engine),
            other => Err(format!(
                "unknown workload '{other}' (expected quickstart | engine)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Quickstart => "quickstart",
            Self::Engine => "engine",
        }
    }
}

/// The scaled Reddit replica the `engine` workload trains.
fn scaled_spec() -> DatasetSpec {
    let mut spec = DatasetSpec::reddit_convergence();
    spec.vertices = 8_000;
    spec.edges = 640_000;
    spec
}

fn scaled_trainer(spec: &DatasetSpec) -> ConvergenceTrainer {
    let config = TrainerConfig {
        kind: LayerKind::Gcn,
        layers: 2,
        batch_size: 256,
        lr: 0.2,
        seed: 0xe4e,
        policy: ReusePolicy::HotnessAware {
            hot_ratio: 0.2,
            super_batch: 2,
        },
    };
    ConvergenceTrainer::new(spec.build_full(), config)
}

/// `(rows, tasks, hot)` of a finished session: hot rows put on refresh
/// worklists over the run, the super-batch boundaries that launched them
/// (one refresh task each), and the size of the hot set.
fn refresh_summary(
    trainer: &ConvergenceTrainer,
    session: &SessionReport,
) -> Option<(u64, usize, usize)> {
    let ReusePolicy::HotnessAware { super_batch, .. } = trainer.policy() else {
        return None;
    };
    let (rows, tasks) = session.epochs.iter().fold((0, 0), |(rows, tasks), run| {
        (
            rows + run.refresh_rows,
            tasks + run.steps.div_ceil(*super_batch),
        )
    });
    Some((rows, tasks, trainer.hot_set()?.len()))
}

/// Runs the workload inline; the engine workload returns its session and
/// the trainer it trained.
fn run_workload(
    workload: Workload,
    epochs: usize,
    replicas: usize,
) -> Option<(SessionReport, ConvergenceTrainer)> {
    match workload {
        Workload::Quickstart => {
            let spec = DatasetSpec::reddit_convergence();
            let policy = ReusePolicy::HotnessAware {
                hot_ratio: 0.2,
                super_batch: 4,
            };
            let config = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
            let mut trainer = ConvergenceTrainer::new(spec.build_full(), config);
            for epoch in 0..epochs {
                let obs = trainer.train_epoch(epoch);
                println!("epoch {epoch}: loss {:.4}", obs.train_loss);
            }
            None
        }
        Workload::Engine => {
            let spec = scaled_spec();
            let mut trainer = scaled_trainer(&spec);
            let session = Session::new(SessionConfig {
                replicas,
                ..SessionConfig::default()
            })
            .run_session(&mut trainer, 0, epochs);
            for run in &session.epochs {
                println!(
                    "epoch {}: loss {:.4}, {:.2}s (occupancy {:.2}; {} steps, {:.2} MiB \
                     all-reduce, {:.2} MiB remote)",
                    run.epoch,
                    run.observation.train_loss,
                    run.report.epoch_seconds,
                    run.report.train_occupancy(),
                    run.steps,
                    run.allreduce_bytes as f64 / (1u64 << 20) as f64,
                    run.remote_feature_bytes as f64 / (1u64 << 20) as f64,
                );
            }
            Some((session, trainer))
        }
    }
}

/// `xtask profile-exec`: the inline runner `samply record` wraps.
pub fn exec(workload: Workload, epochs: usize, replicas: usize) {
    println!(
        "running workload '{}' for {epochs} epochs (replicas: {replicas})",
        workload.name()
    );
    let t0 = Instant::now();
    run_workload(workload, epochs, replicas);
    println!("workload done in {:.2}s", t0.elapsed().as_secs_f64());
}

/// `xtask profile <workload> --timing [--allocs]`: run inline with the
/// tensor timing hooks enabled and print the per-stage / per-kernel
/// breakdown, plus (with `--allocs`) a per-stage heap-allocation table
/// from the counting allocator xtask installs.
pub fn timing_run(workload: Workload, epochs: usize, replicas: usize, allocs: bool) {
    timing::reset();
    timing::set_enabled(true);
    if allocs {
        alloc::reset();
        alloc::set_enabled(true);
    }
    let t0 = Instant::now();
    let out = run_workload(workload, epochs, replicas);
    let reports: Vec<&PipelineReport> = out
        .iter()
        .flat_map(|(session, _)| session.epochs.iter().map(|r| &r.report))
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    timing::set_enabled(false);
    alloc::set_enabled(false);
    let alloc_snap = alloc::snapshot();
    let snap = timing::snapshot();

    if !reports.is_empty() {
        // Stage busy-time totals across the run. Stages run on concurrent
        // workers, so the sum can exceed wall-clock — each line is that
        // stage's own busy seconds.
        let total = |f: fn(&PipelineReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
        let epoch_secs = total(|r| r.epoch_seconds);
        println!("\nper-stage busy seconds ({} epochs):", reports.len());
        let rows: [(&str, f64); 5] = [
            ("sample", total(|r| r.sample_seconds)),
            ("gather (host collect)", total(|r| r.gather_collect_seconds)),
            ("transfer (H2D)", total(|r| r.transfer_seconds)),
            ("train (busy)", total(|r| r.train_seconds)),
            ("train (starved)", total(|r| r.train_wait_seconds)),
        ];
        for (name, secs) in rows {
            println!(
                "  {name:<22} {secs:>8.3}s  ({:>5.1}% of epoch wall)",
                100.0 * secs / epoch_secs.max(1e-12)
            );
        }
        println!("  {:<22} {epoch_secs:>8.3}s", "epoch wall total");
    }

    let refresh = out.as_ref().and_then(|(s, t)| refresh_summary(t, s));
    if let Some((rows, tasks, hot)) = refresh {
        // A boundary recomputes the hot rows the next super-batch reads;
        // only an epoch's last boundary (and priming) takes the whole set.
        let per_task = rows as f64 / tasks.max(1) as f64;
        println!(
            "\nrefresh worklists: {tasks} tasks, {per_task:.0} rows a task on average \
             of {hot} hot-set rows ({:.1}%)",
            100.0 * per_task / hot.max(1) as f64
        );
    }

    if let Some((session, _)) = &out {
        const MIB: f64 = (1u64 << 20) as f64;
        println!(
            "\nper-replica per-stage busy seconds ({} replicas, {epochs} epochs; \
             partition cut {:.2}, balance {:.2}):",
            session.replicas, session.partition_cut_fraction, session.partition_balance
        );
        println!(
            "  replica    sample    gather  transfer    h2d_MiB  remote_MiB  remote_picks  batches"
        );
        for rep in 0..session.replicas {
            let (mut sample, mut gather, mut transfer) = (0.0f64, 0.0f64, 0.0f64);
            let (mut h2d, mut remote, mut picks) = (0u64, 0u64, 0u64);
            let mut batches = 0usize;
            for run in &session.epochs {
                let s = &run.per_replica[rep];
                sample += s.sample_seconds;
                gather += s.gather_seconds;
                transfer += s.transfer_seconds;
                h2d += s.h2d_bytes;
                remote += s.remote_feature_bytes;
                picks += s.remote_picks;
                batches += s.batches;
            }
            println!(
                "  {rep:>7} {sample:>8.3}s {gather:>8.3}s {transfer:>8.3}s {:>10.1} {:>11.1} {picks:>13} {batches:>8}",
                h2d as f64 / MIB,
                remote as f64 / MIB,
            );
        }
        let allreduce: u64 = session.epochs.iter().map(|r| r.allreduce_bytes).sum();
        let interconnect: f64 = session.epochs.iter().map(|r| r.interconnect_seconds).sum();
        println!(
            "  all-reduce {:.2} MiB over the run, simulated interconnect {:.4}s \
             (model {} B, ring)",
            allreduce as f64 / MIB,
            interconnect,
            session.model_bytes
        );
        if allocs {
            // The per-stage alloc counters below are process-global, i.e.
            // summed across every replica's workers; the per-epoch staging
            // series here is the session's own window.
            let staging = session.series(|r| r.allocs.staging_allocs());
            println!("  staging allocs per epoch (all replicas): {staging:?}");
        }
    }

    println!("\nper-kernel seconds (tensor timing hooks):");
    for (name, stat) in snap.iter() {
        if stat.calls == 0 {
            continue;
        }
        println!(
            "  {name:<14} {:>8.3}s  {:>9} calls  ({:>5.1}% of wall)",
            stat.seconds(),
            stat.calls,
            100.0 * stat.seconds() / wall.max(1e-12)
        );
    }
    println!(
        "  {:<14} {:>8.3}s  (wall {wall:.3}s; kernels overlap across threads)",
        "kernel total",
        snap.total_seconds()
    );

    if allocs {
        // Per-stage attribution needs the workload to tag its threads
        // (the engine and the sequential executor do); untagged work —
        // setup, eval, the plain quickstart loop — lands in `other`.
        println!("\nper-stage heap allocations ({epochs} epochs):");
        let per_epoch = |n: u64| n as f64 / epochs.max(1) as f64;
        for (name, stat) in alloc_snap.iter() {
            if stat.allocs == 0 {
                continue;
            }
            println!(
                "  {name:<10} {:>12} allocs  {:>14} B  ({:>10.1} allocs/epoch)",
                stat.allocs,
                stat.bytes,
                per_epoch(stat.allocs)
            );
        }
        println!(
            "  {:<10} {:>12} allocs  (staging hot path: {:.1} allocs/epoch)",
            "total",
            alloc_snap.total_allocs(),
            per_epoch(alloc_snap.staging_allocs())
        );
    }
}

/// `xtask profile engine --faults <spec>`: run the engine workload with a
/// deterministic fault plan injected and print the detection/recovery
/// timeline. A session that ends in a typed `SessionError` still exits 0
/// — the harness exists to prove faults *terminate* (recover or error),
/// never hang; only a malformed spec or a fault no lane would receive is a
/// tool error. Every policy runs at every `--replicas`.
pub fn fault_run(
    workload: Workload,
    epochs: usize,
    replicas: usize,
    faults: &str,
    policy: FailurePolicy,
) -> Result<(), String> {
    if workload != Workload::Engine {
        return Err("--faults applies to the 'engine' workload only".into());
    }
    let plan = Arc::new(FaultPlan::parse(faults)?);
    // The rule `Session::new` asserts, as a usage error: a fault addresses
    // one of the session's lanes.
    if let Some(spec) = plan.specs().find(|spec| spec.replica >= replicas) {
        return Err(format!(
            "--faults {spec} addresses worker {} but a --replicas {replicas} session has \
             {replicas} worker(s): it would never be delivered\n\n{}",
            spec.replica,
            crate::USAGE
        ));
    }
    println!(
        "fault plan ({} scheduled, policy {policy:?}):",
        plan.specs().count()
    );
    for spec in plan.specs() {
        println!("  scheduled: {spec}");
    }

    let spec = scaled_spec();
    let mut trainer = scaled_trainer(&spec);
    let ck_path =
        std::env::temp_dir().join(format!("neutronorch-faultrun-{}.ck", std::process::id()));
    // Short stall timeout: an injected stall should be detected in under a
    // second, not after the production-grade default.
    let stall_timeout = Duration::from_millis(500);
    let t0 = Instant::now();
    let outcome = Session::new(SessionConfig {
        replicas,
        fault_plan: Some(Arc::clone(&plan)),
        on_replica_failure: policy,
        checkpoint_every: 1,
        checkpoint_path: Some(ck_path.clone()),
        stall_timeout,
        ..SessionConfig::default()
    })
    .run_session_checked(&mut trainer, 0, epochs);
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&ck_path);

    println!("\ntimeline:");
    match outcome {
        Ok(session) => {
            for run in &session.epochs {
                print!(
                    "  epoch {}: loss {:.4}",
                    run.epoch, run.observation.train_loss
                );
                if run.checkpoint_bytes > 0 {
                    print!(
                        ", checkpoint {} B in {:.3}s",
                        run.checkpoint_bytes, run.checkpoint_seconds
                    );
                }
                println!();
                for event in &run.report.failures {
                    println!("    {event}");
                }
            }
            println!(
                "session completed in {wall:.2}s ({} epochs recorded)",
                session.epochs.len()
            );
        }
        Err(err) => {
            println!("  session ended with typed error after {wall:.2}s:");
            println!("    {err}");
        }
    }
    Ok(())
}

/// `xtask profile <workload>`: wrap the inline runner in `samply record`.
pub fn profile(workload: Workload, epochs: usize, replicas: usize) -> Result<(), String> {
    let have_samply = Command::new("sh")
        .args(["-c", "command -v samply"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !have_samply {
        return Err(
            "samply not found — install it (`cargo install samply`), or use \
             `--timing` for the hook-based breakdown (no profiler needed)"
                .into(),
        );
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new("samply")
        .arg("record")
        .arg(exe)
        .args([
            "profile-exec",
            workload.name(),
            "--epochs",
            &epochs.to_string(),
            "--replicas",
            &replicas.to_string(),
        ])
        .status()
        .map_err(|e| format!("failed to launch samply: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("samply exited with {status}"))
    }
}
