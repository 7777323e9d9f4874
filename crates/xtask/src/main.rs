//! Workspace task runner (`cargo xtask ...`).
//!
//! One command: `drill`, the fault-injection drill CI runs. It trains the
//! scaled Reddit replica in a `Session` with a deterministic fault plan
//! injected and prints the detection/recovery timeline. A session that ends
//! in a typed `SessionError` still exits 0 — the drill exists to prove
//! faults *terminate* (recover or error), never hang; only a malformed
//! command line or a fault no lane would receive is a tool error (exit 1).
//! Every policy runs at every `--replicas`.

use neutron_core::fault::{FailurePolicy, FaultPlan};
use neutron_core::session::{Session, SessionConfig};
use neutron_core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutron_graph::DatasetSpec;
use neutron_nn::LayerKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  drill --epochs N [--replicas R] --faults SPEC [--policy fail|drop|restore]
      train the scaled Reddit replica for N epochs over R lanes (default 1)
      with a deterministic fault plan injected (e.g. crash@r1e2s3,stall@r0e1s0)
      and print the detection/recovery timeline, applying --policy on lane
      failures (default fail)";

/// A checked `drill` command line: nothing trains until every flag parsed
/// and every fault addresses a lane the session has.
#[derive(Debug)]
struct Drill {
    epochs: usize,
    replicas: usize,
    plan: FaultPlan,
    policy: FailurePolicy,
}

impl Drill {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut epochs, mut replicas, mut faults, mut policy) = (None, None, None, None);
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let slot = match flag.as_str() {
                "--epochs" => &mut epochs,
                "--replicas" => &mut replicas,
                "--faults" => &mut faults,
                "--policy" => &mut policy,
                other => return Err(format!("unknown argument '{other}'")),
            };
            let value = rest.next().filter(|v| !v.starts_with("--"));
            *slot = Some(value.ok_or_else(|| format!("{flag} needs a value"))?);
        }
        let count = |flag: &str, value: Option<&String>, default: Option<usize>| {
            let Some(value) = value else {
                return default.ok_or_else(|| format!("{flag} is required"));
            };
            match value.parse::<usize>() {
                Ok(0) => Err(format!("{flag} must be >= 1")),
                Ok(n) => Ok(n),
                Err(e) => Err(format!("bad {flag} value: {e}")),
            }
        };
        let epochs = count("--epochs", epochs, None)?;
        let replicas = count("--replicas", replicas, Some(1))?;
        let faults = faults.ok_or("--faults is required")?;
        let policy = match policy.map(String::as_str) {
            None | Some("fail") => FailurePolicy::Fail,
            Some("drop") => FailurePolicy::DropReplica,
            Some("restore") => FailurePolicy::Restore,
            Some(other) => {
                return Err(format!(
                    "bad --policy value '{other}' (expected fail | drop | restore)"
                ))
            }
        };
        let plan = FaultPlan::parse(faults)?;
        check_lanes(&plan, replicas)?;
        Ok(Self {
            epochs,
            replicas,
            plan,
            policy,
        })
    }
}

/// The rule `Session::new` asserts, as a usage error: a fault addresses one
/// of the session's lanes.
fn check_lanes(plan: &FaultPlan, replicas: usize) -> Result<(), String> {
    match plan.specs().find(|spec| spec.replica >= replicas) {
        None => Ok(()),
        Some(spec) => Err(format!(
            "--faults {spec} addresses worker {} but a --replicas {replicas} session has \
             {replicas} worker(s): it would never be delivered",
            spec.replica
        )),
    }
}

/// The scaled Reddit replica's trainer: 8k vertices, GCN×2, batch 256.
fn scaled_trainer() -> ConvergenceTrainer {
    let mut spec = DatasetSpec::reddit_convergence();
    spec.vertices = 8_000;
    spec.edges = 640_000;
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

fn drill(drill: Drill) {
    let Drill {
        epochs,
        replicas,
        plan,
        policy,
    } = drill;
    println!(
        "fault plan ({} scheduled, policy {policy:?}):",
        plan.specs().count()
    );
    for spec in plan.specs() {
        println!("  scheduled: {spec}");
    }

    let mut trainer = scaled_trainer();
    let ck_path =
        std::env::temp_dir().join(format!("neutronorch-faultrun-{}.ck", std::process::id()));
    // Short stall timeout: an injected stall should be detected in under a
    // second, not after the production-grade default.
    let stall_timeout = Duration::from_millis(500);
    let t0 = Instant::now();
    let outcome = Session::new(SessionConfig {
        replicas,
        fault_plan: Some(Arc::new(plan)),
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
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("drill") => {
            let parsed = Drill::parse(&args[1..]).map_err(|e| format!("{e}\n\n{USAGE}"))?;
            drill(parsed);
            Ok(())
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
        None => Err(USAGE.into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = run(&args) {
        eprintln!("{message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Drill, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Drill::parse(&args)
    }

    fn refused(line: &str, why: &str) {
        let err = parse(line).expect_err(line);
        assert!(err.contains(why), "{line}: {err}");
    }

    #[test]
    fn a_full_command_line_parses() {
        let drill = parse("--epochs 3 --replicas 2 --faults crash@r1e1s0 --policy drop").unwrap();
        assert_eq!((drill.epochs, drill.replicas), (3, 2));
        assert_eq!(drill.policy, FailurePolicy::DropReplica);
        assert_eq!(drill.plan.specs().count(), 1);
        let drill = parse("--faults panic@r0e1s1 --epochs 2").unwrap();
        assert_eq!((drill.replicas, drill.policy), (1, FailurePolicy::Fail));
    }

    #[test]
    fn zero_epochs_or_replicas_are_refused() {
        refused("--epochs 0 --faults panic@r0e1s1", "--epochs must be >= 1");
        refused(
            "--epochs 1 --replicas 0 --faults panic@r0e1s1",
            "--replicas must be >= 1",
        );
        refused("--epochs x --faults panic@r0e1s1", "bad --epochs value");
        refused("--faults panic@r0e1s1", "--epochs is required");
    }

    #[test]
    fn a_flag_with_no_value_is_refused() {
        refused("--epochs 1 --faults", "--faults needs a value");
        refused("--epochs --faults panic@r0e1s1", "--epochs needs a value");
        refused(
            "--epochs 1 --faults panic@r0e1s1 --allocs",
            "unknown argument '--allocs'",
        );
    }

    #[test]
    fn an_unknown_policy_is_refused() {
        refused(
            "--epochs 1 --faults panic@r0e1s1 --policy retry",
            "bad --policy value 'retry'",
        );
    }

    #[test]
    fn a_policy_needs_faults() {
        refused("--epochs 1 --policy drop", "--faults is required");
        refused("--epochs 1", "--faults is required");
    }

    #[test]
    fn a_fault_must_address_a_lane_the_session_has() {
        let plan = FaultPlan::parse("crash@r7e0s0").unwrap();
        assert!(check_lanes(&plan, 8).is_ok());
        let err = check_lanes(&plan, 2).unwrap_err();
        assert!(err.contains("addresses worker 7"), "{err}");
        assert!(err.contains("would never be delivered"), "{err}");
        // One lane has only r0.
        refused("--epochs 1 --faults crash@r1e0s0", "addresses worker 1");
        refused(
            "--epochs 1 --replicas 2 --faults crash@r7e0s0 --policy drop",
            "would never be delivered",
        );
    }

    #[test]
    fn a_malformed_or_repeated_fault_is_refused() {
        refused("--epochs 1 --faults boom@r0e0s0", "unknown fault kind");
        refused(
            "--epochs 1 --faults panic@r0e1s1,panic@r0e1s1",
            "coordinate already holds",
        );
    }
}
