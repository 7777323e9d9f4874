//! Workspace task runner (`cargo xtask ...`).
//!
//! Subcommands:
//!
//! - `profile <workload> [--epochs N]` — run a named workload under
//!   `samply record` (re-execs this binary as `profile-exec`).
//! - `profile <workload> --timing [--epochs N]` — run inline with the
//!   tensor timing hooks on; print per-stage and per-kernel breakdowns.
//! - `profile-exec <workload> [--epochs N]` — the inline runner samply
//!   wraps; usable directly for a plain timed run.

mod profile;

use profile::Workload;

/// Alloc accounting is always available in xtask (`profile --timing
/// --allocs`): counting costs nothing while disabled, and installing the
/// allocator here — instead of via the library's `count-allocs` feature —
/// keeps the one-global-allocator-per-binary rule trivially satisfied no
/// matter which feature unification the workspace build picks.
#[global_allocator]
static GLOBAL_COUNTING_ALLOCATOR: neutron_tensor::alloc::CountingAllocator =
    neutron_tensor::alloc::CountingAllocator;

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  profile <quickstart|engine> [--timing [--allocs]] [--epochs N] [--replicas R]
          [--faults SPEC [--policy fail|drop|restore]]
      run a workload under samply (default) or with timing hooks (--timing);
      --allocs adds a per-stage heap-allocation breakdown; --replicas R runs
      the engine workload data-parallel over an R-way graph partition with
      per-replica per-stage tables; --faults injects a deterministic fault
      plan (e.g. crash@r1e2s3,stall@r0e1s0) into the engine workload and
      prints the detection/recovery timeline, applying --policy on replica
      failures (default fail)
  profile-exec <workload> [--epochs N] [--replicas R]
      run the workload inline (what samply wraps)";

const DEFAULT_EPOCHS: usize = 4;

fn parse_epochs(args: &[String]) -> Result<usize, String> {
    match args.iter().position(|a| a == "--epochs") {
        None => Ok(DEFAULT_EPOCHS),
        Some(i) => args
            .get(i + 1)
            .ok_or("--epochs needs a value".to_string())?
            .parse::<usize>()
            .map_err(|e| format!("bad --epochs value: {e}"))
            .and_then(|n| {
                if n == 0 {
                    Err("--epochs must be >= 1".into())
                } else {
                    Ok(n)
                }
            }),
    }
}

fn parse_replicas(args: &[String], workload: Workload) -> Result<usize, String> {
    let replicas = match args.iter().position(|a| a == "--replicas") {
        None => 1,
        Some(i) => args
            .get(i + 1)
            .ok_or("--replicas needs a value".to_string())?
            .parse::<usize>()
            .map_err(|e| format!("bad --replicas value: {e}"))?,
    };
    if replicas == 0 {
        return Err("--replicas must be >= 1".into());
    }
    if replicas != 1 && workload != Workload::Engine {
        return Err("--replicas applies to the 'engine' workload only".into());
    }
    Ok(replicas)
}

fn parse_flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse_policy(args: &[String]) -> Result<neutron_core::FailurePolicy, String> {
    use neutron_core::FailurePolicy;
    match parse_flag_value(args, "--policy")?.as_deref() {
        None | Some("fail") => Ok(FailurePolicy::Fail),
        Some("drop") => Ok(FailurePolicy::DropReplica),
        Some("restore") => Ok(FailurePolicy::Restore),
        Some(other) => Err(format!(
            "bad --policy value '{other}' (expected fail | drop | restore)"
        )),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(USAGE.into());
    };
    let rest = &args[1..];
    match command.as_str() {
        "profile" => {
            let name = rest.first().ok_or(USAGE.to_string())?;
            let workload = Workload::parse(name)?;
            let epochs = parse_epochs(rest)?;
            let replicas = parse_replicas(rest, workload)?;
            let has = |flag: &str| rest.iter().any(|a| a == flag);
            let faults = parse_flag_value(rest, "--faults")?;
            if has("--policy") && faults.is_none() {
                return Err(format!("--policy needs --faults\n\n{USAGE}"));
            }
            if has("--allocs") && !has("--timing") {
                return Err(format!("--allocs needs --timing\n\n{USAGE}"));
            }
            if let Some(faults) = faults {
                let policy = parse_policy(rest)?;
                profile::fault_run(workload, epochs, replicas, &faults, policy)
            } else if has("--timing") {
                profile::timing_run(workload, epochs, replicas, has("--allocs"));
                Ok(())
            } else {
                profile::profile(workload, epochs, replicas)
            }
        }
        "profile-exec" => {
            let name = rest.first().ok_or(USAGE.to_string())?;
            let workload = Workload::parse(name)?;
            profile::exec(
                workload,
                parse_epochs(rest)?,
                parse_replicas(rest, workload)?,
            );
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn main() {
    if let Err(message) = run() {
        eprintln!("{message}");
        std::process::exit(1);
    }
}
