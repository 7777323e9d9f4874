//! The run environment recorded in every result file, and the process
//! facts (peak RSS, scratch directory) a run needs.

use crate::json::Value;
use std::path::PathBuf;
use std::process::Command;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Cores the process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 1-minute load average, if the platform exposes it.
fn load_average() -> Option<f64> {
    read("/proc/loadavg")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `VmHWM` of this process in MiB — its peak resident set.
pub fn peak_rss_mib() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds the hypervisor withheld from this machine since boot
/// (`steal` of `/proc/stat`, in USER_HZ = 100 ticks), if exposed.
fn steal_seconds() -> Option<f64> {
    let stat = read("/proc/stat")?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// The machine's state when a measurement started.
pub struct Started {
    at: std::time::Instant,
    load: Option<f64>,
    steal: Option<f64>,
}

impl Started {
    pub fn now() -> Self {
        Self {
            at: std::time::Instant::now(),
            load: load_average(),
            steal: steal_seconds(),
        }
    }

    /// More runnable work than cores at the start: the set is noisy.
    pub fn noisy(&self) -> bool {
        self.load.is_some_and(|l| l > nproc() as f64)
    }

    /// Share of the machine's CPU time the hypervisor withheld since the
    /// start — on a shared box, the noise no median can remove.
    pub fn steal_share(&self) -> Option<f64> {
        let stolen = steal_seconds()? - self.steal?;
        Some(stolen / (self.at.elapsed().as_secs_f64() * nproc() as f64).max(1e-9))
    }

    /// Commit, toolchain, core count, CPU model, and the load average at
    /// start and end.
    pub fn describe(&self) -> Value {
        let cpu = read("/proc/cpuinfo")
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let num = |x: Option<f64>| x.map_or(Value::Null, Value::Num);
        let line = |program, args: &[&str]| {
            Value::str(command_line(program, args).unwrap_or_else(|| "unknown".into()))
        };
        Value::obj([
            ("commit", line("git", &["rev-parse", "HEAD"])),
            ("rustc", line("rustc", &["-V"])),
            ("nproc", Value::Num(nproc() as f64)),
            ("cpu_model", Value::str(cpu)),
            ("load_avg_1m_start", num(self.load)),
            ("load_avg_1m_end", num(load_average())),
            ("cpu_steal_share", num(self.steal_share())),
            ("noisy", Value::Bool(self.noisy())),
        ])
    }
}

/// Where result files, traces and checkpoints go: `orchbench/` under
/// cargo's target directory, so everything the benchmark leaves behind is
/// already ignored by git and stays inside the checkout.
pub fn default_out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("orchbench")
}
