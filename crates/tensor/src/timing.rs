//! Lightweight per-kernel wall-time accounting, reported as orchbench's
//! `tensor.<kernel>_s` metrics by `orchbench trace`.
//!
//! Disabled by default: each instrumented op does one relaxed atomic load
//! and skips the clock entirely, so the hooks cost nothing in normal runs
//! (orchbench's untraced runs keep them off). When
//! enabled, each top-level kernel call adds its elapsed nanoseconds and a
//! call count to a global table that [`snapshot`] reads out.
//!
//! Hooks sit at the *public op* level (`ops::matmul`, `Matrix::gather_rows`,
//! aggregation entry points in `neutron-nn`), never inside the slice
//! kernels they call, so nested calls cannot count one wall interval twice.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The instrumented kernel families, in display order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// `ops::matmul` (`A·B`) — forward projections.
    Matmul,
    /// `ops::matmul_at_b` (`Aᵀ·B`) — weight gradients.
    MatmulAtB,
    /// `ops::matmul_a_bt` (`A·Bᵀ`) — input gradients.
    MatmulABt,
    /// `Matrix::gather_rows` + `FeatureCache` row copies.
    Gather,
    /// `Matrix::scatter_add_rows` — backward aggregation.
    ScatterAdd,
    /// GNN neighbor aggregation (GCN/SAGE mean-combine loops).
    Aggregate,
}

/// All kernels, in the order [`snapshot`] reports them.
pub const KERNELS: [Kernel; 6] = [
    Kernel::Matmul,
    Kernel::MatmulAtB,
    Kernel::MatmulABt,
    Kernel::Gather,
    Kernel::ScatterAdd,
    Kernel::Aggregate,
];

impl Kernel {
    /// Stable lowercase identifier used in timing tables and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::MatmulAtB => "matmul_at_b",
            Kernel::MatmulABt => "matmul_a_bt",
            Kernel::Gather => "gather",
            Kernel::ScatterAdd => "scatter_add",
            Kernel::Aggregate => "aggregate",
        }
    }
}

const N: usize = KERNELS.len();

static ENABLED: AtomicBool = AtomicBool::new(false);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static NANOS: [AtomicU64; N] = [ZERO; N];
static CALLS: [AtomicU64; N] = [ZERO; N];

/// Turns the hooks on or off. Counters are *not* cleared; call [`reset`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether timing collection is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter (leaves the enabled flag alone).
pub fn reset() {
    for i in 0..N {
        NANOS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
}

/// Starts a timed region: returns a clock only when hooks are enabled, so
/// the disabled path never touches `Instant`.
#[inline]
pub fn start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Closes a region opened by [`start`], attributing it to `kernel`.
#[inline]
pub fn stop(kernel: Kernel, started: Option<Instant>) {
    if let Some(t0) = started {
        record(kernel, t0.elapsed().as_nanos() as u64);
    }
}

/// Adds raw nanoseconds + one call to a kernel's counters.
#[inline]
pub fn record(kernel: Kernel, nanos: u64) {
    let i = kernel as usize;
    NANOS[i].fetch_add(nanos, Ordering::Relaxed);
    CALLS[i].fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time totals for one kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStat {
    pub nanos: u64,
    pub calls: u64,
}

impl KernelStat {
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// Totals for every kernel since the last [`reset`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    pub stats: [KernelStat; N],
}

impl Snapshot {
    pub fn get(&self, kernel: Kernel) -> KernelStat {
        self.stats[kernel as usize]
    }

    /// Sum of all attributed kernel seconds. Kernels can run concurrently
    /// on different threads, so this may legitimately exceed wall-clock in
    /// pipelined runs; in a sequential run it is a lower bound on it.
    pub fn total_seconds(&self) -> f64 {
        self.stats.iter().map(KernelStat::seconds).sum()
    }

    /// `(name, stat)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, KernelStat)> + '_ {
        KERNELS.iter().map(move |&k| (k.name(), self.get(k)))
    }
}

/// Reads all counters.
pub fn snapshot() -> Snapshot {
    let mut s = Snapshot::default();
    for i in 0..N {
        s.stats[i] = KernelStat {
            nanos: NANOS[i].load(Ordering::Relaxed),
            calls: CALLS[i].load(Ordering::Relaxed),
        };
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test fn only: the counters are process-global, and the test
    // harness runs test fns concurrently.
    #[test]
    fn hooks_accumulate_only_when_enabled() {
        reset();
        set_enabled(false);
        let t = start();
        assert!(t.is_none());
        stop(Kernel::Matmul, t);
        assert_eq!(snapshot().get(Kernel::Matmul).calls, 0);

        set_enabled(true);
        let t = start();
        assert!(t.is_some());
        stop(Kernel::Matmul, t);
        record(Kernel::Gather, 1_500_000_000);
        let s = snapshot();
        assert_eq!(s.get(Kernel::Matmul).calls, 1);
        assert_eq!(s.get(Kernel::Gather).calls, 1);
        assert!((s.get(Kernel::Gather).seconds() - 1.5).abs() < 1e-9);
        assert!(s.total_seconds() >= 1.5);
        assert_eq!(
            s.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            [
                "matmul",
                "matmul_at_b",
                "matmul_a_bt",
                "gather",
                "scatter_add",
                "aggregate"
            ]
        );

        set_enabled(false);
        reset();
        assert_eq!(snapshot().total_seconds(), 0.0);
    }
}
