//! Heap-allocation accounting for the metadata-overhead telemetry
//! (orchbench's per-stage `tensor.allocs_per_epoch.*` metrics, reported
//! by `orchbench trace`).
//!
//! The host-overhead literature (see PAPERS.md) shows that *metadata*
//! churn — batch index maps, dedup scratch, format conversion — can rival
//! feature-gather time in sampling pipelines. This module makes that
//! measurable: [`CountingAllocator`] wraps [`System`] and, while
//! [`set_enabled`] is on, attributes every allocation to the [`Stage`] the
//! allocating thread declared via [`set_stage`]. The counters mirror the
//! [`crate::timing`] design: relaxed atomics, zero cost when disabled, a
//! [`snapshot`]/[`reset`] read-out.
//!
//! Installation is the caller's choice — a `#[global_allocator]` is
//! program-global, so the library only installs one behind the
//! `count-allocs` cargo feature (used by the alloc-budget test);
//! orchbench's traced binary installs its own. Everything
//! else here (stage tags, snapshots) compiles and runs regardless: without
//! an installed [`CountingAllocator`] the counters simply never move, which
//! [`counting_installed`] probes for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The pipeline stages allocations are attributed to. `Other` is the
/// default for threads that never declared a stage (test harnesses, setup
/// code, evaluation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Unattributed / non-pipeline work (setup, eval, planning).
    Other,
    /// Sampler workers (block construction).
    Sample,
    /// Gather workers (cache probe + host feature gather).
    Gather,
    /// The transfer stage (byte accounting + simulated stall).
    Transfer,
    /// The train stage (forward/backward, optimizer).
    Train,
    /// The background hot-embedding refresh worker.
    Refresh,
}

/// All stages, in the order [`AllocSnapshot::iter`] reports them.
pub const STAGES: [Stage; 6] = [
    Stage::Other,
    Stage::Sample,
    Stage::Gather,
    Stage::Transfer,
    Stage::Train,
    Stage::Refresh,
];

impl Stage {
    /// Stable lowercase identifier used in tables and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Other => "other",
            Stage::Sample => "sample",
            Stage::Gather => "gather",
            Stage::Transfer => "transfer",
            Stage::Train => "train",
            Stage::Refresh => "refresh",
        }
    }
}

const N: usize = STAGES.len();

static ENABLED: AtomicBool = AtomicBool::new(false);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static ALLOCS: [AtomicU64; N] = [ZERO; N];
static BYTES: [AtomicU64; N] = [ZERO; N];

thread_local! {
    // Const-initialised and Drop-free on purpose: this cell is read inside
    // `GlobalAlloc::alloc`, where lazy TLS initialisation or destructor
    // registration would recurse into the allocator.
    static STAGE: Cell<usize> = const { Cell::new(0) };
}

/// Declares which [`Stage`] this thread's allocations belong to from now
/// on, returning the previous stage (for scoped restores). Cheap enough to
/// call per batch: one thread-local store.
pub fn set_stage(stage: Stage) -> Stage {
    STAGE.with(|s| {
        let prev = s.get();
        s.set(stage as usize);
        STAGES[prev]
    })
}

/// Turns counting on or off. Counters are *not* cleared; call [`reset`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation counting is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter (leaves the enabled flag alone).
pub fn reset() {
    for i in 0..N {
        ALLOCS[i].store(0, Ordering::Relaxed);
        BYTES[i].store(0, Ordering::Relaxed);
    }
}

/// Point-in-time totals for one stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageAlloc {
    /// Heap allocations attributed to the stage (alloc + realloc calls).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

/// Totals for every stage since the last [`reset`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Per-stage counters, indexed by [`Stage`] discriminant.
    pub stats: [StageAlloc; N],
}

impl AllocSnapshot {
    /// The counters of one stage.
    pub fn get(&self, stage: Stage) -> StageAlloc {
        self.stats[stage as usize]
    }

    /// Allocations summed over every stage.
    pub fn total_allocs(&self) -> u64 {
        self.stats.iter().map(|s| s.allocs).sum()
    }

    /// The delta since an `earlier` snapshot (saturating, so a counter
    /// [`reset`] between the two snapshots reads as zero, not garbage).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        let mut out = AllocSnapshot::default();
        for i in 0..N {
            out.stats[i] = StageAlloc {
                allocs: self.stats[i].allocs.saturating_sub(earlier.stats[i].allocs),
                bytes: self.stats[i].bytes.saturating_sub(earlier.stats[i].bytes),
            };
        }
        out
    }

    /// Allocations summed over the staging stages (sample + gather +
    /// transfer) — the pipeline's metadata hot path, which the pooled
    /// buffers are meant to drive to (near) zero. Excludes train/refresh
    /// (model compute) and other (setup/eval).
    pub fn staging_allocs(&self) -> u64 {
        self.get(Stage::Sample).allocs
            + self.get(Stage::Gather).allocs
            + self.get(Stage::Transfer).allocs
    }

    /// `(name, stat)` pairs in canonical stage order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, StageAlloc)> + '_ {
        STAGES.iter().map(move |&s| (s.name(), self.get(s)))
    }
}

/// Reads all counters.
pub fn snapshot() -> AllocSnapshot {
    let mut s = AllocSnapshot::default();
    for i in 0..N {
        s.stats[i] = StageAlloc {
            allocs: ALLOCS[i].load(Ordering::Relaxed),
            bytes: BYTES[i].load(Ordering::Relaxed),
        };
    }
    s
}

/// Whether a [`CountingAllocator`] is actually installed as the global
/// allocator: makes a probe allocation with counting forced on and checks
/// that a counter moved. Benches use this to label their numbers honestly
/// instead of reporting all-zero series as "allocation-free".
pub fn counting_installed() -> bool {
    let was = ENABLED.swap(true, Ordering::SeqCst);
    let before = snapshot().total_allocs();
    drop(std::hint::black_box(Box::new(0xa110u32)));
    let moved = snapshot().total_allocs() > before;
    ENABLED.store(was, Ordering::SeqCst);
    moved
}

/// A [`System`]-delegating global allocator that attributes allocation
/// counts and bytes to the calling thread's declared [`Stage`] while
/// counting is [`enabled`]. Install it with `#[global_allocator]`; see the
/// module docs for who does.
pub struct CountingAllocator;

#[inline]
fn count(bytes: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with` + const init: never allocates, never panics, even during
    // thread teardown — a failure just falls back to `Other`.
    let stage = STAGE.try_with(Cell::get).unwrap_or(0);
    ALLOCS[stage].fetch_add(1, Ordering::Relaxed);
    BYTES[stage].fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is the reallocation the pooled buffers exist to avoid, so
        // it counts like a fresh allocation of the new size.
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// The feature-gated installation used by the alloc-budget integration
/// test (`--features count-allocs`). Exactly one
/// crate in a build graph may install a global allocator; binaries that
/// want one unconditionally (orchbench's traced binary) declare their own
/// instead of enabling this feature.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static GLOBAL_COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;

#[cfg(test)]
mod tests {
    use super::*;

    // One test fn only: the counters are process-global, and the test
    // harness runs test fns concurrently.
    #[test]
    fn stage_attribution_and_snapshots_work_without_an_installed_allocator() {
        // Counter plumbing is testable without the global allocator: drive
        // `count` through the same path the allocator uses.
        reset();
        set_enabled(false);
        count(64);
        assert_eq!(snapshot().total_allocs(), 0, "disabled counting counted");

        set_enabled(true);
        let prev = set_stage(Stage::Gather);
        assert_eq!(prev, Stage::Other);
        count(128);
        count(32);
        let restored = set_stage(prev);
        assert_eq!(restored, Stage::Gather);
        count(8); // attributed to Other again
        let snap = snapshot();
        assert_eq!(
            snap.get(Stage::Gather),
            StageAlloc {
                allocs: 2,
                bytes: 160
            }
        );
        assert_eq!(
            snap.get(Stage::Other),
            StageAlloc {
                allocs: 1,
                bytes: 8
            }
        );
        assert_eq!(snap.staging_allocs(), 2);
        assert_eq!(snap.total_allocs(), 3);

        let later_extra = {
            set_stage(Stage::Sample);
            count(1);
            set_stage(Stage::Other);
            snapshot().since(&snap)
        };
        assert_eq!(later_extra.get(Stage::Sample).allocs, 1);
        assert_eq!(later_extra.get(Stage::Gather).allocs, 0);
        assert_eq!(
            later_extra.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            ["other", "sample", "gather", "transfer", "train", "refresh"]
        );

        set_enabled(false);
        reset();
        assert_eq!(snapshot().total_allocs(), 0);
        // In the plain test build no CountingAllocator is installed, and
        // the probe must say so (the count-allocs test build flips this).
        if cfg!(feature = "count-allocs") {
            assert!(counting_installed());
        } else {
            assert!(!counting_installed());
        }
        assert_eq!(snapshot().total_allocs(), 0, "probe must restore state");
    }
}
