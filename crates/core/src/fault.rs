//! Deterministic fault injection for session robustness tests.
//!
//! A [`FaultPlan`] is a fixed list of faults, each pinned to an exact
//! `(replica, epoch, step)` coordinate in the session's deterministic
//! schedule — nothing here depends on wall-clock time, so a plan fires the
//! same way on every run at every thread count. A lane consults the plan
//! before it stages each batch; each fault fires **once**
//! (atomic one-shot arming). Both recoveries replay: `Restore` from its
//! checkpoint's epoch, `DropReplica` the failed epoch without the lost
//! lane — and one-shot arming keeps a fault already delivered (the lost
//! lane's own, or a straggler a remaining lane met earlier in the failed
//! epoch) from firing again on the replay.
//!
//! The four fault classes and what they model:
//!
//! * [`FaultKind::Crash`] — a clean worker death *before* staging a batch
//!   (process OOM-killed between batches). The worker exits its loop;
//!   channel liveness teardown runs normally.
//! * [`FaultKind::Panic`] — a worker panicking *mid-batch* (assertion
//!   failure, poisoned arithmetic). The batch is lost; the session must
//!   surface the payload, not hang.
//! * [`FaultKind::Stall`] — a worker that stops making progress but never
//!   exits (deadlocked peer, stuck I/O). Only detectable by timeout.
//! * [`FaultKind::Straggler`] — a transient slowdown (thermal throttle,
//!   noisy neighbor). The worker recovers; the session must complete with
//!   bit-identical results and record the event, not kill the replica.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// What the injected fault does to the afflicted worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Clean worker exit before staging the step's batch.
    Crash,
    /// Panic while staging the step's batch.
    Panic,
    /// Stop forever without exiting (detected by stall timeout).
    Stall,
    /// Delay briefly, then continue normally.
    Straggler,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
            FaultKind::Straggler => "straggler",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled fault: `kind` fires when lane `replica`'s worker reaches
/// `step` of `epoch` — the index of the batch it stages next. Each lane
/// stages its own batches in order, so a coordinate names exactly one
/// moment of the session (at R = 1 the only lane is `r0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Replica (or worker) index the fault targets.
    pub replica: usize,
    /// Epoch at which the fault fires.
    pub epoch: usize,
    /// Step (batch index within the epoch) at which the fault fires.
    pub step: usize,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@r{}e{}s{}",
            self.kind, self.replica, self.epoch, self.step
        )
    }
}

#[derive(Debug)]
struct Armed {
    spec: FaultSpec,
    armed: AtomicBool,
}

/// A deterministic, seedless fault schedule shared by every worker in a
/// session. Cheap to consult on the hot path: a short linear scan over
/// immutable specs with one relaxed atomic swap on the (rare) hit.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Armed>,
}

impl FaultPlan {
    /// A plan from specs at distinct coordinates ([`Self::parse`] checks).
    fn new(specs: impl IntoIterator<Item = FaultSpec>) -> Self {
        Self {
            faults: specs
                .into_iter()
                .map(|spec| Armed {
                    spec,
                    armed: AtomicBool::new(true),
                })
                .collect(),
        }
    }

    /// Parses a comma-separated spec list, e.g.
    /// `"crash@r1e2s3,stall@r0e1s0"`. Grammar per item:
    /// `<crash|panic|stall|straggler>@r<replica>e<epoch>s<step>`. A
    /// coordinate takes at most one fault, whatever the kinds: a second
    /// one would stay armed after the first fired and re-fire when a
    /// restored session replays the epoch.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut specs = Vec::new();
        for item in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, coord) = item
                .split_once('@')
                .ok_or_else(|| format!("fault `{item}`: expected `<kind>@r<R>e<E>s<S>`"))?;
            let kind = match kind {
                "crash" => FaultKind::Crash,
                "panic" => FaultKind::Panic,
                "stall" => FaultKind::Stall,
                "straggler" => FaultKind::Straggler,
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            let rest = coord
                .strip_prefix('r')
                .ok_or_else(|| format!("fault `{item}`: coordinate must start with `r`"))?;
            let (replica, rest) = rest
                .split_once('e')
                .ok_or_else(|| format!("fault `{item}`: missing `e<epoch>`"))?;
            let (epoch, step) = rest
                .split_once('s')
                .ok_or_else(|| format!("fault `{item}`: missing `s<step>`"))?;
            let parse = |label: &str, s: &str| -> Result<usize, String> {
                s.parse()
                    .map_err(|_| format!("fault `{item}`: bad {label} `{s}`"))
            };
            let spec = FaultSpec {
                replica: parse("replica", replica)?,
                epoch: parse("epoch", epoch)?,
                step: parse("step", step)?,
                kind,
            };
            let at = |s: &FaultSpec| (s.replica, s.epoch, s.step);
            if let Some(taken) = specs.iter().find(|s| at(s) == at(&spec)) {
                return Err(format!(
                    "fault `{item}`: its coordinate already holds `{taken}`"
                ));
            }
            specs.push(spec);
        }
        Ok(Self::new(specs))
    }

    /// True when the plan holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled specs (armed or already fired), for reporting.
    pub fn specs(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.faults.iter().map(|a| a.spec)
    }

    /// Consumes and returns the fault scheduled at exactly
    /// `(replica, epoch, step)` if one is still armed. One-shot: a second
    /// call for the same coordinate returns `None`, so replayed epochs do
    /// not re-fire already-delivered faults. A lane stages its
    /// batches in order and asks before each, so every fault is delivered
    /// at exactly its step.
    pub fn take(&self, replica: usize, epoch: usize, step: usize) -> Option<FaultKind> {
        for armed in &self.faults {
            let s = &armed.spec;
            if s.replica == replica
                && s.epoch == epoch
                && s.step == step
                && armed.armed.swap(false, Ordering::Relaxed)
            {
                return Some(s.kind);
            }
        }
        None
    }
}

/// What the supervisor did about a detected failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureAction {
    /// The replica was dropped: the failed epoch was replayed from its
    /// start state on the remaining lanes.
    DroppedReplica,
    /// The session rolled back to the last checkpoint.
    RestoredCheckpoint,
    /// Transient event (straggler) — recorded, no intervention needed.
    Observed,
}

impl fmt::Display for FailureAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureAction::DroppedReplica => "dropped-replica",
            FailureAction::RestoredCheckpoint => "restored-checkpoint",
            FailureAction::Observed => "observed",
        })
    }
}

/// One entry in a session's failure/recovery timeline, surfaced through
/// [`crate::pipeline::PipelineReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureEvent {
    /// Epoch in which the failure was detected.
    pub epoch: usize,
    /// Step (batch index) at which detection happened.
    pub step: usize,
    /// The replica (or worker index) that failed.
    pub replica: usize,
    /// Human-readable description of what was detected.
    pub detail: String,
    /// The supervisor's response.
    pub action: FailureAction,
}

impl fmt::Display for FailureEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {} step {} replica {}: {} -> {}",
            self.epoch, self.step, self.replica, self.detail, self.action
        )
    }
}

/// What a session does when a lane dies or stalls: every policy but
/// `Fail` replays on a fresh set of workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Fail the session with a typed error (default — surprises surface).
    #[default]
    Fail,
    /// Replay the failed epoch from the state it started from, without the
    /// lost lane: its train vertices are dealt round-robin over the rest.
    /// Fails like `Fail` once no lane is left (at R = 1, at once).
    DropReplica,
    /// Reload the most recent checkpoint and replay from it on a fresh
    /// set of workers.
    Restore,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use FaultKind::{Crash, Panic, Stall, Straggler};

    const KINDS: [FaultKind; 4] = [Crash, Panic, Stall, Straggler];
    /// Every byte of the spec grammar's alphabet.
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789@, ";

    fn joined(specs: &[FaultSpec]) -> String {
        specs
            .iter()
            .map(FaultSpec::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn parse_roundtrips_the_display_form() {
        let plan = FaultPlan::parse("crash@r1e2s3, stall@r0e1s0,straggler@r2e0s5").unwrap();
        let specs: Vec<_> = plan.specs().collect();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].to_string(), "crash@r1e2s3");
        assert_eq!(specs[1].kind, FaultKind::Stall);
        assert_eq!(
            specs[2],
            FaultSpec {
                replica: 2,
                epoch: 0,
                step: 5,
                kind: FaultKind::Straggler
            }
        );
        let reparsed = FaultPlan::parse(&joined(&specs)).unwrap();
        assert_eq!(reparsed.specs().collect::<Vec<_>>(), specs);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "boom@r0e0s0",
            "crash@e0s0",
            "crash@r0e0",
            "crash-r0e0s0",
            "crash@rXe0s0",
            "panic@r0e1s1,panic@r0e1s1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn take_is_one_shot_and_coordinate_exact() {
        for kind in [Panic, Crash] {
            let plan = FaultPlan::parse(&format!("{kind}@r1e2s3")).unwrap();
            assert_eq!(plan.take(1, 2, 2), None);
            assert_eq!(plan.take(0, 2, 3), None);
            assert_eq!(
                plan.take(1, 2, 4),
                None,
                "a later step is another coordinate"
            );
            assert_eq!(plan.take(1, 2, 3), Some(kind));
            assert_eq!(plan.take(1, 2, 3), None, "a fault fires exactly once");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Specs at distinct coordinates survive `Display` → `parse`, and one
        /// more spec at an already-used coordinate is refused.
        #[test]
        fn distinct_coordinates_round_trip_through_display(
            raw in proptest::collection::vec((0usize..3, 0usize..3, 0usize..4, 0usize..4), 0..10),
            again in (any::<usize>(), 0usize..4),
        ) {
            let mut specs: Vec<FaultSpec> = Vec::new();
            for (replica, epoch, step, kind) in raw {
                if !specs.iter().any(|s| (s.replica, s.epoch, s.step) == (replica, epoch, step)) {
                    specs.push(FaultSpec { replica, epoch, step, kind: KINDS[kind] });
                }
            }
            let plan = FaultPlan::parse(&joined(&specs)).unwrap();
            prop_assert_eq!(plan.specs().collect::<Vec<_>>(), specs.clone());
            if !specs.is_empty() {
                let (pick, kind) = again;
                let twin = FaultSpec { kind: KINDS[kind], ..specs[pick % specs.len()] };
                specs.push(twin);
                prop_assert!(FaultPlan::parse(&joined(&specs)).is_err());
            }
        }

        /// Any short string over the grammar's alphabet parses or is refused;
        /// it never panics.
        #[test]
        fn arbitrary_text_never_panics(
            bytes in proptest::collection::vec(0usize..ALPHABET.len(), 0..24),
        ) {
            let text: String = bytes.iter().map(|&i| ALPHABET[i] as char).collect();
            let _ = FaultPlan::parse(&text);
        }
    }
}
