//! Fault-injection drills: every injected fault class — worker panic,
//! clean crash, stall, straggler — must end in either a typed error or a
//! policy-driven recovery, never a hang, and the benign classes must not
//! perturb the training trajectory by a single bit. Every fault fires at a
//! fixed (replica, epoch, step) coordinate, so which fault fires where is
//! reproducible. The wall clock still decides two things: a stall is
//! detected by the session's `stall_timeout` (300 ms in these sessions,
//! the 5 s default in the one-lane policy test), and one test waits on a
//! 60 s watchdog instead of hanging.
//!
//! This suite is the fault drill: CI runs it in release under a hard
//! timeout (`cargo test --release -p neutronorch --test fault_injection`).

use neutronorch::core::checkpoint;
use neutronorch::core::fault::{FailureAction, FailurePolicy, FaultPlan};
use neutronorch::core::session::{Session, SessionConfig, SessionError, SessionReport};
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutronorch::core::InlineRefresh;
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::LayerKind;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn trainer() -> ConvergenceTrainer {
    trainer_with(48, 0.25)
}

fn trainer_with(batch_size: usize, hot_ratio: f64) -> ConvergenceTrainer {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(
        LayerKind::Gcn,
        ReusePolicy::HotnessAware {
            hot_ratio,
            super_batch: 2,
        },
    );
    cfg.batch_size = batch_size;
    cfg.lr = 0.4;
    ConvergenceTrainer::new(ds, cfg)
}

/// A one-lane session under `Fail`. Fault coordinates name replica 0,
/// whose one fused worker stages every batch in order, so every fault
/// fires exactly where it is scheduled.
fn engine(faults: &str) -> Session {
    replicated(1, faults, FailurePolicy::Fail)
}

fn replicated(replicas: usize, faults: &str, policy: FailurePolicy) -> Session {
    Session::new(SessionConfig {
        replicas,
        fault_plan: plan(faults),
        stall_timeout: Duration::from_millis(300),
        on_replica_failure: policy,
        ..SessionConfig::default()
    })
}

/// Two replicas under `Restore`, checkpointing to `path` after every epoch.
fn restoring(faults: &str, path: &std::path::Path) -> Session {
    Session::new(SessionConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_path_buf()),
        ..replicated(2, faults, FailurePolicy::Restore)
            .config()
            .clone()
    })
}

fn plan(faults: &str) -> Option<Arc<FaultPlan>> {
    let plan = FaultPlan::parse(faults).expect("test fault spec");
    (!plan.is_empty()).then(|| Arc::new(plan))
}

fn losses(session: &SessionReport) -> Vec<u32> {
    session.series(|r| r.observation.train_loss.to_bits())
}

fn ck_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nock-fault-{}-{tag}.ck", std::process::id()))
}

// ---------------------------------------------------------------------------
// One lane: every failure under `Fail` is `ReplicaDied { replica: 0, .. }`,
// and every other policy replays or fails the same way.
// ---------------------------------------------------------------------------

/// An injected worker panic fails the session with a typed error naming
/// the lane and the awaited step and carrying the panic payload — the
/// hang-on-panic fix: the poisoned staging channel unblocks the train
/// stage, so this returns instead of deadlocking on `recv`.
#[test]
fn engine_worker_panic_is_a_typed_error_not_a_hang() {
    let mut t = trainer();
    let err = engine("panic@r0e1s2")
        .run_session_checked(&mut t, 0, 3)
        .expect_err("panic must fail the session");
    match err {
        SessionError::ReplicaDied {
            replica,
            epoch,
            step,
            detail,
        } => {
            assert_eq!((replica, epoch, step), (0, 1, 2));
            assert!(
                detail.contains("injected fault"),
                "payload should survive: {detail}"
            );
        }
        other => panic!("expected ReplicaDied, got {other:?}"),
    }
}

/// A stalled worker (alive but never producing) trips the stall timeout
/// with a typed error instead of blocking the train stage forever. The
/// train loop pulls `2n−1 = 3` batches ahead of the one it trains: the
/// stall is hit while it fills that window (steps 1, 3) or tops it up
/// (step 4), and the error always names the batch that never arrived.
#[test]
fn engine_stall_is_detected_within_the_timeout() {
    for step in [1, 3, 4] {
        let mut t = trainer();
        assert_eq!(t.lookahead(), 3);
        let err = engine(&format!("stall@r0e0s{step}"))
            .run_session_checked(&mut t, 0, 2)
            .expect_err("stall must fail the session");
        match err {
            SessionError::ReplicaDied {
                replica,
                epoch,
                step: awaited,
                detail,
            } => {
                assert_eq!((replica, epoch, awaited), (0, 0, step));
                assert!(detail.contains("stalled"), "detail: {detail}");
                assert!(detail.contains("300ms"), "names the timeout: {detail}");
            }
            other => panic!("expected ReplicaDied, got {other:?}"),
        }
    }
}

/// The only worker crashing (a clean exit, nobody left to stage) closes
/// its staging channel: the train loop runs out of input while filling its
/// lookahead window and the session ends with a typed error naming the
/// first batch that never arrived — never a hang.
#[test]
fn engine_crash_of_the_last_sampler_is_a_typed_error_not_a_hang() {
    let mut t = trainer();
    let err = engine("crash@r0e0s2")
        .run_session_checked(&mut t, 0, 2)
        .expect_err("nobody is left to sample");
    match err {
        SessionError::ReplicaDied {
            replica,
            epoch,
            step,
            detail,
        } => {
            assert_eq!((replica, epoch, step), (0, 0, 2));
            assert!(detail.contains("exited early"), "detail: {detail}");
        }
        other => panic!("expected ReplicaDied, got {other:?}"),
    }
}

/// A straggler (transient delay) recovers on its own: the session
/// completes bit-identically, with the slowdown visible only in the
/// failure timeline.
#[test]
fn engine_straggler_completes_bit_identically() {
    let mut clean = trainer();
    let reference = engine("").run_session(&mut clean, 0, 3);

    let mut t = trainer();
    let session = engine("straggler@r0e1s0")
        .run_session_checked(&mut t, 0, 3)
        .expect("straggler must complete");
    assert_eq!(losses(&session), losses(&reference));
    let events: Vec<_> = session
        .epochs
        .iter()
        .flat_map(|r| r.report.failures.iter())
        .collect();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].action, FailureAction::Observed);
    assert!(events[0].detail.contains("straggler"));
    // Reported in the epoch it names, though the lane may stage epoch 1's
    // first batch while epoch 0 is still training.
    assert_eq!(session.epochs[1].report.failures.len(), 1);
    assert_eq!(session.epochs[1].report.failures[0].epoch, 1);
}

/// Every policy is a replay, so one lane takes each of them: `Restore`
/// replays from its checkpoint on a fresh lane and ends where the
/// fault-free session does, and `DropReplica`, with no lane left to
/// replay on, fails like `Fail`.
#[test]
fn a_one_lane_session_takes_every_failure_policy() {
    let one_lane = |faults: &str, policy: FailurePolicy, path: Option<PathBuf>| {
        Session::new(SessionConfig {
            fault_plan: plan(faults),
            on_replica_failure: policy,
            checkpoint_every: 1,
            checkpoint_path: path,
            ..SessionConfig::default()
        })
        .run_session_checked(&mut trainer_with(48, 0.3), 0, 3)
    };

    let clean = one_lane("", FailurePolicy::Fail, None).expect("fault-free session");
    let path = ck_path("one-lane-restore");
    let restored = one_lane("panic@r0e1s1", FailurePolicy::Restore, Some(path.clone()));
    std::fs::remove_file(&path).ok();
    let restored = restored.expect("a one-lane Restore replays");
    assert_eq!(losses(&restored), losses(&clean));
    assert_eq!(
        restored.workers_spawned,
        2 * (1 + 1),
        "the replay's lane is fresh"
    );

    let err = one_lane("panic@r0e1s1", FailurePolicy::DropReplica, None)
        .expect_err("a one-lane DropReplica has nothing to replay on");
    assert!(
        matches!(
            err,
            SessionError::ReplicaDied {
                replica: 0,
                epoch: 1,
                ..
            }
        ),
        "expected ReplicaDied for lane 0, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Several lanes: supervisor + degradation policies.
// ---------------------------------------------------------------------------

/// Under the default `Fail` policy, a panicking replica worker surfaces as
/// a typed `ReplicaDied` error carrying the panic message — detection is
/// count-deterministic, so the reported replica is always the injected one.
#[test]
fn replicated_panic_under_fail_policy_is_a_typed_error() {
    let mut t = trainer();
    let err = replicated(2, "panic@r1e0s1", FailurePolicy::Fail)
        .run_session_checked(&mut t, 0, 2)
        .expect_err("panic must fail the session");
    match err {
        SessionError::ReplicaDied {
            replica,
            epoch,
            detail,
            ..
        } => {
            assert_eq!(replica, 1);
            assert_eq!(epoch, 0);
            assert!(detail.contains("injected fault"), "detail: {detail}");
        }
        other => panic!("expected ReplicaDied, got {other:?}"),
    }
}

/// A stalled replica is detected by the supervisor's channel timeout and,
/// under `Fail`, reported as a typed error naming the replica and the step
/// the supervisor was waiting for — also when that step is one the train
/// loop pulls ahead of the step it trains.
#[test]
fn replicated_stall_under_fail_policy_is_a_typed_error() {
    for (victim, awaited) in [(0, 0), (1, 1)] {
        let mut t = trainer();
        let err = replicated(
            2,
            &format!("stall@r{victim}e0s{awaited}"),
            FailurePolicy::Fail,
        )
        .run_session_checked(&mut t, 0, 2)
        .expect_err("stall must fail the session");
        match err {
            SessionError::ReplicaDied {
                replica,
                epoch,
                step,
                detail,
            } => {
                assert_eq!((replica, epoch, step), (victim, 0, awaited));
                assert!(detail.contains("stalled"), "detail: {detail}");
            }
            other => panic!("expected ReplicaDied, got {other:?}"),
        }
    }
}

/// Under `DropReplica`, a lost lane ends the attempt and the session
/// redoes the failed epoch with R−1 lanes, from the state that epoch
/// started from: every scheduled epoch completes, the drop is in the
/// failure timeline, and from the failed epoch on the trajectory is an
/// R = 1 session's, bit for bit — whether the death is found at an epoch's
/// first pull or while the train loop holds steps of the dead lane in its
/// lookahead window. Dying in epoch 0 leaves a fresh R = 1 session; dying
/// in epoch 1 leaves an R = 2 epoch 0 continued by R = 1 over epochs 1–2
/// on the same trainer.
#[test]
fn replicated_crash_with_drop_policy_degrades_and_completes() {
    for (faults, failed) in [("crash@r1e0s1", 0), ("crash@r1e1s0", 1)] {
        let mut t = trainer();
        let session = replicated(2, faults, FailurePolicy::DropReplica)
            .run_session_checked(&mut t, 0, 3)
            .expect("drop policy must complete");
        assert_eq!(session.epochs.len(), 3);
        let drops: Vec<_> = session
            .epochs
            .iter()
            .flat_map(|r| r.report.failures.iter())
            .filter(|e| e.action == FailureAction::DroppedReplica)
            .collect();
        assert_eq!(drops.len(), 1, "exactly one replica is dropped");
        assert_eq!((drops[0].replica, drops[0].epoch), (1, failed));
        assert_eq!(session.epochs[failed].per_replica[1].batches, 0);

        let mut reference = trainer();
        let mut expected =
            losses(&replicated(2, "", FailurePolicy::Fail).run_session(&mut reference, 0, failed));
        let rest =
            replicated(1, "", FailurePolicy::Fail).run_session(&mut reference, failed, 3 - failed);
        expected.extend(losses(&rest));
        assert_eq!(
            losses(&session),
            expected,
            "{faults}: the replay is R = 1 from epoch {failed}'s start state"
        );
    }
}

/// A fault-free `DropReplica` session is the `Fail` session: the
/// epoch-start capture it takes for a replay moves no number and no byte.
#[test]
fn a_fault_free_drop_session_equals_the_fail_session() {
    let run = |policy| {
        let session = replicated(2, "", policy).run_session(&mut trainer(), 0, 3);
        (losses(&session), session.series(|r| r.report.h2d_bytes))
    };
    assert_eq!(run(FailurePolicy::DropReplica), run(FailurePolicy::Fail));
}

/// Under `Restore`, a mid-epoch replica death ends the attempt; the
/// session reloads the last checkpoint and replays from it on fresh
/// workers. The fault is one-shot, so the re-run epoch is clean — and
/// because the checkpoint restore is bit-exact, the final losses equal the
/// fault-free run's.
///
/// The death is found after the epoch's first boundary handed a refresh to
/// the refresh worker, so this also pins that the replay starts with
/// nothing in flight: had that abandoned refresh survived into the replay,
/// the restored trainer's next collect would get it, and every later
/// boundary would publish the rows launched one boundary too early. Small
/// batches give each epoch enough boundaries (≈ 9 steps a lane) for that
/// shift to reach a read.
#[test]
fn replicated_panic_with_restore_policy_matches_the_fault_free_run() {
    let mut clean = trainer_with(16, 0.25);
    let reference = replicated(2, "", FailurePolicy::Fail).run_session(&mut clean, 0, 4);

    let path = ck_path("restore");
    let mut t = trainer_with(16, 0.25);
    let session = restoring("panic@r1e2s1", &path)
        .run_session_checked(&mut t, 0, 4)
        .expect("restore policy must recover");
    std::fs::remove_file(&path).ok();

    assert_eq!(session.epochs.len(), 4);
    assert_eq!(losses(&session), losses(&reference));
    let restores: Vec<_> = session
        .epochs
        .iter()
        .flat_map(|r| r.report.failures.iter())
        .filter(|e| e.action == FailureAction::RestoredCheckpoint)
        .collect();
    assert_eq!(restores.len(), 1, "exactly one rollback");
    assert_eq!(restores[0].epoch, 2);
}

/// Every failure event lands in the report of the epoch it names. Here the
/// restore resumes from a checkpoint older than the failed epoch (written
/// after epoch 1, the failure in epoch 3): the replayed epoch 2 reports
/// nothing, epoch 3 its fault and the rollback, and epoch 4 a straggler a
/// lane may meet while staging ahead of the train thread.
#[test]
fn failure_events_are_reported_in_the_epoch_they_name() {
    let path = ck_path("event-epochs");
    let mut t = trainer();
    let session = Session::new(SessionConfig {
        checkpoint_every: 2,
        ..restoring("panic@r1e3s1,straggler@r0e4s0", &path)
            .config()
            .clone()
    })
    .run_session_checked(&mut t, 0, 5)
    .expect("restore policy must recover");
    std::fs::remove_file(&path).ok();

    assert_eq!(session.epochs.len(), 5);
    for run in &session.epochs {
        for event in &run.report.failures {
            assert_eq!(event.epoch, run.epoch, "{event:?} in epoch {}", run.epoch);
        }
    }
    use FailureAction::{Observed, RestoredCheckpoint};
    let actions = session.series(|run| {
        let events = run.report.failures.iter();
        events.map(|event| event.action).collect::<Vec<_>>()
    });
    let want = [
        vec![],
        vec![],
        vec![],
        vec![Observed, RestoredCheckpoint],
        vec![Observed],
    ];
    assert_eq!(actions, want);
}

/// A session that keeps failing after every rollback gives up after four
/// restores and reports the lost lane that ended its last attempt — not a
/// made-up checkpoint error. Each replay of epoch 1 meets the next of five
/// one-shot panics, one more than the budget.
#[test]
fn an_exhausted_restore_budget_returns_the_last_replica_death() {
    let path = ck_path("budget");
    let faults = (1..=5)
        .map(|step| format!("panic@r0e1s{step}"))
        .collect::<Vec<_>>()
        .join(",");
    let mut t = trainer_with(16, 0.25);
    let err = restoring(&faults, &path)
        .run_session_checked(&mut t, 0, 3)
        .expect_err("five deaths outlast four restores");
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            err,
            SessionError::ReplicaDied {
                replica: 0,
                epoch: 1,
                step: 5,
                ..
            }
        ),
        "expected the fifth death, got {err:?}"
    );
}

/// `Restore` without a checkpoint of its own degrades to a typed
/// checkpoint error, not a hang, a panic or a silent resume: either nothing
/// is on disk (death before the first boundary), or the file at the path is
/// what a fault-free run over epochs 0..4 left there — it resumes at epoch
/// 4, past this session's end, so loading it would run no epoch and leave
/// the trainer in that other run's state.
#[test]
fn restore_policy_without_a_checkpoint_is_a_typed_error() {
    for foreign in [false, true] {
        let path = ck_path(&format!("no-checkpoint-{foreign}"));
        std::fs::remove_file(&path).ok();
        if foreign {
            restoring("", &path).run_session(&mut trainer(), 0, 4);
        }
        let mut t = trainer();
        let err = restoring("panic@r1e0s0", &path)
            .run_session_checked(&mut t, 0, 2)
            .expect_err("no checkpoint to restore from");
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, SessionError::Checkpoint(_)),
            "foreign={foreign}: expected Checkpoint error, got {err:?}"
        );
        if foreign {
            let message = err.to_string();
            assert!(
                message.contains("epoch 4"),
                "names the resume epoch: {message}"
            );
            assert!(
                message.contains("epoch 0 failed"),
                "names the failed one: {message}"
            );
        }
    }
}

/// A replicated straggler completes bit-identically to the fault-free run
/// (the supervisor just waits out the delay) and is visible in the
/// timeline.
#[test]
fn replicated_straggler_completes_bit_identically() {
    let mut clean = trainer();
    let reference = replicated(2, "", FailurePolicy::Fail).run_session(&mut clean, 0, 3);

    let mut t = trainer();
    let session = replicated(2, "straggler@r1e1s0", FailurePolicy::Fail)
        .run_session_checked(&mut t, 0, 3)
        .expect("straggler must complete");
    assert_eq!(losses(&session), losses(&reference));
    let events: Vec<_> = session
        .epochs
        .iter()
        .flat_map(|r| r.report.failures.iter())
        .collect();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].action, FailureAction::Observed);
}

/// Restored sessions keep working after the rollback: the post-restore
/// epochs continue writing checkpoints on schedule, so a later failure
/// could restore again. (Guards the replay: the new attempt's workers and
/// channels must leave the session fully functional.)
#[test]
fn session_remains_functional_after_a_restore() {
    let path = ck_path("post-restore");
    let mut t = trainer();
    let digest = checkpoint::config_digest(t.config(), 2);
    let session = restoring("panic@r0e1s0", &path)
        .run_session_checked(&mut t, 0, 3)
        .expect("restore policy must recover");
    assert_eq!(session.epochs.len(), 3);
    // More workers than the first attempt's were spawned: the replay's.
    assert!(session.workers_spawned > 2, "replacement worker spawned");
    // The final checkpoint on disk is the last epoch's boundary.
    let ck = checkpoint::load(&path, digest).expect("final checkpoint");
    assert_eq!(ck.next_epoch, 3);
    std::fs::remove_file(&path).ok();
}

/// A failed session still settles the refresh it left on its worker, so
/// the trainer outlives it. Without the settle the trainer keeps waiting
/// for a collect that no worker will ever answer. A later session on it
/// then blocks forever, and a checkpoint capture through the inline
/// backend hits its "never in flight" invariant. The death comes after
/// several super-batch boundaries of epoch 1, at one lane and at two.
/// The second session runs on a watchdog thread, so a regression fails
/// this test after 60 s instead of hanging the suite.
#[test]
fn a_failed_session_leaves_the_trainer_settled() {
    for replicas in [1, 2] {
        let failed = || {
            let mut t = trainer_with(16, 0.25);
            let err = replicated(replicas, "panic@r0e1s5", FailurePolicy::Fail)
                .run_session_checked(&mut t, 0, 3)
                .expect_err("panic must fail the session");
            assert!(
                matches!(
                    err,
                    SessionError::ReplicaDied {
                        replica: 0,
                        epoch: 1,
                        step: 5,
                        ..
                    }
                ),
                "R={replicas}: expected ReplicaDied at r0e1s5, got {err:?}"
            );
            t
        };

        let mut t = failed();
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let second = replicated(replicas, "", FailurePolicy::Fail)
                .run_session_checked(&mut t, 1, 1)
                .map(|s| s.epochs.len());
            let _ = done.send(second);
        });
        let second = outcome
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("R={replicas}: a second session on the trainer hung"));
        assert_eq!(second.expect("second session completes"), 1);

        let state = failed().capture_state(&mut InlineRefresh::default());
        assert!(
            state.pending.is_some(),
            "R={replicas}: the settled refresh is kept"
        );
    }
}
