//! Checkpoint/restore correctness: codec round-trips are bit-exact for
//! every checkpointed component (arbitrary IEEE bit patterns included),
//! damaged files are rejected with typed errors — never a panic or a
//! silently-wrong resume — and a session killed at any epoch boundary and
//! restored from its checkpoint is bit-identical to the uninterrupted run
//! for both the single-replica engine and the replicated engine at any R.

use neutronorch::cache::{EmbeddingRows, StoreSnapshot};
use neutronorch::core::checkpoint::{
    self, checkpoint_from_bytes, checkpoint_to_bytes, decode_params, decode_rows, decode_store,
    encode_params, encode_rows, encode_store, Checkpoint, CheckpointError, Reader, Writer,
    FORMAT_VERSION,
};
use neutronorch::core::pipeline::PipelineConfig;
use neutronorch::core::session::{Session, SessionConfig, SessionReport};
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig, TrainerState};
use neutronorch::core::{InlineRefresh, RefreshOutput};
use neutronorch::graph::{DatasetSpec, VertexId};
use neutronorch::nn::LayerKind;
use neutronorch::tensor::Matrix;
use proptest::prelude::*;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

fn trainer() -> ConvergenceTrainer {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(
        LayerKind::Gcn,
        ReusePolicy::HotnessAware {
            hot_ratio: 0.25,
            super_batch: 2,
        },
    );
    cfg.batch_size = 48;
    cfg.lr = 0.4;
    ConvergenceTrainer::new(ds, cfg)
}

/// A session of `replicas` lanes (`sampler_threads` is inert: one fused
/// worker per lane), checkpointing to `(path, every)`.
fn session(replicas: usize, sampler_threads: usize, ck: Option<(&PathBuf, usize)>) -> Session {
    Session::new(SessionConfig {
        pipeline: PipelineConfig {
            sampler_threads,
            gather_threads: 1,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        replicas,
        checkpoint_every: ck.map(|(_, every)| every).unwrap_or(0),
        checkpoint_path: ck.map(|(path, _)| path.clone()),
        ..SessionConfig::default()
    })
}

fn ck_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nock-test-{}-{tag}.ck", std::process::id()))
}

/// Canonical byte image of a trainer's full mutable state — the equality
/// oracle for "bit-identical" (TrainerState holds f32s whose NaN payloads
/// `PartialEq` would mishandle; the codec preserves raw bits).
fn state_bytes(t: &mut ConvergenceTrainer, replicas: usize) -> Vec<u8> {
    let digest = checkpoint::config_digest(t.config(), replicas);
    let state = t.capture_state(&mut InlineRefresh::default());
    checkpoint_to_bytes(
        digest,
        &Checkpoint {
            next_epoch: 0,
            state,
        },
    )
}

/// Mid-epoch boundaries refresh only what the next super-batch reads, but
/// the refresh a checkpoint captures was launched at an epoch's last
/// boundary, where no next super-batch is in sight: it covers the whole
/// hot set, so a restored session can read any hot row in its first
/// super-batch.
fn assert_whole_hot_set_pending(ck: &Checkpoint, t: &ConvergenceTrainer) {
    let pending = ck.state.pending.as_ref().expect("a refresh is pending");
    assert_eq!(pending.rows.vertices(), t.hot_set().unwrap().vertices());
}

// ---------------------------------------------------------------------------
// Proptest strategies: arbitrary IEEE bit patterns, not just "nice" floats.
// ---------------------------------------------------------------------------

fn any_f32_bits() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

/// `n` values of `inner` (the vendored strategies only take ranges).
fn exactly<S: Strategy>(inner: S, n: usize) -> impl Strategy<Value = Vec<S::Value>> {
    proptest::collection::vec(inner, n..n + 1)
}

fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        exactly(any_f32_bits(), r * c).prop_map(move |cells| Matrix::from_vec(r, c, cells))
    })
}

fn params() -> impl Strategy<Value = Vec<Matrix>> {
    proptest::collection::vec(matrix(4), 0..4)
}

/// `dim`-wide rows of `pairs`, in order.
fn rows_of(dim: usize, pairs: Vec<(VertexId, Vec<f32>)>) -> EmbeddingRows {
    let (n, vertices) = (pairs.len(), pairs.iter().map(|p| p.0).collect());
    let data = pairs.into_iter().flat_map(|p| p.1).collect();
    EmbeddingRows::new(vertices, Matrix::from_vec(n, dim, data))
}

/// `(vertex, row)` pairs of `rows`, with the rows' raw bits.
fn row_bits(rows: &EmbeddingRows) -> Vec<(VertexId, Vec<u32>)> {
    rows.iter()
        .map(|(v, row)| (v, row.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

fn refresh_rows(dim: usize) -> impl Strategy<Value = EmbeddingRows> {
    proptest::collection::vec((any::<u32>(), exactly(any_f32_bits(), dim)), 0..5)
        .prop_map(move |pairs| rows_of(dim, pairs))
}

fn store_snapshot() -> impl Strategy<Value = StoreSnapshot> {
    (1usize..5).prop_flat_map(|dim| {
        (
            proptest::option::of(any::<u64>()),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((exactly(any_f32_bits(), dim), any::<u64>()), 0..6),
        )
            .prop_map(move |(bound, max_observed_gap, reads, raw)| {
                let versions = raw.iter().map(|r| r.1).collect();
                // Ascending distinct vertex ids, as the store emits them.
                let pairs = raw.into_iter().enumerate();
                let pairs = pairs
                    .map(|(i, (row, _))| (3 * i as VertexId, row))
                    .collect();
                StoreSnapshot {
                    dim,
                    bound,
                    rows: rows_of(dim, pairs),
                    versions,
                    max_observed_gap,
                    reads,
                }
            })
    })
}

fn trainer_state() -> impl Strategy<Value = TrainerState> {
    (
        params(),
        any::<u64>(),
        proptest::option::of(store_snapshot()),
        proptest::option::of((any::<u64>(), refresh_rows(3))),
    )
        .prop_map(|(params, version, store, pending)| TrainerState {
            params,
            version,
            store,
            pending: pending.map(|(version, rows)| RefreshOutput { version, rows }),
        })
}

fn bits_of(params: &[Matrix]) -> Vec<Vec<u32>> {
    params
        .iter()
        .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Component codec round-trips.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `decode(encode(params))` preserves shapes and raw IEEE bits —
    /// including NaN payloads, infinities and negative zero.
    #[test]
    fn params_round_trip_bit_exactly(ps in params()) {
        let mut w = Writer::new();
        encode_params(&mut w, &ps);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_params(&mut r).expect("decode");
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(
            back.iter().map(Matrix::shape).collect::<Vec<_>>(),
            ps.iter().map(Matrix::shape).collect::<Vec<_>>()
        );
        prop_assert_eq!(bits_of(&back), bits_of(&ps));
    }

    /// Refresh rows (vertex id + embedding row) round-trip bit-exactly.
    #[test]
    fn refresh_rows_round_trip_bit_exactly(rows in refresh_rows(3)) {
        let mut w = Writer::new();
        encode_rows(&mut w, &rows);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_rows(&mut r).expect("decode");
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(row_bits(&back), row_bits(&rows));
    }

    /// The embedding-store snapshot — rows, versions, staleness counters —
    /// round-trips bit-exactly.
    #[test]
    fn store_snapshot_round_trips_bit_exactly(snap in store_snapshot()) {
        let mut w = Writer::new();
        encode_store(&mut w, &snap);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_store(&mut r).expect("decode");
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(back.dim, snap.dim);
        prop_assert_eq!(back.bound, snap.bound);
        prop_assert_eq!(back.max_observed_gap, snap.max_observed_gap);
        prop_assert_eq!(back.reads, snap.reads);
        prop_assert_eq!(row_bits(&back.rows), row_bits(&snap.rows));
        prop_assert_eq!(back.versions, snap.versions);
    }

    /// A whole checkpoint survives the on-disk image: header, payload and
    /// checksum agree, and every field — the resume epoch, full trainer
    /// state — comes back bit-identical (compared via re-serialization,
    /// which preserves raw float bits).
    #[test]
    fn whole_checkpoint_round_trips_bit_exactly(
        next_epoch in any::<u64>(),
        state in trainer_state(),
        digest in any::<u64>(),
    ) {
        let ck = Checkpoint { next_epoch, state };
        let bytes = checkpoint_to_bytes(digest, &ck);
        let back = checkpoint_from_bytes(&bytes, digest).expect("parse");
        prop_assert_eq!(back.next_epoch, ck.next_epoch);
        prop_assert_eq!(checkpoint_to_bytes(digest, &back), bytes);
    }

    /// Every single-byte corruption of a checkpoint image is rejected with
    /// a typed error — the checksum (or a header check) catches it; no
    /// corrupted file ever parses.
    #[test]
    fn any_single_byte_flip_is_rejected(
        state in trainer_state(),
        flip_bit in 0u8..8,
        pos_seed in any::<u64>(),
    ) {
        let ck = Checkpoint { next_epoch: 2, state };
        let digest = 0xfeed_face_u64;
        let mut bytes = checkpoint_to_bytes(digest, &ck);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << flip_bit;
        prop_assert!(
            checkpoint_from_bytes(&bytes, digest).is_err(),
            "flip at byte {} must not parse", pos
        );
    }
}

// ---------------------------------------------------------------------------
// Damaged / mismatched files: typed rejection, never a panic.
// ---------------------------------------------------------------------------

/// Every strict prefix of a checkpoint image fails with a typed error
/// (`Truncated` or `Corrupt`), and a file truncated on disk is equally
/// rejected by `load`.
#[test]
fn every_truncation_is_rejected_with_a_typed_error() {
    let ck = Checkpoint {
        next_epoch: 1,
        state: TrainerState {
            params: vec![Matrix::from_vec(2, 2, vec![1.0, -0.0, f32::NAN, 3.5])],
            version: 9,
            store: None,
            pending: None,
        },
    };
    let digest = 42;
    let bytes = checkpoint_to_bytes(digest, &ck);
    for cut in 0..bytes.len() {
        match checkpoint_from_bytes(&bytes[..cut], digest) {
            Err(CheckpointError::Truncated) | Err(CheckpointError::Corrupt(_)) => {}
            Err(CheckpointError::BadMagic) if cut < 4 => {}
            other => panic!("prefix of {cut} bytes: expected typed rejection, got {other:?}"),
        }
    }

    let path = ck_path("truncated");
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    assert!(matches!(
        checkpoint::load(&path, digest),
        Err(CheckpointError::Truncated) | Err(CheckpointError::Corrupt(_))
    ));
    std::fs::remove_file(&path).ok();
}

/// A vertex id is a `u64` on disk: an id past `VertexId::MAX` in a refresh
/// row or a store row is corruption, not an id to truncate. So is a list of
/// refresh rows of differing widths.
#[test]
fn a_vertex_id_past_the_id_type_is_corrupt() {
    let too_big = u64::from(VertexId::MAX) + 1;
    // Refresh rows as `(vertex, width)`: an id past the type, then rows of
    // two widths, which no one matrix holds.
    for rows in [vec![(too_big, 1)], vec![(1, 1), (2, 2)]] {
        let mut w = Writer::new();
        w.put_u64(rows.len() as u64);
        for (v, width) in rows {
            w.put_u64(v);
            w.put_u64(width);
            (0..width).for_each(|_| w.put_f32(0.5));
        }
        let bytes = w.into_bytes();
        let rows = decode_rows(&mut Reader::new(&bytes));
        assert!(matches!(rows, Err(CheckpointError::Corrupt(_))), "{rows:?}");
    }

    let mut w = Writer::new();
    w.put_u64(1); // dim
    w.put_u8(0); // no bound
    w.put_u64(0); // max observed gap
    w.put_u64(0); // reads
    w.put_u64(1); // one stored row
    w.put_u64(too_big);
    w.put_u64(3); // version
    w.put_u64(1); // of one value
    w.put_f32(0.5);
    let bytes = w.into_bytes();
    let store = decode_store(&mut Reader::new(&bytes));
    assert!(
        matches!(store, Err(CheckpointError::Corrupt(_))),
        "{store:?}"
    );
}

/// A trainer state whose store or pending refresh names a cold vertex, or
/// one vertex twice, is refused by `restore_state`; the refused trainer is
/// left as it was and trains on bit-identically to one never offered it.
#[test]
fn restore_refuses_rows_of_cold_or_repeated_vertices() {
    let mut t = trainer();
    let mut twin = trainer();
    t.train_epoch(0);
    twin.train_epoch(0);
    let good = t.capture_state(&mut InlineRefresh::default());
    let hot = t.hot_set().unwrap();
    let cold = (0..).find(|&v| !hot.contains(v)).unwrap();
    let pairs = |rows: &EmbeddingRows| -> Vec<(VertexId, Vec<f32>)> {
        rows.iter().map(|(v, row)| (v, row.to_vec())).collect()
    };
    let snap = good.store.as_ref().unwrap();
    let (stored, versions) = (pairs(&snap.rows), &snap.versions);
    let pending = pairs(&good.pending.as_ref().unwrap().rows);
    let width = stored[0].1.len();
    // `good` with a row inserted at `at` of the store, stamped `version`.
    let storing = |at: usize, row: (VertexId, Vec<f32>), version: u64| {
        let mut state = good.clone();
        let snap = state.store.as_mut().unwrap();
        let mut rows = stored.clone();
        rows.insert(at, row);
        snap.rows = rows_of(width, rows);
        snap.versions.insert(at, version);
        state
    };
    // `good` with a row pushed onto the pending refresh.
    let pending_with = |row: (VertexId, Vec<f32>)| {
        let mut state = good.clone();
        let mut rows = pending.clone();
        rows.push(row);
        state.pending.as_mut().unwrap().rows = rows_of(width, rows);
        state
    };
    let cold_at = stored.partition_point(|r| r.0 < cold);
    let bad = [
        (
            "a stored cold vertex",
            storing(cold_at, (cold, vec![0.0; width]), 0),
        ),
        (
            "a vertex stored twice",
            storing(1, stored[0].clone(), versions[0]),
        ),
        (
            "a pending cold vertex",
            pending_with((cold, vec![0.0; width])),
        ),
        ("a vertex pending twice", pending_with(pending[0].clone())),
    ];

    let before = state_bytes(&mut t, 1);
    for (what, state) in &bad {
        assert!(t.restore_state(state).is_err(), "{what} must be refused");
        assert_eq!(state_bytes(&mut t, 1), before, "{what}: the trainer moved");
    }
    trainer()
        .restore_state(&good)
        .expect("the untouched state restores");
    let loss = |t: &mut ConvergenceTrainer| t.train_epoch(1).train_loss.to_bits();
    assert_eq!(loss(&mut t), loss(&mut twin));
}

/// Wrong magic, a future or retired format version, and a digest from a
/// different config each map to their own typed error.
#[test]
fn header_mismatches_map_to_typed_errors() {
    let ck = Checkpoint {
        next_epoch: 0,
        state: TrainerState {
            params: vec![],
            version: 0,
            store: None,
            pending: None,
        },
    };
    let digest = 7;
    let good = checkpoint_to_bytes(digest, &ck);

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert_eq!(
        checkpoint_from_bytes(&bad_magic, digest).err(),
        Some(CheckpointError::BadMagic)
    );

    // Version is a little-endian u32 at offset 4; set it and re-seal the
    // checksum so the version check (not the checksum) fires. Version 1
    // still carried the hybrid-split fraction and two pending shares,
    // version 2 the replica count and per-lane seeds.
    for version in [FORMAT_VERSION + 1, 2, 1] {
        let mut other = good.clone();
        other[4..8].copy_from_slice(&version.to_le_bytes());
        let body_end = other.len() - 8;
        let reseal = checkpoint::fnv1a(&other[..body_end]);
        other[body_end..].copy_from_slice(&reseal.to_le_bytes());
        assert_eq!(
            checkpoint_from_bytes(&other, digest).err(),
            Some(CheckpointError::UnsupportedVersion(version))
        );
    }

    assert_eq!(
        checkpoint_from_bytes(&good, digest ^ 1).err(),
        Some(CheckpointError::ConfigMismatch {
            expected: digest ^ 1,
            found: digest,
        })
    );
}

/// The digest binds a checkpoint to the writing configuration: the same
/// trainer config hashes identically, and changing any
/// trajectory-shaping knob (or the replica count) changes the digest.
#[test]
fn config_digest_separates_configurations() {
    let base = trainer().config().clone();
    let d = checkpoint::config_digest(&base, 1);
    assert_eq!(checkpoint::config_digest(&base, 1), d);
    assert_ne!(checkpoint::config_digest(&base, 2), d);
    let mut other = base.clone();
    other.seed ^= 1;
    assert_ne!(checkpoint::config_digest(&other, 1), d);
    let mut other = base.clone();
    other.batch_size += 1;
    assert_ne!(checkpoint::config_digest(&other, 1), d);
    let mut other = base;
    other.lr += 0.1;
    assert_ne!(checkpoint::config_digest(&other, 1), d);
}

// ---------------------------------------------------------------------------
// Session-level kill/restore identity.
// ---------------------------------------------------------------------------

/// Run k epochs with checkpointing on, "kill" the session (drop every
/// in-memory object), restore a fresh trainer from the file and finish the
/// session: every remaining epoch's loss and the final trainer state must
/// be bit-identical to the uninterrupted run, at every kill point.
fn assert_kill_and_restore_is_invisible(
    session: impl Fn(Option<(&PathBuf, usize)>) -> Session,
    replicas: usize,
    tag: &str,
) {
    const TOTAL: usize = 4;
    let losses = |report: &SessionReport| report.series(|r| r.observation.train_loss.to_bits());
    let mut full = trainer();
    let uninterrupted = losses(&session(None).run_session(&mut full, 0, TOTAL));
    let final_state = state_bytes(&mut full, replicas);

    for kill_after in [1, 2, 3] {
        let path = ck_path(&format!("{tag}-k{kill_after}"));
        let mut first = trainer();
        let digest = checkpoint::config_digest(first.config(), replicas);
        session(Some((&path, 1))).run_session(&mut first, 0, kill_after);
        drop(first); // the "kill": all in-memory state is gone

        let ck = checkpoint::load(&path, digest).expect("load checkpoint");
        assert_eq!(ck.next_epoch as usize, kill_after);

        let mut resumed = trainer();
        assert_whole_hot_set_pending(&ck, &resumed);
        resumed.restore_state(&ck.state).expect("restore");
        let rest = session(None).run_session(&mut resumed, kill_after, TOTAL - kill_after);
        assert_eq!(
            losses(&rest),
            uninterrupted[kill_after..],
            "{tag} kill_after={kill_after}: resumed losses diverge"
        );
        assert_eq!(
            state_bytes(&mut resumed, replicas),
            final_state,
            "{tag} kill_after={kill_after}: final state diverges"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Kill/restore identity on one lane, whatever the (inert) thread count.
#[test]
fn killed_engine_session_restores_bit_identically() {
    for sampler_threads in [1, 3] {
        let tag = format!("eng-t{sampler_threads}");
        assert_kill_and_restore_is_invisible(|ck| session(1, sampler_threads, ck), 1, &tag);
    }
}

/// Same kill/restore identity at R ∈ {1, 2, 4}: the restored session must
/// reproduce the uninterrupted run's losses and final state bit-for-bit at
/// every width.
#[test]
fn killed_replicated_session_restores_bit_identically_at_any_width() {
    for replicas in [1usize, 2, 4] {
        let tag = format!("rep-r{replicas}");
        assert_kill_and_restore_is_invisible(|ck| session(replicas, 2, ck), replicas, &tag);
    }
}

/// A cross-width restore is refused: a checkpoint written at R=2 does not
/// load under the R=1 digest, so a session can never silently resume at
/// the wrong parallelism.
#[test]
fn checkpoint_is_bound_to_the_replica_count() {
    let path = ck_path("width-bound");
    let mut t = trainer();
    let digest_r2 = checkpoint::config_digest(t.config(), 2);
    let digest_r1 = checkpoint::config_digest(t.config(), 1);
    session(2, 2, Some((&path, 1))).run_session(&mut t, 0, 1);
    assert!(checkpoint::load(&path, digest_r2).is_ok());
    assert!(matches!(
        checkpoint::load(&path, digest_r1),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

/// Checkpoint cadence keys on the absolute epoch: with `checkpoint_every
/// = 2` over 4 epochs, exactly epochs 1 and 3 record a write, the file's
/// resume point is the last boundary, and the writes are visible in the
/// per-epoch telemetry (`checkpoint_bytes` / `checkpoint_seconds`).
#[test]
fn checkpoint_cadence_and_telemetry_follow_absolute_epochs() {
    let path = ck_path("cadence");
    let mut t = trainer();
    let digest = checkpoint::config_digest(t.config(), 1);
    let report = session(1, 2, Some((&path, 2))).run_session(&mut t, 0, 4);
    let wrote = report.series(|r| r.checkpoint_bytes > 0);
    assert_eq!(wrote, [false, true, false, true]);
    for run in &report.epochs {
        assert_eq!(
            run.checkpoint_bytes > 0,
            run.checkpoint_seconds > 0.0,
            "epoch {}: bytes and seconds must agree",
            run.epoch
        );
    }
    let ck = checkpoint::load(&path, digest).expect("load");
    assert_eq!(ck.next_epoch, 4);
    std::fs::remove_file(&path).ok();
}
