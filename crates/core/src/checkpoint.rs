//! Deterministic checkpoint/restore of training sessions.
//!
//! A checkpoint is a versioned, length-prefixed binary image of the full
//! training state ([`crate::trainer::TrainerState`] plus the epoch to
//! resume at):
//!
//! ```text
//! magic "NOCK" | format version u32 | config digest u64 |
//! payload length u64 | payload | fnv1a-64 checksum of everything before
//! ```
//!
//! Every scalar is little-endian; floats are serialized as their raw IEEE
//! bits (`to_bits`), so a restore reproduces values **bit for bit** — the
//! property the session-identity tests assert. The config digest binds a
//! file to the `(trainer config, replica count)` that wrote it; loading
//! under a different configuration fails with
//! [`CheckpointError::ConfigMismatch`] instead of resuming a subtly
//! different run. Saves go through a temp file + atomic rename, so a crash
//! mid-write can never leave a torn checkpoint at the published path — the
//! previous complete checkpoint survives.
//!
//! Why this is sufficient for bit-identity: all sampling/shuffling
//! randomness in the workspace is derived per `(seed, epoch, index)`
//! ([`crate::trainer::batch_sample_seed`], the per-epoch Fisher–Yates
//! seed, the per-lane seed salt) — there is no long-lived generator whose
//! position could drift. The seed and the replica count are bound in by the
//! config digest, so the next epoch index is the complete rng-stream state.

use crate::refresh::RefreshOutput;
use crate::trainer::{TrainerConfig, TrainerState};
use neutron_cache::{EmbeddingRows, StoreSnapshot};
use neutron_graph::VertexId;
use neutron_tensor::Matrix;
use std::fmt;
use std::path::Path;

/// File magic: "NeutronOrch ChecKpoint".
pub const MAGIC: [u8; 4] = *b"NOCK";
/// Current on-disk format version. Version 1 (which also stored a refresh
/// split fraction and a second pending share) and version 2 (which also
/// stored the replica count and per-lane seeds) are refused.
pub const FORMAT_VERSION: u32 = 3;

/// Typed checkpoint failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Underlying filesystem error (open/read/write/rename).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer/older than this build reads.
    UnsupportedVersion(u32),
    /// The file ends before the encoded structure does.
    Truncated,
    /// The checksum or an internal invariant failed — the bytes are not a
    /// checkpoint this build wrote.
    Corrupt(String),
    /// The file was written under a different trainer/session
    /// configuration.
    ConfigMismatch {
        /// Digest the loading session expects.
        expected: u64,
        /// Digest recorded in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Corrupt(why) => write!(f, "checkpoint is corrupt: {why}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config digest {found:#018x} does not match session {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---------------------------------------------------------------------------
// Primitive codec.
// ---------------------------------------------------------------------------

/// Append-only little-endian writer for checkpoint payloads.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` as its raw IEEE bits (bit-exact round-trip).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Writes an `f64` as its raw IEEE bits (bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Cursor over checkpoint payload bytes; every read is bounds-checked and
/// under-runs surface as [`CheckpointError::Truncated`].
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over `data` starting at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f32` from raw bits.
    pub fn get_f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads a length prefix that must be satisfiable by the remaining
    /// bytes (each element at least `min_elem_bytes`) — rejects absurd
    /// lengths from corrupt files before any allocation happens.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.get_u64()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }
}

/// FNV-1a over `bytes` — the trailer checksum and the config digest hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Component codecs (each proptest-covered for bit-exact round-trips).
// ---------------------------------------------------------------------------

/// Encodes a parameter (or any matrix) list: count, then `rows cols bits*`.
pub fn encode_params(w: &mut Writer, params: &[Matrix]) {
    w.put_u64(params.len() as u64);
    for m in params {
        w.put_u64(m.rows() as u64);
        w.put_u64(m.cols() as u64);
        for &v in m.as_slice() {
            w.put_f32(v);
        }
    }
}

/// Decodes a matrix list written by [`encode_params`].
pub fn decode_params(r: &mut Reader<'_>) -> Result<Vec<Matrix>, CheckpointError> {
    let n = r.get_len(16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let rows = r.get_u64()? as usize;
        let cols = r.get_u64()? as usize;
        let len = rows.saturating_mul(cols);
        if len.saturating_mul(4) > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(r.get_f32()?);
        }
        out.push(Matrix::from_vec(rows, cols, data));
    }
    Ok(out)
}

/// Reads a vertex id, stored as a `u64`: one past `VertexId::MAX` names
/// no vertex, so it is corruption, not an id to truncate.
fn get_vertex(r: &mut Reader<'_>) -> Result<VertexId, CheckpointError> {
    let v = r.get_u64()?;
    VertexId::try_from(v).map_err(|_| CheckpointError::Corrupt(format!("vertex id {v}")))
}

/// Encodes refresh rows: count, then `vertex width bits*` a row.
pub fn encode_rows(w: &mut Writer, rows: &EmbeddingRows) {
    w.put_u64(rows.len() as u64);
    for (v, row) in rows.iter() {
        w.put_u64(v as u64);
        w.put_u64(row.len() as u64);
        for &x in row {
            w.put_f32(x);
        }
    }
}

/// Decodes rows written by [`encode_rows`]. Rows of differing widths are
/// corruption: every row of one list is one matrix's row.
pub fn decode_rows(r: &mut Reader<'_>) -> Result<EmbeddingRows, CheckpointError> {
    let n = r.get_len(16)?;
    let mut vertices = Vec::with_capacity(n);
    let (mut data, mut width) = (Vec::new(), 0);
    for _ in 0..n {
        let v = get_vertex(r)?;
        let len = r.get_len(4)?;
        if vertices.is_empty() {
            width = len;
        } else if len != width {
            return Err(CheckpointError::Corrupt(format!(
                "refresh row of v{v} is {len} wide, not {width}"
            )));
        }
        vertices.push(v);
        for _ in 0..len {
            data.push(r.get_f32()?);
        }
    }
    Ok(EmbeddingRows::new(
        vertices,
        Matrix::from_vec(n, width, data),
    ))
}

/// Encodes an embedding-store snapshot, counters included: the header,
/// then `vertex version width bits*` a row.
pub fn encode_store(w: &mut Writer, snap: &StoreSnapshot) {
    w.put_u64(snap.dim as u64);
    match snap.bound {
        None => w.put_u8(0),
        Some(b) => {
            w.put_u8(1);
            w.put_u64(b);
        }
    }
    w.put_u64(snap.max_observed_gap);
    w.put_u64(snap.reads);
    w.put_u64(snap.rows.len() as u64);
    for ((v, row), &version) in snap.rows.iter().zip(&snap.versions) {
        w.put_u64(v as u64);
        w.put_u64(version);
        w.put_u64(row.len() as u64);
        for &x in row {
            w.put_f32(x);
        }
    }
}

/// Decodes a store snapshot written by [`encode_store`].
pub fn decode_store(r: &mut Reader<'_>) -> Result<StoreSnapshot, CheckpointError> {
    let dim = r.get_u64()? as usize;
    let bound = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_u64()?),
        other => {
            return Err(CheckpointError::Corrupt(format!(
                "bad store bound tag {other}"
            )))
        }
    };
    let max_observed_gap = r.get_u64()?;
    let reads = r.get_u64()?;
    let n = r.get_len(24)?;
    let mut vertices = Vec::with_capacity(n);
    let mut versions = Vec::with_capacity(n);
    let mut data = Vec::with_capacity(n.saturating_mul(dim).min(r.remaining() / 4));
    for _ in 0..n {
        let v = get_vertex(r)?;
        let version = r.get_u64()?;
        let len = r.get_len(4)?;
        if len != dim {
            return Err(CheckpointError::Corrupt(format!(
                "store row of {len} values in a dim-{dim} store"
            )));
        }
        vertices.push(v);
        versions.push(version);
        for _ in 0..len {
            data.push(r.get_f32()?);
        }
    }
    Ok(StoreSnapshot {
        dim,
        bound,
        rows: EmbeddingRows::new(vertices, Matrix::from_vec(n, dim, data)),
        versions,
        max_observed_gap,
        reads,
    })
}

fn encode_trainer_state(w: &mut Writer, state: &TrainerState) {
    encode_params(w, &state.params);
    w.put_u64(state.version);
    match &state.store {
        None => w.put_u8(0),
        Some(snap) => {
            w.put_u8(1);
            encode_store(w, snap);
        }
    }
    match &state.pending {
        None => w.put_u8(0),
        Some(p) => {
            w.put_u8(1);
            w.put_u64(p.version);
            encode_rows(w, &p.rows);
        }
    }
}

fn decode_trainer_state(r: &mut Reader<'_>) -> Result<TrainerState, CheckpointError> {
    let params = decode_params(r)?;
    let version = r.get_u64()?;
    let store = match r.get_u8()? {
        0 => None,
        1 => Some(decode_store(r)?),
        other => {
            return Err(CheckpointError::Corrupt(format!(
                "bad store presence tag {other}"
            )))
        }
    };
    let pending = match r.get_u8()? {
        0 => None,
        1 => Some(RefreshOutput {
            version: r.get_u64()?,
            rows: decode_rows(r)?,
        }),
        other => {
            return Err(CheckpointError::Corrupt(format!(
                "bad pending-refresh tag {other}"
            )))
        }
    };
    Ok(TrainerState {
        params,
        version,
        store,
        pending,
    })
}

// ---------------------------------------------------------------------------
// The whole-session checkpoint.
// ---------------------------------------------------------------------------

/// A complete session checkpoint, written at an epoch boundary.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// First epoch a resumed session should run (the boundary the file was
    /// written at).
    pub next_epoch: u64,
    /// The trainer's mutable state.
    pub state: TrainerState,
}

/// Digest binding a checkpoint to the `(trainer config, replica count)`
/// that wrote it. Hashes everything that shapes the training trajectory:
/// seed, batch size, depth, learning-rate bits, architecture and reuse
/// policy (with its parameters), plus the session's replica count.
pub fn config_digest(config: &TrainerConfig, replicas: usize) -> u64 {
    let mut w = Writer::new();
    w.put_u64(config.seed);
    w.put_u64(config.batch_size as u64);
    w.put_u64(config.layers as u64);
    w.put_f32(config.lr);
    w.put_u8(match config.kind {
        neutron_nn::LayerKind::Gcn => 0,
        neutron_nn::LayerKind::Sage => 1,
        neutron_nn::LayerKind::Gat => 2,
    });
    match &config.policy {
        crate::trainer::ReusePolicy::Exact => w.put_u8(0),
        crate::trainer::ReusePolicy::GasLike => w.put_u8(1),
        crate::trainer::ReusePolicy::HotnessAware {
            hot_ratio,
            super_batch,
        } => {
            w.put_u8(2);
            w.put_f64(*hot_ratio);
            w.put_u64(*super_batch as u64);
        }
    }
    w.put_u64(replicas as u64);
    fnv1a(&w.into_bytes())
}

/// Serializes a checkpoint to its on-disk byte image (header + payload +
/// checksum trailer).
pub fn checkpoint_to_bytes(config_digest: u64, ck: &Checkpoint) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.put_u64(ck.next_epoch);
    encode_trainer_state(&mut payload, &ck.state);
    let payload = payload.into_bytes();

    let mut w = Writer::new();
    w.buf.extend_from_slice(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(config_digest);
    w.put_u64(payload.len() as u64);
    w.buf.extend_from_slice(&payload);
    let checksum = fnv1a(&w.buf);
    w.put_u64(checksum);
    w.into_bytes()
}

/// Parses a checkpoint byte image, verifying magic, format version,
/// checksum and the config digest.
pub fn checkpoint_from_bytes(
    bytes: &[u8],
    expected_digest: u64,
) -> Result<Checkpoint, CheckpointError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let found_digest = r.get_u64()?;
    let payload_len = r.get_u64()? as usize;
    if r.remaining() < payload_len + 8 {
        return Err(CheckpointError::Truncated);
    }
    let body_end = bytes.len() - 8;
    if body_end != 4 + 4 + 8 + 8 + payload_len {
        return Err(CheckpointError::Corrupt("trailing garbage".into()));
    }
    let mut trailer = Reader::new(&bytes[body_end..]);
    let checksum = trailer.get_u64()?;
    if fnv1a(&bytes[..body_end]) != checksum {
        return Err(CheckpointError::Corrupt("checksum mismatch".into()));
    }
    if found_digest != expected_digest {
        return Err(CheckpointError::ConfigMismatch {
            expected: expected_digest,
            found: found_digest,
        });
    }
    let next_epoch = r.get_u64()?;
    let state = decode_trainer_state(&mut r)?;
    Ok(Checkpoint { next_epoch, state })
}

/// Writes a checkpoint atomically (temp file in the target's directory,
/// then rename) and returns the byte count written. A crash mid-save
/// leaves the previous checkpoint at `path` intact.
pub fn save(path: &Path, config_digest: u64, ck: &Checkpoint) -> Result<u64, CheckpointError> {
    let bytes = checkpoint_to_bytes(config_digest, ck);
    let tmp = path.with_extension("ck-tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| CheckpointError::Io(e.to_string()))?;
    std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    Ok(bytes.len() as u64)
}

/// Reads and verifies the checkpoint at `path`.
pub fn load(path: &Path, expected_digest: u64) -> Result<Checkpoint, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    checkpoint_from_bytes(&bytes, expected_digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::ReusePolicy;
    use neutron_nn::LayerKind;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            next_epoch: 3,
            state: TrainerState {
                params: vec![
                    Matrix::from_vec(2, 3, vec![1.0, -2.5, 3.25, 0.0, f32::MIN, f32::MAX]),
                    Matrix::from_vec(1, 1, vec![0.125]),
                ],
                version: 42,
                store: Some(StoreSnapshot {
                    dim: 2,
                    bound: Some(3),
                    rows: EmbeddingRows::new(
                        vec![1, 9],
                        Matrix::from_vec(2, 2, vec![0.5, -0.5, 1.5, 2.5]),
                    ),
                    versions: vec![7, 9],
                    max_observed_gap: 3,
                    reads: 11,
                }),
                pending: Some(RefreshOutput {
                    version: 40,
                    rows: EmbeddingRows::new(
                        vec![3, 5],
                        Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]),
                    ),
                }),
            },
        }
    }

    fn digest() -> u64 {
        config_digest(
            &TrainerConfig {
                kind: LayerKind::Gcn,
                layers: 2,
                batch_size: 64,
                lr: 0.5,
                seed: 0xacc,
                policy: ReusePolicy::Exact,
            },
            2,
        )
    }

    #[test]
    fn byte_roundtrip_is_lossless() {
        let ck = sample_checkpoint();
        let bytes = checkpoint_to_bytes(digest(), &ck);
        let back = checkpoint_from_bytes(&bytes, digest()).unwrap();
        assert_eq!(back.next_epoch, ck.next_epoch);
        assert_eq!(back.state.version, ck.state.version);
        assert_eq!(back.state.store, ck.state.store);
        assert_eq!(back.state.pending, ck.state.pending);
        for (a, b) in back.state.params.iter().zip(&ck.state.params) {
            assert_eq!(a.shape(), b.shape());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    /// Pins the on-disk image: a change to the codec that moves one byte of
    /// `sample_checkpoint` fails here before any reader meets it.
    #[test]
    fn format_3_bytes_are_pinned() {
        let bytes = checkpoint_to_bytes(digest(), &sample_checkpoint());
        assert_eq!((bytes.len(), fnv1a(&bytes)), (287, 0x8f63_f3e8_f9f2_0b3a));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = checkpoint_to_bytes(digest(), &sample_checkpoint());
        for cut in [0, 3, 4, 10, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = checkpoint_from_bytes(&bytes[..cut], digest()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated | CheckpointError::BadMagic),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corruption_and_version_mismatch_are_rejected() {
        let good = checkpoint_to_bytes(digest(), &sample_checkpoint());
        // Flip a payload byte: checksum fails.
        let mut bad = good.clone();
        bad[40] ^= 0xff;
        assert!(matches!(
            checkpoint_from_bytes(&bad, digest()),
            Err(CheckpointError::Corrupt(_))
        ));
        // Bump the format version (and nothing else): version gate fires
        // before the checksum is even consulted.
        let mut newer = good.clone();
        newer[4] = FORMAT_VERSION as u8 + 1;
        assert_eq!(
            checkpoint_from_bytes(&newer, digest()).err(),
            Some(CheckpointError::UnsupportedVersion(FORMAT_VERSION + 1))
        );
        // Wrong magic.
        let mut unmagical = good.clone();
        unmagical[0] = b'X';
        assert!(matches!(
            checkpoint_from_bytes(&unmagical, digest()),
            Err(CheckpointError::BadMagic)
        ));
        // Wrong config digest.
        assert!(matches!(
            checkpoint_from_bytes(&good, digest() ^ 1),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join(format!("nock-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.ck");
        let ck = sample_checkpoint();
        let bytes = save(&path, digest(), &ck).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert!(!path.with_extension("ck-tmp").exists(), "tmp file renamed");
        let back = load(&path, digest()).unwrap();
        assert_eq!(back.next_epoch, ck.next_epoch);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_digest_separates_configurations() {
        let base = TrainerConfig {
            kind: LayerKind::Gcn,
            layers: 2,
            batch_size: 64,
            lr: 0.5,
            seed: 0xacc,
            policy: ReusePolicy::Exact,
        };
        let d0 = config_digest(&base, 1);
        assert_eq!(d0, config_digest(&base.clone(), 1), "digest is stable");
        let mut other = base.clone();
        other.seed ^= 1;
        assert_ne!(d0, config_digest(&other, 1));
        assert_ne!(d0, config_digest(&base, 2), "replica count is bound in");
    }
}
