//! Versioned historical-embedding store (§4.1.2 / §4.2.2).
//!
//! Each row records the model-parameter **version** (batch counter) it was
//! computed under. Reads report their version gap; an optional hard bound
//! turns excessive staleness into an error instead of silent accuracy loss —
//! the property that distinguishes NeutronOrch from GAS in Fig 16.
//!
//! The store is dense: a fixed key space's rows and versions, indexed by rank.

use neutron_graph::VertexId;
use neutron_sample::HotSet;
use neutron_tensor::Matrix;
use std::fmt;
use std::sync::Arc;

/// A read rejected because the entry exceeded the staleness bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaleReadError {
    /// Vertex whose embedding was requested.
    pub vertex: VertexId,
    /// Version the embedding was computed at.
    pub version: u64,
    /// Version at the time of the read.
    pub now: u64,
    /// Configured bound.
    pub bound: u64,
}

impl fmt::Display for StaleReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "embedding of v{} has version gap {} (computed@{}, read@{}), bound {}",
            self.vertex,
            self.now - self.version,
            self.version,
            self.now,
            self.bound
        )
    }
}

impl std::error::Error for StaleReadError {}

/// A deterministic, order-stable image of a store's complete state — the
/// unit a checkpoint serializes. Rows are in vertex-id order, whatever the
/// store's key space ranks them by, so two snapshots of equal stores are
/// structurally equal, and restoring one reproduces every future read
/// (values, version gaps *and* the gap/read counters) bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreSnapshot {
    /// Embedding dimension.
    pub dim: usize,
    /// Staleness bound, if any.
    pub bound: Option<u64>,
    /// The rows present, ascending by vertex id.
    pub rows: EmbeddingRows,
    /// The version each row of `rows` was computed at, in row order.
    pub versions: Vec<u64>,
    /// Largest version gap any successful read had observed.
    pub max_observed_gap: u64,
    /// Successful read count.
    pub reads: u64,
}

/// Embedding rows by vertex, stored flat — the one shape refreshed rows
/// take: a refresh task's output, the refresh a trainer holds until the
/// next boundary publishes it ([`EmbeddingStore::put_rows`]), a store
/// image's rows and a checkpoint's. Row `i` of one matrix belongs to vertex
/// `i` of the id list, so a batch of any size is two allocations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EmbeddingRows {
    vertices: Vec<VertexId>,
    data: Matrix,
}

impl EmbeddingRows {
    /// Rows of `data`, one per vertex of `vertices`, in order.
    pub fn new(vertices: Vec<VertexId>, data: Matrix) -> Self {
        assert_eq!(data.rows(), vertices.len(), "one row per vertex");
        Self { vertices, data }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The vertices, in row order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// `(vertex, row)` in row order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[f32])> {
        self.vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, self.data.row(i)))
    }
}

/// Versioned embedding rows of one key space, indexed by rank: NeutronOrch's
/// key space is the hot set, GAS's every vertex ([`HotSet::all`]).
#[derive(Clone, Debug)]
pub struct EmbeddingStore {
    keys: Arc<HotSet>,
    dim: usize,
    bound: Option<u64>,
    rows: Vec<f32>,
    /// Each slot's version, `None` until written. The first write allocates
    /// both tables: a trainer built but never trained holds neither.
    versions: Vec<Option<u64>>,
    max_observed_gap: u64,
    reads: u64,
}

impl EmbeddingStore {
    /// Empty store for `dim`-wide embeddings of `keys`' vertices. `bound =
    /// Some(b)` makes any read with version gap `> b` an error (NeutronOrch
    /// sets `b = 2n−1`); `None` allows unbounded reuse (GAS-like).
    pub fn new(keys: Arc<HotSet>, dim: usize, bound: Option<u64>) -> Self {
        Self {
            rows: Vec::new(),
            versions: Vec::new(),
            keys,
            dim,
            bound,
            max_observed_gap: 0,
            reads: 0,
        }
    }

    /// The slot `v`'s row is kept in (its rank), `None` outside the key space.
    #[inline]
    pub fn slot(&self, v: VertexId) -> Option<u32> {
        self.keys.rank(v)
    }

    fn row(&self, slot: usize) -> &[f32] {
        &self.rows[slot * self.dim..][..self.dim]
    }

    fn version(&self, slot: usize) -> Option<u64> {
        self.versions.get(slot).copied().flatten()
    }

    /// Copies `row` into `slot`, computed at `version`.
    pub fn put(&mut self, slot: u32, row: &[f32], version: u64) {
        assert_eq!(row.len(), self.dim, "dimension mismatch");
        if self.versions.is_empty() {
            self.versions = vec![None; self.keys.len()];
            self.rows = vec![0.0; self.keys.len() * self.dim];
        }
        let slot = slot as usize;
        self.rows[slot * self.dim..][..self.dim].copy_from_slice(row);
        self.versions[slot] = Some(version);
    }

    /// Reads `slot`'s row at version `now`, recording the gap; `Ok(None)` if absent.
    pub fn get(&mut self, slot: u32, now: u64) -> Result<Option<(&[f32], u64)>, StaleReadError> {
        let slot = slot as usize;
        let Some(version) = self.version(slot) else {
            return Ok(None);
        };
        let gap = now.saturating_sub(version);
        if let Some(bound) = self.bound.filter(|&bound| gap > bound) {
            return Err(StaleReadError {
                vertex: self.keys.vertices()[slot],
                version,
                now,
                bound,
            });
        }
        self.reads += 1;
        self.max_observed_gap = self.max_observed_gap.max(gap);
        Ok(Some((self.row(slot), gap)))
    }

    /// Publishes a refresh batch computed at `version` — the super-batch
    /// flip: rows computed off to the side are copied into place at once.
    pub fn put_rows(&mut self, rows: &EmbeddingRows, version: u64) {
        for (v, row) in rows.iter() {
            let slot = self.slot(v).expect("refresh rows lie in the key space");
            self.put(slot, row, version);
        }
    }

    /// True when no slot holds a row.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Largest version gap any successful read observed.
    pub fn max_observed_gap(&self) -> u64 {
        self.max_observed_gap
    }

    /// Number of successful reads (embedding reuses).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Checks that `rows` may enter this store: each row's vertex lies in
    /// the key space and is named once, and each row is `dim` wide. `what`
    /// names the rows in the error. The one check of every row a restore or
    /// a restored refresh brings in.
    pub fn check_rows(&self, rows: &EmbeddingRows, what: &str) -> Result<(), String> {
        let mut seen = vec![false; self.keys.len()];
        for (v, row) in rows.iter() {
            let outside = || format!("{what} row of v{v}, outside the key space");
            let slot = self.slot(v).ok_or_else(outside)?;
            if std::mem::replace(&mut seen[slot as usize], true) {
                return Err(format!("two {what} rows of v{v}"));
            }
            if row.len() != self.dim {
                return Err(format!("{what} row of v{v} is not {} wide", self.dim));
            }
        }
        Ok(())
    }

    /// The store's complete state, rows in id order: it walks ids, no sort.
    pub fn snapshot(&self) -> StoreSnapshot {
        let mut data = Vec::with_capacity(self.rows.len());
        let (vertices, versions): (Vec<_>, Vec<_>) = (0..self.keys.num_vertices() as VertexId)
            .filter_map(|v| {
                let slot = self.slot(v)? as usize;
                let version = self.version(slot)?;
                data.extend_from_slice(self.row(slot));
                Some((v, version))
            })
            .unzip();
        let data = Matrix::from_vec(vertices.len(), self.dim, data);
        StoreSnapshot {
            dim: self.dim,
            bound: self.bound,
            rows: EmbeddingRows::new(vertices, data),
            versions,
            max_observed_gap: self.max_observed_gap,
            reads: self.reads,
        }
    }

    /// Replaces the contents with `snap`'s, counters included, in this
    /// store's own key space. Rows that fail [`Self::check_rows`] at
    /// `snap.dim`, or a version count that is not the row count, are an
    /// error that leaves the store as it was.
    pub fn restore(&mut self, snap: &StoreSnapshot) -> Result<(), String> {
        if snap.versions.len() != snap.rows.len() {
            return Err("stored rows and versions differ in number".into());
        }
        let mut store = Self::new(Arc::clone(&self.keys), snap.dim, snap.bound);
        store.check_rows(&snap.rows, "stored")?;
        for ((v, row), &version) in snap.rows.iter().zip(&snap.versions) {
            let slot = store.slot(v).expect("checked rows lie in the key space");
            store.put(slot, row, version);
        }
        store.max_observed_gap = snap.max_observed_gap;
        store.reads = snap.reads;
        *self = store;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_sample::HotnessRanking;

    /// Identity key space over `n` vertices (slot = vertex id).
    fn store(n: usize, dim: usize, bound: Option<u64>) -> EmbeddingStore {
        EmbeddingStore::new(Arc::new(HotSet::all(n)), dim, bound)
    }

    #[test]
    fn put_get_roundtrip_with_gap() {
        let mut s = store(8, 3, Some(5));
        s.put(7, &[1.0, 2.0, 3.0], 10);
        let (row, gap) = s.get(7, 12).unwrap().unwrap();
        assert_eq!(row, &[1.0, 2.0, 3.0]);
        assert_eq!(gap, 2);
        assert_eq!(s.max_observed_gap(), 2);
        assert_eq!(s.reads(), 1);
    }

    #[test]
    fn missing_vertex_is_none_not_error() {
        let mut s = store(1, 2, Some(1));
        assert_eq!(s.get(0, 100).unwrap(), None);
    }

    #[test]
    fn bound_violation_is_an_error() {
        let mut s = store(2, 1, Some(3));
        s.put(1, &[0.5], 0);
        assert!(s.get(1, 3).is_ok());
        let err = s.get(1, 4).unwrap_err();
        assert_eq!(err.bound, 3);
        assert_eq!(err.now - err.version, 4);
        // A failed read must not pollute the observed-gap statistics.
        assert_eq!(s.max_observed_gap(), 3);
    }

    #[test]
    fn unbounded_store_accepts_any_gap() {
        let mut s = store(2, 1, None);
        s.put(1, &[0.1], 0);
        let (_, gap) = s.get(1, 1_000_000).unwrap().unwrap();
        assert_eq!(gap, 1_000_000);
    }

    /// `dim`-wide rows of `pairs`, in order.
    fn rows_of(dim: usize, pairs: &[(VertexId, &[f32])]) -> EmbeddingRows {
        let data = pairs.iter().flat_map(|p| p.1.iter().copied()).collect();
        let vertices = pairs.iter().map(|p| p.0).collect();
        EmbeddingRows::new(vertices, Matrix::from_vec(pairs.len(), dim, data))
    }

    #[test]
    fn put_rows_publishes_a_batch_at_one_version() {
        let mut s = store(3, 2, Some(3));
        s.put(2, &[0.0, 0.0], 1);
        let pairs: [(VertexId, &[f32]); 2] = [(1, &[1.0, 1.0]), (2, &[2.0, 2.0])];
        let rows = rows_of(2, &pairs);
        assert_eq!((rows.len(), rows.vertices()), (2, &[1, 2][..]));
        assert!(rows.iter().eq(pairs));
        s.put_rows(&rows, 5);
        let (row, gap) = s.get(2, 6).unwrap().unwrap();
        assert_eq!(row, &[2.0, 2.0], "an existing entry is overwritten");
        assert_eq!(gap, 1);
        assert_eq!(s.get(1, 6).unwrap().unwrap().0, &[1.0, 1.0]);
        assert_eq!(s.get(0, 6).unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let mut s = store(1, 2, None);
        s.put(0, &[0.0; 3], 0);
    }

    /// A hot key space ranks vertices 9, 4, 1 (slots 0, 1, 2) of 10.
    fn hot_store() -> EmbeddingStore {
        let mut counts = vec![0; 10];
        (counts[9], counts[4], counts[1]) = (3, 2, 1);
        let hot = HotnessRanking::from_counts(counts).hot_set(0.3);
        EmbeddingStore::new(Arc::new(hot), 2, Some(7))
    }

    #[test]
    fn snapshot_is_in_id_order_and_restores_counters() {
        let mut s = hot_store();
        let slots: Vec<_> = [9, 4, 1, 0].map(|v| s.slot(v)).to_vec();
        assert_eq!(slots, [Some(0), Some(1), Some(2), None]);
        s.put_rows(&rows_of(2, &[(9, &[9.0, 9.0]), (1, &[1.0, 1.0])]), 3);
        let _ = s.get(0, 6); // v9: gap 3, one read
        let snap = s.snapshot();
        let present = rows_of(2, &[(1, &[1.0, 1.0]), (9, &[9.0, 9.0])]);
        assert_eq!(snap.rows, present, "present rows only, ascending by id");
        assert_eq!(snap.versions, [3, 3]);
        let mut restored = hot_store();
        restored.restore(&snap).unwrap();
        assert_eq!(restored.max_observed_gap(), 3);
        assert_eq!(restored.reads(), 1);
        assert_eq!(restored.get(1, 6).unwrap(), None, "v4 stays absent");
        assert_eq!(restored.get(2, 6).unwrap().unwrap().0, &[1.0, 1.0]);
        let mut again = hot_store();
        again.restore(&snap).unwrap();
        assert_eq!(again.snapshot(), snap, "round-trip is lossless");
    }

    #[test]
    fn restore_keeps_to_the_key_space() {
        let mut s = hot_store();
        s.put(0, &[9.0, 9.0], 1);
        let before = s.snapshot();
        let zero: &[f32] = &[0.0, 0.0];
        for (rows, versions, why) in [
            (
                rows_of(2, &[(9, zero), (0, zero)]),
                2,
                "outside the key space",
            ),
            (
                rows_of(2, &[(9, zero), (10, zero)]),
                2,
                "outside the key space",
            ),
            (
                rows_of(2, &[(4, zero), (4, zero)]),
                2,
                "two stored rows of v4",
            ),
            (rows_of(1, &[(4, &[0.0])]), 1, "not 2 wide"),
            (rows_of(2, &[(4, zero)]), 2, "rows and versions differ"),
        ] {
            let snap = StoreSnapshot {
                rows,
                versions: vec![2; versions],
                ..before.clone()
            };
            let err = s.restore(&snap).unwrap_err();
            assert!(err.contains(why), "{err}");
            assert_eq!(s.snapshot(), before, "a refused restore changes nothing");
        }
    }
}
