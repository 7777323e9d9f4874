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
    /// `(vertex, row, version)` triples, ascending by vertex id.
    pub rows: Vec<(VertexId, Vec<f32>, u64)>,
    /// Largest version gap any successful read had observed.
    pub max_observed_gap: u64,
    /// Successful read count.
    pub reads: u64,
}

/// Embedding rows by vertex, stored flat — the unit
/// [`EmbeddingStore::put_rows`] publishes: row `i` of one matrix belongs to
/// vertex `i` of the id list, so a batch of any size is two allocations.
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

    /// Flattens `(vertex, row)` pairs — a checkpoint's row image — checking
    /// that every row is `dim` wide.
    pub fn from_pairs(dim: usize, pairs: &[(VertexId, Vec<f32>)]) -> Result<Self, String> {
        let mut data = Vec::with_capacity(pairs.len() * dim);
        for (v, row) in pairs {
            if row.len() != dim {
                return Err(format!("row of v{v} is {} wide, not {dim}", row.len()));
            }
            data.extend_from_slice(row);
        }
        let vertices = pairs.iter().map(|p| p.0).collect();
        Ok(Self::new(
            vertices,
            Matrix::from_vec(pairs.len(), dim, data),
        ))
    }

    /// The rows as owned `(vertex, row)` pairs, for a checkpoint.
    pub fn to_pairs(&self) -> Vec<(VertexId, Vec<f32>)> {
        self.iter().map(|(v, row)| (v, row.to_vec())).collect()
    }

    /// Moves the rows of `other` behind this batch's own.
    pub fn append(&mut self, other: Self) {
        if other.is_empty() {
            return;
        }
        let mut data = std::mem::take(&mut self.data).into_vec();
        data.extend_from_slice(other.data.as_slice());
        self.vertices.extend(other.vertices);
        self.data = Matrix::from_vec(self.vertices.len(), other.data.cols(), data);
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

    /// The store's complete state, rows in id order: it walks ids, no sort.
    pub fn snapshot(&self) -> StoreSnapshot {
        let rows = (0..self.keys.num_vertices() as VertexId)
            .filter_map(|v| {
                let slot = self.slot(v)? as usize;
                let version = self.version(slot)?;
                Some((v, self.row(slot).to_vec(), version))
            })
            .collect();
        StoreSnapshot {
            dim: self.dim,
            bound: self.bound,
            rows,
            max_observed_gap: self.max_observed_gap,
            reads: self.reads,
        }
    }

    /// Replaces the contents with `snap`'s, counters included, in this
    /// store's own key space. A row outside it, a vertex named twice or a
    /// row not `snap.dim` wide is an error that leaves the store as it was.
    pub fn restore(&mut self, snap: &StoreSnapshot) -> Result<(), String> {
        let mut store = Self::new(Arc::clone(&self.keys), snap.dim, snap.bound);
        for (v, row, version) in &snap.rows {
            let outside = || format!("stored row of v{v}, outside the key space");
            let slot = store.slot(*v).ok_or_else(outside)?;
            if store.version(slot as usize).is_some() {
                return Err(format!("two stored rows of v{v}"));
            }
            if row.len() != snap.dim {
                return Err(format!("stored row of v{v} is not {} wide", snap.dim));
            }
            store.put(slot, row, *version);
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

    #[test]
    fn put_rows_publishes_a_batch_at_one_version() {
        let mut s = store(3, 2, Some(3));
        s.put(2, &[0.0, 0.0], 1);
        let pairs = [(1, vec![1.0, 1.0]), (2, vec![2.0, 2.0])];
        let rows = EmbeddingRows::from_pairs(2, &pairs).unwrap();
        assert_eq!(
            (rows.len(), rows.vertices(), rows.to_pairs()),
            (2, &[1, 2][..], pairs.to_vec())
        );
        assert!(
            EmbeddingRows::from_pairs(3, &pairs).is_err(),
            "rows must be `dim` wide"
        );
        s.put_rows(&rows, 5);
        let (row, gap) = s.get(2, 6).unwrap().unwrap();
        assert_eq!(row, &[2.0, 2.0], "an existing entry is overwritten");
        assert_eq!(gap, 1);
        assert_eq!(s.get(1, 6).unwrap().unwrap().0, &[1.0, 1.0]);
        assert_eq!(s.get(0, 6).unwrap(), None);
    }

    #[test]
    fn appended_rows_follow_in_order() {
        let mut rows = EmbeddingRows::default();
        rows.append(EmbeddingRows::from_pairs(1, &[(4, vec![0.4])]).unwrap());
        rows.append(EmbeddingRows::default());
        rows.append(EmbeddingRows::from_pairs(1, &[(2, vec![0.2]), (9, vec![0.9])]).unwrap());
        let got: Vec<_> = rows.iter().collect();
        assert_eq!(got, [(4, &[0.4][..]), (2, &[0.2][..]), (9, &[0.9][..])]);
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
        s.put_rows(
            &EmbeddingRows::from_pairs(2, &[(9, vec![9.0, 9.0]), (1, vec![1.0, 1.0])]).unwrap(),
            3,
        );
        let _ = s.get(0, 6); // v9: gap 3, one read
        let snap = s.snapshot();
        assert_eq!(
            snap.rows,
            [(1, vec![1.0, 1.0], 3), (9, vec![9.0, 9.0], 3)],
            "present rows only, ascending by id"
        );
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
        let row = |v| (v, vec![0.0, 0.0], 2);
        for (rows, why) in [
            (vec![row(9), row(0)], "outside the key space"),
            (vec![row(9), row(10)], "outside the key space"),
            (vec![row(4), row(4)], "two stored rows of v4"),
            (vec![(4, vec![0.0], 2)], "not 2 wide"),
        ] {
            let snap = StoreSnapshot {
                rows,
                ..before.clone()
            };
            let err = s.restore(&snap).unwrap_err();
            assert!(err.contains(why), "{err}");
            assert_eq!(s.snapshot(), before, "a refused restore changes nothing");
        }
    }
}
