//! Versioned historical-embedding store (§4.1.2 / §4.2.2).
//!
//! Each entry records the model-parameter **version** (batch counter) it was
//! computed under. Reads report their version gap; an optional hard bound
//! turns excessive staleness into an error instead of silent accuracy loss —
//! the property that distinguishes NeutronOrch from GAS in Fig 16.

use neutron_graph::VertexId;
use neutron_tensor::Matrix;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

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
/// unit a checkpoint serializes. Rows are sorted by vertex id because the
/// backing `HashMap` iterates in arbitrary order; two snapshots of equal
/// stores are therefore structurally equal, and restoring one reproduces
/// every future read (values, version gaps *and* the gap/read counters)
/// bit for bit.
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

/// Versioned per-vertex embedding rows.
#[derive(Clone, Debug)]
pub struct EmbeddingStore {
    dim: usize,
    bound: Option<u64>,
    entries: HashMap<VertexId, (Vec<f32>, u64)>,
    max_observed_gap: u64,
    reads: u64,
}

impl EmbeddingStore {
    /// Store for `dim`-dimensional embeddings. `bound = Some(b)` makes any
    /// read with version gap `> b` an error (NeutronOrch sets `b = 2n−1`);
    /// `None` allows unbounded reuse (GAS-like).
    pub fn new(dim: usize, bound: Option<u64>) -> Self {
        Self {
            dim,
            bound,
            entries: HashMap::new(),
            max_observed_gap: 0,
            reads: 0,
        }
    }

    /// Inserts/refreshes the embedding of `v` computed at `version`.
    pub fn put(&mut self, v: VertexId, row: Vec<f32>, version: u64) {
        assert_eq!(row.len(), self.dim, "dimension mismatch");
        self.entries.insert(v, (row, version));
    }

    /// Reads `v`'s embedding at current version `now`, recording the gap.
    /// Returns `Ok(None)` when no embedding exists.
    pub fn get(&mut self, v: VertexId, now: u64) -> Result<Option<(&[f32], u64)>, StaleReadError> {
        match self.entries.get(&v) {
            None => Ok(None),
            Some((row, version)) => {
                let gap = now.saturating_sub(*version);
                if let Some(bound) = self.bound {
                    if gap > bound {
                        return Err(StaleReadError {
                            vertex: v,
                            version: *version,
                            now,
                            bound,
                        });
                    }
                }
                self.reads += 1;
                self.max_observed_gap = self.max_observed_gap.max(gap);
                Ok(Some((row.as_slice(), gap)))
            }
        }
    }

    /// Publishes a whole refresh batch computed at `version` — the
    /// super-batch flip of the double-buffered refresh: the worker computes
    /// rows against an immutable parameter snapshot off to the side, then
    /// the train stage installs them all at once at the next boundary. A
    /// vertex already in the store keeps its buffer (the row is copied over
    /// it), so steady-state publishes allocate nothing.
    pub fn put_rows(&mut self, rows: &EmbeddingRows, version: u64) {
        for (v, row) in rows.iter() {
            assert_eq!(row.len(), self.dim, "dimension mismatch");
            match self.entries.entry(v) {
                Entry::Occupied(mut entry) => {
                    let (stored, stamp) = entry.get_mut();
                    stored.copy_from_slice(row);
                    *stamp = version;
                }
                Entry::Vacant(slot) => {
                    slot.insert((row.to_vec(), version));
                }
            }
        }
    }

    /// Drops every entry older than `cutoff` — NeutronOrch's super-batch
    /// retirement ("historical embeddings from the previous super-batch are
    /// only accessible within the current super-batch").
    pub fn evict_older_than(&mut self, cutoff: u64) {
        self.entries.retain(|_, (_, version)| *version >= cutoff);
    }

    /// Number of stored embeddings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest version gap any successful read observed.
    pub fn max_observed_gap(&self) -> u64 {
        self.max_observed_gap
    }

    /// Number of successful reads (embedding reuses).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes held (entries × dim × 4).
    pub fn bytes(&self) -> u64 {
        (self.entries.len() * self.dim * 4) as u64
    }

    /// Captures the store's complete state, sorted by vertex id (the
    /// backing map iterates in arbitrary order, so a checkpoint must not
    /// serialize it directly).
    pub fn snapshot(&self) -> StoreSnapshot {
        let mut rows: Vec<(VertexId, Vec<f32>, u64)> = self
            .entries
            .iter()
            .map(|(&v, (row, version))| (v, row.clone(), *version))
            .collect();
        rows.sort_unstable_by_key(|(v, _, _)| *v);
        StoreSnapshot {
            dim: self.dim,
            bound: self.bound,
            rows,
            max_observed_gap: self.max_observed_gap,
            reads: self.reads,
        }
    }

    /// Rebuilds a store from a snapshot. The counters round-trip too, so a
    /// restored trainer reports the same `max_observed_gap`/`reads` series
    /// the uninterrupted run would.
    pub fn from_snapshot(snap: &StoreSnapshot) -> Self {
        let mut store = Self::new(snap.dim, snap.bound);
        for (v, row, version) in &snap.rows {
            store.put(*v, row.clone(), *version);
        }
        store.max_observed_gap = snap.max_observed_gap;
        store.reads = snap.reads;
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_with_gap() {
        let mut s = EmbeddingStore::new(3, Some(5));
        s.put(7, vec![1.0, 2.0, 3.0], 10);
        let (row, gap) = s.get(7, 12).unwrap().unwrap();
        assert_eq!(row, &[1.0, 2.0, 3.0]);
        assert_eq!(gap, 2);
        assert_eq!(s.max_observed_gap(), 2);
        assert_eq!(s.reads(), 1);
    }

    #[test]
    fn missing_vertex_is_none_not_error() {
        let mut s = EmbeddingStore::new(2, Some(1));
        assert_eq!(s.get(0, 100).unwrap(), None);
    }

    #[test]
    fn bound_violation_is_an_error() {
        let mut s = EmbeddingStore::new(1, Some(3));
        s.put(1, vec![0.5], 0);
        assert!(s.get(1, 3).is_ok());
        let err = s.get(1, 4).unwrap_err();
        assert_eq!(err.bound, 3);
        assert_eq!(err.now - err.version, 4);
        // A failed read must not pollute the observed-gap statistics.
        assert_eq!(s.max_observed_gap(), 3);
    }

    #[test]
    fn unbounded_store_accepts_any_gap() {
        let mut s = EmbeddingStore::new(1, None);
        s.put(1, vec![0.1], 0);
        let (_, gap) = s.get(1, 1_000_000).unwrap().unwrap();
        assert_eq!(gap, 1_000_000);
    }

    #[test]
    fn put_rows_publishes_a_batch_at_one_version() {
        let mut s = EmbeddingStore::new(2, Some(3));
        s.put(2, vec![0.0, 0.0], 1);
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
        assert_eq!(s.len(), 2);
        let (row, gap) = s.get(2, 6).unwrap().unwrap();
        assert_eq!(row, &[2.0, 2.0], "an existing entry is overwritten");
        assert_eq!(gap, 1);
        assert_eq!(s.get(1, 6).unwrap().unwrap().0, &[1.0, 1.0]);
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
    fn eviction_retires_old_versions() {
        let mut s = EmbeddingStore::new(1, None);
        s.put(1, vec![0.0], 5);
        s.put(2, vec![0.0], 9);
        s.evict_older_than(6);
        assert_eq!(s.len(), 1);
        assert!(s.get(1, 10).unwrap().is_none());
        assert!(s.get(2, 10).unwrap().is_some());
    }

    #[test]
    fn bytes_accounting() {
        let mut s = EmbeddingStore::new(4, None);
        s.put(0, vec![0.0; 4], 0);
        s.put(1, vec![0.0; 4], 0);
        assert_eq!(s.bytes(), 32);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let mut s = EmbeddingStore::new(2, None);
        s.put(0, vec![0.0; 3], 0);
    }

    #[test]
    fn snapshot_is_sorted_and_restores_counters() {
        let mut s = EmbeddingStore::new(2, Some(7));
        s.put(9, vec![9.0, 9.0], 3);
        s.put(1, vec![1.0, 1.0], 5);
        s.put(4, vec![4.0, 4.0], 2);
        let _ = s.get(9, 6); // gap 3, one read
        let snap = s.snapshot();
        assert_eq!(
            snap.rows.iter().map(|(v, _, _)| *v).collect::<Vec<_>>(),
            vec![1, 4, 9]
        );
        let restored = EmbeddingStore::from_snapshot(&snap);
        assert_eq!(restored.max_observed_gap(), 3);
        assert_eq!(restored.reads(), 1);
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.snapshot(), snap, "round-trip is lossless");
    }
}
