//! The GPU feature cache: device-resident row copies for the cache-keyed
//! gather.

use neutron_graph::VertexId;
use std::sync::Arc;

/// Slot-map sentinel for "vertex not cached".
const NOT_CACHED: u32 = u32::MAX;

/// A static GPU feature cache over a fixed vertex set. It holds the actual
/// feature rows, standing in for GPU-resident memory, so the train stage
/// reads hits here without touching the host feature matrix. Hits and
/// misses are counted by the gather that probes it (Fig 6c, Fig 13).
#[derive(Clone, Debug, Default)]
pub struct FeatureCache {
    /// Vertex → cache slot; [`NOT_CACHED`] when absent.
    slot: Vec<u32>,
    num_cached: usize,
    row_bytes: u64,
    /// Device-resident feature rows, one per slot, shared with every batch
    /// that reads a hit in place ([`Self::table`]).
    rows: Arc<[f32]>,
}

impl FeatureCache {
    /// A cache holding nothing: every probe misses, no memory is consumed.
    /// The canonical stand-in wherever a gather path runs cache-less.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a *materialised* cache for exactly `vertices` (e.g. a
    /// [`crate::HybridPlan`]'s `gpu_cache` list), copying each vertex's row
    /// out of the host feature matrix (`host_features` is row-major,
    /// `dim` floats per vertex). The copies stand in for GPU memory: once
    /// built, hits are served from here and the host matrix is not read.
    pub fn for_vertices(
        vertices: &[VertexId],
        num_vertices: usize,
        host_features: &[f32],
        dim: usize,
    ) -> Self {
        assert_eq!(
            host_features.len(),
            num_vertices * dim,
            "host feature matrix shape mismatch"
        );
        let mut slot = vec![NOT_CACHED; num_vertices];
        let mut unique: Vec<usize> = Vec::with_capacity(vertices.len());
        for &v in vertices {
            let s = v as usize;
            if slot[s] == NOT_CACHED {
                slot[s] = unique.len() as u32;
                unique.push(s);
            }
        }
        let num_cached = unique.len();
        // Bulk row copy through the shared gather kernel (slot order ==
        // unique order, so rows[slot[v]] is v's host row verbatim).
        let t0 = neutron_tensor::timing::start();
        let mut rows = Vec::new();
        neutron_tensor::kernels::gather_rows_into(&mut rows, host_features, dim, &unique);
        neutron_tensor::timing::stop(neutron_tensor::timing::Kernel::Gather, t0);
        Self {
            slot,
            num_cached,
            row_bytes: (dim * std::mem::size_of::<f32>()) as u64,
            rows: rows.into(),
        }
    }

    /// Number of cached vertices.
    pub fn len(&self) -> usize {
        self.num_cached
    }

    /// True when nothing fits.
    pub fn is_empty(&self) -> bool {
        self.num_cached == 0
    }

    /// Bytes the cache occupies on the device.
    pub fn bytes(&self) -> u64 {
        self.num_cached as u64 * self.row_bytes
    }

    /// Side-effect-free probe — the gather stage's fast path: `v`'s row
    /// number in [`Self::table`], or `None` when `v` is not cached.
    #[inline]
    pub fn slot(&self, v: VertexId) -> Option<u32> {
        self.slot
            .get(v as usize)
            .copied()
            .filter(|&s| s != NOT_CACHED)
    }

    /// The device-resident row table, one row per cached vertex in slot
    /// order. A batch that reads its hits in place keeps a handle on it.
    pub fn table(&self) -> &Arc<[f32]> {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_misses_every_probe_without_allocation() {
        let cache = FeatureCache::empty();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.slot(0), None);
        assert_eq!(cache.slot(1_000_000), None);
    }

    #[test]
    fn materialised_cache_serves_host_rows_verbatim() {
        // 4 vertices, dim 2: row of v is [10v, 10v+1].
        let host: Vec<f32> = (0..4)
            .flat_map(|v| [10.0 * v as f32, 10.0 * v as f32 + 1.0])
            .collect();
        let cache = FeatureCache::for_vertices(&[3, 1], 4, &host, 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 2 * 2 * 4);
        // Slots in plan order; the table holds each slot's host row.
        assert_eq!(
            (cache.slot(3), cache.slot(1), cache.slot(0), cache.slot(2)),
            (Some(0), Some(1), None, None)
        );
        assert_eq!(&cache.table()[..], &[30.0, 31.0, 10.0, 11.0]);
        assert_eq!(cache.slot(1_000_000), None);
    }

    #[test]
    fn duplicate_plan_vertices_occupy_one_slot() {
        let host = vec![0.0f32; 8];
        let cache = FeatureCache::for_vertices(&[2, 2, 2], 4, &host, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.table().len(), 2);
    }
}
