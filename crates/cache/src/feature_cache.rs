//! The GPU feature cache: device-resident row copies for the cache-keyed
//! gather.

use neutron_graph::VertexId;

/// Slot-map sentinel for "vertex not cached".
const NOT_CACHED: u32 = u32::MAX;

/// A static GPU feature cache over a fixed vertex set. It holds the actual
/// feature rows, standing in for GPU-resident memory, so the gather stage
/// serves hits without touching the host feature matrix. Hits and misses
/// are counted by the gather that probes it (Fig 6c, Fig 13).
#[derive(Clone, Debug, Default)]
pub struct FeatureCache {
    /// Vertex → cache slot; [`NOT_CACHED`] when absent.
    slot: Vec<u32>,
    num_cached: usize,
    row_bytes: u64,
    /// Device-resident feature rows, `dim` floats per slot.
    rows: Vec<f32>,
    dim: usize,
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
            rows,
            dim,
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

    /// Side-effect-free membership probe — the gather stage's fast path,
    /// safe to share (`Arc`) across worker threads within an epoch.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.slot.get(v as usize).is_some_and(|&s| s != NOT_CACHED)
    }

    /// The device-resident feature row of `v`. Panics if `v` is not cached.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[f32] {
        let s = self.slot[v as usize];
        assert!(s != NOT_CACHED, "vertex {v} is not cached");
        let at = s as usize * self.dim;
        &self.rows[at..at + self.dim]
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
        assert!(!cache.contains(0));
        assert!(!cache.contains(1_000_000));
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
        assert!(cache.contains(1) && cache.contains(3));
        assert!(!cache.contains(0) && !cache.contains(2));
        assert_eq!(cache.row(3), &[30.0, 31.0]);
        assert_eq!(cache.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn duplicate_plan_vertices_occupy_one_slot() {
        let host = vec![0.0f32; 8];
        let cache = FeatureCache::for_vertices(&[2, 2, 2], 4, &host, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn row_of_uncached_vertex_panics() {
        let host = vec![0.0f32; 4];
        let cache = FeatureCache::for_vertices(&[0], 2, &host, 2);
        let _ = cache.row(1);
    }
}
