//! The cache-keyed gather stage: partitioning each batch's deduped source
//! vertices into GPU-cache hits and host misses, so the device feature
//! cache (§4.1.3) actually changes measured transfer volume (Fig 6c,
//! Fig 13).
//!
//! The flow per batch:
//!
//! ```text
//! blocks[0].src() --probe cache--> hits   (rows already device-resident)
//!                                  misses (host gather -> H2D transfer)
//! transfer charges *miss* bytes only; after the transfer the train stage
//! assembles the full feature matrix device-side from both halves.
//! ```
//!
//! Bit-identity: assembly reproduces, float for float, the matrix a full
//! host gather would have produced (cache rows are verbatim copies of the
//! host rows), so training results are independent of the cache budget —
//! only the byte accounting changes.
//!
//! There is one gather and one assembly, both over a [`BatchBuffers`]
//! bundle: a session lane passes a recycled one, the sequential reference
//! a fresh one ([`crate::pipeline::stage_batch`] calls both). The full
//! host gather outside a batch — refresh tasks, evaluation — is
//! [`Matrix::gather_rows_u32`].

use crate::pool::BatchBuffers;
use crate::trainer::PreparedBatch;
use neutron_cache::FeatureCache;
use neutron_graph::{Dataset, VertexId};
use neutron_sample::Block;
use neutron_tensor::Matrix;

/// One batch's gathered features, split by cache residency. `miss` holds
/// the host-gathered rows (the only feature bytes the transfer stage must
/// ship); `hit_pos`/`miss_pos` are local positions into the batch's source
/// list, together covering every source vertex exactly once.
pub struct GatheredFeatures {
    miss: Matrix,
    miss_pos: Vec<u32>,
    hit_pos: Vec<u32>,
}

impl GatheredFeatures {
    /// Probes `cache` for every source vertex of `bottom` (already deduped
    /// at sampling time — no second dedup pass) and host-gathers only the
    /// misses, drawing position lists and the miss buffer from `bufs`.
    pub fn gather_pooled(
        dataset: &Dataset,
        bottom: &Block,
        cache: &FeatureCache,
        bufs: &mut BatchBuffers,
    ) -> Self {
        Self::gather_from_pooled(dataset.features(), bottom, cache, bufs)
    }

    /// [`Self::gather_pooled`] against an explicit host feature matrix. The
    /// mapped row gather reads miss vertex ids straight out of `miss_pos`;
    /// no widened index vector is built.
    pub fn gather_from_pooled(
        features: &Matrix,
        bottom: &Block,
        cache: &FeatureCache,
        bufs: &mut BatchBuffers,
    ) -> Self {
        let mut hit_pos = bufs.take_pos();
        let mut miss_pos = bufs.take_pos();
        bottom.partition_src_into(|v| cache.contains(v), &mut hit_pos, &mut miss_pos);
        let mut miss = bufs.take_matrix();
        features.gather_rows_mapped_into(bottom.src(), &miss_pos, &mut miss);
        Self {
            miss,
            miss_pos,
            hit_pos,
        }
    }

    /// Source vertices served from the GPU-resident cache.
    pub fn num_hits(&self) -> usize {
        self.hit_pos.len()
    }

    /// Source vertices gathered on the host (and transferred).
    pub fn num_misses(&self) -> usize {
        self.miss_pos.len()
    }

    /// Rows of the host-gathered miss matrix: [`Self::num_misses`] when
    /// the gather is sound.
    pub(crate) fn miss_rows(&self) -> usize {
        self.miss.rows()
    }

    /// Feature bytes the transfer stage must ship: the miss rows only.
    pub fn h2d_feature_bytes(&self) -> u64 {
        (self.miss.rows() * self.miss.cols() * std::mem::size_of::<f32>()) as u64
    }

    /// Device-side assembly after the transfer: interleaves the shipped
    /// miss rows with the cache-resident hit rows back into source order,
    /// bit-identical to a full host gather of `src`. The output buffer
    /// comes from `bufs`, and the spent position/miss buffers go back to it.
    ///
    /// `hit_pos` and `miss_pos` come from [`Block::partition_src_into`], so
    /// both are sorted and together cover every position exactly once; a
    /// merge walk appends each output row straight into reserved capacity,
    /// never zero-filling a byte it is about to overwrite (the same measured
    /// win as the chunked row-gather kernel).
    pub fn assemble_pooled(
        self,
        src: &[VertexId],
        cache: &FeatureCache,
        bufs: &mut BatchBuffers,
    ) -> Matrix {
        let GatheredFeatures {
            miss,
            miss_pos,
            hit_pos,
        } = self;
        if hit_pos.is_empty() {
            // All-miss fast path (empty cache): the miss matrix already is
            // the full gather, in source order.
            debug_assert_eq!(miss_pos.len(), src.len());
            bufs.put_pos(miss_pos);
            bufs.put_pos(hit_pos);
            return miss;
        }
        let t0 = neutron_tensor::timing::start();
        let dim = miss.cols();
        let mut data = bufs.take_f32();
        data.reserve(src.len() * dim);
        let mut mi = 0;
        for (p, &vertex) in src.iter().enumerate() {
            if miss_pos.get(mi) == Some(&(p as u32)) {
                data.extend_from_slice(miss.row(mi));
                mi += 1;
            } else {
                data.extend_from_slice(cache.row(vertex));
            }
        }
        let out = Matrix::from_vec(src.len(), dim, data);
        bufs.put_f32(miss.into_vec());
        bufs.put_pos(miss_pos);
        bufs.put_pos(hit_pos);
        neutron_tensor::timing::stop(neutron_tensor::timing::Kernel::Gather, t0);
        out
    }
}

/// A batch between the gather and train stages: sampled blocks plus the
/// split gather. This is what flows through the engine's channels — the
/// dense feature matrix only exists after [`StagedBatch::into_prepared`]
/// runs device-side, so cache hits never touch a channel or the simulated
/// PCIe link.
pub struct StagedBatch {
    /// Position of this batch within its epoch (train order).
    pub index: usize,
    /// Bottom-first sampled block stack.
    pub blocks: Vec<Block>,
    /// The split gather of `blocks[0].src()`.
    pub features: GatheredFeatures,
    /// Spare recycled capacity riding along for assembly; spent buffers are
    /// folded back in so the train stage can return the whole bundle to the
    /// pool. Fresh (allocating behaviour) on the sequential path.
    pub bufs: BatchBuffers,
}

impl StagedBatch {
    /// Bytes this batch ships to the training device: host-gathered (miss)
    /// feature rows plus the sampled block structure (~8 bytes per edge).
    /// Cache hits cost nothing — that is the point.
    pub fn h2d_bytes(&self) -> u64 {
        let structure: u64 = self.blocks.iter().map(|b| b.num_edges() as u64 * 8).sum();
        self.features.h2d_feature_bytes() + structure
    }

    /// Device-side assembly into the dense [`PreparedBatch`] the trainer
    /// consumes. The ride-along buffer bundle supplies the assembly buffer
    /// and absorbs the spent gather buffers, then moves into the prepared
    /// batch's `scrap` so the post-train recycler can return everything.
    pub fn into_prepared(self, cache: &FeatureCache) -> PreparedBatch {
        let StagedBatch {
            index,
            blocks,
            features,
            mut bufs,
        } = self;
        let features = features.assemble_pooled(blocks[0].src(), cache, &mut bufs);
        PreparedBatch {
            index,
            blocks,
            features,
            scrap: bufs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(n: usize, dim: usize) -> Matrix {
        let mut m = Matrix::zeros(n, dim);
        for v in 0..n {
            let row: Vec<f32> = (0..dim).map(|c| (v * 31 + c) as f32).collect();
            m.copy_row_from(v, &row);
        }
        m
    }

    fn block(src: Vec<VertexId>) -> Block {
        let offsets = vec![0u32; src.len() + 1];
        Block::new(src.clone(), src, offsets, Vec::new())
    }

    #[test]
    fn empty_cache_reproduces_the_full_gather_with_full_bytes() {
        let host = features(10, 3);
        let b = block(vec![7, 2, 9]);
        let cache = FeatureCache::empty();
        let mut bufs = BatchBuffers::new();
        let gf = GatheredFeatures::gather_from_pooled(&host, &b, &cache, &mut bufs);
        assert_eq!(gf.num_hits(), 0);
        assert_eq!(gf.num_misses(), 3);
        assert_eq!(gf.h2d_feature_bytes(), 3 * 3 * 4);
        let full = host.gather_rows(&[7, 2, 9]);
        let assembled = gf.assemble_pooled(b.src(), &cache, &mut bufs);
        assert_eq!(assembled.as_slice(), full.as_slice());
    }

    #[test]
    fn cache_hits_cut_bytes_but_not_the_assembled_matrix() {
        let host = features(10, 3);
        let b = block(vec![7, 2, 9, 4]);
        let cache = FeatureCache::for_vertices(&[2, 4, 5], 10, host.as_slice(), 3);
        let mut bufs = BatchBuffers::new();
        let gf = GatheredFeatures::gather_from_pooled(&host, &b, &cache, &mut bufs);
        assert_eq!(gf.num_hits(), 2); // 2 and 4
        assert_eq!(gf.num_misses(), 2); // 7 and 9
        assert_eq!(gf.h2d_feature_bytes(), 2 * 3 * 4);
        let full = host.gather_rows(&[7, 2, 9, 4]);
        let assembled = gf.assemble_pooled(b.src(), &cache, &mut bufs);
        assert_eq!(assembled.as_slice(), full.as_slice());
    }

    #[test]
    fn fully_cached_batch_ships_zero_feature_bytes() {
        let host = features(6, 2);
        let b = block(vec![1, 3, 5]);
        let cache = FeatureCache::for_vertices(&[0, 1, 2, 3, 4, 5], 6, host.as_slice(), 2);
        let mut bufs = BatchBuffers::new();
        let gf = GatheredFeatures::gather_from_pooled(&host, &b, &cache, &mut bufs);
        assert_eq!(gf.num_misses(), 0);
        assert_eq!(gf.h2d_feature_bytes(), 0);
        let full = host.gather_rows(&[1, 3, 5]);
        assert_eq!(
            gf.assemble_pooled(b.src(), &cache, &mut bufs).as_slice(),
            full.as_slice()
        );
    }

    #[test]
    fn pooled_gather_and_assemble_match_allocating_path_with_dirty_buffers() {
        let host = features(12, 3);
        let b = block(vec![7, 2, 9, 4, 11]);
        let cache = FeatureCache::for_vertices(&[2, 4], 12, host.as_slice(), 3);

        let mut bufs = BatchBuffers::new();
        // Poison the bundle with stale capacity of the wrong shapes.
        bufs.put_pos(vec![3; 9]);
        bufs.put_pos(vec![1]);
        bufs.put_f32(vec![55.5; 2]);
        bufs.put_f32(vec![0.25; 31]);

        let want =
            GatheredFeatures::gather_from_pooled(&host, &b, &cache, &mut BatchBuffers::new());
        let got = GatheredFeatures::gather_from_pooled(&host, &b, &cache, &mut bufs);
        assert_eq!(got.num_hits(), want.num_hits());
        assert_eq!(got.num_misses(), want.num_misses());
        assert_eq!(got.h2d_feature_bytes(), want.h2d_feature_bytes());

        let want_m = want.assemble_pooled(b.src(), &cache, &mut BatchBuffers::new());
        let got_m = got.assemble_pooled(b.src(), &cache, &mut bufs);
        assert_eq!(got_m.as_slice(), want_m.as_slice());
        // Assembly folded its spent buffers back into the bundle.
        assert_eq!(bufs.pos_bufs.len(), 2);
        assert!(!bufs.f32_bufs.is_empty());
    }

    #[test]
    fn staged_batch_charges_structure_bytes_on_top_of_misses() {
        let host = features(8, 2);
        // One real edge: dst 1 aggregates from src position 1 (vertex 6).
        let b = Block::new(vec![1], vec![1, 6], vec![0, 1], vec![1]);
        let cache = FeatureCache::for_vertices(&[6], 8, host.as_slice(), 2);
        let mut bufs = BatchBuffers::new();
        let features = GatheredFeatures::gather_from_pooled(&host, &b, &cache, &mut bufs);
        let staged = StagedBatch {
            index: 0,
            blocks: vec![b],
            features,
            bufs,
        };
        // miss = vertex 1 only (6 is cached): 1 row * 2 dims * 4 B + 8 B edge.
        assert_eq!(staged.h2d_bytes(), 8 + 8);
        let prepared = staged.into_prepared(&cache);
        assert_eq!(
            prepared.features.as_slice(),
            host.gather_rows(&[1, 6]).as_slice()
        );
        assert_eq!(prepared.index, 0);
    }
}
