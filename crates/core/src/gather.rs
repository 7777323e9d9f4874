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
//! transfer charges *miss* bytes only; the train stage reads each row where
//! it lives: hits in the cache's table, misses in the shipped matrix.
//! ```
//!
//! Bit-identity: the bottom layer reads its input through a [`RowView`]
//! that yields, float for float, the rows a full host gather would have
//! produced (cache rows are verbatim copies of the host rows), so training
//! results are independent of the cache budget — only the byte accounting
//! changes.
//!
//! There is one gather, over a [`BatchBuffers`] bundle: a session lane
//! passes a recycled one, the sequential reference a fresh one
//! ([`crate::pipeline::stage_batch`] calls it). Host rows outside a batch —
//! refresh tasks, evaluation — are read in place by vertex id
//! ([`RowView::gather`] over `dataset.features()`).

use crate::pool::BatchBuffers;
use crate::trainer::PreparedBatch;
use neutron_cache::FeatureCache;
use neutron_graph::Dataset;
use neutron_sample::Block;
use neutron_tensor::timing::{self, Kernel};
use neutron_tensor::{Matrix, RowView};
use std::sync::Arc;

/// One batch's gathered features, split by cache residency. `miss` holds
/// the host-gathered rows in source order (the only feature bytes the
/// transfer stage must ship); `index` has one [`RowView`] entry per source
/// position: a row of `miss`, or a cache slot tagged `SECONDARY`.
pub struct GatheredFeatures {
    miss: Matrix,
    index: Vec<u32>,
}

impl GatheredFeatures {
    /// Probes `cache` for every source vertex of `bottom` (already deduped
    /// at sampling time — no second dedup pass) and host-gathers only the
    /// misses, drawing the index and the miss buffer from `bufs`.
    pub fn gather_pooled(
        dataset: &Dataset,
        bottom: &Block,
        cache: &FeatureCache,
        bufs: &mut BatchBuffers,
    ) -> Self {
        Self::gather_from_pooled(dataset.features(), bottom, cache, bufs)
    }

    /// [`Self::gather_pooled`] against an explicit host feature matrix.
    pub fn gather_from_pooled(
        features: &Matrix,
        bottom: &Block,
        cache: &FeatureCache,
        bufs: &mut BatchBuffers,
    ) -> Self {
        let src = bottom.src();
        let mut index = bufs.take_pos();
        index.reserve(src.len());
        let mut misses = 0;
        for &v in src {
            index.push(match cache.slot(v) {
                Some(slot) => RowView::SECONDARY | slot,
                None => {
                    misses += 1;
                    misses - 1
                }
            });
        }
        // The misses' host rows in source order, appended into reserved
        // capacity (no zero fill).
        let t0 = timing::start();
        let dim = features.cols();
        let mut miss = bufs.take_f32();
        miss.reserve(misses as usize * dim);
        for (&v, &entry) in src.iter().zip(&index) {
            if entry & RowView::SECONDARY == 0 {
                miss.extend_from_slice(features.row(v as usize));
            }
        }
        timing::stop(Kernel::Gather, t0);
        let miss = Matrix::from_vec(misses as usize, dim, miss);
        Self { miss, index }
    }

    /// Source vertices served from the GPU-resident cache.
    pub fn num_hits(&self) -> usize {
        self.index.len() - self.miss.rows()
    }

    /// Source vertices gathered on the host (and transferred).
    pub fn num_misses(&self) -> usize {
        self.miss.rows()
    }

    /// Feature bytes the transfer stage must ship: the miss rows only.
    pub fn h2d_feature_bytes(&self) -> u64 {
        (self.miss.rows() * self.miss.cols() * std::mem::size_of::<f32>()) as u64
    }
}

/// Where a prepared batch reads its cache hits: one [`RowView`] index entry
/// per source position and a handle on the row table of the cache the
/// batch was gathered against. Empty (the default) when nothing hit: the
/// batch's `features` then hold every source row, in order.
#[derive(Default)]
pub struct CacheHits {
    pub(crate) index: Vec<u32>,
    pub(crate) table: Arc<[f32]>,
}

/// A batch between the gather and train stages: sampled blocks plus the
/// split gather. This is what flows through the engine's channels; cache
/// hits never touch a channel or the simulated PCIe link, and
/// [`StagedBatch::into_prepared`] hands the train stage a handle on the
/// cache's rows instead of copies.
pub struct StagedBatch {
    /// Position of this batch within its epoch (train order).
    pub index: usize,
    /// Bottom-first sampled block stack.
    pub blocks: Vec<Block>,
    /// The split gather of `blocks[0].src()`.
    pub features: GatheredFeatures,
    /// Spare recycled capacity riding along; spent buffers are folded back
    /// in so the train stage can return the whole bundle to the pool.
    /// Fresh (allocating behaviour) on the sequential path.
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

    /// The [`PreparedBatch`] the trainer consumes: the shipped miss rows as
    /// `features`, plus — when anything hit — the index and a handle on
    /// `cache`'s rows (the cache the batch was gathered against). Nothing
    /// is copied; the ride-along bundle moves into the prepared batch's
    /// `scrap` so the post-train recycler can return everything.
    pub fn into_prepared(self, cache: &FeatureCache) -> PreparedBatch {
        let StagedBatch {
            index,
            blocks,
            features: GatheredFeatures { miss, index: rows },
            mut bufs,
        } = self;
        let hits = if rows.len() > miss.rows() {
            CacheHits {
                index: rows,
                table: Arc::clone(cache.table()),
            }
        } else {
            bufs.put_pos(rows);
            CacheHits::default()
        };
        PreparedBatch {
            index,
            blocks,
            features: miss,
            hits,
            scrap: bufs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_graph::VertexId;

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

    fn stage(host: &Matrix, b: Block, cache: &FeatureCache, mut bufs: BatchBuffers) -> StagedBatch {
        let features = GatheredFeatures::gather_from_pooled(host, &b, cache, &mut bufs);
        StagedBatch {
            index: 0,
            blocks: vec![b],
            features,
            bufs,
        }
    }

    /// Every row the prepared batch's view yields is the host row of its
    /// source vertex, bit for bit.
    fn assert_reads_host_rows(prepared: &PreparedBatch, host: &Matrix) {
        let src = prepared.blocks[0].src();
        let view = prepared.rows();
        assert_eq!((view.rows(), view.cols()), (src.len(), host.cols()));
        for (p, &v) in src.iter().enumerate() {
            let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(view.row(p)),
                bits(host.row(v as usize)),
                "position {p}"
            );
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The bottom layer reading a prepared batch's rows in place computes
    /// what it computes on the dense host gather, bit for bit — outputs and
    /// parameter gradients (SAGE keeps its self rows and GAT its whole
    /// input for backward) — for every layer kind on all-miss, mixed and
    /// all-hit caches over an empty, a zero-degree and a sampled block.
    #[test]
    fn bottom_layer_through_the_view_equals_the_dense_forward() {
        use neutron_nn::layers::{Layer, LayerKind};
        let host = neutron_tensor::init::uniform(12, 5, -1.0, 1.0, 3);
        let all: Vec<VertexId> = (0..12).collect();
        let caches = [
            FeatureCache::empty(),
            FeatureCache::for_vertices(&[2, 4, 11], 12, host.as_slice(), 5),
            FeatureCache::for_vertices(&all, 12, host.as_slice(), 5),
        ];
        let blocks = [
            Block::new(vec![], vec![], vec![0], vec![]),
            Block::new(vec![7, 2], vec![7, 2], vec![0, 0, 0], vec![]),
            // 7 <- {2, 9, 4}, 2 <- {11}.
            Block::new(
                vec![7, 2],
                vec![7, 2, 9, 4, 11],
                vec![0, 3, 4],
                vec![1, 2, 3, 4],
            ),
        ];
        for kind in LayerKind::ALL {
            let layer = Layer::new(kind, 5, 3, false, 9);
            for block in &blocks {
                let sources = block.src();
                let dense = host.gather_rows_u32(sources);
                let (want, want_ctx) = layer.forward(block, &dense);
                let d_out = Matrix::full(want.rows(), want.cols(), 0.5);
                let mut want_layer = layer.clone();
                want_layer.backward(block, want_ctx, &d_out, false);
                for cache in &caches {
                    let prepared = stage(&host, block.clone(), cache, BatchBuffers::new())
                        .into_prepared(cache);
                    let (got, got_ctx) = layer.forward(block, prepared.rows());
                    let what = format!(
                        "{kind:?}, {} sources, {} cached",
                        block.num_src(),
                        cache.len()
                    );
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    let mut got_layer = layer.clone();
                    got_layer.backward(block, got_ctx, &d_out, false);
                    for (g, w) in got_layer.params().iter().zip(want_layer.params()) {
                        assert_eq!(bits(&g.grad), bits(&w.grad), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_cache_reproduces_the_full_gather_with_full_bytes() {
        let host = features(10, 3);
        let cache = FeatureCache::empty();
        let staged = stage(&host, block(vec![7, 2, 9]), &cache, BatchBuffers::new());
        let gf = &staged.features;
        assert_eq!(gf.num_hits(), 0);
        assert_eq!(gf.num_misses(), 3);
        assert_eq!(gf.h2d_feature_bytes(), 3 * 3 * 4);
        let prepared = staged.into_prepared(&cache);
        // The degenerate view: `features` is the full gather, in order.
        assert_eq!(prepared.features, host.gather_rows(&[7, 2, 9]));
        assert!(prepared.hits.index.is_empty());
        assert_reads_host_rows(&prepared, &host);
    }

    #[test]
    fn cache_hits_cut_bytes_but_not_the_assembled_matrix() {
        let host = features(10, 3);
        let cache = FeatureCache::for_vertices(&[2, 4, 5], 10, host.as_slice(), 3);
        let staged = stage(&host, block(vec![7, 2, 9, 4]), &cache, BatchBuffers::new());
        assert_eq!(staged.features.num_hits(), 2); // 2 and 4
        assert_eq!(staged.features.num_misses(), 2); // 7 and 9
        assert_eq!(staged.features.h2d_feature_bytes(), 2 * 3 * 4);
        let prepared = staged.into_prepared(&cache);
        // Only the misses were shipped; the view reads every row in place.
        assert_eq!(prepared.features, host.gather_rows(&[7, 9]));
        assert_reads_host_rows(&prepared, &host);
        assert_eq!(prepared.rows().to_matrix(), host.gather_rows(&[7, 2, 9, 4]));
    }

    #[test]
    fn fully_cached_batch_ships_zero_feature_bytes() {
        let host = features(6, 2);
        let cache = FeatureCache::for_vertices(&[0, 1, 2, 3, 4, 5], 6, host.as_slice(), 2);
        let staged = stage(&host, block(vec![1, 3, 5]), &cache, BatchBuffers::new());
        assert_eq!(staged.features.num_misses(), 0);
        assert_eq!(staged.features.h2d_feature_bytes(), 0);
        let prepared = staged.into_prepared(&cache);
        assert_eq!(prepared.features.rows(), 0);
        assert_reads_host_rows(&prepared, &host);
    }

    #[test]
    fn pooled_gather_and_assemble_match_allocating_path_with_dirty_buffers() {
        let host = features(12, 3);
        let cache = FeatureCache::for_vertices(&[2, 4], 12, host.as_slice(), 3);
        let src = vec![7, 2, 9, 4, 11];

        let mut bufs = BatchBuffers::new();
        // Poison the bundle with stale capacity of the wrong shapes.
        bufs.put_pos(vec![3; 9]);
        bufs.put_pos(vec![1]);
        bufs.put_f32(vec![55.5; 2]);
        bufs.put_f32(vec![0.25; 31]);

        let want = stage(&host, block(src.clone()), &cache, BatchBuffers::new());
        let got = stage(&host, block(src), &cache, bufs);
        assert_eq!(got.features.num_hits(), want.features.num_hits());
        assert_eq!(got.features.num_misses(), want.features.num_misses());
        assert_eq!(
            got.features.h2d_feature_bytes(),
            want.features.h2d_feature_bytes()
        );

        let (want, got) = (want.into_prepared(&cache), got.into_prepared(&cache));
        assert_eq!(got.rows().to_matrix(), want.rows().to_matrix());
        assert_reads_host_rows(&got, &host);
        // The index travels with the batch (2 and 4 hit); the stale
        // position buffers stay in the bundle.
        assert_eq!(got.hits.index.len(), 5);
        assert_eq!(got.scrap.pos_bufs.len(), 1);
    }

    #[test]
    fn staged_batch_charges_structure_bytes_on_top_of_misses() {
        let host = features(8, 2);
        // One real edge: dst 1 aggregates from src position 1 (vertex 6).
        let b = Block::new(vec![1], vec![1, 6], vec![0, 1], vec![1]);
        let cache = FeatureCache::for_vertices(&[6], 8, host.as_slice(), 2);
        let staged = stage(&host, b, &cache, BatchBuffers::new());
        // miss = vertex 1 only (6 is cached): 1 row * 2 dims * 4 B + 8 B edge.
        assert_eq!(staged.h2d_bytes(), 8 + 8);
        let prepared = staged.into_prepared(&cache);
        assert_reads_host_rows(&prepared, &host);
        assert_eq!(prepared.index, 0);
    }
}
