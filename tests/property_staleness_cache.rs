//! Property tests of the bounded-staleness machinery and cache policies —
//! the correctness core of NeutronOrch's §4.2.2 guarantee.

use neutronorch::cache::{EmbeddingStore, FeatureCache, HybridPolicy};
use neutronorch::core::gather::{GatheredFeatures, StagedBatch};
use neutronorch::sample::{Block, HotnessRanking};
use neutronorch::tensor::Matrix;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any put/get sequence, a bounded store never serves an
    /// embedding older than the bound, and the observed max gap is within
    /// it. A `BTreeMap` reference model checks every read's row and gap,
    /// and the snapshot: the model's rows in id order, whatever order the
    /// hot set ranks them in, and a lossless restore.
    #[test]
    fn bounded_store_never_exceeds_bound(
        bound in 1u64..10,
        counts in proptest::collection::vec(0u32..6, 12..13),
        ratio in 0.0f64..1.0,
        ops in proptest::collection::vec((0u32..12, 0u64..40, any::<bool>()), 1..60),
    ) {
        let hot = Arc::new(HotnessRanking::from_counts(counts).hot_set(ratio));
        let mut store = EmbeddingStore::new(Arc::clone(&hot), 2, Some(bound));
        let mut model: BTreeMap<u32, (Vec<f32>, u64)> = BTreeMap::new();
        let (mut clock, mut reads) = (0u64, 0u64);
        for (i, (v, advance, is_put)) in ops.into_iter().enumerate() {
            clock += advance % 5;
            // A cold vertex has no slot and is never stored.
            let Some(slot) = store.slot(v) else {
                prop_assert!(!hot.contains(v));
                continue;
            };
            if is_put {
                let row = vec![i as f32, -(v as f32)];
                store.put(slot, &row, clock);
                model.insert(v, (row, clock));
                continue;
            }
            let want = model.get(&v).map(|(row, version)| (row.clone(), clock - version));
            match store.get(slot, clock) {
                Ok(Some((row, gap))) => {
                    reads += 1;
                    prop_assert!(gap <= bound);
                    prop_assert_eq!(Some((row.to_vec(), gap)), want);
                }
                Ok(None) => prop_assert!(want.is_none()),
                Err(e) => {
                    prop_assert!(e.now - e.version > bound);
                    prop_assert_eq!(e.vertex, v);
                    prop_assert_eq!(want.map(|w| w.1), Some(e.now - e.version));
                }
            }
        }
        prop_assert!(store.max_observed_gap() <= bound);
        prop_assert_eq!(store.reads(), reads);
        let snap = store.snapshot();
        let rows: Vec<_> = model
            .into_iter()
            .map(|(v, (row, version))| (v, row, version))
            .collect();
        let stored: Vec<_> = snap
            .rows
            .iter()
            .zip(&snap.versions)
            .map(|((v, row), &version)| (v, row.to_vec(), version))
            .collect();
        prop_assert_eq!(stored, rows);
        let mut restored = EmbeddingStore::new(hot, 2, None);
        restored.restore(&snap).unwrap();
        prop_assert_eq!(restored.snapshot(), snap);
    }

    /// The hybrid split always partitions the hot set exactly and its GPU
    /// byte accounting matches the split.
    #[test]
    fn hybrid_split_partitions_exactly(
        n in 4usize..128,
        ratio in 0.0f64..1.0,
        idle in 0.0f64..1.0,
        free in 0u64..1_000_000,
    ) {
        let counts: Vec<u32> = (0..n as u32).rev().collect();
        let hot = HotnessRanking::from_counts(counts).hot_set(ratio);
        let policy = HybridPolicy { feature_row_bytes: 16, embedding_row_bytes: 4 };
        let plan = policy.plan(hot.vertices(), idle, free);
        prop_assert_eq!(plan.cpu_compute.len() + plan.gpu_cache.len(), hot.len());
        // No overlap.
        for v in &plan.gpu_cache {
            prop_assert!(!plan.cpu_compute.contains(v));
        }
        prop_assert_eq!(
            plan.gpu_bytes,
            plan.gpu_cache.len() as u64 * 16 + plan.cpu_compute.len() as u64 * 4
        );
        // Memory cap honoured, in *net* bytes: each cached vertex costs its
        // 16 B feature row minus the 4 B embedding staging slot it frees.
        prop_assert!(plan.gpu_cache.len() as u64 * 12 <= free + 12);
    }

    /// The cache-keyed gather accounts for every vertex exactly: for any
    /// cached subset and any batch, `hits + misses` equals the batch's
    /// deduped source count, the charged feature bytes equal
    /// `misses * feature_row_bytes` exactly, and every row the prepared
    /// batch's view reads is the host row of its source, bit for bit.
    #[test]
    fn cache_keyed_gather_accounts_every_vertex_exactly(
        dim in 1usize..8,
        cached_flags in proptest::collection::vec(any::<bool>(), 8..48),
        batch_flags in proptest::collection::vec(any::<bool>(), 8..48),
    ) {
        let n = cached_flags.len().max(batch_flags.len());
        let mut host = Matrix::zeros(n, dim);
        for v in 0..n {
            let row: Vec<f32> = (0..dim).map(|c| (v * 131 + c) as f32).collect();
            host.copy_row_from(v, &row);
        }
        let cached: Vec<u32> = cached_flags
            .iter()
            .enumerate()
            .filter_map(|(v, &f)| f.then_some(v as u32))
            .collect();
        let cache = FeatureCache::for_vertices(&cached, n, host.as_slice(), dim);
        // A batch whose deduped source set is any subset of the vertices
        // (self-edges only — partitioning doesn't look at edges).
        let src: Vec<u32> = batch_flags
            .iter()
            .enumerate()
            .filter_map(|(v, &f)| f.then_some(v as u32))
            .collect();
        let offsets = vec![0u32; src.len() + 1];
        let block = Block::new(src.clone(), src.clone(), offsets, Vec::new());

        let mut bufs = neutronorch::core::pool::BatchBuffers::new();
        let gf = GatheredFeatures::gather_from_pooled(&host, &block, &cache, &mut bufs);
        prop_assert_eq!(gf.num_hits() + gf.num_misses(), src.len());
        prop_assert_eq!(
            gf.num_hits(),
            src.iter().filter(|&&v| cache.slot(v).is_some()).count()
        );
        let row_bytes = (dim * 4) as u64;
        prop_assert_eq!(gf.h2d_feature_bytes(), gf.num_misses() as u64 * row_bytes);
        let staged = StagedBatch {
            index: 0,
            blocks: vec![block],
            features: gf,
            bufs,
        };
        // No sampled edges, so staged bytes are exactly the miss features.
        let misses = staged.features.num_misses() as u64;
        prop_assert_eq!(staged.h2d_bytes(), misses * row_bytes);
        // Every row the train stage reads, hit or miss, is the host row of
        // its source vertex, bit for bit.
        let prepared = staged.into_prepared(&cache);
        let view = prepared.rows();
        prop_assert_eq!((view.rows(), view.cols()), (src.len(), dim));
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (p, &v) in src.iter().enumerate() {
            prop_assert_eq!(bits(view.row(p)), bits(host.row(v as usize)));
        }
    }
}
