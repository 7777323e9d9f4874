//! Property tests of the pooled (buffer-recycling) hot paths introduced
//! with the allocation-free engine: for any seed set, recycled-buffer
//! state and cache membership — including degenerate shapes (empty batch,
//! single vertex, heavily reused dirty buffers) — the sampler and the
//! gather on recycled buffers (every row the train stage then reads in
//! place) must be **value-identical** to the same paths on fresh ones.
//! Pooling transfers capacity, never contents.
//!
//! The same file pins the **pruned stack** every one of those paths must
//! handle: a sampler with a bottom skip set drops the reused (hot) vertices
//! from the frontier before the bottom hop, identically on all three
//! `sample_batch*` entry points, and an all-hot frontier's empty bottom
//! block flows through gather, the prepared batch's row view and every
//! layer kind.

use neutronorch::cache::FeatureCache;
use neutronorch::core::gather::{GatheredFeatures, StagedBatch};
use neutronorch::core::pool::BatchBuffers;
use neutronorch::graph::dataset::DatasetSpec;
use neutronorch::graph::generate::erdos_renyi;
use neutronorch::nn::model::{GnnModel, ModelConfig};
use neutronorch::nn::LayerKind;
use neutronorch::sample::{
    Block, BlockBuilder, Fanout, HotSet, HotnessRanking, LocalityCounts, NeighborSampler,
};
use neutronorch::tensor::{init, Matrix};
use proptest::prelude::*;
use std::sync::Arc;

fn assert_blocks_match(fresh: &[Block], pooled: &[Block], what: &str) {
    assert_eq!(fresh.len(), pooled.len(), "{what}: layer count");
    for (a, b) in fresh.iter().zip(pooled) {
        assert_eq!(a.dst(), b.dst(), "{what}: dst");
        assert_eq!(a.src(), b.src(), "{what}: src");
        assert_eq!(a.num_edges(), b.num_edges(), "{what}: edges");
        for i in 0..a.num_dst() {
            assert_eq!(a.neighbors_local(i), b.neighbors_local(i), "{what}: adj");
        }
        b.validate().expect(what);
    }
}

/// The hot set holding exactly the flagged vertices.
fn hot_set(flags: &[bool]) -> Arc<HotSet> {
    let counts: Vec<u32> = flags.iter().map(|&f| f as u32).collect();
    let k = flags.iter().filter(|&&f| f).count();
    let hot = HotnessRanking::from_counts(counts).hot_set(k as f64 / flags.len() as f64);
    assert_eq!(hot.len(), k);
    Arc::new(hot)
}

/// One batch through the three multi-hop entry points (the biased one over
/// a single partition, where it must degenerate to the unbiased draw).
fn sample_all_ways(
    sampler: &NeighborSampler,
    g: &neutronorch::graph::Csr,
    seeds: &[u32],
    seed: u64,
    builder: &mut BlockBuilder,
) -> [Vec<Block>; 3] {
    let allocating = sampler.sample_batch(g, seeds, seed);
    let pooled = sampler.sample_batch_pooled(g, seeds, seed, builder);
    let owner = vec![0u32; g.num_vertices()];
    let biased = sampler.sample_batch_pooled_biased(
        g,
        seeds,
        seed,
        builder,
        &owner,
        0,
        &mut LocalityCounts::default(),
    );
    [allocating, pooled, biased]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pruned stack, for random graphs, batches and hot sets (empty,
    /// all-hot, exactly-the-seeds and random), on all three entry points:
    /// the bottom block's dst is `blocks[1].src()` minus the hot vertices,
    /// in order; the upper blocks are those of a sampler with no skip set;
    /// an empty skip set changes nothing at all (the bottom hop draws last,
    /// so an identical bottom block pins the whole rng stream); and pooled,
    /// allocating and single-partition biased sampling agree block for
    /// block.
    #[test]
    fn pruned_stack_drops_exactly_the_hot_bottom_rows_on_every_entry_point(
        seed in 0u64..10_000,
        layers in 2usize..4,
        size in 0usize..20,
        // 0 = empty, 1 = all hot, 2 = exactly the seeds, 3 = random.
        mode in 0usize..4,
        flags in proptest::collection::vec(any::<bool>(), 150..151),
    ) {
        let n = flags.len();
        let g = erdos_renyi(n, 1200, seed);
        let seeds: Vec<u32> = (0..size as u32)
            .map(|i| ((seed as u32).wrapping_mul(17) + i * 7) % n as u32)
            .collect();
        let hot_flags: Vec<bool> = (0..n)
            .map(|v| match mode {
                0 => false,
                1 => true,
                2 => seeds.contains(&(v as u32)),
                _ => flags[v],
            })
            .collect();
        let hot = hot_set(&hot_flags);
        let fanout = Fanout::new(vec![3; layers]);
        let plain = NeighborSampler::new(fanout.clone());
        let pruning = NeighborSampler::new(fanout).with_bottom_skip(Arc::clone(&hot));
        let mut builder = BlockBuilder::new();
        let reference = plain.sample_batch(&g, &seeds, seed);
        let stacks = sample_all_ways(&pruning, &g, &seeds, seed, &mut builder);
        for stack in &stacks {
            assert_blocks_match(&stacks[0], stack, "entry points under pruning");
            assert_blocks_match(&reference[1..], &stack[1..], "upper blocks");
            let want: Vec<u32> = stack[1]
                .src()
                .iter()
                .copied()
                .filter(|&v| !hot.contains(v))
                .collect();
            prop_assert_eq!(stack[0].dst(), &want[..]);
            if mode == 0 {
                assert_blocks_match(&reference, stack, "empty skip set");
            }
            if mode == 1 {
                prop_assert_eq!(stack[0].num_src(), 0, "an all-hot frontier samples nothing");
            }
        }
        // A one-layer fanout has no layer to reuse into: never pruned.
        let one = NeighborSampler::new(Fanout::new(vec![3]));
        let one_pruning = one.clone().with_bottom_skip(Arc::clone(&hot));
        for stack in sample_all_ways(&one_pruning, &g, &seeds, seed, &mut builder) {
            assert_blocks_match(&one.sample_batch(&g, &seeds, seed), &stack, "one layer");
        }
    }

    /// An all-hot frontier yields a valid *empty* bottom block, and
    /// everything downstream of the sampler takes it: the cache-keyed
    /// gather, the prepared batch's (empty) row view, and forward +
    /// backward of every layer kind, with the reused rows spliced in.
    #[test]
    fn empty_bottom_block_flows_through_gather_assembly_and_every_layer_kind(
        seed in 0u64..10_000,
        size in 1usize..12,
        cached in proptest::collection::vec(any::<bool>(), 80..81),
    ) {
        let n = cached.len();
        let g = erdos_renyi(n, 500, seed);
        let seeds: Vec<u32> = (0..size as u32).map(|i| (seed as u32 + i * 5) % n as u32).collect();
        let sampler = NeighborSampler::new(Fanout::new(vec![3, 3]))
            .with_bottom_skip(hot_set(&vec![true; n]));
        let blocks = sampler.sample_batch(&g, &seeds, seed);
        blocks[0].validate().unwrap();
        prop_assert_eq!((blocks[0].num_dst(), blocks[0].num_src(), blocks[0].num_edges()), (0, 0, 0));

        let dim = 4;
        let host = init::uniform(n, dim, -1.0, 1.0, seed);
        let cached: Vec<u32> = (0..n as u32).filter(|&v| cached[v as usize]).collect();
        let cache = FeatureCache::for_vertices(&cached, n, host.as_slice(), dim);
        let mut bufs = BatchBuffers::new();
        let gathered = GatheredFeatures::gather_from_pooled(&host, &blocks[0], &cache, &mut bufs);
        prop_assert_eq!((gathered.num_hits(), gathered.num_misses()), (0, 0));
        prop_assert_eq!(gathered.h2d_feature_bytes(), 0);
        let staged = StagedBatch { index: 0, blocks, features: gathered, bufs };
        let prepared = staged.into_prepared(&cache);
        let (blocks, features) = (&prepared.blocks, prepared.rows());
        prop_assert_eq!((features.rows(), features.cols()), (0, dim));

        let d_logits = Matrix::full(blocks[1].num_dst(), 3, 0.25);
        for kind in LayerKind::ALL {
            let mut model = GnnModel::new(ModelConfig {
                kind,
                feature_dim: dim,
                hidden_dim: 5,
                num_classes: 3,
                layers: 2,
                seed,
            });
            let pass = model.forward_spliced(blocks, features, |out| {
                prop_assert_eq!(out.shape(), (blocks[1].num_src(), 5));
                out.as_mut_slice().fill(0.5);
            });
            prop_assert!(pass.logits().all_finite(), "{kind:?}");
            model.zero_grad();
            let d_features = model.backward(blocks, pass, &d_logits);
            prop_assert_eq!(d_features.shape(), (0, dim));
            // Nothing reached the bottom layer: its gradients stay zero.
            for p in model.layers()[0].params() {
                prop_assert_eq!(p.grad.frobenius_norm(), 0.0, "{:?}", kind);
            }
        }
    }

    /// The pooled sampler replays the allocating sampler exactly, with one
    /// builder reused (and re-fed dirty buffers) across a whole run of
    /// randomly sized batches — empty and single-vertex batches included.
    #[test]
    fn pooled_sampler_is_value_identical_on_any_batch_shape(
        seed in 0u64..1000,
        sizes in proptest::collection::vec(0usize..24, 1..6),
    ) {
        let ds = DatasetSpec::tiny().build_topology();
        let n = ds.csr.num_vertices() as u32;
        let sampler = NeighborSampler::new(Fanout::new(vec![4, 3]));
        let mut builder = BlockBuilder::new();
        for (bi, &size) in sizes.iter().enumerate() {
            let seeds: Vec<u32> = (0..size as u32)
                .map(|i| (seed as u32).wrapping_mul(31).wrapping_add(i * 7) % n)
                .collect();
            let s = seed ^ (bi as u64) << 32;
            let fresh = sampler.sample_batch(&ds.csr, &seeds, s);
            let pooled = sampler.sample_batch_pooled(&ds.csr, &seeds, s, &mut builder);
            assert_blocks_match(&fresh, &pooled, &format!("batch {bi} (|seeds|={size})"));
            // Recycle the pooled stack, dirty, into the builder — the next
            // batch must still match the allocating path bit for bit.
            let mut stack = pooled;
            for block in stack.drain(..) {
                builder.donate_parts(block.into_parts());
            }
            builder.donate_stack(stack);
        }
    }

    /// The pooled gather round-trips through an arbitrarily dirty buffer
    /// bundle and the prepared batch still reads a fresh bundle's rows — the
    /// host rows — bit for bit, for any cache membership and source set
    /// (empty and singleton included). The spent buffers must fold back
    /// into the bundle.
    #[test]
    fn pooled_gather_and_assembly_are_value_identical(
        dim in 1usize..5,
        cached_flags in proptest::collection::vec(any::<bool>(), 16..17),
        src_flags in proptest::collection::vec(any::<bool>(), 16..17),
        stale in proptest::collection::vec(0u32..100, 0..8),
    ) {
        let n = cached_flags.len();
        let mut host = Matrix::zeros(n, dim);
        for v in 0..n {
            let row: Vec<f32> = (0..dim).map(|c| (v * 31 + c) as f32).collect();
            host.copy_row_from(v, &row);
        }
        let cached: Vec<u32> = cached_flags
            .iter()
            .enumerate()
            .filter_map(|(v, &f)| f.then_some(v as u32))
            .collect();
        let cache = FeatureCache::for_vertices(&cached, n, host.as_slice(), dim);
        let src: Vec<u32> = src_flags
            .iter()
            .enumerate()
            .filter_map(|(v, &f)| f.then_some(v as u32))
            .collect();
        let offsets = vec![0u32; src.len() + 1];
        let block = Block::new(src.clone(), src.clone(), offsets, Vec::new());

        // A bundle poisoned with stale garbage of unrelated shapes.
        let mut bufs = BatchBuffers::new();
        bufs.put_pos(stale.clone());
        bufs.put_f32(stale.iter().map(|&x| x as f32 + 0.5).collect());
        bufs.put_f32(vec![9.25; 3]);

        let stage = |mut bufs: BatchBuffers| {
            let features = GatheredFeatures::gather_from_pooled(&host, &block, &cache, &mut bufs);
            StagedBatch { index: 0, blocks: vec![block.clone()], features, bufs }
        };
        let (want, got) = (stage(BatchBuffers::new()), stage(bufs));
        prop_assert_eq!(got.features.num_hits(), want.features.num_hits());
        prop_assert_eq!(got.features.num_misses(), want.features.num_misses());
        prop_assert_eq!(got.features.h2d_feature_bytes(), want.features.h2d_feature_bytes());

        let (want, got) = (want.into_prepared(&cache), got.into_prepared(&cache));
        let (want_v, got_v) = (want.rows(), got.rows());
        prop_assert_eq!((got_v.rows(), got_v.cols()), (want_v.rows(), want_v.cols()));
        prop_assert_eq!(got_v.rows(), src.len());
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (p, &v) in src.iter().enumerate() {
            prop_assert_eq!(bits(got_v.row(p)), bits(want_v.row(p)));
            prop_assert_eq!(bits(got_v.row(p)), bits(host.row(v as usize)));
        }
        // The row index came back to the bundle when nothing hit (a batch
        // with hits carries it); the miss matrix is the batch's `features`.
        let no_hits = got.features.rows() == src.len();
        prop_assert_eq!(got.scrap.pos_bufs.len(), no_hits as usize);
        prop_assert!(!got.scrap.f32_bufs.is_empty());
    }
}
