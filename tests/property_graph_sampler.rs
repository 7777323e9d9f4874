//! Property tests: CSR invariants and neighbor-sampler guarantees under
//! randomly generated graphs and batches.

use neutronorch::graph::{Csr, GraphBuilder, VertexId};
use neutronorch::sample::{Block, Fanout, NeighborSampler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// The historical `HashMap`-deduplicated one-hop path, kept verbatim as the
/// reference the dense-scratch rewrite must reproduce block-for-block (same
/// local index assignment order, same rng consumption).
fn reference_one_hop(g: &Csr, frontier: &[VertexId], fanout: usize, rng: &mut StdRng) -> Block {
    let dst: Vec<VertexId> = frontier.to_vec();
    let mut src: Vec<VertexId> = dst.clone();
    let mut local: HashMap<VertexId, u32> = dst
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let mut offsets = Vec::with_capacity(dst.len() + 1);
    offsets.push(0u32);
    let mut indices = Vec::with_capacity(dst.len() * fanout);
    for &v in &dst {
        let picks = reference_distinct_neighbors(g, v, fanout, rng);
        for &u in &picks {
            let next = src.len() as u32;
            let idx = *local.entry(u).or_insert_with(|| {
                src.push(u);
                next
            });
            indices.push(idx);
        }
        offsets.push(indices.len() as u32);
    }
    Block::new(dst, src, offsets, indices)
}

fn reference_distinct_neighbors(
    g: &Csr,
    v: VertexId,
    fanout: usize,
    rng: &mut StdRng,
) -> Vec<VertexId> {
    let neigh = g.neighbors(v);
    if neigh.len() <= fanout {
        return neigh.to_vec();
    }
    let n = neigh.len();
    let k = fanout;
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.random_range(0..=j);
        if chosen.contains(&t) {
            chosen.push(j);
        } else {
            chosen.push(t);
        }
    }
    chosen.into_iter().map(|i| neigh[i]).collect()
}

/// Strategy: a random edge list over `n` vertices.
fn edges(max_v: usize, max_e: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_v).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..max_e))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn built_graphs_always_validate((n, es) in edges(64, 256)) {
        let mut b = GraphBuilder::new(n);
        for (s, d) in &es {
            b.add_edge(*s, *d);
        }
        let g = b.build();
        prop_assert!(g.validate().is_ok());
        // Dedup + self-loop removal can only shrink.
        prop_assert!(g.num_edges() <= es.len());
        // No self loops survive.
        for v in 0..n as u32 {
            prop_assert!(!g.neighbors(v).contains(&v));
        }
    }

    #[test]
    fn reverse_preserves_edge_multiset((n, es) in edges(48, 200)) {
        let mut b = GraphBuilder::new(n);
        for (s, d) in &es {
            b.add_edge(*s, *d);
        }
        let g = b.build();
        let rr = g.reverse().reverse();
        prop_assert_eq!(g.num_edges(), rr.num_edges());
        for v in 0..n as u32 {
            let mut a = g.neighbors(v).to_vec();
            let mut c = rr.neighbors(v).to_vec();
            a.sort_unstable();
            c.sort_unstable();
            prop_assert_eq!(a, c);
        }
    }

    #[test]
    fn sampler_respects_fanout_and_universe(
        (n, es) in edges(48, 400),
        fanout in 1usize..6,
        layers in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut b = GraphBuilder::new(n);
        for (s, d) in &es {
            b.add_edge(*s, *d);
        }
        let g: Csr = b.build();
        let seeds: Vec<u32> = (0..(n as u32).min(5)).collect();
        let sampler = NeighborSampler::new(Fanout::new(vec![fanout; layers]));
        let blocks = sampler.sample_batch(&g, &seeds, seed);
        prop_assert_eq!(blocks.len(), layers);
        // Chaining: each block's dst equals the upper block's src.
        for w in blocks.windows(2) {
            prop_assert_eq!(w[0].dst(), w[1].src());
        }
        prop_assert_eq!(blocks.last().unwrap().dst(), &seeds[..]);
        for block in &blocks {
            prop_assert!(block.validate().is_ok());
            for i in 0..block.num_dst() {
                let v = block.dst()[i];
                prop_assert!(block.sampled_degree(i) <= fanout);
                prop_assert!(block.sampled_degree(i) <= g.degree(v));
                // All sampled neighbors are true neighbors.
                for &li in block.neighbors_local(i) {
                    let u = block.src()[li as usize];
                    prop_assert!(g.neighbors(v).contains(&u));
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed((n, es) in edges(32, 150), seed in any::<u64>()) {
        let mut b = GraphBuilder::new(n);
        for (s, d) in &es {
            b.add_edge(*s, *d);
        }
        let g = b.build();
        let sampler = NeighborSampler::new(Fanout::new(vec![3, 3]));
        let seeds: Vec<u32> = vec![0, (n as u32 - 1).min(7)];
        let a = sampler.sample_batch(&g, &seeds, seed);
        let bb = sampler.sample_batch(&g, &seeds, seed);
        for (x, y) in a.iter().zip(&bb) {
            prop_assert_eq!(x.src(), y.src());
            prop_assert_eq!(x.num_edges(), y.num_edges());
        }
    }

    /// The dense-scratch dedup path produces blocks *identical* to the old
    /// per-call `HashMap` path — same dst/src order, offsets and local
    /// indices — for any graph, frontier, fanout and seed, hop after hop of
    /// one `sample_batch` (one scratch and one rng stream across hops).
    #[test]
    fn scratch_path_identical_to_hashmap_path(
        (n, es) in edges(48, 400),
        fanout in 1usize..6,
        seed in any::<u64>(),
        hops in 1usize..4,
    ) {
        let mut b = GraphBuilder::new(n);
        for (s, d) in &es {
            b.add_edge(*s, *d);
        }
        let g = b.build();
        let sampler = NeighborSampler::new(Fanout::new(vec![fanout; hops]));
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let mut frontier: Vec<u32> = (0..(n as u32).min(6)).collect();
        let blocks = sampler.sample_batch(&g, &frontier, seed);
        // The sampler walks top → bottom and returns the blocks bottom-first.
        for (hop, got) in blocks.iter().rev().enumerate() {
            let want = reference_one_hop(&g, &frontier, fanout, &mut ref_rng);
            prop_assert_eq!(got.dst(), want.dst(), "hop {} dst", hop);
            prop_assert_eq!(got.src(), want.src(), "hop {} src", hop);
            prop_assert_eq!(got.num_edges(), want.num_edges(), "hop {} edges", hop);
            for i in 0..want.num_dst() {
                prop_assert_eq!(
                    got.neighbors_local(i),
                    want.neighbors_local(i),
                    "hop {} dst {} local indices",
                    hop,
                    i
                );
            }
            frontier = want.src().to_vec();
        }
    }
}
