//! Full-neighbor (unsampled) block construction.
//!
//! Inference and historical-embedding refreshes want exact aggregation over
//! *all* in-neighbors rather than a sampled subset; this builder produces
//! the same [`Block`] structure with every neighbor included (optionally
//! capped for pathological hubs).

use crate::block::{Block, BlockParts};
use crate::neighbor::{one_hop_dedup_into, SamplerScratch};
use neutron_graph::{Csr, VertexId};

/// Builds multi-hop full-neighbor blocks, bottom-first (same contract as
/// [`crate::NeighborSampler::sample_batch`]). `cap` bounds per-vertex
/// neighbor lists (`usize::MAX` = exact); capped vertices take a
/// deterministic prefix, keeping inference reproducible.
pub fn full_blocks(g: &Csr, seeds: &[VertexId], layers: usize, cap: usize) -> Vec<Block> {
    assert!(layers >= 1);
    let mut scratch = SamplerScratch::new();
    let mut blocks = Vec::with_capacity(layers);
    let mut frontier: Vec<VertexId> = seeds.to_vec();
    for _ in 0..layers {
        let block = full_one_hop(g, &frontier, cap, &mut scratch);
        frontier = block.src().to_vec();
        blocks.push(block);
    }
    blocks.reverse();
    blocks
}

/// One full-neighbor hop: each frontier vertex's first `cap` neighbours,
/// deduplicated through `scratch` like a sampled hop (first-seen local
/// order; a repeated frontier vertex resolves to its last position). A
/// caller that builds many hops passes one scratch to all of them, so
/// each hop costs no `O(|V|)` set-up.
pub fn full_one_hop(
    g: &Csr,
    frontier: &[VertexId],
    cap: usize,
    scratch: &mut SamplerScratch,
) -> Block {
    // Reserve for the mean degree under the cap, not the cap itself
    // (`usize::MAX` means uncapped).
    let per_dst = cap.min(g.num_edges() / g.num_vertices().max(1));
    let pick = |g: &Csr, v: VertexId, picks: &mut Vec<VertexId>| {
        let neigh = g.neighbors(v);
        picks.extend_from_slice(&neigh[..neigh.len().min(cap)]);
    };
    one_hop_dedup_into(
        g,
        frontier,
        per_dst,
        scratch,
        &mut Vec::new(),
        BlockParts::default(),
        pick,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_graph::generate::erdos_renyi;

    #[test]
    fn uncapped_block_includes_every_neighbor() {
        let g = erdos_renyi(100, 1200, 1);
        let blocks = full_blocks(&g, &[0, 1, 2], 1, usize::MAX);
        let b = &blocks[0];
        for i in 0..b.num_dst() {
            assert_eq!(b.sampled_degree(i), g.degree(b.dst()[i]));
        }
        assert!(b.validate().is_ok());
    }

    #[test]
    fn cap_limits_hub_expansion_deterministically() {
        let g = erdos_renyi(200, 8000, 2);
        let a = full_blocks(&g, &[5], 2, 3);
        let b = full_blocks(&g, &[5], 2, 3);
        assert_eq!(
            a[0].src(),
            b[0].src(),
            "capped prefix must be deterministic"
        );
        for blocks in [&a, &b] {
            for block in blocks.iter() {
                for i in 0..block.num_dst() {
                    assert!(block.sampled_degree(i) <= 3);
                }
            }
        }
    }

    #[test]
    fn blocks_chain_like_sampled_ones() {
        let g = erdos_renyi(80, 600, 3);
        let blocks = full_blocks(&g, &[1, 2], 3, usize::MAX);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[2].dst(), &[1, 2]);
        assert_eq!(blocks[1].dst(), blocks[2].src());
        assert_eq!(blocks[0].dst(), blocks[1].src());
    }

    #[test]
    fn full_one_hop_matches_graph_exactly() {
        let g = Csr::from_adjacency(vec![vec![1, 2], vec![2], vec![]]);
        let b = full_one_hop(&g, &[0], usize::MAX, &mut SamplerScratch::new());
        assert_eq!(b.num_dst(), 1);
        assert_eq!(b.num_src(), 3);
        assert_eq!(b.num_edges(), 2);
    }

    /// The `HashMap`-deduplicated hop `full_one_hop` replaced.
    fn full_one_hop_hashmap(g: &Csr, frontier: &[VertexId], cap: usize) -> Block {
        let dst: Vec<VertexId> = frontier.to_vec();
        let mut src: Vec<VertexId> = dst.clone();
        let mut local: std::collections::HashMap<VertexId, u32> = dst
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut offsets = vec![0u32];
        let mut indices = Vec::new();
        for &v in &dst {
            let neigh = g.neighbors(v);
            for &u in &neigh[..neigh.len().min(cap)] {
                let next = src.len() as u32;
                indices.push(*local.entry(u).or_insert_with(|| {
                    src.push(u);
                    next
                }));
            }
            offsets.push(indices.len() as u32);
        }
        Block::new(dst, src, offsets, indices)
    }

    #[test]
    fn full_one_hop_matches_the_hashmap_hop() {
        // A dense graph, so neighbours are often frontier vertices too.
        let g = erdos_renyi(60, 900, 4);
        let mut scratch = SamplerScratch::new();
        let frontiers: [&[VertexId]; 5] = [
            &[0],
            &[3, 7, 3, 11, 7, 3],
            &[5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 59, 1],
            &[],
            &[42, 42, 42],
        ];
        for frontier in frontiers {
            for cap in [0, 1, 3, 8, 32, usize::MAX] {
                let got = full_one_hop(&g, frontier, cap, &mut scratch);
                let want = full_one_hop_hashmap(&g, frontier, cap);
                assert_eq!(got.dst(), want.dst(), "{frontier:?} cap {cap}");
                assert_eq!(got.src(), want.src(), "{frontier:?} cap {cap}");
                for i in 0..want.num_dst() {
                    assert_eq!(
                        got.neighbors_local(i),
                        want.neighbors_local(i),
                        "{frontier:?} cap {cap} dst {i}"
                    );
                }
            }
        }
    }
}
