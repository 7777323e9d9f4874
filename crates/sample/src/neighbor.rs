//! Uniform neighbor sampling (the paper's Algorithm 1, lines 3–7).
//!
//! Every draw is allocation-free per vertex and membership-tested in O(1):
//! a hop's source set is deduplicated through [`SamplerScratch`]'s
//! generation-stamped vertex arrays, and Floyd's draw over a neighbour list
//! marks the positions it has chosen in a [`PositionMarks`] instead of
//! scanning its picks. Buffers live in the caller's [`BlockBuilder`] or
//! [`SamplerScratch`], so reusing them never changes a block.

use crate::block::{Block, BlockParts};
use crate::fanout::Fanout;
use crate::hotness::HotSet;
use neutron_graph::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// A set over `0..n` that clears in O(1): `stamp[i] == generation` means
/// `i` is in the set, so [`Self::begin`] starts an empty set by bumping the
/// generation instead of wiping the array (one full wipe every 2^32 begins,
/// when the stamp wraps). Floyd's draw marks neighbour positions in one;
/// [`SamplerScratch`] marks the vertices of a hop's source set in another.
#[derive(Clone, Debug, Default)]
pub struct PositionMarks {
    stamp: Vec<u32>,
    generation: u32,
}

impl PositionMarks {
    /// An empty set; the array grows lazily to the largest `n` begun.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the set and makes room for positions `0..n`.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: old entries could alias generation 0.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Whether `i` was marked since the last [`Self::begin`].
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.generation
    }

    /// Marks `i`.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        self.stamp[i] = self.generation;
    }

    /// Marks `i`; true if it was not marked yet.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        if self.contains(i) {
            false
        } else {
            self.mark(i);
            true
        }
    }
}

/// Reusable vertex→local-index scratch for block construction.
///
/// Deduplicating a hop's source set used to go through a per-call `HashMap`;
/// profiling flagged it as the sampling hot path (hashing dominates on dense
/// frontiers). The scratch replaces it with a dense local-index array indexed
/// by vertex id, valid where the hop's [`PositionMarks`] marks the vertex,
/// so "clearing" the structure between hops is a single counter increment,
/// not an `O(|V|)` wipe. It also carries the Floyd marks of
/// [`NeighborSampler::sample_one_hop_stable_with_scratch`], so a refresh
/// worker reuses both across tasks.
#[derive(Clone, Debug, Default)]
pub struct SamplerScratch {
    /// Vertices registered in the current hop's src set.
    seen: PositionMarks,
    /// Local (block-level) index of vertex `v` in the current hop's src set.
    local: Vec<u32>,
    /// Floyd's chosen positions for the per-vertex stable draw.
    draw: PositionMarks,
}

impl SamplerScratch {
    /// An empty scratch; buffers grow lazily to the graph's vertex count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new hop over a graph of `n` vertices: empties the src set
    /// and grows the buffers if this graph is larger than any seen before.
    fn begin(&mut self, n: usize) {
        self.seen.begin(n);
        if self.local.len() < n {
            self.local.resize(n, 0);
        }
    }

    /// Registers destination `v` at local index `i`. Overwrites any earlier
    /// registration (duplicate dst entries resolve to the last occurrence,
    /// matching the historical `HashMap::from_iter` behaviour).
    #[inline]
    fn seed_dst(&mut self, v: VertexId, i: u32) {
        let slot = v as usize;
        self.seen.mark(slot);
        self.local[slot] = i;
    }

    /// Interns neighbor `v`: returns its local index, assigning the next one
    /// (and recording `v` in `src`) on first sight within the current hop.
    #[inline]
    fn intern(&mut self, v: VertexId, src: &mut Vec<VertexId>) -> u32 {
        let slot = v as usize;
        if self.seen.insert(slot) {
            let idx = src.len() as u32;
            src.push(v);
            self.local[slot] = idx;
            idx
        } else {
            self.local[slot]
        }
    }
}

/// Everything a long-lived sampler worker reuses across batches: the
/// [`SamplerScratch`] dedup arrays plus recycled [`Block`] component buffers
/// and the per-hop working vectors. With a warm builder (and donated parts
/// from a buffer pool), [`NeighborSampler::sample_batch_pooled`] constructs
/// its blocks without touching the allocator.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    scratch: SamplerScratch,
    spare_parts: Vec<BlockParts>,
    spare_stacks: Vec<Vec<Block>>,
    picks: Vec<VertexId>,
    frontier: Vec<VertexId>,
    draw: DrawScratch,
}

/// Per-vertex working buffers of a neighbor draw: Floyd's chosen positions,
/// and the local/remote split of the locality-biased draw.
#[derive(Debug, Default)]
struct DrawScratch {
    marks: PositionMarks,
    locals: Vec<VertexId>,
    remotes: Vec<VertexId>,
}

impl BlockBuilder {
    /// An empty builder; every buffer grows lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// Donates a recycled block's spent buffers for a future hop.
    pub fn donate_parts(&mut self, parts: BlockParts) {
        self.spare_parts.push(parts);
    }

    /// Donates a recycled (emptied) block stack for a future batch.
    pub fn donate_stack(&mut self, mut stack: Vec<Block>) {
        stack.clear();
        self.spare_stacks.push(stack);
    }

    fn take_parts(&mut self) -> BlockParts {
        self.spare_parts.pop().unwrap_or_default()
    }

    fn take_stack(&mut self, layers: usize) -> Vec<Block> {
        let mut stack = self.spare_stacks.pop().unwrap_or_default();
        stack.reserve(layers);
        stack
    }
}

/// Uniform fanout neighbor sampler.
///
/// For each destination vertex, samples `min(fanout, degree)` distinct
/// in-neighbors without replacement. Deterministic given the seed passed to
/// [`NeighborSampler::sample_batch`].
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    fanout: Fanout,
    /// Vertices whose bottom-layer embedding the trainer reuses instead of
    /// computing; see [`Self::with_bottom_skip`].
    bottom_skip: Option<Arc<HotSet>>,
}

impl NeighborSampler {
    /// Creates a sampler with the given per-layer fanout.
    pub fn new(fanout: Fanout) -> Self {
        Self {
            fanout,
            bottom_skip: None,
        }
    }

    /// Makes every multi-hop `sample_batch*` entry point drop `skip`'s
    /// vertices from the frontier **before the bottom hop** (§4.1.2: the
    /// device reuses their embeddings, so it never samples their
    /// neighbours, gathers those neighbours' features or runs the bottom
    /// layer for them). `blocks[0].dst()` becomes the order-preserving,
    /// skip-free subsequence of `blocks[1].src()`; upper blocks are
    /// untouched. One-layer fanouts (whose bottom hop produces the seeds'
    /// logits) and [`Self::sample_one_hop_stable_with_scratch`] never prune,
    /// and an empty set consumes the rng exactly like no set at all.
    pub fn with_bottom_skip(mut self, skip: Arc<HotSet>) -> Self {
        self.bottom_skip = Some(skip);
        self
    }

    /// The pruning step of the hop loop: called with the frontier of hop
    /// `l` before it is sampled.
    fn prune_bottom_frontier(&self, l: usize, frontier: &mut Vec<VertexId>) {
        if l == 0 && self.fanout.layers() > 1 {
            if let Some(skip) = &self.bottom_skip {
                frontier.retain(|&v| !skip.contains(v));
            }
        }
    }

    /// The sampler's fanout.
    pub fn fanout(&self) -> &Fanout {
        &self.fanout
    }

    /// Samples the multi-hop blocks for one batch of `seeds`: the pooled
    /// sampler on a fresh [`BlockBuilder`].
    ///
    /// Returns blocks **bottom-first**: `blocks[0]` reads raw features,
    /// `blocks.last()` produces the seed embeddings. The reverse traversal
    /// (top → bottom) follows Algorithm 1's `for l = L to 1`.
    pub fn sample_batch(&self, g: &Csr, seeds: &[VertexId], seed: u64) -> Vec<Block> {
        self.sample_batch_pooled(g, seeds, seed, &mut BlockBuilder::new())
    }

    /// [`Self::sample_batch`] over a [`BlockBuilder`]: block buffers come
    /// from the builder's recycled spares instead of fresh allocations, and
    /// the per-hop frontier/picks vectors and dedup scratch are reused.
    /// Every buffer is cleared before refilling, so a warm builder produces
    /// the same blocks as a fresh one — the pooling proptests pin this.
    pub fn sample_batch_pooled(
        &self,
        g: &Csr,
        seeds: &[VertexId],
        seed: u64,
        builder: &mut BlockBuilder,
    ) -> Vec<Block> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.sample_pooled(g, seeds, builder, |g, v, fanout, picks, draw| {
            floyd_pick(g.neighbors(v), fanout, &mut rng, picks, &mut draw.marks)
        })
    }

    /// [`Self::sample_batch_pooled`] with **partition-locality bias**
    /// (DistDGL-style): each vertex's draw first splits its neighborhood
    /// into partition-local and remote vertices (order-preserved), then
    /// fills the fanout from local neighbors before touching remote ones.
    /// `owner[v]` is the partition assignment and `part` this replica's
    /// partition; `counts` accumulates how many picks were local vs
    /// remote.
    ///
    /// Two properties the replicated engine's gates rely on:
    /// - **Single partition ⇒ bit-identical to the unbiased path.** When
    ///   every neighbor is local the split is a no-op and the Floyd draw
    ///   consumes the rng exactly like [`Self::sample_batch_pooled`], so
    ///   at R=1 locality bias cannot change a block.
    /// - **Deterministic.** Draws depend only on `(seed, owner, part)` —
    ///   never on timing — so fixed partitions give fixed blocks.
    #[allow(clippy::too_many_arguments)] // mirrors sample_batch_pooled + the three locality operands
    pub fn sample_batch_pooled_biased(
        &self,
        g: &Csr,
        seeds: &[VertexId],
        seed: u64,
        builder: &mut BlockBuilder,
        owner: &[u32],
        part: u32,
        counts: &mut LocalityCounts,
    ) -> Vec<Block> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.sample_pooled(g, seeds, builder, |g, v, fanout, picks, draw| {
            sample_biased_neighbors(g, v, fanout, &mut rng, picks, draw, owner, part, counts)
        })
    }

    /// The one hop loop, top → bottom (Algorithm 1's `for l = L to 1`):
    /// `pick(g, v, fanout, picks, draw)` appends `v`'s draw to `picks`.
    /// Generic over the pick, so each public entry point is its own
    /// monomorphised loop with the draw inlined.
    fn sample_pooled<P>(
        &self,
        g: &Csr,
        seeds: &[VertexId],
        builder: &mut BlockBuilder,
        mut pick: P,
    ) -> Vec<Block>
    where
        P: FnMut(&Csr, VertexId, usize, &mut Vec<VertexId>, &mut DrawScratch),
    {
        let layers = self.fanout.layers();
        let mut blocks = builder.take_stack(layers);
        let mut frontier = std::mem::take(&mut builder.frontier);
        frontier.clear();
        frontier.extend_from_slice(seeds);
        for l in (0..layers).rev() {
            self.prune_bottom_frontier(l, &mut frontier);
            let fanout = self.fanout.at(l);
            let parts = builder.take_parts();
            let BlockBuilder {
                ref mut scratch,
                ref mut picks,
                ref mut draw,
                ..
            } = *builder;
            let block = one_hop_dedup_into(g, &frontier, fanout, scratch, picks, parts, {
                |g, v, picks| pick(g, v, fanout, picks, draw)
            });
            frontier.clear();
            frontier.extend_from_slice(block.src());
            blocks.push(block);
        }
        blocks.reverse();
        builder.frontier = frontier;
        blocks
    }

    /// One-hop block whose neighbor draws are seeded **per vertex** by
    /// `(seed, v)` rather than by one shared rng stream: any subset of
    /// `frontier` samples exactly the same neighbors for its members as the
    /// full set would. This partition stability is what lets the hybrid
    /// hot-embedding refresh split its worklist between devices (§4.1.3)
    /// without the split ever changing a sampled neighborhood. The scratch
    /// is caller-owned so repeat refreshers (a session's refresh worker,
    /// the trainer's boundary share) skip the `O(|V|)` buffer
    /// (re)initialisation per call.
    pub fn sample_one_hop_stable_with_scratch(
        &self,
        g: &Csr,
        frontier: &[VertexId],
        fanout: usize,
        seed: u64,
        scratch: &mut SamplerScratch,
    ) -> Block {
        // The draw's marks leave the scratch for the hop, which borrows
        // the dedup arrays, and return to it afterwards.
        let mut marks = std::mem::take(&mut scratch.draw);
        let pick = |g: &Csr, v: VertexId, picks: &mut Vec<VertexId>| {
            let mut rng = StdRng::seed_from_u64(per_vertex_seed(seed, v));
            floyd_pick(g.neighbors(v), fanout, &mut rng, picks, &mut marks)
        };
        let block = one_hop_dedup_into(
            g,
            frontier,
            fanout,
            scratch,
            &mut Vec::with_capacity(fanout.min(g.num_vertices())),
            BlockParts::default(),
            pick,
        );
        scratch.draw = marks;
        block
    }
}

/// The one-hop block builder: dst prefix, scratch-based dedup and
/// offset/index assembly, with the neighbor draws supplied by `pick` (a
/// shared-rng stream for batch sampling, per-vertex seeded rngs for the
/// partition-stable refresh path, a capped neighbour prefix for full
/// inference). `fanout` is the expected picks a destination, used only to
/// reserve, and capped there by the graph's size (`usize::MAX` means every
/// neighbour). `parts` supplies the spent dst/src/offsets/indices capacity and
/// `picks` the per-vertex draw buffer; every buffer is cleared before use,
/// so recycled capacity never changes a block. Local indices are assigned
/// in first-seen order, as the historical `HashMap` dedup did.
#[allow(clippy::too_many_arguments)]
pub(crate) fn one_hop_dedup_into<F>(
    g: &Csr,
    frontier: &[VertexId],
    fanout: usize,
    scratch: &mut SamplerScratch,
    picks: &mut Vec<VertexId>,
    parts: BlockParts,
    mut pick: F,
) -> Block
where
    F: FnMut(&Csr, VertexId, &mut Vec<VertexId>),
{
    let BlockParts {
        mut dst,
        mut src,
        mut offsets,
        mut indices,
    } = parts;
    dst.clear();
    dst.extend_from_slice(frontier);
    // A hop adds at most |V| new sources and, for distinct destinations,
    // at most |E| edges.
    let picks_hint = dst.len().saturating_mul(fanout);
    src.clear();
    src.extend_from_slice(frontier);
    src.reserve(picks_hint.min(g.num_vertices()));
    scratch.begin(g.num_vertices());
    for (i, &v) in dst.iter().enumerate() {
        scratch.seed_dst(v, i as u32);
    }
    offsets.clear();
    offsets.reserve(dst.len() + 1);
    offsets.push(0u32);
    indices.clear();
    indices.reserve(picks_hint.min(g.num_edges()));
    for &v in &dst {
        picks.clear();
        pick(g, v, picks);
        for &u in picks.iter() {
            indices.push(scratch.intern(u, &mut src));
        }
        offsets.push(indices.len() as u32);
    }
    Block::new(dst, src, offsets, indices)
}

/// Decorrelates the shared refresh seed across vertices (splitmix64 finalizer
/// over `seed + v`), so adjacent vertex ids do not draw correlated streams.
fn per_vertex_seed(seed: u64, v: VertexId) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(v as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Picks `min(k, pool.len())` distinct entries of `pool` into `out`: the
/// whole pool when it fits (DGL semantics for degree ≤ fanout), otherwise
/// Floyd's algorithm over positions. Every unbiased draw is this over
/// `g.neighbors(v)`.
///
/// Step `j` draws `t` from `0..=j` and takes `t`, or `j` if `t` was taken
/// already. `marks` answers "taken already" in O(1); `j` itself is never
/// taken before step `j`, so the picks and their order are those of a scan
/// over the earlier picks. The caller owns `marks`, so the draw stays
/// allocation-free per vertex.
fn floyd_pick(
    pool: &[VertexId],
    k: usize,
    rng: &mut StdRng,
    out: &mut Vec<VertexId>,
    marks: &mut PositionMarks,
) {
    if pool.len() <= k {
        out.extend_from_slice(pool);
        return;
    }
    let n = pool.len();
    marks.begin(n);
    for j in (n - k)..n {
        let t = rng.random_range(0..=j);
        let p = if marks.contains(t) { j } else { t };
        marks.mark(p);
        out.push(pool[p]);
    }
}

/// How many neighbor picks a biased sampling run satisfied from the
/// replica's own partition vs a remote one. Remote picks are the traffic
/// the interconnect model prices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalityCounts {
    /// Picks owned by the sampling replica's partition.
    pub local_picks: u64,
    /// Picks that would require a remote feature/embedding pull.
    pub remote_picks: u64,
}

/// The locality-biased per-vertex draw: split `v`'s neighborhood into
/// partition-local and remote (order-preserved), fill the fanout from
/// locals first, and only then draw the remainder from remotes. With a
/// single partition the split is empty and the draw degenerates to the
/// unbiased [`floyd_pick`] over the whole neighborhood, rng stream included.
#[allow(clippy::too_many_arguments)]
fn sample_biased_neighbors(
    g: &Csr,
    v: VertexId,
    fanout: usize,
    rng: &mut StdRng,
    out: &mut Vec<VertexId>,
    draw: &mut DrawScratch,
    owner: &[u32],
    part: u32,
    counts: &mut LocalityCounts,
) {
    let DrawScratch {
        marks,
        locals,
        remotes,
    } = draw;
    let neigh = g.neighbors(v);
    if neigh.len() <= fanout {
        // Fanout not binding: take everything, like the unbiased path.
        out.extend_from_slice(neigh);
        let local = neigh.iter().filter(|&&u| owner[u as usize] == part).count() as u64;
        counts.local_picks += local;
        counts.remote_picks += neigh.len() as u64 - local;
        return;
    }
    split_by_owner(neigh, owner, part, locals, remotes);
    if locals.len() > fanout {
        // Enough local supply: the whole draw stays on-partition. With
        // zero remotes this consumes the rng exactly like the unbiased
        // Floyd over the full (identical) neighborhood.
        floyd_pick(locals, fanout, rng, out, marks);
        counts.local_picks += fanout as u64;
    } else {
        // Take every local neighbor, then top up from remotes. The pool
        // is strictly larger than the fanout here, so the remote pool is
        // strictly larger than the remainder and Floyd always applies.
        out.extend_from_slice(locals);
        counts.local_picks += locals.len() as u64;
        let rem = fanout - locals.len();
        if rem > 0 {
            floyd_pick(remotes, rem, rng, out, marks);
            counts.remote_picks += rem as u64;
        }
    }
}

/// Splits `neigh` into the ids `part` owns and the rest, each list in
/// `neigh`'s order. Branch-free: every id is written to both buffers and
/// only the cursor its ownership bit selects moves past it, so a
/// neighbourhood whose owners alternate costs no mispredicted branch.
fn split_by_owner(
    neigh: &[VertexId],
    owner: &[u32],
    part: u32,
    locals: &mut Vec<VertexId>,
    remotes: &mut Vec<VertexId>,
) {
    locals.clear();
    locals.resize(neigh.len(), 0);
    remotes.clear();
    remotes.resize(neigh.len(), 0);
    let (mut l, mut r) = (0, 0);
    for &u in neigh {
        let local = usize::from(owner[u as usize] == part);
        locals[l] = u;
        remotes[r] = u;
        l += local;
        r += 1 - local;
    }
    locals.truncate(l);
    remotes.truncate(r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_graph::generate::{erdos_renyi, rmat, RmatParams};
    use rand::RngCore;

    fn line_graph(n: usize) -> Csr {
        // v aggregates from v-1.
        let adj = (0..n)
            .map(|v| {
                if v == 0 {
                    vec![]
                } else {
                    vec![(v - 1) as VertexId]
                }
            })
            .collect();
        Csr::from_adjacency(adj)
    }

    /// Floyd's draw as it was written before [`PositionMarks`]: the
    /// membership test scans the picks so far. Kept as the reference the
    /// stamped draw must match pick for pick.
    fn floyd_reference(pool: &[VertexId], k: usize, rng: &mut StdRng) -> Vec<VertexId> {
        if pool.len() <= k {
            return pool.to_vec();
        }
        let n = pool.len();
        let mut taken: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = rng.random_range(0..=j);
            taken.push(if taken.contains(&t) { j } else { t });
        }
        taken.into_iter().map(|i| pool[i]).collect()
    }

    /// The locality-biased draw over [`floyd_reference`].
    fn biased_reference(
        neigh: &[VertexId],
        k: usize,
        rng: &mut StdRng,
        owner: &[u32],
        part: u32,
    ) -> Vec<VertexId> {
        if neigh.len() <= k {
            return neigh.to_vec();
        }
        let (locals, remotes): (Vec<VertexId>, Vec<VertexId>) =
            neigh.iter().partition(|&&u| owner[u as usize] == part);
        if locals.len() > k {
            return floyd_reference(&locals, k, rng);
        }
        let rem = k - locals.len();
        let mut out = locals;
        if rem > 0 {
            out.extend(floyd_reference(&remotes, rem, rng));
        }
        out
    }

    /// Block `b`'s picks for destination `i`, as vertex ids in draw order.
    fn picks_of(b: &Block, i: usize) -> Vec<VertexId> {
        b.neighbors_local(i)
            .iter()
            .map(|&l| b.src()[l as usize])
            .collect()
    }

    /// Draws `(n, k)` with `marks` and with the reference from one seed
    /// each, and checks the picks and the rng position after the draw.
    fn check_draw(n: usize, k: usize, seed: u64, marks: &mut PositionMarks) {
        let pool: Vec<VertexId> = (0..n as u32).map(|i| i * 3 + 1).collect();
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let mut got = Vec::new();
        floyd_pick(&pool, k, &mut a, &mut got, marks);
        let want = floyd_reference(&pool, k, &mut b);
        assert_eq!(got, want, "n {n} k {k} seed {seed}");
        assert_eq!(a.next_u64(), b.next_u64(), "rng drift n {n} k {k}");
    }

    #[test]
    fn stamped_floyd_matches_the_scanning_reference() {
        // One set of marks across every call: small pools after large ones
        // leave stale stamps that only `begin` keeps out of the draw.
        let mut marks = PositionMarks::new();
        let cases = [
            (2, 1),
            (26, 25),
            (30, 25),
            (60, 25),
            (11, 10),
            (200, 10),
            (300, 5),
            (10_000, 25),
            (10_000, 9_999),
            (10_001, 1),
            (6, 5),
            (40, 39),
            (7, 3),
            (25, 25),
        ];
        for seed in 0..40u64 {
            for &(n, k) in &cases {
                check_draw(n, k, seed * 131 + n as u64, &mut marks);
            }
        }
        // Growing `n` call by call over the same marks.
        for n in 2..300usize {
            check_draw(n, n - 1, n as u64, &mut marks);
            check_draw(n, (n / 2).max(1), n as u64 + 7, &mut marks);
        }
    }

    #[test]
    fn stamped_floyd_survives_a_generation_wrap() {
        let mut marks = PositionMarks::new();
        // Generation 1 leaves stamps of 1 behind; the next begin wraps and
        // lands on generation 1 again, so without its wipe they would read
        // as taken.
        check_draw(30, 25, 1, &mut marks);
        marks.generation = u32::MAX;
        for seed in 2..10u64 {
            check_draw(30, 25, seed, &mut marks);
        }
        assert!(marks.generation < 10, "the generation wrapped");
    }

    /// The split as a push loop over a data-dependent branch, as it was
    /// written before [`split_by_owner`]: the reference it must match.
    fn split_reference(neigh: &[VertexId], owner: &[u32], part: u32) -> [Vec<VertexId>; 2] {
        let (mut locals, mut remotes) = (Vec::new(), Vec::new());
        for &u in neigh {
            if owner[u as usize] == part {
                locals.push(u);
            } else {
                remotes.push(u);
            }
        }
        [locals, remotes]
    }

    #[test]
    fn branch_free_split_matches_the_push_loop() {
        let g = rmat(2_000, 40_000, RmatParams::graph500(), 24);
        // Longer lists after shorter ones and the reverse: stale entries
        // past a cursor must never show.
        let (mut locals, mut remotes) = (vec![7; 3], Vec::new());
        for parts in [1u32, 2, 3] {
            let owner: Vec<u32> = (0..2_000u32).map(|v| (v * 7 + v / 3) % parts).collect();
            for part in 0..parts {
                for v in (0..2_000u32).step_by(3).chain((0..2_000).rev().step_by(7)) {
                    let neigh = g.neighbors(v);
                    split_by_owner(neigh, &owner, part, &mut locals, &mut remotes);
                    assert_eq!(
                        [locals.clone(), remotes.clone()],
                        split_reference(neigh, &owner, part),
                        "vertex {v} part {part} of {parts}"
                    );
                }
            }
        }
        split_by_owner(&[], &[], 0, &mut locals, &mut remotes);
        assert!(locals.is_empty() && remotes.is_empty());
    }

    #[test]
    fn every_draw_path_matches_the_scanning_reference() {
        // Mean degree 30 under a fanout of 25: most draws collide.
        let g = erdos_renyi(300, 9_000, 21);
        let hubs = rmat(2_000, 40_000, RmatParams::graph500(), 22);
        let owner: Vec<u32> = (0..2_000u32).map(|v| v % 3).collect();
        let mut builder = BlockBuilder::new();
        let mut scratch = SamplerScratch::new();
        for (g, fanout) in [(&g, vec![25, 10]), (&hubs, vec![25, 1])] {
            let s = NeighborSampler::new(Fanout::new(fanout.clone()));
            for seed in 0..8u64 {
                let seeds: Vec<VertexId> = (0..40).map(|i| (i * 7 + seed as u32) % 300).collect();

                // The shared-rng path: one stream over every hop, top down.
                let blocks = s.sample_batch_pooled(g, &seeds, seed, &mut builder);
                let mut rng = StdRng::seed_from_u64(seed);
                for l in (0..blocks.len()).rev() {
                    let b = &blocks[l];
                    for (i, &v) in b.dst().iter().enumerate() {
                        let want = floyd_reference(g.neighbors(v), fanout[l], &mut rng);
                        assert_eq!(picks_of(b, i), want, "shared hop {l} vertex {v}");
                    }
                }

                // The biased path, same stream discipline.
                let mut counts = LocalityCounts::default();
                let biased = s.sample_batch_pooled_biased(
                    g,
                    &seeds,
                    seed,
                    &mut builder,
                    &owner,
                    1,
                    &mut counts,
                );
                let mut rng = StdRng::seed_from_u64(seed);
                for l in (0..biased.len()).rev() {
                    let b = &biased[l];
                    for (i, &v) in b.dst().iter().enumerate() {
                        let want = biased_reference(g.neighbors(v), fanout[l], &mut rng, &owner, 1);
                        assert_eq!(picks_of(b, i), want, "biased hop {l} vertex {v}");
                    }
                }

                // The per-vertex stable path, one scratch across calls.
                let stable =
                    s.sample_one_hop_stable_with_scratch(g, &seeds, 25, seed, &mut scratch);
                for (i, &v) in seeds.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(per_vertex_seed(seed, v));
                    let want = floyd_reference(g.neighbors(v), 25, &mut rng);
                    assert_eq!(picks_of(&stable, i), want, "stable vertex {v}");
                }

                for mut stack in [blocks, biased] {
                    for block in stack.drain(..) {
                        builder.donate_parts(block.into_parts());
                    }
                    builder.donate_stack(stack);
                }
            }
        }
    }

    #[test]
    fn an_every_neighbour_fanout_takes_whole_lists_in_csr_order() {
        let g = erdos_renyi(100, 1_200, 23);
        let all: Vec<VertexId> = (0..100).collect();
        let s = NeighborSampler::new(Fanout::new(vec![usize::MAX]));
        let shared = s.sample_batch(&g, &all, 1);
        let mut counts = LocalityCounts::default();
        let biased = s.sample_batch_pooled_biased(
            &g,
            &all,
            1,
            &mut BlockBuilder::new(),
            &[0; 100],
            0,
            &mut counts,
        );
        let stable = s.sample_one_hop_stable_with_scratch(
            &g,
            &all,
            usize::MAX,
            1,
            &mut SamplerScratch::new(),
        );
        for b in [&shared[0], &biased[0], &stable] {
            assert!(b.validate().is_ok());
            for &v in &all {
                assert_eq!(picks_of(b, v as usize), g.neighbors(v), "vertex {v}");
            }
        }
        assert_eq!(counts.local_picks, g.num_edges() as u64);
    }

    #[test]
    fn blocks_are_bottom_first_and_chain() {
        let g = erdos_renyi(200, 3000, 1);
        let s = NeighborSampler::new(Fanout::new(vec![4, 3, 2]));
        let blocks = s.sample_batch(&g, &[0, 1, 2, 3], 9);
        assert_eq!(blocks.len(), 3);
        // Top block's dst are the seeds.
        assert_eq!(blocks[2].dst(), &[0, 1, 2, 3]);
        // Each block's dst equals the next-upper block's src.
        assert_eq!(blocks[1].dst(), blocks[2].src());
        assert_eq!(blocks[0].dst(), blocks[1].src());
        for b in &blocks {
            assert!(b.validate().is_ok());
        }
    }

    #[test]
    fn fanout_bounds_sampled_degree() {
        let g = erdos_renyi(300, 9000, 2);
        let s = NeighborSampler::new(Fanout::new(vec![5]));
        let blocks = s.sample_batch(&g, &(0..50).collect::<Vec<_>>(), 3);
        let b = &blocks[0];
        for i in 0..b.num_dst() {
            let deg = g.degree(b.dst()[i]);
            assert!(b.sampled_degree(i) <= 5);
            assert_eq!(b.sampled_degree(i), deg.min(5));
        }
    }

    #[test]
    fn sampled_neighbors_are_distinct_and_real() {
        let g = erdos_renyi(100, 3000, 3);
        let s = NeighborSampler::new(Fanout::new(vec![8]));
        let blocks = s.sample_batch(&g, &(0..30).collect::<Vec<_>>(), 4);
        let b = &blocks[0];
        for i in 0..b.num_dst() {
            let v = b.dst()[i];
            let mut seen = std::collections::HashSet::new();
            for &li in b.neighbors_local(i) {
                let u = b.src()[li as usize];
                assert!(seen.insert(u), "duplicate neighbor {u} for {v}");
                assert!(
                    g.neighbors(v).contains(&u),
                    "{u} not a real neighbor of {v}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = erdos_renyi(150, 4000, 5);
        let s = NeighborSampler::new(Fanout::new(vec![4, 4]));
        let a = s.sample_batch(&g, &[7, 8, 9], 42);
        let b = s.sample_batch(&g, &[7, 8, 9], 42);
        assert_eq!(a[0].src(), b[0].src());
        assert_eq!(a[1].num_edges(), b[1].num_edges());
        let c = s.sample_batch(&g, &[7, 8, 9], 43);
        // Different seed should (overwhelmingly) differ somewhere.
        assert!(a[0].src() != c[0].src() || a[0].num_edges() != c[0].num_edges());
    }

    #[test]
    fn line_graph_expansion_adds_one_vertex_per_hop() {
        let g = line_graph(10);
        let s = NeighborSampler::new(Fanout::new(vec![1, 1]));
        let blocks = s.sample_batch(&g, &[5], 0);
        assert_eq!(blocks[1].src(), &[5, 4]);
        assert_eq!(blocks[0].src(), &[5, 4, 3]);
    }

    #[test]
    fn isolated_seed_produces_self_only_block() {
        let g = Csr::from_adjacency(vec![vec![], vec![]]);
        let s = NeighborSampler::new(Fanout::new(vec![3]));
        let blocks = s.sample_batch(&g, &[0], 1);
        assert_eq!(blocks[0].num_src(), 1);
        assert_eq!(blocks[0].num_edges(), 0);
    }

    #[test]
    fn pooled_sampling_matches_fresh_path_with_recycled_buffers() {
        let g = erdos_renyi(200, 5000, 7);
        let s = NeighborSampler::new(Fanout::new(vec![4, 3]));
        let mut builder = BlockBuilder::new();
        for seed in 0..20u64 {
            let seeds: Vec<VertexId> = (0..10).map(|i| (seed as u32 * 11 + i) % 200).collect();
            let fresh = s.sample_batch(&g, &seeds, seed);
            let pooled = s.sample_batch_pooled(&g, &seeds, seed, &mut builder);
            assert_eq!(fresh.len(), pooled.len());
            for (a, b) in fresh.iter().zip(&pooled) {
                assert_eq!(a.dst(), b.dst(), "seed {seed}");
                assert_eq!(a.src(), b.src(), "seed {seed}");
                assert_eq!(a.num_edges(), b.num_edges(), "seed {seed}");
                for i in 0..a.num_dst() {
                    assert_eq!(a.neighbors_local(i), b.neighbors_local(i), "seed {seed}");
                }
                assert!(b.validate().is_ok());
            }
            // Recycle everything, dirty, back into the builder — the next
            // iteration must still match the allocating path exactly.
            let mut stack = pooled;
            for block in stack.drain(..) {
                builder.donate_parts(block.into_parts());
            }
            builder.donate_stack(stack);
        }
    }

    #[test]
    fn stable_sampling_is_partition_invariant() {
        let g = erdos_renyi(150, 6000, 11);
        let s = NeighborSampler::new(Fanout::new(vec![4]));
        let frontier: Vec<VertexId> = (0..60).collect();
        let mut scratch = SamplerScratch::new();
        let full = s.sample_one_hop_stable_with_scratch(&g, &frontier, 4, 99, &mut scratch);
        // Any split point: each vertex's sampled neighbor list (as actual
        // vertex ids, in draw order) is identical to the full-set run.
        for split in [0usize, 17, 30, 60] {
            for part in [&frontier[..split], &frontier[split..]] {
                if part.is_empty() {
                    continue;
                }
                let sub = s.sample_one_hop_stable_with_scratch(&g, part, 4, 99, &mut scratch);
                for (i, &v) in part.iter().enumerate() {
                    let j = frontier.iter().position(|&x| x == v).unwrap();
                    let expect: Vec<VertexId> = full
                        .neighbors_local(j)
                        .iter()
                        .map(|&li| full.src()[li as usize])
                        .collect();
                    let got: Vec<VertexId> = sub
                        .neighbors_local(i)
                        .iter()
                        .map(|&li| sub.src()[li as usize])
                        .collect();
                    assert_eq!(got, expect, "vertex {v} split {split}");
                }
            }
        }
    }

    #[test]
    fn single_partition_biased_sampling_is_bit_identical_to_unbiased() {
        let g = erdos_renyi(200, 5000, 7);
        let s = NeighborSampler::new(Fanout::new(vec![4, 3]));
        let owner = vec![0u32; 200];
        let mut builder = BlockBuilder::new();
        let mut counts = LocalityCounts::default();
        for seed in 0..10u64 {
            let seeds: Vec<VertexId> = (0..10).map(|i| (seed as u32 * 13 + i) % 200).collect();
            let plain = s.sample_batch(&g, &seeds, seed);
            let biased = s.sample_batch_pooled_biased(
                &g,
                &seeds,
                seed,
                &mut builder,
                &owner,
                0,
                &mut counts,
            );
            assert_eq!(plain.len(), biased.len());
            for (a, b) in plain.iter().zip(&biased) {
                assert_eq!(a.dst(), b.dst(), "seed {seed}");
                assert_eq!(a.src(), b.src(), "seed {seed}");
                assert_eq!(a.num_edges(), b.num_edges(), "seed {seed}");
                for i in 0..a.num_dst() {
                    assert_eq!(a.neighbors_local(i), b.neighbors_local(i), "seed {seed}");
                }
            }
            let mut stack = biased;
            for block in stack.drain(..) {
                builder.donate_parts(block.into_parts());
            }
            builder.donate_stack(stack);
        }
        assert_eq!(counts.remote_picks, 0, "one partition has no remote picks");
        assert!(counts.local_picks > 0);
    }

    #[test]
    fn biased_sampling_prefers_local_neighbors_and_counts_remote_pulls() {
        // Sparse enough (mean degree ~8, so ~4 local under a 2-way cut)
        // that the fanout regularly outruns the local supply.
        let g = erdos_renyi(300, 2400, 9);
        let s = NeighborSampler::new(Fanout::new(vec![5]));
        let owner: Vec<u32> = (0..300u32).map(|v| v % 2).collect();
        let mut builder = BlockBuilder::new();
        let mut biased_counts = LocalityCounts::default();
        let seeds: Vec<VertexId> = (0..40).map(|i| i * 2).collect(); // part 0
        let blocks = s.sample_batch_pooled_biased(
            &g,
            &seeds,
            3,
            &mut builder,
            &owner,
            0,
            &mut biased_counts,
        );
        let b = &blocks[0];
        // Picks are still real, distinct neighbors bounded by fanout.
        for i in 0..b.num_dst() {
            let v = b.dst()[i];
            let mut seen = std::collections::HashSet::new();
            assert!(b.sampled_degree(i) <= 5.max(g.degree(v)));
            let mut local = 0usize;
            for &li in b.neighbors_local(i) {
                let u = b.src()[li as usize];
                assert!(seen.insert(u), "duplicate neighbor {u} for {v}");
                assert!(g.neighbors(v).contains(&u));
                if owner[u as usize] == 0 {
                    local += 1;
                }
            }
            // Local preference: remote picks appear only once the local
            // supply is exhausted below the fanout.
            let local_supply = g
                .neighbors(v)
                .iter()
                .filter(|&&u| owner[u as usize] == 0)
                .count();
            if g.degree(v) > 5 && local_supply >= 5 {
                assert_eq!(local, b.sampled_degree(i), "vertex {v} pulled remote");
            }
        }
        assert!(
            biased_counts.remote_picks > 0,
            "a 2-way hash cut has remote picks"
        );

        // The ablation: a locality-blind run (every vertex pretends to be
        // local) must pull strictly more remote vertices by owner-count.
        let mut blind_builder = BlockBuilder::new();
        let blind = s.sample_batch_pooled(&g, &seeds, 3, &mut blind_builder);
        let remote_rows = |blocks: &[Block]| {
            blocks[0]
                .src()
                .iter()
                .filter(|&&u| owner[u as usize] != 0)
                .count()
        };
        assert!(
            remote_rows(&blocks) < remote_rows(&blind),
            "biased {} vs blind {}",
            remote_rows(&blocks),
            remote_rows(&blind)
        );

        // Determinism: same seed, same partition, same blocks and counts.
        let mut c2 = LocalityCounts::default();
        let again = s.sample_batch_pooled_biased(&g, &seeds, 3, &mut builder, &owner, 0, &mut c2);
        assert_eq!(blocks[0].src(), again[0].src());
        assert_eq!(c2, biased_counts);
    }

    #[test]
    fn stable_sampling_differs_by_seed_but_not_frontier_order() {
        let g = erdos_renyi(100, 4000, 13);
        let s = NeighborSampler::new(Fanout::new(vec![3]));
        let mut scratch = SamplerScratch::new();
        let a = s.sample_one_hop_stable_with_scratch(&g, &[5, 6, 7], 3, 1, &mut scratch);
        let b = s.sample_one_hop_stable_with_scratch(&g, &[7, 6, 5], 3, 1, &mut scratch);
        for (i, &v) in [5u32, 6, 7].iter().enumerate() {
            let j = 2 - i;
            let na: Vec<VertexId> = a
                .neighbors_local(i)
                .iter()
                .map(|&l| a.src()[l as usize])
                .collect();
            let nb: Vec<VertexId> = b
                .neighbors_local(j)
                .iter()
                .map(|&l| b.src()[l as usize])
                .collect();
            assert_eq!(na, nb, "vertex {v}");
        }
        let c = s.sample_one_hop_stable_with_scratch(&g, &[5, 6, 7], 3, 2, &mut scratch);
        let same = (0..3).all(|i| {
            let na: Vec<VertexId> = a
                .neighbors_local(i)
                .iter()
                .map(|&l| a.src()[l as usize])
                .collect();
            let nc: Vec<VertexId> = c
                .neighbors_local(i)
                .iter()
                .map(|&l| c.src()[l as usize])
                .collect();
            na == nc
        });
        assert!(!same, "different seeds should draw different neighborhoods");
    }
}
