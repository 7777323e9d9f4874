//! Edge-stream graph builder.
//!
//! [`GraphBuilder::build`] works straight off the buffered edge list: one
//! counting pass sizes every row for both directions (skipping self-loops
//! inline), one scatter writes the forward edges and, for a symmetric build,
//! a second writes the reversed ones into the same `targets` buffer. No
//! reversed copy of the edge list is made. Deduplication then runs in place:
//! each row is sorted (or, when it is at least as long as the vertex bitset
//! has words, marked in a bitset and read back in order) and its unique
//! targets compacted towards the front of `targets`, rewriting `offsets` in
//! the same walk.

use crate::csr::{Csr, VertexId};

/// Accumulates an edge stream and finalises it into a [`Csr`].
///
/// Edges are interpreted as `src -> dst`; the resulting CSR stores, for each
/// vertex, its list of *in*-neighbors (aggregation sources). Self-loops and
/// duplicate edges are removed at build time: GNN layers add the self
/// contribution explicitly, so a stored self-loop would double it.
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    symmetric: bool,
}

impl GraphBuilder {
    /// New builder over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
            symmetric: false,
        }
    }

    /// Also insert the reverse of every edge (undirected input).
    pub fn symmetric(mut self, yes: bool) -> Self {
        self.symmetric = yes;
        self
    }

    /// Adds a directed edge `src -> dst`.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        debug_assert!((src as usize) < self.num_vertices);
        debug_assert!((dst as usize) < self.num_vertices);
        self.edges.push((src, dst));
    }

    /// Finalises into CSR (in-neighbor orientation).
    ///
    /// Before dedup, row `v` holds the sources of the forward edges into `v`
    /// in stream order, then (symmetric builds) the destinations of the
    /// forward edges out of `v` in stream order; after dedup it is sorted and
    /// unique.
    pub fn build(self) -> Csr {
        let n = self.num_vertices;
        let kept = |&(s, d): &(VertexId, VertexId)| s != d;
        // Bucket by destination: CSR rows are in-neighbor lists.
        let mut offsets = vec![0u64; n + 1];
        for &(s, d) in self.edges.iter().filter(|e| kept(e)) {
            offsets[d as usize + 1] += 1;
            if self.symmetric {
                offsets[s as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; offsets[n] as usize];
        for &(s, d) in self.edges.iter().filter(|e| kept(e)) {
            targets[cursor[d as usize] as usize] = s;
            cursor[d as usize] += 1;
        }
        if self.symmetric {
            for &(s, d) in self.edges.iter().filter(|e| kept(e)) {
                targets[cursor[s as usize] as usize] = d;
                cursor[s as usize] += 1;
            }
        }
        drop(cursor);
        drop(self.edges);
        // Sort + dedup each row in place, compacting towards the front. A
        // row at least `words` long is marked in a bitset instead of sorted:
        // reading the set bits back costs `words`, not `len · log len`.
        let words = n.div_ceil(64);
        let mut seen = vec![0u64; words];
        let (mut start, mut write) = (0usize, 0usize);
        for v in 0..n {
            let end = offsets[v + 1] as usize;
            if end - start >= words {
                for &t in &targets[start..end] {
                    seen[t as usize / 64] |= 1 << (t % 64);
                }
                for (w, bits) in seen.iter_mut().enumerate() {
                    let mut b = std::mem::take(bits);
                    while b != 0 {
                        targets[write] = (w * 64) as VertexId + b.trailing_zeros();
                        write += 1;
                        b &= b - 1;
                    }
                }
            } else {
                targets[start..end].sort_unstable();
                let row_start = write;
                for i in start..end {
                    let t = targets[i];
                    if write == row_start || targets[write - 1] != t {
                        targets[write] = t;
                        write += 1;
                    }
                }
            }
            offsets[v + 1] = write as u64;
            start = end;
        }
        targets.truncate(write);
        targets.shrink_to_fit();
        Csr::from_raw(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_neighbor_orientation() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn symmetric_adds_reverse_edges() {
        let mut b = GraphBuilder::new(2).symmetric(true);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    /// Per-row reference: push the forward edges less self-loops, then the
    /// reversed ones, then sort and dedup each row.
    fn reference(n: usize, edges: &[(VertexId, VertexId)], symmetric: bool) -> Vec<Vec<VertexId>> {
        let mut rows = vec![Vec::new(); n];
        let kept = edges.iter().filter(|&&(s, d)| s != d);
        for &(s, d) in kept.clone() {
            rows[d as usize].push(s);
        }
        if symmetric {
            for &(s, d) in kept {
                rows[s as usize].push(d);
            }
        }
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
        }
        rows
    }

    #[test]
    fn build_matches_the_per_row_reference_under_every_option() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // Sizes straddle the 64-bit bitset words; a few hub destinations
        // give rows long enough for the bitset path next to short sorted
        // rows, and the narrow id range forces duplicates and self-loops.
        for (case, &(n, m)) in [(1, 4), (3, 40), (65, 400), (130, 3_000), (1_000, 6_000)]
            .iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(case as u64);
            let edges: Vec<(VertexId, VertexId)> = (0..m)
                .map(|_| {
                    let s = rng.random_range(0..n) as VertexId;
                    let d = if rng.random_bool(0.3) {
                        rng.random_range(0..n.min(4)) as VertexId
                    } else {
                        rng.random_range(0..n) as VertexId
                    };
                    (s, d)
                })
                .collect();
            for symmetric in [false, true] {
                let mut b = GraphBuilder::new(n).symmetric(symmetric);
                for &(s, d) in &edges {
                    b.add_edge(s, d);
                }
                let g = b.build();
                let want = reference(n, &edges, symmetric);
                assert_eq!(g.num_vertices(), n);
                assert_eq!(g.num_edges(), want.iter().map(Vec::len).sum::<usize>());
                for (v, row) in want.iter().enumerate() {
                    assert_eq!(
                        g.neighbors(v as VertexId),
                        row.as_slice(),
                        "n={n} symmetric={symmetric} row {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_are_sorted_after_build() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0);
        b.add_edge(1, 0);
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }
}
