//! R-MAT (recursive matrix) graph generator.
//!
//! Each pair descends `⌈log2 n⌉` quadrant levels, one uniform draw a level.
//! The quadrant is read off the draw by three comparisons against the
//! cumulative thresholds `a`, `a + b` and `a + b + c`, turned into the row
//! and column bits directly rather than walked as an if-chain: the draws are
//! random by construction, so a chain mispredicts on most levels, and the
//! descent is the whole inner loop of every R-MAT replica's synthesis. The
//! comparisons, and so the edges, are the same either way.
//!
//! The comparisons are made on integers. A uniform `f64` draw in `[0, 1)` is
//! `m · 2^-53` for the top 53 bits `m` of one `next_u64`, both steps exact,
//! so `draw >= t` holds exactly when `m >= ⌈t · 2^53⌉` (also exact: scaling
//! by a power of two only moves the exponent).

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// R-MAT quadrant probabilities. Must sum to 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl RmatParams {
    /// Graph500 reference parameters — strong degree skew, the regime of the
    /// paper's social-network datasets.
    pub fn graph500() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }

    /// Milder skew, closer to co-purchase networks (Products).
    pub fn mild() -> Self {
        Self {
            a: 0.45,
            b: 0.22,
            c: 0.22,
            d: 0.11,
        }
    }

    fn validate(&self) {
        let s = self.a + self.b + self.c + self.d;
        assert!(
            (s - 1.0).abs() < 1e-9,
            "R-MAT probabilities sum to {s}, expected 1"
        );
        assert!(self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0);
    }
}

/// Generates an R-MAT graph over `num_vertices` vertices from
/// `num_edges / 2` drawn pairs, each stored in both directions: at most
/// `num_edges` *directed* edges (the unit of
/// [`DatasetSpec::edges`](crate::dataset::DatasetSpec::edges)), fewer after
/// self-loops and duplicates are dropped. Skewed, dense replicas lose much to
/// dedup: Reddit's replica asks for 7,163,125 edges and stores 3,505,094.
///
/// Vertices are drawn in a `2^k` square and folded into `[0, n)`; the fold
/// preserves skew while allowing arbitrary vertex counts.
pub fn rmat(num_vertices: usize, num_edges: usize, params: RmatParams, seed: u64) -> Csr {
    params.validate();
    assert!(num_vertices > 1, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let levels = usize::BITS - (num_vertices - 1).leading_zeros();
    let mut builder = GraphBuilder::new(num_vertices).symmetric(true);
    // Quadrants in draw order: a = (0, 0), b = (0, 1), c = (1, 0), d = (1, 1).
    let threshold = |t: f64| (t * (1u64 << 53) as f64).ceil() as u64;
    let (ta, tab, tabc) = (
        threshold(params.a),
        threshold(params.a + params.b),
        threshold(params.a + params.b + params.c),
    );
    for _ in 0..num_edges / 2 {
        let (mut src, mut dst) = (0usize, 0usize);
        for _ in 0..levels {
            let r = rng.next_u64() >> 11;
            // Non-short-circuit `&` / `|`: no branch on the random draw.
            let row = r >= tab;
            let col = ((r >= ta) & (r < tab)) | (r >= tabc);
            src = (src << 1) | row as usize;
            dst = (dst << 1) | col as usize;
        }
        let src = (src % num_vertices) as VertexId;
        let dst = (dst % num_vertices) as VertexId;
        builder.add_edge(src, dst);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_roughly_requested_size() {
        let g = rmat(1000, 10_000, RmatParams::graph500(), 1);
        assert_eq!(g.num_vertices(), 1000);
        // Dedup and self-loop removal lose some edges; expect within 2x.
        assert!(g.num_edges() > 4_000, "got {}", g.num_edges());
        assert!(g.num_edges() <= 10_000);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = rmat(500, 4_000, RmatParams::graph500(), 7);
        let b = rmat(500, 4_000, RmatParams::graph500(), 7);
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..500 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
        let c = rmat(500, 4_000, RmatParams::graph500(), 8);
        assert_ne!(
            (0..500).map(|v| a.degree(v)).collect::<Vec<_>>(),
            (0..500).map(|v| c.degree(v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn graph500_params_produce_skew() {
        let g = rmat(2000, 40_000, RmatParams::graph500(), 3);
        let mut degs: Vec<usize> = (0..2000).map(|v| g.degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = degs[..200].iter().sum();
        let total: usize = degs.iter().sum();
        assert!(
            top_decile as f64 > 0.35 * total as f64,
            "top 10% of vertices should hold a large share of edges (got {top_decile}/{total})"
        );
    }

    #[test]
    #[should_panic(expected = "probabilities sum")]
    fn rejects_bad_params() {
        let _ = rmat(
            10,
            10,
            RmatParams {
                a: 0.5,
                b: 0.5,
                c: 0.5,
                d: 0.5,
            },
            0,
        );
    }
}
