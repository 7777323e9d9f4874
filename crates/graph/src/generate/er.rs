//! Erdős–Rényi G(n, m) generator — the unskewed baseline used in tests.

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Draws `num_edges / 2` vertex pairs uniformly at random and stores each in
/// both directions: at most `num_edges` *directed* edges, fewer after
/// self-loops and duplicates are dropped.
pub fn erdos_renyi(num_vertices: usize, num_edges: usize, seed: u64) -> Csr {
    assert!(num_vertices > 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(num_vertices).symmetric(true);
    for _ in 0..num_edges / 2 {
        let s = rng.random_range(0..num_vertices) as VertexId;
        let d = rng.random_range(0..num_vertices) as VertexId;
        builder.add_edge(s, d);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approximate_edge_count() {
        let g = erdos_renyi(1000, 20_000, 5);
        assert!(
            g.num_edges() > 15_000 && g.num_edges() <= 20_000,
            "got {}",
            g.num_edges()
        );
    }

    #[test]
    fn degrees_are_balanced() {
        let g = erdos_renyi(500, 20_000, 6);
        let max_deg = (0..500).map(|v| g.degree(v)).max().unwrap();
        let avg = g.avg_degree();
        assert!(
            (max_deg as f64) < 3.0 * avg,
            "ER should have no hubs: {max_deg} vs {avg}"
        );
    }
}
