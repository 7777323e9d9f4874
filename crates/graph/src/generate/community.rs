//! Planted-partition (stochastic block model) generator with labels.
//!
//! The convergence experiments (Fig 16) need graphs where a GNN can actually
//! learn: vertices carry ground-truth community labels and edges fall inside
//! communities with tunable probability. Homophily makes neighbor
//! aggregation informative, so accuracy curves behave like the paper's.

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A labelled planted-partition graph.
pub struct PlantedPartition {
    /// Symmetric CSR topology.
    pub csr: Csr,
    /// Ground-truth community id per vertex, in `[0, num_communities)`.
    pub labels: Vec<usize>,
}

/// Generates a planted-partition graph: `num_vertices` vertices split evenly
/// into `num_communities`, and `num_edges / 2` drawn pairs, fraction
/// `intra_prob` of which stay inside the source's community. Each pair is
/// stored in both directions, so the graph holds at most `num_edges`
/// *directed* edges, fewer after self-loops and duplicates are dropped.
pub fn planted_partition(
    num_vertices: usize,
    num_edges: usize,
    num_communities: usize,
    intra_prob: f64,
    seed: u64,
) -> PlantedPartition {
    assert!(num_communities >= 1 && num_communities <= num_vertices);
    assert!((0.0..=1.0).contains(&intra_prob));
    let mut rng = StdRng::seed_from_u64(seed);
    // Round-robin assignment keeps communities evenly sized and makes the
    // label derivable from the vertex id (v % k), which tests rely on.
    let labels: Vec<usize> = (0..num_vertices).map(|v| v % num_communities).collect();
    let per_community = num_vertices / num_communities;
    let mut builder = GraphBuilder::new(num_vertices).symmetric(true);
    for _ in 0..num_edges / 2 {
        let s = rng.random_range(0..num_vertices);
        let d = if rng.random_bool(intra_prob) && per_community > 1 {
            // Another vertex of the same community.
            let k = labels[s];
            let idx = rng.random_range(0..per_community);
            (idx * num_communities + k).min(num_vertices - 1)
        } else {
            rng.random_range(0..num_vertices)
        };
        builder.add_edge(s as VertexId, d as VertexId);
    }
    PlantedPartition {
        csr: builder.build(),
        labels,
    }
}

impl PlantedPartition {
    /// Fraction of edges whose endpoints share a label (graph homophily).
    pub fn homophily(&self) -> f64 {
        let mut same = 0usize;
        let mut total = 0usize;
        for (u, v) in self.csr.edges() {
            total += 1;
            if self.labels[u as usize] == self.labels[v as usize] {
                same += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            same as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_communities() {
        let pp = planted_partition(100, 500, 4, 0.9, 1);
        assert_eq!(pp.labels.len(), 100);
        for k in 0..4 {
            assert!(pp.labels.contains(&k));
        }
    }

    #[test]
    fn high_intra_prob_yields_homophilous_graph() {
        let strong = planted_partition(400, 4000, 4, 0.95, 2);
        let weak = planted_partition(400, 4000, 4, 0.0, 2);
        assert!(strong.homophily() > 0.7, "homophily {}", strong.homophily());
        assert!(weak.homophily() < 0.5, "homophily {}", weak.homophily());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = planted_partition(100, 600, 5, 0.8, 3);
        let b = planted_partition(100, 600, 5, 0.8, 3);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.csr.num_edges(), b.csr.num_edges());
    }
}
