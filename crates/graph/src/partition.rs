//! Vertex partitioning for multi-GPU training (Fig 11 / DSP-style).

use crate::csr::{Csr, VertexId};

/// Assignment of each vertex to a partition in `[0, parts)`.
#[derive(Clone, Debug)]
pub struct Partition {
    pub parts: usize,
    pub assignment: Vec<u32>,
}

impl Partition {
    /// The partition that owns vertex `v`.
    pub fn owner(&self, v: VertexId) -> usize {
        self.assignment[v as usize] as usize
    }

    /// Vertices owned by `part`.
    pub fn members(&self, part: usize) -> Vec<VertexId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(v, &p)| (p as usize == part).then_some(v as VertexId))
            .collect()
    }

    /// Sizes of all partitions.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.parts];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Fraction of edges crossing partitions — the multi-GPU communication
    /// driver in DSP-style cooperative sampling.
    pub fn edge_cut_fraction(&self, g: &Csr) -> f64 {
        let mut cut = 0usize;
        let mut total = 0usize;
        for (u, v) in g.edges() {
            total += 1;
            if self.assignment[u as usize] != self.assignment[v as usize] {
                cut += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            cut as f64 / total as f64
        }
    }

    /// Deterministic balance + edge-cut statistics: one CSR walk in edge
    /// order, integer counters only, so the numbers are identical run over
    /// run and independent of thread count.
    pub fn stats(&self, g: &Csr) -> PartitionStats {
        let sizes = self.sizes();
        let mut cut_matrix = vec![0u64; self.parts * self.parts];
        let mut cut_edges = 0u64;
        let mut total_edges = 0u64;
        for (u, v) in g.edges() {
            total_edges += 1;
            let (a, b) = (self.owner(u), self.owner(v));
            if a != b {
                cut_edges += 1;
                // Accumulate both orientations so the matrix is symmetric
                // by construction, whatever edge order the CSR stores.
                cut_matrix[a * self.parts + b] += 1;
                cut_matrix[b * self.parts + a] += 1;
            }
        }
        PartitionStats {
            parts: self.parts,
            sizes,
            cut_edges,
            total_edges,
            cut_matrix,
        }
    }
}

/// Summary statistics for a [`Partition`] over a concrete graph, produced
/// by [`Partition::stats`]. Everything here is integer-derived and
/// deterministic — suitable for bench JSON and CI gates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionStats {
    /// Number of partitions (row/column count of [`Self::cut_matrix`]).
    pub parts: usize,
    /// Vertices owned by each partition.
    pub sizes: Vec<usize>,
    /// Directed edges whose endpoints live in different partitions.
    pub cut_edges: u64,
    /// All directed edges in the graph.
    pub total_edges: u64,
    /// `parts × parts` row-major matrix: `cut_matrix[a*parts+b]` counts
    /// edges with one endpoint in `a` and the other in `b` (both
    /// orientations of every cut edge are accumulated, so the matrix is
    /// symmetric and its diagonal is zero).
    pub cut_matrix: Vec<u64>,
}

impl PartitionStats {
    /// Cut edges between partitions `a` and `b` (symmetric).
    pub fn cut_between(&self, a: usize, b: usize) -> u64 {
        self.cut_matrix[a * self.parts + b]
    }

    /// `max(sizes) / ideal` where ideal is a perfectly even split — 1.0 is
    /// perfect balance, the DistDGL-style load-imbalance metric.
    pub fn balance(&self) -> f64 {
        let total: usize = self.sizes.iter().sum();
        let max = self.sizes.iter().copied().max().unwrap_or(0);
        if total == 0 {
            1.0
        } else {
            max as f64 / (total as f64 / self.parts as f64)
        }
    }

    /// Fraction of edges that cross partitions.
    pub fn cut_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.total_edges as f64
        }
    }
}

/// Hash (round-robin) partitioning — what DGL/DSP default to for feature
/// sharding across GPUs.
pub fn hash_partition(num_vertices: usize, parts: usize) -> Partition {
    assert!(parts >= 1);
    Partition {
        parts,
        assignment: (0..num_vertices).map(|v| (v % parts) as u32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::erdos_renyi;

    #[test]
    fn hash_partition_is_balanced() {
        let p = hash_partition(103, 4);
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn members_round_trip() {
        let p = hash_partition(10, 3);
        let m0 = p.members(0);
        assert!(m0.iter().all(|&v| v % 3 == 0));
    }

    #[test]
    fn edge_cut_reasonable_for_random_graph() {
        let g = erdos_renyi(400, 4000, 1);
        let p = hash_partition(400, 4);
        let cut = p.edge_cut_fraction(&g);
        // Random graph + hash partition: expected cut = 1 - 1/parts = 0.75.
        assert!((cut - 0.75).abs() < 0.1, "cut {cut}");
    }

    #[test]
    fn single_partition_has_no_cut() {
        let g = erdos_renyi(50, 400, 2);
        let p = hash_partition(50, 1);
        assert_eq!(p.edge_cut_fraction(&g), 0.0);
    }

    #[test]
    fn stats_agree_with_edge_cut_fraction_and_are_symmetric() {
        let g = erdos_renyi(200, 1600, 7);
        for parts in [1, 2, 3, 4] {
            let p = hash_partition(200, parts);
            let s = p.stats(&g);
            assert_eq!(s.sizes, p.sizes());
            assert_eq!(s.sizes.iter().sum::<usize>(), 200);
            assert!((s.cut_fraction() - p.edge_cut_fraction(&g)).abs() < 1e-12);
            let off_diag: u64 = (0..parts)
                .flat_map(|a| (0..parts).map(move |b| (a, b)))
                .map(|(a, b)| if a == b { 0 } else { s.cut_between(a, b) })
                .sum();
            // Each cut edge lands in [a][b] and [b][a].
            assert_eq!(off_diag, 2 * s.cut_edges);
            for a in 0..parts {
                assert_eq!(s.cut_between(a, a), 0, "diagonal must be zero");
                for b in 0..parts {
                    assert_eq!(s.cut_between(a, b), s.cut_between(b, a));
                }
            }
            assert!(s.balance() >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn stats_are_deterministic_across_calls() {
        let g = erdos_renyi(120, 900, 3);
        let p = hash_partition(120, 3);
        assert_eq!(p.stats(&g), p.stats(&g));
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(119), 2);
    }
}
