//! Degree-ordered vertex rankings.

use crate::csr::{Csr, VertexId};

/// Vertices sorted by descending degree — PaGraph's cache ranking.
pub fn vertices_by_degree_desc(g: &Csr) -> Vec<VertexId> {
    let mut ids: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    ids.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{erdos_renyi, rmat, RmatParams};

    /// Share of all edges held by the top 10% highest-degree vertices.
    fn top_decile_edge_share(g: &Csr) -> f64 {
        let order = vertices_by_degree_desc(g);
        let top: usize = order[..order.len() / 10].iter().map(|&v| g.degree(v)).sum();
        top as f64 / g.num_edges() as f64
    }

    #[test]
    fn rmat_is_more_skewed_than_er() {
        let r = rmat(2000, 30_000, RmatParams::graph500(), 1);
        let e = erdos_renyi(2000, 30_000, 1);
        assert!(
            top_decile_edge_share(&r) > top_decile_edge_share(&e),
            "R-MAT should concentrate edges in hubs"
        );
    }

    #[test]
    fn degree_ranking_is_descending() {
        let g = rmat(500, 5_000, RmatParams::graph500(), 2);
        let order = vertices_by_degree_desc(&g);
        assert_eq!(order.len(), 500);
        for w in order.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
    }
}
