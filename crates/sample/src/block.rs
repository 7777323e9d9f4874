//! Message-flow-graph blocks (bipartite per-layer subgraphs).

use neutron_graph::VertexId;

/// A bipartite sampled subgraph for one GNN layer.
///
/// Destination vertices (`dst`) are the vertices whose embeddings the layer
/// produces; source vertices (`src`) provide the inputs. Following the DGL
/// convention, `src[0..dst.len()] == dst`, so a destination's own input is
/// always available at the same local index — the self-contribution of
/// Equation (1)'s `N_in(v) ∪ {v}`.
#[derive(Clone, Debug)]
pub struct Block {
    dst: Vec<VertexId>,
    src: Vec<VertexId>,
    /// Per-dst offsets into `indices` (length `dst.len() + 1`). Lists
    /// sampled in-neighbors only; the self edge is implicit.
    offsets: Vec<u32>,
    /// Local src indices of each dst's sampled neighbors.
    indices: Vec<u32>,
}

impl Block {
    /// Assembles a block, validating the src-prefix convention.
    pub fn new(
        dst: Vec<VertexId>,
        src: Vec<VertexId>,
        offsets: Vec<u32>,
        indices: Vec<u32>,
    ) -> Self {
        assert_eq!(offsets.len(), dst.len() + 1);
        assert_eq!(*offsets.last().unwrap_or(&0) as usize, indices.len());
        assert!(src.len() >= dst.len(), "src must contain dst as prefix");
        debug_assert!(
            dst.iter().zip(&src).all(|(a, b)| a == b),
            "src prefix must equal dst"
        );
        debug_assert!(indices.iter().all(|&i| (i as usize) < src.len()));
        Self {
            dst,
            src,
            offsets,
            indices,
        }
    }

    /// Destination (output) vertices, in order.
    #[inline]
    pub fn dst(&self) -> &[VertexId] {
        &self.dst
    }

    /// Source (input) vertices; the first `num_dst` entries equal `dst`.
    #[inline]
    pub fn src(&self) -> &[VertexId] {
        &self.src
    }

    /// Number of destination vertices.
    #[inline]
    pub fn num_dst(&self) -> usize {
        self.dst.len()
    }

    /// Number of source vertices.
    #[inline]
    pub fn num_src(&self) -> usize {
        self.src.len()
    }

    /// Number of sampled (non-self) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Local src indices of dst `i`'s sampled neighbors.
    #[inline]
    pub fn neighbors_local(&self, i: usize) -> &[u32] {
        &self.indices[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// In-degree (sampled) of dst `i`, excluding the implicit self edge.
    #[inline]
    pub fn sampled_degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Dismantles the block into its spent buffers so a [`BlockParts`] pool
    /// can hand the capacity back to the sampler.
    pub fn into_parts(self) -> BlockParts {
        BlockParts {
            dst: self.dst,
            src: self.src,
            offsets: self.offsets,
            indices: self.indices,
        }
    }

    /// Checks internal invariants; used by property tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.dst.len() + 1 {
            return Err("offsets length mismatch".into());
        }
        if !self.offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets not monotone".into());
        }
        if self.src.len() < self.dst.len() {
            return Err("src shorter than dst".into());
        }
        for (a, b) in self.dst.iter().zip(&self.src) {
            if a != b {
                return Err("src prefix differs from dst".into());
            }
        }
        if let Some(&i) = self.indices.iter().find(|&&i| i as usize >= self.src.len()) {
            return Err(format!("local index {i} out of range"));
        }
        Ok(())
    }
}

/// The four component buffers of a recycled [`Block`], ready to be cleared
/// and refilled by the next sampling call. Contents are stale garbage;
/// only the capacity matters.
#[derive(Clone, Debug, Default)]
pub struct BlockParts {
    /// Spent destination-vertex buffer.
    pub dst: Vec<VertexId>,
    /// Spent source-vertex buffer.
    pub src: Vec<VertexId>,
    /// Spent per-dst offset buffer.
    pub offsets: Vec<u32>,
    /// Spent local-index buffer.
    pub indices: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        // dst = [10, 20]; src = [10, 20, 30, 40];
        // 10 aggregates from {30}, 20 aggregates from {30, 40}.
        Block::new(
            vec![10, 20],
            vec![10, 20, 30, 40],
            vec![0, 1, 3],
            vec![2, 2, 3],
        )
    }

    #[test]
    fn accessors_reflect_structure() {
        let b = sample_block();
        assert_eq!(b.num_dst(), 2);
        assert_eq!(b.num_src(), 4);
        assert_eq!(b.num_edges(), 3);
        assert_eq!(b.neighbors_local(0), &[2]);
        assert_eq!(b.neighbors_local(1), &[2, 3]);
        assert_eq!(b.sampled_degree(1), 2);
        assert!(b.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "src must contain dst as prefix")]
    fn rejects_src_shorter_than_dst() {
        let _ = Block::new(vec![1, 2], vec![1], vec![0, 0, 0], vec![]);
    }

    #[test]
    fn into_parts_round_trips_the_buffers() {
        let b = sample_block();
        let (dst, src) = (b.dst().to_vec(), b.src().to_vec());
        let parts = b.into_parts();
        assert_eq!(parts.dst, dst);
        assert_eq!(parts.src, src);
        assert_eq!(parts.offsets.len(), dst.len() + 1);
    }

    #[test]
    fn empty_block_is_valid() {
        let b = Block::new(vec![], vec![], vec![0], vec![]);
        assert_eq!(b.num_edges(), 0);
        assert!(b.validate().is_ok());
    }
}
