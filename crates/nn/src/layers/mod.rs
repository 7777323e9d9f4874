//! GNN layers over sampled blocks.

pub mod gat;
pub mod gcn;
pub mod sage;

use crate::param::Param;
use neutron_sample::Block;
use neutron_tensor::{Matrix, RowView};

pub use gat::{GatCtx, GatLayer};
pub use gcn::{GcnCtx, GcnLayer};
pub use sage::{SageCtx, SageLayer};

/// How many destinations ahead of the one being summed the mean
/// aggregations prefetch input rows: far enough for the loads to land
/// before the sum reads them, near enough that the rows are still cached.
/// 1, 2 and 4 read within noise of each other on a 2-vCPU x86_64 box.
const PREFETCH_AHEAD: usize = 2;

/// Before a mean aggregation sums destination `i`, asks for the input rows
/// destination `i + PREFETCH_AHEAD` will read: its sampled neighbours, and
/// its own row when `with_self` (GCN sums it, SAGE reads it elsewhere).
/// The rows of a cached or gathered view are scattered over tables too
/// large for cache, so each read otherwise waits on memory.
fn prefetch_ahead(block: &Block, input: &RowView, i: usize, with_self: bool) {
    let dst = i + PREFETCH_AHEAD;
    if dst >= block.num_dst() {
        return;
    }
    if with_self {
        input.prefetch(dst);
    }
    for &li in block.neighbors_local(dst) {
        input.prefetch(li as usize);
    }
}

/// Which GNN architecture a layer (or model) uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Graph Convolutional Network (Kipf & Welling) — mean aggregation
    /// including self, single weight matrix.
    Gcn,
    /// GraphSAGE (Hamilton et al.) — separate self/neighbor weights, mean
    /// aggregator.
    Sage,
    /// Graph Attention Network (Veličković et al.) — additive single-head
    /// attention.
    Gat,
}

impl LayerKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            LayerKind::Gcn => "GCN",
            LayerKind::Sage => "GraphSAGE",
            LayerKind::Gat => "GAT",
        }
    }

    /// All three evaluated models.
    pub const ALL: [LayerKind; 3] = [LayerKind::Gcn, LayerKind::Sage, LayerKind::Gat];
}

/// A concrete GNN layer.
#[derive(Clone, Debug)]
pub enum Layer {
    Gcn(GcnLayer),
    Sage(SageLayer),
    Gat(GatLayer),
}

/// Saved intermediates of a layer's forward pass.
pub enum LayerCtx {
    Gcn(GcnCtx),
    Sage(SageCtx),
    Gat(GatCtx),
}

impl Layer {
    /// Builds a layer of `kind` with the given dims and init seed.
    /// `last` selects the output nonlinearity (identity on the final layer).
    pub fn new(kind: LayerKind, in_dim: usize, out_dim: usize, last: bool, seed: u64) -> Self {
        match kind {
            LayerKind::Gcn => Layer::Gcn(GcnLayer::new(in_dim, out_dim, last, seed)),
            LayerKind::Sage => Layer::Sage(SageLayer::new(in_dim, out_dim, last, seed)),
            LayerKind::Gat => Layer::Gat(GatLayer::new(in_dim, out_dim, last, seed)),
        }
    }

    /// Forward pass: `input` has one row per `block.src()` vertex (a
    /// `&Matrix`, or a [`RowView`] that reads them in place); the output
    /// has one row per `block.dst()` vertex.
    pub fn forward<'a>(&self, block: &Block, input: impl Into<RowView<'a>>) -> (Matrix, LayerCtx) {
        let input = input.into();
        match self {
            Layer::Gcn(l) => {
                let (out, ctx) = l.forward(block, input);
                (out, LayerCtx::Gcn(ctx))
            }
            Layer::Sage(l) => {
                let (out, ctx) = l.forward(block, input);
                (out, LayerCtx::Sage(ctx))
            }
            Layer::Gat(l) => {
                let (out, ctx) = l.forward(block, input);
                (out, LayerCtx::Gat(ctx))
            }
        }
    }

    /// Backward pass: consumes the forward ctx, accumulates parameter
    /// gradients (the same bits either way) and returns `∂L/∂input` (one row
    /// per src vertex) iff `input_grad` — `false` when the input is a constant.
    pub fn backward(
        &mut self,
        block: &Block,
        ctx: LayerCtx,
        d_out: &Matrix,
        input_grad: bool,
    ) -> Option<Matrix> {
        match (self, ctx) {
            (Layer::Gcn(l), LayerCtx::Gcn(c)) => l.backward(block, c, d_out, input_grad),
            (Layer::Sage(l), LayerCtx::Sage(c)) => l.backward(block, c, d_out, input_grad),
            (Layer::Gat(l), LayerCtx::Gat(c)) => l.backward(block, c, d_out, input_grad),
            _ => panic!("layer/ctx kind mismatch"),
        }
    }

    /// Immutable views of the layer's parameters.
    pub fn params(&self) -> Vec<&Param> {
        match self {
            Layer::Gcn(l) => l.params(),
            Layer::Sage(l) => l.params(),
            Layer::Gat(l) => l.params(),
        }
    }

    /// Mutable views of the layer's parameters (optimizer entry point).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Layer::Gcn(l) => l.params_mut(),
            Layer::Sage(l) => l.params_mut(),
            Layer::Gat(l) => l.params_mut(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        match self {
            Layer::Gcn(l) => l.in_dim(),
            Layer::Sage(l) => l.in_dim(),
            Layer::Gat(l) => l.in_dim(),
        }
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        match self {
            Layer::Gcn(l) => l.out_dim(),
            Layer::Sage(l) => l.out_dim(),
            Layer::Gat(l) => l.out_dim(),
        }
    }

    /// The architecture of this layer.
    pub fn kind(&self) -> LayerKind {
        match self {
            Layer::Gcn(_) => LayerKind::Gcn,
            Layer::Sage(_) => LayerKind::Sage,
            Layer::Gat(_) => LayerKind::Gat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_tensor::init;

    fn toy_block() -> Block {
        // dst [0,1]; src [0,1,2]; 0 ← {1,2}, 1 ← {2}.
        Block::new(vec![0, 1], vec![0, 1, 2], vec![0, 2, 3], vec![1, 2, 2])
    }

    #[test]
    fn all_kinds_produce_correct_shapes() {
        let block = toy_block();
        let input = init::uniform(3, 5, -1.0, 1.0, 1);
        for kind in LayerKind::ALL {
            let layer = Layer::new(kind, 5, 4, false, 2);
            let (out, _ctx) = layer.forward(&block, &input);
            assert_eq!(out.shape(), (2, 4), "{kind:?}");
            assert!(out.all_finite());
        }
    }

    #[test]
    fn backward_returns_src_shaped_gradient() {
        let block = toy_block();
        let input = init::uniform(3, 5, -1.0, 1.0, 3);
        for kind in LayerKind::ALL {
            let mut layer = Layer::new(kind, 5, 4, false, 4);
            let (out, ctx) = layer.forward(&block, &input);
            let d_out = Matrix::full(out.rows(), out.cols(), 1.0);
            let d_in = layer.backward(&block, ctx, &d_out, true).unwrap();
            assert_eq!(d_in.shape(), input.shape(), "{kind:?}");
            assert!(d_in.all_finite());
            let (_, ctx) = layer.forward(&block, &input);
            assert!(layer.backward(&block, ctx, &d_out, false).is_none());
        }
    }

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(LayerKind::Gcn.name(), "GCN");
        assert_eq!(LayerKind::Sage.name(), "GraphSAGE");
        assert_eq!(LayerKind::Gat.name(), "GAT");
    }
}
