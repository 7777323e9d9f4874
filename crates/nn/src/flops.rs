//! FLOP estimates for GNN layers — the workload quantities the hardware
//! simulator converts into compute time.
//!
//! Counts are multiply-add = 2 FLOPs, matching how GPU vendor sheets quote
//! peak throughput. The backward pass of a dense layer costs roughly twice
//! its forward (one matmul for `∇W`, one for `∇input`).

use crate::layers::LayerKind;

/// FLOPs of one layer's **forward** pass.
pub fn layer_forward_flops(
    kind: LayerKind,
    num_dst: u64,
    num_src: u64,
    num_edges: u64,
    in_dim: u64,
    out_dim: u64,
) -> u64 {
    match kind {
        // aggregate: one add per edge per channel (+self); transform:
        // dst × in × out MACs.
        LayerKind::Gcn => 2 * (num_edges + num_dst) * in_dim + 2 * num_dst * in_dim * out_dim,
        // two dense transforms + neighbor mean.
        LayerKind::Sage => 2 * num_edges * in_dim + 4 * num_dst * in_dim * out_dim,
        // projection for all src, per-edge score (2·out MACs) + softmax +
        // weighted sum (out MACs per edge incl self).
        LayerKind::Gat => 2 * num_src * in_dim * out_dim + (num_edges + num_dst) * (6 * out_dim),
    }
}

/// FLOPs of one layer's **backward** pass (≈ 2× forward for the dense parts,
/// plus the scatter of aggregation gradients).
pub fn layer_backward_flops(
    kind: LayerKind,
    num_dst: u64,
    num_src: u64,
    num_edges: u64,
    in_dim: u64,
    out_dim: u64,
) -> u64 {
    2 * layer_forward_flops(kind, num_dst, num_src, num_edges, in_dim, out_dim)
}

/// Forward + backward FLOPs of one layer.
pub fn layer_train_flops(
    kind: LayerKind,
    num_dst: u64,
    num_src: u64,
    num_edges: u64,
    in_dim: u64,
    out_dim: u64,
) -> u64 {
    layer_forward_flops(kind, num_dst, num_src, num_edges, in_dim, out_dim)
        + layer_backward_flops(kind, num_dst, num_src, num_edges, in_dim, out_dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcn_flops_scale_with_edges_and_dims() {
        let base = layer_forward_flops(LayerKind::Gcn, 100, 400, 1000, 32, 16);
        let more_edges = layer_forward_flops(LayerKind::Gcn, 100, 400, 2000, 32, 16);
        let wider = layer_forward_flops(LayerKind::Gcn, 100, 400, 1000, 64, 16);
        assert!(more_edges > base);
        assert!(wider > base);
    }

    #[test]
    fn sage_costs_more_than_gcn_per_dst() {
        // Two weight matrices vs one.
        let gcn = layer_forward_flops(LayerKind::Gcn, 100, 100, 0, 32, 32);
        let sage = layer_forward_flops(LayerKind::Sage, 100, 100, 0, 32, 32);
        assert!(sage > gcn);
    }

    #[test]
    fn gat_pays_for_src_projection() {
        let few_src = layer_forward_flops(LayerKind::Gat, 10, 20, 50, 32, 32);
        let many_src = layer_forward_flops(LayerKind::Gat, 10, 200, 50, 32, 32);
        assert!(many_src > few_src);
    }

    #[test]
    fn train_is_forward_plus_backward() {
        let f = layer_forward_flops(LayerKind::Gcn, 10, 40, 100, 8, 4);
        let b = layer_backward_flops(LayerKind::Gcn, 10, 40, 100, 8, 4);
        assert_eq!(layer_train_flops(LayerKind::Gcn, 10, 40, 100, 8, 4), f + b);
        assert_eq!(b, 2 * f);
    }
}
