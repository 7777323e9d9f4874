//! GCN layer: mean aggregation over sampled neighbors (plus self), linear
//! transform, pointwise nonlinearity.
//!
//! Forward, per destination vertex `v` with sampled neighbors `N(v)`:
//! ```text
//! agg_v = (h_v + Σ_{u∈N(v)} h_u) / (|N(v)| + 1)
//! z_v   = agg_v · W + b
//! out_v = σ(z_v)
//! ```
//! This is Equation (1)/(2) of the paper with a mean `AGGREGATE`, the form
//! used for sampled subgraphs where the full symmetric normalisation is
//! unavailable.

use crate::param::Param;
use neutron_sample::Block;
use neutron_tensor::timing::{self, Kernel};
use neutron_tensor::{init, kernels, ops, Activation, Matrix, RowView};

/// A GCN layer (`in_dim → out_dim`).
#[derive(Clone, Debug)]
pub struct GcnLayer {
    weight: Param,
    bias: Param,
    activation: Activation,
}

/// Forward intermediates of a [`GcnLayer`].
pub struct GcnCtx {
    /// Aggregated inputs (num_dst × in_dim).
    agg: Matrix,
    /// Pre-activation outputs (num_dst × out_dim).
    z: Matrix,
}

impl GcnLayer {
    /// Creates a layer; `last` layers use the identity output activation.
    pub fn new(in_dim: usize, out_dim: usize, last: bool, seed: u64) -> Self {
        Self {
            weight: Param::new(init::xavier_uniform(in_dim, out_dim, seed)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            activation: if last {
                Activation::Identity
            } else {
                Activation::Relu
            },
        }
    }

    /// Mean-aggregates block inputs into per-dst rows, reading each input
    /// row where it lives (see [`RowView`]).
    pub fn aggregate<'a>(block: &Block, input: impl Into<RowView<'a>>) -> Matrix {
        let input = input.into();
        let t0 = timing::start();
        let mut agg = Matrix::zeros(block.num_dst(), input.cols());
        for i in 0..block.num_dst() {
            super::prefetch_ahead(block, &input, i, true);
            // Self contribution: dst i is src i by the prefix convention.
            let row = agg.row_mut(i);
            row.copy_from_slice(input.row(i));
            for &li in block.neighbors_local(i) {
                kernels::add_assign_slice(row, input.row(li as usize));
            }
            let norm = 1.0 / (block.sampled_degree(i) + 1) as f32;
            for v in row {
                *v *= norm;
            }
        }
        timing::stop(Kernel::Aggregate, t0);
        agg
    }

    /// Forward pass; `input` has one row per `block.src()` vertex.
    pub fn forward<'a>(&self, block: &Block, input: impl Into<RowView<'a>>) -> (Matrix, GcnCtx) {
        let input = input.into();
        assert_eq!(input.rows(), block.num_src());
        assert_eq!(input.cols(), self.in_dim());
        let agg = Self::aggregate(block, input);
        let mut z = ops::matmul(&agg, &self.weight.value);
        ops::add_bias_row(&mut z, &self.bias.value);
        let out = self.activation.forward(&z);
        (out, GcnCtx { agg, z })
    }

    /// Backward pass: accumulates parameter gradients; returns `∂L/∂input`
    /// iff `input_grad` (else `dz·Wᵀ` and its scatter are skipped).
    pub fn backward(
        &mut self,
        block: &Block,
        ctx: GcnCtx,
        d_out: &Matrix,
        input_grad: bool,
    ) -> Option<Matrix> {
        let dz = self.activation.backward(&ctx.z, d_out);
        ops::add_assign(&mut self.weight.grad, &ops::matmul_at_b(&ctx.agg, &dz));
        ops::add_assign(&mut self.bias.grad, &ops::sum_rows(&dz));
        if !input_grad {
            return None;
        }
        let d_agg = ops::matmul_a_bt(&dz, &self.weight.value);
        // Distribute aggregation gradient back to src rows (scatter-add).
        let t0 = timing::start();
        let mut d_in = Matrix::zeros(block.num_src(), self.in_dim());
        for i in 0..block.num_dst() {
            let norm = 1.0 / (block.sampled_degree(i) + 1) as f32;
            let g = d_agg.row(i);
            kernels::axpy(d_in.row_mut(i), norm, g);
            for &li in block.neighbors_local(i) {
                kernels::axpy(d_in.row_mut(li as usize), norm, g);
            }
        }
        timing::stop(Kernel::Aggregate, t0);
        Some(d_in)
    }

    /// Parameter views.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    /// Mutable parameter views.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_block() -> Block {
        Block::new(vec![0, 1], vec![0, 1, 2], vec![0, 2, 3], vec![1, 2, 2])
    }

    #[test]
    fn aggregate_means_self_and_neighbors() {
        let block = toy_block();
        let input = Matrix::from_rows(&[&[3.0], &[6.0], &[9.0]]);
        let agg = GcnLayer::aggregate(&block, &input);
        // dst 0: (3 + 6 + 9) / 3 = 6; dst 1: (6 + 9) / 2 = 7.5
        assert_eq!(agg.get(0, 0), 6.0);
        assert_eq!(agg.get(1, 0), 7.5);
    }

    #[test]
    fn forward_shape_and_determinism() {
        let block = toy_block();
        let input = init::uniform(3, 4, -1.0, 1.0, 1);
        let layer = GcnLayer::new(4, 2, false, 2);
        let (a, _) = layer.forward(&block, &input);
        let (b, _) = layer.forward(&block, &input);
        assert_eq!(a, b);
        assert_eq!(a.shape(), (2, 2));
    }

    #[test]
    fn relu_output_is_nonnegative() {
        let block = toy_block();
        let input = init::uniform(3, 4, -1.0, 1.0, 3);
        let layer = GcnLayer::new(4, 8, false, 4);
        let (out, _) = layer.forward(&block, &input);
        assert!(out.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn isolated_vertex_passes_self_through() {
        let block = Block::new(vec![5], vec![5], vec![0, 0], vec![]);
        let input = Matrix::from_rows(&[&[2.0, -2.0]]);
        let layer = GcnLayer::new(2, 2, true, 5);
        let (out, ctx) = layer.forward(&block, &input);
        // agg == input for an isolated vertex.
        assert_eq!(ctx.agg, input);
        assert_eq!(out.shape(), (1, 2));
    }
}
