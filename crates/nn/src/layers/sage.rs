//! GraphSAGE layer with mean aggregator.
//!
//! Forward, per destination vertex `v`:
//! ```text
//! n_v   = mean(h_u, u ∈ N(v))          (zero vector if no sampled neighbors)
//! z_v   = h_v · W_self + n_v · W_neigh + b
//! out_v = σ(z_v)
//! ```

use crate::param::Param;
use neutron_sample::Block;
use neutron_tensor::timing::{self, Kernel};
use neutron_tensor::{init, kernels, ops, Activation, Matrix, RowView};

/// A GraphSAGE-mean layer (`in_dim → out_dim`).
#[derive(Clone, Debug)]
pub struct SageLayer {
    w_self: Param,
    w_neigh: Param,
    bias: Param,
    activation: Activation,
}

/// Forward intermediates of a [`SageLayer`].
pub struct SageCtx {
    /// Self inputs (num_dst × in_dim) — a copy of the src-prefix rows.
    self_rows: Matrix,
    /// Mean-aggregated neighbor inputs (num_dst × in_dim).
    neigh: Matrix,
    /// Pre-activation outputs.
    z: Matrix,
}

impl SageLayer {
    /// Creates a layer; `last` layers use identity output activation.
    pub fn new(in_dim: usize, out_dim: usize, last: bool, seed: u64) -> Self {
        Self {
            w_self: Param::new(init::xavier_uniform(in_dim, out_dim, seed)),
            w_neigh: Param::new(init::xavier_uniform(in_dim, out_dim, seed ^ 0xa5a5)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            activation: if last {
                Activation::Identity
            } else {
                Activation::Relu
            },
        }
    }

    /// Neighbor-mean aggregation (self excluded), reading each input row
    /// where it lives (see [`RowView`]).
    pub fn aggregate_neighbors<'a>(block: &Block, input: impl Into<RowView<'a>>) -> Matrix {
        let input = input.into();
        let t0 = timing::start();
        let mut agg = Matrix::zeros(block.num_dst(), input.cols());
        let (offsets, indices) = block.adjacency();
        kernels::mean_of_neighbors(agg.as_mut_slice(), input, offsets, indices);
        timing::stop(Kernel::Aggregate, t0);
        agg
    }

    /// Forward pass; `input` has one row per `block.src()` vertex.
    pub fn forward<'a>(&self, block: &Block, input: impl Into<RowView<'a>>) -> (Matrix, SageCtx) {
        let input = input.into();
        assert_eq!(input.rows(), block.num_src());
        // dst i is src i by the prefix convention; backward needs the rows.
        let self_rows = input.head(block.num_dst());
        let neigh = Self::aggregate_neighbors(block, input);
        let mut z = ops::matmul(&self_rows, &self.w_self.value);
        ops::add_assign(&mut z, &ops::matmul(&neigh, &self.w_neigh.value));
        ops::add_bias_row(&mut z, &self.bias.value);
        let out = self.activation.forward(&z);
        (
            out,
            SageCtx {
                self_rows,
                neigh,
                z,
            },
        )
    }

    /// Backward pass: accumulates parameter gradients; returns `∂L/∂input`
    /// iff `input_grad` (else both `dz·Wᵀ` and their scatter are skipped).
    pub fn backward(
        &mut self,
        block: &Block,
        ctx: SageCtx,
        d_out: &Matrix,
        input_grad: bool,
    ) -> Option<Matrix> {
        let dz = self.activation.backward(&ctx.z, d_out);
        ops::add_assign(
            &mut self.w_self.grad,
            &ops::matmul_at_b(&ctx.self_rows, &dz),
        );
        ops::add_assign(&mut self.w_neigh.grad, &ops::matmul_at_b(&ctx.neigh, &dz));
        ops::add_assign(&mut self.bias.grad, &ops::sum_rows(&dz));
        if !input_grad {
            return None;
        }
        let d_self = ops::matmul_a_bt(&dz, &self.w_self.value);
        let d_neigh = ops::matmul_a_bt(&dz, &self.w_neigh.value);
        let t0 = timing::start();
        let mut d_in = Matrix::zeros(block.num_src(), self.in_dim());
        let (offsets, indices) = block.adjacency();
        kernels::mean_of_neighbors_backward(
            d_in.as_mut_slice(),
            d_self.as_slice(),
            d_neigh.as_slice(),
            self.in_dim(),
            offsets,
            indices,
        );
        timing::stop(Kernel::Aggregate, t0);
        Some(d_in)
    }

    /// Parameter views.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w_self, &self.w_neigh, &self.bias]
    }

    /// Mutable parameter views.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_self, &mut self.w_neigh, &mut self.bias]
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w_self.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w_self.value.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_block() -> Block {
        Block::new(vec![0, 1], vec![0, 1, 2], vec![0, 2, 3], vec![1, 2, 2])
    }

    #[test]
    fn neighbor_mean_excludes_self() {
        let block = toy_block();
        let input = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let agg = SageLayer::aggregate_neighbors(&block, &input);
        assert_eq!(agg.get(0, 0), 3.0); // mean(2, 4)
        assert_eq!(agg.get(1, 0), 4.0); // mean(4)
    }

    #[test]
    fn no_neighbors_gives_zero_aggregate() {
        let block = Block::new(vec![0], vec![0], vec![0, 0], vec![]);
        let input = Matrix::from_rows(&[&[7.0, 7.0]]);
        let agg = SageLayer::aggregate_neighbors(&block, &input);
        assert_eq!(agg.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn forward_uses_both_weight_matrices() {
        let block = toy_block();
        let input = init::uniform(3, 3, -1.0, 1.0, 1);
        let layer = SageLayer::new(3, 2, true, 2);
        let (out, _) = layer.forward(&block, &input);
        // Zeroing W_neigh must change the output (neighbors matter).
        let mut layer2 = layer.clone();
        layer2.w_neigh.value.fill_zero();
        let (out2, _) = layer2.forward(&block, &input);
        assert_ne!(out, out2);
    }

    #[test]
    fn params_exposes_three_tensors() {
        let layer = SageLayer::new(3, 2, false, 3);
        assert_eq!(layer.params().len(), 3);
    }
}
