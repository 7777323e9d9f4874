//! Graph Attention Network layer (single-head additive attention).
//!
//! Forward, per destination vertex `v` with edge set `E(v) = {v} ∪ N(v)`:
//! ```text
//! s_u   = h_u · W                       (projected inputs, all src)
//! e_uv  = LeakyReLU(a_l·s_u + a_r·s_v)  (additive attention score)
//! α_uv  = softmax_{u ∈ E(v)}(e_uv)
//! z_v   = Σ_u α_uv · s_u
//! out_v = σ(z_v)                        (ELU on hidden layers)
//! ```
//! The backward pass differentiates through the edge softmax; it is the most
//! intricate gradient in the workspace and is validated against central
//! finite differences in the `gradcheck` tests.

// Index loops here address several parallel per-dst/per-src arrays at once;
// iterator/enumerate forms obscure which array is being advanced.
#![allow(clippy::needless_range_loop)]

use crate::param::Param;
use neutron_sample::Block;
use neutron_tensor::{init, ops, Activation, Matrix, RowView};

/// A single-head GAT layer (`in_dim → out_dim`).
#[derive(Clone, Debug)]
pub struct GatLayer {
    weight: Param,
    /// Attention vector applied to the source projection (1 × out_dim).
    attn_src: Param,
    /// Attention vector applied to the destination projection (1 × out_dim).
    attn_dst: Param,
    activation: Activation,
}

/// Forward intermediates of a [`GatLayer`].
pub struct GatCtx {
    /// The layer input (num_src × in_dim), needed for `∂L/∂W`.
    input: Matrix,
    /// Projected inputs `s = h · W` (num_src × out_dim).
    s: Matrix,
    /// Pre-activation outputs (num_dst × out_dim).
    z: Matrix,
    /// Per-edge attention weights, dst-major, self edge first.
    alpha: Vec<f32>,
    /// Per-edge raw (pre-LeakyReLU) scores, same order as `alpha`.
    raw: Vec<f32>,
}

impl GatLayer {
    /// Creates a layer; `last` layers use identity output activation.
    pub fn new(in_dim: usize, out_dim: usize, last: bool, seed: u64) -> Self {
        Self {
            weight: Param::new(init::xavier_uniform(in_dim, out_dim, seed)),
            attn_src: Param::new(init::normal(1, out_dim, 0.3, seed ^ 0x11)),
            attn_dst: Param::new(init::normal(1, out_dim, 0.3, seed ^ 0x22)),
            activation: if last {
                Activation::Identity
            } else {
                Activation::Elu
            },
        }
    }

    /// Local src indices of dst `i`'s edges, self edge first.
    fn edge_locals(block: &Block, i: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(i).chain(block.neighbors_local(i).iter().map(|&x| x as usize))
    }

    /// Forward pass; `input` has one row per `block.src()` vertex. The first
    /// op projects every row and backward reads them all again, so the view
    /// is materialised once, into the context.
    pub fn forward<'a>(&self, block: &Block, input: impl Into<RowView<'a>>) -> (Matrix, GatCtx) {
        let input = input.into().to_matrix();
        assert_eq!(input.rows(), block.num_src());
        let s = ops::matmul(&input, &self.weight.value);
        let out_dim = self.out_dim();
        let al = self.attn_src.value.row(0);
        let ar = self.attn_dst.value.row(0);
        let p: Vec<f32> = (0..block.num_src()).map(|j| dot(s.row(j), al)).collect();
        let q: Vec<f32> = (0..block.num_dst()).map(|i| dot(s.row(i), ar)).collect();
        let total_edges = block.num_dst() + block.num_edges();
        let mut alpha = Vec::with_capacity(total_edges);
        let mut raw = Vec::with_capacity(total_edges);
        let mut z = Matrix::zeros(block.num_dst(), out_dim);
        let mut scores: Vec<f32> = Vec::new();
        for i in 0..block.num_dst() {
            scores.clear();
            for j in Self::edge_locals(block, i) {
                scores.push(p[j] + q[i]);
            }
            raw.extend_from_slice(&scores);
            for v in scores.iter_mut() {
                if *v < 0.0 {
                    *v *= 0.2; // LeakyReLU(0.2), as in the GAT paper
                }
            }
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in scores.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in scores.iter_mut() {
                *v /= sum;
            }
            for (k, j) in Self::edge_locals(block, i).enumerate() {
                let a = scores[k];
                for (zv, sv) in z.row_mut(i).iter_mut().zip(s.row(j)) {
                    *zv += a * sv;
                }
            }
            alpha.extend_from_slice(&scores);
        }
        let out = self.activation.forward(&z);
        (
            out,
            GatCtx {
                input,
                s,
                z,
                alpha,
                raw,
            },
        )
    }

    /// Backward pass: accumulates parameter gradients; returns `∂L/∂input`
    /// iff `input_grad` (else the final `ds·Wᵀ` is skipped).
    pub fn backward(
        &mut self,
        block: &Block,
        ctx: GatCtx,
        d_out: &Matrix,
        input_grad: bool,
    ) -> Option<Matrix> {
        let dz = self.activation.backward(&ctx.z, d_out);
        let out_dim = self.out_dim();
        let al = self.attn_src.value.row(0).to_vec();
        let ar = self.attn_dst.value.row(0).to_vec();
        let mut ds = Matrix::zeros(block.num_src(), out_dim);
        let mut d_al = vec![0.0f32; out_dim];
        let mut d_ar = vec![0.0f32; out_dim];
        // dp[j] accumulates ∂L/∂p_j where p_j = a_l · s_j; dq likewise for
        // q_i = a_r · s_i.
        let mut dp = vec![0.0f32; block.num_src()];
        let mut dq = vec![0.0f32; block.num_dst()];
        let mut cursor = 0usize;
        for i in 0..block.num_dst() {
            let edges = block.sampled_degree(i) + 1;
            let alphas = &ctx.alpha[cursor..cursor + edges];
            let raws = &ctx.raw[cursor..cursor + edges];
            let g = dz.row(i).to_vec();
            let d_alpha: Vec<f32> = Self::edge_locals(block, i)
                .map(|j| dot(&g, ctx.s.row(j)))
                .collect();
            // Softmax Jacobian: de_k = α_k (dα_k − Σ α·dα).
            let weighted: f32 = alphas.iter().zip(&d_alpha).map(|(a, d)| a * d).sum();
            for (k, j) in Self::edge_locals(block, i).enumerate() {
                let a = alphas[k];
                for (dsv, gv) in ds.row_mut(j).iter_mut().zip(&g) {
                    *dsv += a * gv;
                }
                let de = a * (d_alpha[k] - weighted);
                let slope = if raws[k] > 0.0 { 1.0 } else { 0.2 };
                let dscore = de * slope;
                dp[j] += dscore;
                dq[i] += dscore;
            }
            cursor += edges;
        }
        for j in 0..block.num_src() {
            if dp[j] != 0.0 {
                for (dav, sv) in d_al.iter_mut().zip(ctx.s.row(j)) {
                    *dav += dp[j] * sv;
                }
                for (dsv, &a) in ds.row_mut(j).iter_mut().zip(&al) {
                    *dsv += dp[j] * a;
                }
            }
        }
        for i in 0..block.num_dst() {
            if dq[i] != 0.0 {
                for (dav, sv) in d_ar.iter_mut().zip(ctx.s.row(i)) {
                    *dav += dq[i] * sv;
                }
                for (dsv, &a) in ds.row_mut(i).iter_mut().zip(&ar) {
                    *dsv += dq[i] * a;
                }
            }
        }
        for (g, d) in self.attn_src.grad.row_mut(0).iter_mut().zip(&d_al) {
            *g += d;
        }
        for (g, d) in self.attn_dst.grad.row_mut(0).iter_mut().zip(&d_ar) {
            *g += d;
        }
        // s = input · W.
        ops::add_assign(&mut self.weight.grad, &ops::matmul_at_b(&ctx.input, &ds));
        input_grad.then(|| ops::matmul_a_bt(&ds, &self.weight.value))
    }

    /// Parameter views.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.attn_src, &self.attn_dst]
    }

    /// Mutable parameter views.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.attn_src, &mut self.attn_dst]
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

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_block() -> Block {
        Block::new(vec![0, 1], vec![0, 1, 2], vec![0, 2, 3], vec![1, 2, 2])
    }

    #[test]
    fn attention_weights_form_a_distribution_per_dst() {
        let block = toy_block();
        let input = init::uniform(3, 4, -1.0, 1.0, 1);
        let layer = GatLayer::new(4, 3, false, 2);
        let (_, ctx) = layer.forward(&block, &input);
        // dst 0 has 3 edges (self + 2), dst 1 has 2 edges.
        assert_eq!(ctx.alpha.len(), 5);
        let s0: f32 = ctx.alpha[..3].iter().sum();
        let s1: f32 = ctx.alpha[3..].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
        assert!(ctx.alpha.iter().all(|&a| a >= 0.0));
    }

    #[test]
    fn isolated_vertex_attends_only_to_itself() {
        let block = Block::new(vec![0], vec![0], vec![0, 0], vec![]);
        let input = Matrix::from_rows(&[&[1.0, 2.0]]);
        let layer = GatLayer::new(2, 2, true, 3);
        let (out, ctx) = layer.forward(&block, &input);
        assert_eq!(ctx.alpha, vec![1.0]);
        // z must then equal s for that vertex.
        assert!(out.approx_eq(&ctx.s.gather_rows(&[0]), 1e-6));
    }

    #[test]
    fn output_changes_with_attention_vectors() {
        let block = toy_block();
        let input = init::uniform(3, 4, -1.0, 1.0, 4);
        let layer = GatLayer::new(4, 3, true, 5);
        let mut tweaked = layer.clone();
        tweaked.attn_src.value.set(0, 0, 5.0);
        let (a, _) = layer.forward(&block, &input);
        let (b, _) = tweaked.forward(&block, &input);
        assert_ne!(a, b, "attention parameters must influence outputs");
    }

    #[test]
    fn backward_accumulates_all_three_param_grads() {
        let block = toy_block();
        let input = init::uniform(3, 4, -1.0, 1.0, 6);
        let mut layer = GatLayer::new(4, 3, false, 7);
        let (out, ctx) = layer.forward(&block, &input);
        let d_out = Matrix::full(out.rows(), out.cols(), 1.0);
        layer.backward(&block, ctx, &d_out, false);
        assert!(layer.weight.grad.frobenius_norm() > 0.0);
        assert!(layer.attn_src.grad.frobenius_norm() > 0.0);
        assert!(layer.attn_dst.grad.frobenius_norm() > 0.0);
    }
}
