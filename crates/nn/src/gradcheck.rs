//! Finite-difference gradient checking.
//!
//! The backward passes in this crate are hand-derived; these utilities
//! compare every parameter gradient and the input gradient against central
//! finite differences of the scalar loss. The GAT edge-softmax backward in
//! particular is only trustworthy because of these checks.

use crate::layers::{Layer, LayerKind};
use crate::loss::cross_entropy;
use neutron_sample::Block;
use neutron_tensor::Matrix;

/// Scalar loss of a single layer followed by cross-entropy on its output.
fn layer_loss(layer: &Layer, block: &Block, input: &Matrix, labels: &[usize]) -> f32 {
    let (out, _) = layer.forward(block, input);
    cross_entropy(&out, labels).loss
}

/// Maximum relative error between analytic and numeric gradients for one
/// layer on one block. Returns `(max_param_err, max_input_err)`.
pub fn check_layer(
    kind: LayerKind,
    block: &Block,
    input: &Matrix,
    labels: &[usize],
    seed: u64,
) -> (f32, f32) {
    let out_dim = labels.iter().copied().max().unwrap_or(0) + 2;
    let mut layer = Layer::new(kind, input.cols(), out_dim, true, seed);
    // Analytic gradients.
    let (out, ctx) = layer.forward(block, input);
    let lr = cross_entropy(&out, labels);
    let d_input = layer
        .backward(block, ctx, &lr.d_logits, true)
        .expect("input gradient was requested");
    let analytic_params: Vec<Matrix> = layer.params().iter().map(|p| p.grad.clone()).collect();

    // Step size balances f32 cancellation noise (pushes h up) against
    // truncation error at LeakyReLU kinks in the GAT attention path (pushes
    // h down): at 1e-2 a kink inside the ±h window inflates the numeric
    // gradient of nearby parameters past the 2e-2 tolerance.
    let h = 5e-3f32;
    let mut max_param_err = 0.0f32;
    for (pi, analytic) in analytic_params.iter().enumerate() {
        for r in 0..analytic.rows() {
            for c in 0..analytic.cols() {
                let orig = layer.params()[pi].value.get(r, c);
                layer.params_mut()[pi].value.set(r, c, orig + h);
                let lp = layer_loss(&layer, block, input, labels);
                layer.params_mut()[pi].value.set(r, c, orig - h);
                let lm = layer_loss(&layer, block, input, labels);
                layer.params_mut()[pi].value.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * h);
                let denom = 1.0f32.max(numeric.abs()).max(analytic.get(r, c).abs());
                max_param_err = max_param_err.max((analytic.get(r, c) - numeric).abs() / denom);
            }
        }
    }
    let mut max_input_err = 0.0f32;
    let mut input_var = input.clone();
    for r in 0..input.rows() {
        for c in 0..input.cols() {
            let orig = input_var.get(r, c);
            input_var.set(r, c, orig + h);
            let lp = layer_loss(&layer, block, &input_var, labels);
            input_var.set(r, c, orig - h);
            let lm = layer_loss(&layer, block, &input_var, labels);
            input_var.set(r, c, orig);
            let numeric = (lp - lm) / (2.0 * h);
            let denom = 1.0f32.max(numeric.abs()).max(d_input.get(r, c).abs());
            max_input_err = max_input_err.max((d_input.get(r, c) - numeric).abs() / denom);
        }
    }
    (max_param_err, max_input_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_tensor::init;

    fn toy_block() -> Block {
        // dst [0,1,2]; src [0..5]; varied degrees including zero.
        Block::new(
            vec![0, 1, 2],
            vec![0, 1, 2, 3, 4],
            vec![0, 2, 3, 3],
            vec![3, 4, 4],
        )
    }

    fn check(kind: LayerKind) {
        let block = toy_block();
        let input = init::uniform(5, 4, -1.0, 1.0, 99);
        let labels = [1usize, 0, 2];
        let (p_err, i_err) = check_layer(kind, &block, &input, &labels, 5);
        assert!(p_err < 2e-2, "{kind:?} param gradient error {p_err}");
        assert!(i_err < 2e-2, "{kind:?} input gradient error {i_err}");
    }

    #[test]
    fn gcn_gradients_match_finite_difference() {
        check(LayerKind::Gcn);
    }

    #[test]
    fn sage_gradients_match_finite_difference() {
        check(LayerKind::Sage);
    }

    #[test]
    fn gat_gradients_match_finite_difference() {
        check(LayerKind::Gat);
    }
}
