//! Activation functions and their gradients.
//!
//! The paper's convergence analysis (§4.3) assumes ρ-Lipschitz activations;
//! every activation here satisfies that with ρ ≤ 1 except ELU's α scaling.

use crate::matrix::Matrix;

/// Activation function selector used by [`neutron-nn`] layers.
///
/// GCN/GraphSAGE use [`Activation::Relu`]; GAT uses [`Activation::Elu`] for
/// layer outputs (its attention scores apply LeakyReLU(0.2) inline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no nonlinearity) — used on final output layers.
    Identity,
    /// max(0, x)
    Relu,
    /// x if x > 0 else exp(x) − 1
    Elu,
}

impl Activation {
    /// Applies the activation element-wise, returning a new matrix.
    pub fn forward(self, z: &Matrix) -> Matrix {
        let mut out = z.clone();
        self.forward_inplace(&mut out);
        out
    }

    /// Applies the activation element-wise in place.
    fn forward_inplace(self, z: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => crate::kernels::relu(z.as_mut_slice()),
            Activation::Elu => {
                for v in z.as_mut_slice() {
                    if *v < 0.0 {
                        *v = v.exp() - 1.0;
                    }
                }
            }
        }
    }

    /// Given the pre-activation input `z` and the upstream gradient
    /// `d_out = ∂L/∂f(z)`, returns `∂L/∂z = d_out ⊙ f'(z)`.
    pub fn backward(self, z: &Matrix, d_out: &Matrix) -> Matrix {
        assert_eq!(z.shape(), d_out.shape());
        let mut grad = d_out.clone();
        match self {
            Activation::Identity => {}
            Activation::Relu => crate::kernels::relu_backward(grad.as_mut_slice(), z.as_slice()),
            Activation::Elu => {
                for (g, &zv) in grad.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    if zv <= 0.0 {
                        *g *= zv.exp();
                    }
                }
            }
        }
        grad
    }

    /// Scalar forward, used by finite-difference gradient checks.
    #[cfg(test)]
    fn scalar(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Elu => {
                if x > 0.0 {
                    x
                } else {
                    x.exp() - 1.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All activations, for exhaustive tests.
    const ALL_ACTIVATIONS: [Activation; 3] =
        [Activation::Identity, Activation::Relu, Activation::Elu];

    #[test]
    fn relu_clamps_negatives() {
        let z = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(Activation::Relu.forward(&z).row(0), &[0.0, 0.0, 2.0]);
    }

    /// Finite-difference check of every activation gradient.
    #[test]
    fn backward_matches_finite_difference() {
        let points = [-1.5f32, -0.3, 0.4, 2.0];
        let h = 1e-3f32;
        for act in ALL_ACTIVATIONS {
            for &x in &points {
                let z = Matrix::from_rows(&[&[x]]);
                let ones = Matrix::from_rows(&[&[1.0]]);
                let analytic = act.backward(&z, &ones).get(0, 0);
                let numeric = (act.scalar(x + h) - act.scalar(x - h)) / (2.0 * h);
                assert!(
                    (analytic - numeric).abs() < 5e-3,
                    "{act:?} at {x}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn backward_scales_upstream_gradient() {
        let z = Matrix::from_rows(&[&[1.0, -1.0]]);
        let up = Matrix::from_rows(&[&[3.0, 3.0]]);
        let g = Activation::Relu.backward(&z, &up);
        assert_eq!(g.row(0), &[3.0, 0.0]);
    }
}
