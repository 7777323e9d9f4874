//! Activation functions and their gradients.
//!
//! The paper's convergence analysis (§4.3) assumes ρ-Lipschitz activations;
//! every activation here satisfies that with ρ ≤ 1 except ELU's α scaling.

use crate::matrix::Matrix;

/// Activation function selector used by [`neutron-nn`] layers.
///
/// GCN/GraphSAGE use [`Activation::Relu`]; GAT uses [`Activation::Elu`] for
/// layer outputs and [`Activation::LeakyRelu`] inside attention scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no nonlinearity) — used on final output layers.
    Identity,
    /// max(0, x)
    Relu,
    /// x if x > 0 else 0.2·x (slope fixed to the GAT paper's 0.2)
    LeakyRelu,
    /// x if x > 0 else exp(x) − 1
    Elu,
    /// 1 / (1 + exp(−x))
    Sigmoid,
    /// tanh(x)
    Tanh,
}

impl Activation {
    /// Applies the activation element-wise, returning a new matrix.
    pub fn forward(self, z: &Matrix) -> Matrix {
        let mut out = z.clone();
        self.forward_inplace(&mut out);
        out
    }

    /// Applies the activation element-wise in place.
    pub fn forward_inplace(self, z: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => crate::kernels::relu(z.as_mut_slice()),
            Activation::LeakyRelu => {
                for v in z.as_mut_slice() {
                    if *v < 0.0 {
                        *v *= 0.2;
                    }
                }
            }
            Activation::Elu => {
                for v in z.as_mut_slice() {
                    if *v < 0.0 {
                        *v = v.exp() - 1.0;
                    }
                }
            }
            Activation::Sigmoid => {
                for v in z.as_mut_slice() {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
            Activation::Tanh => {
                for v in z.as_mut_slice() {
                    *v = v.tanh();
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
            Activation::LeakyRelu => {
                for (g, &zv) in grad.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    if zv <= 0.0 {
                        *g *= 0.2;
                    }
                }
            }
            Activation::Elu => {
                for (g, &zv) in grad.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    if zv <= 0.0 {
                        *g *= zv.exp();
                    }
                }
            }
            Activation::Sigmoid => {
                for (g, &zv) in grad.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    let s = 1.0 / (1.0 + (-zv).exp());
                    *g *= s * (1.0 - s);
                }
            }
            Activation::Tanh => {
                for (g, &zv) in grad.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    let t = zv.tanh();
                    *g *= 1.0 - t * t;
                }
            }
        }
        grad
    }

    /// Scalar forward, used by finite-difference gradient checks.
    pub fn scalar(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.2 * x
                }
            }
            Activation::Elu => {
                if x > 0.0 {
                    x
                } else {
                    x.exp() - 1.0
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }
}

/// All activations, for exhaustive tests.
pub const ALL_ACTIVATIONS: [Activation; 6] = [
    Activation::Identity,
    Activation::Relu,
    Activation::LeakyRelu,
    Activation::Elu,
    Activation::Sigmoid,
    Activation::Tanh,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let z = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(Activation::Relu.forward(&z).row(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn leaky_relu_keeps_small_negative_slope() {
        let z = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let out = Activation::LeakyRelu.forward(&z);
        assert!((out.get(0, 0) + 0.2).abs() < 1e-6);
        assert_eq!(out.get(0, 1), 2.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        let z = Matrix::from_rows(&[&[-100.0, 0.0, 100.0]]);
        let out = Activation::Sigmoid.forward(&z);
        assert!(out.get(0, 0) < 1e-6);
        assert!((out.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(out.get(0, 2) > 1.0 - 1e-6);
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
