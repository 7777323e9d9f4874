//! Seeded weight initializers.
//!
//! Everything stochastic in the workspace takes an explicit `u64` seed so
//! experiments are bit-for-bit reproducible.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Uniform init in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> Matrix {
    assert!(lo < hi, "empty range");
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.random_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Xavier/Glorot uniform init: `U(±sqrt(6/(fan_in+fan_out)))`.
///
/// Used for GCN and GraphSAGE weights, matching the reference
/// implementations the paper compares against.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, seed: u64) -> Matrix {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(fan_in, fan_out, -bound, bound, seed)
}

/// Standard normal init scaled by `std`; used for GAT attention vectors.
pub fn normal(rows: usize, cols: usize, std: f32, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    // Box-Muller transform; rand's distributions module is avoided to keep
    // the dependency surface minimal.
    let mut data = Vec::with_capacity(rows * cols);
    while data.len() < rows * cols {
        let u1: f32 = rng.random_range(f32::EPSILON..1.0);
        let u2: f32 = rng.random_range(0.0..1.0);
        let r = (-2.0f32 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < rows * cols {
            data.push(r * theta.sin() * std);
        }
    }
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_bounds_and_seed() {
        let a = uniform(10, 10, -0.5, 0.5, 42);
        assert!(a.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
        let b = uniform(10, 10, -0.5, 0.5, 42);
        assert_eq!(a, b, "same seed must reproduce identical matrices");
        let c = uniform(10, 10, -0.5, 0.5, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn xavier_bound_shrinks_with_width() {
        let narrow = xavier_uniform(4, 4, 1);
        let wide = xavier_uniform(1024, 1024, 1);
        assert!(narrow.max_abs() > wide.max_abs());
        let bound = (6.0f32 / 2048.0).sqrt();
        assert!(wide.max_abs() <= bound);
    }

    #[test]
    fn normal_has_plausible_moments() {
        let m = normal(200, 50, 1.0, 7);
        let n = m.len() as f32;
        let mean: f32 = m.as_slice().iter().sum::<f32>() / n;
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
