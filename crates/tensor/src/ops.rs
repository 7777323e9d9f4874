//! Matrix multiplication variants and element-wise arithmetic.
//!
//! The three matmul flavours (`A·B`, `Aᵀ·B`, `A·Bᵀ`) cover every product
//! needed by the GNN forward/backward passes without materialising explicit
//! transposes. The inner loops live in [`crate::kernels`] as chunked,
//! autovectorization-friendly slice kernels (see that module for the
//! profile-guided design notes); this module owns shape checking and the
//! [`crate::timing`] hooks, and runs each kernel on its caller's thread.

use crate::kernels;
use crate::matrix::Matrix;
use crate::timing::{self, Kernel};

/// `C = A · B` where `A: m×k`, `B: k×n`.
///
/// Note the former `a_val == 0.0` skip branch is gone: microbenching showed
/// it losing on both dense feature rows and ReLU-sparse activations at GNN
/// hidden widths (see `crate::kernels` module docs).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dims {} vs {}",
        a.cols(),
        b.rows()
    );
    let t0 = timing::start();
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    kernels::matmul_rows(c.as_mut_slice(), a.as_slice(), b.as_slice(), k, n);
    timing::stop(Kernel::Matmul, t0);
    c
}

/// `C = Aᵀ · B` where `A: k×m`, `B: k×n` → `C: m×n`.
///
/// Used for weight gradients: `∇W = Hᵀ · δ`. The k loop is unrolled by
/// [`kernels::K_UNROLL`] so one pass over each `C` row fuses four
/// outer-product updates.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at_b: A rows {} vs B rows {}",
        a.rows(),
        b.rows()
    );
    let t0 = timing::start();
    let (k, m) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    kernels::matmul_at_b_acc(c.as_mut_slice(), a.as_slice(), b.as_slice(), k, m, n);
    timing::stop(Kernel::MatmulAtB, t0);
    c
}

/// `C = A · Bᵀ` where `A: m×k`, `B: n×k` → `C: m×n`.
///
/// Used for input gradients: `∇H = δ · Wᵀ`. Each output element is a
/// multi-accumulator chunked [`kernels::dot`] — the single biggest kernel
/// win in the workspace (~3.4× over the latency-bound scalar loop).
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_a_bt: A cols {} vs B cols {}",
        a.cols(),
        b.cols()
    );
    let t0 = timing::start();
    let (m, k) = a.shape();
    let n = b.rows();
    let mut c = Matrix::zeros(m, n);
    kernels::matmul_a_bt_rows(c.as_mut_slice(), a.as_slice(), b.as_slice(), k, n);
    timing::stop(Kernel::MatmulABt, t0);
    c
}

/// `out = a + b` (element-wise).
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape());
    let mut out = a.clone();
    add_assign(&mut out, b);
    out
}

/// `a += b` (element-wise).
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// `a += alpha * b` (axpy).
pub fn add_scaled_assign(a: &mut Matrix, alpha: f32, b: &Matrix) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += alpha * y;
    }
}

/// `out = a - b` (element-wise).
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape());
    let mut out = a.clone();
    for (x, y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x -= y;
    }
    out
}

/// `a *= alpha` (in place).
pub fn scale_assign(a: &mut Matrix, alpha: f32) {
    for x in a.as_mut_slice() {
        *x *= alpha;
    }
}

/// `out = alpha * a`.
pub fn scale(a: &Matrix, alpha: f32) -> Matrix {
    let mut out = a.clone();
    scale_assign(&mut out, alpha);
    out
}

/// Adds a 1×n bias row to every row of `a`.
pub fn add_bias_row(a: &mut Matrix, bias: &Matrix) {
    assert_eq!(bias.rows(), 1);
    assert_eq!(bias.cols(), a.cols());
    let b = bias.row(0);
    for r in 0..a.rows() {
        for (x, y) in a.row_mut(r).iter_mut().zip(b) {
            *x += y;
        }
    }
}

/// Sums the rows of `a` into a 1×n matrix (gradient of a broadcast bias).
pub fn sum_rows(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        let row = a.row(r);
        for (o, v) in out.row_mut(0).iter_mut().zip(row) {
            *o += v;
        }
    }
    out
}

/// Naive triple-loop matmul used as the reference in tests and benches.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            c.set(i, j, acc);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        init::uniform(rows, cols, -1.0, 1.0, seed)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = random(17, 9, 1);
        let b = random(9, 13, 2);
        assert!(matmul(&a, &b).approx_eq(&matmul_naive(&a, &b), crate::TEST_EPS));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = random(6, 6, 3);
        assert!(matmul(&a, &Matrix::eye(6)).approx_eq(&a, crate::TEST_EPS));
        assert!(matmul(&Matrix::eye(6), &a).approx_eq(&a, crate::TEST_EPS));
    }

    #[test]
    fn matmul_at_b_equals_explicit_transpose() {
        let a = random(11, 5, 4);
        let b = random(11, 7, 5);
        let expect = matmul_naive(&a.transpose(), &b);
        assert!(matmul_at_b(&a, &b).approx_eq(&expect, crate::TEST_EPS));
    }

    #[test]
    fn matmul_a_bt_equals_explicit_transpose() {
        let a = random(8, 5, 6);
        let b = random(10, 5, 7);
        let expect = matmul_naive(&a, &b.transpose());
        assert!(matmul_a_bt(&a, &b).approx_eq(&expect, crate::TEST_EPS));
    }

    #[test]
    fn elementwise_ops_behave() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!(add(&a, &b).row(1), &[33.0, 44.0]);
        assert_eq!(sub(&b, &a).row(0), &[9.0, 18.0]);
        assert_eq!(scale(&a, 2.0).row(1), &[6.0, 8.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(1, 3);
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        add_scaled_assign(&mut a, 0.5, &b);
        add_scaled_assign(&mut a, 0.5, &b);
        assert!(a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn bias_row_add_and_gradient() {
        let mut a = Matrix::zeros(3, 2);
        let bias = Matrix::from_rows(&[&[1.0, -1.0]]);
        add_bias_row(&mut a, &bias);
        assert_eq!(a.row(2), &[1.0, -1.0]);
        let g = sum_rows(&a);
        assert_eq!(g.row(0), &[3.0, -3.0]);
    }
}
