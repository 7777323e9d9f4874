//! Row-major dense `f32` matrix.

use std::fmt;

/// A row-major dense `f32` matrix.
///
/// This is the single tensor type of the workspace: vertex feature batches,
/// embeddings, weights and gradients are all `Matrix` values. Rows usually
/// index vertices and columns index feature dimensions.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Wraps an existing buffer. `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from a nested-slice literal; handy in tests.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self::from_vec(r, c, data)
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Copies `src` into row `r`.
    pub fn copy_row_from(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols);
        self.row_mut(r).copy_from_slice(src);
    }

    /// Returns a new matrix containing the given rows, in order.
    ///
    /// This is the "gather" primitive of sample-based training: collecting
    /// the feature rows of sampled vertices into a contiguous batch.
    /// Appends straight into reserved capacity (no zero-fill pass) — see
    /// [`crate::kernels`] for the measured rationale.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let t0 = crate::timing::start();
        let mut data = Vec::new();
        crate::kernels::gather_rows_into(&mut data, &self.data, self.cols, indices);
        // `cols == 0` gathers still produce `indices.len()` zero-width rows.
        let out = Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        };
        crate::timing::stop(crate::timing::Kernel::Gather, t0);
        out
    }

    /// Row gather addressed by `u32` vertex ids, as produced by the
    /// sampling layer — no widened index vector is materialised.
    pub fn gather_rows_u32(&self, indices: &[u32]) -> Matrix {
        let t0 = crate::timing::start();
        let mut data = Vec::new();
        crate::kernels::gather_rows_u32_into(&mut data, &self.data, self.cols, indices);
        let out = Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        };
        crate::timing::stop(crate::timing::Kernel::Gather, t0);
        out
    }

    /// Accumulates `src`'s rows into rows `indices` of `self` (scatter-add).
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Matrix) {
        assert_eq!(indices.len(), src.rows());
        assert_eq!(self.cols, src.cols());
        let t0 = crate::timing::start();
        crate::kernels::scatter_add_rows(&mut self.data, self.cols, indices, &src.data);
        crate::timing::stop(crate::timing::Kernel::ScatterAdd, t0);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Max-absolute-value norm (the `‖·‖_inf` of the paper's §4.3 analysis).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// True when all elements are finite (no NaN/inf escaped a kernel).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Approximate equality within `eps`, used by kernel-vs-reference tests.
    pub fn approx_eq(&self, other: &Matrix, eps: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= eps * (1.0 + a.abs().max(b.abs())))
    }

    /// Bytes occupied by the element buffer; used by the memory ledger.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            writeln!(f)?;
            for r in 0..self.rows {
                writeln!(f, "  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips_elements() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_mismatched_buffer() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let g = m.gather_rows(&[3, 1, 1]);
        assert_eq!(g.as_slice(), &[3.0, 1.0, 1.0]);
    }

    #[test]
    fn gather_variants_match_gather_rows() {
        let m = Matrix::from_rows(&[&[0.0, 10.0], &[1.0, 11.0], &[2.0, 12.0], &[3.0, 13.0]]);
        assert_eq!(m.gather_rows_u32(&[3, 1, 1]), m.gather_rows(&[3, 1, 1]));

        // Zero-width-column gathers still report the row count.
        let empty = Matrix::zeros(4, 0);
        assert_eq!(empty.gather_rows(&[0, 2]).shape(), (2, 0));
        assert_eq!(empty.gather_rows_u32(&[1]).shape(), (1, 0));
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let mut m = Matrix::zeros(3, 2);
        let src = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[4.0, 4.0]]);
        m.scatter_add_rows(&[0, 2, 2], &src);
        assert_eq!(m.row(0), &[1.0, 1.0]);
        assert_eq!(m.row(1), &[0.0, 0.0]);
        assert_eq!(m.row(2), &[6.0, 6.0]);
    }

    #[test]
    fn transpose_is_involutive() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn eye_matmul_identity_property() {
        let m = Matrix::eye(4);
        assert_eq!(m.get(2, 2), 1.0);
        assert_eq!(m.get(2, 3), 0.0);
    }

    #[test]
    fn norms_and_finiteness() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.all_finite());
        let bad = Matrix::from_rows(&[&[f32::NAN]]);
        assert!(!bad.all_finite());
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0 + 1e-6, 2.0 - 1e-6]]);
        assert!(a.approx_eq(&b, 1e-4));
        let c = Matrix::from_rows(&[&[1.5, 2.0]]);
        assert!(!a.approx_eq(&c, 1e-4));
    }
}
