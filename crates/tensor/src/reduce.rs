//! Row/column reductions.

use crate::matrix::Matrix;

/// Mean of each row as a length-`rows` vector.
pub fn row_means(m: &Matrix) -> Vec<f32> {
    let c = m.cols().max(1) as f32;
    (0..m.rows())
        .map(|r| m.row(r).iter().sum::<f32>() / c)
        .collect()
}

/// Mean of all elements.
pub fn mean(m: &Matrix) -> f32 {
    if m.is_empty() {
        return 0.0;
    }
    m.as_slice().iter().sum::<f32>() / m.len() as f32
}

/// Scales each row `r` of `m` by `weights[r]` in place — the degree
/// normalisation primitive of GCN aggregation.
pub fn scale_rows_inplace(m: &mut Matrix, weights: &[f32]) {
    assert_eq!(m.rows(), weights.len());
    for (r, &w) in weights.iter().enumerate() {
        for v in m.row_mut(r) {
            *v *= w;
        }
    }
}

/// L2-normalises each row in place (zero rows are left untouched).
pub fn l2_normalize_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let norm: f32 = m.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for v in m.row_mut(r) {
                *v /= norm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_means_average_each_row() {
        let m = Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 2.0]]);
        assert_eq!(row_means(&m), vec![2.0, 2.0]);
    }

    #[test]
    fn mean_over_all_elements() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(mean(&m), 2.5);
        assert_eq!(mean(&Matrix::zeros(0, 0)), 0.0);
    }

    #[test]
    fn scale_rows_applies_per_row_weight() {
        let mut m = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        scale_rows_inplace(&mut m, &[2.0, 0.5]);
        assert_eq!(m.row(0), &[2.0, 2.0]);
        assert_eq!(m.row(1), &[0.5, 0.5]);
    }

    #[test]
    fn l2_normalize_makes_unit_rows() {
        let mut m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        l2_normalize_rows(&mut m);
        let n: f32 = m.row(0).iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-6);
        assert_eq!(m.row(1), &[0.0, 0.0], "zero rows untouched");
    }
}
