//! Evaluation metrics.

use neutron_tensor::softmax::row_argmax;
use neutron_tensor::Matrix;

/// Fraction of rows whose argmax matches the label.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let preds = row_argmax(logits);
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_score_one() {
        let logits = Matrix::from_rows(&[&[9.0, 0.0], &[0.0, 9.0]]);
        assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
    }

    #[test]
    fn all_wrong_scores_zero() {
        let logits = Matrix::from_rows(&[&[9.0, 0.0], &[0.0, 9.0]]);
        assert_eq!(accuracy(&logits, &[1, 0]), 0.0);
    }

    #[test]
    fn partial_credit() {
        let logits = Matrix::from_rows(&[&[9.0, 0.0], &[0.0, 9.0]]);
        assert_eq!(accuracy(&logits, &[0, 0]), 0.5);
    }

    #[test]
    fn empty_batch_is_zero() {
        let logits = Matrix::zeros(0, 3);
        assert_eq!(accuracy(&logits, &[]), 0.0);
    }
}
