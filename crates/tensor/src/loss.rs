//! Loss functions used by the supernet trainer and the latency predictor.

use crate::{ops, Matrix};

/// Cross-entropy loss over row-wise logits and integer class labels.
///
/// Returns `(mean_loss, dLoss/dLogits)`. The gradient is the usual
/// `softmax(logits) - onehot(labels)` scaled by `1/batch`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or any label is out of range.
pub fn cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "one label per logit row");
    let probs = ops::softmax_rows(logits);
    let batch = logits.rows().max(1) as f32;
    let mut grad = probs.clone();
    let mut loss = 0.0;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        let p = probs[(i, label)].max(1e-12);
        loss -= p.ln();
        grad[(i, label)] -= 1.0;
    }
    (loss / batch, grad.scale(1.0 / batch))
}

/// Mean absolute percentage error, the paper's predictor training loss.
///
/// Returns `(mape, dMape/dPred)` where the gradient is with respect to the
/// predictions. Targets with magnitude below `1e-9` are skipped to avoid
/// division blow-ups.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn mape(pred: &[f32], target: &[f32]) -> (f32, Vec<f32>) {
    assert_eq!(pred.len(), target.len(), "pred/target length mismatch");
    let mut total = 0.0;
    let mut grad = vec![0.0; pred.len()];
    let mut counted = 0usize;
    for i in 0..pred.len() {
        let t = target[i];
        if t.abs() < 1e-9 {
            continue;
        }
        counted += 1;
        let diff = pred[i] - t;
        total += (diff / t).abs();
        // f32::signum(0.0) is 1.0, so guard the exact-match case explicitly.
        grad[i] = if diff == 0.0 { 0.0 } else { diff.signum() / t.abs() };
    }
    let n = counted.max(1) as f32;
    for g in &mut grad {
        *g /= n;
    }
    (total / n, grad)
}

/// Fraction of rows whose argmax equals the label (classification accuracy).
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()`.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), logits.rows(), "one label per logit row");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels.iter().enumerate().filter(|&(i, &l)| logits.argmax_row(i) == l).count();
    correct as f64 / labels.len() as f64
}

/// Class-balanced ("mAcc" in the paper) accuracy: mean of per-class recalls.
///
/// Classes absent from `labels` are ignored.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()`.
pub fn balanced_accuracy(logits: &Matrix, labels: &[usize], num_classes: usize) -> f64 {
    assert_eq!(labels.len(), logits.rows(), "one label per logit row");
    let mut per_class_total = vec![0usize; num_classes];
    let mut per_class_correct = vec![0usize; num_classes];
    for (i, &l) in labels.iter().enumerate() {
        per_class_total[l] += 1;
        if logits.argmax_row(i) == l {
            per_class_correct[l] += 1;
        }
    }
    let mut sum = 0.0;
    let mut present = 0usize;
    for c in 0..num_classes {
        if per_class_total[c] > 0 {
            sum += per_class_correct[c] as f64 / per_class_total[c] as f64;
            present += 1;
        }
    }
    if present == 0 {
        0.0
    } else {
        sum / present as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_perfect_prediction_low_loss() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let (loss, _) = cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_is_ln_k() {
        let logits = Matrix::zeros(1, 4);
        let (loss, _) = cross_entropy(&logits, &[2]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[0.3, -0.2, 1.0]]);
        let (_, grad) = cross_entropy(&logits, &[1]);
        let s: f32 = grad.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn mape_exact_is_zero() {
        let (m, g) = mape(&[1.0, 2.0], &[1.0, 2.0]);
        assert_eq!(m, 0.0);
        assert!(g.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mape_ten_percent() {
        let (m, _) = mape(&[1.1], &[1.0]);
        assert!((m - 0.1).abs() < 1e-6);
    }

    #[test]
    fn mape_skips_zero_targets() {
        let (m, g) = mape(&[5.0, 1.0], &[0.0, 1.0]);
        assert_eq!(m, 0.0);
        assert_eq!(g[0], 0.0);
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_accuracy_weights_classes_equally() {
        // Class 0: 3 samples all correct. Class 1: 1 sample wrong.
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[1.0, 0.0], &[1.0, 0.0]]);
        let oa = accuracy(&logits, &[0, 0, 0, 1]);
        let macc = balanced_accuracy(&logits, &[0, 0, 0, 1], 2);
        assert!((oa - 0.75).abs() < 1e-9);
        assert!((macc - 0.5).abs() < 1e-9);
    }
}
