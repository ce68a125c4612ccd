//! Loss and accuracy metrics for verifying trained models.
//!
//! Each metric exists in two forms that share one numeric path:
//!
//! * a **per-row term** function (`squared_error_term`, `log_loss_term`,
//!   …) — the single source of truth for the row's f64 contribution;
//! * a **whole-batch** metric folding those terms left-to-right over the
//!   rows and normalizing once at the end.
//!
//! The in-database EVALUATE pipeline accumulates the same terms in the
//! same row order as it streams pages, so its streamed metric is
//! bit-identical to calling the batch form on the materialized table.
//!
//! Numeric hardening: probabilities inside [`log_loss`] are clamped away
//! from 0/1 (an adversarially confident model saturates the f32 sigmoid to
//! exactly 0.0 or 1.0, and `ln(0) = -inf` would poison the mean), and
//! empty batches are a typed [`MetricsError::EmptyBatch`] instead of a
//! silent sentinel value.

use std::fmt;

use dana_storage::TupleBatch;

use crate::algorithms::{DenseModel, LrmfModel};
use crate::linalg::{dot, sigmoid};

/// Probability floor/ceiling inside [`log_loss`]: `p` is clamped to
/// `[LOG_LOSS_EPS, 1 − LOG_LOSS_EPS]` before the logarithms.
pub const LOG_LOSS_EPS: f64 = 1e-9;

/// Errors raised by the metric functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// A mean over zero tuples is undefined; returning NaN (or a fake 0)
    /// would silently corrupt downstream comparisons.
    EmptyBatch { metric: &'static str },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::EmptyBatch { metric } => {
                write!(f, "{metric} is undefined over an empty batch")
            }
        }
    }
}

impl std::error::Error for MetricsError {}

pub type MetricsResult<T> = Result<T, MetricsError>;

fn non_empty(tuples: &TupleBatch, metric: &'static str) -> MetricsResult<()> {
    if tuples.is_empty() {
        return Err(MetricsError::EmptyBatch { metric });
    }
    Ok(())
}

// ---- per-row terms (shared with the streaming EVALUATE accumulator) ----

/// Squared error of one prediction (MSE / RMSE term).
pub fn squared_error_term(prediction: f32, label: f32) -> f64 {
    let e = (prediction - label) as f64;
    e * e
}

/// Cross-entropy of one predicted probability against a {0, 1} label,
/// with the probability clamped away from 0/1.
pub fn log_loss_term(probability: f32, label: f32) -> f64 {
    let p = (probability as f64).clamp(LOG_LOSS_EPS, 1.0 - LOG_LOSS_EPS);
    let y = label as f64;
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

/// Whether one raw (pre-link) score classifies its label correctly.
/// `signed`: labels ±1 (SVM) vs {0, 1} (logistic).
pub fn classified_correctly(score: f32, label: f32, signed: bool) -> bool {
    if signed {
        (score > 0.0) == (label > 0.0)
    } else {
        (score > 0.0) == (label > 0.5)
    }
}

// ---- whole-batch metrics ------------------------------------------------

/// Mean squared error of a linear model over `features…, label` tuples.
pub fn mse(model: &DenseModel, tuples: &TupleBatch) -> MetricsResult<f64> {
    non_empty(tuples, "mse")?;
    let d = model.0.len();
    let sum: f64 = tuples
        .rows()
        .map(|t| squared_error_term(dot(&model.0, &t[..d]), t[d]))
        .sum();
    Ok(sum / tuples.len() as f64)
}

/// Logistic (cross-entropy) loss, labels in {0, 1}.
pub fn log_loss(model: &DenseModel, tuples: &TupleBatch) -> MetricsResult<f64> {
    non_empty(tuples, "log_loss")?;
    let d = model.0.len();
    let sum: f64 = tuples
        .rows()
        .map(|t| log_loss_term(sigmoid(dot(&model.0, &t[..d])), t[d]))
        .sum();
    Ok(sum / tuples.len() as f64)
}

/// Classification accuracy. `signed`: labels ±1 (SVM) vs {0,1} (logistic).
pub fn classification_accuracy(
    model: &DenseModel,
    tuples: &TupleBatch,
    signed: bool,
) -> MetricsResult<f64> {
    non_empty(tuples, "classification_accuracy")?;
    let d = model.0.len();
    let correct = tuples
        .rows()
        .filter(|t: &&[f32]| classified_correctly(dot(&model.0, &t[..d]), t[d], signed))
        .count();
    Ok(correct as f64 / tuples.len() as f64)
}

/// Root-mean-square rating error for LRMF over `(i, j, rating)` tuples.
pub fn lrmf_rmse(model: &LrmfModel, tuples: &TupleBatch) -> MetricsResult<f64> {
    non_empty(tuples, "lrmf_rmse")?;
    let sum: f64 = tuples
        .rows()
        .map(|t| squared_error_term(crate::scorer::score_lrmf_row(model, t), t[2]))
        .sum();
    Ok((sum / tuples.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_exact_model_is_zero() {
        let m = DenseModel(vec![2.0, -1.0]);
        let tuples = TupleBatch::from_rows(3, [[1.0, 1.0, 1.0], [0.5, 0.0, 1.0]]);
        assert!(mse(&m, &tuples).unwrap() < 1e-12);
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let m = DenseModel(vec![1.0]);
        let tuples = TupleBatch::from_rows(2, [[1.0, 1.0], [-1.0, -1.0], [2.0, -1.0]]);
        let acc = classification_accuracy(&m, &tuples, true).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn log_loss_is_finite_for_confident_wrong_predictions() {
        let m = DenseModel(vec![100.0]);
        let tuples = TupleBatch::from_rows(2, [[1.0, 0.0]]); // confidently wrong
        let l = log_loss(&m, &tuples).unwrap();
        assert!(l.is_finite() && l > 5.0);
    }

    #[test]
    fn log_loss_clamps_saturated_probabilities() {
        // An adversarially confident model saturates the f32 sigmoid to
        // exactly 1.0 (and 0.0): without the clamp the wrong-label terms
        // would be ln(0) = -inf.
        assert_eq!(sigmoid(1e6), 1.0, "test premise: sigmoid saturates");
        assert_eq!(sigmoid(-1e6), 0.0);
        let m = DenseModel(vec![1e6]);
        let tuples = TupleBatch::from_rows(
            2,
            [[1.0, 0.0], [-1.0, 1.0]], // both confidently wrong
        );
        let l = log_loss(&m, &tuples).unwrap();
        assert!(l.is_finite(), "clamp must keep the loss finite, got {l}");
        // The clamped worst case is exactly −ln(eps).
        assert!((l - -LOG_LOSS_EPS.ln()).abs() < 1e-6, "loss {l}");
        // And the term helpers clamp the raw 0/1 edges directly.
        assert!(log_loss_term(0.0, 1.0).is_finite());
        assert!(log_loss_term(1.0, 0.0).is_finite());
    }

    #[test]
    fn empty_batches_are_typed_errors() {
        let m = DenseModel(vec![1.0]);
        let empty = TupleBatch::new(2);
        for (name, result) in [
            ("mse", mse(&m, &empty)),
            ("log_loss", log_loss(&m, &empty)),
            (
                "classification_accuracy",
                classification_accuracy(&m, &empty, true),
            ),
            (
                "lrmf_rmse",
                lrmf_rmse(&LrmfModel::zeroed(2, 2, 2), &TupleBatch::new(3)),
            ),
        ] {
            match result {
                Err(MetricsError::EmptyBatch { metric }) => assert_eq!(metric, name),
                other => panic!("{name}: expected EmptyBatch, got {other:?}"),
            }
        }
        let e = MetricsError::EmptyBatch { metric: "mse" };
        assert!(e.to_string().contains("empty batch"));
    }
}
