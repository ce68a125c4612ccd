//! The CPU reference scorer: per-tuple forward passes for trained models.
//!
//! This is the inference tier's ground truth. The accelerator's scoring
//! path (the `dana-infer` SoA lockstep executor) must produce predictions
//! **bit-identical** to these functions for every tuple — the differential
//! suite holds it there across execution modes and thread counts. To make
//! that equality structural rather than accidental, both sides compute
//! each prediction with the same f32 operations in the same order:
//! a sequential [`dot`] over the feature axis, then the link function.

use dana_storage::TupleBatch;

use crate::algorithms::{DenseModel, LrmfModel};
use crate::linalg::{dot, sigmoid};

/// The link function applied to a dense model's raw score `w·x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Link {
    /// Linear regression / SVM: the prediction is the raw score (for SVM,
    /// the signed margin — its sign is the predicted class).
    Identity,
    /// Logistic regression: `σ(w·x)`, the class-1 probability.
    Sigmoid,
}

impl Link {
    pub fn apply(&self, score: f32) -> f32 {
        match self {
            Link::Identity => score,
            Link::Sigmoid => sigmoid(score),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Link::Identity => "identity",
            Link::Sigmoid => "sigmoid",
        }
    }
}

/// Scores one row under a dense model: `link(w·x)` over the first
/// `w.len()` columns (trailing columns — label, an earlier prediction —
/// are ignored).
pub fn score_dense_row(weights: &[f32], row: &[f32], link: Link) -> f32 {
    link.apply(dot(weights, &row[..weights.len()]))
}

/// Scores one `(i, j, …)` rating row under an LRMF factorization:
/// `L[i]·R[j]`, each index column read by [`crate::row_index`] as the
/// engine reads it. Panics on an index outside its factor (the engine
/// refuses one with a typed error).
pub fn score_lrmf_row(model: &LrmfModel, row: &[f32]) -> f32 {
    let at = |raw, rows| crate::row_index(raw, rows).expect("LRMF index inside its factor");
    model.predict(at(row[0], model.rows), at(row[1], model.cols))
}

/// Per-tuple reference scoring of a whole batch (dense models).
pub fn score_dense(model: &DenseModel, tuples: &TupleBatch, link: Link) -> Vec<f32> {
    tuples
        .rows()
        .map(|t| score_dense_row(&model.0, t, link))
        .collect()
}

/// Per-tuple reference scoring of a whole batch (LRMF).
pub fn score_lrmf(model: &LrmfModel, tuples: &TupleBatch) -> Vec<f32> {
    tuples.rows().map(|t| score_lrmf_row(model, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_scoring_matches_manual_dot() {
        let m = DenseModel(vec![2.0, -1.0]);
        let tuples = TupleBatch::from_rows(3, [[1.0, 1.0, 9.0], [0.5, 0.0, 9.0]]);
        let p = score_dense(&m, &tuples, Link::Identity);
        assert_eq!(p, vec![1.0, 1.0]);
        let p = score_dense(&m, &tuples, Link::Sigmoid);
        assert_eq!(p, vec![sigmoid(1.0), sigmoid(1.0)]);
    }

    #[test]
    fn trailing_columns_are_ignored() {
        // Width d+2 (a materialized prediction table): same scores.
        let m = DenseModel(vec![1.0, 1.0]);
        let with_label = TupleBatch::from_rows(3, [[1.0, 2.0, 7.0]]);
        let with_pred = TupleBatch::from_rows(4, [[1.0, 2.0, 7.0, 3.0]]);
        assert_eq!(
            score_dense(&m, &with_label, Link::Identity),
            score_dense(&m, &with_pred, Link::Identity)
        );
    }

    #[test]
    fn lrmf_scoring_matches_predict() {
        let m = LrmfModel::zeroed(4, 3, 2);
        let tuples = TupleBatch::from_rows(3, [[2.0, 1.0, 0.0], [0.0, 2.0, 0.0]]);
        let p = score_lrmf(&m, &tuples);
        assert_eq!(p, vec![m.predict(2, 1), m.predict(0, 2)]);
    }

    #[test]
    fn link_names() {
        assert_eq!(Link::Identity.name(), "identity");
        assert_eq!(Link::Sigmoid.name(), "sigmoid");
        assert_eq!(Link::Identity.apply(-2.5), -2.5);
    }
}
