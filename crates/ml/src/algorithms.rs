//! The model types of the paper's four algorithms (§2.1, Table 3) and
//! [`train_reference`], which trains them with the DSL zoo's update rules
//! through the one training oracle ([`crate::interp`]).

use dana_dsl::zoo::{self, Algorithm};
use dana_dsl::{AlgoSpec, DslResult, FoldOrder};
use dana_storage::TupleBatch;

use crate::interp::train_spec;
use crate::linalg::dot;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub algorithm: Algorithm,
    pub learning_rate: f32,
    /// Batch size, run as that many lockstep threads: the dense
    /// algorithms sum a batch's gradients with `lr/batch` scaling (the
    /// DSL's merge-coefficient semantics); LRMF gathers a batch's rows at
    /// its start and scatters them back in thread order.
    pub batch: usize,
    pub epochs: u32,
    /// LRMF factorization rank (ignored by the dense algorithms).
    pub rank: usize,
    /// LRMF matrix shape when known from the catalog; otherwise inferred
    /// from the data's maximum indices.
    pub lrmf_dims: Option<(usize, usize)>,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            algorithm: Algorithm::Linear,
            learning_rate: 0.1,
            batch: 8,
            epochs: 1,
            rank: 10,
            lrmf_dims: None,
        }
    }
}

/// A dense weight vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseModel(pub Vec<f32>);

/// LRMF factors: `L` is rows×rank, `R` is cols×rank (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct LrmfModel {
    pub l: Vec<f32>,
    pub r: Vec<f32>,
    pub rows: usize,
    pub cols: usize,
    pub rank: usize,
}

/// Deterministic small non-zero factor initialization: SGD on an all-zero
/// factorization cannot escape the saddle point. Shared by every LRMF
/// runner (software references and the FPGA engine's model store) so their
/// trained factors are comparable.
pub fn default_lrmf_init(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| 0.1 + 0.01 * ((i * 2654435761usize) % 97) as f32 / 97.0)
        .collect()
}

impl LrmfModel {
    pub fn zeroed(rows: usize, cols: usize, rank: usize) -> LrmfModel {
        LrmfModel {
            l: default_lrmf_init(rows * rank),
            r: default_lrmf_init(cols * rank),
            rows,
            cols,
            rank,
        }
    }

    pub fn predict(&self, i: usize, j: usize) -> f32 {
        dot(
            &self.l[i * self.rank..(i + 1) * self.rank],
            &self.r[j * self.rank..(j + 1) * self.rank],
        )
    }
}

/// Result of a reference training run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainedModel {
    Dense(DenseModel),
    Lrmf(LrmfModel),
}

impl TrainedModel {
    pub fn as_dense(&self) -> &DenseModel {
        match self {
            TrainedModel::Dense(m) => m,
            TrainedModel::Lrmf(_) => panic!("expected dense model"),
        }
    }

    pub fn as_lrmf(&self) -> &LrmfModel {
        match self {
            TrainedModel::Lrmf(m) => m,
            TrainedModel::Dense(_) => panic!("expected LRMF model"),
        }
    }
}

/// Trains the reference model over a flat batch. Rows hold
/// features-then-label for the dense algorithms, or `(i, j, rating)` for
/// LRMF.
///
/// A thin wrapper over the one training oracle: it builds the zoo spec
/// for `cfg` and runs [`crate::interp::train_spec`] with `cfg.batch`
/// threads on one AU (every reduction one chain in axis order).
pub fn train_reference(tuples: &TupleBatch, cfg: &TrainConfig) -> TrainedModel {
    assert!(!tuples.is_empty(), "empty training set");
    let (batch, rank, epochs) = (cfg.batch.max(1), cfg.rank, cfg.epochs);
    let (learning_rate, merge_coef) = (cfg.learning_rate as f64, batch as u32);
    let train = |spec: DslResult<AlgoSpec>, mut models: Vec<Vec<f32>>| {
        let spec = spec.expect("zoo specs validate");
        let order = FoldOrder::one_au(&spec);
        train_spec(&spec, &order, batch, tuples, &mut models).expect("row indices in range");
        models
    };
    match cfg.algorithm {
        Algorithm::Lrmf => {
            // The shape from the catalog when known, else from the data's
            // maximum indices.
            let extent = |c: usize| tuples.rows().map(|t| t[c] as usize).max().unwrap_or(0) + 1;
            let (rows, cols) = cfg.lrmf_dims.unwrap_or_else(|| (extent(0), extent(1)));
            let p = zoo::LrmfParams {
                rows,
                cols,
                rank,
                learning_rate,
                merge_coef,
                epochs,
            };
            let init = vec![
                default_lrmf_init(rows * rank),
                default_lrmf_init(cols * rank),
            ];
            let [l, r] = train(zoo::lrmf(p), init).try_into().expect("two factors");
            TrainedModel::Lrmf(LrmfModel {
                l,
                r,
                rows,
                cols,
                rank,
            })
        }
        algo => {
            let n_features = tuples.width() - 1;
            let p = zoo::DenseParams {
                n_features,
                learning_rate,
                merge_coef,
                epochs,
            };
            let [w] = train(zoo::spec_for(algo, p), vec![vec![0.0; n_features]])
                .try_into()
                .expect("one weight vector");
            TrainedModel::Dense(DenseModel(w))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn linear_tuples(n: usize, d: usize) -> TupleBatch {
        let truth: Vec<f32> = (0..d).map(|i| (i as f32) * 0.3 - 0.5).collect();
        let mut batch = TupleBatch::with_capacity(d + 1, n);
        for k in 0..n {
            let x: Vec<f32> = (0..d)
                .map(|i| (((k * 13 + i * 7) % 17) as f32 - 8.0) / 8.0)
                .collect();
            let mut row = batch.start_row();
            for v in &x {
                row.push(*v);
            }
            row.push(dot(&x, &truth));
            row.finish();
        }
        batch
    }

    #[test]
    fn linear_regression_recovers_truth() {
        let tuples = linear_tuples(200, 5);
        let cfg = TrainConfig {
            epochs: 60,
            learning_rate: 0.3,
            ..Default::default()
        };
        let m = train_reference(&tuples, &cfg);
        let w = &m.as_dense().0;
        let truth: Vec<f32> = (0..5).map(|i| (i as f32) * 0.3 - 0.5).collect();
        for (a, b) in w.iter().zip(&truth) {
            assert!((a - b).abs() < 0.05, "{w:?} vs {truth:?}");
        }
    }

    #[test]
    fn logistic_separates_classes() {
        // Class = x0 > 0.
        let tuples = TupleBatch::from_rows(
            3,
            (0..300).map(|k| {
                let x0 = ((k % 21) as f32 - 10.0) / 10.0;
                let x1 = ((k % 13) as f32 - 6.0) / 6.0;
                [x0, x1, if x0 > 0.0 { 1.0 } else { 0.0 }]
            }),
        );
        let cfg = TrainConfig {
            algorithm: Algorithm::Logistic,
            epochs: 100,
            learning_rate: 0.8,
            ..Default::default()
        };
        let m = train_reference(&tuples, &cfg);
        let acc = metrics::classification_accuracy(m.as_dense(), &tuples, false).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn svm_separates_classes() {
        // Labels ±1, margin on x0.
        let tuples = TupleBatch::from_rows(
            3,
            (0..300).map(|k| {
                let x0 = ((k % 21) as f32 - 10.0) / 5.0;
                let x1 = ((k % 7) as f32 - 3.0) / 3.0;
                [x0, x1, if x0 > 0.0 { 1.0 } else { -1.0 }]
            }),
        );
        let cfg = TrainConfig {
            algorithm: Algorithm::Svm,
            epochs: 60,
            learning_rate: 0.2,
            ..Default::default()
        };
        let m = train_reference(&tuples, &cfg);
        let acc = metrics::classification_accuracy(m.as_dense(), &tuples, true).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn lrmf_reduces_rmse() {
        // Ratings from a planted rank-2 structure.
        let (rows, cols) = (20usize, 15usize);
        let tuples = TupleBatch::from_rows(
            3,
            (0..rows).flat_map(|i| {
                (0..cols).map(move |j| {
                    let r = 1.0 + ((i * 3 + j * 5) % 4) as f32;
                    [i as f32, j as f32, r]
                })
            }),
        );
        let cfg = TrainConfig {
            algorithm: Algorithm::Lrmf,
            epochs: 40,
            learning_rate: 0.03,
            rank: 6,
            ..Default::default()
        };
        let before = metrics::lrmf_rmse(&LrmfModel::zeroed(rows, cols, 6), &tuples).unwrap();
        let m = train_reference(&tuples, &cfg);
        let after = metrics::lrmf_rmse(m.as_lrmf(), &tuples).unwrap();
        assert!(after < before * 0.5, "rmse {before} → {after}");
    }

    #[test]
    fn batch_size_one_is_pure_sgd() {
        let tuples = linear_tuples(64, 3);
        let b1 = train_reference(
            &tuples,
            &TrainConfig {
                batch: 1,
                epochs: 3,
                learning_rate: 0.1,
                ..Default::default()
            },
        );
        let b8 = train_reference(
            &tuples,
            &TrainConfig {
                batch: 8,
                epochs: 3,
                learning_rate: 0.1,
                ..Default::default()
            },
        );
        // Different optimizers: both converge but produce different weights.
        assert_ne!(b1.as_dense().0, b8.as_dense().0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let _ = train_reference(&TupleBatch::new(3), &TrainConfig::default());
    }
}
