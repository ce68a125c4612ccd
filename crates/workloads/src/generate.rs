//! Seeded dataset generators.
//!
//! Each workload's data comes from a planted ground-truth model plus noise,
//! so training *can actually converge* and accuracy/loss assertions are
//! meaningful — topology (widths, counts, bytes) matches Table 3; content
//! is synthetic, because the public datasets are not redistributable here.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dana_dsl::zoo::Algorithm;
use dana_storage::page::TupleDirection;
use dana_storage::{HeapFile, HeapFileBuilder, StorageResult, Tuple, TupleBatch};

use crate::registry::Workload;

/// A generated training table plus its planted truth.
pub struct GeneratedTable {
    pub heap: HeapFile,
    /// The planted dense model (None for LRMF).
    pub truth: Option<Vec<f32>>,
}

/// Generates the workload's heap file at `page_size` with `seed`.
///
/// Functional-scale callers should pass a [`Workload::scaled`] copy; the
/// full Table-3 sizes are meant for the analytic harness.
pub fn generate(w: &Workload, page_size: usize, seed: u64) -> StorageResult<GeneratedTable> {
    let schema = w.schema();
    let mut builder = HeapFileBuilder::new(schema, page_size, TupleDirection::Ascending)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A_0001);
    match w.algorithm {
        Algorithm::Lrmf => {
            let (rows, cols, rank) = w.lrmf.expect("LRMF workload has dims");
            let planted = plant_factors(rows, cols, rank, &mut rng);
            for _ in 0..w.tuples {
                let i = rng.random_range(0..rows);
                let j = rng.random_range(0..cols);
                let noise: f32 = rng.random_range(-0.05..0.05);
                let rating = planted_rating(&planted, i, j, rank) + noise;
                builder.insert(&Tuple::rating(i as i32, j as i32, rating))?;
            }
            Ok(GeneratedTable {
                heap: builder.finish(),
                truth: None,
            })
        }
        algo => {
            let truth = plant_model(w.features, &mut rng);
            for _ in 0..w.tuples {
                let (x, y) = dense_tuple(algo, &truth, &mut rng);
                builder.insert(&Tuple::training(&x, y))?;
            }
            Ok(GeneratedTable {
                heap: builder.finish(),
                truth: Some(truth),
            })
        }
    }
}

/// In-memory flat-batch generation (no heap) — for baselines and benches
/// that do not need pages.
pub fn generate_tuples(w: &Workload, seed: u64) -> (TupleBatch, Option<Vec<f32>>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A_0001);
    match w.algorithm {
        Algorithm::Lrmf => {
            let (rows, cols, rank) = w.lrmf.expect("LRMF workload has dims");
            let planted = plant_factors(rows, cols, rank, &mut rng);
            let mut batch = TupleBatch::with_capacity(3, w.tuples as usize);
            for _ in 0..w.tuples {
                let i = rng.random_range(0..rows);
                let j = rng.random_range(0..cols);
                let noise: f32 = rng.random_range(-0.05..0.05);
                batch.push_row(&[
                    i as f32,
                    j as f32,
                    planted_rating(&planted, i, j, rank) + noise,
                ]);
            }
            (batch, None)
        }
        algo => {
            let truth = plant_model(w.features, &mut rng);
            let mut batch = TupleBatch::with_capacity(w.features + 1, w.tuples as usize);
            for _ in 0..w.tuples {
                let (x, y) = dense_tuple(algo, &truth, &mut rng);
                let mut row = batch.start_row();
                for v in x {
                    row.push(v);
                }
                row.push(y);
                row.finish();
            }
            (batch, Some(truth))
        }
    }
}

fn plant_model(d: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..d).map(|_| rng.random_range(-1.0..1.0)).collect()
}

fn plant_factors(rows: usize, cols: usize, rank: usize, rng: &mut StdRng) -> (Vec<f32>, Vec<f32>) {
    let l: Vec<f32> = (0..rows * rank)
        .map(|_| rng.random_range(-0.5..0.5))
        .collect();
    let r: Vec<f32> = (0..cols * rank)
        .map(|_| rng.random_range(-0.5..0.5))
        .collect();
    (l, r)
}

fn planted_rating(planted: &(Vec<f32>, Vec<f32>), i: usize, j: usize, rank: usize) -> f32 {
    let (l, r) = planted;
    (0..rank).map(|k| l[i * rank + k] * r[j * rank + k]).sum()
}

fn dense_tuple(algo: Algorithm, truth: &[f32], rng: &mut StdRng) -> (Vec<f32>, f32) {
    let d = truth.len();
    let x: Vec<f32> = (0..d).map(|_| rng.random_range(-1.0..1.0)).collect();
    let score: f32 = x.iter().zip(truth).map(|(a, b)| a * b).sum();
    let y = match algo {
        Algorithm::Linear => score + rng.random_range(-0.02..0.02),
        Algorithm::Logistic => {
            if score > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        Algorithm::Svm => {
            if score > 0.0 {
                1.0
            } else {
                -1.0
            }
        }
        Algorithm::Lrmf => unreachable!("LRMF uses the rating generator"),
    };
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;
    use dana_ml::{metrics, train_reference, TrainConfig};

    #[test]
    fn generation_is_deterministic() {
        let w = workload("Patient").unwrap().scaled(0.01);
        let a = generate(&w, 8 * 1024, 7).unwrap();
        let b = generate(&w, 8 * 1024, 7).unwrap();
        assert_eq!(a.heap.page_bytes(0).unwrap(), b.heap.page_bytes(0).unwrap());
        assert_eq!(a.truth, b.truth);
        let c = generate(&w, 8 * 1024, 8).unwrap();
        assert_ne!(a.heap.page_bytes(0).unwrap(), c.heap.page_bytes(0).unwrap());
    }

    #[test]
    fn scaled_workload_generates_learnable_linear_data() {
        let w = workload("Patient").unwrap().scaled(0.02); // 1070 × 384
        let (tuples, truth) = generate_tuples(&w, 42);
        let cfg = TrainConfig {
            algorithm: dana_ml::Algorithm::Linear,
            epochs: 20,
            learning_rate: 0.05,
            batch: 8,
            ..Default::default()
        };
        let model = train_reference(&tuples, &cfg);
        let loss = metrics::mse(model.as_dense(), &tuples).unwrap();
        assert!(loss < 1.0, "mse {loss}");
        assert!(truth.is_some());
    }

    #[test]
    fn classification_data_is_separable() {
        let w = workload("Remote Sensing LR").unwrap().scaled(0.002); // ~1162 × 54
        let (tuples, _) = generate_tuples(&w, 42);
        let cfg = TrainConfig {
            algorithm: dana_ml::Algorithm::Logistic,
            epochs: 40,
            learning_rate: 0.5,
            batch: 8,
            ..Default::default()
        };
        let model = train_reference(&tuples, &cfg);
        let acc = metrics::classification_accuracy(model.as_dense(), &tuples, false).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn lrmf_data_has_low_rank_structure() {
        let mut w = workload("Netflix").unwrap();
        w.lrmf = Some((40, 30, 10));
        w.tuples = 2_000;
        let (tuples, _) = generate_tuples(&w, 42);
        let cfg = TrainConfig {
            algorithm: dana_ml::Algorithm::Lrmf,
            epochs: 60,
            learning_rate: 0.08,
            rank: 10,
            ..Default::default()
        };
        let model = train_reference(&tuples, &cfg);
        let rmse = metrics::lrmf_rmse(model.as_lrmf(), &tuples).unwrap();
        assert!(rmse < 0.25, "rmse {rmse}");
    }

    #[test]
    fn heap_and_tuple_generators_agree_on_count() {
        let w = workload("WLAN").unwrap().scaled(0.01);
        let table = generate(&w, 8 * 1024, 1).unwrap();
        let (tuples, _) = generate_tuples(&w, 1);
        assert_eq!(table.heap.tuple_count(), tuples.len() as u64);
    }

    #[test]
    fn svm_labels_are_signed() {
        let w = workload("Remote Sensing SVM").unwrap().scaled(0.001);
        let (tuples, _) = generate_tuples(&w, 3);
        assert!(tuples.rows().all(|t| t[54] == 1.0 || t[54] == -1.0));
    }
}
