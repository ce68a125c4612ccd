//! Inference-tier differential suite — the acceptance gate for PREDICT.
//!
//! For every zoo model (linear regression, logistic regression, SVM,
//! LRMF) the accelerator scoring path — deploy-time scoring lowering,
//! streamed page extraction, SoA lockstep executor — must produce
//! predictions **bit-identical** to the `dana_ml::scorer` CPU reference:
//! the bound scoring program at every lockstep lane count (1 / 4 / 16),
//! and a front-door PREDICT at the design's lanes. A materialized prediction table must also
//! round-trip: created by PREDICT, scanned back, evaluated with
//! EVALUATE, dropped with full page eviction.

use dana::prelude::*;
use dana::{exec, SystemCore};
use dana_dsl::zoo::{self, Algorithm, DenseParams, LrmfParams};
use dana_ml::{scorer, DenseModel, LrmfModel};
use dana_storage::page::TupleDirection;
use dana_storage::{HeapFileBuilder, Schema};

mod common;
use common::execute;

const PAGE: usize = 8 * 1024;

fn system() -> Dana {
    Dana::new(
        FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size: PAGE,
        },
        DiskModel::ssd(),
    )
}

/// A deterministic dense training table: `d` features + label.
fn dense_heap(n: usize, d: usize, algo: Algorithm) -> HeapFile {
    let truth: Vec<f32> = (0..d).map(|i| 0.35 * i as f32 - 0.9).collect();
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let x: Vec<f32> = (0..d)
            .map(|i| (((k * 11 + i * 5) % 17) as f32 - 8.0) / 8.0)
            .collect();
        let s: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        let y = match algo {
            Algorithm::Linear => s,
            Algorithm::Logistic => {
                if s > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Algorithm::Svm => {
                if s > 0.0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Algorithm::Lrmf => unreachable!("dense heap"),
        };
        b.insert(&Tuple::training(&x, y)).unwrap();
    }
    b.finish()
}

/// A deterministic rating table within `rows × cols`.
fn rating_heap(n: usize, rows: usize, cols: usize) -> HeapFile {
    let mut b = HeapFileBuilder::new(Schema::rating(), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let i = (k * 7) % rows;
        let j = (k * 13) % cols;
        let r = 1.0 + ((i * 3 + j * 5) % 4) as f32;
        b.insert(&Tuple::rating(i as i32, j as i32, r)).unwrap();
    }
    b.finish()
}

const LANES: [u16; 3] = [1, 4, 16];

/// Holds `udf`'s scores of `table` to `reference`, bit for bit: the
/// scoring program bound to its latest model at every lane count of the
/// sweep, and a front-door PREDICT — pages, Striders and all — at the
/// design's lanes.
fn assert_scores_match(db: &SystemCore, udf: &str, table: &str, reference: &[f32]) {
    let cached = db.accelerator_runtime(udf).unwrap();
    let setup = exec::scoring_setup(udf, cached, db.trained_generation(udf)).unwrap();
    let batch = db.table_snapshot(table).unwrap().scan_batch().unwrap();
    for lanes in LANES {
        let (got, _) = dana::score_batch(&setup.program, lanes, &batch).unwrap();
        assert_eq!(got, reference, "{udf}: {lanes} lanes must be bit-identical");
    }
    let sql = format!("PREDICT {udf}('{table}') INTO 'scores' WITH (backend = fpga);");
    let out = db.execute_statement(&sql).unwrap();
    assert_eq!(out.predict_report().unwrap().lanes, setup.lanes);
    let stored = db.table_snapshot("scores").unwrap().scan_batch().unwrap();
    let got: Vec<f32> = stored.rows().map(|r| *r.last().unwrap()).collect();
    assert_eq!(got, reference, "{udf}: PREDICT must be bit-identical");
}

/// Trains one dense zoo model in-database, then sweeps the accelerator
/// scoring path against the CPU reference.
fn dense_differential(algo: Algorithm, link: dana_ml::Link) {
    let d = 12;
    let db = system();
    db.create_table("t", dense_heap(900, d, algo)).unwrap();
    let spec = zoo::spec_for(
        algo,
        DenseParams {
            n_features: d,
            learning_rate: 0.1,
            merge_coef: 8,
            epochs: 6,
        },
    )
    .unwrap();
    let udf = spec.name.clone();
    db.deploy(&spec, "t").unwrap();
    let trained = execute(&db, &udf, "t");

    let batch = db.table_snapshot("t").unwrap().scan_batch().unwrap();
    let model = DenseModel(trained.dense_model().to_vec());
    let reference = scorer::score_dense(&model, &batch, link);
    assert_eq!(reference.len(), 900);
    assert_scores_match(&db, &udf, "t", &reference);
}

#[test]
fn linear_regression_predictions_bit_identical() {
    dense_differential(Algorithm::Linear, dana_ml::Link::Identity);
}

#[test]
fn logistic_regression_predictions_bit_identical() {
    dense_differential(Algorithm::Logistic, dana_ml::Link::Sigmoid);
}

#[test]
fn svm_predictions_bit_identical() {
    dense_differential(Algorithm::Svm, dana_ml::Link::Identity);
}

#[test]
fn lrmf_predictions_bit_identical() {
    let (rows, cols, rank) = (24usize, 18usize, 8usize);
    let db = system();
    db.create_table("ratings", rating_heap(800, rows, cols))
        .unwrap();
    let spec = zoo::lrmf(LrmfParams {
        rows,
        cols,
        rank,
        learning_rate: 0.05,
        merge_coef: 4,
        epochs: 4,
    })
    .unwrap();
    db.deploy(&spec, "ratings").unwrap();
    let trained = execute(&db, "lrmf", "ratings");

    // Rebuild the reference factorization from the trained factors.
    let l = trained.model("L").unwrap().to_vec();
    let r = trained.model("R").unwrap().to_vec();
    assert_eq!(l.len(), rows * rank);
    assert_eq!(r.len(), cols * rank);
    let model = LrmfModel {
        l,
        r,
        rows,
        cols,
        rank,
    };
    let batch = db.table_snapshot("ratings").unwrap().scan_batch().unwrap();
    let reference = scorer::score_lrmf(&model, &batch);
    assert_scores_match(&db, "lrmf", "ratings", &reference);
}

/// A point PREDICT reads an LRMF index the way training gathers it:
/// rounded to the nearest row. `2.6` scores row 3, and an index that
/// rounds outside the factor is a typed error rather than a clamp.
#[test]
fn point_predict_rounds_lrmf_indices_as_training_does() {
    let (rows, cols) = (24usize, 18usize);
    let db = system();
    db.create_table("ratings", rating_heap(800, rows, cols))
        .unwrap();
    let spec = zoo::lrmf(LrmfParams {
        rows,
        cols,
        rank: 8,
        learning_rate: 0.05,
        merge_coef: 4,
        epochs: 4,
    })
    .unwrap();
    db.deploy(&spec, "ratings").unwrap();
    execute(&db, "lrmf", "ratings");
    let point = |i: f32| {
        let sql = format!("PREDICT dana.lrmf(VALUES ({i}, 1.0));");
        db.execute_statement(&sql)
            .map(|out| out.point_report().unwrap().predictions[0])
    };
    assert_eq!(point(2.6).unwrap(), point(3.0).unwrap());
    assert_ne!(point(2.6).unwrap(), point(2.0).unwrap());
    for (index, row) in [(-0.6, -1), (rows as f32 - 0.4, rows as i64)] {
        match point(index) {
            Err(DanaError::Infer(e)) => assert_eq!(
                format!("{e:?}"),
                format!("RowIndexOutOfRange {{ factor: \"L\", row: {row}, rows: {rows} }}")
            ),
            other => panic!("index {index}: expected RowIndexOutOfRange, got {other:?}"),
        }
    }
}

/// The acceptance round trip: PREDICT materializes a table, a scan reads
/// the predictions back bit-exactly, EVALUATE runs over the materialized
/// table, and DROP evicts every page.
#[test]
fn prediction_table_round_trips_through_the_catalog() {
    let d = 10;
    let db = system();
    db.create_table("t", dense_heap(1200, d, Algorithm::Linear))
        .unwrap();
    let spec = zoo::linear_regression(DenseParams {
        n_features: d,
        learning_rate: 0.2,
        merge_coef: 8,
        epochs: 20,
    })
    .unwrap();
    db.deploy(&spec, "t").unwrap();
    let trained = execute(&db, "linearR", "t");

    // PREDICT → a real catalog table with the derived schema.
    let report = db
        .execute_statement("PREDICT linearR('t') INTO 't_scores';")
        .unwrap();
    let report = report.predict_report().unwrap();
    assert_eq!(report.rows_scored, 1200);
    assert!(db.table_names().contains(&"t_scores".to_string()));

    // Scan back: predictions are stored as Float4 and recover the CPU
    // reference bit-exactly.
    let model = DenseModel(trained.dense_model().to_vec());
    let src = db.table_snapshot("t").unwrap().scan_batch().unwrap();
    let reference = scorer::score_dense(&model, &src, dana_ml::Link::Identity);
    let scanned: Vec<f32> = db
        .table_snapshot("t_scores")
        .unwrap()
        .scan_batch()
        .unwrap()
        .rows()
        .map(|row| row[d + 1])
        .collect();
    assert_eq!(scanned, reference);

    // EVALUATE over the materialized table: the appended prediction
    // column is ignored, the label column still reads — the metric
    // equals the whole-batch reference on the source table.
    let eval = db
        .execute_statement("EVALUATE linearR('t_scores', 'mse');")
        .unwrap();
    let eval = eval.eval_report().unwrap();
    assert_eq!(
        eval.value,
        dana_ml::metrics::mse(&model, &src).unwrap(),
        "metric over the prediction table must equal the batch reference"
    );

    // DROP evicts every page: nothing of either heap stays resident.
    db.prewarm("t_scores").unwrap();
    let summary = db.drop_table("t_scores").unwrap();
    assert!(summary.pages_evicted > 0);
    db.drop_table("t").unwrap();
    assert_eq!(db.resident_pages(), 0, "full page eviction required");
}
