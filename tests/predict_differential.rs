//! Inference-tier differential suite: what the statement matrix cannot
//! express.
//!
//! `tests/statements.rs` holds every front-door PREDICT, EVALUATE and
//! point PREDICT to `dana_ml::scorer` at the design's lanes. Here the
//! scoring program bound to a trained model is held to the same reference
//! at every lockstep lane count of the sweep (1 / 4 / 16) for every zoo
//! model; a point PREDICT rounds an LRMF index as training does; and a
//! materialized prediction table round-trips: created by PREDICT, scanned
//! back, evaluated with EVALUATE, dropped with full page eviction.

use dana::prelude::*;
use dana::{exec, SystemCore};
use dana_dsl::zoo::{self, Algorithm, DenseParams, LrmfParams};
use dana_ml::{scorer, DenseModel, LrmfModel};

mod common;
use common::{core, dense_heap, dense_rows, execute, rating_heap, rating_rows, PAGE};

/// The dense table of this suite: `d` features labelled under the truth
/// `0.35·i − 0.9`.
fn dense_table(n: usize, d: usize, algo: Algorithm) -> HeapFile {
    dense_heap(&dense_rows(n, d, algo, |i| 0.35 * i as f32 - 0.9))
}

const LANES: [u16; 3] = [1, 4, 16];

/// Holds `udf`'s scores of `table` to `reference`, bit for bit: the
/// scoring program bound to its latest model at every lane count of the
/// sweep.
fn assert_scores_match(db: &SystemCore, udf: &str, table: &str, reference: &[f32]) {
    let cached = db.accelerator_runtime(udf).unwrap();
    let setup = exec::scoring_setup(udf, cached, db.trained_generation(udf)).unwrap();
    let batch = db.table_snapshot(table).unwrap().scan_batch().unwrap();
    for lanes in LANES {
        let (got, _) = dana::score_batch(&setup.program, lanes, &batch).unwrap();
        assert_eq!(got, reference, "{udf}: {lanes} lanes must be bit-identical");
    }
}

/// Trains one dense zoo model in-database, then sweeps the accelerator
/// scoring path against the CPU reference.
fn dense_differential(algo: Algorithm, link: dana_ml::Link) {
    let d = 12;
    let db = core(PAGE);
    db.create_table("t", dense_table(900, d, algo)).unwrap();
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
    let db = core(PAGE);
    let ratings = rating_heap(&rating_rows(800, rows, cols, false));
    db.create_table("ratings", ratings).unwrap();
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
    let db = core(PAGE);
    let ratings = rating_heap(&rating_rows(800, rows, cols, false));
    db.create_table("ratings", ratings).unwrap();
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
    let db = core(PAGE);
    db.create_table("t", dense_table(1200, d, Algorithm::Linear))
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
