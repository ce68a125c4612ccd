//! The inference tier end-to-end: train → deploy → PREDICT → EVALUATE,
//! entirely in-database, for all four zoo analytics.
//!
//! ```sh
//! cargo run --release --example predict_and_evaluate
//! ```
//!
//! Each analytic is deployed (which also derives its deploy-time scoring
//! recipe), trained with `SELECT * FROM dana.<udf>(…)`, scored with
//! `PREDICT … INTO …` (materializing a real prediction table in the
//! catalog), and evaluated with `EVALUATE …` — no tuple ever leaves the
//! engine. `DANA_SMOKE=1` shrinks the tables for CI.

use dana::prelude::*;
use dana_dsl::zoo::{self, Algorithm, DenseParams, LrmfParams};
use dana_storage::page::TupleDirection;
use dana_storage::{HeapFileBuilder, Schema};

const PAGE: usize = 32 * 1024;

fn dense_heap(n: usize, d: usize, algo: Algorithm) -> HeapFile {
    let truth: Vec<f32> = (0..d).map(|i| 0.3 * i as f32 - 0.8).collect();
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let x: Vec<f32> = (0..d)
            .map(|i| (((k * 11 + i * 5) % 17) as f32 - 8.0) / 8.0)
            .collect();
        let s: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        let y = match algo {
            Algorithm::Linear => s,
            Algorithm::Logistic => (s > 0.0) as u8 as f32,
            Algorithm::Svm => {
                if s > 0.0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Algorithm::Lrmf => unreachable!(),
        };
        b.insert(&Tuple::training(&x, y)).unwrap();
    }
    b.finish()
}

fn rating_heap(n: usize, rows: usize, cols: usize) -> HeapFile {
    let mut b = HeapFileBuilder::new(Schema::rating(), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let (i, j) = ((k * 7) % rows, (k * 13) % cols);
        let r = 1.0 + ((i * 3 + j * 5) % 4) as f32;
        b.insert(&Tuple::rating(i as i32, j as i32, r)).unwrap();
    }
    b.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let n = if smoke { 400 } else { 4000 };
    let d = 12;
    let db = Dana::default_system();

    println!("=== in-database inference: train → predict → evaluate ===\n");

    // ---- the three dense analytics --------------------------------------
    for algo in [Algorithm::Linear, Algorithm::Logistic, Algorithm::Svm] {
        let spec = zoo::spec_for(
            algo,
            DenseParams {
                n_features: d,
                learning_rate: 0.1,
                merge_coef: 8,
                epochs: if smoke { 4 } else { 12 },
            },
        )?;
        let udf = spec.name.clone();
        let table = format!("{udf}_data");
        let scores = format!("{udf}_scores");
        db.create_table(&table, dense_heap(n, d, algo))?;
        db.deploy(&spec, &table)?;

        // Train from SQL.
        let trained = db.execute_statement(&format!("SELECT * FROM dana.{udf}('{table}');"))?;
        let trained = trained.report()?;
        // Score from SQL: materialize a prediction table.
        let out =
            db.execute_statement(&format!("PREDICT dana.{udf}('{table}') INTO '{scores}';"))?;
        let QueryResponse::Predicted(p) = out else {
            unreachable!()
        };
        // Evaluate from SQL, on the *materialized* table: the appended
        // prediction column rides along, the label column still reads.
        let out = db.execute_statement(&format!("EVALUATE dana.{udf}('{scores}');"))?;
        let QueryResponse::Evaluated(e) = out else {
            unreachable!()
        };
        println!(
            "{:<28} {:>6} rows → '{}' ({} pages) | {} = {:.6} | train {:.1} ms, score {:.1} ms",
            algo.name(),
            p.rows_scored,
            p.output_table,
            db.table_pages(&scores).unwrap(),
            e.metric.name(),
            e.value,
            trained.timing.total_seconds * 1e3,
            p.timing.total_seconds * 1e3,
        );
    }

    // ---- LRMF ------------------------------------------------------------
    let (rows, cols, rank) = (40, 30, 10);
    let spec = zoo::lrmf(LrmfParams {
        rows,
        cols,
        rank,
        learning_rate: 0.05,
        merge_coef: 4,
        epochs: if smoke { 3 } else { 10 },
    })?;
    db.create_table("ratings", rating_heap(n, rows, cols))?;
    db.deploy(&spec, "ratings")?;
    let trained = db.execute_statement("SELECT * FROM dana.lrmf('ratings');")?;
    let trained = trained.report()?;
    let out = db.execute_statement("PREDICT dana.lrmf('ratings') INTO 'rating_scores';")?;
    let QueryResponse::Predicted(p) = out else {
        unreachable!()
    };
    let out = db.execute_statement("EVALUATE dana.lrmf('rating_scores', 'lrmf_rmse');")?;
    let QueryResponse::Evaluated(e) = out else {
        unreachable!()
    };
    println!(
        "{:<28} {:>6} rows → '{}' | {} = {:.6} | train {:.1} ms, score {:.1} ms",
        Algorithm::Lrmf.name(),
        p.rows_scored,
        p.output_table,
        e.metric.name(),
        e.value,
        trained.timing.total_seconds * 1e3,
        p.timing.total_seconds * 1e3,
    );

    // ---- the prediction tables are real tables ---------------------------
    println!("\ncatalog tables: {:?}", db.table_names());
    let summary = db.drop_table("linearR_scores")?;
    println!(
        "dropped 'linearR_scores': {} pages evicted",
        summary.pages_evicted
    );
    Ok(())
}

// Satisfy the unused-dep lint for the prelude's breadth.
#[allow(unused_imports)]
use dana_ml as _;
#[allow(unused_imports)]
use dana_workloads as _;
