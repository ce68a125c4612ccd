//! The paper's motivating Example 1: "A marketing firm ... forecasts the
//! hourly ad serving load by running a multi-regression model across a
//! hundred features available in their data."
//!
//! Without DAnA, the data scientist must export the table and hand-design
//! Verilog. Here the update rule is written in the DSL and deployed; the
//! MADlib/PostgreSQL side is the reference trainer's model over the same
//! rows, priced by the analytic harness (`dana::analytic_madlib`, warm).
//!
//! ```sh
//! cargo run --release --example ad_load_forecasting
//! ```

use dana::prelude::*;
use dana::{analytic_madlib, SystemParams};
use dana_ml::{metrics, train_reference};
use dana_workloads::{generate, workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The firm's table: 100 features, tens of thousands of rows.
    let mut w = workload("Patient").unwrap();
    w.features = 100;
    w.tuples = 20_000;
    w.epochs = 40;
    w.learning_rate = 0.1;
    let table = generate(&w, 32 * 1024, 7)?;
    let data = table.heap.scan_batch()?;

    // --- DAnA path -----------------------------------------------------
    let db = Dana::default_system();
    db.create_table("ad_serving_history", table.heap.clone())?;
    db.prewarm("ad_serving_history")?;
    db.deploy(&w.spec(), "ad_serving_history")?;
    let out = db.execute_statement("SELECT * FROM dana.linearR('ad_serving_history');")?;
    let out = out.report()?;
    let dana_model = dana_ml::DenseModel(out.dense_model().to_vec());
    let dana_seconds = out.timing.total_seconds;

    // --- In-database software path (MADlib-class) -----------------------
    // Per-tuple SGD needs a gentler step than the batched accelerator run.
    let cfg = TrainConfig {
        algorithm: Algorithm::Linear,
        learning_rate: 0.005,
        batch: 1,
        epochs: w.epochs,
        ..Default::default()
    };
    let madlib_model = train_reference(&data, &cfg);
    let madlib = analytic_madlib(&w, true, &SystemParams::default());

    // --- Report ----------------------------------------------------------
    println!(
        "ad-load forecasting, 100 features x {} rows, {} epochs",
        w.tuples, w.epochs
    );
    println!(
        "  DAnA accelerator : {:>9.3} s   (mse {:.5})",
        dana_seconds,
        metrics::mse(&dana_model, &data).unwrap()
    );
    println!(
        "  MADlib/PostgreSQL: {:>9.3} s   (mse {:.5})",
        madlib.total_seconds,
        metrics::mse(madlib_model.as_dense(), &data).unwrap()
    );
    println!(
        "  speedup          : {:>8.1}x",
        madlib.total_seconds / dana_seconds
    );
    Ok(())
}
