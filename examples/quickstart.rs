//! Quickstart: train a linear-regression UDF on an FPGA accelerator, from
//! SQL, in a few lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dana::prelude::*;
use dana_workloads::{generate, workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database with a training table (the "Patient" workload of the
    //    paper's Table 3, scaled for an in-memory demo).
    let db = Dana::default_system();
    let mut w = workload("Patient").unwrap().scaled(0.02);
    w.epochs = 30;
    let table = generate(&w, 32 * 1024, 42)?;
    println!(
        "table: {} tuples x {} features across {} pages",
        table.heap.tuple_count(),
        w.features,
        table.heap.page_count()
    );
    db.create_table("patient_data", table.heap)?;
    db.prewarm("patient_data")?; // warm-cache setting

    // 2. The UDF, written in the paper's DSL (about 15 lines of text).
    let udf = dana_dsl::zoo::linear_regression_source(dana_dsl::zoo::DenseParams {
        n_features: w.features,
        learning_rate: 0.1,
        merge_coef: 8,
        epochs: w.epochs,
    });
    println!("\n--- UDF source ---\n{udf}");
    let info = db.deploy_source(&udf, "linearR", "patient_data")?;
    println!(
        "deployed: {} threads x {} clusters, {} Striders, {} engine micro-ops",
        info.num_threads, info.acs_per_thread, info.num_striders, info.micro_ops
    );
    println!(
        "--- generated Strider program ---\n{}",
        info.strider_listing
    );

    // 3. Invoke it from SQL.
    let out = db.execute_statement("SELECT * FROM dana.linearR('patient_data');")?;
    let out = out.report()?;
    let t = &out.timing;
    println!("epochs run: {}", out.epochs_run);
    println!(
        "simulated time: total {:.1} ms (axi {:.1} ms, striders {:.1} ms, engine {:.1} ms, io {:.1} ms)",
        t.total_seconds * 1e3,
        t.axi_seconds * 1e3,
        t.strider_seconds * 1e3,
        t.engine_seconds * 1e3,
        t.io_seconds * 1e3
    );
    let m = out.dense_model();
    println!("model (first 8 weights): {:?}", &m[..8.min(m.len())]);
    Ok(())
}

// Satisfy the unused-dep lint for the prelude's breadth.
#[allow(unused_imports)]
use dana_ml as _;
