//! Intra-query data parallelism end-to-end: one large training table,
//! one query, a gang of accelerators.
//!
//! ```sh
//! cargo run --release --example parallel_scaleout
//! ```
//!
//! A logistic-regression table is trained, evaluated, and scored with
//! `WITH (shards = k)` for k ∈ {1, 2, 4} through the SQL front door of a
//! running [`dana_server::DanaServer`]. The printout shows, per shard
//! count: the simulated end-to-end seconds (the gang's critical path),
//! the speedup over the 1-shard run, the gang's pool instances, and the
//! model's in-database loss — demonstrating scan speedup *with* loss
//! parity. The 1-shard run is bit-identical to serial by construction,
//! and every PREDICT materializes a bit-identical prediction table
//! (asserted). `DANA_SMOKE=1` shrinks the table for CI.

use dana::prelude::*;
use dana_server::{DanaServer, QueryRequest, ServerConfig, SystemCoreConfig};
use dana_storage::page::TupleDirection;
use dana_storage::{BufferPoolConfig, HeapFileBuilder, Schema};

const PAGE: usize = 32 * 1024;

fn logistic_heap(n: usize, d: usize) -> HeapFile {
    let truth: Vec<f32> = (0..d).map(|i| 0.25 * i as f32 - 1.5).collect();
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let x: Vec<f32> = (0..d)
            .map(|i| (((k * 13 + i * 7) % 29) as f32 - 14.0) / 14.0)
            .collect();
        let s: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        b.insert(&Tuple::training(&x, (s > 0.0) as u8 as f32))
            .unwrap();
    }
    b.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let (n, d) = if smoke { (60_000, 16) } else { (300_000, 16) };
    let spec = dana_dsl::zoo::logistic_regression(dana_dsl::zoo::DenseParams {
        n_features: d,
        learning_rate: 0.1,
        merge_coef: 8,
        epochs: if smoke { 3 } else { 6 },
    })?;

    let srv = DanaServer::start(ServerConfig {
        accelerators: 4,
        workers: 4,
        admission: Default::default(),
        default_timeout_ms: None,
        core: SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig {
                pool_bytes: 512 << 20,
                page_size: PAGE,
            },
            ..Default::default()
        },
    });
    srv.create_table("clicks", logistic_heap(n, d))?;
    srv.deploy(&spec, "clicks")?;
    let session = srv.open_session("scaleout");

    println!("=== intra-query parallelism: {n} × {d} logistic regression, pool of 4 ===\n");

    // ---- training sweep: same query, growing gangs -----------------------
    // Each shard count trains its own data-parallel model; the loss
    // column shows parity with the serial optimum (the problem is
    // convex, so epoch-boundary model averaging tracks it closely).
    println!(
        "{:<24} {:>13} {:>9} {:>14} {:>12}",
        "training", "sim seconds", "speedup", "gang", "log_loss"
    );
    let mut train_base = None;
    for k in [1u16, 2, 4] {
        // Cold cache per run: the scan term (what sharding divides)
        // dominates the per-query constants.
        srv.core().clear_cache();
        let reply = srv.call(
            session,
            QueryRequest::Sql(format!(
                "EXECUTE dana.logisticR('clicks') WITH (shards = {k});"
            )),
        )?;
        let sim = reply.response.report()?.timing.total_seconds;
        let gang = reply.gang.clone();
        srv.core().clear_cache();
        let loss = srv
            .call(
                session,
                QueryRequest::Sql(format!(
                    "EVALUATE dana.logisticR('clicks') WITH (shards = {k});"
                )),
            )?
            .response
            .eval_report()?
            .value;
        let base = *train_base.get_or_insert(sim);
        println!(
            "{:<24} {:>13.4} {:>8.2}x {:>14} {:>12.6}",
            format!("EXECUTE WITH (shards={k})"),
            sim,
            base / sim,
            format!("{gang:?}"),
            loss,
        );
    }

    // ---- scoring sweep: one fixed model, growing gangs -------------------
    // Retrain once at shards = 1 so every PREDICT binds the *same*
    // model: the three materialized tables must then be bit-identical —
    // the shard count is invisible to PREDICT's output.
    srv.call(
        session,
        QueryRequest::Sql("EXECUTE dana.logisticR('clicks');".into()),
    )?;
    println!(
        "\n{:<24} {:>13} {:>9} {:>14} {:>12}",
        "scoring (fixed model)", "sim seconds", "speedup", "gang", "output"
    );
    let mut score_base = None;
    let mut serial_rows: Option<Vec<Vec<f32>>> = None;
    for k in [1u16, 2, 4] {
        let dest = format!("scores_{k}");
        srv.core().clear_cache();
        let reply = srv.call(
            session,
            QueryRequest::Sql(format!(
                "PREDICT dana.logisticR('clicks') INTO '{dest}' WITH (shards = {k});"
            )),
        )?;
        let gang = reply.gang.clone();
        let predict = reply.response.predict_report()?.clone();
        let rows: Vec<Vec<f32>> = srv
            .core()
            .table_snapshot(&dest)?
            .scan_batch()?
            .rows()
            .map(|r| r.to_vec())
            .collect();
        match &serial_rows {
            None => serial_rows = Some(rows),
            Some(reference) => assert_eq!(
                &rows, reference,
                "{k}-shard PREDICT must be bit-identical to serial"
            ),
        }
        let sim = predict.timing.total_seconds;
        let base = *score_base.get_or_insert(sim);
        println!(
            "{:<24} {:>13.4} {:>8.2}x {:>14} {:>12}",
            format!("PREDICT WITH (shards={k})"),
            sim,
            base / sim,
            format!("{gang:?}"),
            format!("{} rows", predict.rows_scored),
        );
    }
    println!(
        "\nall three prediction tables are bit-identical — shard count is invisible to PREDICT"
    );

    let util = srv.shutdown();
    println!(
        "pool busy seconds {:?} (makespan {:.3}s, {:.1}% utilized)",
        util.busy_seconds
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        util.makespan_seconds(),
        util.utilization() * 100.0
    );
    Ok(())
}
