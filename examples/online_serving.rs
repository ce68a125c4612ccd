//! Online serving demo: point PREDICTs riding the fast path while gang
//! training churns in the background.
//!
//! One `DanaServer` hosts a deployed, trained linear model. A training
//! client keeps re-running the gang on the full table (the batch-class
//! traffic that would otherwise starve interactive work) while four
//! point clients hammer the serving tier with single-row predictions
//! through [`dana_serve::ServeTier`]:
//!
//! * repeated rows are answered from the staleness-aware prediction
//!   cache without touching the server at all;
//! * concurrent misses against the same accelerator coalesce into one
//!   SoA dispatch (watch `batch_rows` on the replies);
//! * point queries are admitted `Interactive`, so they overtake the
//!   queued training gangs instead of waiting behind them.
//!
//! The demo closes with the SQL VALUES form of the same fast path and
//! the `SHOW STATS ('serving')` counter table.
//!
//! Run with `cargo run --release --example online_serving`;
//! `DANA_SMOKE=1` shrinks the burst for CI.

use std::sync::Arc;
use std::time::Duration;

use dana::prelude::*;
use dana_serve::{BatcherConfig, CacheConfig, ServeConfig, ServeTier};
use dana_server::{DanaServer, QueryRequest, ServerConfig, SystemCoreConfig};
use dana_storage::BufferPoolConfig;
use dana_workloads::{generate, workload};

fn main() {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let (point_clients, points_per_client) = if smoke { (2, 20) } else { (4, 200) };
    let training_runs = if smoke { 1 } else { 3 };

    let srv = Arc::new(DanaServer::start(ServerConfig {
        accelerators: 2,
        workers: 2,
        admission: Default::default(),
        default_timeout_ms: None,
        core: SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig {
                pool_bytes: 128 << 20,
                page_size: 32 * 1024,
            },
            pool_shards: 8,
            disk: DiskModel::ssd(),
        },
    }));

    // One deployed, trained linear model over the Patient workload.
    let mut w = workload("Patient").unwrap().scaled(0.02);
    w.epochs = 2;
    w.merge_coef = 8;
    let table = generate(&w, 32 * 1024, 7).unwrap();
    srv.create_table("patients", table.heap).unwrap();
    srv.prewarm("patients").unwrap();
    let mut spec = w.spec();
    spec.name = "scorer".to_string();
    srv.deploy(&spec, "patients").unwrap();
    let admin = srv.open_session("admin");
    srv.call(
        admin,
        QueryRequest::Sql("EXECUTE dana.scorer('patients');".into()),
    )
    .unwrap();

    // The serving tier: default cache, a 300µs coalescing window.
    let tier = Arc::new(ServeTier::new(
        Arc::clone(&srv),
        ServeConfig {
            cache: CacheConfig::default(),
            batcher: BatcherConfig {
                max_batch: 16,
                window: Duration::from_micros(300),
            },
        },
    ));
    let rows: Vec<Vec<f32>> = srv
        .core()
        .table_snapshot("patients")
        .unwrap()
        .scan_batch()
        .unwrap()
        .rows()
        .take(32)
        .map(|r| r.to_vec())
        .collect();

    std::thread::scope(|scope| {
        // Batch-class background traffic: gang training on the full
        // table, repeatedly.
        scope.spawn(|| {
            let session = srv.open_session("trainer");
            for _ in 0..training_runs {
                srv.call(
                    session,
                    QueryRequest::Sql("EXECUTE dana.scorer('patients') WITH (shards = 2);".into()),
                )
                .unwrap();
            }
            let stats = srv.close_session(session).unwrap();
            println!(
                "[trainer] {} gang runs, sim {:.3}s",
                stats.completed, stats.sim_seconds
            );
        });

        // Interactive point clients: each loops over a small working
        // set, so later iterations hit the cache; concurrent misses
        // coalesce.
        for c in 0..point_clients {
            let tier = Arc::clone(&tier);
            let srv = Arc::clone(&srv);
            let rows = &rows;
            scope.spawn(move || {
                let session = srv.open_session(&format!("point-{c}"));
                let (mut hits, mut max_batch) = (0usize, 0usize);
                for i in 0..points_per_client {
                    let row = &rows[(c + i * 3) % rows.len()];
                    let reply = tier.predict_point(session, "scorer", row).unwrap();
                    hits += reply.cached as usize;
                    max_batch = max_batch.max(reply.batch_rows);
                }
                println!(
                    "[point-{c}] {points_per_client} predictions: {hits} cache hits, \
                     widest shared dispatch {max_batch} rows"
                );
            });
        }
    });

    // The same fast path, spelled in SQL (the echo truncates the
    // 300-odd feature literals; the statement carries them all).
    let vals: Vec<String> = rows[0].iter().map(|v| format!("{v}")).collect();
    let sql = format!("PREDICT dana.scorer(VALUES ({}));", vals.join(", "));
    let reply = srv.call(admin, QueryRequest::Sql(sql)).unwrap();
    let report = reply.response.point_report().unwrap();
    println!(
        "\nPREDICT dana.scorer(VALUES ({}, … {} more));\n-> {:.6} ({:?} tier)",
        vals[..3.min(vals.len())].join(", "),
        vals.len().saturating_sub(3),
        report.predictions[0],
        report.backend
    );

    // The serving tier's counter surface.
    let reply = srv
        .call(admin, QueryRequest::Sql("SHOW STATS ('serving');".into()))
        .unwrap();
    let QueryResponse::Stats(snap) = reply.response else {
        panic!("SHOW STATS answers with a snapshot");
    };
    println!("\nSHOW STATS ('serving');\n{}", snap.render_table());

    srv.close_session(admin).unwrap();
}
