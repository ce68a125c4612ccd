//! Concurrent serving demo: N clients training different model-zoo
//! entries at once against one `DanaServer`.
//!
//! Each client opens a session, deploys its own UDF over its own table
//! (linear regression, logistic regression, SVM, ...), and fires a burst
//! of training queries. The server admits them, schedules them over a
//! 4-instance accelerator pool, and the demo prints per-session latency
//! plus the pool's simulated utilization.
//!
//! Run with `cargo run --release --example concurrent_server`;
//! `DANA_SMOKE=1` shrinks the burst for CI.

use std::time::Instant;

use dana::prelude::*;
use dana_server::{DanaServer, QueryRequest, ServerConfig, SystemCoreConfig};
use dana_storage::BufferPoolConfig;
use dana_workloads::{generate, workload};

fn main() {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let queries_per_client: usize = if smoke { 1 } else { 4 };

    // Four clients, four different model-zoo entries.
    let zoo: Vec<(&str, &str, f64)> = vec![
        ("alice", "Patient", 0.02),             // linear regression
        ("bob", "Remote Sensing LR", 0.004),    // logistic regression
        ("carol", "Remote Sensing SVM", 0.004), // SVM
        ("dave", "Blog Feedback", 0.004),       // linear regression, wide
    ];

    let srv = DanaServer::start(ServerConfig {
        accelerators: 4,
        workers: 4,
        admission: Default::default(),
        default_timeout_ms: None,
        core: SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig {
                pool_bytes: 256 << 20,
                page_size: 32 * 1024,
            },
            pool_shards: 8,
            disk: DiskModel::ssd(),
        },
    });

    // DDL: every client's table + accelerator, deployed up front.
    let mut specs = Vec::new();
    for (client, wname, scale) in &zoo {
        let mut w = workload(wname).unwrap().scaled(*scale);
        w.epochs = 2;
        w.merge_coef = 8;
        let table = generate(&w, 32 * 1024, 99).unwrap();
        let tname = format!("{client}_table");
        srv.create_table(&tname, table.heap).unwrap();
        srv.prewarm(&tname).unwrap();
        let mut spec = w.spec();
        spec.name = format!("{client}_udf");
        let info = srv.deploy(&spec, &tname).unwrap();
        println!(
            "deployed {:<12} over {:<18} ({} threads, {} Striders)",
            spec.name, wname, info.num_threads, info.num_striders
        );
        specs.push((client.to_string(), tname, spec.name.clone()));
    }

    // Clients: concurrent bursts of SQL queries.
    println!(
        "\n{queries_per_client} quer{} per client, 4 clients, pool of 4 ...",
        if queries_per_client == 1 { "y" } else { "ies" }
    );
    let wall = Instant::now();
    crossbeam::thread::scope(|s| {
        let srv = &srv;
        for (client, _table, udf) in &specs {
            let sql = format!("SELECT * FROM dana.{udf}('{client}_table');");
            s.spawn(move |_| {
                let session = srv.open_session(client);
                for _ in 0..queries_per_client {
                    let reply = srv.call(session, QueryRequest::Sql(sql.clone())).unwrap();
                    assert!(!reply.response.report().unwrap().models.is_empty());
                }
            });
        }
    })
    .unwrap();
    let wall_s = wall.elapsed().as_secs_f64();

    // Per-session accounting, by name: session ids follow the order the
    // client threads happened to open them.
    println!("\nsession      queries   sim accel time   host exec time   max query");
    let mut sessions = srv.all_session_stats();
    sessions.sort_by(|(_, a), (_, b)| a.name.cmp(&b.name));
    for (_, stats) in sessions {
        println!(
            "{:<12} {:>7}   {:>11.4}s   {:>11.4}s   {:>8.4}s",
            stats.name,
            stats.completed,
            stats.sim_seconds,
            stats.wall_seconds,
            stats.max_wall_seconds
        );
    }

    let queue = srv.queue_stats();
    let util = srv.shutdown();
    println!(
        "\nadmitted {} / rejected {} queries; host wall {:.2}s",
        queue.admitted, queue.rejected, wall_s
    );
    println!(
        "pool: {} instances, makespan {:.3}s (serial would be {:.3}s), {:.2}x speedup, {:.1}% utilization",
        util.instances(),
        util.makespan_seconds(),
        util.serial_seconds(),
        util.speedup_vs_serial(),
        util.utilization() * 100.0
    );
    for (i, (busy, leases)) in util.busy_seconds.iter().zip(&util.leases).enumerate() {
        println!("  accelerator {i}: {leases} queries, {busy:.3}s simulated busy");
    }
}
