//! Observability demo: watch a concurrent serving run through the
//! `SHOW STATS` and `EXPLAIN ANALYZE` surfaces.
//!
//! Four clients train different model-zoo entries at once against one
//! `DanaServer` — one of them opting into `WITH (trace = on)` so its
//! reply carries the query-lifecycle trace. Afterwards the demo prints:
//!
//! * `SHOW STATS` — the server-wide metrics snapshot (admission queue,
//!   accelerator pool busy/idle clocks, buffer pool, engine counters,
//!   sessions), rendered as the result table a client would see;
//! * `EXPLAIN ANALYZE` — one query executed and traced, its span tree
//!   rendered beside the backend-advisor comparison.
//!
//! Run with `cargo run --release --example observability`;
//! `DANA_SMOKE=1` shrinks the burst for CI.

use dana::prelude::*;
use dana_server::{DanaServer, QueryRequest, QueryResponse, ServerConfig, SystemCoreConfig};
use dana_storage::BufferPoolConfig;
use dana_workloads::{generate, workload};

fn main() {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let queries_per_client: usize = if smoke { 1 } else { 3 };

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

    for (client, wname, scale) in &zoo {
        let mut w = workload(wname).unwrap().scaled(*scale);
        w.epochs = 2;
        w.merge_coef = 8;
        let table = generate(&w, 32 * 1024, 7).unwrap();
        let tname = format!("{client}_table");
        srv.create_table(&tname, table.heap).unwrap();
        srv.prewarm(&tname).unwrap();
        let mut spec = w.spec();
        spec.name = format!("{client}_udf");
        srv.deploy(&spec, &tname).unwrap();
    }

    // Concurrent burst: every client fires its queries from its own
    // thread; alice opts into a lifecycle trace on her replies.
    std::thread::scope(|scope| {
        for (client, _, _) in &zoo {
            let srv = &srv;
            scope.spawn(move || {
                let session = srv.open_session(client);
                let opts = if *client == "alice" {
                    " WITH (trace = on)"
                } else {
                    ""
                };
                for _ in 0..queries_per_client {
                    let reply = srv
                        .call(
                            session,
                            QueryRequest::Sql(format!(
                                "EXECUTE dana.{client}_udf('{client}_table'){opts};"
                            )),
                        )
                        .unwrap();
                    if let Some(trace) = &reply.trace {
                        println!(
                            "[{client}] traced reply: {} stages, sim {:.4}s",
                            trace.stages.len(),
                            trace.total_sim_seconds
                        );
                    }
                }
                let stats = srv.close_session(session).unwrap();
                println!(
                    "[{client}] {} queries, sim {:.4}s, wall {:.1}ms",
                    stats.completed,
                    stats.sim_seconds,
                    stats.wall_seconds * 1e3
                );
            });
        }
    });

    // The server-wide snapshot, exactly as a SQL client would see it.
    let session = srv.open_session("observer");
    let reply = srv
        .call(session, QueryRequest::Sql("SHOW STATS;".into()))
        .unwrap();
    let QueryResponse::Stats(snap) = &reply.response else {
        panic!("expected stats response");
    };
    println!("\nSHOW STATS;\n{}", snap.render_table());

    // One query re-run traced: the full lifecycle tree
    // plus the backend advisor's take on the same statement.
    let reply = srv
        .call(
            session,
            QueryRequest::Sql(
                "EXPLAIN ANALYZE EXECUTE dana.alice_udf('alice_table') WITH (shards = 2);".into(),
            ),
        )
        .unwrap();
    let QueryResponse::Analyzed(report) = &reply.response else {
        panic!("expected analyzed response");
    };
    println!("EXPLAIN ANALYZE EXECUTE dana.alice_udf('alice_table') WITH (shards = 2);");
    println!("{}", report.trace.render());
    if let Some(cmp) = &report.comparison {
        println!("{cmp}");
    }

    srv.close_session(session).unwrap();
    let util = srv.shutdown();
    println!(
        "pool: {} instances, busy {:.4}s, utilization {:.0}%",
        util.instances(),
        util.serial_seconds(),
        util.utilization() * 100.0
    );
}
