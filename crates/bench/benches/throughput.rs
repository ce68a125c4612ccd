//! Multi-session throughput: queries/sec vs accelerator-pool size.
//!
//! The serving-tier acceptance benchmark. A batch of identical training
//! queries over the 5810×54 Remote Sensing LR workload is pushed through
//! (a) serial back-to-back execution on an embedded `Dana` and
//! (b) `DanaServer` with accelerator pools of increasing size. Timing is
//! the *simulated* accelerator schedule (the same `DanaTiming` model every
//! figure uses): serial cost is the sum of per-query runtimes; the pool's
//! cost is the greedy list-scheduling makespan its lease scheduler
//! computes. Host wall-clock is printed alongside for reference.
//!
//! Acceptance: a pool of 4 must sustain ≥ 3× the serial queries/sec.
//!
//! Smoke mode (`DANA_SMOKE=1`): fewer queries and pool sizes, so CI can
//! exercise the full concurrent path on every push.

use std::time::Instant;

use dana::prelude::*;
use dana_server::{DanaServer, QueryRequest, ServerConfig, SystemCoreConfig};
use dana_storage::BufferPoolConfig;
use dana_workloads::{generate, workload};

fn main() {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let queries: usize = if smoke { 8 } else { 16 };
    let pool_sizes: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };

    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.01); // 5810 × 54
    w.epochs = 1;
    w.merge_coef = 8;
    let spec = w.spec();
    let pool_cfg = BufferPoolConfig {
        pool_bytes: 256 << 20,
        page_size: 32 * 1024,
    };

    println!(
        "=== Multi-session throughput: {queries} queries over 5810×54 (Remote Sensing LR) ==="
    );

    // ---- serial baseline: one Dana, back-to-back ------------------------
    let db = Dana::new(FpgaSpec::vu9p(), pool_cfg, DiskModel::ssd());
    db.create_table("rs", generate(&w, 32 * 1024, 17).unwrap().heap)
        .unwrap();
    db.prewarm("rs").unwrap();
    db.deploy(&spec, "rs").unwrap();
    let wall = Instant::now();
    let mut serial_sim = 0.0;
    for _ in 0..queries {
        serial_sim += db.run_udf("logisticR", "rs").unwrap().timing.total_seconds;
    }
    let serial_wall = wall.elapsed().as_secs_f64();
    let serial_qps = queries as f64 / serial_sim;
    println!(
        "serial (1×Dana)     sim {serial_sim:>8.3}s  {serial_qps:>7.2} q/s  (host wall {serial_wall:.2}s)"
    );

    // ---- server sweeps --------------------------------------------------
    let mut pool4_speedup = None;
    for &n in pool_sizes {
        let srv = DanaServer::start(ServerConfig {
            accelerators: n,
            workers: n,
            admission: Default::default(),
            default_timeout_ms: None,
            core: SystemCoreConfig {
                fpga: FpgaSpec::vu9p(),
                pool: pool_cfg,
                pool_shards: 8,
                disk: DiskModel::ssd(),
            },
        });
        srv.create_table("rs", generate(&w, 32 * 1024, 17).unwrap().heap)
            .unwrap();
        srv.prewarm("rs").unwrap();
        srv.deploy(&spec, "rs").unwrap();

        let session = srv.open_session("bench");
        let wall = Instant::now();
        let tickets: Vec<_> = (0..queries)
            .map(|_| {
                srv.submit(
                    session,
                    QueryRequest::RunUdf {
                        udf: "logisticR".into(),
                        table: "rs".into(),
                        shards: None,
                    },
                )
                .unwrap()
            })
            .collect();
        for t in tickets {
            srv.wait(t).unwrap();
        }
        let wall_s = wall.elapsed().as_secs_f64();
        let util = srv.shutdown();
        let makespan = util.makespan_seconds();
        let qps = queries as f64 / makespan;
        let speedup = serial_sim / makespan;
        if n == 4 {
            pool4_speedup = Some(speedup);
        }
        println!(
            "pool of {n:<2}          sim {makespan:>8.3}s  {qps:>7.2} q/s  {speedup:>5.2}x serial  \
             util {:>5.1}%  (host wall {wall_s:.2}s)",
            util.utilization() * 100.0
        );
    }

    if let Some(s) = pool4_speedup {
        println!(
            "\nacceptance: pool of 4 sustains >= 3x serial queries/sec: {} ({s:.2}x)",
            if s >= 3.0 { "PASS" } else { "FAIL" }
        );
        assert!(s >= 3.0, "pool of 4 must sustain >= 3x serial throughput");
    }
}
