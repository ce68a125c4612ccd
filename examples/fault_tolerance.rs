//! Fault-tolerant serving end-to-end: a gang member dies mid-training
//! and the query still returns a bit-identical model.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```
//!
//! A linear-regression table is trained through the SQL front door of a
//! running [`dana_server::DanaServer`], twice: once undisturbed, once
//! with a deterministic [`dana_engine::FaultPlan`] that kills gang
//! member 1 at epoch 2. The one fault policy — the same for a serial
//! statement, a gang of one — re-runs the member's epoch from the
//! epoch-start global model after a backoff, and the deterministic merge
//! reproduces the clean model **bit for bit** (asserted). The faulted
//! member's instance walks the health machine (healthy → suspect; a
//! second strike would quarantine it), and the run closes with the
//! `SHOW STATS('faults')` table plus a deadline + panic-isolation
//! vignette. `DANA_SMOKE=1` shrinks the table for CI.

use std::sync::Arc;
use std::time::Duration;

use dana::prelude::*;
use dana_engine::FaultPlan;
use dana_server::{DanaServer, Health, QueryRequest, ServerConfig, SystemCoreConfig};
use dana_storage::page::TupleDirection;
use dana_storage::{BufferPoolConfig, HeapFileBuilder, Schema};

const PAGE: usize = 32 * 1024;

fn linreg_heap(n: usize, d: usize) -> HeapFile {
    let truth: Vec<f32> = (0..d).map(|i| 0.3 * i as f32 - 0.5).collect();
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let x: Vec<f32> = (0..d)
            .map(|i| (((k * 7 + i * 3) % 11) as f32 - 5.0) / 5.0)
            .collect();
        let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        b.insert(&Tuple::training(&x, y)).unwrap();
    }
    b.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let (n, d) = if smoke { (30_000, 12) } else { (120_000, 12) };
    let spec = dana_dsl::zoo::linear_regression(dana_dsl::zoo::DenseParams {
        n_features: d,
        learning_rate: 0.2,
        merge_coef: 8,
        epochs: if smoke { 6 } else { 10 },
    })?;

    let srv = DanaServer::start(ServerConfig {
        accelerators: 4,
        workers: 2,
        admission: Default::default(),
        default_timeout_ms: None,
        core: SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig {
                pool_bytes: 256 << 20,
                page_size: PAGE,
            },
            pool_shards: 4,
            disk: DiskModel::ssd(),
        },
    });
    srv.create_table("t", linreg_heap(n, d))?;
    srv.prewarm("t")?;
    srv.deploy(&spec, "t")?;
    let session = srv.open_session("fault-demo");
    let sql = "SELECT * FROM dana.linearR('t') WITH (shards = 3);";

    // ---- 1. the undisturbed gang run -----------------------------------
    let clean = srv.call(session, QueryRequest::Sql(sql.into()))?;
    let clean_report = clean.response.report()?.clone();
    println!(
        "clean run:    gang {:?}, model[0][..4] = {:?}",
        clean.gang,
        &clean_report.models[0][..4]
    );

    // ---- 2. kill gang member 1 at epoch 2 ------------------------------
    srv.install_fault_plan(Some(Arc::new(FaultPlan::shard_fault(1, 2))));
    let degraded = srv.call(session, QueryRequest::Sql(sql.into()))?;
    let degraded_report = degraded.response.report()?.clone();
    srv.install_fault_plan(None);
    assert_eq!(
        degraded_report.models, clean_report.models,
        "degraded merge must be bit-identical"
    );
    assert_eq!(degraded_report.engine.cycles, clean_report.engine.cycles);
    println!(
        "faulted run:  gang {:?}, member 1 died at epoch 2 — its epoch re-run after backoff",
        degraded.gang
    );
    println!(
        "              model[0][..4] = {:?}  (bit-identical: {})",
        &degraded_report.models[0][..4],
        degraded_report.models == clean_report.models
    );

    // ---- 3. the health machine ----------------------------------------
    let health = srv.pool_health();
    let suspect = health
        .states
        .iter()
        .position(|h| *h != Health::Healthy)
        .expect("the faulted instance was reported");
    println!(
        "pool health:  {:?} — instance {} took the blame ({} fault reported)",
        health.states, suspect, health.faults_reported
    );

    // ---- 4. a query deadline fires while the lease stalls --------------
    srv.install_fault_plan(Some(Arc::new(FaultPlan::lease_stall(
        Duration::from_millis(30),
    ))));
    let err = srv
        .call(
            session,
            QueryRequest::Sql("SELECT * FROM dana.linearR('t') WITH (timeout_ms = 2);".into()),
        )
        .expect_err("the 2 ms deadline must expire during the 30 ms stall");
    println!("deadline:     {err}");
    assert!(err.is_deadline_exceeded());
    assert_eq!(srv.core().held_frames(), 0, "frames released on timeout");

    // ---- 5. panic isolation: the worker survives -----------------------
    srv.install_fault_plan(Some(Arc::new(FaultPlan::panic_at_epoch(0))));
    // The injected panic is caught by the worker; silence the default
    // hook so the demo log shows the typed reply, not a backtrace.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = srv
        .call(session, QueryRequest::Sql(sql.into()))
        .expect_err("the injected panic must surface as a typed reply");
    std::panic::set_hook(hook);
    println!("panic:        {err}");
    srv.install_fault_plan(None);
    srv.call(session, QueryRequest::Sql(sql.into()))?
        .response
        .report()?;
    println!("              …and the same workers serve the next query.");

    // ---- 6. the fault ledger -------------------------------------------
    println!("\nSHOW STATS('faults'):");
    print!("{}", srv.stats_snapshot(Some("faults")).render_table());
    Ok(())
}
