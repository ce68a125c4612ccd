//! Query-lifecycle trace determinism and accounting acceptance suite.
//!
//! The tracing contract, held across the four zoo analytics:
//!
//! * the trace *shape* — stage names, nesting, and per-stage counts — is
//!   a pure function of the statement: an embedded core and a served
//!   `DanaServer` emit structurally identical traces, and the
//!   shape does not change with the gang width (1, 2, 4 shards). Only
//!   the recorded times may differ;
//! * every executed statement — EXECUTE, PREDICT INTO, EVALUATE, point
//!   PREDICT — has the same stages on both tiers, pinned literally;
//! * `EXPLAIN ANALYZE` stage accounting is exact: the per-stage
//!   simulated times partition the query's own end-to-end total, and the
//!   engine stage's epoch children partition the stage, embedded and
//!   served;
//! * `WITH (trace = on)` attaches the same-shaped trace to an ordinary
//!   reply instead of replacing the result surface;
//! * `SHOW STATS` gauges agree exactly with the values the pool and
//!   queue report through their typed APIs.

use std::sync::Arc;

use dana::prelude::*;
use dana::{QueryTrace, SystemCore};
use dana_engine::FaultPlan;
use dana_parallel::{train_gang, ReplaySource, ShardPlan};
use dana_server::{
    AdmissionConfig, DanaServer, QueryRequest, QueryResponse, SchedPolicy, ServerConfig,
};
use dana_storage::TupleBatch;

mod common;
use common::{core, core_config, zoo_heap, zoo_spec, PAGE, ZOO};

fn fresh_server(accelerators: usize) -> DanaServer {
    DanaServer::start(ServerConfig {
        accelerators,
        workers: accelerators,
        admission: AdmissionConfig {
            max_queued: 256,
            policy: SchedPolicy::Fifo,
        },
        default_timeout_ms: None,
        core: core_config(PAGE),
    })
}

/// `EXPLAIN ANALYZE` through the embedded front door, returning the report.
fn serial_analyze(db: &SystemCore, sql: &str) -> dana::AnalyzeReport {
    match db.execute_statement(sql).unwrap() {
        QueryResponse::Analyzed(a) => *a,
        other => panic!("expected analyze outcome, got {other:?}"),
    }
}

/// `EXPLAIN ANALYZE` through the server, returning the report.
fn server_analyze(
    srv: &DanaServer,
    session: dana_server::SessionId,
    sql: &str,
) -> dana::AnalyzeReport {
    let reply = srv
        .call(session, QueryRequest::Sql(sql.to_string()))
        .unwrap();
    match reply.response {
        QueryResponse::Analyzed(a) => *a,
        other => panic!("expected analyzed response, got {other:?}"),
    }
}

/// The trace's *shape* must be a pure function of the statement: same
/// stages, same nesting, same counts embedded (one-shard pool, caller's
/// thread) and served (eight-shard pool, worker threads), at every gang width — for all four zoo analytics.
#[test]
fn trace_shape_is_facade_and_shard_invariant() {
    for algo in ZOO {
        let spec = zoo_spec(algo, 3);
        let udf = spec.name.clone();

        let mut shapes: Vec<(String, String)> = Vec::new();
        for shards in [1u16, 2, 4] {
            let sql = format!(
                "EXPLAIN ANALYZE EXECUTE dana.{udf}('t') WITH (backend = fpga, shards = {shards});"
            );

            let db = core(PAGE);
            db.create_table("t", zoo_heap(algo, 900)).unwrap();
            db.deploy(&spec, "t").unwrap();
            let serial = serial_analyze(&db, &sql);
            shapes.push((format!("serial/x{shards}"), serial.trace.structure()));

            let srv = fresh_server(4);
            srv.create_table("t", zoo_heap(algo, 900)).unwrap();
            srv.deploy(&spec, "t").unwrap();
            let session = srv.open_session("tracer");
            let server = server_analyze(&srv, session, &sql);
            shapes.push((format!("server/x{shards}"), server.trace.structure()));
            srv.shutdown();
        }

        let (first_label, first) = &shapes[0];
        for (label, shape) in &shapes[1..] {
            assert_eq!(
                shape, first,
                "{algo:?}: trace shape diverged between {first_label} and {label}"
            );
        }
        // The shape includes the full lifecycle, front door to reply.
        for stage in [
            "parse",
            "admission_wait",
            "lease",
            "scan",
            "engine",
            "merge",
            "reply",
        ] {
            assert!(
                first.contains(stage),
                "{algo:?}: stage '{stage}' missing from shape:\n{first}"
            );
        }
    }
}

/// Stage accounting is exact: simulated per-stage times partition the
/// query's own end-to-end simulated total, and the engine stage's epoch
/// children partition the stage — to rounding, embedded and served,
/// serial and ganged.
#[test]
fn explain_analyze_stage_sums_match_end_to_end_report() {
    let spec = zoo_spec(Algorithm::Linear, 3);
    let check = |label: &str, report: &dana::AnalyzeReport| {
        let total = report
            .outcome
            .timing()
            .map(|t| t.total_seconds)
            .expect("train outcome has timing");
        let sum = report.trace.stage_sim_sum();
        assert!(total > 0.0, "{label}: degenerate total");
        assert!(
            (sum - total).abs() <= 1e-12 * total,
            "{label}: stage sum {sum:e}s vs end-to-end {total:e}s"
        );
        assert_eq!(report.trace.total_sim_seconds, total, "{label}");
        let engine = report.trace.stage("engine").unwrap();
        let epochs: f64 = engine.children.iter().map(|c| c.sim_seconds).sum();
        assert_eq!(engine.children.len() as u64, engine.count, "{label}");
        assert!(
            (epochs - engine.sim_seconds).abs() <= 1e-12 * engine.sim_seconds,
            "{label}: epoch sum {epochs:e}s vs engine stage {:e}s",
            engine.sim_seconds
        );
    };

    for shards in [1u16, 4] {
        let sql = format!(
            "EXPLAIN ANALYZE EXECUTE dana.linearR('t') WITH (backend = fpga, shards = {shards});"
        );
        let db = core(PAGE);
        db.create_table("t", zoo_heap(Algorithm::Linear, 900))
            .unwrap();
        db.deploy(&spec, "t").unwrap();
        check(&format!("serial/x{shards}"), &serial_analyze(&db, &sql));

        let srv = fresh_server(4);
        srv.create_table("t", zoo_heap(Algorithm::Linear, 900))
            .unwrap();
        srv.deploy(&spec, "t").unwrap();
        let session = srv.open_session("analyzer");
        check(
            &format!("server/x{shards}"),
            &server_analyze(&srv, session, &sql),
        );
        srv.shutdown();
    }
}

/// The stages an EXECUTE on the FPGA tier runs through (3 epochs).
const FPGA_EXECUTE: &str = "query
  parse x1
  admission_wait x1
  lease x1
  scan x1
  engine x3
    epoch x1
    epoch x1
    epoch x1
  merge x1
  reply x1
";

/// An EXECUTE on the CPU tier: its stopwatch is one engine span.
const CPU_EXECUTE: &str = "query
  parse x1
  admission_wait x1
  lease x1
  scan x1
  engine x1
  merge x1
  reply x1
";

/// An EXECUTE that recovered from one transient fault, on the FPGA tier.
const FPGA_RETRIED: &str = "query
  parse x1
  admission_wait x1
  lease x1
  fault_retry x1
  scan x1
  engine x3
    epoch x1
    epoch x1
    epoch x1
  merge x1
  reply x1
";

/// The same recovery on the CPU tier.
const CPU_RETRIED: &str = "query
  parse x1
  admission_wait x1
  lease x1
  fault_retry x1
  scan x1
  engine x1
  merge x1
  reply x1
";

/// PREDICT … INTO, either tier: scoring plus the table write.
const PREDICT_INTO: &str = "query
  parse x1
  admission_wait x1
  lease x1
  scan x1
  engine x1
  merge x1
  materialize x1
  reply x1
";

/// EVALUATE and point PREDICT, either tier: one scoring pass.
const SCORE: &str = CPU_EXECUTE;

/// Every executed statement's trace shape, pinned literally on both
/// tiers: EXECUTE (plain, fault-retried, `WHERE`-filtered, a two-member
/// gang, `trace = on`), PREDICT INTO, EVALUATE and point PREDICT. A
/// point PREDICT has the same stages as a scan's scoring pass whichever
/// tier `backend = auto` would pick.
#[test]
fn every_statement_has_one_trace_shape_on_both_tiers() {
    let spec = zoo_spec(Algorithm::Linear, 3);
    let db = core(PAGE);
    db.create_table("t", zoo_heap(Algorithm::Linear, 900))
        .unwrap();
    db.deploy(&spec, "t").unwrap();
    let row: Vec<String> = (0..10).map(|i| format!("0.{i}")).collect();
    let row = row.join(", ");

    let mut wrong = Vec::new();
    let mut expect = |sql: String, trace: QueryTrace, want: &str| {
        if trace.structure() != want {
            wrong.push(format!("{sql}\n{}", trace.structure()));
        }
    };
    let analyze = |sql: &str| serial_analyze(&db, sql).trace;
    for (backend, execute, retried) in [
        ("fpga", FPGA_EXECUTE, FPGA_RETRIED),
        ("cpu", CPU_EXECUTE, CPU_RETRIED),
    ] {
        let mut cases = vec![
            (
                format!("EXECUTE dana.linearR('t') WITH (backend = {backend})"),
                execute,
            ),
            (
                format!("EXECUTE dana.linearR('t') WHERE x0 < 0.5 WITH (backend = {backend})"),
                execute,
            ),
            (
                format!("PREDICT dana.linearR('t') INTO 'p_{backend}' WITH (backend = {backend})"),
                PREDICT_INTO,
            ),
            (
                format!("EVALUATE dana.linearR('t') WITH (backend = {backend})"),
                SCORE,
            ),
            (
                format!("EVALUATE dana.linearR('t') WHERE x0 < 0.5 WITH (backend = {backend})"),
                SCORE,
            ),
            (
                format!("PREDICT dana.linearR(VALUES ({row}), ({row})) WITH (backend = {backend})"),
                SCORE,
            ),
        ];
        if backend == "fpga" {
            cases.push((
                "EXECUTE dana.linearR('t') WITH (backend = fpga, shards = 2)".to_string(),
                execute,
            ));
        }
        for (call, want) in cases {
            let sql = format!("EXPLAIN ANALYZE {call};");
            expect(sql.clone(), analyze(&sql), want);
        }

        db.install_fault_plan(Some(Arc::new(FaultPlan::transient_at_epoch(1, 1))));
        let sql = format!("EXPLAIN ANALYZE EXECUTE dana.linearR('t') WITH (backend = {backend});");
        expect(sql.clone(), analyze(&sql), retried);
        db.install_fault_plan(None);

        let sql = format!("EXECUTE dana.linearR('t') WITH (backend = {backend}, trace = on);");
        let (_, trace) = db.execute_statement_traced(&sql).unwrap();
        expect(sql, trace.expect("trace = on attaches a trace"), execute);
    }
    assert!(
        wrong.is_empty(),
        "shapes that differ:\n{}",
        wrong.join("\n")
    );
}

/// A gang's `EXPLAIN ANALYZE` epoch children follow its epoch log — the
/// per-epoch cycles of its critical member — as a serial run's follow its
/// own: each child is the engine stage's share in the log's proportion.
#[test]
fn gang_epoch_children_follow_its_epoch_log() {
    let spec = zoo_spec(Algorithm::Linear, 3);
    let db = core(PAGE);
    db.create_table("t", zoo_heap(Algorithm::Linear, 900))
        .unwrap();
    db.deploy(&spec, "t").unwrap();
    let report = serial_analyze(
        &db,
        "EXPLAIN ANALYZE EXECUTE dana.linearR('t') WITH (backend = fpga, shards = 2);",
    );
    assert_eq!(report.outcome.report().unwrap().shards, 2);

    // The same gang replayed: one member per page range of the table.
    let heap = db.table_snapshot("t").unwrap();
    let rows = heap.scan_batch().unwrap();
    let width = rows.width();
    let mut taken = 0;
    let mut members: Vec<ReplaySource> = ShardPlan::new(&heap, 2)
        .tuple_counts()
        .into_iter()
        .map(|n| {
            let batch = TupleBatch::from_rows(width, rows.rows().skip(taken).take(n as usize));
            taken += n as usize;
            ReplaySource::new(width, vec![batch])
        })
        .collect();
    let engine = &db.accelerator_runtime("linearR").unwrap().engine;
    let init = dana::exec::initial_models(engine.design());
    let log = train_gang(engine, &mut members, init).unwrap().epoch_cycles;

    let stage = report.trace.stage("engine").unwrap();
    let logged: u64 = log.iter().sum();
    let children: Vec<f64> = stage.children.iter().map(|c| c.sim_seconds).collect();
    let expected: Vec<f64> = log
        .iter()
        .map(|&c| stage.sim_seconds * c as f64 / logged as f64)
        .collect();
    assert_eq!(log.len(), 3);
    assert_eq!(children, expected);
}

/// `WITH (trace = on)` rides the trace on an ordinary reply — same
/// shape as `EXPLAIN ANALYZE`, with the normal result still present.
#[test]
fn opt_in_trace_matches_explain_analyze_shape() {
    let spec = zoo_spec(Algorithm::Logistic, 3);

    // Embedded.
    let db = core(PAGE);
    db.create_table("t", zoo_heap(Algorithm::Logistic, 900))
        .unwrap();
    db.deploy(&spec, "t").unwrap();
    let analyzed = serial_analyze(
        &db,
        "EXPLAIN ANALYZE EXECUTE dana.logisticR('t') WITH (backend = fpga);",
    );
    let (outcome, trace) = db
        .execute_statement_traced("EXECUTE dana.logisticR('t') WITH (backend = fpga, trace = on);")
        .unwrap();
    let trace: QueryTrace = trace.expect("trace = on must attach a trace");
    assert!(matches!(outcome, QueryResponse::Trained(_)));
    assert_eq!(trace.structure(), analyzed.trace.structure());
    // Without the opt-in, no trace is paid for.
    let (_, no_trace) = db
        .execute_statement_traced("EXECUTE dana.logisticR('t') WITH (backend = fpga);")
        .unwrap();
    assert!(no_trace.is_none());

    // Served: the reply carries the trace beside the result.
    let srv = fresh_server(2);
    srv.create_table("t", zoo_heap(Algorithm::Logistic, 900))
        .unwrap();
    srv.deploy(&spec, "t").unwrap();
    let session = srv.open_session("opt-in");
    let reply = srv
        .call(
            session,
            QueryRequest::Sql(
                "EXECUTE dana.logisticR('t') WITH (backend = fpga, trace = on);".into(),
            ),
        )
        .unwrap();
    assert!(!reply.response.report().unwrap().models.is_empty());
    let server_trace = reply.trace.as_ref().expect("server reply must carry trace");
    assert_eq!(server_trace.structure(), analyzed.trace.structure());
    let plain = srv
        .call(
            session,
            QueryRequest::Sql("EXECUTE dana.logisticR('t') WITH (backend = fpga);".into()),
        )
        .unwrap();
    assert!(plain.trace.is_none());
    srv.shutdown();
}

/// `SHOW STATS` pool and queue gauges must equal — not approximate —
/// the values the typed `pool_utilization()` / `queue_stats()` APIs
/// report for the same scenario.
#[test]
fn show_stats_gauges_match_typed_pool_and_queue_apis() {
    let spec = zoo_spec(Algorithm::Linear, 3);
    let srv = fresh_server(2);
    srv.create_table("t", zoo_heap(Algorithm::Linear, 900))
        .unwrap();
    srv.deploy(&spec, "t").unwrap();
    let session = srv.open_session("gauges");

    for shards in [1u16, 2, 1] {
        let reply = srv
            .call(
                session,
                QueryRequest::Sql(format!(
                    "EXECUTE dana.linearR('t') WITH (backend = fpga, shards = {shards});"
                )),
            )
            .unwrap();
        assert!(reply.response.sim_seconds() > 0.0);
    }

    let snap = match srv
        .call(session, QueryRequest::Sql("SHOW STATS;".into()))
        .unwrap()
        .response
    {
        QueryResponse::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    };

    // Pool gauges: exact equality with the typed utilization snapshot.
    let u = srv.pool_utilization();
    assert_eq!(snap.get("pool", "instances"), Some(u.instances() as f64));
    assert_eq!(snap.get("pool", "utilization"), Some(u.utilization()));
    assert_eq!(
        snap.get("pool", "busy_seconds_total"),
        Some(u.serial_seconds())
    );
    for i in 0..u.instances() {
        assert_eq!(
            snap.get("pool", &format!("busy_seconds_{i}")),
            Some(u.busy_seconds[i]),
            "instance {i} busy gauge"
        );
        assert_eq!(
            snap.get("pool", &format!("idle_seconds_{i}")),
            Some(u.idle_seconds[i]),
            "instance {i} idle gauge"
        );
        assert_eq!(
            snap.get("pool", &format!("leases_{i}")),
            Some(u.leases[i] as f64),
            "instance {i} lease gauge"
        );
    }
    // The gang run leased both instances; the singles leased one each.
    assert_eq!(u.leases.iter().sum::<u64>(), 4, "3 queries, one ganged");
    assert!(u.serial_seconds() > 0.0);

    // Queue gauges: the 3 training queries + SHOW STATS itself.
    let q = srv.queue_stats();
    assert_eq!(q.admitted, 4);
    assert_eq!(q.rejected, 0);
    assert_eq!(q.depth, 0);
    assert_eq!(snap.get("admission", "admitted"), Some(q.admitted as f64));
    assert_eq!(snap.get("admission", "rejected"), Some(q.rejected as f64));
    assert_eq!(snap.get("admission", "depth"), Some(q.depth as f64));

    // Engine counters saw exactly the completed queries so far.
    assert_eq!(snap.get("engine", "queries_completed"), Some(3.0));
    assert_eq!(snap.get("engine", "fpga_queries"), Some(3.0));

    // Session rows come from the same manager the typed API reads.
    let stats = srv.session_stats(session).unwrap();
    assert_eq!(
        snap.get("sessions", "submitted"),
        Some(stats.submitted as f64)
    );
    assert_eq!(snap.get("sessions", "open"), Some(1.0));

    // Subsystem filtering narrows to one subsystem's rows.
    let pool_only = match srv
        .call(session, QueryRequest::Sql("SHOW STATS('pool');".into()))
        .unwrap()
        .response
    {
        QueryResponse::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(!pool_only.entries.is_empty());
    assert!(pool_only.entries.iter().all(|e| e.subsystem == "pool"));
    srv.shutdown();
}
