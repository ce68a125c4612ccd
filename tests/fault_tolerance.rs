//! Fault-tolerance acceptance suite for the serving tier: deterministic
//! accelerator fault injection ([`dana_engine::FaultPlan`]) rehearsed
//! against a live [`DanaServer`], asserting
//!
//! * one fault policy at every gang size, a serial statement being a gang
//!   of one: a faulted member re-runs its epoch from the epoch-start
//!   model after a bounded backoff, the recovered run is
//!   **bit-identical** to the no-fault run, exhausted retries are a typed
//!   fault naming the member, and every faulted member's instance is
//!   reported to the health machine;
//! * a timed-out query surfaces the typed deadline error and releases
//!   its lease and every buffer-pool frame;
//! * a panicking dispatch returns the typed `QueryPanicked` reply while
//!   the same worker keeps serving.

use std::sync::Arc;
use std::time::Duration;

use dana::prelude::*;
use dana::{parse_statement, FrontDoorWalls, ParallelError, SystemCore, Work};
use dana_dsl::zoo::{linear_regression, DenseParams};
use dana_engine::{EngineError, FaultPlan};
use dana_server::{
    AdmissionConfig, DanaServer, Health, QueryReply, QueryRequest, ServerConfig, ServerError,
};
use dana_storage::page::TupleDirection;
use dana_storage::{HeapFile, HeapFileBuilder, Schema, Tuple};

mod common;
use common::{core, core_config, execute, PAGE};

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

fn spec(d: usize) -> dana_dsl::AlgoSpec {
    linear_regression(DenseParams {
        n_features: d,
        learning_rate: 0.2,
        merge_coef: 8,
        epochs: 12,
    })
    .unwrap()
}

fn server(accelerators: usize, workers: usize, default_timeout_ms: Option<u64>) -> DanaServer {
    DanaServer::start(ServerConfig {
        accelerators,
        workers,
        admission: AdmissionConfig { max_queued: 256 },
        default_timeout_ms,
        core: core_config(PAGE),
    })
}

/// An embedded core with `linearR` (12 epochs) deployed on table `t`.
fn deployed_core() -> SystemCore {
    let db = core(PAGE);
    db.create_table("t", linreg_heap(600, 8)).unwrap();
    db.deploy(&spec(8), "t").unwrap();
    db
}

fn trained_server(accelerators: usize, workers: usize) -> DanaServer {
    deployed_server(accelerators, workers, None)
}

fn deployed_server(
    accelerators: usize,
    workers: usize,
    default_timeout_ms: Option<u64>,
) -> DanaServer {
    let srv = server(accelerators, workers, default_timeout_ms);
    srv.create_table("t", linreg_heap(600, 8)).unwrap();
    srv.prewarm("t").unwrap();
    srv.deploy(&spec(8), "t").unwrap();
    srv
}

/// A gang run that loses member 1 at epoch 3 completes by re-running the
/// member's epoch, bit-identical to the undisturbed run; the faulted
/// member's pool instance is reported to the health machine — whether
/// the gang's backend was left to the advisor or pinned.
#[test]
fn gang_member_fault_degrades_bit_identically() {
    for sql in [
        "SELECT * FROM dana.linearR('t') WITH (shards = 3);",
        "EXECUTE dana.linearR('t') WITH (shards = 3, backend = fpga);",
    ] {
        let srv = trained_server(4, 2);
        let session = srv.open_session("gang-fault");
        let request = QueryRequest::Sql(sql.into());

        let reply = srv.call(session, request.clone()).unwrap();
        let clean = reply.response.report().unwrap().clone();
        assert_eq!(clean.shards, 3);

        srv.install_fault_plan(Some(Arc::new(FaultPlan::shard_fault(1, 3))));
        let reply = srv.call(session, request).unwrap();
        let degraded = reply.response.report().unwrap();
        srv.install_fault_plan(None);

        assert_eq!(degraded.models, clean.models, "merge must be bit-identical");
        assert_eq!(degraded.epochs_run, clean.epochs_run);
        assert_eq!(degraded.engine.cycles, clean.engine.cycles);

        // The faulted shard's instance was reported: health stepped off
        // Healthy and the counters advanced.
        let health = srv.pool_health();
        assert_eq!(health.faults_reported, 1, "{sql}");
        assert_eq!(
            health
                .states
                .iter()
                .filter(|h| **h != Health::Healthy)
                .count(),
            1,
            "exactly one instance reported: {:?}",
            health.states
        );
        let stats = srv.stats_snapshot(Some("faults"));
        assert_eq!(stats.get("faults", "gang_member_faults"), Some(1.0));
        assert_eq!(stats.get("faults", "faults_reported"), Some(1.0));
        assert_eq!(stats.get("faults", "transient_faults"), Some(1.0));
        assert_eq!(stats.get("faults", "retries"), Some(1.0));
        assert_eq!(srv.core().held_frames(), 0);
    }
}

/// Serial transient faults retry with backoff (the epoch re-run from the
/// epoch-start model) and the recovered run is bit-identical; with
/// `WITH (retries = 0)` the same fault is terminal. Both runs report
/// their instance, recovered or not.
#[test]
fn serial_transient_fault_retries_bit_identically() {
    let srv = trained_server(2, 1);
    let session = srv.open_session("retry");
    let sql = "SELECT * FROM dana.linearR('t');";

    let train = || srv.call(session, QueryRequest::Sql(sql.into())).unwrap();
    let clean = train().response.report().unwrap().clone();

    // Two injected faults at epoch 1; the default budget (3 retries)
    // absorbs both.
    srv.install_fault_plan(Some(Arc::new(FaultPlan::transient_at_epoch(1, 2))));
    let recovered = train().response.report().unwrap().clone();
    assert_eq!(
        recovered.models, clean.models,
        "the re-run epoch must be exact"
    );
    assert_eq!(recovered.epochs_run, clean.epochs_run);
    assert_eq!(recovered.engine.cycles, clean.engine.cycles);
    let stats = srv.stats_snapshot(Some("faults"));
    assert_eq!(stats.get("faults", "transient_faults"), Some(2.0));
    assert_eq!(stats.get("faults", "retries"), Some(2.0));
    // The recovered member's instance (1: instance 0 ran the clean run)
    // was reported.
    assert_eq!(
        srv.pool_health().states,
        vec![Health::Healthy, Health::Suspect]
    );

    // retries = 0 makes the next injected fault terminal and typed.
    srv.install_fault_plan(Some(Arc::new(FaultPlan::transient_at_epoch(1, 1))));
    let err = srv
        .call(
            session,
            QueryRequest::Sql("SELECT * FROM dana.linearR('t') WITH (retries = 0);".into()),
        )
        .unwrap_err();
    match &err {
        ServerError::Dana(e) => assert!(e.is_transient_fault(), "got {e}"),
        other => panic!("expected a transient-fault error, got {other}"),
    }
    srv.install_fault_plan(None);
    let health = srv.pool_health();
    assert_eq!(
        health.states,
        vec![Health::Suspect, Health::Suspect],
        "exhausted retries must report the instance"
    );
    assert_eq!(health.faults_reported, 2);
    assert_eq!(srv.core().held_frames(), 0);
}

/// One fault-history matrix instead of hand-picked policies: gangs of
/// k ∈ {1, 2, 3} members × a plan that faults every member
/// (`transient_at_epoch`) or one (`shard_fault`), at a seeded epoch and
/// budget × `retries` ∈ {0, 1, 3}. Under the one rule a run either
/// recovers bit-identically to the clean run — models, engine counters
/// (merge cycles included) and per-epoch trace — with one retry per fault
/// fired, or fails with a typed transient fault naming the first member
/// that faulted. Either way the reported members are exactly those that
/// faulted and no buffer-pool frame stays pinned.
#[test]
fn fault_history_matrix_follows_one_rule() {
    let core = deployed_core();
    let epochs = 12u32;

    // One traced EXECUTE of `shards` members under `retries`: its report
    // (or error), its engine epoch spans, the members its run logged as
    // faulted, and the retries it counted.
    let execute = |shards: u16, retries: u32| {
        let sql = format!(
            "EXECUTE linearR('t') WITH (shards = {shards}, retries = {retries}, trace = on);"
        );
        let stmt = parse_statement(&sql).unwrap();
        let (Work::Plan(plan), ctx) = core.lower(&stmt, usize::MAX).unwrap() else {
            panic!("EXECUTE lowers to a plan");
        };
        assert_eq!(plan.shards, shards, "the table has a page per member");
        let counted = core.metrics().fault_retries.get();
        let (result, log) = core.run(&plan, &FrontDoorWalls::default(), &ctx);
        let epoch_spans: Vec<f64> = match &result {
            Ok((_, Some(trace))) => trace
                .stage("engine")
                .unwrap()
                .children
                .iter()
                .map(|c| c.sim_seconds)
                .collect(),
            _ => Vec::new(),
        };
        assert_eq!(core.held_frames(), 0, "{shards} shards, retries {retries}");
        let report = result.and_then(|(response, _)| response.report().cloned());
        let counted = core.metrics().fault_retries.get() - counted;
        (report, epoch_spans, log.faults.faulted_shards, counted)
    };

    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |n: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % n
    };
    for k in 1..=3u16 {
        let (clean, clean_spans, quiet, _) = execute(k, 3);
        let clean = clean.unwrap();
        assert_eq!(clean.shards, k);
        assert!(quiet.is_empty());
        for every_member in [true, false] {
            for retries in [0u32, 1, 3] {
                let epoch = draw(epochs as u64) as u32;
                let (plan, faulted): (FaultPlan, Vec<usize>) = if every_member {
                    let budget = 1 + draw(4) as u32;
                    let hit = budget.min(k as u32) as usize;
                    (
                        FaultPlan::transient_at_epoch(epoch, budget),
                        (0..hit).collect(),
                    )
                } else {
                    let member = draw(k as u64) as usize;
                    (FaultPlan::shard_fault(member, epoch), vec![member])
                };
                let case = format!("k {k}, {plan:?}, retries {retries}");
                let plan = Arc::new(plan);
                core.install_fault_plan(Some(Arc::clone(&plan)));
                let (run, spans, reported, counted) = execute(k, retries);
                core.install_fault_plan(None);

                assert_eq!(reported, faulted, "{case}: reported members");
                let fired = plan.injected();
                // Members are retried in order, so a plan's faults beyond
                // one per member land on the first: it recovers while they
                // fit in its retries.
                let extra = fired - faulted.len() as u64;
                if retries > 0 && extra < retries as u64 {
                    let run = run.unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert_eq!(run.models, clean.models, "{case}");
                    assert_eq!(run.engine, clean.engine, "{case}");
                    assert_eq!(spans, clean_spans, "{case}: epoch spans");
                    assert_eq!(counted, fired, "{case}: one retry per fault");
                } else {
                    match run {
                        Err(DanaError::Parallel(ParallelError::Engine { shard, source })) => {
                            assert_eq!(shard, faulted[0], "{case}");
                            assert!(
                                matches!(source, EngineError::TransientFault { epoch: e } if e == epoch),
                                "{case}: {source}"
                            );
                        }
                        other => {
                            panic!("{case}: expected a member's transient fault, got {other:?}")
                        }
                    }
                }
            }
        }
    }
}

/// A query whose deadline expires mid-flight surfaces the typed
/// deadline error, releases its lease and every buffer-pool frame, and
/// the server keeps serving — for a statement's own `timeout_ms` and for
/// statements without one running under the server's default deadline
/// alike.
#[test]
fn timed_out_query_releases_lease_and_frames() {
    for (default_timeout_ms, sql) in [
        (
            None,
            "SELECT * FROM dana.linearR('t') WITH (timeout_ms = 5);",
        ),
        (Some(5), "EXECUTE dana.linearR('t') WITH (backend = fpga);"),
        (
            Some(5),
            "PREDICT dana.linearR('t') INTO 'p' WITH (backend = fpga);",
        ),
        (Some(5), "EVALUATE dana.linearR('t') WITH (backend = fpga);"),
    ] {
        let srv = deployed_server(1, 1, default_timeout_ms);
        let session = srv.open_session("deadline");
        // Scoring requests need a model to reach their deadline check.
        execute(srv.core(), "linearR", "t");

        // Stall every lease grant long enough that a 5 ms deadline
        // expires while the query holds the lease; the first cooperative
        // check (epoch 0, or the scoring scan's start) then fires
        // deterministically.
        srv.install_fault_plan(Some(Arc::new(FaultPlan::lease_stall(
            Duration::from_millis(40),
        ))));
        let err = srv
            .call(session, QueryRequest::Sql(sql.into()))
            .unwrap_err();
        assert!(err.is_deadline_exceeded(), "{sql}: got {err}");
        srv.install_fault_plan(None);

        // The lease and frames came back: gauges are clean and the very
        // next query (same single worker, same single instance) succeeds.
        assert_eq!(srv.core().held_frames(), 0, "frames must be released");
        let stats = srv.stats_snapshot(None);
        assert_eq!(stats.get("faults", "deadline_exceeded"), Some(1.0));
        let reply = srv
            .call(
                session,
                QueryRequest::Sql(
                    "SELECT * FROM dana.linearR('t') WITH (timeout_ms = 60000);".into(),
                ),
            )
            .unwrap();
        assert_eq!(reply.accelerator, 0, "the instance is schedulable again");
        assert_eq!(srv.core().held_frames(), 0);
    }
}

/// A deadline that passes while the query waits in the admission queue
/// sheds it at dequeue — typed reply, never leased.
#[test]
fn queued_past_deadline_query_is_shed() {
    let srv = trained_server(1, 1);
    let session = srv.open_session("shed");

    // Park the single worker behind a stalled lease, then enqueue a
    // query whose deadline expires while it waits.
    srv.install_fault_plan(Some(Arc::new(FaultPlan::lease_stall(
        Duration::from_millis(60),
    ))));
    let blocker = srv
        .submit(
            session,
            QueryRequest::Sql("SELECT * FROM dana.linearR('t');".into()),
        )
        .unwrap();
    let doomed = srv
        .submit(
            session,
            QueryRequest::Sql("SELECT * FROM dana.linearR('t') WITH (timeout_ms = 10);".into()),
        )
        .unwrap();
    let err = srv.wait(doomed).unwrap_err();
    assert!(err.is_deadline_exceeded(), "got {err}");
    srv.wait(blocker).unwrap();
    srv.install_fault_plan(None);
    assert_eq!(srv.queue_stats().shed, 1);
    let stats = srv.stats_snapshot(Some("admission"));
    assert_eq!(stats.get("admission", "shed"), Some(1.0));
}

/// A panicking dispatch is caught (`catch_unwind`): the reply is the
/// typed `QueryPanicked`, and the same worker — there is only one —
/// serves the next query.
#[test]
fn panicking_dispatch_is_isolated_and_worker_survives() {
    let srv = trained_server(1, 1);
    let session = srv.open_session("panic");
    let sql = "SELECT * FROM dana.linearR('t');";

    srv.install_fault_plan(Some(Arc::new(FaultPlan::panic_at_epoch(0))));
    let err = srv
        .call(session, QueryRequest::Sql(sql.into()))
        .unwrap_err();
    match &err {
        ServerError::QueryPanicked(msg) => {
            assert!(msg.contains("injected accelerator panic"), "got {msg}")
        }
        other => panic!("expected QueryPanicked, got {other}"),
    }
    srv.install_fault_plan(None);

    // The worker thread survived the panic and serves the next query.
    let reply = srv.call(session, QueryRequest::Sql(sql.into())).unwrap();
    assert!(reply.response.report().is_ok());
    let stats = srv.stats_snapshot(Some("faults"));
    assert_eq!(stats.get("faults", "panics_caught"), Some(1.0));
}

/// Hostile SQL never reaches a worker's `catch_unwind` — it is parsed on
/// the *submitting* thread — so the front door itself must answer it with
/// a typed error: the caller survives, no lease is taken, and the session
/// keeps working.
#[test]
fn hostile_sql_is_a_typed_error_on_the_submitting_thread() {
    let srv = trained_server(1, 1);
    let session = srv.open_session("hostile");
    let leases = srv.pool_utilization().leases;

    let hostile = "SELECT * FROM dana.linearR('t') WHERE é > 1";
    let err = srv
        .call(session, QueryRequest::Sql(hostile.into()))
        .unwrap_err();
    assert!(
        matches!(err, ServerError::Dana(DanaError::Query(_))),
        "got {err}"
    );
    assert_eq!(srv.pool_utilization().leases, leases, "no lease taken");

    let reply = srv
        .call(
            session,
            QueryRequest::Sql("SELECT * FROM dana.linearR('t');".into()),
        )
        .unwrap();
    assert!(reply.response.report().is_ok());
}

/// A two-member gang that exhausts its retries fails typed, and the pool
/// hears of exactly the members its run logged as faulted: the one a
/// `shard_fault` plan names, or both when every member faults. The third
/// instance, which sat the gang out, stays healthy.
#[test]
fn exhausted_gang_reports_exactly_its_faulted_members() {
    for (plan, faulted) in [
        (FaultPlan::shard_fault(1, 2), 1),
        (FaultPlan::transient_at_epoch(2, 2), 2),
    ] {
        let srv = trained_server(3, 1);
        let session = srv.open_session("exhausted-gang");
        srv.install_fault_plan(Some(Arc::new(plan)));
        let sql = "EXECUTE dana.linearR('t') WITH (shards = 2, retries = 0);";
        let err = srv
            .call(session, QueryRequest::Sql(sql.into()))
            .unwrap_err();
        srv.install_fault_plan(None);
        assert!(
            matches!(&err, ServerError::Dana(e) if e.is_transient_fault()),
            "got {err}"
        );
        let health = srv.pool_health();
        assert_eq!(health.faults_reported, faulted as u64);
        let suspects = health.states.iter().filter(|h| **h == Health::Suspect);
        assert_eq!(suspects.count(), faulted, "states: {:?}", health.states);
        assert_eq!(srv.core().held_frames(), 0);
    }
}

/// Quarantine lifecycle: two strikes quarantine an instance (withheld
/// from leasing), a probe reinstates it, and the `SHOW STATS('faults')`
/// rows track every transition.
#[test]
fn quarantine_and_probe_lifecycle() {
    let srv = trained_server(2, 1);
    let session = srv.open_session("quarantine");

    // Two terminal faults on the same (single-leased, least-loaded)
    // instance: healthy → suspect → quarantined.
    for _ in 0..2 {
        srv.install_fault_plan(Some(Arc::new(FaultPlan::transient_at_epoch(0, 1))));
        let err = srv
            .call(
                session,
                QueryRequest::Sql("SELECT * FROM dana.linearR('t') WITH (retries = 0);".into()),
            )
            .unwrap_err();
        assert!(matches!(&err, ServerError::Dana(e) if e.is_transient_fault()));
    }
    srv.install_fault_plan(None);
    let health = srv.pool_health();
    assert_eq!(health.quarantined_now(), 1, "states: {:?}", health.states);
    assert_eq!(health.quarantines, 1);

    // The survivor keeps serving; a probe reinstates the quarantined
    // instance.
    srv.call(
        session,
        QueryRequest::Sql("SELECT * FROM dana.linearR('t');".into()),
    )
    .unwrap();
    let quarantined = health
        .states
        .iter()
        .position(|h| *h == Health::Quarantined)
        .unwrap();
    assert!(srv.probe_accelerator(quarantined));
    let health = srv.pool_health();
    assert_eq!(health.quarantined_now(), 0);
    assert_eq!(health.reinstates, 1);
    let stats = srv.stats_snapshot(Some("faults"));
    assert_eq!(stats.get("faults", "reinstates"), Some(1.0));
    assert_eq!(stats.get("faults", "quarantines"), Some(1.0));
    assert_eq!(stats.get("faults", "quarantined_now"), Some(0.0));
}

/// `EXPLAIN ANALYZE` of a fault-recovered run carries the `fault_retry`
/// span; an undisturbed run's trace has no such span (trace structure is
/// a function of the statement alone).
#[test]
fn fault_retry_span_appears_only_when_faults_fired() {
    let srv = trained_server(2, 1);
    let session = srv.open_session("trace");
    let sql = "EXPLAIN ANALYZE SELECT * FROM dana.linearR('t');";

    let analyze = || match srv.call(session, QueryRequest::Sql(sql.into())) {
        Ok(QueryReply {
            response: QueryResponse::Analyzed(a),
            ..
        }) => a.trace,
        other => panic!("expected an analyzed reply, got {other:?}"),
    };
    let clean_trace = analyze();
    assert!(
        !clean_trace.stages.iter().any(|s| s.name == "fault_retry"),
        "undisturbed trace must not grow a fault span"
    );

    srv.install_fault_plan(Some(Arc::new(FaultPlan::transient_at_epoch(2, 1))));
    let trace = analyze();
    srv.install_fault_plan(None);
    let span = trace
        .stages
        .iter()
        .find(|s| s.name == "fault_retry")
        .expect("recovered run must carry the fault_retry span");
    assert_eq!(span.count, 1, "one retry");
}

/// The typed accessor mismatch: asking a stats response for a training
/// report returns `UnexpectedResponse`, naming both kinds, instead of
/// panicking.
#[test]
fn try_accessors_return_typed_mismatch() {
    let srv = trained_server(1, 1);
    let session = srv.open_session("accessors");
    let reply = srv
        .call(session, QueryRequest::Sql("SHOW STATS;".into()))
        .unwrap();
    assert!(matches!(reply.response, QueryResponse::Stats(_)));
    match reply.response.report() {
        Err(DanaError::UnexpectedResponse { expected, got }) => {
            assert_eq!((expected, got), ("training", "stats"));
        }
        other => panic!("expected UnexpectedResponse, got {other:?}"),
    }
}

/// The embedded door runs a statement under its own `WITH (retries = …)`:
/// with no retries, one injected fault at epoch 1 is terminal and names
/// the lone member.
#[test]
fn embedded_door_honours_retries() {
    let core = deployed_core();
    core.install_fault_plan(Some(Arc::new(FaultPlan::transient_at_epoch(1, 1))));
    let result = core.execute_statement("EXECUTE dana.linearR('t') WITH (retries = 0);");
    core.install_fault_plan(None);
    match result {
        Err(DanaError::Parallel(ParallelError::Engine {
            shard: 0,
            source: EngineError::TransientFault { epoch: 1 },
        })) => {}
        other => panic!("expected member 0's transient fault, got {other:?}"),
    }
    assert_eq!(core.held_frames(), 0);
}

/// The embedded door runs a statement under its own `WITH (timeout_ms =
/// …)`: three faults at epoch 0 back off 1 ms and then 2 ms, which
/// outlasts a 2 ms deadline.
#[test]
fn embedded_door_honours_timeout() {
    let core = deployed_core();
    core.install_fault_plan(Some(Arc::new(FaultPlan::transient_at_epoch(0, 3))));
    let result = core.execute_statement("EXECUTE dana.linearR('t') WITH (timeout_ms = 2);");
    core.install_fault_plan(None);
    match result {
        Err(e) => assert!(e.is_deadline_exceeded(), "got {e}"),
        Ok(_) => panic!("the deadline must cut the retries short"),
    }
    assert_eq!(core.held_frames(), 0);
}
