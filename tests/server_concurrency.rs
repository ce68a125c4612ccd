//! Multi-session stress tests for the serving tier: many clients
//! submitting mixed deploy / execute / drop traffic against one
//! [`DanaServer`], asserting (a) every trained model is bit-identical to
//! serial execution, (b) no buffer-pool frame leaks, and (c) admission
//! control sheds overload with typed errors.

use dana::prelude::*;
use dana::SystemCore;
use dana_server::{
    AdmissionConfig, DanaServer, QueryRequest, ServerConfig, ServerError, SystemCoreConfig,
};
use dana_storage::BufferPoolConfig;
use dana_workloads::{generate, workload};

mod common;
use common::execute;

fn small_core_config() -> SystemCoreConfig {
    SystemCoreConfig {
        fpga: FpgaSpec::vu9p(),
        pool: BufferPoolConfig {
            pool_bytes: 128 << 20,
            page_size: 32 * 1024,
        },
        pool_shards: 8,
        disk: DiskModel::ssd(),
    }
}

fn server(accelerators: usize, max_queued: usize) -> DanaServer {
    DanaServer::start(ServerConfig {
        accelerators,
        workers: accelerators,
        admission: AdmissionConfig { max_queued },
        default_timeout_ms: None,
        core: small_core_config(),
    })
}

/// Serial reference: a fresh single-threaded `Dana` over the identical
/// generated table, same spec.
fn serial_models(w: &dana_workloads::Workload, seed: u64) -> Vec<Vec<f32>> {
    let table = generate(w, 32 * 1024, seed).unwrap();
    let db = Dana::new(
        FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 128 << 20,
            page_size: 32 * 1024,
        },
        DiskModel::ssd(),
    );
    db.create_table("t", table.heap).unwrap();
    db.prewarm("t").unwrap();
    let spec = w.spec();
    db.deploy(&spec, "t").unwrap();
    execute(&db, &spec.name, "t").models
}

/// Many threads training different workloads, several clients per
/// workload, concurrently against one server — every result must be
/// bit-identical to the single-threaded reference.
#[test]
fn concurrent_mixed_mode_training_is_bit_identical_to_serial() {
    let cases: Vec<(dana_workloads::Workload, u64)> = vec![
        (
            {
                let mut w = workload("Remote Sensing LR").unwrap().scaled(0.004);
                w.epochs = 3;
                w.merge_coef = 8;
                w
            },
            41,
        ),
        (
            {
                let mut w = workload("Patient").unwrap().scaled(0.01);
                w.epochs = 3;
                w.merge_coef = 8;
                w
            },
            42,
        ),
    ];
    const CLIENTS: usize = 3;

    let srv = server(4, 1024);
    for (i, (w, seed)) in cases.iter().enumerate() {
        let table = generate(w, 32 * 1024, *seed).unwrap();
        srv.create_table(&format!("t{i}"), table.heap).unwrap();
        srv.prewarm(&format!("t{i}")).unwrap();
        let mut spec = w.spec();
        spec.name = format!("udf{i}");
        srv.deploy(&spec, &format!("t{i}")).unwrap();
    }

    // `CLIENTS` client threads per workload, all submitting at once.
    let results = crossbeam::thread::scope(|s| {
        let srv = &srv;
        let cases = &cases;
        let handles: Vec<_> = cases
            .iter()
            .enumerate()
            .flat_map(|(i, (_, seed))| {
                (0..CLIENTS).map(move |c| {
                    s.spawn(move |_| {
                        let session = srv.open_session(&format!("client-{i}-{c}"));
                        let sql = format!("SELECT * FROM dana.udf{i}('t{i}');");
                        let reply = srv
                            .call(session, QueryRequest::Sql(sql))
                            .expect("query must succeed");
                        (i, *seed, reply.response.report().unwrap().models.clone())
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    })
    .unwrap();

    assert_eq!(results.len(), cases.len() * CLIENTS);
    for (i, seed, models) in results {
        let reference = serial_models(&cases[i].0, seed);
        assert_eq!(
            models, reference,
            "case {i}: concurrent result diverged from serial"
        );
    }

    // Every frame released; every query accounted for.
    assert_eq!(srv.core().held_frames(), 0, "buffer-pool frame leak");
    let util = srv.shutdown();
    assert_eq!(
        util.leases.iter().sum::<u64>(),
        (cases.len() * CLIENTS) as u64
    );
}

/// Mixed DDL + query churn from many sessions: private tables are
/// created, deployed, queried, and dropped while a shared table serves
/// queries throughout. Models stay bit-identical, stale accelerators
/// refuse with typed errors, and no frame or page leaks survive.
#[test]
fn mixed_ddl_query_drop_stress_leaks_nothing() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;

    let srv = server(4, 1024);

    // The long-lived shared workload.
    let mut shared = workload("Patient").unwrap().scaled(0.01);
    shared.epochs = 2;
    shared.merge_coef = 8;
    let table = generate(&shared, 32 * 1024, 7).unwrap();
    srv.create_table("shared", table.heap).unwrap();
    srv.prewarm("shared").unwrap();
    let mut shared_spec = shared.spec();
    shared_spec.name = "sharedR".into();
    srv.deploy(&shared_spec, "shared").unwrap();
    let shared_reference = serial_models(&shared, 7);

    // Every client's private workload (identical data ⇒ identical expected
    // model, distinct catalog names ⇒ real DDL contention).
    let mut private = workload("Remote Sensing LR").unwrap().scaled(0.002);
    private.epochs = 2;
    private.merge_coef = 8;
    let private_reference = serial_models(&private, 11);

    crossbeam::thread::scope(|s| {
        let srv = &srv;
        let private = &private;
        let shared_reference = &shared_reference;
        let private_reference = &private_reference;
        for c in 0..CLIENTS {
            s.spawn(move |_| {
                let session = srv.open_session(&format!("client-{c}"));
                for r in 0..ROUNDS {
                    let tname = format!("t_{c}_{r}");
                    let uname = format!("udf_{c}_{r}");
                    let table = generate(private, 32 * 1024, 11).unwrap();
                    srv.create_table(&tname, table.heap).unwrap();
                    let mut spec = private.spec();
                    spec.name = uname.clone();
                    srv.deploy(&spec, &tname).unwrap();

                    // Private query: bit-identical to the serial reference.
                    let reply = srv
                        .call(
                            session,
                            QueryRequest::Sql(format!(
                                "EXECUTE dana.{uname}('{tname}') WITH (backend = fpga);"
                            )),
                        )
                        .expect("private query");
                    assert_eq!(
                        &reply.response.report().unwrap().models,
                        private_reference,
                        "client {c} round {r}"
                    );

                    // Shared query through the SQL front door, same check.
                    let reply = srv
                        .call(
                            session,
                            QueryRequest::Sql("SELECT * FROM dana.sharedR('shared');".to_string()),
                        )
                        .expect("shared query");
                    assert_eq!(&reply.response.report().unwrap().models, shared_reference);

                    // Drop the private table; its accelerator must turn
                    // stale with a typed error, not a dangling heap.
                    let summary = srv.drop_table(&tname).unwrap();
                    assert_eq!(summary.invalidated_udfs, vec![uname.clone()]);
                    match srv.call(
                        session,
                        QueryRequest::Sql(format!(
                            "EXECUTE dana.{uname}('{tname}') WITH (backend = fpga);"
                        )),
                    ) {
                        Err(ServerError::Dana(DanaError::StaleAccelerator {
                            udf,
                            dropped_table,
                        })) => {
                            assert_eq!(udf, uname);
                            assert_eq!(dropped_table, tname);
                        }
                        other => panic!("expected StaleAccelerator, got {other:?}"),
                    }
                }
                srv.close_session(session).unwrap()
            });
        }
    })
    .unwrap();

    // Leak detectors: no held frames, no pages of dropped tables resident.
    assert_eq!(srv.core().held_frames(), 0, "buffer-pool frame leak");
    assert_eq!(srv.core().table_names(), vec!["shared".to_string()]);
    let q = srv.queue_stats();
    assert_eq!(q.depth, 0);
    assert_eq!(
        q.admitted,
        (CLIENTS * ROUNDS * 3) as u64,
        "2 successful queries + 1 stale refusal per round reach the queue"
    );
    assert_eq!(q.rejected, 0);
    srv.shutdown();
}

/// Dropping a table while queries are actively scanning it must leave the
/// pool completely clean: straggler scans keep their `Arc` snapshots and
/// either finish with the bit-identical model or fail with a typed error
/// — but no page of the dropped heap may stay resident afterwards (the
/// orphan-page variant of the stale-page leak).
#[test]
fn drop_while_scanning_leaves_no_orphan_pages() {
    let srv = server(2, 64);
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.004);
    w.epochs = 2;
    w.merge_coef = 8;
    let reference = serial_models(&w, 13);
    srv.create_table("t", generate(&w, 32 * 1024, 13).unwrap().heap)
        .unwrap();
    let mut spec = w.spec();
    spec.name = "victimR".into();
    srv.deploy(&spec, "t").unwrap();

    let session = srv.open_session("racer");
    // Queue a burst, then drop the table while the burst is in flight.
    let tickets: Vec<_> = (0..6)
        .map(|_| {
            srv.submit(
                session,
                QueryRequest::Sql("EXECUTE dana.victimR('t') WITH (backend = fpga);".into()),
            )
            .unwrap()
        })
        .collect();
    // "In flight" is forced, not hoped for: nothing prewarmed the pool, so
    // a resident page means some query holds its heap snapshot and is
    // scanning. On a loaded host the drop otherwise beats every worker's
    // wake-up now and then, and the burst ends in six typed errors.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while srv.core().resident_pages() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no query began scanning"
        );
        std::thread::yield_now();
    }
    srv.drop_table("t").unwrap();

    let mut ok = 0;
    for t in tickets {
        match srv.wait(t) {
            Ok(reply) => {
                // A query that snapshotted the heap before the drop must
                // still produce the exact serial model.
                assert_eq!(reply.response.report().unwrap().models, reference);
                ok += 1;
            }
            Err(ServerError::Dana(
                DanaError::StaleAccelerator { .. }
                | DanaError::Storage(dana_storage::StorageError::UnknownTable(_)),
            )) => {}
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    assert!(ok >= 1, "at least the in-flight query must complete");
    // The only table is gone: nothing may remain resident or held.
    assert_eq!(srv.core().held_frames(), 0, "frame leak");
    assert_eq!(
        srv.core().resident_pages(),
        0,
        "orphan pages of the dropped heap survived"
    );
    srv.shutdown();
}

/// A tiny admission queue in front of a single slow worker: the flood is
/// shed with typed `Overloaded` errors and every admitted query still
/// completes.
#[test]
fn admission_control_sheds_overload() {
    let srv = server(1, 2);
    let mut w = workload("Patient").unwrap().scaled(0.01);
    w.epochs = 2;
    let table = generate(&w, 32 * 1024, 3).unwrap();
    srv.create_table("t", table.heap).unwrap();
    let mut spec = w.spec();
    spec.name = "patientR".into();
    srv.deploy(&spec, "t").unwrap();

    let session = srv.open_session("flooder");
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..32 {
        match srv.submit(
            session,
            QueryRequest::Sql("EXECUTE dana.patientR('t') WITH (backend = fpga);".into()),
        ) {
            Ok(t) => tickets.push(t),
            Err(ServerError::Overloaded { queued, limit }) => {
                assert!(queued >= limit);
                rejected += 1;
            }
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    }
    assert!(rejected > 0, "a 2-deep queue must shed a 32-query flood");
    let admitted = tickets.len();
    for t in tickets {
        let reply = srv.wait(t).expect("admitted queries must complete");
        assert!(!reply.response.report().unwrap().models.is_empty());
    }
    let stats = srv.session_stats(session).unwrap();
    assert_eq!(stats.completed, admitted as u64);
    assert_eq!(stats.submitted, 32);
    let q = srv.queue_stats();
    assert_eq!(q.admitted as usize, admitted);
    assert_eq!(q.rejected as usize, rejected);
    srv.shutdown();
}

/// The deploy-time engine cache: one DEPLOY builds the execution engine
/// exactly once, and every subsequent EXECUTE — serial or concurrent, via
/// the SQL front door, backend pinned or not — rides that cached `Arc` rather than
/// reconstructing it. The counter on the server core is the proof.
#[test]
fn repeated_executes_build_the_engine_exactly_once() {
    const EXECUTES: usize = 12;

    let srv = server(4, 1024);
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.004);
    w.epochs = 2;
    w.merge_coef = 8;
    srv.create_table("t", generate(&w, 32 * 1024, 21).unwrap().heap)
        .unwrap();
    srv.prewarm("t").unwrap();
    srv.deploy(&w.spec(), "t").unwrap();

    let after_deploy = srv.core().engine_cache_stats();
    assert_eq!(
        after_deploy.built, 1,
        "DEPLOY builds (validates + lowers) the engine exactly once"
    );

    // Concurrent burst of EXECUTEs against the one deployed accelerator.
    let reference = serial_models(&w, 21);
    crossbeam::thread::scope(|s| {
        let srv = &srv;
        let reference = &reference;
        for c in 0..EXECUTES {
            s.spawn(move |_| {
                let session = srv.open_session(&format!("exec-{c}"));
                let reply = srv
                    .call(
                        session,
                        QueryRequest::Sql("SELECT * FROM dana.logisticR('t');".to_string()),
                    )
                    .expect("execute");
                assert_eq!(
                    &reply.response.report().unwrap().models,
                    reference,
                    "execute {c}"
                );
            });
        }
    })
    .unwrap();

    let stats = srv.core().engine_cache_stats();
    assert_eq!(
        stats.built, 1,
        "repeated EXECUTEs must never construct another engine"
    );
    // Every query resolves the cached engine at least once (submit-time
    // cost hints hit it too, so hits can exceed the EXECUTE count).
    assert!(
        stats.hits >= EXECUTES as u64,
        "expected ≥{EXECUTES} cache hits, saw {}",
        stats.hits
    );
    srv.shutdown();
}

/// Scoring queries flow through the full serving path — sessions,
/// admission, the accelerator pool — alongside training queries: a SQL
/// `PREDICT … INTO …` materializes the table, `EVALUATE` computes the
/// metric, and concurrent mixed traffic leaves no held frames.
#[test]
fn predict_and_evaluate_flow_through_the_server() {
    let srv = server(2, 256);
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.004);
    w.epochs = 2;
    w.merge_coef = 8;
    srv.create_table("t", generate(&w, 32 * 1024, 33).unwrap().heap)
        .unwrap();
    srv.deploy(&w.spec(), "t").unwrap();

    let session = srv.open_session("scorer");
    // Train first (PREDICT before training is a typed refusal).
    match srv.call(
        session,
        QueryRequest::Sql(
            "PREDICT dana.logisticR('t') INTO 'scores' WITH (backend = fpga);".into(),
        ),
    ) {
        Err(ServerError::Dana(DanaError::ModelNotTrained { .. })) => {}
        other => panic!("expected ModelNotTrained, got {other:?}"),
    }
    let trained = srv
        .call(
            session,
            QueryRequest::Sql("SELECT * FROM dana.logisticR('t');".into()),
        )
        .unwrap();
    assert!(!trained.response.report().unwrap().models.is_empty());

    // PREDICT via the SQL front door.
    let reply = srv
        .call(
            session,
            QueryRequest::Sql("PREDICT dana.logisticR('t') INTO 'scores';".into()),
        )
        .unwrap();
    let p = reply.response.predict_report().unwrap();
    assert_eq!(p.output_table, "scores");
    assert!(p.rows_scored > 0);
    assert!(srv.core().table_names().contains(&"scores".to_string()));

    // EVALUATE — on the source and on the materialized table, same value.
    let on_src = srv
        .call(
            session,
            QueryRequest::Sql("EVALUATE dana.logisticR('t', 'log_loss');".into()),
        )
        .unwrap();
    let on_scores = srv
        .call(
            session,
            QueryRequest::Sql("EVALUATE dana.logisticR('scores') WITH (backend = fpga);".into()),
        )
        .unwrap();
    assert_eq!(
        on_src.response.eval_report().unwrap().value,
        on_scores.response.eval_report().unwrap().value,
        "the appended prediction column must not disturb the metric"
    );

    // Mixed concurrent traffic: trainers and scorers interleave.
    crossbeam::thread::scope(|s| {
        let srv = &srv;
        for c in 0..4 {
            s.spawn(move |_| {
                let session = srv.open_session(&format!("mixed-{c}"));
                let sql = if c % 2 == 0 {
                    "SELECT * FROM dana.logisticR('t');".to_string()
                } else {
                    format!("PREDICT dana.logisticR('t') INTO 'scores_{c}';")
                };
                srv.call(session, QueryRequest::Sql(sql)).unwrap();
            });
        }
    })
    .unwrap();

    assert_eq!(srv.core().held_frames(), 0, "scoring must hold no frames");
    srv.shutdown();
}

/// Drop-vs-score race: PREDICTs in flight while the source table drops.
/// Every query either completes (its heap snapshot predates the drop —
/// but then the install guard refuses to register predictions for a
/// dropped source) or fails with a typed error; afterwards nothing of
/// the dropped heap or any stale prediction table stays resident.
#[test]
fn drop_while_scoring_is_typed_and_leaves_no_orphans() {
    let srv = server(2, 64);
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.004);
    w.epochs = 2;
    w.merge_coef = 8;
    srv.create_table("t", generate(&w, 32 * 1024, 55).unwrap().heap)
        .unwrap();
    srv.deploy(&w.spec(), "t").unwrap();
    let session = srv.open_session("race");
    srv.call(
        session,
        QueryRequest::Sql("SELECT * FROM dana.logisticR('t');".into()),
    )
    .unwrap();
    // One prediction table exists before the drop; it must go stale.
    srv.call(
        session,
        QueryRequest::Sql(
            "PREDICT dana.logisticR('t') INTO 'pre_drop_scores' WITH (backend = fpga);".into(),
        ),
    )
    .unwrap();

    // Queue a burst of PREDICTs, then drop the source mid-flight.
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            srv.submit(
                session,
                QueryRequest::Sql(format!(
                    "PREDICT dana.logisticR('t') INTO 'racing_{i}' WITH (backend = fpga);"
                )),
            )
            .unwrap()
        })
        .collect();
    let summary = srv.drop_table("t").unwrap();

    // A PREDICT that finished before the drop registered its table, and
    // the drop made that table stale beside the pre-drop one; one that
    // finished later was refused. Which PREDICTs win is a race, so the
    // stale list is held to the replies.
    let mut expected_stale = vec!["pre_drop_scores".to_string()];
    for (i, t) in tickets.into_iter().enumerate() {
        match srv.wait(t) {
            Ok(reply) => {
                // Raced ahead of the drop entirely.
                assert!(reply.response.predict_report().unwrap().rows_scored > 0);
                expected_stale.push(format!("racing_{i}"));
            }
            Err(ServerError::Dana(
                DanaError::StaleAccelerator { .. }
                | DanaError::ModelNotTrained { .. }
                | DanaError::Storage(
                    dana_storage::StorageError::UnknownTable(_)
                    | dana_storage::StorageError::StaleDerivedTable { .. },
                ),
            )) => {}
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    let mut stale = summary.stale_prediction_tables;
    stale.sort_unstable();
    assert_eq!(stale, expected_stale);

    // The stale pre-drop prediction table refuses queries...
    match srv.call(
        session,
        QueryRequest::Sql(
            "EVALUATE dana.logisticR('pre_drop_scores') WITH (backend = fpga);".into(),
        ),
    ) {
        Err(ServerError::Dana(
            DanaError::StaleAccelerator { .. }
            | DanaError::Storage(dana_storage::StorageError::StaleDerivedTable { .. }),
        )) => {}
        other => panic!("expected a typed stale refusal, got {other:?}"),
    }

    // ...and no frame or page of the dropped/stale heaps survives. Any
    // predictions that won the race belong to *other* (still-live)
    // tables — evict them for the resident check by dropping.
    for name in srv.core().table_names() {
        let _ = srv.drop_table(&name);
    }
    assert_eq!(srv.core().held_frames(), 0, "frame leak");
    assert_eq!(srv.core().resident_pages(), 0, "orphan pages survived");
    srv.shutdown();
}

/// A drop racing a streaming EXECUTE. Every epoch streams its pages
/// through a pool half the table's size — the heap's pages, or the
/// compressed sidecar's under the shadow id — so later epochs fetch pages
/// after the drop has tombstoned them. Each EXECUTE (unfiltered, filtered,
/// and a filtered gang of two) either returns the undisturbed model or a
/// typed error; afterwards no frame is held, no page of the heap or of
/// its shadow id is resident, and no model is stored for the dropped
/// table. The drop waits, spinning, until the pool has missed more pages
/// than the table holds — a later epoch is streaming — or the EXECUTE is
/// done.
#[test]
fn drop_racing_a_streaming_execute_is_undisturbed_or_typed() {
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.004);
    w.epochs = 6;
    w.merge_coef = 8;
    let table = || generate(&w, 32 * 1024, 29).unwrap().heap;
    let pages = table().page_count();
    let core = || {
        SystemCore::new(SystemCoreConfig {
            pool: BufferPoolConfig {
                pool_bytes: u64::from(pages / 2) * 32 * 1024,
                page_size: 32 * 1024,
            },
            pool_shards: 2,
            ..small_core_config()
        })
    };
    let spec = w.spec();
    let udf = spec.name.clone();
    for clause in ["", "WHERE x1 > -0.5", "WHERE x1 > -0.5 WITH (shards = 2)"] {
        let sql = format!("SELECT * FROM dana.{udf}('t') {clause};");
        let run = |core: &SystemCore| {
            core.execute_statement(&sql)
                .map(|r| r.report().unwrap().models.clone())
        };
        let reference = {
            let core = core();
            core.create_table("t", table()).unwrap();
            core.deploy(&spec, "t").unwrap();
            run(&core).unwrap()
        };
        let core = core();
        core.create_table("t", table()).unwrap();
        core.deploy(&spec, "t").unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let outcome = std::thread::scope(|scope| {
            let racer = scope.spawn(|| {
                let outcome = run(&core);
                done.store(true, std::sync::atomic::Ordering::Release);
                outcome
            });
            while !done.load(std::sync::atomic::Ordering::Acquire)
                && core.pool_stats().misses <= u64::from(pages)
            {
                std::thread::yield_now();
            }
            core.drop_table("t").unwrap();
            racer.join().unwrap()
        });
        match outcome {
            Ok(models) => assert_eq!(models, reference, "`{sql}`"),
            Err(
                DanaError::StaleAccelerator { .. }
                | DanaError::Storage(dana_storage::StorageError::UnknownTable(_)),
            ) => {}
            Err(e) => panic!("`{sql}`: unexpected failure: {e}"),
        }
        assert_eq!(core.held_frames(), 0, "`{sql}`: frame leak");
        assert_eq!(core.resident_pages(), 0, "`{sql}`: orphan pages");
        assert!(core.trained_generation(&udf).is_none(), "`{sql}`");
    }
}

/// Intra-query parallelism under load: a 4-shard gang submitted into a
/// stream of single-instance queries on a 4-instance pool.
/// The FIFO pool grant discipline means the gang is neither starved by
/// the singles (its turn comes) nor starves them (they run after it) —
/// every ticket completes, the gang holds four distinct instances, and
/// its trained model is bit-identical to training the same shards
/// directly on the shared core.
#[test]
fn four_shard_gang_neither_starves_nor_is_starved() {
    let srv = server(4, 1024);
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.004);
    w.epochs = 2;
    w.merge_coef = 8;
    srv.create_table("t", generate(&w, 32 * 1024, 33).unwrap().heap)
        .unwrap();
    srv.prewarm("t").unwrap();
    srv.deploy(&w.spec(), "t").unwrap();

    // Overload mix: singles before, gangs in the middle, singles after —
    // all from concurrent clients. Everything must complete.
    let results = crossbeam::thread::scope(|s| {
        let srv = &srv;
        let mut handles = Vec::new();
        for c in 0..6 {
            handles.push(s.spawn(move |_| {
                let session = srv.open_session(&format!("single-pre-{c}"));
                let reply = srv
                    .call(
                        session,
                        QueryRequest::Sql(
                            "EXECUTE dana.logisticR('t') WITH (backend = fpga);".into(),
                        ),
                    )
                    .expect("single query must complete");
                ("single", reply)
            }));
        }
        for c in 0..3 {
            handles.push(s.spawn(move |_| {
                let session = srv.open_session(&format!("gang-{c}"));
                let reply = srv
                    .call(
                        session,
                        QueryRequest::Sql(
                            "EXECUTE dana.logisticR('t') WITH (shards = 4, backend = fpga);".into(),
                        ),
                    )
                    .expect("gang query must complete");
                ("gang", reply)
            }));
        }
        for c in 0..6 {
            handles.push(s.spawn(move |_| {
                let session = srv.open_session(&format!("single-post-{c}"));
                let reply = srv
                    .call(
                        session,
                        QueryRequest::Sql("EXECUTE dana.logisticR('t') WITH (shards = 2);".into()),
                    )
                    .expect("2-gang query must complete");
                ("pair", reply)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    })
    .unwrap();

    let mut singles = 0;
    let mut gangs = 0;
    let mut pairs = 0;
    for (kind, reply) in &results {
        match *kind {
            "single" => {
                singles += 1;
                assert_eq!(reply.gang.len(), 1);
            }
            "gang" => {
                gangs += 1;
                assert_eq!(reply.gang.len(), 4, "gang must hold 4 instances");
                let mut ids = reply.gang.clone();
                ids.dedup();
                assert_eq!(ids.len(), 4, "gang members must be distinct");
                assert_eq!(reply.response.report().unwrap().shards, 4);
            }
            "pair" => {
                pairs += 1;
                assert_eq!(reply.gang.len(), 2);
                assert_eq!(reply.response.report().unwrap().shards, 2);
            }
            _ => unreachable!(),
        }
    }
    assert_eq!((singles, gangs, pairs), (6, 3, 6));

    // Gang-trained and serial-trained models agree with the shared
    // core's own sharded run (training is deterministic per shard count).
    let gang_models = results
        .iter()
        .find(|(k, _)| *k == "gang")
        .map(|(_, r)| r.response.report().unwrap().models.clone())
        .unwrap();
    let direct = srv
        .core()
        .execute_statement("EXECUTE dana.logisticR('t') WITH (shards = 4);")
        .unwrap();
    assert_eq!(
        gang_models,
        direct.report().unwrap().models,
        "gang training is deterministic"
    );

    let util = srv.shutdown();
    assert!(
        util.leases.iter().all(|&l| l > 0),
        "every instance served work: {:?}",
        util.leases
    );
    // 6 singles + 3×4-member gangs + 6×2-member gangs. (The direct
    // `core()` run above bypasses the pool — no lease.)
    assert_eq!(util.leases.iter().sum::<u64>(), 6 + 3 * 4 + 6 * 2);
}

/// A gang lease must never hold more instances than the shard plan has
/// shards: a one-page table requested `WITH (shards = 4)` runs — and
/// leases — a single instance, so utilization metrics never charge
/// phantom-busy hardware.
#[test]
fn gang_size_clamps_to_the_tables_page_count() {
    let srv = server(4, 64);
    // Tiny table: one 32 KB page.
    let mut b = dana_storage::HeapFileBuilder::new(
        dana_storage::Schema::training(8),
        32 * 1024,
        dana_storage::page::TupleDirection::Ascending,
    )
    .unwrap();
    for k in 0..40 {
        let x: Vec<f32> = (0..8).map(|i| ((k + i) % 5) as f32 / 5.0).collect();
        b.insert(&Tuple::training(&x, x.iter().sum())).unwrap();
    }
    let heap = b.finish();
    assert_eq!(heap.page_count(), 1, "test needs a one-page table");
    srv.create_table("tiny", heap).unwrap();
    let spec = dana_dsl::zoo::linear_regression(dana_dsl::zoo::DenseParams {
        n_features: 8,
        learning_rate: 0.1,
        merge_coef: 8,
        epochs: 1,
    })
    .unwrap();
    srv.deploy(&spec, "tiny").unwrap();

    let session = srv.open_session("clamp");
    let reply = srv
        .call(
            session,
            QueryRequest::Sql("EXECUTE dana.linearR('tiny') WITH (shards = 4);".into()),
        )
        .unwrap();
    assert_eq!(reply.gang.len(), 1, "lease must match the effective plan");
    assert_eq!(reply.response.report().unwrap().shards, 1);
    let util = srv.shutdown();
    assert_eq!(
        util.busy_seconds.iter().filter(|&&b| b > 0.0).count(),
        1,
        "only one instance may be charged: {:?}",
        util.busy_seconds
    );
}

/// CPU-tier and EXPLAIN queries are lease-free: the backend resolves
/// *before* admission leases, so neither touches the accelerator pool —
/// its utilization ledger charges only the FPGA-tier run, and the
/// CPU-trained model is still bit-identical to the offloaded one.
#[test]
fn cpu_tier_and_explain_bypass_the_accelerator_pool() {
    let srv = server(2, 64);
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.004);
    w.epochs = 2;
    w.merge_coef = 8;
    srv.create_table("t", generate(&w, 32 * 1024, 71).unwrap().heap)
        .unwrap();
    srv.deploy(&w.spec(), "t").unwrap();
    let session = srv.open_session("advisor");

    // EXPLAIN: priced, never executed, never leased.
    let explained = srv
        .call(
            session,
            QueryRequest::Sql("EXPLAIN SELECT * FROM dana.logisticR('t');".into()),
        )
        .unwrap();
    let cmp = explained.response.comparison().unwrap();
    assert_eq!(cmp.options.len(), 2);
    assert!(explained.gang.is_empty(), "EXPLAIN must not lease");
    assert_eq!(explained.accelerator, usize::MAX);

    // Forced CPU training: lease-free, wall-timed, zero simulated cost.
    let cpu = srv
        .call(
            session,
            QueryRequest::Sql("SELECT * FROM dana.logisticR('t') WITH (backend = cpu);".into()),
        )
        .unwrap();
    assert!(cpu.gang.is_empty(), "CPU tier must not lease");
    assert_eq!(cpu.accelerator, usize::MAX);
    assert_eq!(cpu.response.report().unwrap().backend, BackendKind::Cpu);
    assert_eq!(cpu.response.report().unwrap().timing.total_seconds, 0.0);
    assert!(cpu.response.report().unwrap().timing.wall_seconds.is_some());

    // The offloaded run leases one instance and agrees bit-for-bit.
    let fpga = srv
        .call(
            session,
            QueryRequest::Sql("SELECT * FROM dana.logisticR('t');".into()),
        )
        .unwrap();
    assert_eq!(fpga.gang.len(), 1);
    assert_eq!(fpga.response.report().unwrap().backend, BackendKind::Fpga);
    assert_eq!(
        cpu.response.report().unwrap().models,
        fpga.response.report().unwrap().models,
        "tiers must agree bit-for-bit through the server"
    );

    assert_eq!(srv.core().held_frames(), 0, "buffer-pool frame leak");
    let util = srv.shutdown();
    assert_eq!(
        util.leases.iter().sum::<u64>(),
        1,
        "only the FPGA-tier run may lease: {:?}",
        util.leases
    );
    assert_eq!(
        util.busy_seconds.iter().filter(|&&b| b > 0.0).count(),
        1,
        "only the FPGA-tier run may charge simulated time: {:?}",
        util.busy_seconds
    );
}

/// The simulated fields of a response's timing, as bits; `None` where
/// nothing ran. The measured `wall_seconds` is left out.
fn sim_bits(response: &QueryResponse) -> Option<[u64; 7]> {
    response.timing().map(|t| {
        [
            t.io_seconds,
            t.axi_seconds,
            t.strider_seconds,
            t.decompress_seconds,
            t.engine_seconds,
            t.setup_seconds,
            t.total_seconds,
        ]
        .map(f64::to_bits)
    })
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every page of `table`, byte for byte.
fn table_pages(core: &SystemCore, table: &str) -> Vec<Vec<u8>> {
    let heap = core.table_snapshot(table).unwrap();
    (0..heap.page_count())
        .map(|p| heap.page_bytes(p).unwrap().to_vec())
        .collect()
}

/// Both front doors answer with one response. Each statement runs through
/// `SystemCore::execute_statement` on one fresh core and through
/// `DanaServer::call` on a server whose core has the same configuration:
/// the same variant comes back, with bit-equal models, metric values,
/// point predictions and prediction pages, and bit-equal simulated timing.
#[test]
fn both_doors_give_the_same_response() {
    let embedded = SystemCore::new(small_core_config());
    let srv = server(2, 64);
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.004);
    w.epochs = 2;
    w.merge_coef = 8;
    let heap = generate(&w, 32 * 1024, 91).unwrap().heap;
    let rows: Vec<String> = heap
        .scan_batch()
        .unwrap()
        .rows()
        .take(2)
        .map(|r| {
            let vals: Vec<String> = r.iter().map(|v| v.to_string()).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    for core in [&embedded, srv.core()] {
        core.create_table("t", heap.clone()).unwrap();
        core.deploy(&w.spec(), "t").unwrap();
    }
    let session = srv.open_session("doors");
    let point = format!("PREDICT dana.logisticR(VALUES {});", rows.join(", "));
    for sql in [
        "EXECUTE dana.logisticR('t');",
        "PREDICT dana.logisticR('t') INTO 'p';",
        "EVALUATE dana.logisticR('t');",
        point.as_str(),
        "EXPLAIN EVALUATE dana.logisticR('t');",
        "EXPLAIN ANALYZE EVALUATE dana.logisticR('t');",
        "SHOW STATS;",
    ] {
        let here = embedded.execute_statement(sql).unwrap();
        let there = srv
            .call(session, QueryRequest::Sql(sql.into()))
            .unwrap()
            .response;
        assert_eq!(
            std::mem::discriminant(&here),
            std::mem::discriminant(&there),
            "{sql}: {here:?} vs {there:?}"
        );
        assert_eq!(sim_bits(&here), sim_bits(&there), "{sql}: simulated timing");
        match (&here, &there) {
            (QueryResponse::Trained(a), QueryResponse::Trained(b)) => {
                let models = |r: &DanaReport| r.models.iter().map(|m| bits(m)).collect::<Vec<_>>();
                assert_eq!(models(a), models(b), "{sql}");
            }
            (QueryResponse::Predicted(a), QueryResponse::Predicted(b)) => assert_eq!(
                table_pages(&embedded, &a.output_table),
                table_pages(srv.core(), &b.output_table),
                "{sql}"
            ),
            (QueryResponse::Evaluated(a), QueryResponse::Evaluated(b)) => {
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "{sql}");
                assert_eq!(a.rows_scored, b.rows_scored, "{sql}");
            }
            (QueryResponse::Point(a), QueryResponse::Point(b)) => {
                assert_eq!(a.predictions.len(), 2, "{sql}");
                assert_eq!(bits(&a.predictions), bits(&b.predictions), "{sql}");
            }
            (QueryResponse::Explained(a), QueryResponse::Explained(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{sql}")
            }
            (QueryResponse::Analyzed(a), QueryResponse::Analyzed(b)) => {
                let value = |r: &dana::AnalyzeReport| r.outcome.eval_report().unwrap().value;
                assert_eq!(value(a).to_bits(), value(b).to_bits(), "{sql}");
                assert_eq!(a.trace.structure(), b.trace.structure(), "{sql}");
            }
            // SHOW STATS: a server adds its queue, pool and session rows.
            (QueryResponse::Stats(_), QueryResponse::Stats(_)) => {}
            _ => unreachable!("the discriminants matched"),
        }
    }
    srv.shutdown();
}
