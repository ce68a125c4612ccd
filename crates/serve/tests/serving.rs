//! Acceptance suite for the online serving tier.
//!
//! * Point-form PREDICT (typed and SQL VALUES form) must be
//!   **bit-identical** to the materializing PREDICT path on the same
//!   rows, for all four zoo models.
//! * The prediction cache must never serve a value computed under a
//!   superseded model generation: retrain invalidates, drop refuses
//!   with the same typed error the scan path uses.
//! * Cross-request coalescing must be deterministic: every caller gets
//!   exactly its own row's prediction, bit-equal to serial scoring,
//!   regardless of batch composition or arrival order.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use dana::prelude::*;
use dana_dsl::zoo::{self, Algorithm, DenseParams, LrmfParams};
use dana_serve::{BatcherConfig, CacheConfig, ServeConfig, ServeError, ServeTier};
use dana_server::{AdmissionConfig, DanaServer, QueryRequest, ServerConfig, ServerError};

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::{core_config, dense_rows, rating_heap, rating_rows, PAGE};

fn server() -> Arc<DanaServer> {
    Arc::new(DanaServer::start(ServerConfig {
        accelerators: 2,
        workers: 2,
        admission: AdmissionConfig::default(),
        default_timeout_ms: None,
        core: core_config(PAGE),
    }))
}

/// A serving tier whose batcher is in singleton mode — every request
/// dispatches alone, keeping single-threaded tests deterministic.
fn singleton_tier(srv: &Arc<DanaServer>) -> ServeTier {
    ServeTier::new(
        Arc::clone(srv),
        ServeConfig {
            cache: CacheConfig::default(),
            batcher: BatcherConfig {
                max_batch: 16,
                window: Duration::ZERO,
            },
        },
    )
}

/// A dense table labelled under the truth `0.35·i − 0.9 + truth_off`, so
/// two tables can train visibly different models.
fn dense_heap(n: usize, d: usize, algo: Algorithm, truth_off: f32) -> HeapFile {
    common::dense_heap(&dense_rows(n, d, algo, |i| {
        0.35 * i as f32 - 0.9 + truth_off
    }))
}

/// Ratings scattered over a `rows × cols` matrix.
fn ratings(n: usize, rows: usize, cols: usize) -> HeapFile {
    rating_heap(&rating_rows(n, rows, cols, false))
}

fn dense_spec(algo: Algorithm, d: usize) -> dana_dsl::AlgoSpec {
    zoo::spec_for(
        algo,
        DenseParams {
            n_features: d,
            learning_rate: 0.1,
            merge_coef: 8,
            epochs: 6,
        },
    )
    .unwrap()
}

/// Creates table `t`, deploys the dense zoo spec, trains it through the
/// server's front door, and returns the UDF name.
fn dense_setup(srv: &Arc<DanaServer>, algo: Algorithm, n: usize, d: usize) -> String {
    srv.create_table("t", dense_heap(n, d, algo, 0.0)).unwrap();
    let spec = dense_spec(algo, d);
    let udf = spec.name.clone();
    srv.deploy(&spec, "t").unwrap();
    let session = srv.open_session("setup");
    srv.call(
        session,
        QueryRequest::Sql(format!("EXECUTE dana.{udf}('t') WITH (backend = fpga);")),
    )
    .unwrap();
    udf
}

/// Materializes PREDICT over `table` and returns (source rows, the
/// prediction column) — the reference the point path must bit-match.
fn materialized(
    srv: &Arc<DanaServer>,
    udf: &str,
    table: &str,
    pred_col: usize,
) -> (Vec<Vec<f32>>, Vec<f32>) {
    let session = srv.open_session("materialize");
    srv.call(
        session,
        QueryRequest::Sql(format!(
            "PREDICT dana.{udf}('{table}') INTO 'scores' WITH (backend = fpga);"
        )),
    )
    .unwrap();
    let src: Vec<Vec<f32>> = srv
        .core()
        .table_snapshot(table)
        .unwrap()
        .scan_batch()
        .unwrap()
        .rows()
        .map(|r| r.to_vec())
        .collect();
    let preds: Vec<f32> = srv
        .core()
        .table_snapshot("scores")
        .unwrap()
        .scan_batch()
        .unwrap()
        .rows()
        .map(|r| r[pred_col])
        .collect();
    assert_eq!(src.len(), preds.len());
    (src, preds)
}

/// Point predictions — typed request and SQL VALUES form — must be
/// bit-identical to the materializing PREDICT on the same rows.
fn dense_point_vs_materialized(algo: Algorithm) {
    let d = 12;
    let srv = server();
    let udf = dense_setup(&srv, algo, 600, d);
    let (src, reference) = materialized(&srv, &udf, "t", d + 1);

    let tier = singleton_tier(&srv);
    let session = srv.open_session("client");
    // The feature generator has period 17 in k, so some sampled rows
    // repeat — those may legitimately hit the cache; either way the
    // bits must match.
    for k in (0..src.len()).step_by(13) {
        let reply = tier.predict_point(session, &udf, &src[k]).unwrap();
        assert_eq!(
            reply.prediction, reference[k],
            "{udf}: point row {k} must bit-match the materialized column"
        );
    }

    // The SQL VALUES form runs the same fast path.
    let vals: Vec<String> = src[0].iter().map(|v| format!("{v}")).collect();
    let sql = format!("PREDICT dana.{udf}(VALUES ({}));", vals.join(", "));
    let reply = srv.call(session, QueryRequest::Sql(sql)).unwrap();
    let report = reply.response.point_report().unwrap();
    assert_eq!(report.predictions, vec![reference[0]]);
    assert_eq!(report.udf, udf);
}

#[test]
fn linear_point_matches_materialized_bit_exactly() {
    dense_point_vs_materialized(Algorithm::Linear);
}

#[test]
fn logistic_point_matches_materialized_bit_exactly() {
    dense_point_vs_materialized(Algorithm::Logistic);
}

#[test]
fn svm_point_matches_materialized_bit_exactly() {
    dense_point_vs_materialized(Algorithm::Svm);
}

#[test]
fn lrmf_point_matches_materialized_bit_exactly() {
    let (rows, cols) = (24usize, 18usize);
    let srv = server();
    srv.create_table("ratings", ratings(400, rows, cols))
        .unwrap();
    let spec = zoo::lrmf(LrmfParams {
        rows,
        cols,
        rank: 8,
        learning_rate: 0.05,
        merge_coef: 4,
        epochs: 4,
    })
    .unwrap();
    srv.deploy(&spec, "ratings").unwrap();
    let session = srv.open_session("setup");
    srv.call(
        session,
        QueryRequest::Sql("EXECUTE dana.lrmf('ratings') WITH (backend = fpga);".into()),
    )
    .unwrap();
    // Rating tuples are (i, j, r); the materialized table appends the
    // predicted rating at column 3.
    let (src, reference) = materialized(&srv, "lrmf", "ratings", 3);

    let tier = singleton_tier(&srv);
    for k in (0..src.len()).step_by(11) {
        let reply = tier.predict_point(session, "lrmf", &src[k]).unwrap();
        assert_eq!(
            reply.prediction, reference[k],
            "lrmf: point row {k} must bit-match the materialized column"
        );
    }
}

/// Retrain-vs-cached-hit: a hit is served only under the generation
/// that computed it. Rebinding the UDF to a different table and
/// retraining must turn the warm entry stale — the next call dispatches
/// fresh and returns the *new* model's value.
#[test]
fn retrained_model_invalidates_warm_cache_entries() {
    let d = 12;
    let srv = server();
    let udf = dense_setup(&srv, Algorithm::Linear, 600, d);
    let tier = singleton_tier(&srv);
    let session = srv.open_session("client");
    let row: Vec<f32> = srv
        .core()
        .table_snapshot("t")
        .unwrap()
        .scan_batch()
        .unwrap()
        .rows()
        .next()
        .unwrap()
        .to_vec();

    let p1 = tier.predict_point(session, &udf, &row).unwrap();
    assert!(!p1.cached);
    let p2 = tier.predict_point(session, &udf, &row).unwrap();
    assert!(p2.cached, "second identical call must hit the cache");
    assert_eq!(p2.prediction, p1.prediction);

    // Rebind the same UDF name to a table with a shifted truth vector
    // and retrain: a new model generation with visibly different
    // weights.
    srv.create_table("t2", dense_heap(600, d, Algorithm::Linear, 1.5))
        .unwrap();
    srv.deploy(&dense_spec(Algorithm::Linear, d), "t2").unwrap();
    srv.call(
        session,
        QueryRequest::Sql(format!("EXECUTE dana.{udf}('t2') WITH (backend = fpga);")),
    )
    .unwrap();

    // Direct dispatch (never cached) gives the new model's reference.
    let fresh = tier.predict_rows(session, &udf, vec![row.clone()]).unwrap()[0];
    let p3 = tier.predict_point(session, &udf, &row).unwrap();
    assert!(!p3.cached, "stale entry must not serve after retrain");
    assert_eq!(p3.prediction, fresh);
    assert_ne!(
        p3.prediction, p1.prediction,
        "shifted truth must change the trained model's output"
    );

    let snap = srv.stats_snapshot(Some("serving"));
    assert!(snap.get("serving", "cache_invalidations").unwrap() >= 1.0);
    assert!(snap.get("serving", "cache_hits").unwrap() >= 1.0);
}

/// Re-DEPLOY-vs-cached-hit: deploying the same UDF name again replaces
/// the catalog entry, so the UDF is untrained until its next EXECUTE —
/// the warm entry must not answer for a model that no longer exists.
#[test]
fn redeploy_starts_untrained_despite_warm_cache() {
    let d = 12;
    let srv = server();
    let udf = dense_setup(&srv, Algorithm::Linear, 600, d);
    let tier = singleton_tier(&srv);
    let session = srv.open_session("client");
    let row: Vec<f32> = srv
        .core()
        .table_snapshot("t")
        .unwrap()
        .scan_batch()
        .unwrap()
        .rows()
        .next()
        .unwrap()
        .to_vec();

    let p1 = tier.predict_point(session, &udf, &row).unwrap();
    let warm = tier.predict_point(session, &udf, &row).unwrap();
    assert!(warm.cached);
    let old_generation = srv.core().trained_generation(&udf).expect("trained");

    // Same UDF name, bound to a table with a shifted truth vector.
    srv.create_table("t2", dense_heap(600, d, Algorithm::Linear, 1.5))
        .unwrap();
    srv.deploy(&dense_spec(Algorithm::Linear, d), "t2").unwrap();
    assert!(srv.core().trained_generation(&udf).is_none());
    let err = tier.predict_point(session, &udf, &row).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Server(ServerError::Dana(DanaError::ModelNotTrained { .. }))
        ),
        "expected the typed untrained refusal, got: {err}"
    );

    srv.call(
        session,
        QueryRequest::Sql(format!("EXECUTE dana.{udf}('t2') WITH (backend = fpga);")),
    )
    .unwrap();
    let new_generation = srv.core().trained_generation(&udf).expect("retrained");
    assert!(!Arc::ptr_eq(&old_generation, &new_generation));
    let fresh = tier.predict_rows(session, &udf, vec![row.clone()]).unwrap()[0];
    let p2 = tier.predict_point(session, &udf, &row).unwrap();
    assert!(!p2.cached, "the old deployment's entry must not serve");
    assert_eq!(p2.prediction, fresh);
    assert_ne!(p2.prediction, p1.prediction);
}

/// Drop-vs-point-predict: after the bound table is dropped, a warm
/// cache must not answer — the call refuses with the same typed
/// stale-accelerator error the scan path uses.
#[test]
fn dropped_table_refuses_point_predict_despite_warm_cache() {
    let d = 12;
    let srv = server();
    let udf = dense_setup(&srv, Algorithm::Linear, 600, d);
    let tier = singleton_tier(&srv);
    let session = srv.open_session("client");
    let row: Vec<f32> = srv
        .core()
        .table_snapshot("t")
        .unwrap()
        .scan_batch()
        .unwrap()
        .rows()
        .next()
        .unwrap()
        .to_vec();

    tier.predict_point(session, &udf, &row).unwrap();
    let warm = tier.predict_point(session, &udf, &row).unwrap();
    assert!(warm.cached);

    srv.drop_table("t").unwrap();
    let err = tier.predict_point(session, &udf, &row).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Server(ServerError::Dana(DanaError::StaleAccelerator { .. }))
        ),
        "expected the typed stale-accelerator refusal, got: {err}"
    );
}

/// Batcher determinism through the full server: N concurrent clients
/// with distinct rows coalesce, and every reply bit-equals the serial
/// reference for exactly its own row.
#[test]
fn coalesced_predictions_are_bit_identical_to_serial() {
    let d = 12;
    let srv = server();
    let udf = dense_setup(&srv, Algorithm::Linear, 600, d);
    // Cache off: every call must dispatch; a generous window so the
    // barrier-released threads land in one batch.
    let tier = Arc::new(ServeTier::new(
        Arc::clone(&srv),
        ServeConfig {
            cache: CacheConfig { capacity: 0 },
            batcher: BatcherConfig {
                max_batch: 8,
                window: Duration::from_millis(200),
            },
        },
    ));
    let rows: Vec<Vec<f32>> = srv
        .core()
        .table_snapshot("t")
        .unwrap()
        .scan_batch()
        .unwrap()
        .rows()
        .take(8)
        .map(|r| r.to_vec())
        .collect();
    let session = srv.open_session("reference");
    let reference = tier.predict_rows(session, &udf, rows.clone()).unwrap();

    let barrier = Arc::new(Barrier::new(rows.len()));
    let mut handles = Vec::new();
    for (k, row) in rows.iter().cloned().enumerate() {
        let tier = Arc::clone(&tier);
        let barrier = Arc::clone(&barrier);
        let udf = udf.clone();
        let srv = Arc::clone(&srv);
        handles.push(std::thread::spawn(move || {
            let session = srv.open_session(&format!("client-{k}"));
            barrier.wait();
            (k, tier.predict_point(session, &udf, &row).unwrap())
        }));
    }
    let mut coalesced = false;
    for h in handles {
        let (k, reply) = h.join().unwrap();
        assert_eq!(
            reply.prediction, reference[k],
            "client {k} must get exactly its own row's serial prediction"
        );
        coalesced |= reply.batch_rows > 1;
    }
    assert!(coalesced, "barrier-released clients must share a dispatch");

    let snap = srv.stats_snapshot(Some("serving"));
    assert!(snap.get("serving", "coalesced_dispatches").unwrap() >= 1.0);
    assert!(snap.get("serving", "batch_occupancy_count").unwrap() >= 1.0);
}

/// A typed point request never passes the SQL parser, so the scorer must
/// refuse what `parse_values_rows` would have: a non-finite feature would
/// score (and cache) a NaN, and a NaN LRMF index would silently read
/// factor row 0. The refusal is the parser's typed error, lands before
/// the cache is probed or anything dispatched, and leaves the session
/// serving.
#[test]
fn non_finite_point_rows_are_refused_before_scoring_or_caching() {
    let srv = server();
    let dense = dense_setup(&srv, Algorithm::Linear, 300, 6);
    srv.create_table("ratings", ratings(400, 24, 18)).unwrap();
    let spec = zoo::lrmf(LrmfParams {
        rows: 24,
        cols: 18,
        rank: 8,
        learning_rate: 0.05,
        merge_coef: 4,
        epochs: 4,
    })
    .unwrap();
    srv.deploy(&spec, "ratings").unwrap();
    let session = srv.open_session("client");
    srv.call(
        session,
        QueryRequest::Sql("EXECUTE dana.lrmf('ratings') WITH (backend = fpga);".into()),
    )
    .unwrap();
    let tier = singleton_tier(&srv);
    let cache_counters = || {
        let snap = srv.core().stats_snapshot(Some("serving"));
        let get = |name| snap.get("serving", name).unwrap();
        (get("cache_hits"), get("cache_misses"))
    };
    let refused = |e: &ServerError| matches!(e, ServerError::Dana(DanaError::Query(m)) if m.contains("non-finite"));

    let dense_row = vec![0.5f32; 7];
    let lrmf_row = vec![3.0f32, 5.0, 1.0];
    for (udf, good) in [(dense.as_str(), dense_row), ("lrmf", lrmf_row)] {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut row = good.clone();
            row[0] = bad;
            let before = cache_counters();
            // The typed request, with a finite row beside the bad one.
            let request = QueryRequest::PredictPoint {
                udf: udf.to_string(),
                rows: vec![good.clone(), row.clone()],
            };
            let e = srv.call(session, request).unwrap_err();
            assert!(refused(&e), "{udf} {bad}: {e}");
            // The serve tier — twice, because a scored-and-cached NaN
            // would come back as a hit the second time.
            for _ in 0..2 {
                match tier.predict_point(session, udf, &row).unwrap_err() {
                    ServeError::Server(e) => assert!(refused(&e), "{udf} {bad}: {e}"),
                    other => panic!("{udf} {bad}: {other}"),
                }
            }
            match tier.predict_rows(session, udf, vec![row]).unwrap_err() {
                ServeError::Server(e) => assert!(refused(&e), "{udf} {bad}: {e}"),
                other => panic!("{udf} {bad}: {other}"),
            }
            assert_eq!(cache_counters(), before, "the cache was never touched");
        }
        // The same session still serves the finite row: a miss, then a hit.
        let first = tier.predict_point(session, udf, &good).unwrap();
        assert!(!first.cached && first.prediction.is_finite(), "{udf}");
        let again = tier.predict_point(session, udf, &good).unwrap();
        assert!(again.cached, "{udf}");
        assert_eq!(again.prediction, first.prediction, "{udf}");
    }
}

/// The serving counters surface through `SHOW STATS ('serving')` — the
/// SQL front door, not just the typed snapshot.
#[test]
fn serving_stats_surface_through_show_stats() {
    let d = 12;
    let srv = server();
    let udf = dense_setup(&srv, Algorithm::Linear, 600, d);
    let tier = singleton_tier(&srv);
    let session = srv.open_session("client");
    let row: Vec<f32> = srv
        .core()
        .table_snapshot("t")
        .unwrap()
        .scan_batch()
        .unwrap()
        .rows()
        .next()
        .unwrap()
        .to_vec();
    tier.predict_point(session, &udf, &row).unwrap();
    tier.predict_point(session, &udf, &row).unwrap();

    let reply = srv
        .call(
            session,
            QueryRequest::Sql("SHOW STATS ('serving');".to_string()),
        )
        .unwrap();
    let QueryResponse::Stats(snap) = &reply.response else {
        panic!("SHOW STATS answers with a snapshot");
    };
    assert!(snap.get("serving", "point_queries").unwrap() >= 2.0);
    assert!(snap.get("serving", "cache_hits").unwrap() >= 1.0);
    assert!(snap.get("serving", "cache_misses").unwrap() >= 1.0);
    assert!(snap.get("serving", "point_latency_count").unwrap() >= 1.0);
    let table = snap.render_table();
    assert!(table.contains("cache_hits"), "table:\n{table}");
}
