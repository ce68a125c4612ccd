//! The front door: one lowering for both doors, and [`Dana`], the name
//! for a [`SystemCore`] used embedded.
//!
//! A parsed [`Statement`] becomes work in one place,
//! [`SystemCore::lower`]: a call — bare, under `EXPLAIN` or under
//! `EXPLAIN ANALYZE` — is bound to its [`crate::PhysicalPlan`], `SHOW
//! STATS` binds nothing, and the statement's `WITH (timeout_ms, retries)`
//! become its [`QueryCtx`]. The embedded door,
//! [`SystemCore::execute_statement`], lowers and runs on the caller's
//! thread; the serving tier (`dana-server`) lowers at submit and runs on
//! a worker holding accelerator leases. Both answer with one
//! [`QueryResponse`].
//!
//! There is no second implementation behind `Dana`. `Dana::new` builds
//! the core with a **one-shard** buffer pool — a single second-chance
//! clock over all frames, so replacement order (and therefore simulated
//! I/O) is that of one plain pool — and `Deref` exposes the rest of the
//! core (DDL, deploy, statistics). A statement is the one way to run an
//! analytic; [`SystemCore::bind`] followed by [`SystemCore::execute`] is
//! the same door opened by hand.

use std::ops::Deref;
use std::time::{Duration, Instant};

use dana_engine::{CancelToken, RetryPolicy};
use dana_fpga::FpgaSpec;
use dana_obs::QueryTrace;
use dana_storage::{BufferPoolConfig, DiskModel};

use crate::core::{FrontDoorWalls, QueryCtx, SystemCore, SystemCoreConfig};
use crate::error::DanaResult;
use crate::plan::{PhysicalPlan, Wrap};
use crate::query::{parse_statement, Statement};
use crate::report::QueryResponse;

/// The DAnA-enhanced database system, embedded.
pub struct Dana(SystemCore);

impl Deref for Dana {
    type Target = SystemCore;

    fn deref(&self) -> &SystemCore {
        &self.0
    }
}

impl Dana {
    pub fn new(fpga: FpgaSpec, pool: BufferPoolConfig, disk: DiskModel) -> Dana {
        Dana(SystemCore::new(SystemCoreConfig {
            fpga,
            pool,
            pool_shards: 1,
            disk,
        }))
    }

    /// The paper's default setup: VU9P FPGA, 8 GB pool of 32 KB pages,
    /// SSD-class disk (§7).
    pub fn default_system() -> Dana {
        Dana::new(
            FpgaSpec::vu9p(),
            BufferPoolConfig::paper_default(),
            DiskModel::ssd(),
        )
    }
}

/// What a statement lowers to.
#[derive(Debug)]
pub enum Work {
    /// A call, bound: run it.
    Plan(Box<PhysicalPlan>),
    /// `SHOW STATS [('<subsystem>')]`: nothing to bind or run; the door
    /// answering it snapshots its own rows (a server adds its queue,
    /// pool and sessions to the core's).
    Stats(Option<String>),
}

impl SystemCore {
    /// Lowers a parsed statement to its work — the one place a
    /// [`Statement`]'s shape is matched. A call is bound (see
    /// [`SystemCore::bind`]) with its gang clamped to `lease_cap`; the
    /// context carries the executed call's `WITH (timeout_ms = …)` as a
    /// deadline anchored now and its `WITH (retries = …)` as the retry
    /// budget (plain `EXPLAIN` executes nothing and carries neither).
    pub fn lower(&self, stmt: &Statement, lease_cap: usize) -> DanaResult<(Work, QueryCtx)> {
        let cancel = stmt.timeout_ms().map_or_else(CancelToken::none, |ms| {
            CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms))
        });
        let retry = stmt
            .retries()
            .map_or_else(RetryPolicy::default, |n| RetryPolicy {
                max_retries: n,
                ..RetryPolicy::default()
            });
        let work = match stmt {
            Statement::ShowStats(filter) => Work::Stats(filter.clone()),
            Statement::Call(call) => Work::Plan(Box::new(self.bind(call, None, lease_cap)?)),
            Statement::Explain(call) => {
                Work::Plan(Box::new(self.bind(call, Some(Wrap::Explain), lease_cap)?))
            }
            Statement::ExplainAnalyze(call) => {
                Work::Plan(Box::new(self.bind(call, Some(Wrap::Analyze), lease_cap)?))
            }
        };
        Ok((work, QueryCtx { cancel, retry }))
    }

    /// Executes any front-door statement on the caller's thread: `SELECT …
    /// FROM dana.<udf>(…)` / `EXECUTE …` (train), `PREDICT … INTO …`
    /// (score + materialize), point `PREDICT …(VALUES …)`, `EVALUATE …`
    /// (score + metric), `EXPLAIN <stmt>` (price the statement on every
    /// backend without running it), `EXPLAIN ANALYZE <stmt>` (run it and
    /// report the lifecycle trace), or `SHOW STATS` (metrics snapshot).
    pub fn execute_statement(&self, sql: &str) -> DanaResult<QueryResponse> {
        Ok(self.execute_statement_traced(sql)?.0)
    }

    /// [`SystemCore::execute_statement`], returning the lifecycle trace
    /// beside the response when the statement opted in with `WITH (trace
    /// = on)` (`None` otherwise — tracing off is the free default). An
    /// embedded caller has no lease capacity to clamp a gang to — only the
    /// table's pages bound it. The statement is folded into the metrics
    /// registry.
    pub fn execute_statement_traced(
        &self,
        sql: &str,
    ) -> DanaResult<(QueryResponse, Option<QueryTrace>)> {
        let parse_start = Instant::now();
        let stmt = parse_statement(sql)?;
        let walls = FrontDoorWalls {
            parse: parse_start.elapsed().as_secs_f64(),
            ..FrontDoorWalls::default()
        };
        let start = Instant::now();
        let result = self
            .lower(&stmt, usize::MAX)
            .and_then(|(work, ctx)| match work {
                Work::Stats(filter) => Ok((
                    QueryResponse::Stats(self.stats_snapshot(filter.as_deref())),
                    None,
                )),
                Work::Plan(plan) => self.run(&plan, &walls, &ctx).0,
            });
        self.record_statement(
            result.as_ref().map(|(response, _)| response),
            start.elapsed().as_secs_f64(),
        );
        result
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::report::{DanaReport, EvalReport, PredictReport};
    use crate::{BackendKind, DanaError, MetricKind};
    use dana_dsl::zoo::{linear_regression, DenseParams};
    use dana_storage::page::TupleDirection;
    use dana_storage::{HeapFile, HeapFileBuilder, Schema, Tuple};

    fn small_system() -> Dana {
        Dana::new(
            FpgaSpec::vu9p(),
            BufferPoolConfig {
                pool_bytes: 64 << 20,
                page_size: 8 * 1024,
            },
            DiskModel::ssd(),
        )
    }

    /// Runs a training statement and returns its report.
    fn train_sql(db: &SystemCore, sql: &str) -> DanaResult<DanaReport> {
        Ok(db.execute_statement(sql)?.report()?.clone())
    }

    /// `EXECUTE udf('table')`: trains and stores the model.
    pub(crate) fn execute(db: &SystemCore, udf: &str, table: &str) -> DanaResult<DanaReport> {
        train_sql(db, &format!("EXECUTE {udf}('{table}');"))
    }

    /// `PREDICT udf('table') INTO 'dest'`.
    pub(crate) fn predict(
        db: &SystemCore,
        udf: &str,
        table: &str,
        dest: &str,
    ) -> DanaResult<PredictReport> {
        let out = db.execute_statement(&format!("PREDICT {udf}('{table}') INTO '{dest}';"))?;
        Ok(out.predict_report()?.clone())
    }

    /// `EVALUATE udf('table')` under the analytic's default metric.
    pub(crate) fn evaluate(db: &SystemCore, udf: &str, table: &str) -> DanaResult<EvalReport> {
        let out = db.execute_statement(&format!("EVALUATE {udf}('{table}');"))?;
        Ok(out.eval_report()?.clone())
    }

    pub(crate) fn linreg_heap(n: usize, d: usize) -> HeapFile {
        let truth: Vec<f32> = (0..d).map(|i| 0.3 * i as f32 - 0.5).collect();
        let mut b =
            HeapFileBuilder::new(Schema::training(d), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            let x: Vec<f32> = (0..d)
                .map(|i| (((k * 7 + i * 3) % 11) as f32 - 5.0) / 5.0)
                .collect();
            let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
            b.insert(&Tuple::training(&x, y)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn deploy_then_execute_via_sql() {
        let db = small_system();
        db.create_table("t", linreg_heap(500, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 25,
        })
        .unwrap();
        let info = db.deploy(&spec, "t").unwrap();
        assert!(info.num_threads >= 1);
        assert!(info.strider_listing.contains("readB"));
        assert_eq!(db.accelerator_names(), vec!["linearR"]);

        let out = train_sql(&db, "SELECT * FROM dana.linearR('t');").unwrap();
        let w = out.dense_model();
        // The planted model is 0.3i − 0.5.
        for (i, v) in w.iter().enumerate() {
            let truth = 0.3 * i as f32 - 0.5;
            assert!((v - truth).abs() < 0.05, "w[{i}] = {v}, truth {truth}");
        }
        assert!(out.timing.total_seconds > 0.0);
        assert!(out.timing.engine_seconds > 0.0);
    }

    #[test]
    fn deploy_from_source_text() {
        let db = small_system();
        db.create_table("t", linreg_heap(200, 10)).unwrap();
        let src = dana_dsl::zoo::linear_regression_source(DenseParams {
            n_features: 10,
            learning_rate: 0.1,
            merge_coef: 8,
            epochs: 5,
        });
        let info = db.deploy_source(&src, "fallback", "t").unwrap();
        assert_eq!(info.udf_name, "linearR");
        assert!(execute(&db, "linearR", "t").is_ok());
    }

    #[test]
    fn warm_cache_is_faster_than_cold() {
        let db = small_system();
        db.create_table("t", linreg_heap(3000, 16)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 16,
            learning_rate: 0.1,
            merge_coef: 8,
            epochs: 3,
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();

        db.clear_cache();
        let cold = execute(&db, "linearR", "t").unwrap();
        assert!(cold.timing.io_seconds > 0.0);

        db.prewarm("t").unwrap();
        let warm = execute(&db, "linearR", "t").unwrap();
        assert_eq!(warm.timing.io_seconds, 0.0);
        assert!(warm.timing.total_seconds < cold.timing.total_seconds);
        // Same pages, same schedule → identical models.
        assert_eq!(warm.models, cold.models);
    }

    #[test]
    fn drop_table_evicts_pages_and_invalidates_accelerators() {
        let db = small_system();
        db.create_table("t", linreg_heap(500, 8)).unwrap();
        db.prewarm("t").unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            ..Default::default()
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        assert!(db.pool_stats().hits + db.pool_stats().misses == 0);

        let summary = db.drop_table("t").unwrap();
        assert_eq!(summary.table, "t");
        assert!(summary.pages_evicted > 0, "prewarmed pages must be evicted");
        assert_eq!(summary.invalidated_udfs, vec!["linearR".to_string()]);

        // The stale accelerator refuses with a typed error — never a
        // dangling UnknownHeap.
        match execute(&db, "linearR", "t") {
            Err(DanaError::StaleAccelerator { udf, dropped_table }) => {
                assert_eq!(udf, "linearR");
                assert_eq!(dropped_table, "t");
            }
            other => panic!("expected StaleAccelerator, got {other:?}"),
        }
        assert_eq!(db.resident_pages(), 0);
        // Dropping again is a typed unknown-table error.
        assert!(matches!(
            db.drop_table("t"),
            Err(DanaError::Storage(
                dana_storage::StorageError::UnknownTable(_)
            ))
        ));
    }

    #[test]
    fn redeploy_after_drop_revives_udf() {
        let db = small_system();
        db.create_table("t", linreg_heap(300, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            ..Default::default()
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        db.drop_table("t").unwrap();
        assert!(execute(&db, "linearR", "t").is_err());

        // Re-create the table and redeploy: the UDF name works again.
        db.create_table("t", linreg_heap(300, 8)).unwrap();
        db.deploy(&spec, "t").unwrap();
        assert!(execute(&db, "linearR", "t").is_ok());
    }

    #[test]
    fn predict_materializes_and_evaluate_round_trips() {
        let db = small_system();
        db.create_table("t", linreg_heap(700, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 25,
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();

        // PREDICT before any training is a typed error.
        assert!(matches!(
            predict(&db, "linearR", "t", "p"),
            Err(DanaError::ModelNotTrained { .. })
        ));
        let trained = execute(&db, "linearR", "t").unwrap();

        // PREDICT materializes a real catalog table.
        let report = predict(&db, "linearR", "t", "p").unwrap();
        assert_eq!(report.rows_scored, 700);
        assert_eq!(report.output_table, "p");
        assert!(report.timing.total_seconds > 0.0);
        assert!(report.scoring.cycles > 0);

        // Scan it back: source columns + a prediction column holding the
        // CPU reference scores bit-exactly.
        let heap = db.table_snapshot("p").unwrap();
        assert_eq!(heap.tuple_count(), 700);
        assert_eq!(heap.schema().len(), 10); // 8 features + y + prediction
        let batch = heap.scan_batch().unwrap();
        let model = dana_ml::DenseModel(trained.dense_model().to_vec());
        let src_batch = db.table_snapshot("t").unwrap().scan_batch().unwrap();
        let reference = dana_ml::score_dense(&model, &src_batch, dana_ml::Link::Identity);
        let stored: Vec<f32> = batch.rows().map(|r| r[9]).collect();
        assert_eq!(stored, reference, "materialized predictions round-trip");

        // EVALUATE the prediction table (the trailing prediction column
        // is ignored; the label column is still read) and the source —
        // identical metric, equal to the whole-batch reference.
        let on_pred = evaluate(&db, "linearR", "p").unwrap();
        let on_src = evaluate(&db, "linearR", "t").unwrap();
        assert_eq!(on_pred.metric, MetricKind::Mse);
        assert_eq!(on_pred.value, on_src.value);
        assert_eq!(
            on_src.value,
            dana_ml::metrics::mse(&model, &src_batch).unwrap()
        );
        assert!(
            on_src.value < 0.01,
            "trained model must fit: {}",
            on_src.value
        );

        // The prediction table drops like any heap.
        let summary = db.drop_table("p").unwrap();
        assert_eq!(summary.table, "p");
        assert!(db.table_snapshot("p").is_err());
    }

    #[test]
    fn execute_statement_dispatches_all_three_forms() {
        let db = small_system();
        db.create_table("t", linreg_heap(300, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 20,
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();

        let out = db
            .execute_statement("SELECT * FROM dana.linearR('t');")
            .unwrap();
        assert!(matches!(out, QueryResponse::Trained(_)));
        assert!(out.timing().unwrap().total_seconds > 0.0);

        let out = db
            .execute_statement("PREDICT dana.linearR('t') INTO 'scores';")
            .unwrap();
        let QueryResponse::Predicted(p) = out else {
            panic!("expected predict outcome");
        };
        assert_eq!(p.output_table, "scores");
        assert!(db.table_snapshot("scores").is_ok());

        let out = db
            .execute_statement("EVALUATE dana.linearR('t', 'mse');")
            .unwrap();
        let QueryResponse::Evaluated(e) = out else {
            panic!("expected evaluate outcome");
        };
        assert_eq!(e.metric, MetricKind::Mse);
        assert!(e.value.is_finite());

        // Predicting into an existing table is a typed duplicate error.
        assert!(matches!(
            db.execute_statement("PREDICT dana.linearR('t') INTO 'scores';"),
            Err(DanaError::Storage(
                dana_storage::StorageError::DuplicateName(_)
            ))
        ));
    }

    #[test]
    fn dropping_source_stales_prediction_tables_and_scoring_caches() {
        let db = small_system();
        db.create_table("t", linreg_heap(400, 8)).unwrap();
        db.prewarm("t").unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            ..Default::default()
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        execute(&db, "linearR", "t").unwrap();
        predict(&db, "linearR", "t", "p").unwrap();
        // Pull the prediction table into the pool so the drop has pages
        // to evict.
        db.prewarm("p").unwrap();

        let summary = db.drop_table("t").unwrap();
        assert_eq!(summary.invalidated_udfs, vec!["linearR".to_string()]);
        assert_eq!(summary.stale_prediction_tables, vec!["p".to_string()]);

        // The stale prediction table refuses queries with a typed error…
        assert!(matches!(
            db.prewarm("p"),
            Err(DanaError::Storage(
                dana_storage::StorageError::StaleDerivedTable { .. }
            ))
        ));
        // …its pages are gone from the pool…
        assert_eq!(db.resident_pages(), 0, "stale pages must be evicted");
        // …the scoring cache died with the accelerator…
        assert!(matches!(
            predict(&db, "linearR", "p", "q"),
            Err(DanaError::StaleAccelerator { .. })
        ));
        // …and cleanup still works.
        assert!(db.drop_table("p").is_ok());
    }

    #[test]
    fn unknown_udf_or_table_errors() {
        let db = small_system();
        assert!(train_sql(&db, "SELECT * FROM dana.ghost('t');").is_err());
        db.create_table("t", linreg_heap(100, 4)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 4,
            ..Default::default()
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        assert!(execute(&db, "linearR", "missing_table").is_err());
    }

    fn deployed_db(rows: usize) -> Dana {
        let db = small_system();
        db.create_table("t", linreg_heap(rows, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 20,
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        db
    }

    /// The out-of-the-box system keeps the paper's semantics: every
    /// `backend = auto` query offloads to the simulated FPGA.
    #[test]
    fn default_profile_always_offloads() {
        let db = deployed_db(300);
        assert_eq!(db.hardware_profile().offload_threshold_rows, Some(0));
        let out = train_sql(&db, "SELECT * FROM dana.linearR('t');").unwrap();
        assert_eq!(out.backend, BackendKind::Fpga);
        assert!(out.timing.total_seconds > 0.0);
        assert!(out.timing.wall_seconds.is_none());
    }

    /// Once a model-based profile is installed, `auto` routes a tiny
    /// table to the CPU tier — and the CPU run is bit-identical.
    #[test]
    fn auto_routes_small_tables_to_cpu_once_profile_enabled() {
        let db = deployed_db(300);
        let fpga = train_sql(&db, "SELECT * FROM dana.linearR('t');").unwrap();
        assert_eq!(fpga.backend, BackendKind::Fpga);

        // Enable the throughput model: 300 rows is far below the default
        // profile's break-even (~tens of thousands of rows).
        let profile = db.hardware_profile().with_offload_threshold(None);
        db.set_hardware_profile(profile);
        let cpu = train_sql(&db, "SELECT * FROM dana.linearR('t');").unwrap();
        assert_eq!(cpu.backend, BackendKind::Cpu);
        assert_eq!(cpu.timing.total_seconds, 0.0);
        assert!(cpu.timing.wall_seconds.is_some());
        assert_eq!(cpu.models, fpga.models, "backends must agree bit-for-bit");

        // An explicit WITH override beats the advisor both ways.
        let forced = train_sql(
            &db,
            "SELECT * FROM dana.linearR('t') WITH (backend = fpga);",
        )
        .unwrap();
        assert_eq!(forced.backend, BackendKind::Fpga);
        assert_eq!(forced.models, fpga.models);
        let profile = db.hardware_profile().with_offload_threshold(Some(0));
        db.set_hardware_profile(profile);
        let forced_cpu =
            train_sql(&db, "SELECT * FROM dana.linearR('t') WITH (backend = cpu);").unwrap();
        assert_eq!(forced_cpu.backend, BackendKind::Cpu);
        assert_eq!(forced_cpu.models, fpga.models);
    }

    /// EXPLAIN prints the per-backend comparison without executing
    /// anything: the model store stays untrained.
    #[test]
    fn explain_compares_backends_without_executing() {
        let db = deployed_db(400);
        let out = db
            .execute_statement("EXPLAIN SELECT * FROM dana.linearR('t');")
            .unwrap();
        let cmp = out.comparison().unwrap();
        assert_eq!(cmp.rows, 400);
        assert_eq!(cmp.options.len(), 2);
        assert!(cmp.estimated_seconds(BackendKind::Fpga).is_some());
        assert!(cmp.estimated_seconds(BackendKind::Cpu).is_some());
        // Default profile: manual always-offload threshold pins FPGA.
        assert_eq!(cmp.chosen, BackendKind::Fpga);
        let text = cmp.to_string();
        assert!(text.contains("fpga"), "rendered comparison: {text}");
        assert!(text.contains("cpu"), "rendered comparison: {text}");

        // Nothing ran: scoring still refuses with ModelNotTrained.
        assert!(matches!(
            predict(&db, "linearR", "t", "p"),
            Err(DanaError::ModelNotTrained { .. })
        ));

        // A forced backend shows up as forced in the comparison.
        let forced = db
            .execute_statement("EXPLAIN SELECT * FROM dana.linearR('t') WITH (backend = cpu);")
            .unwrap();
        let forced = forced.comparison().unwrap();
        assert!(forced.forced);
        assert_eq!(forced.chosen, BackendKind::Cpu);
    }

    /// A gang (shards > 1) is FPGA-only: forcing the CPU tier is a typed
    /// query error, while `auto` quietly resolves to the FPGA.
    #[test]
    fn gang_pins_fpga_and_rejects_cpu_backend() {
        let db = deployed_db(600);
        match train_sql(
            &db,
            "SELECT * FROM dana.linearR('t') WITH (shards = 2, backend = cpu);",
        ) {
            Err(DanaError::Query(msg)) => {
                assert!(msg.contains("gang"), "unexpected message: {msg}")
            }
            other => panic!("expected typed query error, got {other:?}"),
        }
        // Even with a CPU-favoring profile, auto + shards stays FPGA.
        let profile = db.hardware_profile().with_offload_threshold(None);
        db.set_hardware_profile(profile);
        let out = train_sql(&db, "SELECT * FROM dana.linearR('t') WITH (shards = 2);").unwrap();
        assert_eq!(out.backend, BackendKind::Fpga);
        assert_eq!(out.shards, 2);
    }
}
