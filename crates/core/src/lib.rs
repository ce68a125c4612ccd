//! # DAnA — in-RDBMS hardware acceleration of advanced analytics
//!
//! A full-system Rust reproduction of *"In-RDBMS Hardware Acceleration of
//! Advanced Analytics"* (Mahajan et al., PVLDB 11(11), 2018).
//!
//! DAnA turns a machine-learning UDF — written in a Python-embedded DSL and
//! invoked from SQL — into an FPGA accelerator whose **Striders** walk raw
//! buffer-pool pages on-chip, feeding a multi-threaded selective-SIMD
//! **execution engine** that trains the model. This crate is the system
//! tying the whole stack together:
//!
//! ```text
//!  DSL (dana-dsl) ──► hDFG (dana-hdfg) ──► compiler (dana-compiler)
//!                                              │ engine design + Strider program
//!                                              ▼
//!  SQL ─lex─► tokens ─parse─► Statement{Call} ──[SystemCore::lower]──► PhysicalPlan
//!                     │ catalog (dana-storage)                          │
//!                     ▼                                                 ▼
//!               buffer pool ◄──────────────────────────────── [SystemCore::execute]
//!                     │ pages ──AXI──► access engine (dana-strider)
//!                                            │ tuples
//!                                            ▼
//!                        execution engine (dana-engine) ──► trained model
//! ```
//!
//! [`SystemCore`] is the one implementation: catalog, buffer pool, the
//! statement binder and the plan executor, usable from any thread.
//! [`Dana`] is that core embedded — a one-shard pool, statements run on
//! the caller's thread. Both front doors — the embedded
//! [`SystemCore::execute_statement`] and the serving tier (`dana-server`),
//! which puts admission control and accelerator leases in front of the
//! same core — lower a statement through [`SystemCore::lower`] and answer
//! with one [`QueryResponse`].
//!
//! ## Quickstart
//!
//! ```
//! use dana::prelude::*;
//!
//! // A database with a training table.
//! let db = Dana::default_system();
//! let workload = dana_workloads::workload("Patient").unwrap().scaled(0.01);
//! let table = dana_workloads::generate(&workload, 32 * 1024, 42).unwrap();
//! db.create_table("patient_data", table.heap).unwrap();
//!
//! // The UDF (≈15 DSL lines) — deploy compiles it to an accelerator.
//! let spec = workload.spec();
//! db.deploy(&spec, "patient_data").unwrap();
//!
//! // Run it from SQL.
//! let out = db.execute_statement("SELECT * FROM dana.linearR('patient_data');").unwrap();
//! assert!(out.report().unwrap().timing.total_seconds > 0.0);
//! ```

pub mod advisor;
pub mod analytic;
pub mod core;
pub mod error;
pub mod exec;
pub mod pipeline;
pub mod plan;
pub mod query;
pub mod report;
pub mod runtime;
pub mod source;

pub use crate::core::{
    DeployInfo, DropSummary, EngineCacheStats, FrontDoorWalls, QueryCtx, SystemCore,
    SystemCoreConfig,
};
pub use advisor::{BackendChoice, BackendOption, HardwareProfile, StrategyComparison, Workload};
pub use analytic::{
    analytic_dana, analytic_dana_threads, analytic_external, analytic_greenplum, analytic_madlib,
    compile_workload, AnalyticTiming, SystemParams,
};
pub use dana_engine::{Backend, BackendKind};
pub use dana_infer::{score_batch, MetricKind, ScoringRecipe, ScoringStats};
pub use dana_obs::{MetricsRegistry, QueryTrace, StatsSnapshot, TraceSpan};
pub use dana_parallel::{ParallelError, ShardPlan, ShardRange};
pub use dana_scan::{
    compress_page, decompress_page, select_slots, CmpOp, ForPage, LaneScratch, Predicate,
    ScanSidecar, ScanSpec, CODEC_FOR, CODEC_RAW,
};
pub use error::{DanaError, DanaResult};
pub use exec::{CachedAccelerator, ShardArtifacts, TrainedModels};
pub use pipeline::{Dana, Work};
pub use plan::{PhysicalPlan, PlanOp, Wrap};
pub use query::{parse_statement, Call, Statement, WithOptions};
pub use report::{
    AnalyzeReport, DanaReport, DanaTiming, EvalReport, PointReport, PredictReport, QueryResponse,
};
pub use runtime::ExecutionMode;
pub use source::{ScanOutcome, ScanState, SharedPageStreamSource};

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use crate::advisor::{BackendChoice, HardwareProfile, StrategyComparison};
    pub use crate::core::DeployInfo;
    pub use crate::pipeline::Dana;
    pub use crate::report::{DanaReport, DanaTiming, QueryResponse};
    pub use crate::{DanaError, DanaResult};
    pub use dana_dsl::{parse_udf, AlgoSpec, MergeOp};
    pub use dana_engine::BackendKind;
    pub use dana_fpga::FpgaSpec;
    pub use dana_ml::{Algorithm, TrainConfig};
    pub use dana_storage::{BufferPoolConfig, DiskModel, HeapFile, Schema, Tuple};
}
