//! # dana-infer — the in-database inference tier
//!
//! Training (EXECUTE) leaves a model in the catalog; this crate is what
//! makes that model *usable without leaving the engine*, the missing half
//! of the paper's in-RDBMS analytics premise (MADlib-style workflows
//! train **and** score in-database; Bismarck treats both as first-class
//! in-RDBMS operations):
//!
//! ```text
//!  DEPLOY ──► derive_recipe(spec) ──────────────┐   (scoring lowering,
//!                                               ▼    cached on the entry)
//!  EXECUTE ─► trained model values ──► ScoringProgram::bind
//!                                               │
//!  PREDICT/EVALUATE ─► pages ─► TupleSource ─► SoA lockstep scorer
//!                                               │
//!                     ┌─────────────────────────┴───────────────┐
//!                     ▼                                         ▼
//!       materialized prediction table               streamed metric (mse,
//!       (HeapFileBuilder + derived schema)          log_loss, accuracy, rmse)
//! ```
//!
//! Predictions are held **bit-identical** to the `dana_ml::scorer` CPU
//! reference across execution modes and lockstep lane counts; streamed
//! metrics are bit-identical to the whole-batch `dana_ml::metrics`.

pub mod error;
pub mod executor;
pub mod materialize;
pub mod scoring;

pub use error::{InferError, InferResult};
pub use executor::{
    evaluate_source, evaluate_source_partial, score_batch, score_source, MetricPartial,
    ScoringCost, ScoringStats,
};
pub use materialize::{
    build_prediction_heap, build_prediction_heap_selected, prediction_schema, Materialization,
    PREDICTION_COLUMN,
};
pub use scoring::{derive_recipe, MetricKind, ScoringProgram, ScoringRecipe};
