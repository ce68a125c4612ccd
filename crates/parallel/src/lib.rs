//! # dana-parallel — intra-query data parallelism
//!
//! DAnA scales one analytic across many lockstep *threads* and merges
//! their partials with algorithm-aware merge units (§5.2); the
//! accelerator pool (the serving tier) scales across *queries*. This
//! crate closes the gap between them: **one query, many accelerators** —
//! the same model-averaging aggregation pattern Bismarck shows makes
//! data-parallel in-RDBMS training practical, lifted to whole gang
//! members:
//!
//! ```text
//!              heap snapshot
//!                   │ ShardPlan (contiguous page ranges, ±1 page)
//!       ┌───────────┼───────────┐
//!       ▼           ▼           ▼
//!   shard 0      shard 1     shard k-1        (gang lease: k instances,
//!  TupleSource  TupleSource  TupleSource       atomically acquired)
//!       │           │           │
//!   TrainingSession per shard — one epoch each, in lockstep
//!       └───────────┼───────────┘
//!                   ▼
//!            MergeBuffer (epoch boundary)
//!      dense: tuple-weighted average · LRMF: row ownership
//!                   │ merged global model
//!                   └──► next epoch (or done)
//! ```
//!
//! Determinism contract:
//! * partials merge **in shard-index order**, whatever order shards
//!   complete in ([`merge::MergeBuffer`] buffers by index);
//! * a one-shard training gang is the **identity merge** — bit-identical
//!   (models *and* stats) to the engine's quiet loop
//!   (`ExecutionEngine::run_training`). Every EXECUTE in the system is a
//!   [`train_gang_guarded`] call, serial ones included, with one fault
//!   policy: a faulted member re-runs its epoch from the epoch-start
//!   global model after a bounded backoff;
//! * a one-member **scoring** gang is not merely bit-identical to serial
//!   scoring — it *is* the serial path: [`score_gang_concat`] and
//!   [`evaluate_gang`] run a lone member inline on the caller's thread,
//!   return its prediction vector without a copy, and spawn only for
//!   `k > 1`. Every serial PREDICT/EVALUATE in the system is this call;
//! * parallel scoring concatenates shard outputs in shard order, which is
//!   source page order — bit-identical to serial scoring for every shard
//!   count, because per-tuple scoring math is lane- and
//!   boundary-invariant.

pub mod error;
pub mod gang;
pub mod merge;
pub mod shard;

pub use error::{ParallelError, ParallelResult};
pub use gang::{
    evaluate_gang, materialize_gang, score_gang_concat, train_gang, train_gang_guarded,
    GangOutcome, ShardEval,
};
pub use merge::{MergeBuffer, MergeSpec, ModelMergeKind, ShardOwnership};
pub use shard::{packed_tuple_splits, ReplaySource, ShardPlan, ShardRange};
