//! DAnA's execution engine (§5.2).
//!
//! The engine is a hierarchy: **threads** (architecturally identical, each
//! processing a different training tuple) contain **analytic clusters**
//! (ACs; the control hubs of Fig. 7a), each a fixed group of **8 analytic
//! units** (AUs; the pipelined compute elements of Fig. 7b). Threads'
//! results combine on a "computationally-enabled tree bus in accordance to
//! the merge function".
//!
//! The paper's Appendix B (the execution-engine ISA listing) is not part of
//! the available text, so this crate defines a concrete ISA faithful to
//! everything §5.2 *does* specify:
//!
//! * **Variable-Length Selective SIMD**: each scheduled [`isa::Step`] is an
//!   AC-level instruction; AUs not mentioned in a step execute a NOP
//!   ("Each AU within a cluster is expected to execute either a cluster
//!   level instruction ... or a no-operation"); per-AU source/destination
//!   specifiers ride along ("Finer details about the source type, source
//!   operands, and destination type can be stored in each individual AU").
//! * **Locality rules**: an AU reads operands from its own scratchpad or
//!   its cluster-mates for free (neighbor links + intra-AC shared bus);
//!   cross-cluster values must move via explicit `Mov` transfers on the
//!   inter-AC bus, with a per-step lane budget — the structural hazard the
//!   scheduler must honor, checked at execution time here.
//! * **ALU repertoire**: `+ − × ÷ > <`, `sigmoid`, `gaussian`, `sqrt`
//!   (Table 1's operation set), plus row `Gather` from model memory for
//!   LRMF (rows go back after the region, through `ModelWrite::Row`).
//!
//! There is one training executor: the **deploy-time-lowered SoA lockstep
//! executor** ([`lowered`]). The scheduled program is lowered once — at
//! deploy — into flat pre-resolved ops (raw scratchpad offsets, inlined
//! constants, statically staged hazards, pre-bound model shapes) and
//! executed group-at-a-time over a slot-major structure-of-arrays
//! scratchpad, one tight inner loop per op across all lockstep threads.
//! There is one tier — the paper's one discipline, lockstep threads over
//! a fixed schedule (§5.2, §6.1) — and it is safe because a region only
//! *reads* the model store (row `Gather`s) while nothing in it writes one:
//! model write-back runs after the region. The post-merge region is the
//! same loop over one lane. Tuples reach the SoA rows through
//! `dana_storage::load_lanes`, the one row-to-lane loader the scoring
//! executor shares: each value moves once, straight from its batch.
//! A statement's EXECUTE drives [`TrainingSession`]s from one guarded
//! epoch loop, `dana_parallel`'s gang loop, for one member or several;
//! [`ExecutionEngine::run_training`] is the quiet loop over one session
//! that the backends and tests call.
//!
//! The executor is functional *and* cycle-accurate: it computes real f32
//! results while charging the static schedule's cycle cost. There is one
//! oracle, outside this crate: `dana_ml::interp`, an interpreter of the
//! DSL program that folds every reduction in the order the compiler
//! recorded. The equivalence and differential suites hold the executor's
//! models bit-identical to it, and its cycle stats to the compiler's
//! performance estimator ([`ExecutionEngine::estimated_batch_cycles`] per
//! thread group, the ragged last group at its own size).

pub mod backend;
pub mod engine;
pub mod error;
pub mod fault;
pub mod isa;
pub mod lowered;

pub use backend::{Backend, BackendKind, BackendRun};
pub use engine::{
    ConvergenceCheck, EngineDesign, EngineStats, ExecutionEngine, MergePlan, ModelStore, ModelWrite,
};
pub use error::{EngineError, EngineResult};
pub use fault::{CancelToken, FaultEvents, FaultPlan, RetryPolicy, RunGuard};
pub use isa::{AluOp, EngineProgram, Loc, MicroOp, Src, Step, AUS_PER_AC};
pub use lowered::{lower, LoweredOp, LoweredProgram, TrainingSession};
