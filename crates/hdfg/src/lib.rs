//! The translator: UDF → hierarchical DataFlow Graph (hDFG).
//!
//! "DAnA's translator is the front-end of the compiler, which converts the
//! user-provided UDF to a hierarchical DataFlow Graph. ... Each node of the
//! hDFG represents a multi-dimensional operation, which can be decomposed
//! into smaller atomic sub-nodes. An atomic sub-node is a single operation
//! performed by the accelerator." (§4.4)
//!
//! The graph built here is exactly Fig. 3's: leaf nodes for declared data,
//! one operation node per DSL statement, an explicit [`HOp::Merge`] node at
//! the thread-combination boundary, and regions marking which nodes run
//! per-tuple (replicated across threads) versus post-merge (once per
//! batch). Every node knows its output [`dana_dsl::Dims`] (inference already ran in
//! the DSL layer and is re-used verbatim). The compiler schedules the graph
//! and prices each design from that schedule, not from the graph itself.

pub mod graph;
pub mod translate;

pub use graph::{HNode, HOp, Hdfg, NodeId, Region};
pub use translate::translate;
