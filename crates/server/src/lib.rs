//! # dana-server — the concurrent query-serving subsystem
//!
//! DAnA's premise is an accelerator *inside a live RDBMS* (§1): analytics
//! queries arrive alongside regular traffic and contend for a fixed set of
//! FPGA resources. This crate is the serving tier in front of the one
//! system core:
//!
//! * [`SystemCore`] (re-exported from `dana`, where it lives) — catalog,
//!   sharded [`dana_storage::SharedBufferPool`], the statement binder and
//!   the plan executor. An embedded `dana::Dana` is the same core with a
//!   one-shard pool on the caller's thread; here it sits behind admission
//!   and leases, and every request is lowered to its plan once, at
//!   submit, by the same `SystemCore::lower`. Replies carry the embedded
//!   door's [`QueryResponse`];
//! * [`SessionManager`] — per-client sessions with query accounting;
//! * admission control ([`AdmissionConfig`]) — a bounded queue with FIFO
//!   and shortest-job-first policies, SJF ordered by the deploy-time
//!   `DanaTiming` cost estimate;
//! * [`AcceleratorPool`] — N independent accelerator instances behind a
//!   lease scheduler that doubles as the simulated-time list scheduler
//!   (greedy least-loaded placement, makespan and utilization reports).
//!   Every statement holds one [`GangLease`] of `plan.shards ≥ 1`
//!   instances; there is no separate single-instance lease;
//! * [`DanaServer`] — the front door: worker threads (vendored crossbeam
//!   channels carry replies) execute admitted queries in parallel on
//!   leased instances.
//!
//! Served execution is **bit-identical** to embedded execution — it is the
//! same plan on the same executor; the equivalence suite holds an 8-shard
//! served pool to the 1-shard embedded one.

pub mod accel;
pub mod admission;
pub mod error;
pub mod server;
pub mod session;

pub use accel::{AcceleratorPool, GangLease, Health, PoolHealth, PoolUtilization};
pub use admission::{AdmissionConfig, Priority, QueueStats, SchedPolicy};
pub use dana::{EngineCacheStats, QueryCtx, QueryResponse, SystemCore, SystemCoreConfig};
pub use error::{ServerError, ServerResult};
pub use server::{DanaServer, QueryReply, QueryRequest, ServerConfig, Ticket};
pub use session::{SessionId, SessionManager, SessionStats};
