//! The bound physical plan: everything one request needs decided before it
//! runs, decided once.
//!
//! [`crate::SystemCore::bind`] lowers a parsed [`crate::Call`] — whose
//! `op` already *is* the plan's [`PlanOp`] — into a
//! [`PhysicalPlan`]: operation, scan, gang size clamped to the table's
//! pages and the caller's lease capacity, and the substrate the advisor
//! (or a `WITH (backend = …)` override) picked — and
//! [`crate::SystemCore::execute`] runs it. `bind` is the only place a
//! plan is made; a caller that needs an unusual plan binds a statement and
//! edits the fields. The embedded front door
//! binds and runs on the caller's thread; the serving tier binds at submit
//! and hands the plan to a worker, which leases exactly `shards`
//! accelerator instances when `backend` is the FPGA tier.

use dana_engine::BackendKind;
use dana_infer::MetricKind;
use dana_scan::ScanSpec;

use crate::advisor::StrategyComparison;

/// What a call asks for and its plan does with the tuples it scans — each
/// one a statement form the parser produces.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Train the UDF's model over the scan and store the result for later
    /// scoring.
    Train,
    /// Score the scan and materialize the predictions as table `dest`.
    PredictInto { dest: String },
    /// Score the scan and fold an in-database metric (`None` = the
    /// analytic's default) over the `(prediction, label)` stream.
    Evaluate { metric: Option<MetricKind> },
    /// Score literal rows straight through the cached scoring program: no
    /// scan, no buffer-pool traffic, nothing materialized.
    Point { rows: Vec<Vec<f32>> },
}

/// How a plan's run is reported: plainly, with its lifecycle trace, or
/// not run at all.
#[derive(Debug, Clone)]
pub enum Wrap {
    /// Run; reply with the outcome.
    None,
    /// `WITH (trace = on)`: run; reply with the outcome and its trace.
    Trace,
    /// `EXPLAIN`: do not run; reply with the advisor's comparison.
    Explain(Box<StrategyComparison>),
    /// `EXPLAIN ANALYZE`: run traced; reply with outcome, trace and the
    /// prediction the observed run calibrates.
    Analyze(Box<StrategyComparison>),
}

/// One request, bound.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub op: PlanOp,
    pub udf: String,
    /// The scanned table (empty for [`PlanOp::Point`], which scans none).
    pub table: String,
    /// `WHERE`/`COLUMNS` pushdown, if any.
    pub scan: Option<ScanSpec>,
    /// Gang size: `> 1` runs page-range shards on that many members.
    pub shards: u16,
    pub backend: BackendKind,
    pub wrap: Wrap,
}

impl PhysicalPlan {
    /// Whether running this plan occupies accelerator instances: CPU-tier
    /// runs and `EXPLAIN` never touch the pool.
    pub fn needs_accelerator(&self) -> bool {
        self.backend == BackendKind::Fpga && !matches!(self.wrap, Wrap::Explain(_))
    }
}
