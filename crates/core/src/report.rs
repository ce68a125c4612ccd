//! Run reports — trained models plus the simulated-time breakdown, the
//! inference tier's scoring/evaluation results — and [`QueryResponse`],
//! the one type both front doors answer a statement with: the embedded
//! `SystemCore::execute_statement` returns it, and a served
//! `QueryReply` carries it as its `response`. Its accessors
//! (`report`, `predict_report`, `eval_report`, `point_report`,
//! `comparison`) are the
//! only typed readers; asking one for the wrong kind is a
//! [`DanaError::UnexpectedResponse`], never a panic.

use crate::advisor::StrategyComparison;
use crate::error::{DanaError, DanaResult};
use dana_engine::{BackendKind, EngineStats};
use dana_infer::{MetricKind, ScoringStats};
use dana_strider::AccessStats;

/// Seconds. Most timing fields are *simulated* seconds from the cycle
/// model; [`DanaTiming::wall_seconds`] alone is measured wall clock.
pub type Seconds = f64;

/// Where the time went. The first six fields are **simulated** seconds
/// (cycle model + disk/AXI models); `total_seconds` composes them with
/// the overlap semantics of [`crate::runtime`]. `wall_seconds` is the
/// one **measured** field, set only by the native CPU backend — the two
/// units are deliberately separate slots so a gang's simulated total and
/// a CPU run's stopwatch can never be summed or swapped by accident.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DanaTiming {
    /// Disk → buffer pool (misses only; zero in the warm-cache setting for
    /// resident tables).
    pub io_seconds: Seconds,
    /// Buffer pool → FPGA page streaming.
    pub axi_seconds: Seconds,
    /// Strider extraction (already divided across parallel Striders).
    pub strider_seconds: Seconds,
    /// Page decompression (the scan tier's codec), upstream of AXI.
    /// Zero when the scan read raw pages.
    pub decompress_seconds: Seconds,
    /// Execution-engine compute (all threads).
    pub engine_seconds: Seconds,
    /// One-time deployment/configuration transfer.
    pub setup_seconds: Seconds,
    /// End-to-end, with pipeline overlap applied. Zero for CPU-backend
    /// runs: nothing was simulated.
    pub total_seconds: Seconds,
    /// Measured wall-clock seconds of the host execution loop — `Some`
    /// only for CPU-backend runs, `None` whenever the run was simulated.
    pub wall_seconds: Option<Seconds>,
}

impl DanaTiming {
    /// A wall-clock-only timing for a native CPU run: every simulated
    /// slot stays zero (nothing was simulated).
    pub fn wall_only(wall: Seconds) -> DanaTiming {
        DanaTiming {
            wall_seconds: Some(wall),
            ..DanaTiming::default()
        }
    }
}

/// The result of one accelerated training run.
#[derive(Debug, Clone)]
pub struct DanaReport {
    /// Trained model values, one vec per model variable (row-major), in
    /// the UDF's declaration order.
    pub models: Vec<Vec<f32>>,
    /// Model variable names aligned with `models`.
    pub model_names: Vec<String>,
    pub epochs_run: u32,
    pub converged_early: bool,
    /// Threads the deployed design runs.
    pub num_threads: u16,
    /// Gang members (page-range shards) the query ran across; 1 for a
    /// serial query.
    pub shards: u16,
    /// The execution substrate that ran this query.
    pub backend: BackendKind,
    pub timing: DanaTiming,
    pub engine: EngineStats,
    pub access: AccessStats,
}

impl DanaReport {
    /// The model for a named variable.
    pub fn model(&self, name: &str) -> Option<&[f32]> {
        self.model_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.models[i].as_slice())
    }

    /// Single-model convenience (dense algorithms).
    pub fn dense_model(&self) -> &[f32] {
        assert_eq!(self.models.len(), 1, "UDF has {} models", self.models.len());
        &self.models[0]
    }
}

/// The result of one PREDICT: a materialized prediction table.
#[derive(Debug, Clone)]
pub struct PredictReport {
    pub udf: String,
    /// The table that was scored.
    pub source_table: String,
    /// The materialized prediction table created in the catalog.
    pub output_table: String,
    pub rows_scored: u64,
    /// Lockstep lanes the scoring program ran across.
    pub lanes: u16,
    /// Gang members (page-range shards) the scan ran across; 1 = serial.
    pub shards: u16,
    /// The execution substrate that ran the scoring scan.
    pub backend: BackendKind,
    pub scoring: ScoringStats,
    pub timing: DanaTiming,
}

/// The result of one point-form PREDICT: inline predictions for the
/// statement's literal rows. Nothing is materialized and no heap scan
/// runs — the rows were bound straight into the cached scoring program.
#[derive(Debug, Clone)]
pub struct PointReport {
    pub udf: String,
    /// One prediction per VALUES row, in statement order.
    pub predictions: Vec<f32>,
    /// Lockstep lanes the scoring program ran across.
    pub lanes: u16,
    /// The execution substrate that scored the rows.
    pub backend: BackendKind,
    /// Whether the reply was served from the prediction cache (set by
    /// the serving tier; the core scorer always reports `false`).
    pub cached: bool,
    pub scoring: ScoringStats,
    pub timing: DanaTiming,
}

/// The result of one EVALUATE: an in-database quality metric.
#[derive(Debug, Clone)]
pub struct EvalReport {
    pub udf: String,
    pub table: String,
    pub metric: MetricKind,
    pub value: f64,
    pub rows_scored: u64,
    pub lanes: u16,
    /// Gang members (page-range shards) the scan ran across; 1 = serial.
    pub shards: u16,
    /// The execution substrate that ran the scoring scan.
    pub backend: BackendKind,
    pub scoring: ScoringStats,
    pub timing: DanaTiming,
}

/// What any front-door statement answers, through either door:
/// [`crate::SystemCore::execute_statement`] on the caller's thread, or a
/// served reply's `response`. One accessor set reads it; a mismatch is a
/// typed [`DanaError::UnexpectedResponse`].
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// EXECUTE/train: the trained model and its timing.
    Trained(DanaReport),
    /// PREDICT … INTO: the materialized prediction table's report.
    Predicted(PredictReport),
    /// EVALUATE: the computed metric.
    Evaluated(EvalReport),
    /// Point-form PREDICT (VALUES ...): inline predictions, no scan.
    Point(PointReport),
    /// `EXPLAIN <stmt>`: the advisor's per-backend comparison. Nothing
    /// was executed, so there is no timing.
    Explained(StrategyComparison),
    /// `EXPLAIN ANALYZE <stmt>`: the inner statement's response plus its
    /// lifecycle trace and (where the advisor can price it) the
    /// prediction the observed run can be checked against.
    Analyzed(Box<AnalyzeReport>),
    /// `SHOW STATS`: a snapshot of the metrics registry (a server's adds
    /// its admission queue, accelerator pool and sessions).
    Stats(dana_obs::StatsSnapshot),
}

impl QueryResponse {
    /// End-to-end timing, whichever statement ran; `None` for EXPLAIN
    /// and SHOW STATS (nothing executed). An EXPLAIN ANALYZE reports its
    /// inner statement's timing.
    pub fn timing(&self) -> Option<&DanaTiming> {
        match self {
            QueryResponse::Trained(r) => Some(&r.timing),
            QueryResponse::Predicted(p) => Some(&p.timing),
            QueryResponse::Point(p) => Some(&p.timing),
            QueryResponse::Evaluated(e) => Some(&e.timing),
            QueryResponse::Explained(_) | QueryResponse::Stats(_) => None,
            QueryResponse::Analyzed(a) => a.outcome.timing(),
        }
    }

    /// End-to-end simulated seconds: [`QueryResponse::timing`]'s total,
    /// zero where nothing executed and for CPU-tier runs (nothing
    /// simulated — their stopwatch is `timing.wall_seconds`).
    pub fn sim_seconds(&self) -> Seconds {
        self.timing().map_or(0.0, |t| t.total_seconds)
    }

    /// The substrate that ran the statement (`None` for EXPLAIN, which
    /// runs nothing — its *recommended* backend is in the comparison).
    pub fn backend(&self) -> Option<BackendKind> {
        match self {
            QueryResponse::Trained(r) => Some(r.backend),
            QueryResponse::Predicted(p) => Some(p.backend),
            QueryResponse::Point(p) => Some(p.backend),
            QueryResponse::Evaluated(e) => Some(e.backend),
            QueryResponse::Explained(_) | QueryResponse::Stats(_) => None,
            QueryResponse::Analyzed(a) => a.outcome.backend(),
        }
    }

    /// The training report.
    pub fn report(&self) -> DanaResult<&DanaReport> {
        match self {
            QueryResponse::Trained(r) => Ok(r),
            other => Err(other.unexpected("training")),
        }
    }

    /// The prediction report.
    pub fn predict_report(&self) -> DanaResult<&PredictReport> {
        match self {
            QueryResponse::Predicted(p) => Ok(p),
            other => Err(other.unexpected("predict")),
        }
    }

    /// The evaluation report.
    pub fn eval_report(&self) -> DanaResult<&EvalReport> {
        match self {
            QueryResponse::Evaluated(e) => Ok(e),
            other => Err(other.unexpected("evaluate")),
        }
    }

    /// The point-prediction report.
    pub fn point_report(&self) -> DanaResult<&PointReport> {
        match self {
            QueryResponse::Point(p) => Ok(p),
            other => Err(other.unexpected("point-predict")),
        }
    }

    /// The `EXPLAIN` comparison.
    pub fn comparison(&self) -> DanaResult<&StrategyComparison> {
        match self {
            QueryResponse::Explained(c) => Ok(c),
            other => Err(other.unexpected("explain")),
        }
    }

    /// The typed accessor-mismatch error, naming both kinds.
    fn unexpected(&self, expected: &'static str) -> DanaError {
        let got = match self {
            QueryResponse::Trained(_) => "training",
            QueryResponse::Predicted(_) => "predict",
            QueryResponse::Evaluated(_) => "evaluate",
            QueryResponse::Point(_) => "point-predict",
            QueryResponse::Explained(_) => "explain",
            QueryResponse::Analyzed(_) => "explain-analyze",
            QueryResponse::Stats(_) => "stats",
        };
        DanaError::UnexpectedResponse { expected, got }
    }
}

/// What `EXPLAIN ANALYZE <stmt>` returns: the executed statement's
/// response, the lifecycle trace of the run, and — for statements the
/// advisor can price — the predicted per-backend comparison, so observed
/// stage times sit next to the estimate they calibrate.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    pub outcome: QueryResponse,
    pub trace: dana_obs::QueryTrace,
    pub comparison: Option<StrategyComparison>,
}

impl AnalyzeReport {
    /// Renders the span tree, followed by the advisor comparison when
    /// one exists — the `EXPLAIN ANALYZE` result surface.
    pub fn render(&self) -> String {
        let mut out = self.trace.render();
        if let Some(cmp) = &self.comparison {
            out.push('\n');
            out.push_str(&cmp.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> DanaReport {
        DanaReport {
            models: vec![vec![1.0, 2.0], vec![3.0]],
            model_names: vec!["w".into(), "b".into()],
            epochs_run: 1,
            converged_early: false,
            num_threads: 4,
            shards: 1,
            backend: BackendKind::Fpga,
            timing: DanaTiming::default(),
            engine: EngineStats::default(),
            access: AccessStats::default(),
        }
    }

    /// Satellite regression: simulated seconds and measured wall seconds
    /// live in distinct slots and never overload each other. A simulated
    /// (FPGA/gang) timing has no wall time; a CPU wall-only timing keeps
    /// every simulated slot at zero.
    #[test]
    fn simulated_and_wall_seconds_are_distinct_slots() {
        let simulated = DanaTiming {
            engine_seconds: 0.25,
            total_seconds: 0.4,
            ..DanaTiming::default()
        };
        assert!(simulated.wall_seconds.is_none());

        let cpu = DanaTiming::wall_only(0.0123);
        assert_eq!(cpu.wall_seconds, Some(0.0123));
        assert_eq!(
            cpu.total_seconds, 0.0,
            "wall time must not leak into the simulated total"
        );
        assert_eq!(cpu.engine_seconds, 0.0);
        assert_eq!(cpu.io_seconds, 0.0);
        assert_eq!(cpu.setup_seconds, 0.0);

        // And the separation survives serialization.
        let json = serde_json::to_string(&cpu).unwrap();
        let back: DanaTiming = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cpu);
    }

    #[test]
    fn model_lookup_by_name() {
        let r = report();
        assert_eq!(r.model("w"), Some(&[1.0, 2.0][..]));
        assert_eq!(r.model("b"), Some(&[3.0][..]));
        assert_eq!(r.model("nope"), None);
    }

    #[test]
    #[should_panic(expected = "2 models")]
    fn dense_model_requires_single_model() {
        let _ = report().dense_model();
    }
}
