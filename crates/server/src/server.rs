//! The serving front door: [`DanaServer`].
//!
//! Lifecycle of one query (the Fig. 2 flow, lifted to a serving tier):
//!
//! ```text
//!  client ──open_session──► SessionManager
//!    │ submit(SQL / UDF / spec): parsed — or, for a typed request,
//!    │ built — into the one `Call` shape and bound to its plan, on
//!    │ the submitting thread (a hostile string is a typed error here)
//!    ▼
//!  AdmissionQueue  (bounded; FIFO or SJF by DanaTiming cost estimate)
//!    │ pop
//!    ▼
//!  worker thread ──lease──► AcceleratorPool (N FpgaSpec instances)
//!    │ run on SystemCore (shared catalog + sharded buffer pool)
//!    ▼
//!  QueryReply ──crossbeam channel──► Ticket::wait
//! ```
//!
//! DDL (create/drop/prewarm/deploy) executes synchronously on the caller's
//! thread — it needs no accelerator, and the catalog's own locking already
//! serializes it correctly against in-flight queries. Queries (anything
//! that trains) are admitted, scheduled, and executed on a leased
//! accelerator by the worker pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver};

use dana::{
    parse_statement, AnalyzeReport, BackendChoice, Call, DanaReport, DanaResult, DeployInfo,
    DropSummary, EvalReport, ExecutionMode, FrontDoorWalls, MetricKind, PhysicalPlan, PlanOp,
    PointReport, PredictReport, QueryCtx, QueryTrace, Statement, StatementOutcome, StatsSnapshot,
    StrategyComparison, SystemCore, SystemCoreConfig, WithOptions, Wrap,
};
use dana_engine::{CancelToken, FaultPlan, RetryPolicy};
use dana_obs::StatEntry;
use dana_storage::HeapFile;

use crate::accel::{AcceleratorPool, PoolHealth, PoolUtilization};
use crate::admission::{AdmissionConfig, AdmissionQueue, Priority, QueueStats};
use crate::error::{ServerError, ServerResult};
use crate::session::{SessionId, SessionManager, SessionStats};

/// A query a client can submit for scheduled execution.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Any front-door SQL statement: `SELECT * FROM dana.<udf>(…)`,
    /// `PREDICT … INTO …`, or `EVALUATE …`.
    Sql(String),
    /// Direct invocation of a deployed UDF (full-Strider mode).
    /// `shards > 1` runs it gang-parallel on that many pool instances
    /// (acquired atomically; clamped to the pool size).
    RunUdf {
        udf: String,
        table: String,
        shards: Option<u16>,
    },
    /// Ad-hoc compile-and-train in a specific execution mode (the
    /// ablation path; nothing is stored in the catalog).
    TrainSpec {
        spec: dana_dsl::AlgoSpec,
        table: String,
        mode: ExecutionMode,
    },
    /// Score `table` with `udf`'s latest trained model and materialize
    /// the predictions as catalog table `into`.
    Predict {
        udf: String,
        table: String,
        into: String,
        shards: Option<u16>,
    },
    /// Score `table` and compute an in-database quality metric.
    Evaluate {
        udf: String,
        table: String,
        metric: Option<MetricKind>,
        shards: Option<u16>,
    },
    /// The **point fast path**: score inline parameter rows against
    /// `udf`'s latest trained model — no heap scan, no buffer-pool
    /// traffic, no materialization, and no accelerator lease when the
    /// advisor routes it to the CPU tier. Admitted `Interactive`, so
    /// it is never starved behind gang training jobs. The typed twin
    /// of `PREDICT dana.<udf>(VALUES (…), …)`.
    PredictPoint { udf: String, rows: Vec<Vec<f32>> },
}

/// What a finished query produced: training, scoring, and evaluation
/// queries return different artifacts.
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// EXECUTE/train: the trained model and its timing.
    Trained(DanaReport),
    /// PREDICT: the materialized prediction table's report.
    Predicted(PredictReport),
    /// EVALUATE: the computed metric.
    Evaluated(EvalReport),
    /// EXPLAIN: the advisor's per-backend comparison; nothing executed.
    Explained(StrategyComparison),
    /// EXPLAIN ANALYZE: the inner statement's outcome plus its lifecycle
    /// trace (and the advisor prediction it calibrates).
    Analyzed(Box<AnalyzeReport>),
    /// Point-form PREDICT: inline predictions, nothing materialized.
    Point(PointReport),
    /// SHOW STATS: the server-wide metrics snapshot (core registry +
    /// admission queue + accelerator pool + sessions).
    Stats(StatsSnapshot),
}

impl QueryResponse {
    /// End-to-end simulated seconds, whichever query type ran. Zero for
    /// EXPLAIN / SHOW STATS (nothing executed) and for CPU-tier runs
    /// (nothing simulated — their stopwatch lives in
    /// `timing.wall_seconds`). An EXPLAIN ANALYZE charges its inner
    /// statement's simulated total (it really ran on the lease).
    pub fn sim_seconds(&self) -> f64 {
        match self {
            QueryResponse::Trained(r) => r.timing.total_seconds,
            QueryResponse::Predicted(p) => p.timing.total_seconds,
            QueryResponse::Evaluated(e) => e.timing.total_seconds,
            QueryResponse::Point(p) => p.timing.total_seconds,
            QueryResponse::Explained(_) | QueryResponse::Stats(_) => 0.0,
            QueryResponse::Analyzed(a) => {
                a.outcome.timing().map(|t| t.total_seconds).unwrap_or(0.0)
            }
        }
    }

    /// Short kind name for typed-accessor mismatch errors.
    fn kind(&self) -> &'static str {
        match self {
            QueryResponse::Trained(_) => "training",
            QueryResponse::Predicted(_) => "predict",
            QueryResponse::Evaluated(_) => "evaluate",
            QueryResponse::Point(_) => "point-predict",
            QueryResponse::Explained(_) => "explain",
            QueryResponse::Analyzed(_) => "explain-analyze",
            QueryResponse::Stats(_) => "stats",
        }
    }
}

/// A finished query, as delivered to the submitting client.
#[derive(Debug, Clone)]
pub struct QueryReply {
    pub response: QueryResponse,
    /// Which accelerator-pool instance ran the query (a gang's first
    /// member for sharded queries). `usize::MAX` for lease-free work —
    /// EXPLAIN and CPU-tier runs never touch the pool.
    pub accelerator: usize,
    /// Every pool instance the query's gang held, ascending (one entry
    /// for serial queries; empty for lease-free EXPLAIN/CPU-tier work).
    pub gang: Vec<usize>,
    /// Wall-clock seconds spent waiting in the admission queue.
    pub queue_seconds: f64,
    /// Wall-clock seconds spent executing on the worker.
    pub exec_seconds: f64,
    /// The query-lifecycle trace, present when the statement opted in
    /// with `WITH (trace = on)`. (`EXPLAIN ANALYZE` carries its trace
    /// inside [`QueryResponse::Analyzed`] instead.)
    pub trace: Option<QueryTrace>,
}

impl QueryReply {
    /// The training report, or the typed
    /// [`ServerError::UnexpectedReply`] for other reply kinds.
    pub fn try_report(&self) -> ServerResult<&DanaReport> {
        match &self.response {
            QueryResponse::Trained(r) => Ok(r),
            other => Err(unexpected("training", other)),
        }
    }

    /// The prediction report, or the typed mismatch error.
    pub fn try_predict_report(&self) -> ServerResult<&PredictReport> {
        match &self.response {
            QueryResponse::Predicted(p) => Ok(p),
            other => Err(unexpected("predict", other)),
        }
    }

    /// The evaluation report, or the typed mismatch error.
    pub fn try_eval_report(&self) -> ServerResult<&EvalReport> {
        match &self.response {
            QueryResponse::Evaluated(e) => Ok(e),
            other => Err(unexpected("evaluate", other)),
        }
    }

    /// The point-prediction report, or the typed mismatch error.
    pub fn try_point_report(&self) -> ServerResult<&PointReport> {
        match &self.response {
            QueryResponse::Point(p) => Ok(p),
            other => Err(unexpected("point-predict", other)),
        }
    }

    /// The EXPLAIN comparison, or the typed mismatch error.
    pub fn try_comparison(&self) -> ServerResult<&StrategyComparison> {
        match &self.response {
            QueryResponse::Explained(c) => Ok(c),
            other => Err(unexpected("explain", other)),
        }
    }

    /// The EXPLAIN ANALYZE report, or the typed mismatch error.
    pub fn try_analyze_report(&self) -> ServerResult<&AnalyzeReport> {
        match &self.response {
            QueryResponse::Analyzed(a) => Ok(a),
            other => Err(unexpected("explain-analyze", other)),
        }
    }

    /// The SHOW STATS snapshot, or the typed mismatch error.
    pub fn try_stats(&self) -> ServerResult<&StatsSnapshot> {
        match &self.response {
            QueryResponse::Stats(s) => Ok(s),
            other => Err(unexpected("stats", other)),
        }
    }

    /// The training report (panics for other reply kinds — the training
    /// clients' convenience accessor; [`QueryReply::try_report`] is the
    /// non-panicking form).
    pub fn report(&self) -> &DanaReport {
        self.try_report().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The prediction report (panics for other reply kinds).
    pub fn predict_report(&self) -> &PredictReport {
        self.try_predict_report().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The evaluation report (panics for other reply kinds).
    pub fn eval_report(&self) -> &EvalReport {
        self.try_eval_report().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The point-prediction report (panics for other reply kinds).
    pub fn point_report(&self) -> &PointReport {
        self.try_point_report().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The EXPLAIN comparison (panics for other reply kinds).
    pub fn comparison(&self) -> &StrategyComparison {
        self.try_comparison().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The SHOW STATS snapshot (panics for other reply kinds).
    pub fn stats(&self) -> &StatsSnapshot {
        self.try_stats().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The typed accessor-mismatch error.
fn unexpected(expected: &'static str, got: &QueryResponse) -> ServerError {
    ServerError::UnexpectedReply {
        expected,
        got: got.kind().to_string(),
    }
}

pub(crate) type ReplyResult = ServerResult<QueryReply>;

/// Handle to one submitted query; redeem with [`DanaServer::wait`].
pub struct Ticket {
    pub seq: u64,
    pub session: SessionId,
    rx: Receiver<ReplyResult>,
}

/// Server construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Accelerator instances in the pool.
    pub accelerators: usize,
    /// Worker threads executing admitted queries. Defaults to the
    /// accelerator count — more workers than instances just wait on
    /// leases.
    pub workers: usize,
    pub admission: AdmissionConfig,
    pub core: SystemCoreConfig,
    /// Default per-query deadline, applied to every submission whose
    /// statement doesn't carry its own `WITH (timeout_ms = …)`. `None`
    /// (the default) means queries without the option never time out.
    pub default_timeout_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig::with_accelerators(4)
    }
}

impl ServerConfig {
    /// A config with `n` accelerators and `n` workers.
    pub fn with_accelerators(n: usize) -> ServerConfig {
        let n = n.max(1);
        ServerConfig {
            accelerators: n,
            workers: n,
            admission: AdmissionConfig::default(),
            core: SystemCoreConfig::default(),
            default_timeout_ms: None,
        }
    }
}

/// The concurrent query-serving subsystem.
pub struct DanaServer {
    core: Arc<SystemCore>,
    accels: Arc<AcceleratorPool>,
    queue: Arc<AdmissionQueue>,
    sessions: Arc<SessionManager>,
    workers: Vec<JoinHandle<()>>,
    default_timeout_ms: Option<u64>,
}

impl DanaServer {
    /// Boots the server: builds the shared core and starts the worker
    /// pool.
    pub fn start(config: ServerConfig) -> DanaServer {
        let core = Arc::new(SystemCore::new(config.core));
        let accels = Arc::new(AcceleratorPool::new(config.accelerators));
        let queue = Arc::new(AdmissionQueue::new(config.admission));
        let sessions = Arc::new(SessionManager::new());
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                let accels = Arc::clone(&accels);
                let queue = Arc::clone(&queue);
                let sessions = Arc::clone(&sessions);
                std::thread::Builder::new()
                    .name(format!("dana-worker-{i}"))
                    .spawn(move || worker_loop(&core, &accels, &queue, &sessions))
                    .expect("spawn worker thread")
            })
            .collect();
        DanaServer {
            core,
            accels,
            queue,
            sessions,
            workers,
            default_timeout_ms: config.default_timeout_ms,
        }
    }

    /// The shared system core (storage statistics, leak detectors, direct
    /// DDL).
    pub fn core(&self) -> &SystemCore {
        &self.core
    }

    // ---- sessions -------------------------------------------------------

    pub fn open_session(&self, name: &str) -> SessionId {
        self.sessions.open(name)
    }

    pub fn close_session(&self, id: SessionId) -> ServerResult<SessionStats> {
        self.sessions.close(id)
    }

    pub fn session_stats(&self, id: SessionId) -> Option<SessionStats> {
        self.sessions.stats(id)
    }

    pub fn all_session_stats(&self) -> Vec<(SessionId, SessionStats)> {
        self.sessions.all_stats()
    }

    // ---- DDL (synchronous) ----------------------------------------------

    pub fn create_table(&self, name: &str, heap: HeapFile) -> DanaResult<dana_storage::HeapId> {
        self.core.create_table(name, heap)
    }

    pub fn drop_table(&self, name: &str) -> DanaResult<DropSummary> {
        self.core.drop_table(name)
    }

    pub fn prewarm(&self, table: &str) -> DanaResult<usize> {
        self.core.prewarm(table)
    }

    pub fn deploy(&self, spec: &dana_dsl::AlgoSpec, table: &str) -> DanaResult<DeployInfo> {
        self.core.deploy(spec, table)
    }

    // ---- queries --------------------------------------------------------

    /// Admits a query for scheduled execution. Non-blocking: refusal
    /// (overload, unknown session, shutdown) is immediate and typed. The
    /// request is parsed and bound to its plan here, once; the worker
    /// that dequeues it only leases and runs.
    pub fn submit(&self, session: SessionId, request: QueryRequest) -> ServerResult<Ticket> {
        self.sessions.record_submit(session)?;
        let admitted = self.admit(request);
        // The deadline is anchored at submit time: admission wait counts
        // against it.
        let deadline = admitted
            .timeout_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let (tx, rx) = channel::bounded(1);
        let seq = self.queue.submit(session, admitted, deadline, tx)?;
        Ok(Ticket { seq, session, rx })
    }

    /// Lowers a request to what a worker will run: SQL is parsed, the
    /// typed forms become the same [`Call`] their SQL twins parse to
    /// (on the FPGA tier, as their contract says — only point predictions
    /// ask the advisor), and the call is bound against this server's
    /// accelerator pool. A parse or bind error rides the job to the
    /// worker, which replies with it — no lease is ever taken for one.
    fn admit(&self, request: QueryRequest) -> Admitted {
        let lower_start = Instant::now();
        let stmt = 'lowered: {
            let (op, udf, table, shards) = match request {
                QueryRequest::Sql(sql) => break 'lowered parse_statement(&sql),
                // The one ad-hoc form: nothing to parse or price.
                QueryRequest::TrainSpec { spec, table, mode } => {
                    let work = Work::Plan {
                        plan: Box::new(PhysicalPlan::ad_hoc(&spec, &table, mode)),
                        retry: RetryPolicy::default(),
                    };
                    return Admitted::new(Ok(work), self.default_timeout_ms, 0.0);
                }
                QueryRequest::RunUdf { udf, table, shards } => (PlanOp::Train, udf, table, shards),
                QueryRequest::Predict {
                    udf,
                    table,
                    into,
                    shards,
                } => (PlanOp::PredictInto { dest: into }, udf, table, shards),
                QueryRequest::Evaluate {
                    udf,
                    table,
                    metric,
                    shards,
                } => (PlanOp::Evaluate { metric }, udf, table, shards),
                QueryRequest::PredictPoint { udf, rows } => {
                    (PlanOp::Point { rows }, udf, String::new(), None)
                }
            };
            let backend = match op {
                PlanOp::Point { .. } => BackendChoice::Auto,
                _ => BackendChoice::Fpga,
            };
            let with = WithOptions {
                shards,
                backend,
                ..WithOptions::default()
            };
            Ok(Statement::Call(Call {
                op,
                udf,
                table,
                scan: None,
                with,
            }))
        };
        let parse_wall = lower_start.elapsed().as_secs_f64();
        let stmt = match stmt {
            Ok(stmt) => stmt,
            // No deadline either: the parse error must surface as itself,
            // not be shed into a misleading timeout.
            Err(e) => return Admitted::new(Err(e), None, parse_wall),
        };
        let timeout_ms = stmt.timeout_ms().or(self.default_timeout_ms);
        let retry = stmt
            .retries()
            .map_or_else(RetryPolicy::default, |n| RetryPolicy {
                max_retries: n,
                ..RetryPolicy::default()
            });
        let bind = |call, explain| {
            let plan = Box::new(self.core.bind(call, explain, self.accels.size())?);
            Ok(Work::Plan { plan, retry })
        };
        let work = match &stmt {
            Statement::ShowStats(filter) => Ok(Work::Stats(filter.clone())),
            Statement::Call(call) => bind(call, None),
            Statement::Explain(call) => bind(call, Some(Wrap::Explain)),
            Statement::ExplainAnalyze(call) => bind(call, Some(Wrap::Analyze)),
        };
        Admitted::new(work, timeout_ms, parse_wall)
    }

    /// Blocks until the ticket's query finishes.
    pub fn wait(&self, ticket: Ticket) -> ServerResult<QueryReply> {
        ticket.rx.recv().unwrap_or(Err(ServerError::WorkerLost))
    }

    /// Submit + wait in one call (the blocking client API).
    pub fn call(&self, session: SessionId, request: QueryRequest) -> ServerResult<QueryReply> {
        let ticket = self.submit(session, request)?;
        self.wait(ticket)
    }

    /// SJF's ordering key for a request, as [`DanaServer::submit`] would
    /// compute it (see [`PhysicalPlan::cost_hint`]): unparseable,
    /// unbindable, ad-hoc and metadata-only work gets the neutral hint 0.
    pub fn cost_hint(&self, request: &QueryRequest) -> f64 {
        self.admit(request.clone()).cost_hint
    }

    // ---- observability --------------------------------------------------

    pub fn pool_utilization(&self) -> PoolUtilization {
        self.accels.utilization()
    }

    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    // ---- fault tolerance -------------------------------------------------

    /// Installs (or clears) the deterministic fault-injection plan:
    /// guarded training paths consult it at epoch boundaries, and the
    /// accelerator pool applies its lease stall, if any. Test/smoke-run
    /// machinery — production servers never install one.
    pub fn install_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.accels
            .set_lease_stall(plan.as_ref().and_then(|p| p.lease_stall_for()));
        self.core.install_fault_plan(plan);
    }

    /// Snapshot of per-instance health and the quarantine counters.
    pub fn pool_health(&self) -> PoolHealth {
        self.accels.health()
    }

    /// Probes a quarantined accelerator instance and reinstates it on
    /// success (the injected faults this build answers are transient, so
    /// a probe always passes). Returns whether the instance was
    /// reinstated; healthy instances return `false`.
    pub fn probe_accelerator(&self, id: usize) -> bool {
        self.accels.probe(id)
    }

    /// The server-wide `SHOW STATS` snapshot: the core's registry and
    /// buffer/engine rows plus admission-queue, accelerator-pool, and
    /// session rows, every pull-side value read from its authoritative
    /// owner at snapshot time. Identical to what a `SHOW STATS` query
    /// submitted through a session returns.
    pub fn stats_snapshot(&self, subsystem: Option<&str>) -> StatsSnapshot {
        server_stats(
            &self.core,
            &self.accels,
            &self.queue,
            &self.sessions,
            subsystem,
        )
    }

    /// Drains admitted work, stops the workers, and returns the final
    /// utilization report.
    pub fn shutdown(mut self) -> PoolUtilization {
        self.stop_workers();
        self.accels.utilization()
    }

    fn stop_workers(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.accels.close();
    }
}

impl Drop for DanaServer {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// What a worker runs for one admitted request.
pub(crate) enum Work {
    /// `SHOW STATS`: the server-wide snapshot — no plan, no lease.
    Stats(Option<String>),
    /// Everything else: the plan bound at submit, and the statement's
    /// retry budget for transient accelerator faults.
    Plan {
        plan: Box<PhysicalPlan>,
        retry: RetryPolicy,
    },
}

/// A request as admission sees it: what to run, how to order it, and how
/// long it may take.
pub(crate) struct Admitted {
    pub work: DanaResult<Work>,
    pub priority: Priority,
    pub cost_hint: f64,
    /// The statement's `WITH (timeout_ms = …)`, or the server default.
    pub timeout_ms: Option<u64>,
    /// Wall seconds spent parsing/lowering (charged to the lifecycle
    /// trace's `parse` stage).
    pub parse_wall: f64,
}

impl Admitted {
    /// Orders the work: point predictions are `Interactive` — the dequeue
    /// prefers them over any waiting batch job, so a microsecond lookup
    /// is never starved behind a gang training job — and everything else
    /// is `Batch`, keyed by its plan's cost hint. Work with no plan
    /// (`SHOW STATS`, a parse or bind error) gets the neutral hint 0,
    /// which SJF treats as "probably interactive" rather than starving it.
    fn new(work: DanaResult<Work>, timeout_ms: Option<u64>, parse_wall: f64) -> Admitted {
        let (priority, cost_hint) = match &work {
            Ok(Work::Plan { plan, .. }) if matches!(plan.op, PlanOp::Point { .. }) => {
                (Priority::Interactive, plan.cost_hint)
            }
            Ok(Work::Plan { plan, .. }) => (Priority::Batch, plan.cost_hint),
            _ => (Priority::Batch, 0.0),
        };
        Admitted {
            work,
            priority,
            cost_hint,
            timeout_ms,
            parse_wall,
        }
    }
}

/// Maps a dispatched statement outcome to the wire-level reply variant.
fn outcome_to_response(outcome: StatementOutcome) -> QueryResponse {
    match outcome {
        StatementOutcome::Train(o) => QueryResponse::Trained(o.report),
        StatementOutcome::Predict(p) => QueryResponse::Predicted(p),
        StatementOutcome::Evaluate(e) => QueryResponse::Evaluated(e),
        StatementOutcome::Point(p) => QueryResponse::Point(p),
        StatementOutcome::Explain(c) => QueryResponse::Explained(c),
        StatementOutcome::Analyze(a) => QueryResponse::Analyzed(a),
        StatementOutcome::Stats(s) => QueryResponse::Stats(s),
    }
}

/// Assembles the server-wide `SHOW STATS` snapshot: core-owned rows
/// (registry, buffer pool, engine cache) plus the admission queue's,
/// accelerator pool's, and session manager's — each read from its
/// authoritative owner at snapshot time, so `SHOW STATS` can never
/// disagree with `pool_utilization()` / `queue_stats()`.
fn server_stats(
    core: &SystemCore,
    accels: &AcceleratorPool,
    queue: &AdmissionQueue,
    sessions: &SessionManager,
    subsystem: Option<&str>,
) -> StatsSnapshot {
    let mut entries = Vec::new();
    core.stats_entries(&mut entries);
    let qs = queue.stats();
    entries.push(StatEntry::new("admission", "depth", qs.depth as f64));
    entries.push(StatEntry::new("admission", "admitted", qs.admitted as f64));
    entries.push(StatEntry::new("admission", "rejected", qs.rejected as f64));
    entries.push(StatEntry::new("admission", "shed", qs.shed as f64));
    let h = accels.health();
    entries.push(StatEntry::new(
        "faults",
        "quarantined_now",
        h.quarantined_now() as f64,
    ));
    entries.push(StatEntry::new(
        "faults",
        "quarantines",
        h.quarantines as f64,
    ));
    entries.push(StatEntry::new("faults", "reinstates", h.reinstates as f64));
    entries.push(StatEntry::new(
        "faults",
        "faults_reported",
        h.faults_reported as f64,
    ));
    for (i, state) in h.states.iter().enumerate() {
        entries.push(StatEntry::new(
            "faults",
            format!("health_{i}"),
            state.code() as f64,
        ));
    }
    let u = accels.utilization();
    entries.push(StatEntry::new("pool", "instances", u.instances() as f64));
    entries.push(StatEntry::new("pool", "utilization", u.utilization()));
    entries.push(StatEntry::new(
        "pool",
        "busy_seconds_total",
        u.serial_seconds(),
    ));
    for i in 0..u.instances() {
        entries.push(StatEntry::new(
            "pool",
            format!("busy_seconds_{i}"),
            u.busy_seconds[i],
        ));
        entries.push(StatEntry::new(
            "pool",
            format!("idle_seconds_{i}"),
            u.idle_seconds[i],
        ));
        entries.push(StatEntry::new(
            "pool",
            format!("leases_{i}"),
            u.leases[i] as f64,
        ));
    }
    let all = sessions.all_stats();
    entries.push(StatEntry::new("sessions", "open", all.len() as f64));
    let sum = |f: fn(&SessionStats) -> f64| all.iter().map(|(_, s)| f(s)).sum::<f64>();
    entries.push(StatEntry::new(
        "sessions",
        "submitted",
        sum(|s| s.submitted as f64),
    ));
    entries.push(StatEntry::new(
        "sessions",
        "completed",
        sum(|s| s.completed as f64),
    ));
    entries.push(StatEntry::new(
        "sessions",
        "failed",
        sum(|s| s.failed as f64),
    ));
    entries.push(StatEntry::new(
        "sessions",
        "sim_seconds",
        sum(|s| s.sim_seconds),
    ));
    entries.push(StatEntry::new(
        "sessions",
        "wall_seconds",
        sum(|s| s.wall_seconds),
    ));
    let snap = StatsSnapshot::new(entries);
    match subsystem {
        Some(s) => snap.filtered(s),
        None => snap,
    }
}

/// One worker: pop an admitted query, atomically lease its gang (size 1
/// for serial queries; none at all for EXPLAIN/SHOW STATS, CPU-tier runs
/// and requests that failed to parse or bind), execute, release every
/// member with the simulated runtime, reply. The measured
/// parse/admission/lease walls feed the lifecycle trace when the
/// statement asked for one.
fn worker_loop(
    core: &SystemCore,
    accels: &AcceleratorPool,
    queue: &AdmissionQueue,
    sessions: &SessionManager,
) {
    while let Some(job) = queue.pop() {
        let admission_wall = job.submitted_at.elapsed().as_secs_f64();
        core.metrics().admission_wait.record(admission_wall);
        // The lease is exactly the plan's gang: bind clamped it to this
        // pool and the table's pages, and the run must agree with it, or
        // the simulated schedule would charge hardware the query never
        // used.
        let (gang_size, retry) = match &job.work {
            Ok(Work::Plan { plan, retry }) if plan.needs_accelerator() => {
                (Some(plan.shards as usize), *retry)
            }
            Ok(Work::Plan { retry, .. }) => (None, *retry),
            _ => (None, RetryPolicy::default()),
        };
        let (lease, lease_wall) = match gang_size {
            Some(k) => {
                let lease_start = Instant::now();
                let Some(lease) = accels.lease_gang(k) else {
                    let _ = job.reply.send(Err(ServerError::ShuttingDown));
                    continue;
                };
                let lease_wall = lease_start.elapsed().as_secs_f64();
                core.metrics().lease_wait.record(lease_wall);
                (Some(lease), lease_wall)
            }
            None => (None, 0.0),
        };
        let gang: Vec<usize> = lease.as_ref().map(|l| l.ids().to_vec()).unwrap_or_default();
        let accelerator = gang.first().copied().unwrap_or(usize::MAX);
        let queue_seconds = job.submitted_at.elapsed().as_secs_f64();
        let cancel = match job.deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::none(),
        };
        let ctx = QueryCtx::new(cancel, retry);
        let walls = FrontDoorWalls {
            parse: job.parse_wall,
            admission: admission_wall,
            lease: lease_wall,
        };
        let started = Instant::now();
        // Panic isolation: a panicking dispatch (a bug, or an injected
        // accelerator panic) is caught here and surfaced as the typed
        // `QueryPanicked` reply — the worker thread survives to serve
        // the next query.
        let work = job.work;
        let dispatched = catch_unwind(AssertUnwindSafe(|| match work? {
            // SHOW STATS sees the whole server (queue/pool/sessions).
            Work::Stats(filter) => Ok((
                StatementOutcome::Stats(server_stats(
                    core,
                    accels,
                    queue,
                    sessions,
                    filter.as_deref(),
                )),
                None,
            )),
            Work::Plan { plan, .. } => core.run(&plan, &walls, &ctx),
        }));
        let result: ServerResult<(StatementOutcome, Option<QueryTrace>)> = match dispatched {
            Ok(r) => r.map_err(ServerError::Dana),
            Err(payload) => {
                core.metrics().panics_caught.inc();
                Err(ServerError::QueryPanicked(panic_message(payload.as_ref())))
            }
        };
        // Quarantine wiring: the instance behind every gang member that
        // faulted — recovered or not, a serial statement's lone member
        // included — reports to the pool's health machine.
        if let Some(lease) = &lease {
            for shard in ctx.faulted_shards() {
                if let Some(&id) = lease.ids().get(shard) {
                    accels.report_fault(id);
                }
            }
        }
        let exec_seconds = started.elapsed().as_secs_f64();
        let sim_seconds = match &result {
            Ok((outcome, _)) => outcome.timing().map_or(0.0, |t| t.total_seconds),
            Err(_) => 0.0,
        };
        if let Some(lease) = lease {
            lease.release(sim_seconds);
        }
        match &result {
            Ok((outcome, _)) => core.record_statement(Ok(outcome), exec_seconds),
            Err(ServerError::Dana(e)) => core.record_statement(Err(e), exec_seconds),
            Err(_) => core.metrics().queries_failed.inc(),
        }
        sessions.record_done(job.session, result.is_ok(), sim_seconds, exec_seconds);
        let reply = result.map(|(outcome, trace)| QueryReply {
            response: outcome_to_response(outcome),
            accelerator,
            gang,
            queue_seconds,
            exec_seconds,
            trace,
        });
        // A client that dropped its ticket just doesn't read the reply.
        let _ = job.reply.send(reply);
    }
}

/// The panic payload's message, when it carried one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
