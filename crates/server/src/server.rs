//! The serving front door: [`DanaServer`].
//!
//! Lifecycle of one query (the Fig. 2 flow, lifted to a serving tier):
//!
//! ```text
//!  client ──open_session──► SessionManager
//!    │ submit(SQL / point rows): SQL is parsed and, like point
//!    │ rows, lowered by `SystemCore::lower` — the embedded door's own
//!    │ lowering — to its plan and context, on the submitting thread
//!    │ (a hostile string is a typed error here)
//!    ▼
//!  AdmissionQueue  (bounded; Interactive before Batch, FIFO within each)
//!    │ pop
//!    ▼
//!  worker thread ──lease──► AcceleratorPool (N FpgaSpec instances)
//!    │ run on SystemCore (shared catalog + sharded buffer pool)
//!    ▼
//!  QueryReply { response: QueryResponse, … } ──crossbeam channel──► Ticket::wait
//! ```
//!
//! Two request forms reach it: [`QueryRequest::Sql`] for every
//! statement, and the one thing SQL cannot say without formatting —
//! [`QueryRequest::PredictPoint`]'s f32 rows. The reply's
//! [`QueryResponse`] is the one the embedded door returns, read through
//! the same accessors. The server keeps three jobs of its own: the default
//! deadline, anchored at submit; the admission queue that sheds what
//! outlived it; and the server-wide `SHOW STATS`.
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

use dana::exec::RunLog;
use dana::{
    parse_statement, Call, DanaResult, DeployInfo, DropSummary, FrontDoorWalls, PlanOp, QueryCtx,
    QueryResponse, QueryTrace, Statement, StatsSnapshot, SystemCore, SystemCoreConfig, WithOptions,
    Work,
};
use dana_engine::{CancelToken, FaultPlan};
use dana_obs::StatEntry;
use dana_storage::HeapFile;

use crate::accel::{AcceleratorPool, PoolHealth, PoolUtilization};
use crate::admission::{AdmissionConfig, AdmissionQueue, Priority, QueueStats};
use crate::error::{ServerError, ServerResult};
use crate::session::{SessionId, SessionManager, SessionStats};

/// A query a client can submit for scheduled execution: SQL, or point
/// rows already in f32.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Any front-door statement: `SELECT * FROM dana.<udf>(…)` /
    /// `EXECUTE …`, `PREDICT … INTO …`, point `PREDICT …(VALUES …)`,
    /// `EVALUATE …`, `EXPLAIN [ANALYZE] …` or `SHOW STATS`.
    Sql(String),
    /// The **point fast path**: score inline f32 rows against `udf`'s
    /// latest trained model — no heap scan, no buffer-pool traffic, no
    /// materialization, and no accelerator lease when the advisor routes
    /// it to the CPU tier. Admitted `Interactive`, so it is never starved
    /// behind gang training jobs. `PREDICT dana.<udf>(VALUES (…), …)`
    /// without formatting and re-parsing the rows.
    PredictPoint { udf: String, rows: Vec<Vec<f32>> },
}

/// A finished query, as delivered to the submitting client.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// What the statement answered: the type the embedded door returns.
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
    /// request is lowered to its plan here, once; the worker that
    /// dequeues it only leases and runs.
    pub fn submit(&self, session: SessionId, request: QueryRequest) -> ServerResult<Ticket> {
        self.sessions.record_submit(session)?;
        let admitted = self.admit(request);
        let (tx, rx) = channel::bounded(1);
        let seq = self.queue.submit(session, admitted, tx)?;
        Ok(Ticket { seq, session, rx })
    }

    /// Lowers a request to what a worker will run: SQL is parsed and
    /// point rows become the [`Call`] their SQL twin parses to (asking the
    /// advisor for a backend), and both go through [`SystemCore::lower`]
    /// against this server's accelerator pool. A parse or bind error rides
    /// the job to the worker, which replies with it — no lease is ever
    /// taken for one.
    fn admit(&self, request: QueryRequest) -> Admitted {
        let cap = self.accels.size();
        let (lowered, parse_wall) = match request {
            QueryRequest::Sql(sql) => {
                let start = Instant::now();
                let stmt = parse_statement(&sql);
                let parse_wall = start.elapsed().as_secs_f64();
                (
                    stmt.and_then(|stmt| self.core.lower(&stmt, cap)),
                    parse_wall,
                )
            }
            QueryRequest::PredictPoint { udf, rows } => {
                let call = Call {
                    op: PlanOp::Point { rows },
                    udf,
                    table: String::new(),
                    scan: None,
                    with: WithOptions::default(),
                };
                (self.core.lower(&Statement::Call(call), cap), 0.0)
            }
        };
        Admitted::new(lowered, self.default_timeout_ms, parse_wall)
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

/// A request as admission sees it: what to run, how to order it, and the
/// context it runs under.
pub(crate) struct Admitted {
    pub work: DanaResult<Work>,
    /// The statement's deadline and retry budget.
    pub ctx: QueryCtx,
    pub priority: Priority,
    /// Wall seconds spent parsing the request (charged to the lifecycle
    /// trace's `parse` stage).
    pub parse_wall: f64,
}

impl Admitted {
    /// Applies the server's deadline rule — a statement without `WITH
    /// (timeout_ms = …)` gets `default_timeout_ms`, anchored now, at
    /// submit, so admission wait counts against it — and classes the work:
    /// point predictions are `Interactive` — the dequeue prefers them over
    /// any waiting batch job, so a microsecond lookup is never starved
    /// behind a gang training job — and everything else is `Batch`. An
    /// error gets no deadline: it must surface as itself, not be shed into
    /// a misleading timeout.
    fn new(
        lowered: DanaResult<(Work, QueryCtx)>,
        default_timeout_ms: Option<u64>,
        parse_wall: f64,
    ) -> Admitted {
        let (work, ctx) = match lowered {
            Ok((work, mut ctx)) => {
                if let (None, Some(ms)) = (ctx.cancel.deadline(), default_timeout_ms) {
                    ctx.cancel =
                        CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms));
                }
                (Ok(work), ctx)
            }
            Err(e) => (Err(e), QueryCtx::default()),
        };
        let priority = match &work {
            Ok(Work::Plan(plan)) if matches!(plan.op, PlanOp::Point { .. }) => {
                Priority::Interactive
            }
            _ => Priority::Batch,
        };
        Admitted {
            work,
            ctx,
            priority,
            parse_wall,
        }
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
        let gang_size = match &job.work {
            Ok(Work::Plan(plan)) if plan.needs_accelerator() => Some(plan.shards as usize),
            _ => None,
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
        let ctx = job.ctx;
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
        let dispatched = catch_unwind(AssertUnwindSafe(|| match job.work {
            Err(e) => (Err(e), RunLog::default()),
            // SHOW STATS sees the whole server (queue/pool/sessions).
            Ok(Work::Stats(filter)) => {
                let stats = server_stats(core, accels, queue, sessions, filter.as_deref());
                (Ok((QueryResponse::Stats(stats), None)), RunLog::default())
            }
            Ok(Work::Plan(plan)) => core.run(&plan, &walls, &ctx),
        }));
        let (result, log) = match dispatched {
            Ok((r, log)) => (r.map_err(ServerError::Dana), log),
            Err(payload) => {
                core.metrics().panics_caught.inc();
                let message = panic_message(payload.as_ref());
                (Err(ServerError::QueryPanicked(message)), RunLog::default())
            }
        };
        // Quarantine wiring: the instance behind every gang member the
        // run logged as faulted — recovered or not, a serial statement's
        // lone member included — reports to the pool's health machine.
        if let Some(lease) = &lease {
            for &shard in &log.faults.faulted_shards {
                if let Some(&id) = lease.ids().get(shard) {
                    accels.report_fault(id);
                }
            }
        }
        let exec_seconds = started.elapsed().as_secs_f64();
        let sim_seconds = result
            .as_ref()
            .map_or(0.0, |(response, _)| response.sim_seconds());
        if let Some(lease) = lease {
            lease.release(sim_seconds);
        }
        match &result {
            Ok((response, _)) => core.record_statement(Ok(response), exec_seconds),
            Err(ServerError::Dana(e)) => core.record_statement(Err(e), exec_seconds),
            Err(_) => core.metrics().queries_failed.inc(),
        }
        sessions.record_done(job.session, result.is_ok(), sim_seconds, exec_seconds);
        let reply = result.map(|(response, trace)| QueryReply {
            response,
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
