//! The system core: catalog + buffer pool + compiler + accelerator, usable
//! from any thread.
//!
//! Mirrors Fig. 2's flow end-to-end:
//!
//! 1. [`SystemCore::deploy`] — the UDF is translated (hDFG), compiled
//!    (hardware generator + scheduler), and the accelerator — the
//!    validated, lowered engine with its budget and scoring recipe — is
//!    stored in the catalog, typed, under the UDF's name;
//! 2. [`SystemCore::bind`] — a parsed statement, lowered by
//!    [`SystemCore::lower`] (the one place both front doors turn a
//!    statement into work), is bound, once, to a
//!    [`PhysicalPlan`]: operation, scan, gang size, substrate, and one
//!    price — the counts the statement's scan will measure, estimated
//!    from the snapshot heap and the deployed accelerator, through the
//!    cost model the run is billed by ([`crate::runtime::price`], at this
//!    core's clock). The advisor's FPGA estimate is that price, and the
//!    scheduler's cost hint is the chosen tier's price over the gang;
//! 3. [`SystemCore::execute`] — the plan runs: the buffer pool fills while
//!    the access engine walks the pages with Striders and the execution
//!    engine trains or scores; the report carries the result and the
//!    simulated end-to-end timing of [`crate::runtime`].
//!
//! There is one implementation. An embedded [`crate::Dana`] is this core
//! with a one-shard pool, driven on the caller's thread; the serving tier
//! is the same core behind admission control and accelerator leases. And
//! there is one scan shape: every plan opens one `Scan` of `k ≥ 1` member
//! streams (`SystemCore::open_scan`), so a serial statement is a gang of
//! one — the same fold, the same `Scan::finish`, the same report
//! assembler, and for EXECUTE the same guarded epoch loop with its one
//! fault policy (`dana_parallel::train_gang_guarded`): nothing is chosen
//! by the member count. A pushdown scan's `finish` also hands back
//! the slots its predicate kept, which is what a filtered PREDICT … INTO
//! materializes from: the predicate runs in the scan and nowhere else.
//!
//! * the **catalog** — "shared by the database engine and the FPGA" (§3)
//!   — is one private struct behind one `RwLock`: the storage
//!   [`Catalog`] (tables + heaps), the deployed accelerators and the scan
//!   sidecars. Queries take short read locks to snapshot (entry,
//!   `Arc<HeapFile>`, accelerator) and then run lock-free; DDL, an
//!   EXECUTE storing its model and a first pushdown scan registering its
//!   sidecar take the write lock only for the map mutation — never while
//!   the same thread still holds a read guard (`std::sync::RwLock` is not
//!   re-entrant);
//! * the **buffer pool** is the sharded [`SharedBufferPool`], fetched
//!   through `&self`;
//! * the **execution engine is never built per query**: DEPLOY compiles,
//!   validates, and lowers it once, and the catalog entry holds the
//!   `Arc<CachedAccelerator>` for as long as it is live. Only genuinely
//!   per-query state (access engine, model store, stream source) is built
//!   per request.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use dana_compiler::{compile, CompileInput, PerfEstimate};
use dana_engine::{
    BackendKind, BackendRun, CancelToken, EngineError, EngineStats, FaultEvents, FaultPlan,
    RetryPolicy, RunGuard,
};
use dana_fpga::{FpgaSpec, ResourceBudget};
use dana_hdfg::translate;
use dana_infer::{MetricKind, MetricPartial, ScoringStats};
use dana_ml::CpuModel;
use dana_obs::{MetricsRegistry, QueryTrace, StatEntry, StatsSnapshot};
use dana_parallel::{
    evaluate_gang, packed_tuple_splits, score_gang_concat, train_gang_guarded, ShardPlan,
};
use dana_scan::{BoundScanSpec, ScanSidecar, ScanSpec};
use dana_storage::{
    BufferPoolConfig, BufferPoolStats, Catalog, DiskModel, HeapFile, HeapId, SharedBufferPool,
    StorageError, TableEntry, TupleSource,
};
use dana_strider::{disassemble, AccessEngine, AccessStats};

use crate::advisor::{self, BackendChoice, HardwareProfile, StrategyComparison};
use crate::error::{DanaError, DanaResult};
use crate::exec::{self, CachedAccelerator, RunLog, ShardArtifacts, TrainedModels};
use crate::plan::{PhysicalPlan, PlanOp, Wrap};
use crate::query::Call;
use crate::report::{
    AnalyzeReport, DanaReport, DanaTiming, EvalReport, PointReport, PredictReport, QueryResponse,
    Seconds,
};
use crate::source::{member_selections, ScanState, SharedPageStreamSource};

/// How to build a [`SystemCore`].
#[derive(Debug, Clone, Copy)]
pub struct SystemCoreConfig {
    /// Template spec for every accelerator instance in the pool.
    pub fpga: FpgaSpec,
    pub pool: BufferPoolConfig,
    /// Buffer-pool lock shards.
    pub pool_shards: usize,
    pub disk: DiskModel,
}

impl Default for SystemCoreConfig {
    fn default() -> SystemCoreConfig {
        SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig::paper_default(),
            pool_shards: dana_storage::shared_pool::DEFAULT_SHARDS,
            disk: DiskModel::ssd(),
        }
    }
}

/// Per-query execution context: the cooperative cancellation token the
/// epoch loop checks at every boundary and the retry policy answering
/// transient faults — a plain value. [`SystemCore::lower`] builds it
/// from the statement's `WITH (timeout_ms / retries)` options; the
/// default never cancels and retries by the default policy. Which gang
/// members faulted is not the context's business: the run reports it in
/// its [`RunLog`]'s `faults`.
#[derive(Debug, Default)]
pub struct QueryCtx {
    /// Cooperative cancellation (deadline and/or manual flag).
    pub cancel: CancelToken,
    /// Backoff/retry policy for transient accelerator faults.
    pub retry: RetryPolicy,
}

/// Wall seconds a request spent before execution began, charged to the
/// front stages of its lifecycle trace. An embedded caller measures only
/// the parse; a server worker adds its admission and lease waits.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontDoorWalls {
    pub parse: Seconds,
    pub admission: Seconds,
    pub lease: Seconds,
}

/// What `drop_table` reports back: everything the drop cleaned up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropSummary {
    pub table: String,
    /// Buffer-pool pages of the dropped heap that were evicted.
    pub pages_evicted: usize,
    /// Accelerators compiled against the table, now marked stale.
    pub invalidated_udfs: Vec<String>,
    /// Materialized prediction tables derived from this table, now stale
    /// (typed error on use; their pages are evicted too).
    pub stale_prediction_tables: Vec<String>,
}

/// What `deploy` reports back to the data scientist.
#[derive(Debug, Clone)]
pub struct DeployInfo {
    pub udf_name: String,
    pub num_threads: u16,
    pub acs_per_thread: u16,
    pub num_striders: u32,
    pub estimate: PerfEstimate,
    /// The generated Strider program, disassembled.
    pub strider_listing: String,
    /// Micro-instruction count of the engine schedule.
    pub micro_ops: usize,
}

/// The DAnA-enhanced database system: shared catalog + buffer pool +
/// models.
pub struct SystemCore {
    catalog: RwLock<CoreCatalog>,
    pub(crate) pool: SharedBufferPool,
    pub(crate) disk: DiskModel,
    pub(crate) fpga: FpgaSpec,
    cpu: CpuModel,
    /// Per-backend throughput estimates the backend advisor prices
    /// `backend = auto` statements against.
    profile: RwLock<HardwareProfile>,
    /// Execution engines constructed (deploy-time builds + cache misses) —
    /// the EXECUTE path must never grow this past the deploy count.
    engines_built: AtomicU64,
    /// EXECUTE/estimate requests served from a cached `Arc<ExecutionEngine>`.
    engine_cache_hits: AtomicU64,
    /// Push-side observability counters/histograms (`SHOW STATS` rows the
    /// core owns; the server layers queue/pool/session rows on top).
    metrics: MetricsRegistry,
    /// Deterministic fault-injection plan consulted by every guarded
    /// training path. `None` (the production state) injects nothing;
    /// tests and smoke runs install a plan to rehearse recovery.
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
}

/// The catalog "shared by the database engine and the FPGA" (§3): the
/// database's tables and heaps, and beside them — under the same lock —
/// what DAnA deploys and derives, typed.
#[derive(Default)]
struct CoreCatalog {
    db: Catalog,
    /// Deployed accelerators by UDF name.
    accelerators: HashMap<String, Deployed>,
    /// Scan-tier sidecars (compressed pages + zone maps) by heap: built
    /// by a table's first pushdown scan, shared by every later one, and
    /// removed with the table — a rebuilt table of the same name gets a
    /// new heap id and so a cold sidecar.
    sidecars: HashMap<HeapId, Arc<ScanSidecar>>,
}

/// Catalog record for one deployed accelerator (one UDF).
enum Deployed {
    Live {
        /// The table whose page layout and schema the accelerator was
        /// compiled against; dropping it turns the entry [`Deployed::Stale`].
        bound_table: String,
        /// The DEPLOY-time engine, budget, estimate and scoring recipe.
        runtime: Arc<CachedAccelerator>,
        /// The latest EXECUTE's models (last training wins), consumed by
        /// PREDICT/EVALUATE; `None` until one has run.
        trained: Option<Arc<TrainedModels>>,
    },
    /// The bound table was dropped: the engine was compiled against a
    /// layout that no longer exists and the model was fit to rows that no
    /// longer exist, so the entry keeps neither — using it is a typed
    /// error, never a dangling-heap lookup.
    Stale { dropped_table: String },
}

impl CoreCatalog {
    /// The one accelerator lookup: a live entry's runtime artifact and
    /// trained models, or the typed reason there is none.
    fn live_accelerator(
        &self,
        udf: &str,
    ) -> DanaResult<(&Arc<CachedAccelerator>, &Option<Arc<TrainedModels>>)> {
        match self.accelerators.get(udf) {
            None => Err(StorageError::UnknownAccelerator(udf.to_string()).into()),
            Some(Deployed::Stale { dropped_table }) => Err(DanaError::StaleAccelerator {
                udf: udf.to_string(),
                dropped_table: dropped_table.clone(),
            }),
            Some(Deployed::Live {
                runtime, trained, ..
            }) => Ok((runtime, trained)),
        }
    }
}

/// Engine-construction accounting: how many engines were ever built vs.
/// how many requests rode the DEPLOY-time cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCacheStats {
    pub built: u64,
    pub hits: u64,
}

/// One member's first-scan measurements: extraction stats plus the disk
/// seconds the scan was charged.
type ShardScan = (AccessStats, Seconds);

/// The one scan a statement runs: `k ≥ 1` member tuple streams in shard
/// order, opened by [`SystemCore::open_scan`] and closed by
/// [`Scan::finish`]. A serial statement's scan has one member; nothing
/// downstream of the open asks which shape it got.
struct Scan<'a> {
    members: Vec<SharedPageStreamSource<'a>>,
    /// The pushdown state every member was opened under, if any.
    state: Option<ScanState>,
    /// The slots a filtered gang's one scan kept (it runs at open); a lone
    /// streaming member hands its list over at [`Scan::finish`].
    kept: Vec<Vec<u16>>,
    /// A filtered gang's members' shares of its one scan's bill, by member;
    /// empty when every member meters its own first pass.
    shares: Vec<ShardScan>,
}

/// What a pushdown scan selected: per source page the slots its predicate
/// kept, and the spec it ran under.
struct Survivors {
    slots: Vec<Vec<u16>>,
    spec: Arc<BoundScanSpec>,
}

impl Scan<'_> {
    /// Closes the scan: drains every member's measurements into
    /// [`ShardArtifacts`] (paired with `engine_stats` by shard index —
    /// empty for scoring, whose compute is accounted separately) and
    /// charges a pushdown scan to the `SHOW STATS ('scan')` counters —
    /// once per statement, whatever the member count, because the
    /// members' tuple, skipped-page and decompressed-byte counts sum to
    /// the one logical scan's. A pushdown scan also hands back what it
    /// selected.
    fn finish(
        self,
        metrics: &MetricsRegistry,
        heap: &HeapFile,
        engine_stats: &[EngineStats],
    ) -> (Vec<ShardArtifacts>, Option<Survivors>) {
        let mut slots = self.kept;
        let mut shares = self.shares.into_iter();
        let shards: Vec<ShardArtifacts> = self
            .members
            .into_iter()
            .enumerate()
            .map(|(i, member)| {
                let (access_stats, io_first) = shares.next().unwrap_or_else(|| {
                    let mut scan = member.into_stats();
                    slots.append(&mut scan.kept);
                    (scan.stats, scan.io_seconds)
                });
                ShardArtifacts {
                    engine_stats: engine_stats.get(i).copied().unwrap_or_default(),
                    access_stats,
                    io_first,
                }
            })
            .collect();
        let survivors = self.state.map(|state| {
            let mut total = AccessStats::default();
            for s in &shards {
                total.tuples += s.access_stats.tuples;
                total.pages_skipped += s.access_stats.pages_skipped;
                total.decompressed_bytes += s.access_stats.decompressed_bytes;
            }
            exec::record_scan_metrics(metrics, &total, &state.sidecar, heap.tuple_count());
            Survivors {
                slots,
                spec: state.spec,
            }
        });
        (shards, survivors)
    }
}

impl SystemCore {
    pub fn new(config: SystemCoreConfig) -> SystemCore {
        SystemCore {
            catalog: RwLock::new(CoreCatalog::default()),
            pool: SharedBufferPool::with_shards(config.pool, config.pool_shards),
            disk: config.disk,
            cpu: CpuModel::i7_6700(),
            engines_built: AtomicU64::new(0),
            engine_cache_hits: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
            fault_plan: RwLock::new(None),
            // The default system keeps the paper's behavior: every query
            // offloads (threshold 0 — DAnA has no CPU tier). Calibrating
            // the advisor, or installing a profile without a manual
            // threshold, enables the cost-based choice for `backend = auto`.
            profile: RwLock::new(HardwareProfile::default().with_offload_threshold(Some(0))),
            fpga: config.fpga,
        }
    }

    // Poisoned locks are recovered — see `SharedBufferPool::lock`.
    fn read(&self) -> RwLockReadGuard<'_, CoreCatalog> {
        self.catalog.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, CoreCatalog> {
        self.catalog.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn pool_stats(&self) -> BufferPoolStats {
        self.pool.stats()
    }

    /// Frames still referenced by a reader — must be zero when idle (the
    /// frame-leak detector the stress suite asserts on).
    pub fn held_frames(&self) -> usize {
        self.pool.held_frames()
    }

    /// Pages currently resident in the buffer pool (the drop paths must
    /// leave none behind for dropped or stale heaps).
    pub fn resident_pages(&self) -> usize {
        self.pool.resident_pages()
    }

    /// Engine-construction counters — the proof that repeated EXECUTEs
    /// share one DEPLOY-time engine.
    pub fn engine_cache_stats(&self) -> EngineCacheStats {
        EngineCacheStats {
            built: self.engines_built.load(Ordering::Relaxed),
            hits: self.engine_cache_hits.load(Ordering::Relaxed),
        }
    }

    /// The core's metrics registry (front doors charge waits and
    /// completion counters here; `SHOW STATS` folds it into rows).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Installs (or clears, with `None`) the deterministic
    /// fault-injection plan every guarded training path consults.
    pub fn install_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self
            .fault_plan
            .write()
            .unwrap_or_else(PoisonError::into_inner) = plan;
    }

    /// The currently installed fault plan, if any.
    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault_plan
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Folds one guarded run's fault events into the registry. A quiet
    /// run records nothing.
    fn record_fault_events(&self, events: &FaultEvents) {
        if events.is_quiet() {
            return;
        }
        self.metrics
            .transient_faults
            .add(events.transient_faults as u64);
        self.metrics.fault_retries.add(events.retries as u64);
        self.metrics
            .gang_member_faults
            .add(events.faulted_shards.len() as u64);
    }

    /// Folds one finished front-door statement into the registry:
    /// completion/failure counters, the wall-clock histogram, the backend
    /// split, epochs trained, and the point-query latency series.
    pub fn record_statement(&self, result: Result<&QueryResponse, &DanaError>, wall: Seconds) {
        let m = &self.metrics;
        match result {
            Ok(outcome) => {
                m.queries_completed.inc();
                m.exec_wall.record(wall);
                match outcome.backend() {
                    Some(BackendKind::Fpga) => m.fpga_queries.inc(),
                    Some(BackendKind::Cpu) => m.cpu_queries.inc(),
                    None => {}
                }
                match outcome {
                    QueryResponse::Trained(r) => m.epochs_run.add(r.epochs_run as u64),
                    QueryResponse::Point(_) => {
                        m.point_queries.inc();
                        m.point_latency.record(wall);
                    }
                    _ => {}
                }
            }
            Err(e) => {
                m.queries_failed.inc();
                if e.is_deadline_exceeded() {
                    m.deadline_exceeded.inc();
                }
            }
        }
    }

    /// The core-owned `SHOW STATS` rows: registry counters/histograms
    /// plus pull-side buffer-pool and engine-cache values, read from
    /// their authoritative owners at snapshot time so they cannot drift.
    /// The server appends its queue/pool/session rows before filtering.
    pub fn stats_entries(&self, out: &mut Vec<StatEntry>) {
        self.metrics.snapshot_into(out);
        let ps = self.pool.stats();
        out.push(StatEntry::new("buffer", "hits", ps.hits as f64));
        out.push(StatEntry::new("buffer", "misses", ps.misses as f64));
        out.push(StatEntry::new("buffer", "evictions", ps.evictions as f64));
        out.push(StatEntry::new("buffer", "io_seconds", ps.io_seconds));
        out.push(StatEntry::new(
            "buffer",
            "resident_pages",
            self.pool.resident_pages() as f64,
        ));
        out.push(StatEntry::new(
            "buffer",
            "resident_bytes",
            self.pool.resident_bytes() as f64,
        ));
        for (heap_id, frames) in self.pool.per_heap_frames() {
            out.push(StatEntry::new(
                "buffer",
                format!("heap_{heap_id}_frames"),
                frames as f64,
            ));
        }
        let ec = self.engine_cache_stats();
        out.push(StatEntry::new("engine", "engines_built", ec.built as f64));
        out.push(StatEntry::new(
            "engine",
            "engine_cache_hits",
            ec.hits as f64,
        ));
    }

    /// A point-in-time snapshot of the core-owned rows — the embedded
    /// `SHOW STATS` result (the server's adds queue/pool/session rows).
    pub fn stats_snapshot(&self, subsystem: Option<&str>) -> StatsSnapshot {
        let mut entries = Vec::new();
        self.stats_entries(&mut entries);
        let snap = StatsSnapshot::new(entries);
        match subsystem {
            Some(s) => snap.filtered(s),
            None => snap,
        }
    }

    // ---- DDL ------------------------------------------------------------

    /// Registers a training table.
    pub fn create_table(&self, name: &str, heap: HeapFile) -> DanaResult<HeapId> {
        Ok(self.write().db.create_table(name, heap)?)
    }

    /// Drops a table: detaches it and its scan sidecar from the catalog,
    /// force-evicts its pages (in-flight scans keep their `Arc` snapshots
    /// and finish cleanly), turns every live accelerator compiled against
    /// it stale (idempotent: an already-stale one is not named again), and
    /// marks prediction tables materialized from it stale (force-evicting
    /// their pages too).
    pub fn drop_table(&self, name: &str) -> DanaResult<DropSummary> {
        let mut cat = self.write();
        let entry = cat.db.drop_table(name)?;
        cat.sidecars.remove(&entry.heap_id);
        let mut invalidated_udfs = Vec::new();
        for (udf, acc) in &mut cat.accelerators {
            if matches!(acc, Deployed::Live { bound_table, .. } if bound_table == name) {
                *acc = Deployed::Stale {
                    dropped_table: name.to_string(),
                };
                invalidated_udfs.push(udf.clone());
            }
        }
        invalidated_udfs.sort_unstable();
        let derived = cat.db.invalidate_derived_for(name);
        drop(cat);
        // Evict raw frames and the scan tier's compressed shadow frames;
        // the zone-map/codec sidecar left the catalog above.
        let pages_evicted = self.pool.evict_heap_force(entry.heap_id)
            + self.pool.evict_heap_force(entry.heap_id.shadow());
        let mut stale_prediction_tables = Vec::new();
        for (table, heap_id) in derived {
            self.pool.evict_heap_force(heap_id);
            self.pool.evict_heap_force(heap_id.shadow());
            stale_prediction_tables.push(table);
        }
        self.metrics
            .staleness_invalidations
            .add((invalidated_udfs.len() + stale_prediction_tables.len()) as u64);
        Ok(DropSummary {
            table: name.to_string(),
            pages_evicted,
            invalidated_udfs,
            stale_prediction_tables,
        })
    }

    /// Warm-cache setup: loads the table into the buffer pool without
    /// charging query I/O.
    pub fn prewarm(&self, table: &str) -> DanaResult<usize> {
        let (entry, heap) = self.snapshot_table(table)?;
        let n = self.pool.prewarm(entry.heap_id, &heap)?;
        self.pool.reset_stats();
        Ok(n)
    }

    /// Cold-cache setup: drops every cached page.
    pub fn clear_cache(&self) {
        self.pool.clear();
        self.pool.reset_stats();
    }

    /// Shared snapshot of a live table's heap — what a query would scan.
    /// Useful for inspecting materialized prediction tables without
    /// reaching into the catalog lock.
    pub fn table_snapshot(&self, table: &str) -> DanaResult<Arc<HeapFile>> {
        Ok(self.snapshot_table(table)?.1)
    }

    /// Pages in a table's heap, if the table exists.
    pub fn table_pages(&self, table: &str) -> Option<u32> {
        self.read().db.table(table).ok().map(|t| t.page_count)
    }

    pub fn table_names(&self) -> Vec<String> {
        self.read()
            .db
            .table_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// All deployed UDF names (live and stale), sorted.
    pub fn accelerator_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().accelerators.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    // ---- deploy ---------------------------------------------------------

    /// Compiles a UDF for `table` and stores the accelerator in the
    /// catalog under the UDF's name, replacing (and so un-training) any
    /// earlier deployment of that name. All expensive resolution happens
    /// here: the entry holds the compiled engine (validated + lowered
    /// once) beside the *scoring lowering*, the forward-pass recipe
    /// PREDICT/EVALUATE bind to trained models — so EXECUTE never
    /// constructs an engine and scoring never re-derives. Compilation runs
    /// outside the catalog lock; the write lock is taken only to install
    /// the entry (verifying the table still exists, in case a concurrent
    /// drop won the race).
    pub fn deploy(&self, spec: &dana_dsl::AlgoSpec, table: &str) -> DanaResult<DeployInfo> {
        let (snap, heap) = self.snapshot_table(table)?;
        let acc = compile(&CompileInput {
            hdfg: &translate(spec),
            fpga: self.fpga,
            layout: *heap.layout(),
            schema_columns: heap.schema().len(),
            expected_tuples: snap.tuple_count,
        })?;
        // Scoring lowering: derive the forward pass where the analytic
        // has one (custom analytics without one still train fine; their
        // PREDICT is a typed error).
        let scoring = dana_infer::derive_recipe(spec).ok();
        // Refuse a Strider program that does not fit the 22-bit ISA (every
        // query regenerates the program for its heap; nothing stores the
        // words).
        dana_strider::isa::encode_program(&acc.strider_program)?;
        // The compile already built (validated + lowered) the engine once;
        // every EXECUTE shares it.
        let entry = Deployed::Live {
            bound_table: table.to_string(),
            runtime: Arc::new(CachedAccelerator::from_compiled(&acc, scoring)),
            trained: None,
        };
        self.engines_built.fetch_add(1, Ordering::Relaxed);
        {
            let mut cat = self.write();
            // The compile raced against DDL: only install if the table the
            // accelerator was compiled for is still the live one.
            match cat.db.table(table) {
                Ok(t) if t.heap_id == snap.heap_id => {
                    cat.accelerators.insert(spec.name.clone(), entry);
                }
                Ok(_) | Err(_) => {
                    return Err(StorageError::UnknownTable(table.to_string()).into());
                }
            }
        }
        Ok(DeployInfo {
            udf_name: spec.name.clone(),
            num_threads: acc.design.num_threads,
            acs_per_thread: acc.design.acs_per_thread,
            num_striders: acc.budget.num_page_buffers,
            estimate: acc.estimate,
            strider_listing: disassemble(&acc.strider_program),
            micro_ops: acc.design.program.micro_ops(),
        })
    }

    /// Parses DSL source text and deploys it (the paper's end-user path).
    pub fn deploy_source(
        &self,
        source: &str,
        default_name: &str,
        table: &str,
    ) -> DanaResult<DeployInfo> {
        let spec = dana_dsl::parse_udf(source, default_name)?;
        self.deploy(&spec, table)
    }

    // ---- the backend advisor --------------------------------------------

    /// The advisor's current cost profile (a copy).
    pub fn hardware_profile(&self) -> HardwareProfile {
        *self.profile.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs a new advisor profile (e.g. another CPU lane rate, or one
    /// with the always-offload default cleared to enable break-even
    /// routing).
    pub fn set_hardware_profile(&self, profile: HardwareProfile) {
        *self.profile.write().unwrap_or_else(PoisonError::into_inner) = profile;
    }

    // ---- bind -----------------------------------------------------------

    /// Binds a parsed [`Call`] to its [`PhysicalPlan`] — the one place a
    /// call's `(op, udf, table, scan, with)` are read. The gang is clamped
    /// to `lease_cap` (the accelerator instances the caller could hold at
    /// once) **and** the scanned table's page count (the shard planner
    /// never makes more shards than pages), so the instances leased and
    /// the shards run always agree. A `WITH (backend = …)` override wins;
    /// `auto` asks the advisor; a gang request (shards > 1) pins the FPGA
    /// tier, and forcing the CPU tier alongside one is a typed error. Runs
    /// on catalog metadata — the heap's page and tuple counts and layout —
    /// and the cached accelerator; no page is read.
    ///
    /// `EXPLAIN [ANALYZE] <call>` passes the [`Wrap`] its advisor
    /// comparison goes in ([`Wrap::Explain`] / [`Wrap::Analyze`]) as
    /// `explain`; `SHOW STATS` executes nothing and has nothing to bind.
    pub fn bind(
        &self,
        call: &Call,
        explain: Option<fn(Box<StrategyComparison>) -> Wrap>,
        lease_cap: usize,
    ) -> DanaResult<PhysicalPlan> {
        let Call {
            op,
            udf,
            table,
            scan,
            with,
        } = call;
        let scan = scan.as_ref();
        let cached = self.accelerator_runtime(udf)?;
        // The point form scores its literal rows: no table, no scan,
        // nothing to shard (the parser rejects the option).
        let heap = match op {
            PlanOp::Point { .. } => None,
            _ => Some(self.snapshot_table(table)?.1),
        };

        let requested = match (with.shards.is_some_and(|k| k > 1), with.backend) {
            (true, BackendChoice::Cpu) => return Err(exec::gang_needs_fpga()),
            (true, _) => BackendChoice::Fpga,
            (false, requested) => requested,
        };
        let mut k = with
            .shards
            .unwrap_or(1)
            .clamp(1, lease_cap.clamp(1, u16::MAX as usize) as u16);
        if let Some(heap) = &heap {
            k = k.min(ShardPlan::effective_shards(heap.page_count(), k as usize) as u16);
        }

        // The statement priced once, as its serial run would be billed:
        // the advisor's comparison and the scheduler's cost hint read the
        // same two prices.
        let profile = self.hardware_profile();
        let inputs = heap.as_ref().map(|h| self.cost_inputs(cached.budget, h));
        let table_inputs = inputs.as_ref().map(|i| (i, scan));
        let workload =
            exec::price_statement(&cached, op, table_inputs, &self.fpga, &self.cpu, &profile);
        let comparison = (explain.is_some() || requested == BackendChoice::Auto).then(|| {
            let label = match op {
                _ if explain.is_none() => String::new(),
                PlanOp::PredictInto { dest } => format!("PREDICT {udf} ON {table} INTO {dest}"),
                PlanOp::Point { rows } => format!("PREDICT {udf} ON {} inline row(s)", rows.len()),
                PlanOp::Evaluate { .. } => format!("EVALUATE {udf} ON {table}"),
                PlanOp::Train => format!("EXECUTE {udf} ON {table}"),
            };
            advisor::advise(&profile, &workload, requested, label)
        });
        let backend = match (&comparison, requested) {
            (Some(c), _) => c.chosen,
            (None, BackendChoice::Cpu) => BackendKind::Cpu,
            (None, _) => BackendKind::Fpga,
        };
        // A gang's members finish their scan ~k× sooner than the serial
        // run priced above.
        let serial = match backend {
            BackendKind::Fpga => workload.fpga,
            BackendKind::Cpu => workload.cpu,
        };
        let wrap = match (explain, comparison) {
            (Some(wrap), Some(c)) => wrap(Box::new(c)),
            _ if with.trace => Wrap::Trace,
            _ => Wrap::None,
        };
        Ok(PhysicalPlan {
            op: op.clone(),
            udf: udf.clone(),
            table: table.clone(),
            scan: scan.cloned(),
            shards: k,
            backend,
            // EXPLAIN is metadata-only: it runs instantly, schedule it
            // first.
            cost_hint: if matches!(wrap, Wrap::Explain(_)) {
                0.0
            } else {
                serial / k as f64
            },
            wrap,
        })
    }

    // ---- run ------------------------------------------------------------

    /// Runs a bound plan the way its statement asked to be reported:
    /// `EXPLAIN` replies with the advisor's comparison without running;
    /// `EXPLAIN ANALYZE` and `WITH (trace = on)` run the plan and compose
    /// its lifecycle trace afterwards ([`exec::trace`]), charging the
    /// front stages `walls`. Returns the trace beside the outcome when
    /// `trace = on` asked for it (`EXPLAIN ANALYZE` carries its trace
    /// inside the outcome), and the run's [`RunLog`] whether or not it
    /// succeeded (empty for `EXPLAIN`, which runs nothing).
    pub fn run(
        &self,
        plan: &PhysicalPlan,
        walls: &FrontDoorWalls,
        ctx: &QueryCtx,
    ) -> (DanaResult<(QueryResponse, Option<QueryTrace>)>, RunLog) {
        let comparison = match &plan.wrap {
            Wrap::None => {
                let (outcome, log) = self.execute(plan, ctx);
                return (outcome.map(|o| (o, None)), log);
            }
            Wrap::Explain(c) => {
                let explained = QueryResponse::Explained((**c).clone());
                return (Ok((explained, None)), RunLog::default());
            }
            Wrap::Trace => None,
            Wrap::Analyze(c) => Some((**c).clone()),
        };
        let start = Instant::now();
        let (outcome, log) = self.execute(plan, ctx);
        let wall = start.elapsed().as_secs_f64();
        let traced = outcome.map(|outcome| {
            let trace = exec::trace(&outcome, &log, walls, self.fpga.clock.hz, wall);
            match comparison {
                None => (outcome, Some(trace)),
                Some(comparison) => (
                    QueryResponse::Analyzed(Box::new(AnalyzeReport {
                        outcome,
                        trace,
                        comparison: Some(comparison),
                    })),
                    None,
                ),
            }
        });
        (traced, log)
    }

    /// Executes a plan [`SystemCore::bind`] made — the one way into the
    /// executor. Returns the response and what the run logged
    /// ([`RunLog`]: the trace's inputs and the fault events), the log on
    /// failure too: a gang whose members faulted until its retries ran
    /// out reports them there. `ctx` carries the query's deadline and
    /// retry budget — training checks it cooperatively at epoch
    /// boundaries, scoring (a single pass with no boundaries to observe
    /// the token at) refuses an already-expired deadline before the scan
    /// starts. A caller holding accelerator leases is expected to hold
    /// `plan.shards` of them.
    pub fn execute(
        &self,
        plan: &PhysicalPlan,
        ctx: &QueryCtx,
    ) -> (DanaResult<QueryResponse>, RunLog) {
        let mut log = RunLog::default();
        let response = self.dispatch(plan, ctx, &mut log);
        (response, log)
    }

    /// [`SystemCore::execute`]'s body: runs the plan's op, logging into
    /// `log` as it goes.
    fn dispatch(
        &self,
        plan: &PhysicalPlan,
        ctx: &QueryCtx,
        log: &mut RunLog,
    ) -> DanaResult<QueryResponse> {
        if plan.shards > 1 && plan.backend == BackendKind::Cpu {
            return Err(exec::gang_needs_fpga());
        }
        if plan.op != PlanOp::Train {
            ctx.cancel.check()?;
        }
        Ok(match &plan.op {
            PlanOp::Train => QueryResponse::Trained(self.train(plan, ctx, log)?),
            PlanOp::PredictInto { dest } => {
                let (report, wall) = self.predict_into(plan, dest)?;
                log.materialize_wall = wall;
                QueryResponse::Predicted(report)
            }
            PlanOp::Evaluate { metric } => {
                QueryResponse::Evaluated(self.evaluate_scan(plan, *metric)?)
            }
            PlanOp::Point { rows } => QueryResponse::Point(self.point(plan, rows)?),
        })
    }

    // ---- training -------------------------------------------------------

    /// The EXECUTE path. A deployed UDF's engine comes off its catalog
    /// entry, built at DEPLOY — no validation, lowering, or design clone
    /// per query — and its trained model is stored back on the entry (last
    /// training wins). The epoch and merge cycles go into `log`, and so do
    /// the fault events, whether or not the run recovered.
    fn train(
        &self,
        plan: &PhysicalPlan,
        ctx: &QueryCtx,
        log: &mut RunLog,
    ) -> DanaResult<DanaReport> {
        let acc = self.accelerator_runtime(&plan.udf)?;
        let (entry, heap) = self.snapshot_table(&plan.table)?;
        let design = acc.engine.design();
        let access = exec::access_engine_for(&heap, acc.budget, &self.fpga);
        let mut scan = self.open_scan(plan, &entry, &heap, &access)?;
        let fault = self.fault_plan();
        let guard = RunGuard::new(&ctx.cancel)
            .with_fault(fault.as_deref())
            .with_retry(ctx.retry);
        // One epoch loop for every member count: a serial EXECUTE is a
        // gang of one.
        let start = Instant::now();
        let run = train_gang_guarded(
            &acc.engine,
            &mut scan.members,
            exec::initial_models(design),
            &guard,
            &mut log.faults,
        );
        let wall = start.elapsed().as_secs_f64();
        self.record_fault_events(&log.faults);
        let outcome = run?;
        let (shards, _) = scan.finish(&self.metrics, &heap, &outcome.shard_stats);
        let report = match plan.backend {
            // The native CPU tier ran the identical scan and epoch loop
            // (one member: `execute` refuses a CPU gang) — same models and
            // counters; its timing is the stopwatch, nothing is simulated.
            BackendKind::Cpu => exec::assemble_cpu_report(
                design,
                BackendRun {
                    stats: outcome.shard_stats[0],
                    wall_seconds: Some(wall),
                },
                shards[0].access_stats,
                outcome.models,
            ),
            BackendKind::Fpga => exec::assemble_training_report(
                &self.cost_inputs(acc.budget, &heap),
                design,
                shards,
                outcome.merge_cycles,
                outcome.models,
            ),
        };
        let models = Arc::new(TrainedModels {
            models: report.models.clone(),
            names: report.model_names.clone(),
        });
        // A short write lock, taken with no read guard alive on this
        // thread. A drop that raced the run turned the entry stale — don't
        // resurrect a model for a dropped table.
        if let Some(Deployed::Live { trained, .. }) = self.write().accelerators.get_mut(&plan.udf) {
            *trained = Some(models);
        }
        log.epoch_cycles = outcome.epoch_cycles;
        log.merge_cycles = outcome.merge_cycles;
        Ok(report)
    }

    /// Opens a statement's [`Scan`] — the only place that looks at the
    /// plan's `(shards, pushdown)` pair. Every member is a page-range
    /// stream through the pool that holds one batch; a rewind restarts its
    /// walk, and only its first pass is metered.
    ///
    /// * no pushdown → one contiguous page-range stream per planned shard
    ///   (the planner never makes more shards than pages; one shard is the
    ///   whole heap), each fetching through the pool concurrently;
    /// * pushdown, one shard → the whole-heap stream with the scan state
    ///   attached;
    /// * pushdown, several shards → the table is scanned **once** here,
    ///   metered, keeping only the slots each page's predicate kept. The
    ///   survivors are cut at the page boundaries a pre-materialized
    ///   filtered table would have (post-filter rows don't align with
    ///   source page boundaries, so source page ranges can't partition
    ///   them), and each member streams the pages that hold its slice,
    ///   extracting only its slots, on every pass. Member contents — and
    ///   so gang merges and concatenated scores — are bit-identical to
    ///   sharding that table, the member count never exceeds its page
    ///   count, and [`Scan::finish`] bills each member its share of the
    ///   one scan's measured cost.
    fn open_scan<'a>(
        &'a self,
        plan: &PhysicalPlan,
        entry: &TableEntry,
        heap: &'a HeapFile,
        access: &'a AccessEngine,
    ) -> DanaResult<Scan<'a>> {
        let state = self.scan_state(entry.heap_id, heap, plan.scan.as_ref())?;
        let heap_id = entry.heap_id;
        let open = |start_page, end_page| {
            SharedPageStreamSource::with_range(
                &self.pool, &self.disk, heap, heap_id, access, start_page, end_page,
            )
        };
        let (mut kept, mut shares) = (Vec::new(), Vec::new());
        let members = match &state {
            None => ShardPlan::new(heap, plan.shards as usize)
                .ranges()
                .iter()
                .map(|r| open(r.start_page, r.end_page))
                .collect(),
            Some(st) if plan.shards <= 1 => vec![open(0, heap.page_count()).with_scan(st.clone())],
            Some(st) => {
                let mut whole = open(0, heap.page_count()).with_scan(st.clone());
                while whole
                    .next_batch()
                    .map_err(|e| DanaError::Engine(EngineError::from(e)))?
                    .is_some()
                {}
                let scan = whole.into_stats();
                let capacity = exec::packed_page_capacity(heap, &st.spec)?;
                let splits = packed_tuple_splits(scan.stats.tuples, capacity, plan.shards as usize);
                shares = exec::split_filtered_scan_stats(&scan.stats, scan.io_seconds, &splits);
                kept = scan.kept;
                member_selections(&kept, &splits)
                    .into_iter()
                    .map(|(start, selection)| {
                        open(start, start + selection.len() as u32)
                            .with_scan(st.clone())
                            .with_selection(selection)
                    })
                    .collect()
            }
        };
        Ok(Scan {
            members,
            state,
            kept,
            shares,
        })
    }

    /// What a run over `heap` is priced against (see
    /// [`exec::CostInputs`]).
    fn cost_inputs<'a>(
        &'a self,
        budget: ResourceBudget,
        heap: &'a HeapFile,
    ) -> exec::CostInputs<'a> {
        exec::CostInputs {
            budget,
            fpga: &self.fpga,
            cpu: &self.cpu,
            disk: &self.disk,
            pool_frames: self.pool.frames(),
            heap,
        }
    }

    // ---- the inference tier --------------------------------------------

    /// PREDICT … INTO: the scan runs lock-free on a heap snapshot; the
    /// result installs under the write lock only if the source is still
    /// the same live heap (a drop or drop+recreate that raced the scan
    /// refuses the install instead of registering an orphan). A gang's
    /// shard outputs concatenate in shard-index order — source page order
    /// — so the materialized table is bit-identical to the serial one for
    /// every shard count; with a pushdown scan it keeps only surviving
    /// tuples and projected columns. The table is written by as many
    /// members as scanned, each a contiguous range of its output pages.
    /// Returns the wall seconds the materialization took beside the report.
    fn predict_into(
        &self,
        plan: &PhysicalPlan,
        dest: &str,
    ) -> DanaResult<(PredictReport, Seconds)> {
        let setup = self.scoring_setup(&plan.udf)?;
        let (entry, heap) = self.snapshot_table(&plan.table)?;
        // Cheap early refusal before scanning anything; the authoritative
        // check is the guarded install below.
        if self.read().db.table(dest).is_ok() {
            return Err(StorageError::DuplicateName(dest.to_string()).into());
        }
        let (predictions, stats, timing, shards, survivors) =
            self.scoring_scan(plan, &setup, &entry, &heap, |members| {
                Ok(score_gang_concat(&setup.program, setup.lanes, members)?)
            })?;
        let mat_start = Instant::now();
        let selection = survivors.as_ref().map(|s| (&s.slots[..], &*s.spec));
        let out_heap =
            exec::materialize_predictions(&heap, selection, &predictions, shards as usize)?;
        {
            let mut cat = self.write();
            match cat.db.table(&plan.table) {
                Ok(t) if t.heap_id == entry.heap_id && !t.stale => {
                    cat.db.create_derived_table(dest, out_heap, &plan.table)?;
                }
                _ => {
                    // The source was dropped (or swapped) mid-scan: the
                    // predictions describe rows that no longer exist.
                    return Err(StorageError::UnknownTable(plan.table.clone()).into());
                }
            }
        }
        let materialize_wall = mat_start.elapsed().as_secs_f64();
        let report = PredictReport {
            udf: plan.udf.clone(),
            source_table: plan.table.clone(),
            output_table: dest.to_string(),
            rows_scored: stats.tuples,
            lanes: setup.lanes,
            shards,
            backend: plan.backend,
            scoring: stats,
            timing,
        };
        Ok((report, materialize_wall))
    }

    /// EVALUATE: score and fold the metric; nothing is materialized.
    fn evaluate_scan(
        &self,
        plan: &PhysicalPlan,
        metric: Option<MetricKind>,
    ) -> DanaResult<EvalReport> {
        let setup = self.scoring_setup(&plan.udf)?;
        let metric = metric.unwrap_or_else(|| setup.recipe.default_metric());
        setup.recipe.check_metric(metric)?;
        let (entry, heap) = self.snapshot_table(&plan.table)?;
        // Member partials combine in shard-index order and the metric
        // finishes once.
        let (value, stats, timing, shards, _) =
            self.scoring_scan(plan, &setup, &entry, &heap, |members| {
                let evals = evaluate_gang(&setup.program, setup.lanes, members, metric)?;
                let mut partial = MetricPartial::default();
                for e in &evals {
                    partial.absorb(e.partial);
                }
                Ok((
                    partial.finish(metric)?,
                    evals.iter().map(|e| e.stats).collect(),
                ))
            })?;
        Ok(EvalReport {
            udf: plan.udf.clone(),
            table: plan.table.clone(),
            metric,
            value,
            rows_scored: stats.tuples,
            lanes: setup.lanes,
            shards,
            backend: plan.backend,
            scoring: stats,
            timing,
        })
    }

    /// The **point fast path**: binds the literal rows straight into the
    /// cached scoring program and scores them as one in-memory SoA batch
    /// — no heap scan, no buffer-pool traffic, nothing materialized, and
    /// (on the CPU tier) no accelerator lease. Bit-identical to the
    /// materializing path on the same rows because the identical lockstep
    /// kernel runs in both.
    fn point(&self, plan: &PhysicalPlan, rows: &[Vec<f32>]) -> DanaResult<PointReport> {
        let setup = self.scoring_setup(&plan.udf)?;
        let batch = exec::point_batch(&plan.udf, &setup.program, rows)?;
        let start = Instant::now();
        let (predictions, stats) = dana_infer::score_batch(&setup.program, setup.lanes, &batch)?;
        let wall = start.elapsed().as_secs_f64();
        let timing = exec::point_timing(plan.backend, &stats, wall, &self.fpga);
        Ok(PointReport {
            udf: plan.udf.clone(),
            predictions,
            lanes: setup.lanes,
            backend: plan.backend,
            cached: false,
            scoring: stats,
            timing,
        })
    }

    /// Everything a scoring query resolves from the catalog (stale check,
    /// cached accelerator — with the engine-cache counters — recipe bound
    /// to the latest trained models, lane count).
    fn scoring_setup(&self, udf: &str) -> DanaResult<exec::ScoringSetup> {
        let (cached, trained) = self.live_accelerator(udf)?;
        exec::scoring_setup(udf, cached, trained)
    }

    /// The one scoring scan over a heap snapshot, shared by
    /// predict/evaluate so the scan plumbing exists exactly once:
    /// open the plan's [`Scan`], hand its members to `fold` — what the
    /// statement keeps of the predictions: PREDICT collects them, EVALUATE
    /// folds a metric — and compose the timing. The gang tier runs one
    /// member inline on this thread and spawns only for several; the FPGA
    /// tier composes the cycle model from the critical member, the CPU
    /// tier reports the stopwatch around the fold
    /// ([`DanaTiming::wall_only`]). Returns the member count actually run
    /// and what a pushdown scan selected (PREDICT … INTO materializes
    /// exactly those tuples).
    fn scoring_scan<T>(
        &self,
        plan: &PhysicalPlan,
        setup: &exec::ScoringSetup,
        entry: &TableEntry,
        heap: &HeapFile,
        fold: impl FnOnce(&mut [SharedPageStreamSource<'_>]) -> DanaResult<(T, Vec<ScoringStats>)>,
    ) -> DanaResult<(T, ScoringStats, DanaTiming, u16, Option<Survivors>)> {
        let budget = setup.cached.budget;
        let access = exec::access_engine_for(heap, budget, &self.fpga);
        let mut scan = self.open_scan(plan, entry, heap, &access)?;
        let start = Instant::now();
        let (out, stats) = fold(&mut scan.members)?;
        let wall = start.elapsed().as_secs_f64();
        let (shards, survivors) = scan.finish(&self.metrics, heap, &[]);
        let (timing, combined) = match plan.backend {
            // `execute` refuses a CPU gang, so this scan had one member.
            BackendKind::Cpu => (DanaTiming::wall_only(wall), stats[0]),
            BackendKind::Fpga => {
                let inputs = self.cost_inputs(budget, heap);
                exec::assemble_scoring_timing(&inputs, &shards, &stats)
            }
        };
        Ok((out, combined, timing, shards.len() as u16, survivors))
    }

    // ---- catalog resolution ---------------------------------------------

    /// A live accelerator's runtime artifact and latest trained models,
    /// under a short read lock, counted against the engine-cache
    /// statistics. Unknown and stale UDFs are typed errors (see
    /// [`CoreCatalog::live_accelerator`]).
    fn live_accelerator(
        &self,
        udf: &str,
    ) -> DanaResult<(Arc<CachedAccelerator>, Option<Arc<TrainedModels>>)> {
        let cat = self.read();
        let (runtime, trained) = cat.live_accelerator(udf)?;
        self.engine_cache_hits.fetch_add(1, Ordering::Relaxed);
        Ok((Arc::clone(runtime), trained.clone()))
    }

    /// The accelerator's DEPLOY-time runtime artifact (engine + budget +
    /// estimate + scoring recipe), with the stale check.
    pub fn accelerator_runtime(&self, udf: &str) -> DanaResult<Arc<CachedAccelerator>> {
        Ok(self.live_accelerator(udf)?.0)
    }

    /// The UDF's current trained-model generation: the `Arc` on its
    /// catalog entry, as an identity witness. `None` when untrained,
    /// stale, or unknown. The serving tier's prediction cache stamps
    /// entries with this `Arc` and refuses hits whose stamp is no longer
    /// pointer-equal to the live one — a retrain swaps the `Arc` (last
    /// write wins) and a drop or re-DEPLOY leaves none, so either way the
    /// stamp mismatch invalidates without any flag on the hot path.
    /// Holding the `Arc` (not a raw pointer) makes the comparison
    /// ABA-safe: the old generation's allocation cannot be reused while a
    /// cache entry still references it.
    pub fn trained_generation(&self, udf: &str) -> Option<Arc<TrainedModels>> {
        self.read().live_accelerator(udf).ok()?.1.clone()
    }

    /// Resolves a statement's optional `WHERE`/`COLUMNS` spec into the
    /// [`ScanState`] the page sources consume: `None` for no spec or a
    /// trivial one (plain full scans never touch the sidecar), otherwise
    /// the spec bound to the heap's schema plus the table's compressed
    /// sidecar. The sidecar is built outside the lock on first use and
    /// registered only while its heap still is: concurrent first scans
    /// converge on the one the map kept, and a scan of a just-dropped
    /// table keeps its private copy.
    fn scan_state(
        &self,
        heap_id: HeapId,
        heap: &HeapFile,
        spec: Option<&ScanSpec>,
    ) -> DanaResult<Option<ScanState>> {
        let Some(spec) = spec.filter(|s| !s.is_trivial()) else {
            return Ok(None);
        };
        let bound = spec
            .bind(heap.schema())
            .map_err(|e| DanaError::Query(e.to_string()))?;
        // Its own statement: the read guard must be gone before the miss
        // arm asks for the write lock.
        let registered = self.read().sidecars.get(&heap_id).cloned();
        let sidecar = match registered {
            Some(sidecar) => sidecar,
            None => {
                let built = Arc::new(ScanSidecar::build(heap)?);
                let mut cat = self.write();
                if cat.db.heap(heap_id).is_ok() {
                    Arc::clone(cat.sidecars.entry(heap_id).or_insert(built))
                } else {
                    built
                }
            }
        };
        Ok(Some(ScanState {
            sidecar,
            spec: Arc::new(bound),
        }))
    }

    /// Consistent (catalog entry, heap snapshot) for a table, under a read
    /// lock released before returning. All downstream work (compile,
    /// execution) must use this one snapshot so concurrent DDL cannot swap
    /// the heap mid-query. Stale derived tables are refused with a typed
    /// error.
    pub(crate) fn snapshot_table(&self, table: &str) -> DanaResult<(TableEntry, Arc<HeapFile>)> {
        let cat = self.read();
        let entry = cat.db.live_table(table)?.clone();
        let heap = cat.db.heap_arc(entry.heap_id)?;
        Ok((entry, heap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{evaluate, execute, linreg_heap, predict};
    use crate::{parse_statement, Dana, Work};
    use dana_dsl::zoo::{linear_regression, DenseParams};
    use dana_storage::page::TupleDirection;
    use dana_storage::{HeapFileBuilder, Schema, Tuple};

    /// [`a_streamed_three_epoch_execute_bills_what_the_cached_one_did`]'s
    /// bill at commit edfbfa0, which replayed later epochs from a cache.
    const TIMING_AT_PARENT: [u64; 7] = [
        4584244844857522396,
        4563459501891147455,
        4558497633490102606,
        0,
        4562350431986552630,
        4584304132692975288,
        4594024959172541220,
    ];
    const ACCESS_AT_PARENT: [u64; 7] = [128, 18560, 4556391195633808297, 464768, 0, 0, 0];
    /// [`filtered_gang_members_are_billed_shares_of_one_scan`]'s digest of
    /// its statements' bills at commit edfbfa0.
    const GANG_BILLS_AT_PARENT: u64 = 2463648942315308101;

    const POOL: BufferPoolConfig = BufferPoolConfig {
        pool_bytes: 64 << 20,
        page_size: 8 * 1024,
    };

    fn small_core() -> SystemCore {
        SystemCore::new(SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: POOL,
            pool_shards: 4,
            disk: DiskModel::ssd(),
        })
    }

    /// Lowers `sql` — a call, bare or under EXPLAIN — against `cap` leases.
    fn bind_sql(core: &SystemCore, sql: &str, cap: usize) -> DanaResult<PhysicalPlan> {
        match core.lower(&parse_statement(sql).unwrap(), cap)?.0 {
            Work::Plan(plan) => Ok(*plan),
            Work::Stats(_) => panic!("SHOW STATS has no plan to bind"),
        }
    }

    fn linreg_spec(d: usize) -> dana_dsl::AlgoSpec {
        linear_regression(DenseParams {
            n_features: d,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 25,
        })
        .unwrap()
    }

    fn prediction_column(core: &SystemCore, table: &str, column: usize) -> Vec<f32> {
        let heap = core.table_snapshot(table).unwrap();
        let batch = heap.scan_batch().unwrap();
        batch.rows().map(|r| r[column]).collect()
    }

    /// `linreg_spec(d)` under another UDF name.
    fn named_spec(name: &str, d: usize) -> dana_dsl::AlgoSpec {
        let mut spec = linreg_spec(d);
        spec.name = name.into();
        spec
    }

    #[test]
    fn accelerator_round_trip() {
        let core = small_core();
        core.create_table("t", linreg_heap(200, 8)).unwrap();
        let info = core.deploy(&linreg_spec(8), "t").unwrap();
        assert_eq!(core.accelerator_names(), vec!["linearR".to_string()]);
        // The entry holds what DEPLOY built, untrained.
        let runtime = core.accelerator_runtime("linearR").unwrap();
        assert_eq!(runtime.engine.design().num_threads, info.num_threads);
        assert_eq!(runtime.budget.num_page_buffers, info.num_striders);
        assert!(runtime.scoring.is_some());
        assert!(core.trained_generation("linearR").is_none());
        assert!(execute(&core, "linearR", "t").is_ok());
        // An unknown UDF is storage's typed error on every path.
        for result in [
            core.accelerator_runtime("nope").map(|_| ()),
            execute(&core, "nope", "t").map(|_| ()),
            evaluate(&core, "nope", "t").map(|_| ()),
        ] {
            assert!(matches!(
                result,
                Err(DanaError::Storage(StorageError::UnknownAccelerator(udf))) if udf == "nope"
            ));
        }
        assert!(core.trained_generation("nope").is_none());
    }

    #[test]
    fn invalidation_marks_bound_accelerators_stale() {
        let core = small_core();
        core.create_table("t", linreg_heap(200, 8)).unwrap();
        core.create_table("other", linreg_heap(200, 8)).unwrap();
        core.deploy(&named_spec("svm", 8), "t").unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();
        core.deploy(&named_spec("logisticR", 8), "other").unwrap();
        let hit = core.drop_table("t").unwrap().invalidated_udfs;
        assert_eq!(hit, vec!["linearR".to_string(), "svm".to_string()]);
        for udf in ["linearR", "svm"] {
            match execute(&core, udf, "other") {
                Err(DanaError::StaleAccelerator {
                    udf: u,
                    dropped_table,
                }) => assert_eq!((u.as_str(), dropped_table.as_str()), (udf, "t")),
                other => panic!("expected StaleAccelerator, got {other:?}"),
            }
            assert!(core.accelerator_runtime(udf).is_err());
        }
        // An accelerator bound to another table is untouched.
        assert!(execute(&core, "logisticR", "other").is_ok());
        // Idempotent: re-creating and dropping the table again names no
        // UDF twice, and stale entries stay listed.
        core.create_table("t", linreg_heap(200, 8)).unwrap();
        assert!(core.drop_table("t").unwrap().invalidated_udfs.is_empty());
        assert_eq!(
            core.accelerator_names(),
            vec![
                "linearR".to_string(),
                "logisticR".to_string(),
                "svm".to_string()
            ]
        );
    }

    #[test]
    fn invalidation_clears_trained_models_too() {
        let core = small_core();
        core.create_table("t", linreg_heap(200, 8)).unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();
        let report = execute(&core, "linearR", "t").unwrap();
        let trained = core.trained_generation("linearR").expect("EXECUTE stored");
        assert_eq!(trained.models, report.models);
        assert_eq!(trained.names, report.model_names);
        core.drop_table("t").unwrap();
        assert!(core.trained_generation("linearR").is_none());
    }

    /// `n` training rows whose first feature ascends with the row (so a
    /// range predicate on it prunes pages), as the full heap and the heap
    /// pre-materialized under `x0 < 0.25`. `salt` varies the other cells.
    fn clustered_heaps(n: usize, d: usize, salt: usize) -> (HeapFile, HeapFile) {
        use dana_storage::page::TupleDirection;
        use dana_storage::{HeapFileBuilder, Schema};
        let builder =
            || HeapFileBuilder::new(Schema::training(d), 8 * 1024, TupleDirection::Ascending);
        let (mut full, mut kept) = (builder().unwrap(), builder().unwrap());
        for k in 0..n {
            let mut x: Vec<f32> = (0..d)
                .map(|i| (((k * 7 + i * 3 + salt) % 11) as f32 - 5.0) / 5.0)
                .collect();
            x[0] = k as f32 / n as f32;
            let tuple = Tuple::training(&x, x.iter().sum());
            full.insert(&tuple).unwrap();
            if x[0] < 0.25 {
                kept.insert(&tuple).unwrap();
            }
        }
        (full.finish(), kept.finish())
    }

    #[test]
    fn sidecar_lives_and_dies_with_its_table() {
        let core = small_core();
        let sidecars =
            || -> Vec<Arc<ScanSidecar>> { core.read().sidecars.values().cloned().collect() };
        let filtered = || {
            let out = core.execute_statement("EVALUATE dana.linearR('t') WHERE x0 < 0.25;");
            out.unwrap().eval_report().unwrap().value
        };
        let mut values = Vec::new();
        // The second round re-creates `t` under the same name with
        // different rows: it must start from a cold sidecar of its own.
        for (n, salt) in [(1200, 0), (900, 4)] {
            let (full, kept) = clustered_heaps(n, 8, salt);
            core.create_table("t", full).unwrap();
            core.create_table("kept", kept).unwrap();
            core.deploy(&linreg_spec(8), "t").unwrap();
            execute(&core, "linearR", "t").unwrap();
            assert!(sidecars().is_empty(), "a full scan builds no sidecar");

            let first = filtered();
            let registered = sidecars();
            assert_eq!(registered.len(), 1);
            let second = filtered();
            let reused = sidecars();
            assert_eq!(reused.len(), 1);
            assert!(Arc::ptr_eq(&registered[0], &reused[0]));
            assert_eq!(first.to_bits(), second.to_bits());
            let reference = evaluate(&core, "linearR", "kept").unwrap().value;
            assert_eq!(first.to_bits(), reference.to_bits());
            values.push(first);

            core.drop_table("t").unwrap();
            assert!(sidecars().is_empty(), "the sidecar goes with its table");
            core.drop_table("kept").unwrap();
        }
        assert_ne!(values[0], values[1], "the rounds scored different rows");
        assert_eq!(core.held_frames(), 0);
        assert_eq!(core.resident_pages(), 0);
    }

    #[test]
    fn deploy_and_run_through_shared_core() {
        let core = small_core();
        core.create_table("t", linreg_heap(500, 8)).unwrap();
        let info = core.deploy(&linreg_spec(8), "t").unwrap();
        assert!(info.num_threads >= 1);
        assert_eq!(core.accelerator_names(), vec!["linearR".to_string()]);
        let report = execute(&core, "linearR", "t").unwrap();
        let w = report.dense_model();
        for (i, v) in w.iter().enumerate() {
            let truth = 0.3 * i as f32 - 0.5;
            assert!((v - truth).abs() < 0.05, "w[{i}] = {v}, truth {truth}");
        }
        assert_eq!(core.held_frames(), 0, "query must release every frame");
    }

    /// A four-shard pool scores bit-identically to the embedded one-shard
    /// system: pool sharding changes locking, never results.
    #[test]
    fn concurrent_predict_matches_serial_bit_for_bit() {
        let core = small_core();
        let db = Dana::new(FpgaSpec::vu9p(), POOL, DiskModel::ssd());
        let spec = linreg_spec(10);
        for sys in [&core, &*db] {
            sys.create_table("t", linreg_heap(600, 10)).unwrap();
            sys.deploy(&spec, "t").unwrap();
            execute(sys, "linearR", "t").unwrap();
            let report = predict(sys, "linearR", "t", "p").unwrap();
            assert_eq!(report.rows_scored, 600);
            assert_eq!(sys.held_frames(), 0, "scoring must release every frame");
        }
        assert_eq!(
            prediction_column(&core, "p", 11),
            prediction_column(&db, "p", 11),
            "paths must be bit-identical"
        );
        let c = evaluate(&core, "linearR", "t").unwrap();
        let s = evaluate(&db, "linearR", "t").unwrap();
        assert_eq!(c.value, s.value);
        assert_eq!(c.metric, s.metric);
    }

    #[test]
    fn predict_without_training_is_typed_error() {
        let core = small_core();
        core.create_table("t", linreg_heap(100, 8)).unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();
        assert!(matches!(
            predict(&core, "linearR", "t", "p"),
            Err(DanaError::ModelNotTrained { .. })
        ));
        assert!(matches!(
            evaluate(&core, "linearR", "t"),
            Err(DanaError::ModelNotTrained { .. })
        ));
    }

    #[test]
    fn scoring_hint_prices_tuples_over_program_length() {
        let core = small_core();
        core.create_table("small", linreg_heap(200, 8)).unwrap();
        core.create_table("large", linreg_heap(4000, 8)).unwrap();
        core.deploy(&linreg_spec(8), "small").unwrap();
        let hint = |sql: &str| bind_sql(&core, sql, 1).unwrap().cost_hint;
        let s = hint("EVALUATE dana.linearR('small');");
        let l = hint("EVALUATE dana.linearR('large');");
        assert!(s > 0.0);
        assert!(l > s, "more tuples must cost more: {l} vs {s}");
        // Scoring is one pass; training the same table runs 25 epochs.
        let train = hint("SELECT * FROM dana.linearR('small');");
        assert!(
            s < train,
            "a scoring pass must undercut training under SJF: {s} vs {train}"
        );
        // A gang finishes its scan ~k× sooner, and is priced so.
        let gang = bind_sql(
            &core,
            "EVALUATE dana.linearR('large') WITH (shards = 2);",
            4,
        )
        .unwrap();
        assert_eq!(gang.shards, 2);
        assert_eq!(gang.cost_hint, l / 2.0);
        // A selective scan feeds the engine fewer tuples, and is priced so.
        let filtered = hint("EVALUATE dana.linearR('large') WHERE x0 < 0.5;");
        assert!(0.0 < filtered && filtered < l, "{filtered} vs {l}");
    }

    /// The advisor prices the FPGA tier as the accelerator this core runs —
    /// whatever profile is installed, since a profile holds no clock — and
    /// as the run is billed: `EXPLAIN`'s estimate is the executed total.
    #[test]
    fn explain_prices_the_fpga_tier_at_the_cores_own_clock() {
        let core = SystemCore::new(SystemCoreConfig {
            fpga: FpgaSpec {
                clock: dana_fpga::Clock::from_mhz(100.0),
                ..FpgaSpec::vu9p()
            },
            pool: POOL,
            pool_shards: 4,
            disk: DiskModel::ssd(),
        });
        core.set_hardware_profile(HardwareProfile::default().with_offload_threshold(None));
        core.create_table("t", linreg_heap(3001, 8)).unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();
        core.prewarm("t").unwrap();
        let sql = "SELECT * FROM dana.linearR('t') WITH (backend = fpga);";
        let Wrap::Explain(cmp) = bind_sql(&core, &format!("EXPLAIN {sql}"), 1).unwrap().wrap else {
            panic!("EXPLAIN binds to an explain plan");
        };
        let priced = cmp.estimated_seconds(BackendKind::Fpga).unwrap();
        let out = core.execute_statement(sql).unwrap();
        let report = out.report().unwrap();
        assert_eq!(report.epochs_run, 25, "the run spends its whole budget");
        assert_eq!(priced, report.timing.total_seconds);
        // The same run at the stock 150 MHz is billed less, and priced so.
        let stock = small_core();
        stock.create_table("t", linreg_heap(3001, 8)).unwrap();
        stock.deploy(&linreg_spec(8), "t").unwrap();
        let Wrap::Explain(fast) = bind_sql(&stock, &format!("EXPLAIN {sql}"), 1).unwrap().wrap
        else {
            panic!("EXPLAIN binds to an explain plan");
        };
        assert!(fast.estimated_seconds(BackendKind::Fpga).unwrap() < priced);
    }

    #[test]
    fn cpu_backend_matches_fpga_in_shared_core() {
        let core = small_core();
        core.create_table("t", linreg_heap(500, 8)).unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();

        let fpga = execute(&core, "linearR", "t").unwrap();
        let cpu = core
            .execute_statement("SELECT * FROM dana.linearR('t') WITH (backend = cpu);")
            .unwrap();
        let cpu = cpu.report().unwrap();
        assert_eq!(cpu.backend, BackendKind::Cpu);
        assert_eq!(cpu.models, fpga.models, "tiers must agree bit-for-bit");
        assert_eq!(cpu.engine.cycles, fpga.engine.cycles);
        assert_eq!(cpu.timing.total_seconds, 0.0, "nothing was simulated");
        assert!(cpu.timing.wall_seconds.is_some());
        assert_eq!(core.held_frames(), 0, "CPU tier must release every frame");

        // Scoring tiers agree too, and the CPU report keeps the units
        // separation.
        let p_fpga = predict(&core, "linearR", "t", "pf").unwrap();
        let p_cpu = core
            .execute_statement("PREDICT dana.linearR('t') INTO 'pc' WITH (backend = cpu);")
            .unwrap();
        let p_cpu = p_cpu.predict_report().unwrap();
        assert_eq!(p_cpu.backend, BackendKind::Cpu);
        assert_eq!(p_fpga.backend, BackendKind::Fpga);
        assert!(p_cpu.timing.wall_seconds.is_some());
        assert_eq!(
            prediction_column(&core, "pf", 9),
            prediction_column(&core, "pc", 9),
            "predictions must be bit-identical"
        );
        let e_fpga = evaluate(&core, "linearR", "t").unwrap();
        let e_cpu = core
            .execute_statement("EVALUATE dana.linearR('t') WITH (backend = cpu);")
            .unwrap();
        let e_cpu = e_cpu.eval_report().unwrap();
        assert_eq!(e_cpu.value, e_fpga.value);
        assert_eq!(e_cpu.backend, BackendKind::Cpu);
    }

    #[test]
    fn advisor_routes_statements_in_shared_core() {
        let core = small_core();
        core.create_table("t", linreg_heap(300, 8)).unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();
        let bind = |sql: &str| bind_sql(&core, sql, 4);

        // Default: always offload, and EXPLAIN prices both tiers.
        let plain = "SELECT * FROM dana.linearR('t');";
        assert_eq!(bind(plain).unwrap().backend, BackendKind::Fpga);
        let Wrap::Explain(cmp) = bind(&format!("EXPLAIN {plain}")).unwrap().wrap else {
            panic!("EXPLAIN binds to an explain plan");
        };
        assert_eq!(cmp.rows, 300);
        assert_eq!(cmp.options.len(), 2);
        assert_eq!(cmp.chosen, BackendKind::Fpga);

        // Break-even model on: 300 rows routes to the CPU tier, which
        // needs no accelerator.
        core.set_hardware_profile(core.hardware_profile().with_offload_threshold(None));
        let routed = bind(plain).unwrap();
        assert_eq!(routed.backend, BackendKind::Cpu);
        assert!(!routed.needs_accelerator());
        // Forced backend still wins.
        let forced = bind("SELECT * FROM dana.linearR('t') WITH (backend = fpga);").unwrap();
        assert_eq!(forced.backend, BackendKind::Fpga);
        assert!(forced.needs_accelerator());
        // Gang + cpu is the typed conflict, also for a hand-built plan.
        assert!(matches!(
            bind("SELECT * FROM dana.linearR('t') WITH (shards = 2, backend = cpu);"),
            Err(DanaError::Query(_))
        ));
        let conflict = PhysicalPlan {
            shards: 2,
            backend: BackendKind::Cpu,
            ..bind(plain).unwrap()
        };
        assert!(matches!(
            core.execute(&conflict, &QueryCtx::default()).0,
            Err(DanaError::Query(_))
        ));
        // SHOW STATS executes nothing: there is no comparison to read.
        assert!(matches!(
            core.execute_statement("SHOW STATS;").unwrap().comparison(),
            Err(DanaError::UnexpectedResponse {
                expected: "explain",
                got: "stats"
            })
        ));
    }

    #[test]
    fn estimated_seconds_orders_small_before_large() {
        let core = small_core();
        core.create_table("small", linreg_heap(200, 8)).unwrap();
        core.create_table("large", linreg_heap(3000, 8)).unwrap();
        core.deploy(&named_spec("smallR", 8), "small").unwrap();
        core.deploy(&named_spec("largeR", 8), "large").unwrap();
        let hint = |sql: &str| bind_sql(&core, sql, 1).unwrap().cost_hint;
        let s = hint("SELECT * FROM dana.smallR('small');");
        let l = hint("SELECT * FROM dana.largeR('large');");
        assert!(s > 0.0 && l > 0.0);
        assert!(l > s, "more tuples must cost more: {l} vs {s}");
    }

    /// A core whose one-shard pool holds `frames` 8 KiB pages.
    fn core_with_frames(frames: u64) -> SystemCore {
        SystemCore::new(SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig {
                pool_bytes: frames * 8 * 1024,
                page_size: 8 * 1024,
            },
            pool_shards: 1,
            disk: DiskModel::ssd(),
        })
    }

    /// `linreg_spec(d)` named `name`, trained for `epochs` epochs.
    fn epochs_spec(name: &str, d: usize, epochs: u32) -> dana_dsl::AlgoSpec {
        let mut spec = linear_regression(DenseParams {
            n_features: d,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs,
        })
        .unwrap();
        spec.name = name.into();
        spec
    }

    fn timing_bits(t: &DanaTiming) -> [u64; 7] {
        [
            t.io_seconds,
            t.axi_seconds,
            t.strider_seconds,
            t.decompress_seconds,
            t.engine_seconds,
            t.setup_seconds,
            t.total_seconds,
        ]
        .map(f64::to_bits)
    }

    fn access_bits(a: &AccessStats) -> [u64; 7] {
        [
            a.pages,
            a.tuples,
            a.axi_seconds.to_bits(),
            a.strider_cycles,
            a.decompress_cycles,
            a.decompressed_bytes,
            a.pages_skipped,
        ]
    }

    /// `x0, x1, y` rows filling `pages` 8 KiB pages. Every odd page holds
    /// `x1 = 10` only, which `WHERE x1 < 5` zone-prunes; on the even pages
    /// `x1` cycles through 0, 0.25, …, 1, so `WHERE x1 < 0.9` keeps four
    /// rows in five of them.
    fn banded_heap(pages: usize) -> HeapFile {
        let capacity = linreg_heap(1, 2).layout().capacity as usize;
        let mut b =
            HeapFileBuilder::new(Schema::training(2), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..pages * capacity {
            let x0 = ((k * 7) % 11) as f32 / 5.0 - 1.0;
            let x1 = if (k / capacity) % 2 == 1 {
                10.0
            } else {
                (k % 5) as f32 * 0.25
            };
            b.insert(&Tuple::training(&[x0, x1], 0.3 * x0 - 0.5 * x1))
                .unwrap();
        }
        b.finish()
    }

    /// Opens `sql`'s scan on a cold pool, streams every member `passes`
    /// times and closes it: per member, what it is billed (access stats,
    /// first-pass disk seconds as bits), and what the scan selected.
    fn run_scan(
        core: &SystemCore,
        sql: &str,
        passes: usize,
    ) -> (Vec<(AccessStats, u64)>, Option<Survivors>) {
        let plan = bind_sql(core, sql, 4).unwrap();
        let (entry, heap) = core.snapshot_table(&plan.table).unwrap();
        let budget = core.accelerator_runtime(&plan.udf).unwrap().budget;
        let access = exec::access_engine_for(&heap, budget, &core.fpga);
        core.clear_cache();
        let mut scan = core.open_scan(&plan, &entry, &heap, &access).unwrap();
        for member in &mut scan.members {
            for _ in 0..passes {
                member.rewind().unwrap();
                while member.next_batch().unwrap().is_some() {}
            }
        }
        let (shards, survivors) = scan.finish(&core.metrics, &heap, &[]);
        let billed = shards
            .iter()
            .map(|s| (s.access_stats, s.io_first.to_bits()));
        (billed.collect(), survivors)
    }

    /// FNV-1a over 64-bit words.
    fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Training streams its pages every epoch and only the first pass is
    /// metered, so a three-epoch EXECUTE over a table twice the pool's
    /// size bills what it billed when later epochs replayed a cached copy
    /// of the table: its `DanaTiming` and `AccessStats` equal, bit for
    /// bit, the numbers recorded at commit edfbfa0. Its later passes
    /// really missed — the pool counts one miss per page per pass — and no
    /// frame stays held.
    #[test]
    fn a_streamed_three_epoch_execute_bills_what_the_cached_one_did() {
        let core = core_with_frames(64);
        let capacity = linreg_heap(1, 8).layout().capacity as usize;
        core.create_table("t", linreg_heap(128 * capacity, 8))
            .unwrap();
        assert_eq!(core.table_pages("t"), Some(2 * core.pool.frames() as u32));
        core.deploy(&epochs_spec("thrice", 8, 3), "t").unwrap();
        core.clear_cache();
        let report = execute(&core, "thrice", "t").unwrap();
        assert_eq!(report.epochs_run, 3);
        assert_eq!(timing_bits(&report.timing), TIMING_AT_PARENT);
        assert_eq!(access_bits(&report.access), ACCESS_AT_PARENT);
        assert_eq!(core.pool_stats().misses, 3 * 128);
        assert_eq!(core.held_frames(), 0);
    }

    /// A filtered gang scans its table once, metered, at open, and bills
    /// each member its share of that scan: at k = 2 and 4, for EXECUTE,
    /// EVALUATE and PREDICT INTO, every member is billed
    /// `split_filtered_scan_stats` of the lone member's first pass at
    /// k = 1, however many passes the members stream. `x1 < 0.9` puts
    /// member boundaries mid-page; under `x1 < 5` every boundary ends an
    /// even page and the page after it is zone-pruned. Through the front
    /// door, the statements' bills digest to what they did at commit
    /// edfbfa0.
    #[test]
    fn filtered_gang_members_are_billed_shares_of_one_scan() {
        let core = small_core();
        core.create_table("t", banded_heap(12)).unwrap();
        core.deploy(&epochs_spec("banded", 2, 3), "t").unwrap();
        let heap = core.table_snapshot("t").unwrap();
        let mut bills = Vec::new();
        for (w, (wher, mid_page)) in [("WHERE x1 < 0.9", true), ("WHERE x1 < 5", false)]
            .into_iter()
            .enumerate()
        {
            let statements = |k: u16| {
                let with = format!("{wher} WITH (shards = {k})");
                [
                    format!("SELECT * FROM dana.banded('t') {with};"),
                    format!("EVALUATE dana.banded('t') {with};"),
                    format!("PREDICT dana.banded('t') INTO 'p{w}_{k}' {with};"),
                ]
            };
            let [train, ..] = statements(1);
            core.execute_statement(&train).unwrap();
            let (lone, _) = run_scan(&core, &train, 1);
            let [(scan, io)] = lone[..] else {
                panic!("one member: {lone:?}")
            };
            let plan = bind_sql(&core, &train, 1).unwrap();
            let bound = plan.scan.unwrap().bind(heap.schema()).unwrap();
            let kept = dana_scan::select_slots(&heap, &bound).unwrap();
            let packed = exec::packed_page_capacity(&heap, &bound).unwrap();
            for k in [2u16, 4] {
                let splits = packed_tuple_splits(scan.tuples, packed, k as usize);
                // Each boundary between members: whether it splits a page,
                // and whether the next page is empty (an odd, pruned page).
                let ends: Vec<u64> = kept
                    .iter()
                    .scan(0, |n, slots| {
                        *n += slots.len() as u64;
                        Some(*n)
                    })
                    .collect();
                let boundaries = splits.iter().scan(0, |n, &split| {
                    *n += split;
                    Some(*n)
                });
                let cuts: Vec<(bool, bool)> = boundaries
                    .take(k as usize - 1)
                    .map(|boundary| {
                        let page = ends.iter().position(|&end| end >= boundary).unwrap();
                        let next_empty = kept.get(page + 1).is_some_and(Vec::is_empty);
                        (ends[page] > boundary, next_empty)
                    })
                    .collect();
                if mid_page {
                    assert!(cuts.iter().any(|&(mid, _)| mid), "{wher} k={k}: {cuts:?}");
                } else {
                    let at_page_ends = cuts.iter().all(|&(mid, next_empty)| !mid && next_empty);
                    assert!(at_page_ends, "{wher} k={k}: {cuts:?}");
                }
                let shares = exec::split_filtered_scan_stats(&scan, f64::from_bits(io), &splits);
                for sql in statements(k) {
                    for passes in [1, 2] {
                        let (members, _) = run_scan(&core, &sql, passes);
                        assert_eq!(members.len(), k as usize, "{sql}");
                        for (got, want) in members.iter().zip(&shares) {
                            assert_eq!(access_bits(&got.0), access_bits(&want.0), "{sql}");
                            assert_eq!(got.1, want.1.to_bits(), "{sql}");
                        }
                    }
                    core.clear_cache();
                    let response = core.execute_statement(&sql).unwrap();
                    let (timing, extra) = match &response {
                        QueryResponse::Trained(r) => (r.timing, access_bits(&r.access).to_vec()),
                        QueryResponse::Evaluated(r) => {
                            (r.timing, vec![r.value.to_bits(), r.rows_scored])
                        }
                        QueryResponse::Predicted(r) => (r.timing, vec![r.rows_scored]),
                        other => panic!("{sql}: {other:?}"),
                    };
                    bills.extend(timing_bits(&timing).into_iter().chain(extra));
                }
            }
        }
        assert_eq!(core.held_frames(), 0);
        assert_eq!(digest(bills), GANG_BILLS_AT_PARENT);
    }

    /// Only the first pass meters: a three-epoch filtered EXECUTE charges
    /// the `SHOW STATS ('scan')` counters and reports the `AccessStats` a
    /// one-epoch one does, and a scan streamed three times keeps the slots
    /// one pass keeps — the reference selection.
    #[test]
    fn later_passes_are_not_metered_twice() {
        let core = small_core();
        core.create_table("t", banded_heap(12)).unwrap();
        core.deploy(&epochs_spec("once", 2, 1), "t").unwrap();
        core.deploy(&epochs_spec("thrice", 2, 3), "t").unwrap();
        let heap = core.table_snapshot("t").unwrap();
        let counters = || {
            let snap = core.stats_snapshot(Some("scan"));
            ["queries", "rows_considered", "rows_emitted"].map(|c| snap.get("scan", c).unwrap())
        };
        let sql = |udf: &str| format!("SELECT * FROM dana.{udf}('t') WHERE x1 < 0.9;");
        let run = |udf: &str| {
            let before = counters();
            let response = core.execute_statement(&sql(udf)).unwrap();
            let after = counters();
            let report = response.report().unwrap().clone();
            (report, [0, 1, 2].map(|i| after[i] - before[i]))
        };
        let ((once, once_charged), (thrice, thrice_charged)) = (run("once"), run("thrice"));
        assert_eq!((once.epochs_run, thrice.epochs_run), (1, 3));
        let plan = bind_sql(&core, &sql("thrice"), 1).unwrap();
        let bound = plan.scan.unwrap().bind(heap.schema()).unwrap();
        let reference = dana_scan::select_slots(&heap, &bound).unwrap();
        let kept: usize = reference.iter().map(Vec::len).sum();
        assert_eq!(once_charged, [1.0, heap.tuple_count() as f64, kept as f64]);
        assert_eq!(thrice_charged, once_charged);
        assert_eq!(access_bits(&thrice.access), access_bits(&once.access));
        for passes in [1, 3] {
            let (_, survivors) = run_scan(&core, &sql("thrice"), passes);
            assert_eq!(survivors.unwrap().slots, reference, "{passes} passes");
        }
        assert_eq!(core.held_frames(), 0);
    }
}
