//! Execution machinery behind [`crate::SystemCore::execute`]: the typed
//! deploy artifact, access-engine construction, pushdown-scan plumbing, and
//! the cost-model composition, as free functions over *immutable* inputs. A
//! per-query execution context is just (design, budget, heap,
//! FPGA/CPU/disk models) plus what each of the scan's k ≥ 1 members
//! measured ([`ShardArtifacts`]), and [`assemble_training_report`] /
//! [`assemble_scoring_timing`] are pure functions of them — which is why
//! results are bit-identical however many queries run beside each other.
//! There is one assembler per statement kind, not one per scan shape: the
//! critical-path and sum reductions are identities over one member, so a
//! serial statement is the k = 1 case of the same arithmetic. The cost
//! terms themselves are not written here: [`stream_counts`] hands what
//! the scan measured to [`crate::runtime::price`], the one price bind
//! also composes from [`estimated_counts`] — the same counts, estimated
//! before the scan runs. [`trace`] is the one builder of a statement's
//! lifecycle trace: it reads the composed [`DanaTiming`] off the response
//! and what the run logged beside it ([`RunLog`]), after the run.
//!
//! Nothing here reads a page or evaluates a predicate:
//! [`materialize_predictions`] hands the inference tier the slots a
//! pushdown scan kept.

use std::sync::Arc;

use dana_compiler::CompiledAccelerator;
use dana_engine::{Backend, BackendKind, EngineDesign, EngineStats, ExecutionEngine, FaultEvents};
use dana_fpga::{AxiLink, FpgaSpec, ResourceBudget};
use dana_infer::{ScoringProgram, ScoringRecipe, ScoringStats};
use dana_ml::CpuModel;
use dana_obs::{MetricsRegistry, QueryTrace, TraceSpan};
use dana_scan::{BoundScanSpec, ScanSidecar, ScanSpec};
use dana_storage::{DiskModel, HeapFile, HeapFileBuilder, Schema};
use dana_strider::{AccessEngine, AccessEngineConfig, AccessStats};

use crate::advisor::{HardwareProfile, Workload};
use crate::core::FrontDoorWalls;
use crate::error::{DanaError, DanaResult};
use crate::plan::PlanOp;
use crate::query::Statement;
use crate::report::{DanaReport, DanaTiming, QueryResponse, Seconds};
use crate::runtime::{self, ExecutionMode, ScanCounts};

/// The query-lifecycle trace's stage vocabulary, in lifecycle order.
/// [`trace`] is the one place that decides which of them a trace holds.
pub mod stage {
    pub const PARSE: &str = "parse";
    pub const ADMISSION: &str = "admission_wait";
    pub const LEASE: &str = "lease";
    pub const SCAN: &str = "scan";
    pub const ENGINE: &str = "engine";
    pub const MERGE: &str = "merge";
    pub const MATERIALIZE: &str = "materialize";
    pub const REPLY: &str = "reply";
    /// Fault-recovery span: present only when a transient fault actually
    /// fired, so no-fault runs keep the statement-determined trace
    /// structure. Wall = backoff pauses; count = retries performed.
    pub const FAULT_RETRY: &str = "fault_retry";
}

/// What a run did that its [`QueryResponse`] does not carry — what its
/// trace reads and the server quarantines from:
/// [`crate::SystemCore::execute`] returns it beside the result, a failed
/// one included. Only EXECUTE fills the first three (`faults` even when
/// its retries ran out) and only PREDICT … INTO the last; every other
/// statement's log is the default.
#[derive(Debug, Default)]
pub struct RunLog {
    /// The critical member's per-epoch engine cycles
    /// ([`dana_parallel::GangOutcome::epoch_cycles`]).
    pub epoch_cycles: Vec<u64>,
    /// The gang's epoch-boundary merge-tier cycles.
    pub merge_cycles: u64,
    /// The guarded epoch loop's faults, retries and backoff.
    pub faults: FaultEvents,
    /// Wall seconds spent writing the prediction table.
    pub materialize_wall: Seconds,
}

/// Composes the lifecycle trace of one executed statement from its
/// response and its [`RunLog`] — a pure function, run only when a trace
/// was asked for. `walls` are the front stages' waits and `wall` the
/// measured execution.
///
/// Every statement has the same stages, so the *shape* is a function of
/// the statement alone — never of tier, gang width or front door. The
/// stage sims partition the composed total by construction: `lease` is
/// the one-time setup, `engine` (+ `merge`) the engine compute, and
/// `scan` everything else — the overlapped feed's surplus over compute,
/// pipeline fill and host epoch overhead. A CPU-tier run simulated
/// nothing: its sims are all zero and its stopwatch lands on `engine`.
/// An FPGA EXECUTE hangs one child per epoch off `engine`.
pub fn trace(
    outcome: &QueryResponse,
    log: &RunLog,
    walls: &FrontDoorWalls,
    clock_hz: f64,
    wall: Seconds,
) -> QueryTrace {
    let timing = outcome.timing().copied().unwrap_or_default();
    let span = |name: &str, count, sim_seconds, wall_seconds| TraceSpan {
        name: name.to_string(),
        count,
        sim_seconds,
        wall_seconds,
        children: Vec::new(),
    };
    let mut stages = vec![
        span(stage::PARSE, 1, 0.0, walls.parse),
        span(stage::ADMISSION, 1, 0.0, walls.admission),
        span(stage::LEASE, 1, timing.setup_seconds, walls.lease),
    ];
    if !log.faults.is_quiet() {
        let retries = u64::from(log.faults.retries);
        stages.push(span(
            stage::FAULT_RETRY,
            retries,
            0.0,
            log.faults.backoff_seconds,
        ));
    }
    let scan = timing.total_seconds - timing.setup_seconds - timing.engine_seconds;
    stages.push(span(stage::SCAN, 1, scan, 0.0));
    // The gang's merge tier rides the engine's cycle counter in the cost
    // model; carve its share back out (bounded by the engine slice).
    let merge = (log.merge_cycles as f64 / clock_hz.max(1.0)).min(timing.engine_seconds);
    let engine_sim = timing.engine_seconds - merge;
    let mut engine = span(
        stage::ENGINE,
        1,
        engine_sim,
        timing.wall_seconds.unwrap_or(0.0),
    );
    let epochs = match outcome {
        QueryResponse::Trained(r) if r.backend == BackendKind::Fpga => Some(r.epochs_run.max(1)),
        _ => None,
    };
    if let Some(epochs) = epochs {
        // The critical member's epoch log distributes the engine slice in
        // the measured proportions (a run that charged no cycles shares it
        // uniformly); the children sum to the stage.
        let logged: u64 = log.epoch_cycles.iter().sum();
        let shares: Vec<f64> = match logged {
            0 => vec![engine_sim / f64::from(epochs); epochs as usize],
            _ => log
                .epoch_cycles
                .iter()
                .map(|&c| engine_sim * c as f64 / logged as f64)
                .collect(),
        };
        engine.count = u64::from(epochs);
        engine.children = shares
            .into_iter()
            .map(|sim| span("epoch", 1, sim, 0.0))
            .collect();
    }
    stages.push(engine);
    stages.push(span(stage::MERGE, 1, merge, 0.0));
    if let QueryResponse::Predicted(_) = outcome {
        stages.push(span(stage::MATERIALIZE, 1, 0.0, log.materialize_wall));
    }
    stages.push(span(stage::REPLY, 1, 0.0, 0.0));
    QueryTrace {
        stages,
        total_sim_seconds: outcome.sim_seconds(),
        total_wall_seconds: wall,
    }
}

/// The runtime artifact one EXECUTE needs, built once at DEPLOY and held
/// by the accelerator's catalog entry: the validated + lowered engine
/// behind an `Arc`, plus the resource budget.
pub struct CachedAccelerator {
    pub engine: Arc<ExecutionEngine>,
    pub budget: ResourceBudget,
    /// The deploy-time scoring recipe, held beside the training engine so
    /// PREDICT/EVALUATE never re-derive it. `None` for analytics with no
    /// derivable forward pass.
    pub scoring: Option<ScoringRecipe>,
}

impl CachedAccelerator {
    pub fn from_compiled(
        acc: &CompiledAccelerator,
        scoring: Option<ScoringRecipe>,
    ) -> CachedAccelerator {
        CachedAccelerator {
            engine: Arc::clone(&acc.engine),
            budget: acc.budget,
            scoring,
        }
    }

    /// This accelerator's engine on the `kind` substrate.
    pub fn backend(&self, kind: BackendKind) -> Backend {
        Backend::new(kind, Arc::clone(&self.engine))
    }
}

/// The latest trained model values for one deployed accelerator, stored
/// on its catalog entry by EXECUTE (last training wins) and consumed by
/// PREDICT/EVALUATE.
pub struct TrainedModels {
    /// Model values, one vec per model variable (row-major), in the
    /// UDF's declaration order.
    pub models: Vec<Vec<f32>>,
    /// Model variable names aligned with `models`.
    pub names: Vec<String>,
}

/// Everything one scoring query resolves up front: the cached
/// accelerator, the deploy-time recipe, the recipe bound to the latest
/// trained model values, and the lockstep lane count.
pub struct ScoringSetup {
    pub cached: Arc<CachedAccelerator>,
    pub recipe: ScoringRecipe,
    pub program: ScoringProgram,
    pub lanes: u16,
}

/// Builds a [`ScoringSetup`] from an already-resolved catalog entry: its
/// runtime artifact and the models its latest EXECUTE stored, if any.
/// Typed errors distinguish "this analytic cannot score" from "train it
/// first". The lane count is the design's thread count.
pub fn scoring_setup(
    udf: &str,
    cached: Arc<CachedAccelerator>,
    trained: Option<Arc<TrainedModels>>,
) -> DanaResult<ScoringSetup> {
    let recipe = cached.scoring.clone().ok_or_else(|| {
        DanaError::Infer(dana_infer::InferError::UnsupportedAnalytic {
            udf: udf.to_string(),
            reason: "no scoring recipe was derived at deploy".to_string(),
        })
    })?;
    let trained = trained.ok_or_else(|| DanaError::ModelNotTrained {
        udf: udf.to_string(),
    })?;
    let program = ScoringProgram::bind(&recipe, &trained.names, &trained.models)?;
    let lanes = cached.engine.design().num_threads.max(1);
    Ok(ScoringSetup {
        cached,
        recipe,
        program,
        lanes,
    })
}

/// Initial model values: zeros for broadcast (dense) models, the shared
/// deterministic LRMF initialization for row-indexed factors.
pub fn initial_models(design: &EngineDesign) -> Vec<Vec<f32>> {
    design
        .models
        .iter()
        .map(|m| {
            if m.broadcast_slots.is_some() {
                vec![0.0; m.elements()]
            } else {
                dana_ml::default_lrmf_init(m.elements())
            }
        })
        .collect()
}

/// Builds the access engine (Striders + AXI front end) for one query over
/// `heap` on an accelerator instance described by `fpga`.
pub fn access_engine_for(heap: &HeapFile, budget: ResourceBudget, fpga: &FpgaSpec) -> AccessEngine {
    let axi = AxiLink::with_bandwidth(fpga.axi_bandwidth);
    AccessEngine::for_table(
        *heap.layout(),
        heap.schema().clone(),
        AccessEngineConfig::new(budget.num_page_buffers.max(1), fpga.clock, axi),
    )
}

// ---- pushdown scan plumbing ---------------------------------------------

/// Charges one finished pushdown scan to the `SHOW STATS ('scan')`
/// counters. `rows_considered` is the pre-filter tuple count of the
/// scanned range (the selectivity denominator); the post-filter rows,
/// skipped pages, and decompressed bytes come off the scan's access
/// stats, and the sidecar contributes the compression-ratio terms.
pub fn record_scan_metrics(
    metrics: &MetricsRegistry,
    stats: &AccessStats,
    sidecar: &ScanSidecar,
    rows_considered: u64,
) {
    metrics.scan_queries.inc();
    metrics.scan_pages_skipped.add(stats.pages_skipped);
    metrics
        .scan_bytes_decompressed
        .add(stats.decompressed_bytes);
    metrics.scan_rows_considered.add(rows_considered);
    metrics.scan_rows_emitted.add(stats.tuples);
    metrics.scan_raw_bytes.add(sidecar.raw_bytes());
    metrics
        .scan_compressed_bytes
        .add(sidecar.compressed_bytes());
}

/// Tuples per page of the virtual *materialized filtered table* a
/// pushdown gang plans its shard boundaries against: the page capacity
/// [`HeapFileBuilder::layout_for`] gives the projected schema at the
/// source heap's page size and placement direction.
/// Post-filter tuples land densely packed in such a table, so splitting
/// the filtered stream at multiples of this capacity reproduces the
/// table's [`dana_parallel::ShardPlan`] boundaries exactly — which is
/// what keeps a filtered gang bit-identical to running the same gang on
/// the pre-materialized table.
pub fn packed_page_capacity(heap: &HeapFile, spec: &BoundScanSpec) -> DanaResult<u64> {
    let schema = heap.schema();
    let projected = spec.projection.as_ref().map(|cols| {
        let columns = cols.iter().map(|&c| &schema.columns()[c]);
        Schema::new(columns.map(|col| (col.name.clone(), col.ty)).collect())
    });
    let source = heap.layout();
    let layout = HeapFileBuilder::layout_for(
        projected.as_ref().unwrap_or(schema),
        source.page_size,
        source.direction,
    )?;
    Ok(u64::from(layout.capacity))
}

/// Splits one filtered scan's measured stats into per-shard
/// [`ShardArtifacts`] inputs, `splits[i]` tuples apiece. A filtered gang
/// runs ONE metered scan of the source (post-filter rows don't align with
/// page boundaries), and each member then streams its slice of the
/// survivors on every pass, metering nothing; this divides the scan's
/// cost model the same way — tuples exactly per split, integer
/// counters evenly with the remainder on the earliest shards, float
/// terms evenly. The integer shares sum back to the scan's totals, and a
/// single split is the scan's own stats.
pub fn split_filtered_scan_stats(
    stats: &AccessStats,
    io_first: Seconds,
    splits: &[u64],
) -> Vec<(AccessStats, Seconds)> {
    let k = splits.len().max(1) as u64;
    let div = |v: u64, i: u64| v / k + u64::from(i < v % k);
    splits
        .iter()
        .enumerate()
        .map(|(i, &tuples)| {
            let i = i as u64;
            let share = AccessStats {
                pages: div(stats.pages, i),
                tuples,
                axi_seconds: stats.axi_seconds / k as f64,
                strider_cycles: div(stats.strider_cycles, i),
                decompress_cycles: div(stats.decompress_cycles, i),
                decompressed_bytes: div(stats.decompressed_bytes, i),
                pages_skipped: div(stats.pages_skipped, i),
            };
            (share, io_first / k as f64)
        })
        .collect()
}

/// Materializes a PREDICT's output heap with as many workers as its scan
/// had `members` (one writes inline on this thread; the bytes are the same
/// for every count). Without a selection every source tuple is kept (the
/// classic path); with one — the slots its pushdown scan kept, per source
/// page, and the spec it ran under — only those tuples and the columns the
/// projection named survive into the prediction table, byte-for-byte what
/// scoring a pre-materialized filtered table would build. The scan's
/// survivors *are* the selection.
pub fn materialize_predictions(
    heap: &HeapFile,
    selection: Option<(&[Vec<u16>], &BoundScanSpec)>,
    predictions: &[f32],
    members: usize,
) -> DanaResult<HeapFile> {
    let (slots, projection) = match selection {
        None => (None, None),
        Some((slots, spec)) => (Some(slots), spec.projection.as_deref()),
    };
    let table = dana_infer::Materialization::new(heap, slots, projection, predictions)?;
    Ok(dana_parallel::materialize_gang(&table, members)?)
}

// ---- the backend advisor ------------------------------------------------

/// The typed conflict between a gang and the CPU tier: intra-query
/// parallelism (shards > 1) is accelerator-side only.
pub fn gang_needs_fpga() -> DanaError {
    DanaError::Query(
        "backend = cpu cannot run a gang: intra-query parallelism (shards > 1) \
         is FPGA-only — drop the shards option or use backend = fpga"
            .to_string(),
    )
}

/// The pushdown scan spec of a statement's call, if it has either.
pub fn statement_scan(stmt: &Statement) -> Option<&ScanSpec> {
    stmt.call()?.scan.as_ref()
}

/// What one statement's run is priced against, as opposed to what it
/// measured: the accelerator's resource budget, the
/// FPGA/CPU/disk models, the buffer pool's frame count and the scanned
/// heap. Immutable for the statement's lifetime.
pub struct CostInputs<'a> {
    pub budget: ResourceBudget,
    pub fpga: &'a FpgaSpec,
    pub cpu: &'a CpuModel,
    pub disk: &'a DiskModel,
    pub pool_frames: usize,
    pub heap: &'a HeapFile,
}

impl CostInputs<'_> {
    /// The accelerator's bill for `epochs` passes of a scan that counts
    /// `counts` through the Striders ([`runtime::price`]).
    pub fn price(&self, epochs: u32, counts: &ScanCounts) -> DanaTiming {
        let (mode, buffers) = (ExecutionMode::Strider, self.budget.num_page_buffers);
        runtime::price(mode, epochs, counts, self.fpga, self.cpu, buffers)
    }
}

/// The counts a scan measured (`scan_pages` is the pages one later pass
/// touches: a gang's critical member's), with `engine_per_epoch` as the engine
/// term — only that term differs between training and scoring. The pool
/// charges each page of a later pass it cannot hold a random page read.
pub fn stream_counts(
    inputs: &CostInputs<'_>,
    scan_pages: u32,
    access_stats: &AccessStats,
    io_first: Seconds,
    engine_per_epoch: Seconds,
) -> ScanCounts {
    let heap = inputs.heap;
    let page_size = heap.layout().page_size;
    let missing_later = scan_pages.saturating_sub(inputs.pool_frames as u32) as f64;
    ScanCounts {
        tuples: access_stats.tuples,
        tuple_bytes: heap.layout().tuple_bytes,
        width: heap.schema().len(),
        page_size,
        strider_cycles: access_stats.strider_cycles,
        decompress_cycles: access_stats.decompress_cycles,
        axi_seconds: access_stats.axi_seconds,
        io_first,
        io_later: missing_later * inputs.disk.read_time(page_size as u64),
        engine_seconds: engine_per_epoch,
    }
}

/// [`stream_counts`] of a serial Strider scan of `inputs.heap`, estimated
/// before it runs, with no engine term: every page walked in the walk's
/// closed form and streamed over AXI, and the first pass charged the
/// pool's rule for later ones — exact for a resident heap. A pushdown
/// `scan` decompresses every page it reads, and its zone maps are taken
/// to skip pages in proportion to the spec's planning selectivity.
pub fn estimated_counts(inputs: &CostInputs<'_>, scan: Option<&ScanSpec>) -> ScanCounts {
    let (heap, layout) = (inputs.heap, inputs.heap.layout());
    let pushdown = scan.filter(|s| !s.is_trivial());
    let kept = |n: u64| match pushdown {
        Some(spec) => (n as f64 * spec.planning_selectivity()).ceil() as u64,
        None => n,
    };
    let (pages, tuples) = (kept(u64::from(heap.page_count())), kept(heap.tuple_count()));
    let page_bytes = layout.page_size as u64;
    let access = AccessStats {
        tuples,
        strider_cycles: dana_strider::codegen::estimated_scan_cycles(layout, pages, tuples)
            + tuples * heap.schema().len() as u64,
        decompress_cycles: pushdown.map_or(0, |_| {
            pages * dana_scan::decompress_cycles(layout.page_size)
        }),
        axi_seconds: AxiLink::with_bandwidth(inputs.fpga.axi_bandwidth)
            .stream_time(pages * page_bytes, page_bytes),
        ..AccessStats::default()
    };
    let later = stream_counts(inputs, heap.page_count(), &access, 0.0, 0.0);
    ScanCounts {
        io_first: later.io_later,
        ..later
    }
}

/// Bind's price of a statement on both tiers. `table` is the scanned
/// table's cost inputs and pushdown spec; the point form scans none and
/// scores `rows` inline. The FPGA tier is priced as the run will be
/// billed — [`CostInputs::price`] over [`estimated_counts`], the point
/// form by [`point_timing`]. The CPU tier pays the same disk seconds,
/// host decode of every tuple each pass (`CpuModel` deform and convert)
/// and the program's lane-ops at the profile's rate.
pub fn price_statement(
    cached: &CachedAccelerator,
    op: &PlanOp,
    table: Option<(&CostInputs<'_>, Option<&ScanSpec>)>,
    fpga: &FpgaSpec,
    cpu: &CpuModel,
    profile: &HardwareProfile,
) -> Workload {
    let engine = &cached.engine;
    let (design, lowered) = (engine.design(), engine.lowered());
    let scoring = cached.scoring.as_ref().map(ScoringRecipe::cost);
    let lanes = design.num_threads;
    let scored = |tuples| scoring.map_or_else(ScoringStats::default, |c| c.estimate(tuples, lanes));
    let train = *op == PlanOp::Train;
    let per_tuple = match scoring {
        Some(cost) if !train => cost.program_cycles,
        _ => lowered.per_tuple_lane_ops(),
    };
    let (epochs, per_group) = match train {
        true => (design.convergence.max_epochs(), lowered.per_group_ops()),
        false => (1, 0),
    };
    // The FPGA tier's bill, the part of it no row pays for, and the share
    // of each tuple's columns the CPU tier's lanes touch.
    let (rows, counts, bill, fpga_fixed, width_fraction) = match table {
        None => {
            let rows = match op {
                PlanOp::Point { rows } => rows.len() as u64,
                _ => 0,
            };
            let bill = point_timing(BackendKind::Fpga, &scored(rows), 0.0, fpga);
            let counts = ScanCounts {
                tuples: rows,
                ..ScanCounts::default()
            };
            (rows, counts, bill, 0.0, 1.0)
        }
        Some((inputs, scan)) => {
            let mut counts = estimated_counts(inputs, scan);
            counts.engine_seconds = fpga.clock.to_seconds(match train {
                true => engine.estimated_epoch_cycles(counts.tuples),
                false => scored(counts.tuples).cycles,
            });
            let none = ScanCounts {
                page_size: counts.page_size,
                ..ScanCounts::default()
            };
            let fixed = inputs.price(epochs, &none).total_seconds;
            let projected = scan.and_then(|s| s.projection.as_ref());
            let width = projected.map_or(1.0, |c| c.len() as f64 / counts.width.max(1) as f64);
            let bill = inputs.price(epochs, &counts);
            (inputs.heap.tuple_count(), counts, bill, fixed, width)
        }
    };
    let tuples = counts.tuples as f64;
    let decode = tuples
        * (counts.tuple_bytes as f64 * cpu.deform_s_per_byte
            + counts.width as f64 * cpu.conv_s_per_value);
    let groups = counts.tuples.div_ceil(u64::from(design.num_threads.max(1))) as f64;
    let lane_ops = tuples * per_tuple as f64 * width_fraction + groups * per_group as f64;
    let host = decode + lane_ops / profile.cpu_lane_ops_per_second;
    Workload {
        rows,
        effective_rows: counts.tuples,
        epochs,
        fpga: bill.total_seconds,
        fpga_fixed,
        cpu: bill.io_seconds + epochs as f64 * host,
    }
}

// ---- report composition over a scan of k ≥ 1 members ---------------------

/// What one member of a statement's scan measured: its engine counters
/// (zero for scoring, whose compute is accounted in [`ScoringStats`]), its
/// extraction stats, and its first-scan disk seconds. A serial statement
/// has exactly one.
pub struct ShardArtifacts {
    pub engine_stats: EngineStats,
    pub access_stats: AccessStats,
    pub io_first: Seconds,
}

/// The scan's critical path: members stream simultaneously, so one pass
/// costs what the slowest member costs — the element-wise maximum of the
/// access stats and of the first-scan disk seconds (the identity over one
/// member) — plus the pages one later pass touches.
fn critical_scan(heap: &HeapFile, shards: &[ShardArtifacts]) -> (AccessStats, Seconds, u32) {
    let mut crit = AccessStats::default();
    for s in shards {
        let a = &s.access_stats;
        crit.pages = crit.pages.max(a.pages);
        crit.tuples = crit.tuples.max(a.tuples);
        crit.axi_seconds = crit.axi_seconds.max(a.axi_seconds);
        crit.strider_cycles = crit.strider_cycles.max(a.strider_cycles);
        crit.decompress_cycles = crit.decompress_cycles.max(a.decompress_cycles);
        crit.decompressed_bytes = crit.decompressed_bytes.max(a.decompressed_bytes);
        crit.pages_skipped = crit.pages_skipped.max(a.pages_skipped);
    }
    let io_first = shards.iter().map(|s| s.io_first).fold(0.0, f64::max);
    // The one rule that is not a reduction: a lone member is charged the
    // whole heap for its later passes even when zone maps let its first
    // pass skip pages, while a gang is charged the pages its critical
    // member actually touched.
    let scan_pages = match shards {
        [_] => heap.page_count(),
        _ => shards
            .iter()
            .map(|s| s.access_stats.pages as u32)
            .max()
            .unwrap_or(0),
    };
    (crit, io_first, scan_pages)
}

/// Composes a finished training run over `shards` (one per scan member,
/// in shard order) into the end-to-end [`DanaReport`] via the
/// pipeline-overlap cost model — a pure function.
///
/// The simulated engine/extraction/I/O terms take the **critical path**
/// (element-wise max across members: an epoch ends when its slowest
/// member does), the epoch-boundary merge tier's `merge_cycles` ride the
/// engine's merge counter, and throughput counters (tuples, batches) sum
/// so the report states true totals. Every one of those reductions is
/// the identity over one member, so a serial statement's report is its
/// single member's measurements.
pub fn assemble_training_report(
    inputs: &CostInputs<'_>,
    design: &EngineDesign,
    shards: Vec<ShardArtifacts>,
    merge_cycles: u64,
    models: Vec<Vec<f32>>,
) -> DanaReport {
    let mut stats = EngineStats::default();
    for s in &shards {
        let e = &s.engine_stats;
        stats.compute_cycles = stats.compute_cycles.max(e.compute_cycles);
        stats.merge_cycles = stats.merge_cycles.max(e.merge_cycles);
        stats.broadcast_cycles = stats.broadcast_cycles.max(e.broadcast_cycles);
        stats.batches += e.batches;
        stats.tuples_processed += e.tuples_processed;
        stats.epochs_run = stats.epochs_run.max(e.epochs_run);
        stats.converged_early |= e.converged_early;
    }
    // The merge tier runs after the members join; it extends the
    // critical path like the engine's own tree-bus merge does.
    stats.merge_cycles += merge_cycles;
    stats.cycles = stats.compute_cycles + stats.merge_cycles + stats.broadcast_cycles;
    let (access, io_first, scan_pages) = critical_scan(inputs.heap, &shards);

    let clock_hz = inputs.fpga.clock.hz;
    let epochs = stats.epochs_run.max(1);
    let engine_per_epoch = stats.cycles as f64 / epochs as f64 / clock_hz;
    let counts = stream_counts(inputs, scan_pages, &access, io_first, engine_per_epoch);
    let timing = inputs.price(epochs, &counts);
    DanaReport {
        models,
        model_names: design.models.iter().map(|m| m.name.clone()).collect(),
        epochs_run: stats.epochs_run,
        converged_early: stats.converged_early,
        num_threads: design.num_threads,
        shards: shards.len() as u16,
        backend: BackendKind::Fpga,
        timing,
        engine: stats,
        access,
    }
}

/// Composes a finished *scoring* scan's timing and combined counters: one
/// pass over the heap (scoring has no epochs) with the same pipeline
/// overlap as training — a pure function. The critical member carries the
/// timing terms while tuple/group counters sum; over one member both are
/// that member's own stats.
pub fn assemble_scoring_timing(
    inputs: &CostInputs<'_>,
    shards: &[ShardArtifacts],
    scoring: &[ScoringStats],
) -> (DanaTiming, ScoringStats) {
    assert_eq!(
        shards.len(),
        scoring.len(),
        "one scoring-stat entry per scan member"
    );
    let combined = ScoringStats {
        tuples: scoring.iter().map(|s| s.tuples).sum(),
        groups: scoring.iter().map(|s| s.groups).sum(),
        cycles: scoring.iter().map(|s| s.cycles).max().unwrap_or(0),
        lanes: scoring.first().map(|s| s.lanes).unwrap_or(0),
    };
    let (access, io_first, scan_pages) = critical_scan(inputs.heap, shards);
    let engine = inputs.fpga.clock.to_seconds(combined.cycles);
    let timing = inputs.price(
        1,
        &stream_counts(inputs, scan_pages, &access, io_first, engine),
    );
    (timing, combined)
}

/// Refuses a point-form row holding a NaN or an infinity, in the wording
/// the SQL parser uses for the same literal: a typed request reaches the
/// scorer without passing the parser, and a non-finite feature would
/// score (and cache) a NaN while a NaN LRMF index would silently read
/// factor row 0.
pub fn check_point_row(row: &[f32]) -> DanaResult<()> {
    match row.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(DanaError::Query(format!(
            "non-finite value '{v}' in VALUES row"
        ))),
        None => Ok(()),
    }
}

/// Validates point-form PREDICT rows against the bound scoring program
/// and packs them into one in-memory SoA batch — the fast path's bind
/// step. Every row must be finite and have the same width, at least the
/// program's scoring width (extra trailing columns, e.g. a label as
/// stored in the source heap, are carried but ignored by the forward
/// pass — exactly like the materializing scan).
pub fn point_batch(
    udf: &str,
    program: &ScoringProgram,
    rows: &[Vec<f32>],
) -> DanaResult<dana_storage::TupleBatch> {
    if rows.is_empty() {
        return Err(DanaError::Query(
            "point-form PREDICT needs at least one VALUES row".to_string(),
        ));
    }
    let need = program.min_width();
    let width = rows[0].len();
    if width < need {
        return Err(DanaError::Query(format!(
            "VALUES row has {width} value(s) but '{udf}' scoring reads {need} column(s)"
        )));
    }
    for (i, row) in rows.iter().enumerate() {
        if row.len() != width {
            return Err(DanaError::Query(format!(
                "VALUES row {} has {} value(s) but row 0 has {width} — all rows must have the \
                 same width",
                i + 1,
                row.len()
            )));
        }
        check_point_row(row)?;
    }
    Ok(dana_storage::TupleBatch::from_rows(width, rows))
}

/// Timing for a point scoring dispatch: the CPU tier reports the
/// measured stopwatch; the FPGA tier composes an engine-only simulated
/// cost (there is no scan — no disk, AXI, or Strider term to charge).
pub fn point_timing(
    backend: BackendKind,
    stats: &ScoringStats,
    wall: Seconds,
    fpga: &FpgaSpec,
) -> DanaTiming {
    match backend {
        BackendKind::Cpu => DanaTiming::wall_only(wall),
        BackendKind::Fpga => {
            let engine = fpga.clock.to_seconds(stats.cycles);
            DanaTiming {
                engine_seconds: engine,
                total_seconds: engine,
                ..DanaTiming::default()
            }
        }
    }
}
