//! The paper-scale analytic harness.
//!
//! The evaluation's datasets reach 38 GB and 1.3 M × 7 K tuples — far past
//! what functional simulation should chew through for every figure. This
//! module prices full-scale DAnA runs **through the same compiler** (real
//! hDFG → real schedule → the §6.1 performance estimator) and **the same
//! cost model** the functional simulator uses:
//! [`crate::runtime::epoch_costs`] and [`compose`]. Only the counts
//! differ — estimated here from Table-3 statistics, measured there — and
//! one charge: a scan's misses cost one sequential read here, one random
//! read per page in the buffer pool. The software baselines are priced
//! here and nowhere else, by the `dana_ml::CpuModel` epoch formulas (and
//! [`ExternalExecutor::analytic_seconds`] for the external libraries); no
//! baseline is executed. `tests/ablations.rs`
//! (`analytic_harness_is_the_simulators_cost_model`) holds DAnA's two sides
//! together term by term, that difference included, and the baselines to
//! their formulas over a generated heap's own counts. Every figure in
//! `dana_bench::figures` goes through these functions.

use dana_compiler::{compile, compile_with_threads, CompileInput, CompiledAccelerator};
use dana_fpga::{AxiLink, FpgaSpec};
use dana_hdfg::translate;
use dana_ml::{Algorithm, CpuModel, ExternalExecutor, ExternalLibrary, TrainConfig};
use dana_storage::page::TupleDirection;
use dana_storage::{DiskModel, PageLayoutDesc, TUPLE_HEADER_BYTES};
use dana_workloads::Workload;

use crate::error::DanaResult;
use crate::report::{DanaTiming, Seconds};
use crate::runtime::{compose, epoch_costs, ExecutionMode, ScanCounts};

/// The evaluation machine/system configuration (§7's experimental setup).
#[derive(Debug, Clone, Copy)]
pub struct SystemParams {
    pub fpga: FpgaSpec,
    pub disk: DiskModel,
    pub cpu: CpuModel,
    /// Buffer pool capacity (default 8 GB).
    pub pool_bytes: u64,
    /// Page size (default 32 KB).
    pub page_size: usize,
}

impl Default for SystemParams {
    fn default() -> SystemParams {
        SystemParams {
            fpga: FpgaSpec::vu9p(),
            disk: DiskModel::ssd(),
            cpu: CpuModel::i7_6700(),
            pool_bytes: 8 << 30,
            page_size: 32 * 1024,
        }
    }
}

impl SystemParams {
    /// Figure 14's knob: scale the FPGA's effective AXI bandwidth.
    pub fn with_bandwidth_scale(mut self, factor: f64) -> SystemParams {
        self.fpga = self.fpga.with_bandwidth_scale(factor);
        self
    }

    fn pool_pages(&self) -> u64 {
        self.pool_bytes / self.page_size as u64
    }
}

/// Software-baseline timing (MADlib / Greenplum / externals).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalyticTiming {
    pub cpu_seconds: Seconds,
    pub io_seconds: Seconds,
    pub total_seconds: Seconds,
}

/// Residency of a table in the pool: how many pages miss per epoch.
fn residency(w: &Workload, p: &SystemParams, warm: bool) -> (u64, u64) {
    let pages = w.pages_for(p.page_size);
    let resident = p.pool_pages().min(pages);
    // Warm: `resident` pages are already cached before the query (§7: for
    // synthetic sets "only a part ... are contained in the buffer pool").
    // Cold: everything misses in epoch 1.
    let first_misses = if warm { pages - resident } else { pages };
    let later_misses = pages - resident;
    (first_misses, later_misses)
}

/// DAnA (or an ablated variant) at full workload scale.
pub fn analytic_dana(
    w: &Workload,
    mode: ExecutionMode,
    warm: bool,
    p: &SystemParams,
) -> DanaResult<DanaTiming> {
    let acc = compile_workload(w, p, matches!(mode, ExecutionMode::Tabla).then_some(1))?;
    Ok(dana_timing_for(w, &acc, mode, warm, p))
}

/// DAnA with an explicit thread count (Fig. 12's merge-coefficient sweep).
pub fn analytic_dana_threads(
    w: &Workload,
    threads: u32,
    warm: bool,
    p: &SystemParams,
) -> DanaResult<DanaTiming> {
    let acc = compile_workload(w, p, Some(threads))?;
    Ok(dana_timing_for(w, &acc, ExecutionMode::Strider, warm, p))
}

/// Compiles the workload's UDF against the full-scale table statistics.
pub fn compile_workload(
    w: &Workload,
    p: &SystemParams,
    threads: Option<u32>,
) -> DanaResult<CompiledAccelerator> {
    let spec = w.spec();
    let hdfg = translate(&spec);
    let layout = PageLayoutDesc::new(
        p.page_size,
        0,
        w.tuple_bytes(),
        TUPLE_HEADER_BYTES,
        TupleDirection::Ascending,
    )?;
    let input = CompileInput {
        hdfg: &hdfg,
        fpga: p.fpga,
        layout,
        schema_columns: w.schema().len(),
        expected_tuples: w.tuples,
    };
    Ok(match threads {
        Some(t) => compile_with_threads(&input, t)?,
        None => compile(&input)?,
    })
}

fn dana_timing_for(
    w: &Workload,
    acc: &CompiledAccelerator,
    mode: ExecutionMode,
    warm: bool,
    p: &SystemParams,
) -> DanaTiming {
    let pages = w.pages_for(p.page_size);
    let page_bytes = p.page_size as u64;
    let (first_misses, later_misses) = residency(w, p, warm);
    let costs = epoch_costs(
        &ScanCounts {
            tuples: w.tuples,
            tuple_bytes: w.tuple_bytes(),
            width: w.schema().len(),
            page_size: p.page_size,
            // Every page is charged as a full one (the last is not).
            strider_cycles: pages * acc.estimate.strider_cycles_per_page,
            // Paper-scale analytic workloads model raw (uncompressed) pages.
            decompress_cycles: 0,
            axi_seconds: AxiLink::with_bandwidth(p.fpga.axi_bandwidth)
                .stream_time(pages * page_bytes, page_bytes),
            io_first: p.disk.sequential_read_time(first_misses * page_bytes),
            io_later: p.disk.sequential_read_time(later_misses * page_bytes),
            engine_seconds: p.fpga.clock.to_seconds(acc.estimate.epoch_engine_cycles),
        },
        &p.fpga,
        &p.cpu,
        acc.budget.num_page_buffers,
    );
    compose(mode, w.epochs, &costs)
}

/// One single-threaded MADlib epoch's CPU seconds — the term
/// [`analytic_madlib`] multiplies out and [`analytic_greenplum`] splits
/// across segments. LRMF is priced over the paper's dense-row
/// representation (see [`CpuModel::madlib_lrmf_epoch_seconds`]).
fn madlib_epoch_seconds(w: &Workload, p: &SystemParams) -> Seconds {
    match (w.algorithm, w.lrmf) {
        (Algorithm::Lrmf, Some((rows, cols, rank))) => {
            p.cpu
                .madlib_lrmf_epoch_seconds(rows as u64, cols as u64, rank, w.paper_pages)
        }
        _ => p.cpu.madlib_epoch_seconds(
            w.algorithm,
            w.tuples,
            w.features,
            10,
            w.tuple_bytes(),
            w.pages_for(p.page_size),
        ),
    }
}

/// Totals `epochs × cpu_epoch` beside the scans' disk seconds (the first
/// epoch's misses, then what the pool cannot hold on every later one).
/// Single-threaded PostgreSQL does not overlap reads with the aggregate,
/// and Greenplum's segments share the one disk: the same bytes move
/// either way.
fn baseline_timing(
    w: &Workload,
    cpu_epoch: Seconds,
    warm: bool,
    p: &SystemParams,
) -> AnalyticTiming {
    let (first, later) = residency(w, p, warm);
    let io = p.disk.sequential_read_time(first * p.page_size as u64)
        + (w.epochs.max(1) as u64 - 1) as f64
            * p.disk.sequential_read_time(later * p.page_size as u64);
    let cpu = w.epochs.max(1) as f64 * cpu_epoch;
    AnalyticTiming {
        cpu_seconds: cpu,
        io_seconds: io,
        total_seconds: cpu + io,
    }
}

/// MADlib + PostgreSQL at full workload scale.
pub fn analytic_madlib(w: &Workload, warm: bool, p: &SystemParams) -> AnalyticTiming {
    baseline_timing(w, madlib_epoch_seconds(w, p), warm, p)
}

/// MADlib + Greenplum at full workload scale.
pub fn analytic_greenplum(
    w: &Workload,
    segments: u32,
    warm: bool,
    p: &SystemParams,
) -> AnalyticTiming {
    let epoch = p.cpu.greenplum_epoch_seconds(
        w.algorithm,
        madlib_epoch_seconds(w, p),
        segments,
        w.model_elements() as u64 * 4,
    );
    baseline_timing(w, epoch, warm, p)
}

/// External-library pipeline at full workload scale. `None` when the
/// library does not support the algorithm.
pub fn analytic_external(
    w: &Workload,
    lib: ExternalLibrary,
    p: &SystemParams,
) -> Option<(Seconds, Seconds, Seconds)> {
    if !lib.supports(w.algorithm) {
        return None;
    }
    let exec = ExternalExecutor::new(p.cpu, lib);
    let cfg = TrainConfig {
        algorithm: w.algorithm,
        epochs: w.epochs,
        learning_rate: w.learning_rate as f32,
        ..Default::default()
    };
    Some(exec.analytic_seconds(&cfg, w.tuples, w.features))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_workloads::workload;

    fn p() -> SystemParams {
        SystemParams::default()
    }

    #[test]
    fn dana_beats_madlib_on_remote_sensing_lr() {
        // The paper's headline workload: 28.2× warm.
        let w = workload("Remote Sensing LR").unwrap();
        let dana = analytic_dana(&w, ExecutionMode::Strider, true, &p()).unwrap();
        let madlib = analytic_madlib(&w, true, &p());
        let speedup = madlib.total_seconds / dana.total_seconds;
        assert!(speedup > 5.0, "speedup {speedup:.1}× too small");
        assert!(speedup < 100.0, "speedup {speedup:.1}× implausible");
    }

    #[test]
    fn cold_cache_reduces_the_win() {
        let w = workload("Remote Sensing LR").unwrap();
        let warm_ratio = analytic_madlib(&w, true, &p()).total_seconds
            / analytic_dana(&w, ExecutionMode::Strider, true, &p())
                .unwrap()
                .total_seconds;
        let cold_ratio = analytic_madlib(&w, false, &p()).total_seconds
            / analytic_dana(&w, ExecutionMode::Strider, false, &p())
                .unwrap()
                .total_seconds;
        assert!(
            cold_ratio < warm_ratio,
            "benefits must diminish for cold cache: warm {warm_ratio:.1} cold {cold_ratio:.1}"
        );
    }

    #[test]
    fn striders_amplify_the_acceleration() {
        // Fig. 11: with Striders ≈ 4.6× over without, on average.
        let w = workload("Remote Sensing LR").unwrap();
        let with = analytic_dana(&w, ExecutionMode::Strider, true, &p()).unwrap();
        let without = analytic_dana(&w, ExecutionMode::CpuFed, true, &p()).unwrap();
        assert!(
            without.total_seconds > 1.5 * with.total_seconds,
            "with {} vs without {}",
            with.total_seconds,
            without.total_seconds
        );
    }

    #[test]
    fn wide_synthetics_are_bandwidth_bound() {
        // Fig. 14: S/N Linear gains from 2× bandwidth; LRMF does not.
        let w = workload("S/N Linear").unwrap();
        let base = analytic_dana(&w, ExecutionMode::Strider, true, &p()).unwrap();
        let double = analytic_dana(
            &w,
            ExecutionMode::Strider,
            true,
            &p().with_bandwidth_scale(2.0),
        )
        .unwrap();
        let gain = base.total_seconds / double.total_seconds;
        assert!(
            gain > 1.3,
            "bandwidth-bound workload must speed up, got {gain:.2}×"
        );

        let lrmf = workload("S/N LRMF").unwrap();
        let lbase = analytic_dana(&lrmf, ExecutionMode::Strider, true, &p()).unwrap();
        let ldouble = analytic_dana(
            &lrmf,
            ExecutionMode::Strider,
            true,
            &p().with_bandwidth_scale(2.0),
        )
        .unwrap();
        let lgain = lbase.total_seconds / ldouble.total_seconds;
        assert!(lgain < 1.15, "compute-bound LRMF must not, got {lgain:.2}×");
    }

    #[test]
    fn greenplum_eight_segments_helps_large_dense_workloads() {
        let w = workload("S/N Logistic").unwrap();
        let pg = analytic_madlib(&w, true, &p());
        let gp8 = analytic_greenplum(&w, 8, true, &p());
        assert!(gp8.total_seconds < pg.total_seconds);
    }

    #[test]
    fn externals_match_support_matrix() {
        let lin = workload("Patient").unwrap();
        assert!(analytic_external(&lin, ExternalLibrary::Liblinear, &p()).is_none());
        assert!(analytic_external(&lin, ExternalLibrary::DimmWitted, &p()).is_some());
        let lrmf = workload("Netflix").unwrap();
        assert!(analytic_external(&lrmf, ExternalLibrary::DimmWitted, &p()).is_none());
    }

    #[test]
    fn all_fourteen_workloads_compile_and_price() {
        for w in dana_workloads::all_workloads() {
            let t = analytic_dana(&w, ExecutionMode::Strider, true, &p())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                t.total_seconds.is_finite() && t.total_seconds > 0.0,
                "{}",
                w.name
            );
            let m = analytic_madlib(&w, true, &p());
            assert!(m.total_seconds > 0.0, "{}", w.name);
        }
    }
}
