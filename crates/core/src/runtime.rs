//! Runtime composition: how the pipeline's cost sources overlap.
//!
//! DAnA's access and execution engines are deliberately decoupled so that
//! "unpacking of data in the access engine and processing it in the
//! execution engine" interleave dynamically (§5.1.1). Per epoch, four
//! streams proceed concurrently at page granularity — disk→pool misses,
//! pool→FPGA AXI bursts, Strider extraction, engine compute — so an
//! epoch costs the **maximum** of the four, plus a one-page pipeline fill.
//!
//! Removing the Striders (Fig. 11's ablation) breaks exactly this overlap:
//! the CPU must deform/convert every tuple and hand it off, serializing the
//! feed with the engine.
//!
//! This module is the whole DAnA cost model, and [`price`] its one entry:
//! `epoch_costs` turns a scan's counts into per-epoch seconds and
//! `compose` overlaps those into a [`DanaTiming`]. Every accelerator
//! price goes through it: the simulator's report assemblers bill a run
//! from the counts its scan measured (`exec::stream_counts`), bind prices
//! `EXPLAIN`'s FPGA option and the scheduler's cost hint from the counts
//! it estimates (`exec::estimated_counts`), and the paper-scale harness
//! from Table-3 statistics (`analytic::dana_timing_for`).
//! `tests/ablations.rs` holds the simulator and the harness to each other
//! term by term; `tests/end_to_end.rs` holds `EXPLAIN` to the bill.

use dana_fpga::{AxiLink, FpgaSpec};
use dana_ml::CpuModel;

use crate::report::{DanaTiming, Seconds};

/// How the accelerator is fed. Every statement the system runs takes the
/// Strider feed; the two ablations are inputs of the analytic harness only
/// ([`crate::analytic`]), which is what Figs. 11 and 16 are priced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Full DAnA: Striders walk raw pages on-chip.
    Strider,
    /// Figure 11's ablation — "the CPU transforms the training tuples and
    /// sends them to the execution engines".
    CpuFed,
    /// Figure 16's comparison: TABLA-class accelerator — CPU-fed *and*
    /// single-threaded.
    Tabla,
}

impl ExecutionMode {
    pub fn uses_striders(&self) -> bool {
        matches!(self, ExecutionMode::Strider)
    }
}

/// Per-epoch cost inputs for the composition.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochCosts {
    /// Disk seconds for the *first* epoch (cold misses).
    pub io_first: Seconds,
    /// Disk seconds for every later epoch (what the pool cannot hold).
    pub io_later: Seconds,
    /// AXI page streaming per epoch.
    pub axi: Seconds,
    /// Page decompression per epoch (the scan tier's codec; zero for raw
    /// pages). Pipelines with AXI at page granularity in Strider mode;
    /// serializes into the CPU feed chain in the ablations.
    pub decompress: Seconds,
    /// Strider extraction per epoch (already divided across Striders).
    pub strider: Seconds,
    /// Engine compute per epoch.
    pub engine: Seconds,
    /// CPU tuple transformation per epoch (CpuFed/Tabla modes).
    pub cpu_feed: Seconds,
    /// One-page pipeline-fill latency.
    pub fill: Seconds,
}

/// What one pass of a scan moved and waited on — the inputs of
/// [`price`]. The simulator fills it from what the access engine and the
/// buffer pool measured, bind from the table's heap and the deployed
/// accelerator, the analytic harness from workload statistics × the
/// compiler's estimate. Each caller brings its own disk
/// seconds on purpose: the pool charges one random read per missed page,
/// the harness one sequential read per scan (README "Reproducing the
/// paper" states the difference; `tests/ablations.rs` holds both sides).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanCounts {
    pub tuples: u64,
    /// On-page bytes of one tuple (header included).
    pub tuple_bytes: usize,
    /// Columns per tuple.
    pub width: usize,
    pub page_size: usize,
    /// Strider cycles over the whole pass, before the split across
    /// page buffers.
    pub strider_cycles: u64,
    pub decompress_cycles: u64,
    pub axi_seconds: Seconds,
    pub io_first: Seconds,
    pub io_later: Seconds,
    pub engine_seconds: Seconds,
}

/// Per-tuple CPU→FPGA handshake cost in the Strider-less ablation
/// ("significant overhead due to the handshaking between CPU and FPGA",
/// §5.1.1).
const CPU_FEED_HANDSHAKE_S: Seconds = 0.35e-6;

/// The accelerator's price of a run: `scan`'s counts, one pass per epoch
/// on `page_buffers` Striders, composed over `epochs` in `mode`.
pub fn price(
    mode: ExecutionMode,
    epochs: u32,
    scan: &ScanCounts,
    fpga: &FpgaSpec,
    cpu: &CpuModel,
    page_buffers: u32,
) -> DanaTiming {
    compose(mode, epochs, &epoch_costs(scan, fpga, cpu, page_buffers))
}

/// Prices one epoch of a scan: cycles become seconds on the FPGA clock
/// (Strider cycles split across the `page_buffers` parallel Striders),
/// the CPU-feed ablation deforms, converts, hands off and ships every
/// tuple as floats, and the pipeline fills with one page burst.
fn epoch_costs(
    scan: &ScanCounts,
    fpga: &FpgaSpec,
    cpu: &CpuModel,
    page_buffers: u32,
) -> EpochCosts {
    let clock = fpga.clock;
    let (tuples, width) = (scan.tuples as f64, scan.width as f64);
    EpochCosts {
        io_first: scan.io_first,
        io_later: scan.io_later,
        axi: scan.axi_seconds,
        decompress: clock.to_seconds(scan.decompress_cycles),
        strider: clock.to_seconds(scan.strider_cycles.div_ceil(page_buffers.max(1) as u64)),
        engine: scan.engine_seconds,
        cpu_feed: tuples
            * (scan.tuple_bytes as f64 * cpu.deform_s_per_byte
                + width * cpu.conv_s_per_value
                + CPU_FEED_HANDSHAKE_S)
            + tuples * width * 4.0 / fpga.axi_bandwidth,
        fill: AxiLink::with_bandwidth(fpga.axi_bandwidth).burst_time(scan.page_size as u64),
    }
}

/// One-time accelerator configuration (bitstream is pre-loaded; this is
/// the instruction/meta transfer of §5.1.1's configuration channel plus
/// host-side query setup).
pub const SETUP_SECONDS: Seconds = 30.0e-3;

/// Host-side orchestration per epoch: kernel (re)invocation, the
/// convergence-flag readback, and buffer-pool hand-off synchronization.
/// OpenCL-class FPGA runtimes (the AWS F1 / SDAccel stack the paper's
/// platform family uses) pay tens of milliseconds per enqueue; fitted at
/// 25 ms against the paper's small public workloads (Table 5's sub-second
/// DAnA rows); EXPERIMENTS.md records the constant under table4 and the
/// fit under table5.
pub const EPOCH_OVERHEAD_S: Seconds = 25.0e-3;

/// One epoch's simulated seconds given its disk seconds `io`.
fn epoch_seconds(mode: ExecutionMode, io: Seconds, c: &EpochCosts) -> Seconds {
    match mode {
        // Full pipeline overlap at page granularity (decompression is
        // one more page-granular stream to overlap).
        ExecutionMode::Strider => {
            io.max(c.decompress).max(c.axi).max(c.strider).max(c.engine) + c.fill + EPOCH_OVERHEAD_S
        }
        // CPU feed serializes with compute: the handshake prevents the
        // interleave ("using the CPU for data extraction would have a
        // significant overhead due to the handshaking", §5.1.1). Only
        // disk I/O still overlaps (prefetch). The CPU also does its
        // own decompression ahead of the deform.
        ExecutionMode::CpuFed | ExecutionMode::Tabla => {
            io.max(c.decompress + c.cpu_feed + c.engine) + c.fill + EPOCH_OVERHEAD_S
        }
    }
}

/// Composes per-epoch costs into an end-to-end [`DanaTiming`].
fn compose(mode: ExecutionMode, epochs: u32, c: &EpochCosts) -> DanaTiming {
    let epochs = epochs.max(1);
    let mut timing = DanaTiming {
        setup_seconds: SETUP_SECONDS,
        ..DanaTiming::default()
    };
    for e in 0..epochs {
        let io = if e == 0 { c.io_first } else { c.io_later };
        let epoch = epoch_seconds(mode, io, c);
        timing.io_seconds += io;
        timing.decompress_seconds += c.decompress;
        timing.axi_seconds += if mode.uses_striders() { c.axi } else { 0.0 };
        timing.strider_seconds += if mode.uses_striders() { c.strider } else { 0.0 };
        timing.engine_seconds += c.engine;
        timing.total_seconds += epoch;
    }
    timing.total_seconds += timing.setup_seconds;
    timing
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> EpochCosts {
        EpochCosts {
            io_first: 0.5,
            io_later: 0.1,
            axi: 0.2,
            decompress: 0.0,
            strider: 0.05,
            engine: 0.08,
            cpu_feed: 0.4,
            fill: 0.001,
        }
    }

    #[test]
    fn strider_mode_overlaps_to_the_max() {
        let t = compose(ExecutionMode::Strider, 3, &costs());
        // epoch 1: max(0.5, 0.2, 0.05, 0.08) = 0.5; epochs 2–3: 0.2 (axi).
        let expected = 0.5 + 0.2 + 0.2 + 3.0 * (0.001 + EPOCH_OVERHEAD_S) + SETUP_SECONDS;
        assert!((t.total_seconds - expected).abs() < 1e-12, "{t:?}");
    }

    #[test]
    fn cpu_fed_serializes_feed_and_compute() {
        let t = compose(ExecutionMode::CpuFed, 2, &costs());
        // epoch 1: max(0.5, 0.4+0.08) = 0.5; epoch 2: max(0.1, 0.48) = 0.48.
        let expected = 0.5 + 0.48 + 2.0 * (0.001 + EPOCH_OVERHEAD_S) + SETUP_SECONDS;
        assert!((t.total_seconds - expected).abs() < 1e-12, "{t:?}");
        assert_eq!(t.axi_seconds, 0.0);
        assert_eq!(t.strider_seconds, 0.0);
    }

    #[test]
    fn strider_mode_beats_cpu_fed_when_feed_dominates() {
        let s = compose(ExecutionMode::Strider, 5, &costs());
        let c = compose(ExecutionMode::CpuFed, 5, &costs());
        assert!(s.total_seconds < c.total_seconds);
    }

    /// Strider work spreads across the page buffers: the same cycles on
    /// more Striders price a Strider-bound epoch lower.
    #[test]
    fn more_striders_reduce_access_time() {
        let (fpga, cpu) = (FpgaSpec::vu9p(), CpuModel::i7_6700());
        let scan = ScanCounts {
            tuples: 3000,
            page_size: 8 * 1024,
            strider_cycles: 3_000_000,
            axi_seconds: 1.0e-4,
            ..ScanCounts::default()
        };
        let on = |buffers| price(ExecutionMode::Strider, 1, &scan, &fpga, &cpu, buffers);
        let (one, eight) = (on(1), on(8));
        assert!(eight.strider_seconds < one.strider_seconds);
        assert!(
            eight.total_seconds < one.total_seconds,
            "{eight:?} vs {one:?}"
        );
    }

    /// However many Striders extract, an epoch cannot beat streaming its
    /// pages over AXI.
    #[test]
    fn access_time_is_bounded_below_by_axi() {
        let (fpga, cpu) = (FpgaSpec::vu9p(), CpuModel::i7_6700());
        let scan = ScanCounts {
            tuples: 2000,
            page_size: 8 * 1024,
            strider_cycles: 500_000,
            axi_seconds: 2.0e-3,
            ..ScanCounts::default()
        };
        let t = price(ExecutionMode::Strider, 1, &scan, &fpga, &cpu, 1024);
        let fixed = SETUP_SECONDS + EPOCH_OVERHEAD_S;
        assert!(t.strider_seconds < t.axi_seconds);
        assert!(t.total_seconds - fixed >= t.axi_seconds, "{t:?}");
    }

    #[test]
    fn zero_epochs_clamps_to_one() {
        let t = compose(ExecutionMode::Strider, 0, &costs());
        assert!(t.total_seconds > SETUP_SECONDS);
    }

    #[test]
    fn mode_names() {
        assert!(ExecutionMode::Strider.uses_striders());
        assert!(!ExecutionMode::Tabla.uses_striders());
    }
}
