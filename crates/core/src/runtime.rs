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

use crate::report::{DanaTiming, Seconds};

/// How the accelerator is fed.
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
    pub fn name(&self) -> &'static str {
        match self {
            ExecutionMode::Strider => "DAnA",
            ExecutionMode::CpuFed => "DAnA w/o Striders",
            ExecutionMode::Tabla => "TABLA",
        }
    }

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

/// One-time accelerator configuration (bitstream is pre-loaded; this is
/// the instruction/meta transfer of §5.1.1's configuration channel plus
/// host-side query setup).
pub const SETUP_SECONDS: Seconds = 30.0e-3;

/// Host-side orchestration per epoch: kernel (re)invocation, the
/// convergence-flag readback, and buffer-pool hand-off synchronization.
/// OpenCL-class FPGA runtimes (the AWS F1 / SDAccel stack the paper's
/// platform family uses) pay tens of milliseconds per enqueue; fitted at
/// 25 ms against the paper's small public workloads (Table 5's sub-second
/// DAnA rows), documented in EXPERIMENTS.md.
pub const EPOCH_OVERHEAD_S: Seconds = 25.0e-3;

/// One epoch's simulated seconds given its disk seconds `io` — the one
/// overlap formula [`compose`] totals and [`stage_partition`] splits.
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
pub fn compose(mode: ExecutionMode, epochs: u32, c: &EpochCosts) -> DanaTiming {
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

/// The simulated time of [`compose`]'s total, split along the trace's
/// stage vocabulary.
///
/// The split walks the same epochs through the same `epoch_seconds`, so
/// `setup + scan + engine` reproduces `total_seconds` to float rounding —
/// `EXPLAIN ANALYZE` holds the rendered stage sum to the query report, so
/// the partition must be a true decomposition rather than a second
/// estimate.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagePartition {
    /// One-time configuration — the trace's `lease` stage (sim side).
    pub setup: Seconds,
    /// Everything of each epoch that is not engine compute: the
    /// overlapped feed (I/O / AXI / Strider or CPU feed) surplus over
    /// compute, pipeline fill, and host epoch overhead — the trace's
    /// `scan` stage.
    pub scan: Seconds,
    /// Engine compute across all epochs — the trace's `engine` stage
    /// (the gang path carves its merge share out of this).
    pub engine: Seconds,
}

/// Splits the composed end-to-end simulated time into trace stages.
pub fn stage_partition(mode: ExecutionMode, epochs: u32, c: &EpochCosts) -> StagePartition {
    let epochs = epochs.max(1);
    let mut part = StagePartition {
        setup: SETUP_SECONDS,
        ..StagePartition::default()
    };
    for e in 0..epochs {
        let io = if e == 0 { c.io_first } else { c.io_later };
        let epoch = epoch_seconds(mode, io, c);
        // `epoch >= c.engine + fill + overhead` in every mode, so the
        // scan share is non-negative by construction.
        part.scan += epoch - c.engine;
        part.engine += c.engine;
    }
    part
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

    #[test]
    fn zero_epochs_clamps_to_one() {
        let t = compose(ExecutionMode::Strider, 0, &costs());
        assert!(t.total_seconds > SETUP_SECONDS);
    }

    #[test]
    fn stage_partition_reproduces_composed_total() {
        for mode in [
            ExecutionMode::Strider,
            ExecutionMode::CpuFed,
            ExecutionMode::Tabla,
        ] {
            for epochs in [0u32, 1, 3, 17] {
                let t = compose(mode, epochs, &costs());
                let p = stage_partition(mode, epochs, &costs());
                let sum = p.setup + p.scan + p.engine;
                assert!(
                    (sum - t.total_seconds).abs() < 1e-12 * t.total_seconds.max(1.0),
                    "{mode:?} epochs={epochs}: {sum} vs {}",
                    t.total_seconds
                );
                assert!(p.scan >= 0.0);
                let engine = epochs.max(1) as f64 * costs().engine;
                assert!((p.engine - engine).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mode_names() {
        assert_eq!(ExecutionMode::Strider.name(), "DAnA");
        assert!(ExecutionMode::Strider.uses_striders());
        assert!(!ExecutionMode::Tabla.uses_striders());
    }
}
