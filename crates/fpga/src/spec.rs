//! FPGA device specifications (paper Table 4) and resource budgeting.

use crate::clock::Clock;

/// Resource capacity of an FPGA device.
///
/// These are the quantities the hardware generator (§6.1) consumes: "the
/// number of DSP slices, the number of BRAMs, the capacity of each BRAM, the
/// number of read/write ports on a BRAM, and the off-chip communication
/// bandwidth are provided by the user".
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FpgaSpec {
    /// Device name, e.g. `"Xilinx Virtex UltraScale+ VU9P"`.
    pub name: &'static str,
    /// Look-up tables (thousands are spelled out: Table 4 lists 1,182 K).
    pub luts: u64,
    /// Flip-flops (Table 4 lists 2,364 K).
    pub flip_flops: u64,
    /// DSP slices; each analytic unit (AU) consumes a fixed number of these.
    pub dsp_slices: u64,
    /// Total block-RAM capacity in bytes (Table 4: 44 MB for the VU9P).
    pub bram_bytes: u64,
    /// Capacity of one BRAM block in bytes (used to round allocations).
    pub bram_block_bytes: u64,
    /// Read/write ports per BRAM block (true dual-port on UltraScale+).
    pub bram_ports: u32,
    /// Synthesized clock.
    pub clock: Clock,
    /// Effective off-chip (host → FPGA) bandwidth in bytes/second for the
    /// baseline configuration of Figure 14. See `axi::AxiLink`.
    pub axi_bandwidth: f64,
    /// Upper bound on instantiable compute units. §7.2: "In UltraScale+
    /// FPGA, maximum 1024 compute units can be instantiated."
    pub max_compute_units: u32,
}

impl FpgaSpec {
    /// Xilinx Virtex UltraScale+ VU9P, the paper's evaluation platform
    /// (Table 4), synthesized at 150 MHz.
    ///
    /// The AXI effective bandwidth is a fitted constant (EXPERIMENTS.md,
    /// table4, records it; fig14 is the fit): 2.5 GB/s reproduces the paper's observation that the wide synthetic
    /// workloads are bandwidth-bound at the baseline bandwidth (Fig. 14).
    pub fn vu9p() -> FpgaSpec {
        FpgaSpec {
            name: "Xilinx Virtex UltraScale+ VU9P",
            luts: 1_182_000,
            flip_flops: 2_364_000,
            dsp_slices: 6_840,
            bram_bytes: 44 * 1024 * 1024,
            bram_block_bytes: 36 * 1024 / 8, // 36 Kb RAMB36 block
            bram_ports: 2,
            clock: Clock::FPGA_150MHZ,
            axi_bandwidth: 2.5e9,
            max_compute_units: 1024,
        }
    }

    /// Intel/Altera Arria 10 (§5.2 mentions its 7 MB of BRAM as the smaller
    /// contemporary device); used in tests to exercise resource-constrained
    /// hardware generation.
    pub fn arria10() -> FpgaSpec {
        FpgaSpec {
            name: "Intel Arria 10 GX 1150",
            luts: 427_200,
            flip_flops: 1_708_800,
            dsp_slices: 1_518,
            bram_bytes: 7 * 1024 * 1024,
            bram_block_bytes: 20 * 1024 / 8, // M20K block
            bram_ports: 2,
            clock: Clock::from_mhz(150.0),
            axi_bandwidth: 2.5e9,
            max_compute_units: 256,
        }
    }

    /// Returns a copy with the AXI bandwidth scaled by `factor` — the knob
    /// behind the Figure 14 bandwidth sweep (0.25×, 0.5×, 1×, 2×, 4×).
    pub fn with_bandwidth_scale(mut self, factor: f64) -> FpgaSpec {
        assert!(factor > 0.0, "bandwidth scale must be positive");
        self.axi_bandwidth *= factor;
        self
    }
}

/// A division of the FPGA's resources between the access engine and the
/// execution engine, produced by the hardware generator (§6.1).
///
/// "Sizes of the DBMS page, model, and a single training data record
/// determine the amount of memory utilized by each Strider. ... The
/// remainder of the BRAM memory is assigned to the page buffer to store as
/// many pages as possible."
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ResourceBudget {
    /// Bytes of BRAM for extracted raw training data + model, per thread.
    pub data_model_bytes: u64,
    /// Bytes of BRAM granted to page buffers (all Striders together).
    pub page_buffer_bytes: u64,
    /// Number of resident page buffers (= number of Striders).
    pub num_page_buffers: u32,
    /// Number of analytic units synthesized.
    pub num_aus: u32,
    /// Number of analytic clusters (AUs / 8, §5.2 fixes 8 AUs per AC).
    pub num_acs: u32,
    /// Number of execution-engine threads.
    pub num_threads: u32,
}

impl ResourceBudget {
    /// AUs per thread (every thread is architecturally identical, §5.2).
    pub fn aus_per_thread(&self) -> u32 {
        self.num_aus.checked_div(self.num_threads).unwrap_or(0)
    }

    /// ACs per thread.
    pub fn acs_per_thread(&self) -> u32 {
        self.num_acs.checked_div(self.num_threads).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vu9p_matches_table_4() {
        let s = FpgaSpec::vu9p();
        assert_eq!(s.luts, 1_182_000);
        assert_eq!(s.flip_flops, 2_364_000);
        assert_eq!(s.dsp_slices, 6_840);
        assert_eq!(s.bram_bytes, 44 * 1024 * 1024);
        assert!((s.clock.hz - 150.0e6).abs() < 1.0);
        assert_eq!(s.max_compute_units, 1024);
    }

    #[test]
    fn bandwidth_scaling_composes() {
        let s = FpgaSpec::vu9p();
        let double = s.with_bandwidth_scale(2.0);
        assert!((double.axi_bandwidth - 2.0 * s.axi_bandwidth).abs() < 1.0);
        let back = double.with_bandwidth_scale(0.5);
        assert!((back.axi_bandwidth - s.axi_bandwidth).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_scale_rejected() {
        let _ = FpgaSpec::vu9p().with_bandwidth_scale(0.0);
    }

    #[test]
    fn budget_per_thread_division() {
        let b = ResourceBudget {
            data_model_bytes: 1024,
            page_buffer_bytes: 64 * 1024,
            num_page_buffers: 2,
            num_aus: 64,
            num_acs: 8,
            num_threads: 4,
        };
        assert_eq!(b.aus_per_thread(), 16);
        assert_eq!(b.acs_per_thread(), 2);
    }

    #[test]
    fn budget_handles_zero_threads() {
        let b = ResourceBudget {
            data_model_bytes: 0,
            page_buffer_bytes: 0,
            num_page_buffers: 0,
            num_aus: 0,
            num_acs: 0,
            num_threads: 0,
        };
        assert_eq!(b.aus_per_thread(), 0);
        assert_eq!(b.acs_per_thread(), 0);
    }
}
