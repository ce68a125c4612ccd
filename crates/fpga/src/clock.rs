//! Clock-domain arithmetic shared by every simulator in the workspace.

/// Simulated wall-clock time in seconds.
///
/// All simulators in the workspace report time as `f64` seconds; cycle
/// counts are exact (`u64`) and converted at the edge by [`Clock`].
pub type Seconds = f64;

/// An exact cycle count in some clock domain.
pub type Cycles = u64;

/// A fixed-frequency clock domain.
///
/// DAnA synthesizes every design at 150 MHz (§7, "we synthesize the hardware
/// at 150 MHz using Vivado"); the CPU baselines run at 3.4 GHz. Both are
/// expressed as `Clock`s so cycle counts convert to comparable seconds.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Clock {
    /// Frequency in hertz.
    pub hz: f64,
}

impl Clock {
    /// The paper's FPGA clock: 150 MHz (Table 4).
    pub const FPGA_150MHZ: Clock = Clock { hz: 150.0e6 };

    /// The paper's CPU clock: Intel i7-6700 at 3.40 GHz (§7).
    pub const CPU_3_4GHZ: Clock = Clock { hz: 3.4e9 };

    /// Creates a clock running at `mhz` megahertz.
    pub fn from_mhz(mhz: f64) -> Clock {
        Clock { hz: mhz * 1.0e6 }
    }

    /// Converts a cycle count in this domain to seconds.
    pub fn to_seconds(&self, cycles: Cycles) -> Seconds {
        cycles as f64 / self.hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_clock_period_matches_150mhz() {
        let c = Clock::FPGA_150MHZ;
        assert!((c.to_seconds(150_000_000) - 1.0).abs() < 1e-9);
    }
}
