//! The cost-based backend advisor: picks an execution substrate per
//! query by break-even analysis.
//!
//! The FPGA tier is asymptotically faster — its simulated engine retires
//! a whole thread group of tuples in `cycles_per_group` cycles at the
//! accelerator clock — but every run pays fixed costs the CPU tier does
//! not: the one-time configuration transfer ([`SETUP_SECONDS`]) and the
//! per-epoch host orchestration ([`EPOCH_OVERHEAD_S`]). Tailwind-style
//! break-even reasoning follows: offload only pays above a row threshold
//! where the FPGA's per-tuple advantage has amortized those fixed costs.
//!
//! A [`HardwareProfile`] carries the two values nothing else knows — the
//! CPU tier's lane rate, calibrated by a one-time microbench
//! ([`dana_engine::calibrate_cpu_lane_rate`]), and the manual threshold —
//! while the FPGA side is priced from the core's own [`FpgaSpec`] and the
//! constants the cost model composes with. [`advise`] turns the two plus
//! a workload shape into a [`StrategyComparison`]: estimated seconds per
//! backend, the chosen backend, and the break-even row count.
//! `EXPLAIN <stmt>` prints exactly this comparison without running the
//! statement; `WITH (backend = cpu|fpga)` overrides the choice.

use crate::error::{DanaError, DanaResult};
use crate::runtime::{EPOCH_OVERHEAD_S, SETUP_SECONDS};
use dana_engine::BackendKind;
use dana_fpga::FpgaSpec;

/// What the query (or its `WITH` clause) asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Let the advisor pick by break-even analysis (the default).
    #[default]
    Auto,
    /// Force the simulated-FPGA tier.
    Fpga,
    /// Force the native CPU tier.
    Cpu,
}

impl BackendChoice {
    /// Parses a `WITH (backend = ...)` value. Unknown values are a typed
    /// parse error naming the accepted set.
    pub fn parse(value: &str) -> DanaResult<BackendChoice> {
        match value.to_ascii_lowercase().as_str() {
            "auto" => Ok(BackendChoice::Auto),
            "fpga" => Ok(BackendChoice::Fpga),
            "cpu" => Ok(BackendChoice::Cpu),
            other => Err(DanaError::Query(format!(
                "unknown backend '{other}' (expected cpu, fpga, or auto)"
            ))),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Fpga => "fpga",
            BackendChoice::Cpu => "cpu",
        }
    }
}

/// What the advisor cannot read off the accelerator it prices: the CPU
/// tier's throughput and the manual break-even override. (The FPGA tier's
/// clock, setup and per-epoch overhead are the core's [`FpgaSpec`],
/// [`SETUP_SECONDS`] and [`EPOCH_OVERHEAD_S`] — the values a run is
/// billed by.)
///
/// The default rate is a conservative constant;
/// [`HardwareProfile::calibrated`] replaces it with a measured one. The
/// profile is a plain value — tests construct synthetic profiles to pin
/// the advisor's decisions deterministically.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HardwareProfile {
    /// CPU tier throughput: lowered SoA lane-ops per second (one lane-op
    /// = one inner-loop element of the lockstep executor). Calibrated by
    /// the one-time microbench.
    pub cpu_lane_ops_per_second: f64,
    /// Manual break-even override: below this many rows the advisor
    /// picks CPU, at or above it FPGA, bypassing the throughput model.
    pub offload_threshold_rows: Option<u64>,
}

impl Default for HardwareProfile {
    fn default() -> HardwareProfile {
        HardwareProfile {
            // A deliberately conservative scalar-ish rate; calibration
            // typically measures 10–100× this on a vectorizing host.
            cpu_lane_ops_per_second: 50.0e6,
            offload_threshold_rows: None,
        }
    }
}

impl HardwareProfile {
    /// A profile whose CPU rate was measured on this host by the
    /// one-time microbench. Call once per process and reuse — the
    /// microbench trains a small synthetic design a few times.
    pub fn calibrated() -> HardwareProfile {
        HardwareProfile {
            cpu_lane_ops_per_second: dana_engine::calibrate_cpu_lane_rate(),
            ..HardwareProfile::default()
        }
    }

    /// The same profile with a manual break-even override. `Some(0)`
    /// means "always offload" (the paper's behavior — DAnA has no CPU
    /// tier); `None` re-enables the throughput model.
    pub fn with_offload_threshold(mut self, rows: Option<u64>) -> HardwareProfile {
        self.offload_threshold_rows = rows;
        self
    }
}

/// The shape of one training or scoring run, as the advisor prices it.
/// Callers assemble this from the deployed accelerator's lowered program
/// and static estimate; no data is touched.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Rows one epoch scans.
    pub rows: u64,
    /// Epochs the run is budgeted for (1 for scoring).
    pub epochs: u32,
    /// Lockstep threads (lanes) the design runs.
    pub threads: u16,
    /// Simulated engine cycles to retire one full thread group (the
    /// static schedule's per-batch cost).
    pub cycles_per_group: u64,
    /// CPU lane-ops per tuple (lowered per-tuple region + broadcast
    /// refill).
    pub lane_ops_per_tuple: u64,
    /// CPU ops per thread group (post-merge, tree merge, write-back).
    pub ops_per_group: u64,
    /// Post-filter fraction of `rows` a pushdown `WHERE` is estimated to
    /// keep (1.0 = no predicates). Every row-proportional term on both
    /// tiers scales by it — a selective scan feeds the engine fewer
    /// tuples no matter where it runs.
    pub selectivity: f64,
    /// Fraction of the table's columns a `COLUMNS` projection feeds the
    /// engine (1.0 = full width). Scales the CPU tier's per-tuple ops —
    /// its lanes touch only projected values — while the FPGA schedule's
    /// per-group cycles are fixed by the compiled design.
    pub width_fraction: f64,
}

impl Workload {
    /// Rows estimated to reach the engine after the pushdown filter.
    pub fn effective_rows(&self) -> u64 {
        (self.rows as f64 * self.selectivity.clamp(0.0, 1.0)).ceil() as u64
    }

    fn groups(&self) -> u64 {
        let threads = self.threads.max(1) as u64;
        self.effective_rows().div_ceil(threads).max(1)
    }

    /// Simulated engine seconds of the whole run at `clock_hz`: every
    /// epoch retires every thread group in the static schedule's
    /// `cycles_per_group`. The one place cycles become engine seconds at
    /// bind time — [`fpga_seconds`] and the scheduler's cost hint both
    /// read it.
    pub fn engine_seconds(&self, clock_hz: f64) -> f64 {
        let epoch = (self.groups() * self.cycles_per_group) as f64 / clock_hz;
        self.epochs.max(1) as f64 * epoch
    }

    /// CPU lane-ops per tuple after projection.
    fn cpu_ops_per_tuple(&self) -> f64 {
        self.lane_ops_per_tuple as f64 * self.width_fraction.clamp(0.0, 1.0)
    }
}

/// One backend's row in the comparison.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BackendOption {
    pub backend: BackendKind,
    /// Estimated end-to-end seconds for this workload on this backend
    /// (simulated-model seconds for FPGA, projected wall seconds for
    /// CPU — the advisor compares them as commensurable costs).
    pub estimated_seconds: f64,
    /// This option's speedup over the slowest option (≥ 1.0; the winner
    /// has the largest value).
    pub estimated_speedup: f64,
}

/// The advisor's verdict: per-backend costs, the chosen backend, and the
/// break-even row count — what `EXPLAIN` prints.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StrategyComparison {
    /// Human-readable statement being priced (e.g. `EXECUTE m ON TABLE t`).
    pub statement: String,
    pub rows: u64,
    pub epochs: u32,
    pub options: Vec<BackendOption>,
    pub chosen: BackendKind,
    /// True when a `WITH (backend = ...)` override forced the choice.
    pub forced: bool,
    /// Rows at which the FPGA tier breaks even with the CPU tier for
    /// this program shape; `None` when offload never pays.
    pub break_even_rows: Option<u64>,
    /// One-line explanation of the decision.
    pub rationale: String,
}

impl StrategyComparison {
    /// The priced cost of a backend, if it appears in the comparison.
    pub fn estimated_seconds(&self, backend: BackendKind) -> Option<f64> {
        self.options
            .iter()
            .find(|o| o.backend == backend)
            .map(|o| o.estimated_seconds)
    }
}

impl std::fmt::Display for StrategyComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "EXPLAIN {} ({} rows × {} epochs)",
            self.statement, self.rows, self.epochs
        )?;
        for o in &self.options {
            writeln!(
                f,
                "  {} {:<4} est {:>10.3} ms  ({:.2}× vs slowest)",
                if o.backend == self.chosen { "→" } else { " " },
                o.backend.name(),
                o.estimated_seconds * 1e3,
                o.estimated_speedup,
            )?;
        }
        match self.break_even_rows {
            Some(be) => writeln!(f, "  break-even: {be} rows")?,
            None => writeln!(f, "  break-even: never (offload does not pay)")?,
        }
        write!(
            f,
            "  chosen: {}{} — {}",
            self.chosen.name(),
            if self.forced { " (forced)" } else { "" },
            self.rationale
        )
    }
}

/// What an FPGA run pays whatever its row count: the one-time setup plus
/// the per-epoch host orchestration.
fn fpga_fixed_seconds(w: &Workload) -> f64 {
    SETUP_SECONDS + w.epochs.max(1) as f64 * EPOCH_OVERHEAD_S
}

/// Estimated FPGA-tier seconds on `fpga`: the fixed costs plus the static
/// schedule's engine cycles at the accelerator's clock.
pub fn fpga_seconds(fpga: &FpgaSpec, w: &Workload) -> f64 {
    fpga_fixed_seconds(w) + w.engine_seconds(fpga.clock.hz)
}

/// Projected CPU-tier wall seconds: lane-ops through the calibrated lane
/// rate, no fixed offload costs.
pub fn cpu_seconds(p: &HardwareProfile, w: &Workload) -> f64 {
    let epochs = w.epochs.max(1) as f64;
    let per_tuple = w.effective_rows() as f64 * w.cpu_ops_per_tuple();
    let per_group = w.groups() as f64 * w.ops_per_group as f64;
    epochs * (per_tuple + per_group) / p.cpu_lane_ops_per_second
}

/// The row count at which the FPGA tier's marginal advantage has paid
/// off its fixed costs for this program shape — `None` when the CPU
/// tier's marginal rate is at least as good (offload never pays).
pub fn break_even_rows(p: &HardwareProfile, fpga: &FpgaSpec, w: &Workload) -> Option<u64> {
    if let Some(rows) = p.offload_threshold_rows {
        return Some(rows);
    }
    let threads = w.threads.max(1) as f64;
    let epochs = w.epochs.max(1) as f64;
    // Marginal seconds per row on each tier.
    let cpu_slope = epochs * (w.cpu_ops_per_tuple() + w.ops_per_group as f64 / threads)
        / p.cpu_lane_ops_per_second;
    let fpga_slope = epochs * w.cycles_per_group as f64 / threads / fpga.clock.hz;
    let advantage = cpu_slope - fpga_slope;
    if advantage <= 0.0 {
        return None;
    }
    Some((fpga_fixed_seconds(w) / advantage).ceil() as u64)
}

/// Prices `workload` on both backends — the FPGA tier as `fpga`, the
/// accelerator it would run on — and picks one: the requested backend when
/// forced, otherwise the break-even rule (CPU below the threshold, FPGA at
/// or above it).
pub fn advise(
    profile: &HardwareProfile,
    fpga: &FpgaSpec,
    workload: &Workload,
    requested: BackendChoice,
    statement: String,
) -> StrategyComparison {
    let break_even = break_even_rows(profile, fpga, workload);
    let fpga = fpga_seconds(fpga, workload);
    let cpu = cpu_seconds(profile, workload);
    let rows = workload.effective_rows();
    let auto_choice = match break_even {
        Some(be) if rows >= be => BackendKind::Fpga,
        _ => BackendKind::Cpu,
    };
    let (chosen, forced) = match requested {
        BackendChoice::Auto => (auto_choice, false),
        BackendChoice::Fpga => (BackendKind::Fpga, true),
        BackendChoice::Cpu => (BackendKind::Cpu, true),
    };
    let slowest = fpga.max(cpu).max(f64::MIN_POSITIVE);
    let option = |backend, est: f64| BackendOption {
        backend,
        estimated_seconds: est,
        estimated_speedup: slowest / est.max(f64::MIN_POSITIVE),
    };
    let rationale = if forced {
        format!("WITH (backend = {}) override", chosen.name())
    } else {
        match break_even {
            Some(be) if rows >= be => {
                format!("{rows} rows ≥ break-even {be}: fixed offload cost amortized")
            }
            Some(be) => {
                format!("{rows} rows < break-even {be}: offload overhead dominates")
            }
            None => "CPU marginal rate ≥ FPGA: offload never pays for this program".to_string(),
        }
    };
    StrategyComparison {
        statement,
        rows: workload.rows,
        epochs: workload.epochs.max(1),
        options: vec![
            option(BackendKind::Fpga, fpga),
            option(BackendKind::Cpu, cpu),
        ],
        chosen,
        forced,
        break_even_rows: break_even,
        rationale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic profile with round numbers: the FPGA retires a
    /// 16-thread group in 100 cycles at 100 MHz (62.5 ns/row marginal);
    /// the CPU does 10 lane-ops/tuple at 10 M lane-ops/s (1 µs/row).
    /// Fixed FPGA cost: the real 30 ms setup + 25 ms/epoch.
    fn profile() -> HardwareProfile {
        HardwareProfile {
            cpu_lane_ops_per_second: 10.0e6,
            offload_threshold_rows: None,
        }
    }

    fn fpga() -> FpgaSpec {
        FpgaSpec {
            clock: dana_fpga::Clock::from_mhz(100.0),
            ..FpgaSpec::vu9p()
        }
    }

    /// [`advise`] on the 100 MHz accelerator.
    fn advised(p: &HardwareProfile, w: &Workload, requested: BackendChoice) -> StrategyComparison {
        advise(p, &fpga(), w, requested, "E".into())
    }

    fn workload(rows: u64) -> Workload {
        Workload {
            rows,
            epochs: 1,
            threads: 16,
            cycles_per_group: 100,
            lane_ops_per_tuple: 10,
            ops_per_group: 8,
            selectivity: 1.0,
            width_fraction: 1.0,
        }
    }

    /// The one bind-time price of the engine (the cost hint and the FPGA
    /// estimate both read it).
    #[test]
    fn engine_seconds_scales_with_tuples_lanes_and_epochs() {
        let hz = 100.0e6;
        let lanes = |threads| Workload {
            threads,
            ..workload(100_000)
        };
        let epochs = |epochs| Workload {
            epochs,
            ..workload(100_000)
        };
        let one = workload(100_000).engine_seconds(hz);
        assert!(one > workload(1_000).engine_seconds(hz), "more tuples");
        assert!(lanes(16).engine_seconds(hz) < lanes(4).engine_seconds(hz));
        // Zero lanes clamps instead of dividing by zero.
        let unlaned = lanes(0).engine_seconds(hz);
        assert!(unlaned > 0.0 && unlaned.is_finite());
        // Epochs multiply; zero epochs clamps to one.
        assert!((epochs(5).engine_seconds(hz) / one - 5.0).abs() < 1e-9);
        assert_eq!(epochs(0).engine_seconds(hz), one);
    }

    #[test]
    fn selectivity_scales_both_tiers_and_can_flip_the_choice() {
        let p = profile();
        // A table comfortably past break-even offloads…
        let full = advised(&p, &workload(100_000), BackendChoice::Auto);
        assert_eq!(full.chosen, dana_engine::BackendKind::Fpga);
        // …but a 10%-selective pushdown scan of it feeds the engine only
        // 10k rows, under break-even, so auto routes it to the CPU tier.
        let mut filtered = workload(100_000);
        filtered.selectivity = 0.1;
        assert_eq!(filtered.effective_rows(), 10_000);
        let c = advised(&p, &filtered, BackendChoice::Auto);
        assert_eq!(c.chosen, dana_engine::BackendKind::Cpu);
        // Both tiers price the filtered scan cheaper than the full one.
        assert!(cpu_seconds(&p, &filtered) < cpu_seconds(&p, &workload(100_000)));
        assert!(fpga_seconds(&fpga(), &filtered) < fpga_seconds(&fpga(), &workload(100_000)));
    }

    #[test]
    fn projection_cheapens_the_cpu_tier_only() {
        let p = profile();
        let mut narrow = workload(100_000);
        narrow.width_fraction = 0.25;
        assert!(cpu_seconds(&p, &narrow) < cpu_seconds(&p, &workload(100_000)));
        assert_eq!(
            fpga_seconds(&fpga(), &narrow),
            fpga_seconds(&fpga(), &workload(100_000))
        );
        // A narrower CPU feed raises the FPGA's break-even row count.
        let be_full = break_even_rows(&p, &fpga(), &workload(1)).unwrap();
        let be_narrow = break_even_rows(&p, &fpga(), &narrow).unwrap();
        assert!(be_narrow > be_full, "full={be_full} narrow={be_narrow}");
    }

    #[test]
    fn tiny_table_prefers_cpu_large_table_prefers_fpga() {
        let p = profile();
        // Break-even ≈ 55 ms / (1.05 µs − 62.5 ns) ≈ 55.7k rows.
        let be = break_even_rows(&p, &fpga(), &workload(1)).unwrap();
        assert!((50_000..70_000).contains(&be), "break-even {be}");
        let small = advised(&p, &workload(1_000), BackendChoice::Auto);
        assert_eq!(small.chosen, dana_engine::BackendKind::Cpu);
        assert!(!small.forced);
        let large = advised(&p, &workload(1_000_000), BackendChoice::Auto);
        assert_eq!(large.chosen, dana_engine::BackendKind::Fpga);
        // And the priced costs agree with the choice.
        assert!(
            small
                .estimated_seconds(dana_engine::BackendKind::Cpu)
                .unwrap()
                < small
                    .estimated_seconds(dana_engine::BackendKind::Fpga)
                    .unwrap()
        );
        assert!(
            large
                .estimated_seconds(dana_engine::BackendKind::Fpga)
                .unwrap()
                < large
                    .estimated_seconds(dana_engine::BackendKind::Cpu)
                    .unwrap()
        );
    }

    #[test]
    fn exactly_at_break_even_offloads() {
        let p = profile();
        let be = break_even_rows(&p, &fpga(), &workload(1)).unwrap();
        let at = advised(&p, &workload(be), BackendChoice::Auto);
        assert_eq!(at.chosen, dana_engine::BackendKind::Fpga);
        let below = advised(&p, &workload(be - 1), BackendChoice::Auto);
        assert_eq!(below.chosen, dana_engine::BackendKind::Cpu);
    }

    #[test]
    fn with_backend_override_wins_over_auto() {
        let p = profile();
        // Force FPGA on a tiny table auto would route to CPU…
        let forced = advised(&p, &workload(10), BackendChoice::Fpga);
        assert_eq!(forced.chosen, dana_engine::BackendKind::Fpga);
        assert!(forced.forced);
        // …and CPU on a huge table auto would offload.
        let forced = advised(&p, &workload(10_000_000), BackendChoice::Cpu);
        assert_eq!(forced.chosen, dana_engine::BackendKind::Cpu);
        assert!(forced.forced);
    }

    #[test]
    fn manual_offload_threshold_overrides_the_model() {
        let mut p = profile();
        p.offload_threshold_rows = Some(500);
        let c = advised(&p, &workload(499), BackendChoice::Auto);
        assert_eq!(c.chosen, dana_engine::BackendKind::Cpu);
        let c = advised(&p, &workload(500), BackendChoice::Auto);
        assert_eq!(c.chosen, dana_engine::BackendKind::Fpga);
        assert_eq!(c.break_even_rows, Some(500));
    }

    #[test]
    fn offload_never_pays_when_cpu_rate_dominates() {
        let mut p = profile();
        // An absurdly fast CPU: marginal rate beats the FPGA's.
        p.cpu_lane_ops_per_second = 1.0e12;
        assert_eq!(break_even_rows(&p, &fpga(), &workload(1)), None);
        let c = advised(&p, &workload(100_000_000), BackendChoice::Auto);
        assert_eq!(c.chosen, dana_engine::BackendKind::Cpu);
        assert!(c.rationale.contains("never pays"));
    }

    #[test]
    fn more_epochs_lower_the_break_even() {
        // Setup amortizes across epochs, so per-row fixed cost shrinks…
        // but per-epoch overhead doesn't. Net: more epochs ⇒ the fixed
        // 30 ms setup matters less ⇒ threshold drops toward the
        // overhead-only limit.
        let p = profile();
        let mut w = workload(1);
        w.epochs = 1;
        let be1 = break_even_rows(&p, &fpga(), &w).unwrap();
        w.epochs = 20;
        let be20 = break_even_rows(&p, &fpga(), &w).unwrap();
        assert!(be20 < be1, "be1={be1} be20={be20}");
    }

    #[test]
    fn backend_choice_parses_and_rejects() {
        assert_eq!(BackendChoice::parse("cpu").unwrap(), BackendChoice::Cpu);
        assert_eq!(BackendChoice::parse("FPGA").unwrap(), BackendChoice::Fpga);
        assert_eq!(BackendChoice::parse("Auto").unwrap(), BackendChoice::Auto);
        let err = BackendChoice::parse("gpu").unwrap_err();
        assert!(matches!(err, DanaError::Query(msg) if msg.contains("unknown backend 'gpu'")));
    }

    #[test]
    fn comparison_display_mentions_both_tiers() {
        let p = profile();
        let c = advise(
            &p,
            &fpga(),
            &workload(1000),
            BackendChoice::Auto,
            "EXECUTE m".into(),
        );
        let text = format!("{c}");
        assert!(text.contains("fpga"), "{text}");
        assert!(text.contains("cpu"), "{text}");
        assert!(text.contains("break-even"), "{text}");
        assert!(text.contains("chosen: cpu"), "{text}");
    }

    #[test]
    fn calibrated_profile_beats_the_default_rate() {
        let p = HardwareProfile::calibrated();
        assert!(p.cpu_lane_ops_per_second >= 1.0e6);
        assert!(p.cpu_lane_ops_per_second.is_finite());
    }
}
