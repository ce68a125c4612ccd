//! The cost-based backend advisor: picks an execution substrate per
//! query by break-even analysis.
//!
//! Both tiers are priced over the same statement — the scan bind
//! estimates it will run, counted the way the scan itself counts (see
//! `exec::estimated_counts`). The FPGA tier's price is the bill the run
//! would get: [`crate::runtime::price`] over those counts (the point
//! form: `exec::point_timing`), data path and engine, one-time setup and
//! per-epoch host overhead included. The CPU tier pays the same disk
//! seconds, decodes every tuple on the host, and runs the lowered
//! program's lane-ops at the profile's rate, with nothing fixed. The
//! FPGA's per-row advantage has to amortize its fixed costs, so offload
//! pays only above a row threshold, read off the slopes of the two
//! prices — Tailwind-style break-even reasoning.
//!
//! A [`HardwareProfile`] carries the two values nothing else knows — the
//! CPU tier's lane rate, a fixed constant so that `EXPLAIN` is a function
//! of the catalog alone, and the manual threshold.
//! [`advise`] turns a priced [`Workload`] into a [`StrategyComparison`]:
//! estimated seconds per backend, the chosen backend, and the break-even
//! row count. `EXPLAIN <stmt>` prints exactly this comparison without
//! running the statement; `WITH (backend = cpu|fpga)` overrides the
//! choice.

use crate::error::{DanaError, DanaResult};
use crate::report::Seconds;
use dana_engine::BackendKind;

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
/// tier's throughput and the manual break-even override. (The FPGA tier
/// is priced as it is billed, at the core's own `FpgaSpec`.)
///
/// The default rate is a conservative constant, never measured at run
/// time. The profile is a plain value — tests construct synthetic
/// profiles to pin the advisor's decisions deterministically.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HardwareProfile {
    /// CPU tier throughput: lowered SoA lane-ops per second (one lane-op
    /// = one inner-loop element of the lockstep executor).
    pub cpu_lane_ops_per_second: f64,
    /// Manual break-even override: below this many rows the advisor
    /// picks CPU, at or above it FPGA, bypassing the throughput model.
    pub offload_threshold_rows: Option<u64>,
}

impl Default for HardwareProfile {
    fn default() -> HardwareProfile {
        HardwareProfile {
            // A deliberately conservative scalar-ish rate; a vectorizing
            // host typically runs 10–100× this.
            cpu_lane_ops_per_second: 50.0e6,
            offload_threshold_rows: None,
        }
    }
}

impl HardwareProfile {
    /// The same profile with a manual break-even override. `Some(0)`
    /// means "always offload" (the paper's behavior — DAnA has no CPU
    /// tier); `None` re-enables the throughput model.
    pub fn with_offload_threshold(mut self, rows: Option<u64>) -> HardwareProfile {
        self.offload_threshold_rows = rows;
        self
    }
}

/// One statement as bind priced it: the rows it names, the rows
/// estimated to reach the engine, and each tier's price.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Rows the statement names: the table's tuple count, or its inline
    /// rows.
    pub rows: u64,
    /// Rows estimated to reach the engine after a pushdown filter.
    pub effective_rows: u64,
    /// Epochs the run is budgeted for (1 for scoring).
    pub epochs: u32,
    /// The FPGA tier's price, and the part of it no row pays for (setup
    /// and per-epoch host overhead).
    pub fpga: Seconds,
    pub fpga_fixed: Seconds,
    /// The CPU tier's price; nothing in it is fixed.
    pub cpu: Seconds,
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

/// The row count at which the FPGA tier's per-row advantage has paid off
/// its fixed costs: the two prices' fixed parts over the difference of
/// their slopes — `None` when the CPU tier's slope is at least as good
/// (offload never pays).
pub fn break_even_rows(p: &HardwareProfile, w: &Workload) -> Option<u64> {
    if let Some(rows) = p.offload_threshold_rows {
        return Some(rows);
    }
    let rows = w.effective_rows.max(1) as f64;
    let advantage = (w.cpu - (w.fpga - w.fpga_fixed)) / rows;
    if advantage <= 0.0 {
        return None;
    }
    Some((w.fpga_fixed / advantage).ceil() as u64)
}

/// Compares a priced `workload`'s two tiers and picks one: the requested
/// backend when forced, otherwise the break-even rule (CPU below the
/// threshold, FPGA at or above it).
pub fn advise(
    profile: &HardwareProfile,
    workload: &Workload,
    requested: BackendChoice,
    statement: String,
) -> StrategyComparison {
    let break_even = break_even_rows(profile, workload);
    let (fpga, cpu) = (workload.fpga, workload.cpu);
    let rows = workload.effective_rows;
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
    use crate::pipeline::tests::linreg_heap;
    use crate::{Dana, SystemCore};
    use dana_dsl::zoo::{linear_regression, DenseParams};

    /// The break-even model with no manual threshold (the synthetic
    /// prices below are already priced: the lane rate plays no part).
    fn profile() -> HardwareProfile {
        HardwareProfile {
            cpu_lane_ops_per_second: 10.0e6,
            offload_threshold_rows: None,
        }
    }

    /// Prices shaped like bind's, in binary round numbers so every one is
    /// exact: the FPGA pays 2⁻⁵ s of setup and 2⁻⁵ s per epoch, then 2⁻²⁴ s
    /// per row per epoch; the CPU pays 2⁻²⁰ s per row per epoch and
    /// nothing fixed.
    fn priced(rows: u64, epochs: u32) -> Workload {
        let (e, n) = (epochs as f64, rows as f64);
        let fixed = (1.0 + e) / 32.0;
        Workload {
            rows,
            effective_rows: rows,
            epochs,
            fpga: fixed + e * n / (1 << 24) as f64,
            fpga_fixed: fixed,
            cpu: e * n / (1 << 20) as f64,
        }
    }

    fn workload(rows: u64) -> Workload {
        priced(rows, 1)
    }

    fn advised(p: &HardwareProfile, w: &Workload, requested: BackendChoice) -> StrategyComparison {
        advise(p, w, requested, "E".into())
    }

    /// A core with the break-even model on and `rows` rows of 8 features
    /// in table `t`, with `linearR` deployed for `epochs` epochs.
    fn modeled_core(rows: usize, epochs: u32) -> Dana {
        let db = Dana::new(
            dana_fpga::FpgaSpec::vu9p(),
            dana_storage::BufferPoolConfig {
                pool_bytes: 64 << 20,
                page_size: 8 * 1024,
            },
            dana_storage::DiskModel::ssd(),
        );
        db.set_hardware_profile(db.hardware_profile().with_offload_threshold(None));
        db.create_table("t", linreg_heap(rows, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs,
        });
        db.deploy(&spec.unwrap(), "t").unwrap();
        db
    }

    fn explain(core: &SystemCore, sql: &str) -> StrategyComparison {
        let out = core.execute_statement(&format!("EXPLAIN {sql}")).unwrap();
        out.comparison().unwrap().clone()
    }

    #[test]
    fn selectivity_scales_both_tiers_and_can_flip_the_choice() {
        let probe = modeled_core(2_000, 4);
        let full = "SELECT * FROM dana.linearR('t');";
        let be = explain(&probe, full).break_even_rows.unwrap();
        // A table comfortably past break-even offloads…
        let db = modeled_core(2 * be as usize, 4);
        let whole = explain(&db, full);
        assert_eq!(whole.chosen, BackendKind::Fpga);
        // …but an equality pushdown over it feeds the engine an estimated
        // 5% of the rows, under break-even, so auto routes it to the CPU.
        let filtered = explain(&db, "SELECT * FROM dana.linearR('t') WHERE x0 = 1;");
        assert_eq!(filtered.chosen, BackendKind::Cpu, "{filtered}");
        // Both tiers price the filtered scan cheaper than the full one.
        for tier in [BackendKind::Fpga, BackendKind::Cpu] {
            let (f, w) = (
                filtered.estimated_seconds(tier),
                whole.estimated_seconds(tier),
            );
            assert!(f < w, "{tier:?}: {f:?} vs {w:?}");
        }
    }

    #[test]
    fn projection_cheapens_the_cpu_tier_only() {
        let db = modeled_core(3_000, 4);
        let full = explain(&db, "SELECT * FROM dana.linearR('t');");
        let narrow = explain(&db, "SELECT * FROM dana.linearR('t') COLUMNS (x0, x1, y);");
        let cpu = |c: &StrategyComparison| c.estimated_seconds(BackendKind::Cpu).unwrap();
        let fpga = |c: &StrategyComparison| c.estimated_seconds(BackendKind::Fpga).unwrap();
        assert!(cpu(&narrow) < cpu(&full));
        // The Striders walk every column whatever the projection, and the
        // projected scan also decompresses its pages.
        assert!(fpga(&narrow) >= fpga(&full));
        // A narrower CPU feed raises the FPGA's break-even row count.
        let (be_full, be_narrow) = (full.break_even_rows, narrow.break_even_rows);
        assert!(be_narrow > be_full, "full={be_full:?} narrow={be_narrow:?}");
    }

    #[test]
    fn tiny_table_prefers_cpu_large_table_prefers_fpga() {
        let p = profile();
        // Break-even = 2⁻⁴ s / (2⁻²⁰ − 2⁻²⁴) s per row = 2²⁰ / 15 rows.
        let be = break_even_rows(&p, &workload(1)).unwrap();
        assert_eq!(be, (1u64 << 20).div_ceil(15));
        let small = advised(&p, &workload(1_000), BackendChoice::Auto);
        assert_eq!(small.chosen, BackendKind::Cpu);
        assert!(!small.forced);
        let large = advised(&p, &workload(1_000_000), BackendChoice::Auto);
        assert_eq!(large.chosen, BackendKind::Fpga);
        // And the priced costs agree with the choice.
        let at = |c: &StrategyComparison, tier| c.estimated_seconds(tier).unwrap();
        assert!(at(&small, BackendKind::Cpu) < at(&small, BackendKind::Fpga));
        assert!(at(&large, BackendKind::Fpga) < at(&large, BackendKind::Cpu));
    }

    #[test]
    fn exactly_at_break_even_offloads() {
        let p = profile();
        let be = break_even_rows(&p, &workload(1)).unwrap();
        let at = advised(&p, &workload(be), BackendChoice::Auto);
        assert_eq!(at.chosen, BackendKind::Fpga);
        let below = advised(&p, &workload(be - 1), BackendChoice::Auto);
        assert_eq!(below.chosen, BackendKind::Cpu);
    }

    #[test]
    fn with_backend_override_wins_over_auto() {
        let p = profile();
        // Force FPGA on a tiny table auto would route to CPU…
        let forced = advised(&p, &workload(10), BackendChoice::Fpga);
        assert_eq!(forced.chosen, BackendKind::Fpga);
        assert!(forced.forced);
        // …and CPU on a huge table auto would offload.
        let forced = advised(&p, &workload(10_000_000), BackendChoice::Cpu);
        assert_eq!(forced.chosen, BackendKind::Cpu);
        assert!(forced.forced);
    }

    #[test]
    fn manual_offload_threshold_overrides_the_model() {
        let mut p = profile();
        p.offload_threshold_rows = Some(500);
        let c = advised(&p, &workload(499), BackendChoice::Auto);
        assert_eq!(c.chosen, BackendKind::Cpu);
        let c = advised(&p, &workload(500), BackendChoice::Auto);
        assert_eq!(c.chosen, BackendKind::Fpga);
        assert_eq!(c.break_even_rows, Some(500));
    }

    #[test]
    fn offload_never_pays_when_cpu_rate_dominates() {
        let p = profile();
        // A CPU whose per-row price beats the FPGA's.
        let mut w = workload(100_000_000);
        w.cpu = w.fpga - w.fpga_fixed;
        assert_eq!(break_even_rows(&p, &w), None);
        let c = advised(&p, &w, BackendChoice::Auto);
        assert_eq!(c.chosen, BackendKind::Cpu);
        assert!(c.rationale.contains("never pays"));
    }

    #[test]
    fn more_epochs_lower_the_break_even() {
        // Setup is paid once and the per-epoch overhead grows slower than
        // the per-row advantage it buys, so the threshold drops toward the
        // overhead-only limit as epochs grow — on synthetic prices and on
        // bind's own.
        let p = profile();
        let be1 = break_even_rows(&p, &priced(1, 1)).unwrap();
        let be20 = break_even_rows(&p, &priced(1, 20)).unwrap();
        assert!(be20 < be1, "be1={be1} be20={be20}");
        let sql = "SELECT * FROM dana.linearR('t');";
        let be = |epochs| explain(&modeled_core(1_000, epochs), sql).break_even_rows;
        let (be1, be20) = (be(1).unwrap(), be(20).unwrap());
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
        let c = advise(&p, &workload(1000), BackendChoice::Auto, "EXECUTE m".into());
        let text = format!("{c}");
        assert!(text.contains("fpga"), "{text}");
        assert!(text.contains("cpu"), "{text}");
        assert!(text.contains("break-even"), "{text}");
        assert!(text.contains("chosen: cpu"), "{text}");
    }
}
