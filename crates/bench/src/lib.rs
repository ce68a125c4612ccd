//! Shared harness utilities for the per-figure reproduction targets.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the
//! paper's evaluation (§7): it computes our numbers through the analytic
//! harness (`dana::analytic`, which runs the *real* compiler and the
//! calibrated cost models at full Table-3 scale), prints them next to the
//! paper's published series, and reports whether the qualitative claim
//! holds. EXPERIMENTS.md records the same comparisons.

pub mod paper;

use dana::{analytic_dana, analytic_greenplum, analytic_madlib, ExecutionMode, SystemParams};
use dana_workloads::Workload;

/// Geometric mean (the paper's summary statistic for every speedup chart).
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// End-to-end totals for the three principal systems on one workload.
#[derive(Debug, Clone, Copy)]
pub struct SystemTotals {
    pub madlib_pg: f64,
    pub madlib_gp8: f64,
    pub dana: f64,
}

impl SystemTotals {
    pub fn gp_speedup(&self) -> f64 {
        self.madlib_pg / self.madlib_gp8
    }

    pub fn dana_speedup(&self) -> f64 {
        self.madlib_pg / self.dana
    }
}

/// Computes the three systems' totals for `w` under a cache setting.
pub fn run_systems(w: &Workload, warm: bool, p: &SystemParams) -> SystemTotals {
    let madlib = analytic_madlib(w, warm, p);
    let gp = analytic_greenplum(w, 8, warm, p);
    let dana = analytic_dana(w, ExecutionMode::Strider, warm, p)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    SystemTotals {
        madlib_pg: madlib.total_seconds,
        madlib_gp8: gp.total_seconds,
        dana: dana.total_seconds,
    }
}

/// Pretty seconds: `1 h 2 m 3 s` / `4.5 s` / `120 ms`.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.0}h {:02.0}m", (s / 3600.0).floor(), (s % 3600.0) / 60.0)
    } else if s >= 60.0 {
        format!("{:.0}m {:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

/// One comparison row: a name, the paper's value, ours.
pub struct Row {
    pub name: String,
    pub paper: f64,
    pub ours: f64,
}

/// Prints a paper-vs-ours table with a per-row agreement factor and a
/// gross qualitative verdict (same winner / within ~3× shape band).
pub fn print_comparison(title: &str, unit: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!(
        "{:<22} {:>12} {:>12} {:>8}",
        "workload",
        format!("paper ({unit})"),
        "ours",
        "ratio"
    );
    for r in rows {
        let ratio = if r.paper > 0.0 {
            r.ours / r.paper
        } else {
            f64::NAN
        };
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>7.2}x",
            r.name, r.paper, r.ours, ratio
        );
    }
    let pg = geomean(&rows.iter().map(|r| r.paper).collect::<Vec<_>>());
    let og = geomean(&rows.iter().map(|r| r.ours).collect::<Vec<_>>());
    println!(
        "{:<22} {:>12.2} {:>12.2} {:>7.2}x",
        "geomean",
        pg,
        og,
        og / pg
    );
}

/// Fraction of rows whose ours/paper ratio lies within [1/band, band].
pub fn within_band(rows: &[Row], band: f64) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let ok = rows
        .iter()
        .filter(|r| {
            let ratio = r.ours / r.paper;
            ratio >= 1.0 / band && ratio <= band
        })
        .count();
    ok as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(0.12), "120ms");
        assert_eq!(fmt_seconds(4.5), "4.5s");
        assert_eq!(fmt_seconds(62.0), "1m 02s");
        assert_eq!(fmt_seconds(3661.0), "1h 01m");
    }

    #[test]
    fn band_counting() {
        let rows = vec![
            Row {
                name: "a".into(),
                paper: 10.0,
                ours: 12.0,
            },
            Row {
                name: "b".into(),
                paper: 10.0,
                ours: 100.0,
            },
        ];
        assert!((within_band(&rows, 3.0) - 0.5).abs() < 1e-12);
    }
}
