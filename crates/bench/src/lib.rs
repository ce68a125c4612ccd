//! The paper side of the reproduction, as data.
//!
//! [`figures`] computes every table and figure of the paper's evaluation
//! (§7) through the analytic harness (`dana::analytic`, which runs the
//! *real* compiler and the simulator's own cost model at full Table-3
//! scale), beside the published series in [`paper`] and with the
//! qualitative claims each figure supports. `cargo bench --bench paper`
//! prints them as Markdown through [`render`]; that output is checked in
//! as the repository's `EXPERIMENTS.md`. The tests below hold the file to
//! the code byte for byte — a number cannot move without the record
//! moving — and, separately, hold every claim, so re-blessing the file
//! cannot flip one.

mod figures;
pub mod paper;

use std::fmt::Write;

pub use figures::figures;

/// Geometric mean (the paper's summary statistic for every speedup chart).
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Pretty seconds: `1h 02m` / `1m 02s` / `4.5s` / `120ms`.
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

/// What a series measures, which fixes how its values print — at a fixed
/// precision, so the debug-built record test and the release-built
/// printer render the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A speedup or other ratio: two decimals.
    Ratio,
    /// Seconds, through [`fmt_seconds`].
    Seconds,
    /// A share, in percent: one decimal.
    Percent,
    /// A count: no decimals.
    Count,
}

impl Unit {
    fn fmt(self, v: f64) -> String {
        match self {
            Unit::Ratio => format!("{v:.2}x"),
            Unit::Seconds => fmt_seconds(v),
            Unit::Percent => format!("{v:.1}%"),
            Unit::Count => format!("{v:.0}"),
        }
    }
}

/// One comparison row: a name (a Table-3 workload wherever the figure
/// is per workload), the paper's value where it publishes one, ours.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub paper: Option<f64>,
    pub ours: f64,
}

/// One column of a figure: labelled rows in one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub label: String,
    pub unit: Unit,
    pub rows: Vec<Row>,
}

impl Series {
    /// Geometric mean of the `ours` column.
    pub fn geomean(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.ours).collect::<Vec<_>>())
    }
}

/// A qualitative statement a figure supports, and whether our numbers
/// support it too.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub text: String,
    pub holds: bool,
}

/// One table or figure of the evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Short stable id: `table5`, `fig8a`, …
    pub id: String,
    pub title: String,
    pub series: Vec<Series>,
    pub claims: Vec<Claim>,
}

/// Fraction of the rows carrying a paper value whose ours/paper ratio
/// lies within [1/band, band].
pub fn within_band(rows: &[Row], band: f64) -> f64 {
    let ratios: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.paper.map(|p| r.ours / p))
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    let ok = ratios.iter().filter(|r| (1.0 / band..=band).contains(*r));
    ok.count() as f64 / ratios.len() as f64
}

/// Appends one series as a Markdown paper-vs-ours table: a per-row
/// agreement factor and, where the paper publishes every row, the
/// geomeans and the share of rows inside a 3× shape band.
pub fn print_comparison(out: &mut String, s: &Series) {
    let fmt = |v| s.unit.fmt(v);
    let _ = writeln!(out, "\n**{}**\n", s.label);
    out.push_str("| | paper | ours | ours/paper |\n|:--|--:|--:|--:|\n");
    let mut line = |name: &str, paper: Option<f64>, ours: f64| {
        let (paper, ratio) = match paper {
            Some(p) => (fmt(p), format!("{:.2}x", ours / p)),
            None => ("–".to_string(), "–".to_string()),
        };
        let _ = writeln!(out, "| {name} | {paper} | {} | {ratio} |", fmt(ours));
    };
    for r in &s.rows {
        line(&r.name, r.paper, r.ours);
    }
    let published: Option<Vec<f64>> = s.rows.iter().map(|r| r.paper).collect();
    if let Some(paper) = published {
        line("geomean", Some(geomean(&paper)), s.geomean());
        let within = 100.0 * within_band(&s.rows, 3.0);
        let _ = writeln!(out, "\n{within:.0}% of rows within 3x of the paper.");
    }
}

/// Renders the figures as the Markdown document `EXPERIMENTS.md` holds.
pub fn render(figures: &[Figure]) -> String {
    let mut out = String::from(PREAMBLE);
    for f in figures {
        let _ = writeln!(out, "\n## {} — {}", f.id, f.title);
        for s in &f.series {
            print_comparison(&mut out, s);
        }
        if !f.claims.is_empty() {
            out.push('\n');
        }
        for c in &f.claims {
            let mark = if c.holds { 'x' } else { ' ' };
            let _ = writeln!(out, "- [{mark}] {}", c.text);
        }
    }
    out
}

const PREAMBLE: &str = "\
# EXPERIMENTS — the paper's evaluation (§7), reproduced

Generated: `cargo bench --bench paper > EXPERIMENTS.md`. Do not edit by
hand — `cargo test -p dana-bench` holds this file to `dana_bench::figures`
byte for byte, and CHANGES.md must say why a number moved.

Every *ours* value is the analytic harness (`dana::analytic`) at full
Table-3 scale: the real compiler's estimate priced by the functional
simulator's own cost model (`tests/ablations.rs` holds the two together).
*paper* values are transcribed in `crates/bench/src/paper.rs`;
*ours/paper* is the residual of the fitted constants — the per-workload
epoch counts (table3), the AXI bandwidth and host overheads (table4) and
the CPU model's calibration (`crates/ml/src/cpu.rs`). A ticked claim is
one our numbers support; the test suite asserts every one of them.

Cold-cache figures (8b, 9b, 10b) charge a scan's misses as one sequential
read, where the simulator's buffer pool charges one random page read per
miss — about 2.5x more disk time at 32 KB pages (README, \"Reproducing
the paper\").
";

#[cfg(test)]
mod tests {
    use super::*;
    use dana::SystemParams;
    use std::sync::OnceLock;

    /// `figures()` compiles ~160 accelerators; the tests share one run.
    fn default_figures() -> &'static [Figure] {
        static FIGURES: OnceLock<Vec<Figure>> = OnceLock::new();
        FIGURES.get_or_init(|| figures(&SystemParams::default()))
    }

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
                paper: Some(10.0),
                ours: 12.0,
            },
            Row {
                name: "b".into(),
                paper: Some(10.0),
                ours: 100.0,
            },
            Row {
                name: "unpublished".into(),
                paper: None,
                ours: 1.0,
            },
        ];
        assert!((within_band(&rows, 3.0) - 0.5).abs() < 1e-12);
    }

    /// The record: `EXPERIMENTS.md` is exactly what the code computes.
    #[test]
    fn experiments_md_is_the_rendered_figures() {
        let rendered = render(default_figures());
        let recorded = include_str!("../../../EXPERIMENTS.md");
        if let Some((n, (ours, theirs))) = rendered
            .lines()
            .zip(recorded.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            panic!(
                "EXPERIMENTS.md line {}: the code now renders\n  {ours}\nbut the file records\n  \
                 {theirs}\nIf the change is intended, regenerate with `cargo bench --bench paper \
                 > EXPERIMENTS.md` and say in CHANGES.md why the number moved.",
                n + 1
            );
        }
        assert_eq!(
            rendered.len(),
            recorded.len(),
            "EXPERIMENTS.md and the rendered figures differ in length: regenerate with `cargo \
             bench --bench paper > EXPERIMENTS.md` and say in CHANGES.md why"
        );
    }

    /// The claims, held apart from the record: regenerating the file
    /// cannot make a false claim pass, and dropping one shows here.
    #[test]
    fn every_claim_holds() {
        let figures = default_figures();
        for f in figures {
            for c in &f.claims {
                assert!(c.holds, "{}: claim no longer holds: {}", f.id, c.text);
            }
        }
        let claimed: Vec<(&str, usize)> = figures
            .iter()
            .filter(|f| !f.claims.is_empty())
            .map(|f| (f.id.as_str(), f.claims.len()))
            .collect();
        assert_eq!(
            claimed,
            [
                ("fig8a", 2), // DAnA > 1x on 6/6; geomean within the paper's 3x band
                ("fig8b", 1), // DAnA > 1x on 6/6
                ("fig9a", 1), // DAnA > 1x on 4/4
                ("fig9b", 1),
                ("fig10a", 1), // S/E Logistic is the largest S/E win
                ("fig10b", 1),
                ("fig11", 1),  // Striders help on 14/14
                ("fig12", 4),  // each sweep improves, then saturates
                ("fig13", 1),  // 8 segments best overall
                ("fig14", 1),  // bandwidth-bound classification >= 11/14
                ("fig15c", 1), // DAnA faster than both libraries on 5/5
                ("fig16", 1),  // DAnA beats TABLA on 10/10
            ]
        );
    }

    /// Rows are keyed by Table-3 workload names wherever a figure is per
    /// workload, and the paper side has no holes: every figure the paper
    /// prints numbers for carries one, not NaN, on every row.
    #[test]
    fn rows_name_registry_workloads_and_paper_values_are_numbers() {
        for f in default_figures() {
            // Table 4 lists device resources, Fig. 12 thread counts; both,
            // and Table 3's topology and fitted epochs, are ours alone.
            let per_workload = !matches!(f.id.as_str(), "table4" | "fig12");
            for s in &f.series {
                assert!(!s.rows.is_empty(), "{}: empty series {}", f.id, s.label);
                for r in &s.rows {
                    let at = format!("{} / {} / {}", f.id, s.label, r.name);
                    if per_workload {
                        assert!(dana_workloads::workload(&r.name).is_some(), "{at}");
                    }
                    assert!(r.ours.is_finite(), "{at}");
                    assert!(r.paper.is_none_or(f64::is_finite), "{at}");
                    if per_workload && f.id != "table3" {
                        assert!(r.paper.is_some(), "{at}: the paper's value is missing");
                    }
                }
            }
        }
    }
}
