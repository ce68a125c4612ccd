//! The query-lifecycle trace: named stage spans under one implicit root.
//!
//! A trace is a fixed vocabulary of stages — `parse → admission_wait →
//! lease → scan → engine → merge → (materialize) → reply` — rather than a
//! free-form span tree: the *structure* (stage names, nesting, child
//! counts) is a function of the statement alone, so embedded and served
//! runs (and every gang width and tier) emit byte-identical shapes and
//! only the recorded times differ. Per-epoch engine compute hangs off the
//! `engine` stage as one child per epoch.
//!
//! Each stage carries two clocks, kept strictly apart (the same
//! discipline as `DanaTiming`): `sim_seconds` from the cycle model and
//! `wall_seconds` measured on the host. Stage sim seconds partition the
//! composed end-to-end total exactly. The types here only hold and print
//! a trace; `dana::exec::trace` composes one from what a run reported.

/// One named stage (or per-epoch child) of a query's lifecycle.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceSpan {
    pub name: String,
    /// How many units of work the stage aggregated (epochs for `engine`,
    /// retries for `fault_retry`, 1 otherwise).
    pub count: u64,
    /// Simulated seconds attributed to this stage (cycle model).
    pub sim_seconds: f64,
    /// Measured wall seconds attributed to this stage.
    pub wall_seconds: f64,
    pub children: Vec<TraceSpan>,
}

/// A finished query trace: the ordered stage spans plus the end-to-end
/// totals they partition.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueryTrace {
    pub stages: Vec<TraceSpan>,
    /// The query report's composed simulated total.
    pub total_sim_seconds: f64,
    /// End-to-end measured wall seconds.
    pub total_wall_seconds: f64,
}

impl QueryTrace {
    /// The sum of per-stage simulated seconds — held to the composed
    /// total by the `EXPLAIN ANALYZE` acceptance suite.
    pub fn stage_sim_sum(&self) -> f64 {
        self.stages.iter().map(|s| s.sim_seconds).sum()
    }

    pub fn stage(&self, name: &str) -> Option<&TraceSpan> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The trace's *shape* — stage names, nesting, and counts, with no
    /// times. Two runs of the same statement must agree on this string
    /// whatever front door or gang width ran them.
    pub fn structure(&self) -> String {
        fn walk(span: &TraceSpan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("{} x{}\n", span.name, span.count));
            for c in &span.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::from("query\n");
        for s in &self.stages {
            walk(s, 1, &mut out);
        }
        out
    }

    /// Renders the span tree with per-stage simulated and wall time —
    /// the `EXPLAIN ANALYZE` surface.
    pub fn render(&self) -> String {
        fn fmt_s(v: f64) -> String {
            if v == 0.0 {
                "-".to_string()
            } else if v < 1e-3 {
                format!("{:.1}us", v * 1e6)
            } else if v < 1.0 {
                format!("{:.3}ms", v * 1e3)
            } else {
                format!("{v:.4}s")
            }
        }
        fn walk(span: &TraceSpan, depth: usize, out: &mut String) {
            let label = format!("{}{} (x{})", "  ".repeat(depth), span.name, span.count);
            out.push_str(&format!(
                "{label:<34} sim {:>10}  wall {:>10}\n",
                fmt_s(span.sim_seconds),
                fmt_s(span.wall_seconds)
            ));
            for c in &span.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = format!(
            "query                              sim {:>10}  wall {:>10}\n",
            fmt_s(self.total_sim_seconds),
            fmt_s(self.total_wall_seconds)
        );
        for s in &self.stages {
            walk(s, 1, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, count: u64, sim: f64, wall: f64, children: Vec<TraceSpan>) -> TraceSpan {
        TraceSpan {
            name: name.to_string(),
            count,
            sim_seconds: sim,
            wall_seconds: wall,
            children,
        }
    }

    /// A two-epoch training trace with the given scan sim and totals.
    fn trace(scan_sim: f64, total_sim: f64, total_wall: f64) -> QueryTrace {
        let epoch = |sim| span("epoch", 1, sim, 0.0, vec![]);
        QueryTrace {
            stages: vec![
                span("parse", 1, 0.0, 0.0005, vec![]),
                span("lease", 1, 0.03, 0.0, vec![]),
                span("scan", 1, scan_sim, 0.0, vec![]),
                span("engine", 2, 0.25, 0.0, vec![epoch(0.125), epoch(0.125)]),
                span("reply", 1, 0.0, 0.0, vec![]),
            ],
            total_sim_seconds: total_sim,
            total_wall_seconds: total_wall,
        }
    }

    #[test]
    fn structure_ignores_times_but_keeps_counts_and_nesting() {
        let (a, b) = (trace(0.2, 0.48, 0.01), trace(9.0, 99.0, 5.0));
        assert_eq!(a.structure(), b.structure());
        assert_eq!(
            a.structure(),
            "query\n  parse x1\n  lease x1\n  scan x1\n  engine x2\n    epoch x1\n    \
             epoch x1\n  reply x1\n"
        );
    }

    #[test]
    fn render_shows_stage_times() {
        let t = trace(0.2, 0.48, 0.001);
        let text = t.render();
        assert!(text.contains("engine (x2)"), "render:\n{text}");
        assert!(text.contains("250.000ms"), "render:\n{text}");
        assert!(text.contains("500.0us"), "render:\n{text}");
        assert_eq!(t.stage("engine").unwrap().children.len(), 2);
        assert!((t.stage_sim_sum() - 0.48).abs() < 1e-12);
    }

    #[test]
    fn trace_serde_roundtrip() {
        let t = trace(0.5, 0.78, 0.01);
        let json = serde_json::to_string(&t).unwrap();
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
