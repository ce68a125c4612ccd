//! The query-lifecycle trace: named stage spans accumulated through a
//! [`SpanRecorder`].
//!
//! A trace is a fixed vocabulary of stages under one implicit root —
//! `parse → admission_wait → lease → scan → engine → merge →
//! (materialize) → reply` — rather than a free-form span tree: the
//! *structure* (stage names, nesting, child counts) is a function of the
//! statement alone, so embedded and served runs (and every gang width)
//! emit byte-identical shapes and only the recorded times differ.
//! Per-shard work aggregates into the `scan` stage's count; per-epoch
//! engine compute hangs off the `engine` stage as one child per epoch.
//!
//! Each stage carries two clocks, kept strictly apart (the same
//! discipline as `DanaTiming`): `sim_seconds` from the cycle model and
//! `wall_seconds` measured on the host. Stage sim seconds partition the
//! composed end-to-end total exactly — `EXPLAIN ANALYZE` asserts the
//! stage sum against the query report.

use std::sync::{Arc, Mutex, PoisonError};

/// One named stage (or per-epoch child) of a query's lifecycle.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceSpan {
    pub name: String,
    /// How many units of work the stage aggregated (shards for `scan`,
    /// epochs for `engine`, 1 otherwise).
    pub count: u64,
    /// Simulated seconds attributed to this stage (cycle model).
    pub sim_seconds: f64,
    /// Measured wall seconds attributed to this stage.
    pub wall_seconds: f64,
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    fn new(name: &str) -> TraceSpan {
        TraceSpan {
            name: name.to_string(),
            count: 1,
            sim_seconds: 0.0,
            wall_seconds: 0.0,
            children: Vec::new(),
        }
    }
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

/// The span accumulator threaded through the execution path.
///
/// Stages are upserted by name: the first touch fixes a stage's position
/// in the trace, later touches add time/counts onto it — so a front door
/// can pre-register the lifecycle skeleton (`parse`, `admission_wait`,
/// `lease`) in order and let the shared `exec` assembly helpers fill the
/// execution stages in.
///
/// A disabled recorder is a `None`; every method is a branch-and-return
/// no-op with no lock and no allocation (pay-for-what-you-use).
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder(Option<Arc<Mutex<Vec<TraceSpan>>>>);

impl SpanRecorder {
    /// The no-op recorder untraced queries run with.
    pub fn disabled() -> SpanRecorder {
        SpanRecorder(None)
    }

    /// A live recorder for one traced query.
    pub fn enabled() -> SpanRecorder {
        SpanRecorder(Some(Arc::new(Mutex::new(Vec::new()))))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn with_stage(&self, name: &str, f: impl FnOnce(&mut TraceSpan)) {
        let Some(buf) = &self.0 else { return };
        // Poisoned locks are recovered — see `SharedBufferPool::lock` (dana-storage).
        let mut stages = buf.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = stages.iter_mut().find(|s| s.name == name) {
            f(span);
        } else {
            let mut span = TraceSpan::new(name);
            f(&mut span);
            stages.push(span);
        }
    }

    /// Ensures a stage exists (ordering anchor), adding nothing to it.
    pub fn stage(&self, name: &str) {
        self.with_stage(name, |_| {});
    }

    /// Adds simulated seconds onto a stage.
    pub fn add_sim(&self, name: &str, seconds: f64) {
        self.with_stage(name, |s| s.sim_seconds += seconds);
    }

    /// Adds measured wall seconds onto a stage.
    pub fn add_wall(&self, name: &str, seconds: f64) {
        self.with_stage(name, |s| s.wall_seconds += seconds);
    }

    /// Sets a stage's aggregated work count (shards, epochs).
    pub fn set_count(&self, name: &str, count: u64) {
        self.with_stage(name, |s| s.count = count);
    }

    /// Appends a child span (e.g. one engine epoch) under a stage.
    pub fn child(&self, parent: &str, name: &str, sim_seconds: f64) {
        self.with_stage(parent, |s| {
            let mut c = TraceSpan::new(name);
            c.sim_seconds = sim_seconds;
            s.children.push(c);
        });
    }

    /// Closes the trace: drains the recorded stages into a
    /// [`QueryTrace`] carrying the end-to-end totals. Returns `None` on
    /// a disabled recorder. The recorder is left empty and reusable.
    pub fn finish(&self, total_sim_seconds: f64, total_wall_seconds: f64) -> Option<QueryTrace> {
        let buf = self.0.as_ref()?;
        let stages = {
            let mut g = buf.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *g)
        };
        Some(QueryTrace {
            stages,
            total_sim_seconds,
            total_wall_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_noop() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.stage("parse");
        rec.add_sim("engine", 1.0);
        rec.child("engine", "epoch", 0.5);
        assert!(rec.finish(1.0, 0.1).is_none());
    }

    #[test]
    fn stages_keep_first_touch_order_and_accumulate() {
        let rec = SpanRecorder::enabled();
        rec.stage("parse");
        rec.stage("admission_wait");
        rec.stage("lease");
        rec.add_sim("lease", 0.03);
        rec.add_sim("scan", 0.2);
        rec.set_count("scan", 4);
        rec.add_sim("engine", 0.5);
        rec.add_sim("engine", 0.5);
        rec.set_count("engine", 2);
        rec.child("engine", "epoch", 0.5);
        rec.child("engine", "epoch", 0.5);
        rec.add_wall("parse", 0.001);
        let trace = rec.finish(1.23, 0.01).unwrap();
        let names: Vec<&str> = trace.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["parse", "admission_wait", "lease", "scan", "engine"]
        );
        assert_eq!(trace.stage("engine").unwrap().sim_seconds, 1.0);
        assert_eq!(trace.stage("engine").unwrap().children.len(), 2);
        assert_eq!(trace.stage("scan").unwrap().count, 4);
        assert_eq!(trace.total_sim_seconds, 1.23);
        // The recorder drained: a second finish is an empty trace.
        assert!(rec.finish(0.0, 0.0).unwrap().stages.is_empty());
    }

    #[test]
    fn structure_ignores_times_but_keeps_counts_and_nesting() {
        let a = SpanRecorder::enabled();
        let b = SpanRecorder::enabled();
        for (i, rec) in [&a, &b].into_iter().enumerate() {
            rec.stage("parse");
            rec.add_sim("scan", 1.0 + 8.0 * i as f64);
            rec.set_count("scan", 2);
            rec.child("engine", "epoch", 0.1);
        }
        let ta = a.finish(1.0, 0.0).unwrap();
        let tb = b.finish(99.0, 5.0).unwrap();
        assert_eq!(ta.structure(), tb.structure());
        assert!(ta.structure().contains("scan x2"));
        assert!(ta.structure().contains("  epoch x1"));
    }

    #[test]
    fn render_shows_stage_times() {
        let rec = SpanRecorder::enabled();
        rec.add_sim("engine", 0.25);
        rec.add_wall("parse", 0.0005);
        let trace = rec.finish(0.3, 0.001).unwrap();
        let text = trace.render();
        assert!(text.contains("engine"), "render:\n{text}");
        assert!(text.contains("250.000ms"), "render:\n{text}");
        let sum = trace.stage_sim_sum();
        assert!((sum - 0.25).abs() < 1e-12);
    }

    #[test]
    fn trace_serde_roundtrip() {
        let rec = SpanRecorder::enabled();
        rec.add_sim("scan", 0.5);
        rec.child("engine", "epoch", 0.1);
        let trace = rec.finish(0.6, 0.01).unwrap();
        let json = serde_json::to_string(&trace).unwrap();
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }
}
