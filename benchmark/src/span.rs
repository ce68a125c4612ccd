//! The benchmark's own span recorder (choosing-metrics §4): spans are
//! recorded around the calls the benchmark makes into each layer, kept in
//! memory, and written out when the run ends. Nothing inside the program
//! under test is instrumented.

use std::io::Write;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one operation (one replayed cycle) share this id.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. A disabled tracer runs the closures
/// and records nothing, so plain runs pay no tracing cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread on the same clock; hand its spans back
    /// with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: self.op,
        }
    }

    /// Appends a forked tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.op = self.op.max(other.op);
    }

    /// Starts a new operation; later spans carry its id.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span named `name`, nested under the span that is
    /// open on this tracer (if any).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Self seconds and count of the spans named `name`, summed per
    /// operation, in operation order (operations without such a span are
    /// left out).
    pub fn self_seconds_per_op(&self, name: &str) -> Vec<(f64, usize)> {
        let own = self.self_times_ns();
        let mut per_op: Vec<(u32, u64, usize)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(own) {
            if span.name != name {
                continue;
            }
            match per_op.iter_mut().find(|(op, _, _)| *op == span.op) {
                Some((_, total, count)) => {
                    *total += ns;
                    *count += 1;
                }
                None => per_op.push((span.op, ns, 1)),
            }
        }
        per_op
            .into_iter()
            .map(|(_, ns, count)| (ns as f64 * 1e-9, count))
            .collect()
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 has siblings 10..30 and 40..90; the second sibling
        // has its own child 50..60.
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn recorder_nests_spans_and_groups_self_time_by_operation() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            t.next_op();
            t.span("outer", |t| {
                t.span("inner", |_| std::hint::black_box(1 + 1));
                t.span("inner", |_| std::hint::black_box(2 + 2));
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!((spans[0].op, spans[3].op), (1, 2));
        assert_eq!(t.self_seconds_per_op("inner").len(), 2);
        assert_eq!(t.self_seconds_per_op("outer").len(), 2);
        let own = t.self_times_ns();
        assert_eq!(
            own[0] + own[1] + own[2],
            spans[0].duration_ns(),
            "children partition the parent"
        );
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut main = Tracer::new(true);
        main.span("setup", |_| ());
        let mut side = main.fork();
        side.span("outer", |t| t.span("inner", |_| ()));
        main.absorb(side);
        assert_eq!(main.spans()[2].name, "inner");
        assert_eq!(main.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
