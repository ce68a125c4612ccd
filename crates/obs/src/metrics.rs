//! Lock-cheap metric primitives and the serializable stats snapshot.
//!
//! Recording is always a handful of relaxed atomic operations — no lock,
//! no allocation — so subsystems can charge metrics from their hot paths
//! (admission pop, lease grant, worker completion) without perturbing
//! the latencies they measure. Reading happens only at `SHOW STATS`
//! time, where each primitive folds into [`StatEntry`] rows.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power of two: 2^4 = 16 keeps the worst-case
/// relative quantile error at 1/16 ≈ 6.3%.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Values are recorded in whole microseconds; 64 powers of two cover
/// every representable duration.
const BUCKETS: usize = 64 * SUBS;

/// A log-bucketed latency histogram (HdrHistogram-style: log2 major
/// buckets, 16 linear sub-buckets each). Recording is one relaxed
/// `fetch_add`; quantile readout walks the bucket array.
pub struct Histogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// One histogram's folded readout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub mean_seconds: f64,
    pub max_seconds: f64,
    pub p50_seconds: f64,
    pub p95_seconds: f64,
    pub p99_seconds: f64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Records one latency in seconds.
    pub fn record(&self, seconds: f64) {
        let micros = if seconds <= 0.0 {
            0
        } else {
            (seconds * 1e6).round() as u64
        };
        self.counts[Self::index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The bucket a microsecond value lands in: values below 2^SUB_BITS
    /// are exact; above, the top SUB_BITS bits after the leading one pick
    /// the linear sub-bucket within the value's power of two.
    fn index(micros: u64) -> usize {
        if micros < SUBS as u64 {
            return micros as usize;
        }
        let top = 63 - micros.leading_zeros();
        let sub = ((micros >> (top - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        ((top - SUB_BITS + 1) as usize) * SUBS + sub
    }

    /// The representative (midpoint) microsecond value for a bucket.
    fn bucket_value(idx: usize) -> f64 {
        if idx < SUBS {
            return idx as f64;
        }
        let major = (idx / SUBS) as u32 + SUB_BITS - 1;
        let sub = (idx % SUBS) as u64;
        let base = (SUBS as u64 + sub) << (major - SUB_BITS);
        let width = 1u64 << (major - SUB_BITS);
        base as f64 + width as f64 / 2.0
    }

    /// The value at quantile `q` (0.0–1.0), in seconds. Accurate to the
    /// bucket resolution (≈6%); exact below 16 µs.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_value(i) / 1e6;
            }
        }
        self.max_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let mean = if count == 0 {
            0.0
        } else {
            self.sum_micros.load(Ordering::Relaxed) as f64 / count as f64 / 1e6
        };
        HistogramSnapshot {
            count,
            mean_seconds: mean,
            max_seconds: self.max_micros.load(Ordering::Relaxed) as f64 / 1e6,
            p50_seconds: self.quantile(0.50),
            p95_seconds: self.quantile(0.95),
            p99_seconds: self.quantile(0.99),
        }
    }
}

/// The push-side metrics every front door charges as queries complete. The
/// pull-side values (queue depth, pool utilization, buffer-pool and
/// session stats) are read from their authoritative owners at snapshot
/// time instead of being mirrored here — `SHOW STATS` can never drift
/// from what `pool_utilization()`/`queue_stats()` report.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Wall seconds a query waited in the admission queue.
    pub admission_wait: Histogram,
    /// Wall seconds a worker waited to acquire its (gang) lease.
    pub lease_wait: Histogram,
    /// Wall seconds a query spent executing on a worker.
    pub exec_wall: Histogram,
    pub queries_completed: Counter,
    pub queries_failed: Counter,
    /// Backend split: queries the FPGA tier ran vs. the native CPU tier.
    pub fpga_queries: Counter,
    pub cpu_queries: Counter,
    /// Training epochs executed across all queries.
    pub epochs_run: Counter,
    /// Accelerators + prediction tables invalidated by DDL (drops).
    pub staleness_invalidations: Counter,
    /// Transient accelerator faults observed (injected or reported).
    pub transient_faults: Counter,
    /// Member epochs re-run from the epoch-start model after a fault.
    pub fault_retries: Counter,
    /// Queries that hit their deadline during execution.
    pub deadline_exceeded: Counter,
    /// Gang members that faulted mid-training, recovered or not (a serial
    /// EXECUTE's lone member included).
    pub gang_member_faults: Counter,
    /// Panicking dispatches caught and turned into typed replies.
    pub panics_caught: Counter,
    // ---- online serving tier ------------------------------------------
    /// Wall seconds per point-PREDICT, submit to reply.
    pub point_latency: Histogram,
    /// Rows per coalesced batcher dispatch (occupancy histogram — the
    /// recorded "seconds" are row counts; read the `_count`/`_p*` rows
    /// as rows, not time).
    pub batch_occupancy: Histogram,
    /// Point queries served.
    pub point_queries: Counter,
    /// Coalesced batcher dispatches issued.
    pub coalesced_dispatches: Counter,
    /// Prediction-cache hits / misses / entries flushed by invalidation.
    pub prediction_cache_hits: Counter,
    pub prediction_cache_misses: Counter,
    pub prediction_cache_invalidations: Counter,
    // ---- pushdown scan tier -------------------------------------------
    /// Queries that ran with a pushdown scan spec (WHERE / COLUMNS).
    pub scan_queries: Counter,
    /// Pages zone-map-pruned without a fetch, across all pushdown scans.
    pub scan_pages_skipped: Counter,
    /// Reconstructed page bytes the decompressor produced.
    pub scan_bytes_decompressed: Counter,
    /// Rows in the scanned ranges before filtering (the selectivity
    /// denominator).
    pub scan_rows_considered: Counter,
    /// Rows that survived predicates and reached the engine.
    pub scan_rows_emitted: Counter,
    /// Raw vs. compressed sidecar bytes behind those scans (the
    /// compression-ratio numerator and denominator).
    pub scan_raw_bytes: Counter,
    pub scan_compressed_bytes: Counter,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Folds the registry into snapshot rows, tagged by subsystem.
    pub fn snapshot_into(&self, out: &mut Vec<StatEntry>) {
        let hist = |out: &mut Vec<StatEntry>, subsystem: &str, prefix: &str, h: &Histogram| {
            let s = h.snapshot();
            out.push(StatEntry::new(
                subsystem,
                format!("{prefix}_count"),
                s.count as f64,
            ));
            out.push(StatEntry::new(
                subsystem,
                format!("{prefix}_mean_s"),
                s.mean_seconds,
            ));
            out.push(StatEntry::new(
                subsystem,
                format!("{prefix}_p50_s"),
                s.p50_seconds,
            ));
            out.push(StatEntry::new(
                subsystem,
                format!("{prefix}_p95_s"),
                s.p95_seconds,
            ));
            out.push(StatEntry::new(
                subsystem,
                format!("{prefix}_p99_s"),
                s.p99_seconds,
            ));
            out.push(StatEntry::new(
                subsystem,
                format!("{prefix}_max_s"),
                s.max_seconds,
            ));
        };
        hist(out, "admission", "wait", &self.admission_wait);
        hist(out, "pool", "lease_wait", &self.lease_wait);
        hist(out, "engine", "exec_wall", &self.exec_wall);
        out.push(StatEntry::new(
            "engine",
            "queries_completed",
            self.queries_completed.get() as f64,
        ));
        out.push(StatEntry::new(
            "engine",
            "queries_failed",
            self.queries_failed.get() as f64,
        ));
        out.push(StatEntry::new(
            "engine",
            "fpga_queries",
            self.fpga_queries.get() as f64,
        ));
        out.push(StatEntry::new(
            "engine",
            "cpu_queries",
            self.cpu_queries.get() as f64,
        ));
        out.push(StatEntry::new(
            "engine",
            "epochs_run",
            self.epochs_run.get() as f64,
        ));
        out.push(StatEntry::new(
            "engine",
            "staleness_invalidations",
            self.staleness_invalidations.get() as f64,
        ));
        let faults: &[(&str, &Counter)] = &[
            ("transient_faults", &self.transient_faults),
            ("retries", &self.fault_retries),
            ("deadline_exceeded", &self.deadline_exceeded),
            ("gang_member_faults", &self.gang_member_faults),
            ("panics_caught", &self.panics_caught),
        ];
        for (name, c) in faults {
            out.push(StatEntry::new("faults", *name, c.get() as f64));
        }
        hist(out, "serving", "point_latency", &self.point_latency);
        hist(out, "serving", "batch_occupancy", &self.batch_occupancy);
        let serving: &[(&str, &Counter)] = &[
            ("point_queries", &self.point_queries),
            ("coalesced_dispatches", &self.coalesced_dispatches),
            ("cache_hits", &self.prediction_cache_hits),
            ("cache_misses", &self.prediction_cache_misses),
            ("cache_invalidations", &self.prediction_cache_invalidations),
        ];
        for (name, c) in serving {
            out.push(StatEntry::new("serving", *name, c.get() as f64));
        }
        let scan: &[(&str, &Counter)] = &[
            ("queries", &self.scan_queries),
            ("pages_skipped", &self.scan_pages_skipped),
            ("bytes_decompressed", &self.scan_bytes_decompressed),
            ("rows_considered", &self.scan_rows_considered),
            ("rows_emitted", &self.scan_rows_emitted),
            ("raw_bytes", &self.scan_raw_bytes),
            ("compressed_bytes", &self.scan_compressed_bytes),
        ];
        for (name, c) in scan {
            out.push(StatEntry::new("scan", *name, c.get() as f64));
        }
        // Derived gauges, guarded against empty denominators.
        let compressed = self.scan_compressed_bytes.get();
        out.push(StatEntry::new(
            "scan",
            "compression_ratio",
            if compressed == 0 {
                0.0
            } else {
                self.scan_raw_bytes.get() as f64 / compressed as f64
            },
        ));
        let considered = self.scan_rows_considered.get();
        out.push(StatEntry::new(
            "scan",
            "selectivity",
            if considered == 0 {
                0.0
            } else {
                self.scan_rows_emitted.get() as f64 / considered as f64
            },
        ));
    }
}

/// One `SHOW STATS` row: `(subsystem, name, value)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatEntry {
    pub subsystem: String,
    pub name: String,
    pub value: f64,
}

impl StatEntry {
    pub fn new(subsystem: &str, name: impl Into<String>, value: f64) -> StatEntry {
        StatEntry {
            subsystem: subsystem.to_string(),
            name: name.into(),
            value,
        }
    }
}

/// The registry snapshot `SHOW STATS` returns: a flat result table of
/// `(subsystem, name, value)` rows.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    pub entries: Vec<StatEntry>,
}

impl StatsSnapshot {
    pub fn new(entries: Vec<StatEntry>) -> StatsSnapshot {
        StatsSnapshot { entries }
    }

    /// The rows of one subsystem only.
    pub fn filtered(&self, subsystem: &str) -> StatsSnapshot {
        StatsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|e| e.subsystem == subsystem)
                .cloned()
                .collect(),
        }
    }

    /// Looks up one gauge/counter value.
    pub fn get(&self, subsystem: &str, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.subsystem == subsystem && e.name == name)
            .map(|e| e.value)
    }

    /// Renders the snapshot as an aligned result table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let sub_w = self
            .entries
            .iter()
            .map(|e| e.subsystem.len())
            .chain(["subsystem".len()])
            .max()
            .unwrap_or(9);
        let name_w = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .chain(["name".len()])
            .max()
            .unwrap_or(4);
        out.push_str(&format!(
            "{:<sub_w$}  {:<name_w$}  value\n",
            "subsystem", "name"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<sub_w$}  {:<name_w$}  {}\n",
                e.subsystem,
                e.name,
                format_value(e.value)
            ));
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_quantiles_within_bucket_resolution() {
        let h = Histogram::new();
        // 1..=1000 ms, uniformly.
        for ms in 1..=1000u64 {
            h.record(ms as f64 / 1e3);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // Log-bucket resolution is 1/16 ≈ 6.3%; allow 8%.
        let close = |got: f64, want: f64| (got - want).abs() <= want * 0.08;
        assert!(close(s.p50_seconds, 0.500), "p50 = {}", s.p50_seconds);
        assert!(close(s.p95_seconds, 0.950), "p95 = {}", s.p95_seconds);
        assert!(close(s.p99_seconds, 0.990), "p99 = {}", s.p99_seconds);
        assert!(close(s.mean_seconds, 0.5005), "mean = {}", s.mean_seconds);
        assert!(close(s.max_seconds, 1.0), "max = {}", s.max_seconds);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::new();
        for us in [1u64, 2, 3, 10] {
            h.record(us as f64 / 1e6);
        }
        assert_eq!(h.quantile(0.5), 2.0 / 1e6);
        assert_eq!(h.quantile(1.0), 10.0 / 1e6);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_seconds, 0.0);
        assert_eq!(s.mean_seconds, 0.0);
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0;
        for micros in (0..1_000_000u64).step_by(997) {
            let idx = Histogram::index(micros);
            assert!(idx >= last, "index must not decrease at {micros}");
            last = idx;
            assert!(idx < BUCKETS);
        }
    }

    #[test]
    fn registry_snapshot_tags_subsystems() {
        let r = MetricsRegistry::new();
        r.epochs_run.add(25);
        r.fpga_queries.inc();
        r.admission_wait.record(0.002);
        let mut entries = Vec::new();
        r.snapshot_into(&mut entries);
        let snap = StatsSnapshot::new(entries);
        assert_eq!(snap.get("engine", "epochs_run"), Some(25.0));
        assert_eq!(snap.get("engine", "fpga_queries"), Some(1.0));
        assert_eq!(snap.get("admission", "wait_count"), Some(1.0));
        assert_eq!(snap.get("admission", "nope"), None);
        let filtered = snap.filtered("admission");
        assert!(filtered.entries.iter().all(|e| e.subsystem == "admission"));
        assert!(!filtered.entries.is_empty());
        let table = snap.render_table();
        assert!(table.contains("epochs_run"), "table:\n{table}");
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let snap = StatsSnapshot::new(vec![
            StatEntry::new("pool", "utilization", 0.5),
            StatEntry::new("admission", "depth", 3.0),
        ]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
