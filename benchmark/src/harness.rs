//! The front door as a client sees it, plus the few process-level
//! measurements (peak RSS, table digests) every workload shares.

use std::sync::Arc;
use std::time::Instant;

use dana::prelude::{DiskModel, FpgaSpec};
use dana::StatsSnapshot;
use dana_server::{
    DanaServer, QueryReply, QueryRequest, QueryResponse, ServerConfig, SessionId, SystemCoreConfig,
};
use dana_storage::{BufferPoolConfig, BufferPoolStats, HeapFile};

use crate::gen::PAGE;

/// Accelerator instances and worker threads of every benchmark server —
/// fixed at the sandbox's core count so shard and lease behaviour does not
/// depend on where the benchmark runs.
pub const ACCELERATORS: usize = 2;

/// One server and one client session on it.
#[derive(Clone)]
pub struct Front {
    pub srv: Arc<DanaServer>,
    pub session: SessionId,
    pub config: SystemCoreConfig,
}

impl Front {
    /// The replay builds its own pool and models from the same `config`.
    pub fn start(pool_bytes: u64) -> Front {
        let config = SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig {
                pool_bytes,
                page_size: PAGE,
            },
            pool_shards: dana_storage::shared_pool::DEFAULT_SHARDS,
            disk: DiskModel::ssd(),
        };
        let srv = Arc::new(DanaServer::start(ServerConfig {
            accelerators: ACCELERATORS,
            workers: ACCELERATORS,
            admission: Default::default(),
            core: config,
            default_timeout_ms: None,
        }));
        let session = srv.open_session("bench");
        Front {
            srv,
            session,
            config,
        }
    }

    /// One statement through `DanaServer::call`, with the wall seconds
    /// the client waited.
    pub fn sql(&self, sql: &str) -> Result<(QueryReply, f64), String> {
        let start = Instant::now();
        let reply = self
            .srv
            .call(self.session, QueryRequest::Sql(sql.to_string()));
        let wall = start.elapsed().as_secs_f64();
        reply.map(|r| (r, wall)).map_err(|e| e.to_string())
    }

    /// [`Front::sql`] for set-up statements, which must succeed.
    pub fn must(&self, sql: &str) -> QueryReply {
        match self.sql(sql) {
            Ok((reply, _)) => reply,
            Err(e) => panic!("set-up statement `{sql}` failed: {e}"),
        }
    }

    /// Runs a set-up statement and returns the expectation its reply sets
    /// for measured statements; a prediction table it materialized is
    /// digested and dropped.
    pub fn reference(&self, sql: &str) -> Expect {
        let reply = self.must(sql);
        let expect = Expect::from_reply(self, &reply)
            .unwrap_or_else(|| panic!("no output check for the reply to `{sql}`"));
        if let QueryResponse::Predicted(p) = &reply.response {
            self.srv
                .drop_table(&p.output_table)
                .expect("reference prediction table");
        }
        expect
    }
}

/// What a measured statement must reproduce, taken from a reference reply
/// in set-up. Comparisons are bit-exact.
#[derive(Clone, PartialEq)]
pub enum Expect {
    Models(Vec<Vec<u32>>),
    Eval { value_bits: u64, rows: u64 },
    Table { digest: u64, rows: u64 },
}

impl Expect {
    /// What `reply` answered, in comparable form (`None` for replies that
    /// carry no checked output).
    pub fn from_reply(front: &Front, reply: &QueryReply) -> Option<Expect> {
        match &reply.response {
            QueryResponse::Trained(r) => Some(Expect::Models(model_bits(&r.models))),
            QueryResponse::Evaluated(e) => Some(Expect::Eval {
                value_bits: e.value.to_bits(),
                rows: e.rows_scored,
            }),
            QueryResponse::Predicted(p) => Some(Expect::Table {
                digest: table_digest(front, &p.output_table),
                rows: p.rows_scored,
            }),
            _ => None,
        }
    }

    /// Whether `reply` reproduces the expectation.
    pub fn holds(&self, front: &Front, reply: &QueryReply) -> bool {
        Expect::from_reply(front, reply).as_ref() == Some(self)
    }
}

fn model_bits(models: &[Vec<f32>]) -> Vec<Vec<u32>> {
    models
        .iter()
        .map(|m| m.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn table_digest(front: &Front, table: &str) -> u64 {
    let heap = front
        .srv
        .core()
        .table_snapshot(table)
        .unwrap_or_else(|e| panic!("prediction table `{table}` is missing: {e}"));
    heap_digest(&heap)
}

/// A digest of every page byte of `heap` (FNV-1a over 8-byte words).
pub fn heap_digest(heap: &HeapFile) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ heap.tuple_count();
    for page_no in 0..heap.page_count() {
        let bytes = heap.page_bytes(page_no).expect("page within the heap");
        for word in bytes.chunks_exact(8) {
            h ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The named row of a `stats_snapshot`, or 0.
pub fn stat(snapshot: &StatsSnapshot, name: &str) -> f64 {
    snapshot
        .entries
        .iter()
        .find(|e| e.name == name)
        .map_or(0.0, |e| e.value)
}

/// Reads the server pool's counters in laps, across `clear_cache` calls
/// (which reset them).
pub struct PoolMeter {
    pending: BufferPoolStats,
    base: BufferPoolStats,
}

impl PoolMeter {
    pub fn start(front: &Front) -> PoolMeter {
        PoolMeter {
            pending: BufferPoolStats::default(),
            base: front.srv.core().pool_stats(),
        }
    }

    fn bank(&mut self, front: &Front) {
        let now = front.srv.core().pool_stats();
        self.pending.hits += now.hits - self.base.hits;
        self.pending.misses += now.misses - self.base.misses;
        self.pending.evictions += now.evictions - self.base.evictions;
        self.pending.io_seconds += now.io_seconds - self.base.io_seconds;
        self.base = now;
    }

    /// Drops every cached page (callers leave this untimed), keeping the
    /// counters the clear is about to reset.
    pub fn clear_cache(&mut self, front: &Front) {
        self.bank(front);
        front.srv.core().clear_cache();
        self.base = BufferPoolStats::default();
    }

    /// Counters since the previous lap (or the start).
    pub fn lap(&mut self, front: &Front) -> BufferPoolStats {
        self.bank(front);
        std::mem::take(&mut self.pending)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
