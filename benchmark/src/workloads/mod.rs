//! The four workloads, and the cycle runner the three statement
//! workloads share. A *cycle* is a fixed list of SQL statements through
//! `DanaServer::call`; the run's length decides only how many cycles are
//! measured, so everything reported per cycle (simulated seconds, engine
//! cycles, evictions) repeats exactly for one seed however long the run.

pub mod gang_cold;
pub mod scan_pushdown;
pub mod serve_mixed;
pub mod train_public;

use std::time::Instant;

use dana::{parse_statement, DanaTiming};
use dana_server::{QueryReply, QueryResponse};
use dana_storage::BufferPoolStats;

use crate::harness::{peak_rss_mib, Expect, Front, PoolMeter};
use crate::record::{Metrics, Outcome};
use crate::span::Tracer;
use crate::stats::{median, tail};
use crate::{catalogue, RunConfig};

/// Set-ups per plain run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and for a workload whose set-up takes milliseconds as
/// many more (up to `MAX_SETUPS`) as fit in `SETUP_FILL_S`, so that a
/// short set-up's median is no noisier than a long one's.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_FILL_S: f64 = 1.0;
/// Cycles (or retrain intervals) a smoke run measures.
pub const SMOKE_CYCLES: usize = 2;
/// Cycles a traced run replays stage by stage.
const REPLAY_CYCLES: usize = 3;

/// One statement of a cycle.
pub struct Stmt {
    /// Suffix of this statement's `server.call_p50_ms.<key>` metric.
    pub key: &'static str,
    pub sql: String,
    /// Rows the statement answers for: table rows × epochs for EXECUTE,
    /// table rows for PREDICT/EVALUATE (filtered or not).
    pub rows: u64,
    pub expect: Expect,
    /// Prediction table to drop (untimed) once the output is checked.
    pub drop_after: Option<&'static str>,
}

/// A workload that is set up: a server, its cycle, and whether every
/// statement starts from an empty buffer pool.
pub struct StatementBench {
    pub front: Front,
    pub cycle: Vec<Stmt>,
    pub cold: bool,
}

/// The simulated clock's slots, summed over the statements of one cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimParts {
    pub io: f64,
    pub axi: f64,
    pub strider: f64,
    pub decompress: f64,
    pub engine: f64,
    pub setup: f64,
    pub total: f64,
    pub engine_cycles: u64,
}

impl SimParts {
    pub fn add(&mut self, timing: &DanaTiming, engine_cycles: u64) {
        self.io += timing.io_seconds;
        self.axi += timing.axi_seconds;
        self.strider += timing.strider_seconds;
        self.decompress += timing.decompress_seconds;
        self.engine += timing.engine_seconds;
        self.setup += timing.setup_seconds;
        self.total += timing.total_seconds;
        self.engine_cycles += engine_cycles;
    }
}

fn sim_parts_of(response: &QueryResponse) -> Option<(&DanaTiming, u64)> {
    match response {
        QueryResponse::Trained(r) => Some((&r.timing, r.engine.cycles)),
        QueryResponse::Predicted(p) => Some((&p.timing, p.scoring.cycles)),
        QueryResponse::Evaluated(e) => Some((&e.timing, e.scoring.cycles)),
        _ => None,
    }
}

/// Everything measured over a run of cycles.
#[derive(Default)]
pub struct Phase {
    /// Client-observed wall seconds per cycle (statements only: cache
    /// clears, output checks and drops between them are untimed).
    pub cycle_walls: Vec<f64>,
    /// Whether the cycle's calls were made under a span.
    pub cycle_traced: Vec<bool>,
    pub cycle_sims: Vec<SimParts>,
    pub cycle_pool: Vec<BufferPoolStats>,
    /// Wall and simulated seconds per statement, indexed like the cycle.
    pub stmt_walls: Vec<Vec<f64>>,
    pub stmt_sims: Vec<Vec<f64>>,
    pub queue_waits: Vec<f64>,
    pub drop_walls: Vec<f64>,
    pub rows: u64,
    pub attempted: u64,
    pub failed: u64,
    pub phase_s: f64,
}

impl Phase {
    pub fn stmt_wall_p50(&self, bench: &StatementBench, key: &str) -> f64 {
        median(&self.stmt_walls[stmt_index(bench, key)])
    }

    pub fn stmt_sim_p50(&self, bench: &StatementBench, key: &str) -> f64 {
        median(&self.stmt_sims[stmt_index(bench, key)])
    }

    fn sim_median(&self, field: impl Fn(&SimParts) -> f64) -> f64 {
        median(&self.cycle_sims.iter().map(field).collect::<Vec<_>>())
    }
}

fn stmt_index(bench: &StatementBench, key: &str) -> usize {
    bench
        .cycle
        .iter()
        .position(|s| s.key == key)
        .unwrap_or_else(|| panic!("no statement `{key}` in the cycle"))
}

/// How long a phase measures.
#[derive(Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Cycles(usize),
}

impl Budget {
    pub fn of(cfg: &RunConfig, share: f64) -> Budget {
        if cfg.smoke {
            Budget::Cycles(SMOKE_CYCLES)
        } else {
            Budget::Seconds(cfg.seconds * share)
        }
    }
}

/// Runs one unmeasured warm-up cycle, then measured cycles until the
/// budget is spent. With an enabled tracer every other cycle's calls are
/// made under a `server.call` span; the rest are the untraced twin that
/// `bench.trace_overhead_share` compares against.
pub fn run_cycles(bench: &StatementBench, budget: Budget, tracer: &mut Tracer) -> Phase {
    let front = &bench.front;
    let mut phase = Phase {
        stmt_walls: vec![Vec::new(); bench.cycle.len()],
        stmt_sims: vec![Vec::new(); bench.cycle.len()],
        ..Phase::default()
    };
    let mut pool = PoolMeter::start(front);
    let mut start = Instant::now();
    for cycle_no in 0.. {
        let measured = cycle_no > 0;
        if cycle_no == 1 {
            pool.lap(front);
            start = Instant::now();
        }
        let done = match budget {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Budget::Cycles(n) => cycle_no > n,
        };
        // At least one measured cycle, whatever the budget.
        if done && cycle_no > 1 {
            break;
        }
        let traced = tracer.is_enabled() && cycle_no % 2 == 1;
        tracer.next_op();
        let mut wall = 0.0;
        let mut sims = SimParts::default();
        for (i, stmt) in bench.cycle.iter().enumerate() {
            if bench.cold {
                pool.clear_cache(front);
            }
            let result = if traced {
                tracer.span("server.call", |_| front.sql(&stmt.sql))
            } else {
                front.sql(&stmt.sql)
            };
            judge(&mut phase, front, stmt, &result);
            if let (true, Ok((reply, stmt_wall))) = (measured, &result) {
                wall += stmt_wall;
                phase.rows += stmt.rows;
                phase.stmt_walls[i].push(*stmt_wall);
                phase.stmt_sims[i].push(reply.response.sim_seconds());
                phase.queue_waits.push(reply.queue_seconds);
                if let Some((timing, cycles)) = sim_parts_of(&reply.response) {
                    sims.add(timing, cycles);
                }
            }
            if let (Some(table), Ok(_)) = (stmt.drop_after, &result) {
                let drop_start = Instant::now();
                front
                    .srv
                    .drop_table(table)
                    .unwrap_or_else(|e| panic!("dropping `{table}`: {e}"));
                if measured {
                    phase.drop_walls.push(drop_start.elapsed().as_secs_f64());
                }
            }
        }
        if measured {
            phase.cycle_walls.push(wall);
            phase.cycle_traced.push(traced);
            phase.cycle_sims.push(sims);
            phase.cycle_pool.push(pool.lap(front));
        }
    }
    phase.phase_s = start.elapsed().as_secs_f64();
    phase
}

/// Counts one attempted statement, and as failed unless it replied and
/// the reply reproduces the statement's expectation.
fn judge(
    phase: &mut Phase,
    front: &Front,
    stmt: &Stmt,
    result: &Result<(QueryReply, f64), String>,
) {
    phase.attempted += 1;
    let problem = match result {
        Ok((reply, _)) if stmt.expect.holds(front, reply) => return,
        Ok(_) => "failed its output check".to_string(),
        Err(e) => format!("failed: {e}"),
    };
    eprintln!("statement `{}` {problem}", stmt.sql);
    phase.failed += 1;
}

/// The end-to-end metrics of a statement workload's plain run.
fn end_to_end(phase: &Phase, setup_s: f64) -> Metrics {
    let mut m = Metrics::new(catalogue::END_TO_END);
    m.set("setup_s", setup_s);
    let cycle_wall = median(&phase.cycle_walls);
    m.set("op_wall_p50_ms", cycle_wall * 1e3);
    // Rows of one cycle over the median cycle, not total rows over total
    // wall: on a shared host a burst of interference stretches a few
    // cycles by a third, which a mean carries into the result and a
    // median does not.
    let cycle_rows = phase.rows as f64 / phase.cycle_walls.len() as f64;
    m.set("wall_rows_per_s", cycle_rows / cycle_wall);
    m.set("sim_s_per_cycle", phase.sim_median(|s| s.total));
    m.set("peak_rss_mb", peak_rss_mib());
    m
}

/// Sets a workload up several times (once in smoke runs), keeping the
/// last; returns it with the median set-up seconds.
pub fn timed_setups<B>(cfg: &RunConfig, setup: impl Fn(&mut Tracer) -> B) -> (B, f64) {
    let mut walls: Vec<f64> = Vec::new();
    let mut bench = None;
    loop {
        // The previous server goes first, so set-ups don't stack in memory.
        drop(bench.take());
        let start = Instant::now();
        bench = Some(setup(&mut Tracer::new(false)));
        walls.push(start.elapsed().as_secs_f64());
        let filled = walls.iter().sum::<f64>() >= SETUP_FILL_S || walls.len() >= MAX_SETUPS;
        if cfg.smoke || (walls.len() >= MIN_SETUPS && filled) {
            break;
        }
    }
    (bench.expect("at least one set-up"), median(&walls))
}

/// A statement workload's plain (`--trace 0`) run.
pub fn plain_run(
    cfg: &RunConfig,
    setup: impl Fn(&mut Tracer) -> StatementBench,
    checks: impl FnOnce(&StatementBench) -> Vec<Stmt>,
) -> Outcome {
    let (bench, setup_s) = timed_setups(cfg, setup);
    let mut phase = run_cycles(&bench, Budget::of(cfg, 1.0), &mut Tracer::new(false));
    for stmt in checks(&bench) {
        judge(&mut phase, &bench.front, &stmt, &bench.front.sql(&stmt.sql));
    }
    Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: end_to_end(&phase, setup_s),
        ops: vec![("cycles", phase.cycle_walls.len() as u64)],
    }
}

/// Replay cycles of a traced run.
pub fn replay_cycles(cfg: &RunConfig) -> usize {
    if cfg.smoke {
        1
    } else {
        REPLAY_CYCLES
    }
}

/// Self seconds of the spans named `name` summed over one operation
/// (one replayed cycle): the median over operations.
pub fn self_p50(tracer: &Tracer, name: &str) -> f64 {
    let sums: Vec<f64> = tracer
        .self_seconds_per_op(name)
        .iter()
        .map(|(s, _)| *s)
        .collect();
    median(&sums)
}

/// Mean self seconds of one span named `name`: the median over
/// operations of each operation's mean.
pub fn self_mean_p50(tracer: &Tracer, name: &str) -> f64 {
    let means: Vec<f64> = tracer
        .self_seconds_per_op(name)
        .iter()
        .map(|(s, n)| s / *n as f64)
        .collect();
    median(&means)
}

/// Set-up stages the benchmark put a span around (0 where a workload's
/// set-up has no such stage).
pub fn setup_stage_metrics(tracer: &Tracer, m: &mut Metrics) {
    for (name, span) in [
        ("workloads.generate_ms", "workloads.generate"),
        ("compiler.deploy_ms", "compiler.deploy"),
        ("storage.heap_build_ms", "storage.heap_build"),
    ] {
        m.set(name, self_p50(tracer, span) * 1e3);
    }
}

/// The layer metrics every statement workload reads off its traced
/// front-door phase: per-statement medians, the simulated clock's slots
/// per cycle, pool counters, and the benchmark's own numbers.
pub fn front_door_metrics(bench: &StatementBench, phase: &Phase, m: &mut Metrics) {
    for (stmt, walls) in bench.cycle.iter().zip(&phase.stmt_walls) {
        m.set(
            &format!("server.call_p50_ms.{}", stmt.key),
            median(walls) * 1e3,
        );
    }
    m.set("server.admission_wait_us", median(&phase.queue_waits) * 1e6);
    m.set("storage.drop_table_ms", median(&phase.drop_walls) * 1e3);
    m.set("storage.io_sim_s", phase.sim_median(|s| s.io));
    m.set("strider.sim_s", phase.sim_median(|s| s.strider));
    m.set("engine.sim_s", phase.sim_median(|s| s.engine));
    m.set(
        "engine.cycles",
        phase.sim_median(|s| s.engine_cycles as f64),
    );
    m.set("fpga.axi_sim_s", phase.sim_median(|s| s.axi));
    m.set("fpga.setup_sim_s", phase.sim_median(|s| s.setup));
    m.set("scan.decompress_sim_s", phase.sim_median(|s| s.decompress));

    let hits: u64 = phase.cycle_pool.iter().map(|p| p.hits).sum();
    let misses: u64 = phase.cycle_pool.iter().map(|p| p.misses).sum();
    m.set(
        "storage.pool_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let evictions: Vec<f64> = phase
        .cycle_pool
        .iter()
        .map(|p| p.evictions as f64)
        .collect();
    m.set("storage.evictions", median(&evictions));

    m.set("bench.op_wall_tail_ms", tail(&phase.cycle_walls).0 * 1e3);
    m.set("bench.op_samples", phase.cycle_walls.len() as f64);
    m.set("bench.phase_s", phase.phase_s);
    let walls_where = |traced: bool| -> Vec<f64> {
        phase
            .cycle_walls
            .iter()
            .zip(&phase.cycle_traced)
            .filter(|(_, t)| **t == traced)
            .map(|(w, _)| *w)
            .collect()
    };
    m.set(
        "bench.trace_overhead_share",
        median(&walls_where(true)) / median(&walls_where(false)) - 1.0,
    );
}

/// Calls of the front door's fixed costs a traced run samples.
const FIXED_COST_SAMPLES: usize = 50;

/// `server.frontdoor_us`: the median `call` of an `EXPLAIN` — parse,
/// admission, hand-off to a worker and reply, with nothing executed —
/// and `core.parse_statement_us`, the median parse of a cycle statement.
pub fn fixed_cost_metrics(bench: &StatementBench, m: &mut Metrics) {
    let explain = format!("EXPLAIN {}", bench.cycle[0].sql);
    let calls: Vec<f64> = (0..FIXED_COST_SAMPLES)
        .filter_map(|_| bench.front.sql(&explain).ok())
        .map(|(_, wall)| wall)
        .collect();
    m.set("server.frontdoor_us", median(&calls) * 1e6);
    let parses: Vec<f64> = bench
        .cycle
        .iter()
        .flat_map(|stmt| {
            (0..FIXED_COST_SAMPLES).map(|_| {
                let start = Instant::now();
                std::hint::black_box(parse_statement(std::hint::black_box(&stmt.sql)).is_ok());
                start.elapsed().as_secs_f64()
            })
        })
        .collect();
    m.set("core.parse_statement_us", median(&parses) * 1e6);
}

/// `core.unattributed_share`: the part of the cycle's front-door wall
/// that replaying every statement's stages does not account for — the
/// glue (source replay caching, report assembly, thread spawn, copies)
/// no layer owns. A statement's replay is the root span named by its key.
pub fn unattributed_share(bench: &StatementBench, phase: &Phase, tracer: &Tracer) -> f64 {
    let call: f64 = phase.stmt_walls.iter().map(|w| median(w)).sum();
    let replayed: f64 = bench
        .cycle
        .iter()
        .map(|stmt| {
            let walls: Vec<f64> = tracer
                .spans()
                .iter()
                .filter(|s| s.parent.is_none() && s.name == stmt.key)
                .map(|s| s.duration_ns() as f64 * 1e-9)
                .collect();
            median(&walls)
        })
        .sum();
    (call - replayed) / call
}
