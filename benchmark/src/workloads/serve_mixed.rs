//! `serve_mixed` — the online tier under a write: two closed-loop clients
//! send single-row requests through `ServeTier::with_defaults` (as
//! shipped: 500 µs coalescing window, 4096-entry cache) over a 16-feature
//! logistic model, rows drawn by a seeded xorshift from 16 384 distinct
//! keys, so the steady cache hit rate stays near 0.2 and the median sits
//! on the miss path. Client 0 also retrains the model every 2 500 of its
//! requests — the write beside the reads: it bumps the model generation,
//! invalidates the cache, and competes as a Batch statement against
//! Interactive admission. A *cycle* is one retrain interval. This is the
//! one workload where `serve`, `server` admission/dispatch and `core`
//! parsing dominate and nothing is scanned per request; a point-path gain
//! that starves or slows retraining shows in the retrain statement.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dana_infer::score_batch;
use dana_serve::{CacheConfig, CacheLookup, PredictionCache, ServeTier};
use dana_server::{QueryRequest, QueryResponse};
use dana_storage::TupleBatch;

use crate::gen::{build_heap, jittered_rows, serve_rows, XorShift};
use crate::harness::{peak_rss_mib, stat, Expect, Front};
use crate::record::{Metrics, Outcome};
use crate::replay::Replay;
use crate::span::Tracer;
use crate::stats::{median, tail};
use crate::workloads::train_public::WARM_POOL_BYTES;
use crate::workloads::{self_p50, setup_stage_metrics, timed_setups, SimParts, SMOKE_CYCLES};
use crate::{catalogue, RunConfig};

const ROWS: u64 = 20_000;
const FEATURES: usize = 16;
const WIDTH: usize = FEATURES + 1;
const KEYS: u64 = 16_384;
const CLIENTS: u64 = 2;
const TABLE: &str = "events";
const UDF: &str = "scorer";
const RETRAIN_SQL: &str = "EXECUTE dana.scorer('events');";
/// Client 0's requests between two retrains.
const RETRAIN_EVERY: u64 = 2_500;
/// The same in smoke runs (two cycles of two clients ≈ 2 000 requests).
const SMOKE_RETRAIN_EVERY: u64 = 500;
/// Calls a traced run samples of each fixed cost.
const FIXED_COST_SAMPLES: usize = 200;

pub struct ServeBench {
    front: Front,
    tier: ServeTier,
    /// The distinct request rows (features only).
    keys: Vec<Vec<f32>>,
    /// Bit pattern of each key's prediction, computed in set-up.
    expected: Vec<u32>,
    /// Every retrain trains on the same table, so reproduces this model.
    retrain: Expect,
}

pub fn setup(seed: u64, tracer: &mut Tracer) -> ServeBench {
    let front = Front::start(WARM_POOL_BYTES);
    let n = jittered_rows(ROWS, seed) as usize;
    let rows = serve_rows(seed, n, FEATURES);
    let heap = tracer.span("storage.heap_build", |_| build_heap(&rows, WIDTH));
    front
        .srv
        .create_table(TABLE, heap)
        .expect("fresh table name");
    front.srv.prewarm(TABLE).expect("table just created");
    let spec = dana_dsl::zoo::logistic_regression(dana_dsl::zoo::DenseParams {
        n_features: FEATURES,
        learning_rate: 0.2,
        merge_coef: 8,
        epochs: 2,
    })
    .map(|mut spec| {
        spec.name = UDF.to_string();
        spec
    })
    .expect("zoo spec");
    tracer
        .span("compiler.deploy", |_| front.srv.deploy(&spec, TABLE))
        .expect("deploying the UDF");
    let retrain = front.reference(RETRAIN_SQL);

    let tier = ServeTier::with_defaults(Arc::clone(&front.srv));
    let keys: Vec<Vec<f32>> = rows
        .chunks_exact(WIDTH)
        .take(KEYS as usize)
        .map(|row| row[..FEATURES].to_vec())
        .collect();
    let expected = tier
        .predict_rows(front.session, UDF, keys.clone())
        .expect("scoring every key once")
        .iter()
        .map(|p| p.to_bits())
        .collect();
    ServeBench {
        front,
        tier,
        keys,
        expected,
        retrain,
    }
}

/// One point request as a client saw it.
struct PointSample {
    wall: f64,
    cached: bool,
    /// Whether the request was made under a span.
    traced: bool,
}

#[derive(Default)]
struct ServePhase {
    points: Vec<PointSample>,
    retrain_walls: Vec<f64>,
    retrain_waits: Vec<f64>,
    retrain_sims: Vec<SimParts>,
    attempted: u64,
    failed: u64,
    phase_s: f64,
}

impl ServePhase {
    /// Folds in another client's view of the same phase (only client 0
    /// has retrains and a measured phase length).
    fn absorb(&mut self, other: ServePhase) {
        self.points.extend(other.points);
        self.retrain_walls.extend(other.retrain_walls);
        self.retrain_waits.extend(other.retrain_waits);
        self.retrain_sims.extend(other.retrain_sims);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.phase_s = self.phase_s.max(other.phase_s);
    }

    fn point_walls(&self, keep: impl Fn(&PointSample) -> bool) -> Vec<f64> {
        self.points
            .iter()
            .filter(|p| keep(p))
            .map(|p| p.wall)
            .collect()
    }
}

/// How a phase of cycles ends: after `cycles` (smoke) or once `seconds`
/// have passed at the end of a cycle.
#[derive(Clone, Copy)]
struct Until {
    seconds: f64,
    cycles: Option<usize>,
    retrain_every: u64,
}

impl Until {
    fn of(cfg: &RunConfig, share: f64) -> Until {
        Until {
            seconds: cfg.seconds * share,
            cycles: cfg.smoke.then_some(SMOKE_CYCLES),
            retrain_every: if cfg.smoke {
                SMOKE_RETRAIN_EVERY
            } else {
                RETRAIN_EVERY
            },
        }
    }
}

/// Shared between the clients: client 0 ends the warm-up cycle, flips
/// span recording each cycle, and ends the phase.
#[derive(Default)]
struct Signals {
    measuring: AtomicBool,
    tracing: AtomicBool,
    stop: AtomicBool,
}

/// One closed-loop client. Client 0 is the one that retrains.
fn client(
    bench: &ServeBench,
    id: u64,
    seed: u64,
    until: Until,
    signals: &Signals,
    mut tracer: Tracer,
) -> (ServePhase, Tracer) {
    let srv = &bench.front.srv;
    let session = srv.open_session(&format!("client-{id}"));
    let mut rng = XorShift::new(seed, 0xC11E + id);
    let mut phase = ServePhase::default();
    let mut start = Instant::now();
    let mut since_retrain = 0;
    let mut cycles = 0;
    while !signals.stop.load(Ordering::Relaxed) {
        let key = rng.below(KEYS) as usize;
        let measuring = signals.measuring.load(Ordering::Relaxed);
        let traced = tracer.is_enabled() && signals.tracing.load(Ordering::Relaxed);
        let request = || {
            let at = Instant::now();
            let reply = bench.tier.predict_point(session, UDF, &bench.keys[key]);
            (reply, at.elapsed().as_secs_f64())
        };
        let (reply, wall) = if traced {
            tracer.span("serve.predict_point", |_| request())
        } else {
            request()
        };
        phase.attempted += 1;
        match reply {
            Ok(r) => {
                phase.failed += (r.prediction.to_bits() != bench.expected[key]) as u64;
                if measuring {
                    phase.points.push(PointSample {
                        wall,
                        cached: r.cached,
                        traced,
                    });
                }
            }
            Err(e) => {
                eprintln!("point request failed: {e}");
                phase.failed += 1;
            }
        }
        since_retrain += 1;
        if id != 0 || since_retrain < until.retrain_every {
            continue;
        }
        since_retrain = 0;
        phase.attempted += 1;
        let at = Instant::now();
        let reply = srv.call(session, QueryRequest::Sql(RETRAIN_SQL.to_string()));
        let wall = at.elapsed().as_secs_f64();
        match reply {
            Ok(reply) => {
                phase.failed += !bench.retrain.holds(&bench.front, &reply) as u64;
                if let (true, QueryResponse::Trained(r)) = (measuring, &reply.response) {
                    phase.retrain_walls.push(wall);
                    phase.retrain_waits.push(reply.queue_seconds);
                    let mut sims = SimParts::default();
                    sims.add(&r.timing, r.engine.cycles);
                    phase.retrain_sims.push(sims);
                }
            }
            Err(e) => {
                eprintln!("retrain failed: {e}");
                phase.failed += 1;
            }
        }
        // A cycle ends with its retrain; the first cycle is the warm-up.
        if !measuring {
            signals.measuring.store(true, Ordering::Relaxed);
            start = Instant::now();
            continue;
        }
        cycles += 1;
        signals.tracing.store(cycles % 2 == 0, Ordering::Relaxed);
        tracer.next_op();
        let done = match until.cycles {
            Some(n) => cycles >= n,
            None => start.elapsed().as_secs_f64() >= until.seconds,
        };
        if done {
            signals.stop.store(true, Ordering::Relaxed);
        }
    }
    if id == 0 {
        phase.phase_s = start.elapsed().as_secs_f64();
    }
    srv.close_session(session).expect("session is open");
    (phase, tracer)
}

/// Runs both clients to the end of the phase and merges what they saw.
fn run_clients(bench: &ServeBench, seed: u64, until: Until, tracer: &mut Tracer) -> ServePhase {
    let signals = Signals::default();
    signals.tracing.store(true, Ordering::Relaxed);
    let results: Vec<(ServePhase, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let local = tracer.fork();
                let signals = &signals;
                scope.spawn(move || client(bench, id, seed, until, signals, local))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut merged = ServePhase::default();
    for (phase, local) in results {
        tracer.absorb(local);
        merged.absorb(phase);
    }
    merged
}

fn sim_median(phase: &ServePhase, field: impl Fn(&SimParts) -> f64) -> f64 {
    median(&phase.retrain_sims.iter().map(field).collect::<Vec<_>>())
}

fn ops(phase: &ServePhase) -> Vec<(&'static str, u64)> {
    vec![
        ("requests", phase.points.len() as u64),
        ("cycles", phase.retrain_walls.len() as u64),
    ]
}

pub fn plain(cfg: &RunConfig) -> Outcome {
    let (bench, setup_s) = timed_setups(cfg, |t| setup(cfg.seed, t));
    let phase = run_clients(
        &bench,
        cfg.seed,
        Until::of(cfg, 1.0),
        &mut Tracer::new(false),
    );
    let mut m = Metrics::new(catalogue::END_TO_END);
    m.set("setup_s", setup_s);
    m.set("op_wall_p50_ms", median(&phase.point_walls(|_| true)) * 1e3);
    m.set("wall_rows_per_s", phase.points.len() as f64 / phase.phase_s);
    m.set("sim_s_per_cycle", sim_median(&phase, |s| s.total));
    m.set("peak_rss_mb", peak_rss_mib());
    Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: m,
        ops: ops(&phase),
    }
}

fn point_sql(row: &[f32]) -> String {
    let values: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("PREDICT dana.{UDF}(VALUES ({}));", values.join(", "))
}

/// The fixed costs of one point request, each sampled single-threaded:
/// the SQL form through `DanaServer::call`, and its replay — parse, then
/// scoring the one row — as a root span `sql_point`.
fn fixed_costs(bench: &ServeBench, tracer: &mut Tracer, m: &mut Metrics) {
    let front = &bench.front;
    let replay = Replay::new(front);
    let acc = replay.accelerator(UDF);
    let scorer = replay.scorer(UDF, &acc);
    let mut calls = Vec::new();
    let mut replays = Vec::new();
    let mut explains = Vec::new();
    for i in 0..FIXED_COST_SAMPLES {
        let row = &bench.keys[i];
        let sql = point_sql(row);
        if let Ok((_, wall)) = front.sql(&sql) {
            calls.push(wall);
        }
        if let Ok((_, wall)) = front.sql(&format!("EXPLAIN {RETRAIN_SQL}")) {
            explains.push(wall);
        }
        tracer.next_op();
        let at = Instant::now();
        tracer.span("sql_point", |t| {
            replay.parse(t, &sql);
            let batch = TupleBatch::from_rows(FEATURES, std::slice::from_ref(row));
            t.span("infer.score", |_| {
                score_batch(&scorer.program, scorer.lanes, &batch)
            })
            .expect("replayed point scoring");
        });
        replays.push(at.elapsed().as_secs_f64());
    }
    let call = median(&calls);
    m.set("server.sql_point_call_us", call * 1e6);
    m.set("server.frontdoor_us", median(&explains) * 1e6);
    m.set(
        "core.parse_statement_us",
        self_p50(tracer, "core.parse_statement") * 1e6,
    );
    m.set("infer.score_ms", self_p50(tracer, "infer.score") * 1e3);
    m.set("core.unattributed_share", (call - median(&replays)) / call);
}

/// `PredictionCache::{get, insert}` on a cache of the shipped size, per
/// call: every key inserted once (so the cache turns over four times),
/// then the resident keys probed.
fn cache_costs(bench: &ServeBench, tracer: &mut Tracer, m: &mut Metrics) {
    let generation = bench
        .front
        .srv
        .core()
        .trained_generation(UDF)
        .expect("set-up trained the model");
    let cache = PredictionCache::new(CacheConfig::default());
    tracer.next_op();
    tracer.span("serve.cache_insert", |_| {
        for (row, bits) in bench.keys.iter().zip(&bench.expected) {
            cache.insert(UDF, row, Arc::clone(&generation), f32::from_bits(*bits));
        }
    });
    let resident = &bench.keys[bench.keys.len() - cache.len()..];
    let hits = tracer.span("serve.cache_get", |_| {
        resident
            .iter()
            .filter(|row| matches!(cache.get(UDF, row, &generation), CacheLookup::Hit(_)))
            .count()
    });
    assert_eq!(hits, resident.len(), "resident keys must hit");
    m.set(
        "serve.cache_insert_ns",
        self_p50(tracer, "serve.cache_insert") * 1e9 / bench.keys.len() as f64,
    );
    m.set(
        "serve.cache_get_ns",
        self_p50(tracer, "serve.cache_get") * 1e9 / resident.len() as f64,
    );
}

pub fn traced(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let bench = setup(cfg.seed, tracer);
    let srv = &bench.front.srv;
    let before = srv.stats_snapshot(Some("serving"));
    let phase = run_clients(&bench, cfg.seed, Until::of(cfg, 0.7), tracer);
    let after = srv.stats_snapshot(Some("serving"));
    let delta = |name: &str| stat(&after, name) - stat(&before, name);

    let mut m = Metrics::new(catalogue::PER_LAYER);
    setup_stage_metrics(tracer, &mut m);
    m.set(
        "server.call_p50_ms.retrain",
        median(&phase.retrain_walls) * 1e3,
    );
    m.set(
        "server.admission_wait_us",
        median(&phase.retrain_waits) * 1e6,
    );
    m.set("storage.io_sim_s", sim_median(&phase, |s| s.io));
    m.set("strider.sim_s", sim_median(&phase, |s| s.strider));
    m.set("engine.sim_s", sim_median(&phase, |s| s.engine));
    m.set(
        "engine.cycles",
        sim_median(&phase, |s| s.engine_cycles as f64),
    );
    m.set("fpga.axi_sim_s", sim_median(&phase, |s| s.axi));
    m.set("fpga.setup_sim_s", sim_median(&phase, |s| s.setup));

    // The warm-up cycle's requests are in the counters too; as shares and
    // means that changes nothing a cycle later.
    let lookups = delta("cache_hits") + delta("cache_misses");
    m.set("serve.cache_hit_rate", delta("cache_hits") / lookups);
    let dispatches = delta("batch_occupancy_count");
    m.set(
        "serve.coalesced_share",
        delta("coalesced_dispatches") / dispatches,
    );
    let occupancy =
        |snap| stat(snap, "batch_occupancy_count") * stat(snap, "batch_occupancy_mean_s");
    m.set(
        "serve.batch_occupancy_mean",
        (occupancy(&after) - occupancy(&before)) / dispatches,
    );
    m.set(
        "serve.cache_invalidations",
        delta("cache_invalidations") / (phase.retrain_walls.len() + 1) as f64,
    );
    m.set(
        "serve.point_hit_us",
        median(&phase.point_walls(|p| p.cached)) * 1e6,
    );
    m.set(
        "serve.point_miss_us",
        median(&phase.point_walls(|p| !p.cached)) * 1e6,
    );
    let walls = phase.point_walls(|_| true);
    m.set("serve.point_tail_us", tail(&walls).0 * 1e6);
    m.set("bench.op_wall_tail_ms", tail(&walls).0 * 1e3);
    m.set("bench.op_samples", walls.len() as f64);
    m.set("bench.phase_s", phase.phase_s);
    m.set(
        "bench.trace_overhead_share",
        median(&phase.point_walls(|p| p.traced)) / median(&phase.point_walls(|p| !p.traced)) - 1.0,
    );

    fixed_costs(&bench, tracer, &mut m);
    cache_costs(&bench, tracer, &mut m);
    Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: m,
        ops: ops(&phase),
    }
}
