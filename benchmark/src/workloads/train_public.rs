//! `train_public` — the abstract's "real datasets" headline: one closed-
//! loop client, warm cache, a cycle of one `EXECUTE` on each of the six
//! public Table-3 datasets. Strider extraction and the lowered engine do
//! nearly all the work, across narrow (54), wide (280–520) and LRMF
//! shapes; `scan`, `parallel`, `infer` and `serve` do none — a gain
//! claimed there must read "no change" here.

use dana_engine::{BackendKind, ModelStore};
use dana_parallel::ReplaySource;
use dana_storage::TupleSource;
use dana_workloads::{generate, workload, Workload};

use crate::gen::{jittered_rows, PAGE};
use crate::harness::{Expect, Front};
use crate::record::{Metrics, Outcome};
use crate::replay::{Replay, ReplayTable};
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{
    fixed_cost_metrics, front_door_metrics, plain_run, replay_cycles, run_cycles, self_p50,
    setup_stage_metrics, unattributed_share, Budget, StatementBench, Stmt,
};
use crate::{catalogue, RunConfig};

/// Share of Table 3's tuple counts the tables are generated at. Full size
/// costs ≈3 s a cycle and ≈6 s a set-up, which the run-time cap of the
/// benchmark contract (three set-ups and ten measured seconds per run)
/// does not leave room for; a quarter keeps every table's shape and a
/// dozen cycles per run.
pub const SCALE: f64 = 0.25;

/// Netflix at Table-3 byte volume is three million triples × 110 epochs;
/// the benchmark trains on this many at full scale — its one deviation
/// from Table 3 besides [`SCALE`].
const NETFLIX_TRIPLES: u64 = 30_000;

/// Buffer pool of the warm-cache workloads: holds every table with room
/// to spare.
pub const WARM_POOL_BYTES: u64 = 256 << 20;

struct Dataset {
    /// Table-3 name.
    name: &'static str,
    /// UDF name and statement key.
    key: &'static str,
    table: &'static str,
    /// Table 5's DAnA+PostgreSQL seconds (dense datasets only).
    table5_dana_s: Option<f64>,
}

/// The six public datasets in Table-3 order. Remote Sensing LR and SVM
/// train on one shared table.
const DATASETS: [Dataset; 6] = [
    Dataset {
        name: "Remote Sensing LR",
        key: "rs_lr",
        table: "rs",
        table5_dana_s: Some(0.1),
    },
    Dataset {
        name: "WLAN",
        key: "wlan",
        table: "wlan",
        table5_dana_s: Some(0.61),
    },
    Dataset {
        name: "Remote Sensing SVM",
        key: "rs_svm",
        table: "rs",
        table5_dana_s: Some(0.09),
    },
    Dataset {
        name: "Netflix",
        key: "netflix",
        table: "netflix",
        table5_dana_s: None,
    },
    Dataset {
        name: "Patient",
        key: "patient",
        table: "patient",
        table5_dana_s: Some(1.18),
    },
    Dataset {
        name: "Blog Feedback",
        key: "blog",
        table: "blog",
        table5_dana_s: Some(0.34),
    },
];

/// The registry's workload at `scale` of its Table-3 size, its row count
/// nudged by the seed.
fn sized(d: &Dataset, scale: f64, seed: u64) -> Workload {
    let mut w = workload(d.name).expect("Table-3 workload");
    let full = if d.key == "netflix" {
        NETFLIX_TRIPLES
    } else {
        w.tuples
    };
    w.tuples = jittered_rows((full as f64 * scale) as u64, seed);
    w
}

/// Creates `d`'s table (unless an earlier dataset already did), deploys
/// its UDF, and trains it once. Returns the first training's reply.
fn install(
    front: &Front,
    d: &Dataset,
    w: &Workload,
    table: &str,
    udf: &str,
    seed: u64,
    tracer: &mut Tracer,
) -> (String, dana_server::QueryReply) {
    if front.srv.core().table_pages(table).is_none() {
        let generated = tracer
            .span("workloads.generate", |_| generate(w, PAGE, seed))
            .unwrap_or_else(|e| panic!("generating {}: {e}", d.name));
        front
            .srv
            .create_table(table, generated.heap)
            .expect("fresh table name");
        front.srv.prewarm(table).expect("table just created");
    }
    let mut spec = w.spec();
    spec.name = udf.to_string();
    tracer
        .span("compiler.deploy", |_| front.srv.deploy(&spec, table))
        .unwrap_or_else(|e| panic!("deploying {udf}: {e}"));
    let sql = format!("EXECUTE dana.{udf}('{table}');");
    let reply = front.must(&sql);
    (sql, reply)
}

pub fn setup(seed: u64, tracer: &mut Tracer) -> StatementBench {
    let front = Front::start(WARM_POOL_BYTES);
    let cycle = DATASETS
        .iter()
        .map(|d| {
            let w = sized(d, SCALE, seed);
            let (sql, reply) = install(&front, d, &w, d.table, d.key, seed, tracer);
            Stmt {
                key: d.key,
                sql,
                rows: w.tuples * w.epochs as u64,
                expect: Expect::from_reply(&front, &reply).expect("EXECUTE replies with models"),
                drop_after: None,
            }
        })
        .collect();
    StatementBench {
        front,
        cycle,
        cold: false,
    }
}

/// The cycle's statements pinned to the native CPU tier: they must
/// train the same models bit for bit.
fn cpu_twins(bench: &StatementBench) -> Vec<Stmt> {
    bench
        .cycle
        .iter()
        .map(|stmt| Stmt {
            key: stmt.key,
            sql: stmt.sql.replace(';', " WITH (backend = cpu);"),
            rows: stmt.rows,
            expect: stmt.expect.clone(),
            drop_after: None,
        })
        .collect()
}

pub fn plain(cfg: &RunConfig) -> Outcome {
    plain_run(cfg, |t| setup(cfg.seed, t), cpu_twins)
}

/// One EXECUTE, stage by stage: parse, fetch + extract every page (warm),
/// then the lowered engine over the extracted batches.
fn replay_train(replay: &Replay, t: &mut Tracer, stmt: &Stmt, table: &ReplayTable) -> u32 {
    replay.parse(t, &stmt.sql);
    let heap = &table.heap;
    let acc = replay.accelerator(stmt.key);
    let access = replay.access_engine(heap, &acc);
    let batches = replay.scan(t, table, &access, 0..heap.page_count());
    let mut source = ReplaySource::new(heap.schema().len(), batches);
    let design = acc.engine.design();
    let mut store = ModelStore::new(design, dana::exec::initial_models(design))
        .expect("initial models fit the design");
    let run = t
        .span("engine.run_training", |_| {
            acc.backend(BackendKind::Fpga)
                .run_training(&mut source as &mut dyn TupleSource, &mut store)
        })
        .expect("replayed training");
    run.stats.epochs_run
}

/// `fpga.table5_dana_geomean_ratio`: our simulated seconds over Table 5's
/// DAnA column, geomean over the five dense public datasets. Table 5 is
/// at full Table-3 size, so each dataset is also trained at half the
/// benchmark's scale and its simulated seconds — linear in the row count
/// — extended through the two points to full size.
fn table5_ratio(front: &Front, phase_sim: &[f64], seed: u64) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0;
    for (d, at_scale) in DATASETS.iter().zip(phase_sim) {
        let Some(paper_s) = d.table5_dana_s else {
            continue;
        };
        let half = sized(d, SCALE / 2.0, seed);
        let table = format!("{}_half", d.key);
        let udf = format!("{}_half", d.key);
        let (_, reply) = install(front, d, &half, &table, &udf, seed, &mut Tracer::new(false));
        let at_half = reply.response.sim_seconds();
        let rows = sized(d, SCALE, seed).tuples as f64;
        let slope = (at_scale - at_half) / (rows - half.tuples as f64);
        let full_rows = workload(d.name).expect("Table-3 workload").tuples as f64;
        let at_full = at_scale + slope * (full_rows - rows);
        log_sum += (at_full / paper_s).ln();
        n += 1;
        front.srv.drop_table(&table).expect("half-size table");
    }
    (log_sum / n as f64).exp()
}

pub fn traced(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let bench = setup(cfg.seed, tracer);
    let phase = run_cycles(&bench, Budget::of(cfg, 0.5), tracer);
    let mut m = Metrics::new(catalogue::PER_LAYER);
    front_door_metrics(&bench, &phase, &mut m);
    fixed_cost_metrics(&bench, &mut m);
    setup_stage_metrics(tracer, &mut m);

    let replay = Replay::new(&bench.front);
    let tables: Vec<ReplayTable> = DATASETS
        .iter()
        .map(|d| {
            let slot = DATASETS.iter().position(|o| o.table == d.table);
            replay.table(d.table, slot.expect("own table") as u32)
        })
        .collect();
    let mut epochs = 0;
    for _ in 0..replay_cycles(cfg) {
        tracer.next_op();
        epochs = 0;
        for (stmt, table) in bench.cycle.iter().zip(&tables) {
            // Warm, like the front door: every table stays resident.
            epochs += tracer.span(stmt.key, |t| replay_train(&replay, t, stmt, table));
        }
    }
    m.set(
        "storage.fetch_warm_ms",
        self_p50(tracer, "storage.fetch") * 1e3,
    );
    m.set(
        "strider.extract_ms",
        self_p50(tracer, "strider.extract") * 1e3,
    );
    m.set(
        "engine.train_epoch_ms",
        self_p50(tracer, "engine.run_training") * 1e3 / epochs as f64,
    );
    m.set(
        "core.unattributed_share",
        unattributed_share(&bench, &phase, tracer),
    );
    let sims: Vec<f64> = phase.stmt_sims.iter().map(|s| median(s)).collect();
    m.set(
        "fpga.table5_dana_geomean_ratio",
        table5_ratio(&bench.front, &sims, cfg.seed),
    );
    Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: m,
        ops: vec![
            ("cycles", phase.cycle_walls.len() as u64),
            ("replay_cycles", replay_cycles(cfg) as u64),
        ],
    }
}
