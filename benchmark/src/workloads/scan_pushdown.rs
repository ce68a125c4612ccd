//! `scan_pushdown` — ROADMAP's second known inversion: one client, a
//! 400 000 × 16 table of quantized features clustered on `x0`, and a
//! buffer pool *smaller than the table* (16 MiB against ≈34 MiB raw — the
//! one workload that does not fit the program's cache). The cycle is a
//! full `EVALUATE`; `EVALUATE … WHERE x0 < 0.1` (zone maps skip ~90 % of
//! the pages); `EVALUATE … WHERE x1 < -0.75` (~12 % of the rows, nothing
//! skippable: decompress + decode + predicate do all the work); and
//! `PREDICT … INTO 'p' WHERE x0 < 0.1` (slot selection + selected
//! materialization). `scan`, `storage` and `infer` dominate; `engine`
//! training, `parallel` and `serve` are bypassed. The one-time sidecar
//! build belongs to set-up and is charged there.

use dana::exec::statement_scan;
use dana_infer::{build_prediction_heap_selected, evaluate_source, score_batch};
use dana_parallel::ReplaySource;
use dana_scan::{compress_page, select_slots, BoundScanSpec, ScanSidecar};
use dana_storage::{HeapFile, TupleSource};

use crate::gen::{build_heap, jittered_rows, scan_rows};
use crate::harness::{stat, Front};
use crate::record::{Metrics, Outcome};
use crate::replay::{Replay, Scorer};
use crate::span::Tracer;
use crate::workloads::{
    fixed_cost_metrics, front_door_metrics, plain_run, replay_cycles, run_cycles, self_mean_p50,
    self_p50, setup_stage_metrics, unattributed_share, Budget, StatementBench, Stmt,
};
use crate::{catalogue, RunConfig};

const ROWS: u64 = 400_000;
const FEATURES: usize = 16;
const WIDTH: usize = FEATURES + 1;
/// Less than half the raw table, so the full scan evicts as it goes.
const POOL_BYTES: u64 = 16 << 20;
const TABLE: &str = "facts";
const UDF: &str = "lin";
/// Clustered predicate: zone maps prune every page past the first tenth.
const WHERE_X0: &str = " WHERE x0 < 0.1";
/// Unclustered predicate: two of x1's seventeen levels, on every page.
const WHERE_X1: &str = " WHERE x1 < -0.75";
/// Pages whose compression a traced run times.
const CODEC_SAMPLE_PAGES: u32 = 32;

fn evaluate_sql(table: &str, filter: &str) -> String {
    format!("EVALUATE dana.{UDF}('{table}'){filter};")
}

fn predict_sql(table: &str, filter: &str) -> String {
    format!("PREDICT dana.{UDF}('{table}') INTO 'p'{filter};")
}

/// Creates the table of the rows `keep` accepts: what a filtered
/// statement must answer exactly like.
fn materialize(front: &Front, name: &str, rows: &[f32], keep: impl Fn(&[f32]) -> bool) {
    let kept: Vec<f32> = rows
        .chunks_exact(WIDTH)
        .filter(|row| keep(row))
        .flatten()
        .copied()
        .collect();
    front
        .srv
        .create_table(name, build_heap(&kept, WIDTH))
        .expect("fresh table name");
}

pub fn setup(seed: u64, tracer: &mut Tracer) -> StatementBench {
    let front = Front::start(POOL_BYTES);
    let n = jittered_rows(ROWS, seed);
    let rows = scan_rows(seed, n as usize, FEATURES);
    let heap = tracer.span("storage.heap_build", |_| build_heap(&rows, WIDTH));
    front
        .srv
        .create_table(TABLE, heap)
        .expect("fresh table name");
    let spec = dana_dsl::zoo::linear_regression(dana_dsl::zoo::DenseParams {
        n_features: FEATURES,
        learning_rate: 0.05,
        merge_coef: 8,
        epochs: 1,
    })
    .map(|mut spec| {
        spec.name = UDF.to_string();
        spec
    })
    .expect("zoo spec");
    tracer
        .span("compiler.deploy", |_| front.srv.deploy(&spec, TABLE))
        .expect("deploying the UDF");
    front.must(&format!("EXECUTE dana.{UDF}('{TABLE}');"));

    // Filtered statements must equal the same statement over a table of
    // the surviving rows, materialized here by the benchmark itself.
    materialize(&front, "facts_x0", &rows, |row| row[0] < 0.1);
    materialize(&front, "facts_x1", &rows, |row| row[1] < -0.75);
    let stmt = |key, sql: String, reference: String, drop_after| Stmt {
        key,
        sql,
        rows: n,
        expect: front.reference(&reference),
        drop_after,
    };
    let cycle = vec![
        stmt(
            "evaluate_full",
            evaluate_sql(TABLE, ""),
            evaluate_sql(TABLE, ""),
            None,
        ),
        stmt(
            "evaluate_x0",
            evaluate_sql(TABLE, WHERE_X0),
            evaluate_sql("facts_x0", ""),
            None,
        ),
        stmt(
            "evaluate_x1",
            evaluate_sql(TABLE, WHERE_X1),
            evaluate_sql("facts_x1", ""),
            None,
        ),
        stmt(
            "predict_x0",
            predict_sql(TABLE, WHERE_X0),
            predict_sql("facts_x0", ""),
            Some("p"),
        ),
    ];
    for table in ["facts_x0", "facts_x1"] {
        front.srv.drop_table(table).expect("reference table");
    }
    // The first pushdown statement builds the table's compressed sidecar.
    front.must(&evaluate_sql(TABLE, WHERE_X0));
    StatementBench {
        front,
        cycle,
        cold: false,
    }
}

pub fn plain(cfg: &RunConfig) -> Outcome {
    plain_run(cfg, |t| setup(cfg.seed, t), |_| Vec::new())
}

/// The statement's `WHERE` clause bound to the table, via the parser.
fn bound_spec(replay: &Replay, t: &mut Tracer, sql: &str, heap: &HeapFile) -> BoundScanSpec {
    let stmt = replay.parse(t, sql);
    statement_scan(&stmt)
        .expect("statement has a WHERE clause")
        .bind(heap.schema())
        .expect("predicate columns exist")
}

fn replay_evaluate(
    t: &mut Tracer,
    scorer: &Scorer,
    width: usize,
    batches: Vec<dana_storage::TupleBatch>,
) {
    let mut source = ReplaySource::new(width, batches);
    t.span("infer.score", |_| {
        evaluate_source(
            &scorer.program,
            scorer.lanes,
            &mut source as &mut dyn TupleSource,
            scorer.metric,
        )
    })
    .expect("replayed evaluation");
}

/// One replayed cycle against the replay's own 16 MiB pool, which keeps
/// its contents from statement to statement like the server's does.
fn replay_cycle(replay: &Replay, t: &mut Tracer, bench: &StatementBench, sidecar: &ScanSidecar) {
    let table = replay.table(TABLE, 0);
    let heap = &*table.heap;
    let acc = replay.accelerator(UDF);
    let access = replay.access_engine(heap, &acc);
    let scorer = replay.scorer(UDF, &acc);
    let width = heap.schema().len();
    let [full, x0, x1, predict] = [0, 1, 2, 3].map(|i| &bench.cycle[i]);

    t.span(full.key, |t| {
        replay.parse(t, &full.sql);
        let batches = replay.scan(t, &table, &access, 0..heap.page_count());
        replay_evaluate(t, &scorer, width, batches);
    });
    for stmt in [x0, x1] {
        t.span(stmt.key, |t| {
            let spec = bound_spec(replay, t, &stmt.sql, heap);
            let batches = replay.scan_filtered(t, &table, &access, sidecar, &spec);
            replay_evaluate(t, &scorer, width, batches);
        });
    }
    t.span(predict.key, |t| {
        let spec = bound_spec(replay, t, &predict.sql, heap);
        let batches = replay.scan_filtered(t, &table, &access, sidecar, &spec);
        let mut predictions = Vec::new();
        for batch in &batches {
            let (scored, _) = t
                .span("infer.score", |_| {
                    score_batch(&scorer.program, scorer.lanes, batch)
                })
                .expect("replayed scoring");
            predictions.extend(scored);
        }
        let slots = t
            .span("scan.select_slots", |_| select_slots(heap, &spec))
            .expect("slot selection");
        t.span("infer.materialize_selected", |_| {
            build_prediction_heap_selected(heap, &slots, spec.projection.as_deref(), &predictions)
        })
        .expect("replayed selected materialization");
    });

    // The codec's compress side runs only at sidecar build; sample it.
    t.span("codec_samples", |t| {
        let step = (heap.page_count() / CODEC_SAMPLE_PAGES).max(1);
        for page_no in (0..heap.page_count()).step_by(step as usize) {
            let bytes = heap.page_bytes(page_no).expect("page within the heap");
            t.span("scan.compress_page", |_| {
                std::hint::black_box(compress_page(bytes, heap.layout(), heap.schema()))
            });
        }
    });
}

pub fn traced(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let bench = setup(cfg.seed, tracer);
    let front = &bench.front;
    let replay = Replay::new(front);
    let sidecar = tracer
        .span("scan.sidecar_build", |_| {
            ScanSidecar::build(&replay.table(TABLE, 0).heap)
        })
        .expect("sidecar build");

    let scan_before = front.srv.stats_snapshot(Some("scan"));
    let phase = run_cycles(&bench, Budget::of(cfg, 0.5), tracer);
    let scan_after = front.srv.stats_snapshot(Some("scan"));
    let delta = |name: &str| stat(&scan_after, name) - stat(&scan_before, name);

    let mut m = Metrics::new(catalogue::PER_LAYER);
    front_door_metrics(&bench, &phase, &mut m);
    fixed_cost_metrics(&bench, &mut m);
    setup_stage_metrics(tracer, &mut m);
    m.set(
        "scan.compression_ratio",
        stat(&scan_after, "compression_ratio"),
    );
    m.set(
        "scan.pages_skipped_share",
        delta("pages_skipped") / (delta("queries") * sidecar.page_count() as f64),
    );
    m.set(
        "scan.selectivity",
        delta("rows_emitted") / delta("rows_considered"),
    );
    for filter in ["x0", "x1"] {
        let key = format!("evaluate_{filter}");
        m.set(
            &format!("scan.filtered_vs_full_wall.{filter}"),
            phase.stmt_wall_p50(&bench, &key) / phase.stmt_wall_p50(&bench, "evaluate_full"),
        );
        m.set(
            &format!("scan.filtered_vs_full_sim.{filter}"),
            phase.stmt_sim_p50(&bench, &key) / phase.stmt_sim_p50(&bench, "evaluate_full"),
        );
    }

    for _ in 0..replay_cycles(cfg) {
        tracer.next_op();
        replay_cycle(&replay, tracer, &bench, &sidecar);
    }
    for (name, span, scale) in [
        ("scan.sidecar_build_ms", "scan.sidecar_build", 1e3),
        ("storage.fetch_cold_ms", "storage.fetch", 1e3),
        ("strider.extract_ms", "strider.extract", 1e3),
        ("infer.score_ms", "infer.score", 1e3),
        (
            "infer.materialize_selected_ms",
            "infer.materialize_selected",
            1e3,
        ),
        ("scan.select_slots_ms", "scan.select_slots", 1e3),
    ] {
        m.set(name, self_p50(tracer, span) * scale);
    }
    m.set(
        "scan.compress_page_us",
        self_mean_p50(tracer, "scan.compress_page") * 1e6,
    );
    m.set(
        "scan.decompress_page_us",
        self_mean_p50(tracer, "scan.decompress_page") * 1e6,
    );
    m.set(
        "core.unattributed_share",
        unattributed_share(&bench, &phase, tracer),
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
