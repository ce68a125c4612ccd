//! `gang_cold` — ROADMAP's first known inversion: one client, the Remote
//! Sensing table, a cycle of `EXECUTE`, `PREDICT … INTO` and `EVALUATE`,
//! each `WITH (shards = 2)` and each from an empty buffer pool. The
//! shard planner, gang threads, merge and concatenation (`parallel`),
//! scoring and materialization (`infer`) and the pool's miss path
//! (`storage`) dominate; the `engine` is the one `train_public` uses,
//! used differently (gang members, epoch-synchronous merge), so a
//! serial-training gain that costs the gang shows here. Two shards
//! because the sandbox has two cores.

use std::ops::Range;

use dana_engine::{BackendKind, ModelStore};
use dana_infer::{build_prediction_heap, score_batch, MetricKind};
use dana_parallel::{
    evaluate_gang, score_gang_concat, train_gang, MergeBuffer, MergeSpec, ReplaySource,
    ShardOwnership, ShardPlan,
};
use dana_storage::{HeapFile, TupleSource};
use dana_workloads::{generate, workload};

use crate::gen::{jittered_rows, PAGE};
use crate::harness::Front;
use crate::record::{Metrics, Outcome};
use crate::replay::Replay;
use crate::span::Tracer;
use crate::workloads::train_public::{SCALE, WARM_POOL_BYTES};
use crate::workloads::{
    fixed_cost_metrics, front_door_metrics, plain_run, replay_cycles, run_cycles, self_p50,
    setup_stage_metrics, unattributed_share, Budget, StatementBench, Stmt,
};
use crate::{catalogue, RunConfig};

const TABLE: &str = "rs";
const UDF: &str = "rs_lr";
const SHARDS: usize = 2;

fn execute_sql(with: &str) -> String {
    format!("EXECUTE dana.{UDF}('{TABLE}'){with};")
}

fn predict_sql(with: &str) -> String {
    format!("PREDICT dana.{UDF}('{TABLE}') INTO 'p'{with};")
}

/// Accuracy, not the logistic default (log loss): a gang folds the
/// metric per shard and adds the partials, which for a floating-point sum
/// differs from the serial fold in the last bits, while counts of correct
/// rows add exactly — so the gang's answer can be held bit-identical to
/// the serial one.
fn evaluate_sql(with: &str) -> String {
    format!("EVALUATE dana.{UDF}('{TABLE}', 'accuracy'){with};")
}

const GANG: &str = " WITH (shards = 2)";

pub fn setup(seed: u64, tracer: &mut Tracer) -> StatementBench {
    let front = Front::start(WARM_POOL_BYTES);
    let mut w = workload("Remote Sensing LR").expect("Table-3 workload");
    w.tuples = jittered_rows((w.tuples as f64 * SCALE) as u64, seed);
    let generated = tracer
        .span("workloads.generate", |_| generate(&w, PAGE, seed))
        .expect("generating Remote Sensing");
    front
        .srv
        .create_table(TABLE, generated.heap)
        .expect("fresh table name");
    let mut spec = w.spec();
    spec.name = UDF.to_string();
    tracer
        .span("compiler.deploy", |_| front.srv.deploy(&spec, TABLE))
        .expect("deploying the UDF");

    // In this order: the gang trains (its model is what every cycle must
    // reproduce), then the *serial* PREDICT and EVALUATE of that model set
    // the other two expectations — the gang must answer exactly as one
    // accelerator does.
    let cycle = vec![
        Stmt {
            key: "execute_s2",
            sql: execute_sql(GANG),
            rows: w.tuples * w.epochs as u64,
            expect: front.reference(&execute_sql(GANG)),
            drop_after: None,
        },
        Stmt {
            key: "predict_s2",
            sql: predict_sql(GANG),
            rows: w.tuples,
            expect: front.reference(&predict_sql("")),
            drop_after: Some("p"),
        },
        Stmt {
            key: "evaluate_s2",
            sql: evaluate_sql(GANG),
            rows: w.tuples,
            expect: front.reference(&evaluate_sql("")),
            drop_after: None,
        },
    ];
    StatementBench {
        front,
        cycle,
        cold: true,
    }
}

pub fn plain(cfg: &RunConfig) -> Outcome {
    plain_run(cfg, |t| setup(cfg.seed, t), |_| Vec::new())
}

/// The serial twins of the cycle on the same server, expecting what they
/// themselves answer the first time (a serially trained model differs
/// from the gang's, and only the twins' wall and simulated time matter).
fn serial_twins(bench: &StatementBench) -> StatementBench {
    let front = bench.front.clone();
    let twin = |key, sql: String, of: &Stmt| Stmt {
        key,
        expect: front.reference(&sql),
        sql,
        rows: of.rows,
        drop_after: of.drop_after,
    };
    let cycle = vec![
        twin("execute_s1", execute_sql(""), &bench.cycle[0]),
        twin("predict_s1", predict_sql(""), &bench.cycle[1]),
        twin("evaluate_s1", evaluate_sql(""), &bench.cycle[2]),
    ];
    StatementBench {
        front,
        cycle,
        cold: true,
    }
}

fn shard_ranges(t: &mut Tracer, heap: &HeapFile) -> (ShardPlan, Vec<Range<u32>>) {
    let plan = t.span("parallel.plan", |_| ShardPlan::new(heap, SHARDS));
    let ranges = plan
        .ranges()
        .iter()
        .map(|r| r.start_page..r.end_page)
        .collect();
    (plan, ranges)
}

/// One replayed cycle: each gang statement as a root span named by its
/// key, every stage a child span named `<layer>.<stage>`.
fn replay_cycle(replay: &Replay, t: &mut Tracer, bench: &StatementBench) {
    let table = replay.table(TABLE, 0);
    let heap = &*table.heap;
    let acc = replay.accelerator(UDF);
    let access = replay.access_engine(heap, &acc);
    let design = acc.engine.design();
    let [execute, predict, evaluate] = [0, 1, 2].map(|i| &bench.cycle[i]);

    replay.pool.clear();
    t.span(execute.key, |t| {
        replay.parse(t, &execute.sql);
        let (plan, ranges) = shard_ranges(t, heap);
        let mut sources = replay.scan_shards(t, &table, &access, &ranges);
        let outcome = t
            .span("parallel.train_gang", |_| {
                train_gang(
                    &acc.engine,
                    &mut sources,
                    dana::exec::initial_models(design),
                )
            })
            .expect("replayed gang training");
        // One epoch boundary's merge of the members' partials.
        let spec = MergeSpec::derive(design).expect("mergeable design");
        let ownership = vec![ShardOwnership::for_spec(&spec); SHARDS];
        t.span("parallel.merge", |_| {
            let mut buffer = MergeBuffer::new(&spec, SHARDS, dana::exec::initial_models(design));
            for (shard, weight) in plan.tuple_counts().into_iter().enumerate() {
                buffer.submit(shard, outcome.models.clone(), weight);
            }
            buffer.finish(&ownership)
        })
        .expect("replayed merge");
    });

    let scorer = replay.scorer(UDF, &acc);
    replay.pool.clear();
    t.span(predict.key, |t| {
        replay.parse(t, &predict.sql);
        let (_, ranges) = shard_ranges(t, heap);
        let mut sources = replay.scan_shards(t, &table, &access, &ranges);
        let (predictions, _) = t
            .span("parallel.score_gang", |_| {
                score_gang_concat(&scorer.program, scorer.lanes, &mut sources)
            })
            .expect("replayed gang scoring");
        t.span("infer.materialize", |_| {
            build_prediction_heap(heap, &predictions)
        })
        .expect("replayed materialization");
    });

    replay.pool.clear();
    t.span(evaluate.key, |t| {
        replay.parse(t, &evaluate.sql);
        let (_, ranges) = shard_ranges(t, heap);
        let mut sources = replay.scan_shards(t, &table, &access, &ranges);
        t.span("parallel.evaluate_gang", |_| {
            evaluate_gang(
                &scorer.program,
                scorer.lanes,
                &mut sources,
                MetricKind::Accuracy,
            )
        })
        .expect("replayed gang evaluation");
    });

    // The stages a gang runs inside its member threads, once serially so
    // they can be told apart: scoring and one training run over the
    // whole table (scanned outside any span; the scans above are timed).
    let batches = replay.scan(
        &mut Tracer::new(false),
        &table,
        &access,
        0..heap.page_count(),
    );
    t.span("serial_stages", |t| {
        for batch in &batches {
            t.span("infer.score", |_| {
                score_batch(&scorer.program, scorer.lanes, batch)
            })
            .expect("replayed scoring");
        }
        let mut source = ReplaySource::new(heap.schema().len(), batches);
        let mut store = ModelStore::new(design, dana::exec::initial_models(design))
            .expect("initial models fit the design");
        t.span("engine.run_training", |_| {
            acc.backend(BackendKind::Fpga)
                .run_training(&mut source as &mut dyn TupleSource, &mut store)
        })
        .expect("replayed training");
    });
}

pub fn traced(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let bench = setup(cfg.seed, tracer);
    let phase = run_cycles(&bench, Budget::of(cfg, 0.4), tracer);
    let mut m = Metrics::new(catalogue::PER_LAYER);
    front_door_metrics(&bench, &phase, &mut m);
    fixed_cost_metrics(&bench, &mut m);
    setup_stage_metrics(tracer, &mut m);

    // The serial twins run only here: what the gang is measured against.
    let twins = serial_twins(&bench);
    let serial = run_cycles(&twins, Budget::of(cfg, 0.3), &mut Tracer::new(false));
    for (kind, gang_key, serial_key) in [
        ("execute", "execute_s2", "execute_s1"),
        ("predict", "predict_s2", "predict_s1"),
        ("evaluate", "evaluate_s2", "evaluate_s1"),
    ] {
        m.set(
            &format!("parallel.gang_vs_serial_wall.{kind}"),
            phase.stmt_wall_p50(&bench, gang_key) / serial.stmt_wall_p50(&twins, serial_key),
        );
    }
    m.set(
        "parallel.gang_vs_serial_sim.predict",
        phase.stmt_sim_p50(&bench, "predict_s2") / serial.stmt_sim_p50(&twins, "predict_s1"),
    );

    let replay = Replay::new(&bench.front);
    for _ in 0..replay_cycles(cfg) {
        tracer.next_op();
        replay_cycle(&replay, tracer, &bench);
    }
    let epochs = workload("Remote Sensing LR")
        .expect("Table-3 workload")
        .epochs as f64;
    for (name, span, scale) in [
        ("storage.fetch_cold_ms", "storage.fetch", 1e3),
        ("strider.extract_ms", "strider.extract", 1e3),
        ("engine.train_epoch_ms", "engine.run_training", 1e3 / epochs),
        ("infer.score_ms", "infer.score", 1e3),
        ("infer.materialize_ms", "infer.materialize", 1e3),
        ("parallel.plan_us", "parallel.plan", 1e6),
        ("parallel.score_gang_ms", "parallel.score_gang", 1e3),
        ("parallel.merge_us", "parallel.merge", 1e6),
    ] {
        m.set(name, self_p50(tracer, span) * scale);
    }
    m.set(
        "core.unattributed_share",
        unattributed_share(&bench, &phase, tracer),
    );
    Outcome {
        attempted: phase.attempted + serial.attempted,
        failed: phase.failed + serial.failed,
        metrics: m,
        ops: vec![
            ("cycles", phase.cycle_walls.len() as u64),
            ("serial_cycles", serial.cycle_walls.len() as u64),
            ("replay_cycles", replay_cycles(cfg) as u64),
        ],
    }
}
