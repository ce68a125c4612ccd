//! Intra-query parallelism determinism suite.
//!
//! The gang executor's contract, held across the four zoo analytics:
//!
//! * the epoch-boundary merge is a pure function of (partials, shard
//!   indices) — **every completion-order permutation** of partial-model
//!   arrival yields bit-identical merged models;
//! * a gang the shard planner collapses to **one member is bit-identical
//!   to the serial path** — models, engine stats, and simulated timing —
//!   for all four zoo models;
//! * parallel PREDICT materializes **bit-identical prediction tables to
//!   serial PREDICT for every shard count** (1, 2, 4) — shard outputs
//!   concatenate in page order and per-tuple scoring math is
//!   shard-invariant;
//! * multi-shard training is reproducible run-to-run and still learns.

use dana::prelude::*;
use dana::{
    parse_statement, EvalReport, PhysicalPlan, QueryCtx, SystemCore, SystemCoreConfig, Work,
};
use dana_dsl::zoo::{self, Algorithm, DenseParams, LrmfParams};
use dana_parallel::{MergeBuffer, MergeSpec, ShardOwnership};
use dana_storage::page::TupleDirection;
use dana_storage::{BufferPoolConfig, HeapFileBuilder, Schema};

mod common;
use common::execute;

const PAGE: usize = 8 * 1024;

fn dense_heap(n: usize, d: usize, algo: Algorithm) -> HeapFile {
    let truth: Vec<f32> = (0..d).map(|i| 0.3 * i as f32 - 0.8).collect();
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let x: Vec<f32> = (0..d)
            .map(|i| (((k * 11 + i * 5) % 17) as f32 - 8.0) / 8.0)
            .collect();
        let s: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        let y = match algo {
            Algorithm::Linear => s,
            Algorithm::Logistic => (s > 0.0) as u8 as f32,
            Algorithm::Svm => {
                if s > 0.0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Algorithm::Lrmf => unreachable!(),
        };
        b.insert(&Tuple::training(&x, y)).unwrap();
    }
    b.finish()
}

/// Ratings clustered by user row (`i` ascends with insertion order, the
/// natural layout of a user-sorted ratings table): page-range shards
/// then own nearly disjoint `L` rows, the regime factor-row ownership
/// partitioning is designed for.
fn rating_heap(n: usize, rows: usize, cols: usize) -> HeapFile {
    let mut b = HeapFileBuilder::new(Schema::rating(), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let (i, j) = (k * rows / n, (k * 13) % cols);
        let r = 1.0 + ((i * 3 + j * 5) % 4) as f32;
        b.insert(&Tuple::rating(i as i32, j as i32, r)).unwrap();
    }
    b.finish()
}

fn spec_for(algo: Algorithm, epochs: u32) -> AlgoSpec {
    match algo {
        Algorithm::Lrmf => zoo::lrmf(LrmfParams {
            rows: 24,
            cols: 18,
            rank: 6,
            learning_rate: 0.05,
            merge_coef: 4,
            epochs,
        })
        .unwrap(),
        _ => zoo::spec_for(
            algo,
            DenseParams {
                n_features: 10,
                learning_rate: 0.1,
                merge_coef: 8,
                epochs,
            },
        )
        .unwrap(),
    }
}

fn heap_for(algo: Algorithm, n: usize) -> HeapFile {
    match algo {
        Algorithm::Lrmf => rating_heap(n, 24, 18),
        _ => dense_heap(n, 10, algo),
    }
}

fn fresh_dana() -> Dana {
    Dana::new(
        FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size: PAGE,
        },
        DiskModel::ssd(),
    )
}

const ZOO: [Algorithm; 4] = [
    Algorithm::Linear,
    Algorithm::Logistic,
    Algorithm::Svm,
    Algorithm::Lrmf,
];

/// Compiles a zoo spec against its table and returns the engine design
/// (for merge-spec derivation straight off a *real* deployed design).
fn compiled_design(algo: Algorithm) -> dana_engine::EngineDesign {
    let spec = spec_for(algo, 1);
    let heap = heap_for(algo, 300);
    let hdfg = dana_hdfg::translate(&spec);
    let acc = dana_compiler::compile(&dana_compiler::CompileInput {
        hdfg: &hdfg,
        fpga: FpgaSpec::vu9p(),
        layout: *heap.layout(),
        schema_columns: heap.schema().len(),
        expected_tuples: heap.tuple_count(),
    })
    .unwrap();
    acc.design.clone()
}

/// All permutations of `0..n` (n! — used with n = 4), via Heap's
/// algorithm.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            go(items, k - 1, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    go(&mut items, n, &mut out);
    out
}

#[test]
fn merge_is_bit_identical_for_every_completion_order_permutation() {
    // Dense (linear regression) design: weighted-average merge.
    let design = compiled_design(Algorithm::Linear);
    let spec = MergeSpec::derive(&design).unwrap();
    let k = 4;
    let partials: Vec<Vec<Vec<f32>>> = (0..k)
        .map(|s| {
            design
                .models
                .iter()
                .map(|m| {
                    (0..m.elements())
                        .map(|j| (s as f32 + 1.0) * 0.125 + j as f32 * 0.01)
                        .collect()
                })
                .collect()
        })
        .collect();
    let weights = [130u64, 70, 101, 99];
    let base: Vec<Vec<f32>> = design
        .models
        .iter()
        .map(|m| vec![0.0; m.elements()])
        .collect();
    let perms = permutations(k);
    assert_eq!(perms.len(), 24);
    let mut reference: Option<Vec<Vec<f32>>> = None;
    for perm in &perms {
        let mut buf = MergeBuffer::new(&spec, k, base.clone());
        for &s in perm {
            buf.submit(s, partials[s].clone(), weights[s]);
        }
        let (merged, _) = buf.finish(&[]).unwrap();
        match &reference {
            None => reference = Some(merged),
            Some(r) => assert_eq!(&merged, r, "arrival order {perm:?} changed the dense merge"),
        }
    }

    // LRMF design: row-ownership merge, contended rows included.
    let design = compiled_design(Algorithm::Lrmf);
    let spec = MergeSpec::derive(&design).unwrap();
    let partials: Vec<Vec<Vec<f32>>> = (0..k)
        .map(|s| {
            design
                .models
                .iter()
                .map(|m| {
                    (0..m.elements())
                        .map(|j| s as f32 * 100.0 + j as f32)
                        .collect()
                })
                .collect()
        })
        .collect();
    let ownership: Vec<ShardOwnership> = (0..k)
        .map(|s| {
            let mut own = ShardOwnership::for_spec(&spec);
            for (mi, bits) in own.per_model.iter_mut() {
                for (row, b) in bits.iter_mut().enumerate() {
                    // Overlapping ownership: shard s touches rows where
                    // (row + s + mi) % 3 != 0 — plenty of contention.
                    *b = (row + s + *mi) % 3 != 0;
                }
            }
            own
        })
        .collect();
    let base: Vec<Vec<f32>> = design
        .models
        .iter()
        .map(|m| vec![-1.0; m.elements()])
        .collect();
    let mut reference: Option<Vec<Vec<f32>>> = None;
    for perm in &perms {
        let mut buf = MergeBuffer::new(&spec, k, base.clone());
        for &s in perm {
            buf.submit(s, partials[s].clone(), 100);
        }
        let (merged, _) = buf.finish(&ownership).unwrap();
        match &reference {
            None => reference = Some(merged),
            Some(r) => assert_eq!(&merged, r, "arrival order {perm:?} changed the LRMF merge"),
        }
    }
}

/// A four-shard pool, as a served core would run.
fn fresh_core() -> SystemCore {
    SystemCore::new(SystemCoreConfig {
        fpga: FpgaSpec::vu9p(),
        pool: BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size: PAGE,
        },
        pool_shards: 4,
        disk: DiskModel::ssd(),
    })
}

/// A one-page table: whatever gang a plan asks for, the shard planner
/// gives it one member. (`bind` clamps such a request up front; a plan
/// edited after bind — or a table replaced between bind and run —
/// reaches the gang executor with it.)
fn one_page_heap(algo: Algorithm) -> HeapFile {
    let heap = heap_for(algo, 100);
    assert_eq!(heap.page_count(), 1);
    heap
}

/// `sql`'s plan, as `bind` made it.
fn bind(core: &SystemCore, sql: &str) -> PhysicalPlan {
    match core
        .lower(&parse_statement(sql).unwrap(), usize::MAX)
        .unwrap()
    {
        (Work::Plan(plan), _) => *plan,
        (Work::Stats(_), _) => panic!("{sql} binds no plan"),
    }
}

/// The plan `bind` makes for `EXECUTE udf('t')`, asking for a two-member
/// gang after the fact.
fn two_member_execute(core: &SystemCore, udf: &str) -> PhysicalPlan {
    PhysicalPlan {
        shards: 2,
        ..bind(core, &format!("EXECUTE {udf}('t');"))
    }
}

fn run(core: &SystemCore, plan: &PhysicalPlan) -> DanaReport {
    let response = core.execute(plan, &QueryCtx::default()).0.unwrap();
    response.report().unwrap().clone()
}

/// `EVALUATE udf('t')` on the FPGA tier under the default metric.
fn evaluate(db: &SystemCore, udf: &str) -> EvalReport {
    let sql = format!("EVALUATE {udf}('t') WITH (backend = fpga);");
    db.execute_statement(&sql)
        .unwrap()
        .eval_report()
        .unwrap()
        .clone()
}

#[test]
fn one_shard_training_is_bit_identical_to_serial_across_zoo_and_modes() {
    for algo in ZOO {
        let spec = spec_for(algo, 4);
        let db = || {
            let db = fresh_dana();
            db.create_table("t", one_page_heap(algo)).unwrap();
            db.prewarm("t").unwrap();
            db.deploy(&spec, "t").unwrap();
            db
        };
        // Serial reference.
        let serial = execute(&db(), &spec.name, "t");
        // One-member gang on a fresh system.
        let gang_db = db();
        let gang = run(&gang_db, &two_member_execute(&gang_db, &spec.name));
        assert_eq!(
            gang.models, serial.models,
            "{algo:?}: models must be bit-identical"
        );
        assert_eq!(gang.engine, serial.engine, "{algo:?}: stats");
        assert_eq!(gang.timing, serial.timing, "{algo:?}: simulated timing");
        assert_eq!(gang.shards, 1);
    }
}

#[test]
fn one_shard_execute_matches_serial() {
    let spec = spec_for(Algorithm::Linear, 8);
    let core = || {
        let c = fresh_core();
        c.create_table("t", one_page_heap(Algorithm::Linear))
            .unwrap();
        c.deploy(&spec, "t").unwrap();
        c
    };
    let c1 = core();
    let serial = execute(&c1, "linearR", "t");
    let c2 = core();
    let gang = run(&c2, &two_member_execute(&c2, "linearR"));
    assert_eq!(gang.models, serial.models);
    assert_eq!(gang.engine, serial.engine);
    assert_eq!(gang.timing, serial.timing);
    // Gang training stores the trained model: PREDICT binds it.
    assert!(c2
        .execute_statement("PREDICT linearR('t') INTO 'p';")
        .is_ok());
    assert_eq!(c2.held_frames(), 0, "gang scans must release every frame");
}

fn rows_of(core: &SystemCore, table: &str) -> Vec<Vec<f32>> {
    let heap = core.table_snapshot(table).unwrap();
    let batch = heap.scan_batch().unwrap();
    batch.rows().map(|r| r.to_vec()).collect()
}

#[test]
fn parallel_predict_is_bit_identical_for_every_shard_count() {
    for algo in ZOO {
        let spec = spec_for(algo, 6);
        let udf = spec.name.clone();
        let db = fresh_dana();
        db.create_table("t", heap_for(algo, 900)).unwrap();
        db.deploy(&spec, "t").unwrap();
        execute(&db, &udf, "t");

        let serial = db
            .execute_statement(&format!(
                "PREDICT dana.{udf}('t') INTO 'p_serial' WITH (backend = fpga);"
            ))
            .unwrap();
        let serial = serial.predict_report().unwrap();
        let reference = rows_of(&db, "p_serial");
        for k in [1u16, 2, 4] {
            let dest = format!("p_{k}");
            let report = db
                .execute_statement(&format!(
                    "PREDICT dana.{udf}('t') INTO '{dest}' WITH (shards = {k});"
                ))
                .unwrap();
            let report = report.predict_report().unwrap();
            assert_eq!(report.rows_scored, serial.rows_scored, "{algo:?} k={k}");
            assert_eq!(report.shards, k, "{algo:?}: plan must honor the request");
            assert_eq!(
                rows_of(&db, &dest),
                reference,
                "{algo:?}: {k}-shard prediction table differs from serial"
            );
            // One shard reproduces the serial simulated timing exactly.
            if k == 1 {
                assert_eq!(report.timing, serial.timing, "{algo:?}");
                assert_eq!(report.scoring, serial.scoring, "{algo:?}");
            }
        }

        // Sharded EVALUATE: k = 1 bit-identical; k > 1 same metric to
        // tight f64 tolerance (fold order differs across shards only).
        let evaluate_sharded = |k: u16| {
            db.execute_statement(&format!("EVALUATE dana.{udf}('t') WITH (shards = {k});"))
                .unwrap()
                .eval_report()
                .unwrap()
                .clone()
        };
        let es = evaluate(&db, &udf);
        let e1 = evaluate_sharded(1);
        assert_eq!(e1.value, es.value, "{algo:?}: 1-shard EVALUATE");
        assert_eq!(e1.metric, es.metric);
        for k in [2u16, 4] {
            let ek = evaluate_sharded(k);
            assert!(
                (ek.value - es.value).abs() <= es.value.abs() * 1e-12 + 1e-12,
                "{algo:?} k={k}: {} vs {}",
                ek.value,
                es.value
            );
            assert_eq!(ek.rows_scored, es.rows_scored);
        }
    }
}

#[test]
fn concurrent_core_scoring_matches_serial_for_every_shard_count() {
    let spec = spec_for(Algorithm::Logistic, 6);
    let core = fresh_core();
    core.create_table("t", heap_for(Algorithm::Logistic, 800))
        .unwrap();
    core.deploy(&spec, "t").unwrap();
    execute(&core, "logisticR", "t");
    // The prediction column (the last) of a materialized table.
    let predictions = |table: &str| -> Vec<f32> {
        let rows = rows_of(&core, table);
        rows.iter().map(|r| *r.last().unwrap()).collect()
    };
    core.execute_statement("PREDICT dana.logisticR('t') INTO 'ps' WITH (backend = fpga);")
        .unwrap();
    let serial = predictions("ps");
    // Every gang materializes identically through the write-locked
    // install path.
    for k in [1u16, 2, 4] {
        let dest = format!("p{k}");
        let sql = format!("PREDICT dana.logisticR('t') INTO '{dest}' WITH (shards = {k});");
        let report = core.execute_statement(&sql).unwrap();
        assert_eq!(report.predict_report().unwrap().shards, k);
        assert_eq!(predictions(&dest), serial, "{k}-shard prediction column");
    }
    assert_eq!(core.held_frames(), 0);
}

#[test]
fn multi_shard_training_is_reproducible_and_still_learns() {
    for algo in ZOO {
        // LRMF's shared R factor averages contended-row updates across
        // the gang each epoch (a k-times-smaller effective step), so its
        // sharded run gets proportionally more epochs.
        let spec = spec_for(algo, if algo == Algorithm::Lrmf { 40 } else { 10 });
        let udf = spec.name.clone();
        let run = || {
            let db = fresh_dana();
            db.create_table("t", heap_for(algo, 900)).unwrap();
            db.deploy(&spec, "t").unwrap();
            let out = db
                .execute_statement(&format!("EXECUTE dana.{udf}('t') WITH (shards = 4);"))
                .unwrap();
            let dana::QueryResponse::Trained(t) = out else {
                panic!("expected train outcome");
            };
            (t, evaluate(&db, &udf).value)
        };
        let (a, loss_a) = run();
        let (b, loss_b) = run();
        assert_eq!(
            a.models, b.models,
            "{algo:?}: sharded training must be reproducible"
        );
        assert_eq!(loss_a, loss_b, "{algo:?}");
        assert_eq!(a.shards, 4, "{algo:?}: gang actually sharded");
        assert!(loss_a.is_finite(), "{algo:?}");

        // Loss parity: the data-parallel model lands in the same quality
        // regime as serial training. The dense zoo problems are convex —
        // model averaging tracks the serial optimum closely. LRMF is
        // non-convex and its contended factor rows advance at an
        // averaged (k-times-smaller) step, so the bound there is "still
        // clearly learning": far below the no-model baseline (predicting
        // 0 for every rating ≈ the rating RMS, ~2.6 on this data).
        let db = fresh_dana();
        db.create_table("t", heap_for(algo, 900)).unwrap();
        db.deploy(&spec, "t").unwrap();
        execute(&db, &udf, "t");
        let serial_loss = evaluate(&db, &udf).value;
        match algo {
            Algorithm::Lrmf => assert!(
                loss_a < 1.0,
                "{algo:?}: sharded RMSE {loss_a} is not meaningfully below the ~2.6 baseline"
            ),
            _ => {
                let (worse, better) = (loss_a.max(serial_loss), loss_a.min(serial_loss));
                assert!(
                    (worse - better).abs() <= 0.35 * better.abs() + 0.15,
                    "{algo:?}: sharded loss {loss_a} too far from serial {serial_loss}"
                );
            }
        }
    }
}
