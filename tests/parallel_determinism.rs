//! Intra-query parallelism determinism suite: what the statement matrix
//! cannot express.
//!
//! `tests/statements.rs` holds every gang's models, predictions and
//! metrics to one oracle. These tests hold what a cell cannot state:
//!
//! * the epoch-boundary merge is a pure function of (partials, shard
//!   indices) — **every completion-order permutation** of partial-model
//!   arrival yields bit-identical merged models;
//! * a plan asking for more members than the table has pages (edited
//!   after bind) runs **one member, bit-identical to the serial path** —
//!   models, engine stats, and simulated timing — for all four zoo
//!   models, stores its model and releases every frame;
//! * multi-shard training still learns.

use dana::prelude::*;
use dana::{parse_statement, EvalReport, PhysicalPlan, QueryCtx, SystemCore, Work};
use dana_parallel::{MergeBuffer, MergeSpec, ShardOwnership};

mod common;
use common::{core, execute, zoo_heap, zoo_spec, PAGE, ZOO};

/// Compiles a zoo spec against its table and returns the engine design
/// (for merge-spec derivation straight off a *real* deployed design).
fn compiled_design(algo: Algorithm) -> dana_engine::EngineDesign {
    let spec = zoo_spec(algo, 1);
    let heap = zoo_heap(algo, 300);
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

/// A one-page table: whatever gang a plan asks for, the shard planner
/// gives it one member. (`bind` clamps such a request up front; a plan
/// edited after bind — or a table replaced between bind and run —
/// reaches the gang executor with it.)
fn one_page_heap(algo: Algorithm) -> HeapFile {
    let heap = zoo_heap(algo, 100);
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
        let spec = zoo_spec(algo, 4);
        let db = || {
            let db = core(PAGE);
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
        // Gang training stores the trained model: PREDICT binds it.
        let predict = format!("PREDICT {}('t') INTO 'p';", spec.name);
        assert!(gang_db.execute_statement(&predict).is_ok(), "{algo:?}");
        assert_eq!(
            gang_db.held_frames(),
            0,
            "gang scans must release every frame"
        );
    }
}

/// A four-member gang's model lands in the same quality regime as serial
/// training. (`tests/statements.rs` holds gang models to the oracle bit
/// for bit; this holds the oracle's semantics to learning at all.)
#[test]
fn multi_shard_training_still_learns() {
    for algo in ZOO {
        // LRMF's shared R factor averages contended-row updates across
        // the gang each epoch (a k-times-smaller effective step), so its
        // sharded run gets proportionally more epochs.
        let spec = zoo_spec(algo, if algo == Algorithm::Lrmf { 40 } else { 10 });
        let udf = spec.name.clone();
        let db = core(PAGE);
        db.create_table("t", zoo_heap(algo, 900)).unwrap();
        db.deploy(&spec, "t").unwrap();
        let sharded = format!("EXECUTE dana.{udf}('t') WITH (shards = 4);");
        let report = db.execute_statement(&sharded).unwrap();
        assert_eq!(
            report.report().unwrap().shards,
            4,
            "{algo:?}: gang actually sharded"
        );
        let loss = evaluate(&db, &udf).value;
        assert!(loss.is_finite(), "{algo:?}");

        // The dense zoo problems are convex — model averaging tracks the
        // serial optimum closely. LRMF is non-convex and its contended
        // factor rows advance at an averaged (k-times-smaller) step, so the
        // bound there is "still clearly learning": far below the no-model
        // baseline (predicting 0 for every rating ≈ the rating RMS, ~2.6 on
        // this data).
        if algo == Algorithm::Lrmf {
            assert!(
                loss < 1.0,
                "{algo:?}: sharded RMSE {loss} is not meaningfully below the ~2.6 baseline"
            );
            continue;
        }
        execute(&db, &udf, "t");
        let serial_loss = evaluate(&db, &udf).value;
        let (worse, better) = (loss.max(serial_loss), loss.min(serial_loss));
        assert!(
            (worse - better).abs() <= 0.35 * better.abs() + 0.15,
            "{algo:?}: sharded loss {loss} too far from serial {serial_loss}"
        );
    }
}
