//! Backend differential suite — the acceptance gate for the pluggable
//! execution backends.
//!
//! The CPU tier's correctness contract is **bit-identity** with the
//! simulated-FPGA tier: both backends run the identical deploy-time
//! [`LoweredProgram`] over the identical SoA workspace, so trained
//! models, engine counters, materialized predictions, and metrics must
//! match bit-for-bit — only the cost accounting differs (measured wall
//! seconds vs simulated cycle-model seconds). These tests hold the
//! backends to that contract for every zoo model (linear regression,
//! logistic regression, SVM, LRMF) across lockstep lane counts 1/4/16,
//! through both the engine-level [`Backend`] value and the
//! full `WITH (backend = …)` SQL front door, plus proptest-randomized
//! dense programs.

use std::sync::Arc;

use proptest::prelude::*;

use dana::exec::initial_models;
use dana::prelude::*;
use dana_compiler::{schedule_hdfg, ScheduleParams};
use dana_dsl::zoo::{self, Algorithm, DenseParams, LrmfParams};
use dana_engine::{Backend, ExecutionEngine, ModelStore};
use dana_hdfg::translate;
use dana_storage::page::TupleDirection;
use dana_storage::{BufferPoolConfig, HeapFileBuilder, OneBatchSource, Schema, TupleBatch};

const PAGE: usize = 8 * 1024;
const LANES: [u16; 3] = [1, 4, 16];

fn system() -> Dana {
    Dana::new(
        FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size: PAGE,
        },
        DiskModel::ssd(),
    )
}

/// A deterministic dense training table: `d` features + label.
fn dense_heap(n: usize, d: usize, algo: Algorithm) -> HeapFile {
    let truth: Vec<f32> = (0..d).map(|i| 0.35 * i as f32 - 0.9).collect();
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let x: Vec<f32> = (0..d)
            .map(|i| (((k * 11 + i * 5) % 17) as f32 - 8.0) / 8.0)
            .collect();
        let s: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        let y = match algo {
            Algorithm::Linear => s,
            Algorithm::Logistic => {
                if s > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Algorithm::Svm => {
                if s > 0.0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Algorithm::Lrmf => unreachable!("dense heap"),
        };
        b.insert(&Tuple::training(&x, y)).unwrap();
    }
    b.finish()
}

/// A deterministic rating table within `rows × cols`.
fn rating_heap(n: usize, rows: usize, cols: usize) -> HeapFile {
    let mut b = HeapFileBuilder::new(Schema::rating(), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let i = (k * 7) % rows;
        let j = (k * 13) % cols;
        let r = 1.0 + ((i * 3 + j * 5) % 4) as f32;
        b.insert(&Tuple::rating(i as i32, j as i32, r)).unwrap();
    }
    b.finish()
}

/// Deterministic pseudo-random tuple values in [-1, 1).
fn synth_tuples(n: usize, width: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|k| {
            (0..width)
                .map(|i| {
                    let h = (k as u64 ^ seed)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                    let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                })
                .collect()
        })
        .collect()
}

/// Runs both backends over the same engine + tuple stream and asserts
/// models and counters are bit-identical, with the cost units in the
/// right slots (wall time only on the CPU tier).
fn assert_backends_identical(engine: &Arc<ExecutionEngine>, tuples: &[Vec<f32>], label: &str) {
    let design = engine.design();
    let batch = TupleBatch::from_rows(tuples[0].len(), tuples);

    let fpga = Backend::new(BackendKind::Fpga, Arc::clone(engine));
    let mut fpga_store = ModelStore::new(design, initial_models(design)).unwrap();
    let mut src = OneBatchSource::new(&batch);
    let fpga_run = fpga.run_training(&mut src, &mut fpga_store).unwrap();

    let cpu = Backend::new(BackendKind::Cpu, Arc::clone(engine));
    let mut cpu_store = ModelStore::new(design, initial_models(design)).unwrap();
    let mut src = OneBatchSource::new(&batch);
    let cpu_run = cpu.run_training(&mut src, &mut cpu_store).unwrap();

    assert_eq!(cpu_store, fpga_store, "{label}: models diverged");
    assert_eq!(cpu_run.stats, fpga_run.stats, "{label}: counters diverged");
    assert!(fpga_run.wall_seconds.is_none(), "{label}: FPGA has no wall");
    assert!(cpu_run.wall_seconds.is_some(), "{label}: CPU must be timed");
}

/// Engine-level lane sweep: every dense zoo model × lockstep lanes
/// 1/4/16 trains bit-identically on both backends.
#[test]
fn dense_zoo_models_bit_identical_across_lanes() {
    for algo in [Algorithm::Linear, Algorithm::Logistic, Algorithm::Svm] {
        let spec = zoo::spec_for(
            algo,
            DenseParams {
                n_features: 10,
                learning_rate: 0.1,
                merge_coef: 8,
                epochs: 4,
            },
        )
        .unwrap();
        for lanes in LANES {
            let design = schedule_hdfg(
                &translate(&spec),
                ScheduleParams {
                    num_threads: lanes,
                    acs_per_thread: 2,
                    slots_per_au: 4096,
                    bus_lanes: 2,
                },
            )
            .unwrap()
            .0;
            let engine = Arc::new(ExecutionEngine::new(design).unwrap());
            let tuples = synth_tuples(300, 11, 0xD05E ^ lanes as u64);
            assert_backends_identical(&engine, &tuples, &format!("{:?} × {lanes} lanes", algo));
        }
    }
}

/// Engine-level LRMF: the per-tuple region gathers model rows but never
/// scatters (write-back is a `Row` model write after the region), so it
/// runs the lockstep executor's per-lane gather arm — bit-identical across
/// backends for every feasible lane count.
#[test]
fn lrmf_bit_identical_across_lanes() {
    let (rows, cols, rank) = (20usize, 14usize, 6usize);
    let spec = zoo::lrmf(LrmfParams {
        rows,
        cols,
        rank,
        learning_rate: 0.05,
        merge_coef: 4,
        epochs: 3,
    })
    .unwrap();
    let heap = rating_heap(500, rows, cols);
    let batch = heap.scan_batch().unwrap();
    let tuples: Vec<Vec<f32>> = batch.rows().map(|r| r.to_vec()).collect();
    let mut feasible = 0;
    for lanes in LANES {
        let Ok((design, _)) = schedule_hdfg(
            &translate(&spec),
            ScheduleParams {
                num_threads: lanes,
                acs_per_thread: 2,
                slots_per_au: 4096,
                bus_lanes: 2,
            },
        ) else {
            continue; // structurally infeasible (threads, shape) point
        };
        let engine = Arc::new(ExecutionEngine::new(design).unwrap());
        assert_backends_identical(&engine, &tuples, &format!("lrmf × {lanes} lanes"));
        feasible += 1;
    }
    assert!(feasible > 0, "no feasible LRMF lane count");
}

/// Full-pipeline differential through the SQL front door: for every zoo
/// model, `WITH (backend = cpu)` trains bit-identically to
/// `WITH (backend = fpga)`, PREDICT materializes bit-identical
/// prediction tables on both tiers, and EVALUATE agrees exactly.
#[test]
fn sql_backends_agree_end_to_end() {
    for algo in [Algorithm::Linear, Algorithm::Logistic, Algorithm::Svm] {
        let db = system();
        db.create_table("t", dense_heap(700, 12, algo)).unwrap();
        let spec = zoo::spec_for(
            algo,
            DenseParams {
                n_features: 12,
                learning_rate: 0.1,
                merge_coef: 8,
                epochs: 6,
            },
        )
        .unwrap();
        let udf = spec.name.clone();
        db.deploy(&spec, "t").unwrap();

        let fpga = db
            .execute_statement(&format!(
                "SELECT * FROM dana.{udf}('t') WITH (backend = fpga);"
            ))
            .unwrap();
        let cpu = db
            .execute_statement(&format!(
                "SELECT * FROM dana.{udf}('t') WITH (backend = cpu);"
            ))
            .unwrap();
        assert_eq!(fpga.report().unwrap().backend, BackendKind::Fpga);
        assert_eq!(cpu.report().unwrap().backend, BackendKind::Cpu);
        assert_eq!(
            cpu.report().unwrap().models,
            fpga.report().unwrap().models,
            "{udf}: training"
        );
        assert_eq!(
            cpu.report().unwrap().engine.cycles,
            fpga.report().unwrap().engine.cycles
        );
        // Cost units live in distinct slots.
        assert!(fpga.report().unwrap().timing.total_seconds > 0.0);
        assert!(fpga.report().unwrap().timing.wall_seconds.is_none());
        assert_eq!(cpu.report().unwrap().timing.total_seconds, 0.0);
        assert!(cpu.report().unwrap().timing.wall_seconds.is_some());

        // Scoring tiers: bit-identical materialized predictions.
        let pf = db
            .execute_statement(&format!(
                "PREDICT dana.{udf}('t') INTO 'pf' WITH (backend = fpga);"
            ))
            .unwrap();
        let pf = pf.predict_report().unwrap();
        let pc = db
            .execute_statement(&format!(
                "PREDICT dana.{udf}('t') INTO 'pc' WITH (backend = cpu);"
            ))
            .unwrap();
        let pc = pc.predict_report().unwrap();
        assert_eq!(pf.backend, BackendKind::Fpga);
        assert_eq!(pc.backend, BackendKind::Cpu);
        assert_eq!(pf.rows_scored, pc.rows_scored);
        let scan = |db: &Dana, t: &str| -> Vec<f32> {
            db.table_snapshot(t)
                .unwrap()
                .scan_batch()
                .unwrap()
                .rows()
                .map(|r| r[13])
                .collect()
        };
        assert_eq!(scan(&db, "pf"), scan(&db, "pc"), "{udf}: predictions");

        // Metrics agree exactly.
        let ef = db
            .execute_statement(&format!("EVALUATE dana.{udf}('t') WITH (backend = fpga);"))
            .unwrap();
        let ef = ef.eval_report().unwrap();
        let ec = db
            .execute_statement(&format!("EVALUATE dana.{udf}('t') WITH (backend = cpu);"))
            .unwrap();
        let ec = ec.eval_report().unwrap();
        assert_eq!(ec.value, ef.value, "{udf}: metric");
        assert_eq!(ec.metric, ef.metric);
    }

    // LRMF through the same front door (training + metric; factor models
    // live in two variables).
    let db = system();
    db.create_table("ratings", rating_heap(600, 24, 18))
        .unwrap();
    let spec = zoo::lrmf(LrmfParams {
        rows: 24,
        cols: 18,
        rank: 8,
        learning_rate: 0.05,
        merge_coef: 4,
        epochs: 4,
    })
    .unwrap();
    db.deploy(&spec, "ratings").unwrap();
    let fpga = db
        .execute_statement("SELECT * FROM dana.lrmf('ratings') WITH (backend = fpga);")
        .unwrap();
    let cpu = db
        .execute_statement("SELECT * FROM dana.lrmf('ratings') WITH (backend = cpu);")
        .unwrap();
    assert_eq!(
        cpu.report().unwrap().models,
        fpga.report().unwrap().models,
        "lrmf: factors"
    );
    assert_eq!(cpu.report().unwrap().backend, BackendKind::Cpu);
    let ef = db
        .execute_statement("EVALUATE dana.lrmf('ratings') WITH (backend = fpga);")
        .unwrap();
    let ef = ef.eval_report().unwrap();
    let ec = db
        .execute_statement("EVALUATE dana.lrmf('ratings') WITH (backend = cpu);")
        .unwrap();
    let ec = ec.eval_report().unwrap();
    assert_eq!(ec.value, ef.value, "lrmf: metric");
}

proptest! {
    /// Random dense programs (linear / logistic / SVM), random shapes,
    /// hyper-parameters, and lockstep lane counts: the CPU backend is
    /// bit-identical to the simulated-FPGA backend.
    #[test]
    fn cpu_backend_bit_identical_on_random_dense_programs(
        algo in prop::sample::select(vec![0usize, 1, 2]),
        features in 2usize..24,
        n in 1usize..120,
        threads in prop::sample::select(vec![1u16, 4, 16]),
        learning_rate in 0.01f64..0.5,
        merge_coef in prop::sample::select(vec![1u32, 4, 8, 16]),
        epochs in 1u32..4,
        seed in 0u64..1_000_000,
    ) {
        let p = DenseParams { n_features: features, learning_rate, merge_coef, epochs };
        let spec = match algo {
            0 => zoo::linear_regression(p),
            1 => zoo::logistic_regression(p),
            _ => zoo::svm(p),
        }
        .unwrap();
        let scheduled = schedule_hdfg(
            &translate(&spec),
            ScheduleParams {
                num_threads: threads,
                acs_per_thread: 2,
                slots_per_au: 4096,
                bus_lanes: 2,
            },
        );
        // Some (threads, shape) points are structurally infeasible — skip.
        prop_assume!(scheduled.is_ok());
        let engine = Arc::new(ExecutionEngine::new(scheduled.unwrap().0).unwrap());
        let tuples = synth_tuples(n, features + 1, seed);
        assert_backends_identical(
            &engine,
            &tuples,
            &format!("algo {algo}, {features}f × {n}t, {threads} threads"),
        );
    }
}
