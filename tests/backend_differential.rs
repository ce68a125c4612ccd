//! Backend differential suite: what the statement matrix cannot express.
//!
//! The CPU tier's correctness contract is **bit-identity** with the
//! simulated-FPGA tier: both backends run the identical deploy-time
//! lowered program over the identical SoA workspace, so trained models
//! and engine counters must match bit for bit — only the cost accounting
//! differs (measured wall seconds vs simulated cycle-model seconds).
//! `tests/statements.rs` holds both tiers to one oracle through the SQL
//! front door; these tests hold the engine-level [`Backend`] values to
//! each other across lockstep lane counts 1/4/16 for every zoo model, and
//! on proptest-randomized dense programs.

use std::sync::Arc;

use proptest::prelude::*;

use dana::exec::initial_models;
use dana::prelude::*;
use dana_compiler::{schedule_hdfg, ScheduleParams};
use dana_dsl::zoo::{self, Algorithm, DenseParams, LrmfParams};
use dana_engine::{Backend, ExecutionEngine, ModelStore};
use dana_hdfg::translate;
use dana_storage::{OneBatchSource, TupleBatch};

mod common;
use common::{rating_heap, rating_rows};

const LANES: [u16; 3] = [1, 4, 16];

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
    let heap = rating_heap(&rating_rows(500, rows, cols, false));
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
