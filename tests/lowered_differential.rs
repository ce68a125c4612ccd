//! Randomized differential tests for the deploy-time-lowered SoA
//! executor.
//!
//! The lowered executor is the only training executor; its correctness
//! contract is *bit-identity* with the rows reference interpreter
//! (`run_training_rows`, which shares no code with the lowering pass) in
//! both trained models and cycle stats. These properties fuzz that contract
//! over randomized small DSL programs (linear/logistic/SVM and LRMF's
//! row-gathering programs), lockstep thread counts 1/4/16/64 (64 is the
//! width every benchmark design runs at), random tuple streams cut into
//! uneven batches, and every execution mode of the full `Dana` pipeline.

use proptest::prelude::*;

use dana::exec::initial_models;
use dana::prelude::*;
use dana_compiler::{schedule_hdfg, ScheduleParams};
use dana_dsl::zoo::{linear_regression, logistic_regression, svm, DenseParams};
use dana_engine::{ExecutionEngine, ModelStore};
use dana_hdfg::translate;
use dana_parallel::ReplaySource;
use dana_storage::{BufferPoolConfig, TupleBatch};
use dana_workloads::{generate, workload};

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

/// Runs the lowered executor and the rows reference on the same design +
/// tuples and asserts models and stats are bit-identical.
fn assert_lowered_matches_rows(engine: &ExecutionEngine, tuples: &[Vec<f32>], label: &str) {
    assert_streamed_matches_rows(engine, tuples, &[tuples.len()], label);
}

/// [`assert_lowered_matches_rows`] with the tuples delivered as several
/// batches, their sizes cycling through `cuts`.
fn assert_streamed_matches_rows(
    engine: &ExecutionEngine,
    tuples: &[Vec<f32>],
    cuts: &[usize],
    label: &str,
) {
    let design = engine.design();
    let width = tuples[0].len();
    let mut batches = Vec::new();
    let mut rest = tuples;
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(cut.min(rest.len()));
        batches.push(TupleBatch::from_rows(width, head));
        rest = tail;
    }
    let mut source = ReplaySource::new(width, batches);

    let mut lowered = ModelStore::new(design, initial_models(design)).unwrap();
    let lowered_stats = engine.run_training(&mut source, &mut lowered).unwrap();

    let mut rows = ModelStore::new(design, initial_models(design)).unwrap();
    let rows_stats = engine.run_training_rows(tuples, &mut rows).unwrap();

    assert_eq!(lowered, rows, "{label}: lowered vs rows models");
    assert_eq!(lowered_stats, rows_stats, "{label}: stats vs rows");
}

proptest! {
    /// Random dense programs (linear / logistic / SVM), random shapes and
    /// hyper-parameters, lockstep thread counts 1/4/16/64: the lowered SoA
    /// executor is bit-identical to the rows reference.
    #[test]
    fn lowered_is_bit_identical_on_random_dense_programs(
        algo in prop::sample::select(vec![0usize, 1, 2]),
        features in 2usize..24,
        n in 1usize..120,
        threads in prop::sample::select(vec![1u16, 4, 16, 64]),
        learning_rate in 0.01f64..0.5,
        merge_coef in prop::sample::select(vec![1u32, 4, 8, 16]),
        epochs in 1u32..4,
        seed in 0u64..1_000_000,
    ) {
        let p = DenseParams { n_features: features, learning_rate, merge_coef, epochs };
        let spec = match algo {
            0 => linear_regression(p),
            1 => logistic_regression(p),
            _ => svm(p),
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
        let design = scheduled.unwrap();
        let engine = ExecutionEngine::new(design).unwrap();
        let tuples = synth_tuples(n, features + 1, seed);
        assert_lowered_matches_rows(
            &engine,
            &tuples,
            &format!("algo {algo}, {features}f × {n}t, {threads} threads"),
        );
    }

    /// Random LRMF programs: the per-tuple region gathers model rows (and
    /// writes them back with `Row` model writes after it — it never
    /// scatters), driving the lockstep executor's per-lane gather arm at
    /// thread counts 1/2/4/64. Still bit-identical to the reference.
    #[test]
    fn lowered_is_bit_identical_on_random_lrmf_programs(
        rows in 6usize..30,
        cols in 5usize..24,
        rank in 2usize..6,
        n in 1usize..150,
        merge_coef in prop::sample::select(vec![1u32, 2, 4, 64]),
        epochs in 1u32..3,
        seed in 0u64..1_000_000,
    ) {
        let mut w = workload("Netflix").unwrap();
        w.lrmf = Some((rows, cols, rank));
        w.tuples = n as u64;
        w.epochs = epochs;
        w.merge_coef = merge_coef;
        w.learning_rate = 0.05;
        let table = generate(&w, 32 * 1024, seed).unwrap();
        let batch = table.heap.scan_batch().unwrap();
        let tuples: Vec<Vec<f32>> = batch.rows().map(|r| r.to_vec()).collect();
        // The merge coefficient is the thread count asked for (the DSE
        // would settle on fewer).
        let acc = dana_compiler::compile_with_threads(
            &dana_compiler::CompileInput {
                hdfg: &translate(&w.spec()),
                fpga: FpgaSpec::vu9p(),
                layout: *table.heap.layout(),
                schema_columns: table.heap.schema().len(),
                expected_tuples: table.heap.tuple_count(),
            },
            merge_coef,
        )
        .unwrap();
        assert_lowered_matches_rows(
            &acc.engine,
            &tuples,
            &format!("lrmf {rows}×{cols} rank {rank}, {n}t"),
        );
    }

    /// Batch boundaries carry no meaning: the same tuples delivered as
    /// several uneven batches — groups straddling batch boundaries, a
    /// partial last group, merge slot counts below and off the merge's
    /// interleave width of 8 — train bit-identically, models and stats.
    #[test]
    fn lowered_is_bit_identical_across_uneven_batches(
        algo in prop::sample::select(vec![0usize, 1, 2]),
        features in 2usize..24,
        threads in prop::sample::select(vec![4u16, 16, 64]),
        full_groups in 0usize..4,
        partial in 0usize..63,
        cuts in prop::collection::vec(1usize..90, 1..6),
        epochs in 1u32..3,
        seed in 0u64..1_000_000,
    ) {
        let p = DenseParams { n_features: features, learning_rate: 0.1, merge_coef: 64, epochs };
        let spec = match algo {
            0 => linear_regression(p),
            1 => logistic_regression(p),
            _ => svm(p),
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
        prop_assume!(scheduled.is_ok());
        let engine = ExecutionEngine::new(scheduled.unwrap()).unwrap();
        let threads = threads as usize;
        let n = full_groups * threads + 1 + partial % (threads - 1);
        let tuples = synth_tuples(n, features + 1, seed);
        assert_streamed_matches_rows(
            &engine,
            &tuples,
            &cuts,
            &format!("algo {algo}, {features}f × {n}t in {cuts:?}, {threads} threads"),
        );
    }

    /// The full pipeline across every execution mode: `train_with_spec`
    /// (now the lowered executor) stays bit-identical to the retained
    /// `train_with_spec_reference` rows pipeline, for random workload
    /// shapes, in Strider, CpuFed, and Tabla modes.
    #[test]
    fn modes_agree_with_reference_on_random_workloads(
        name in prop::sample::select(vec!["Remote Sensing LR", "Patient"]),
        scale in prop::sample::select(vec![0.001f64, 0.002]),
        epochs in 1u32..3,
        merge_coef in prop::sample::select(vec![4u32, 8]),
        seed in 0u64..1_000_000,
    ) {
        let mut w = workload(name).unwrap().scaled(scale);
        w.epochs = epochs;
        w.merge_coef = merge_coef;
        let table = generate(&w, 32 * 1024, seed).unwrap();
        let db = Dana::new(
            FpgaSpec::vu9p(),
            BufferPoolConfig {
                pool_bytes: 64 << 20,
                page_size: 32 * 1024,
            },
            DiskModel::ssd(),
        );
        db.create_table("t", table.heap).unwrap();
        db.prewarm("t").unwrap();
        let spec = w.spec();
        for mode in [ExecutionMode::Strider, ExecutionMode::CpuFed, ExecutionMode::Tabla] {
            let lowered = db.train_with_spec(&spec, "t", mode).unwrap();
            let reference = db.train_with_spec_reference(&spec, "t", mode).unwrap();
            assert_eq!(
                lowered.models, reference,
                "{name} @ {scale}, {mode:?}: lowered pipeline diverged from reference"
            );
        }
        db.drop_table("t").unwrap();
    }
}
