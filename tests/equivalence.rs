//! Equivalence tests: the accelerator path must compute exactly what the
//! training oracle computes — `dana_ml::train_spec`, the DSL interpreter
//! that folds every reduction in the order the compiler recorded — and the
//! static estimators must match the cycle-accurate executor — the paper's
//! "<5% of physical measurements" claim, held to 0% here because both
//! sides share the static schedule.

use dana::prelude::*;
use dana_compiler::{compile, compile_with_threads, CompileInput, CompiledAccelerator};
use dana_dsl::AlgoSpec;
use dana_engine::{ExecutionEngine, ModelStore};
use dana_fpga::FpgaSpec;
use dana_hdfg::translate;
use dana_ml::{train_spec, Algorithm};
use dana_storage::TupleBatch;
use dana_strider::{AccessEngine, AccessEngineConfig};
use dana_workloads::{generate, workload, Workload};

mod common;
use common::execute;

/// Compiles `w`'s spec for `table` as DEPLOY does, or at an explicit
/// thread count.
fn compile_for(
    w: &Workload,
    table: &dana_workloads::GeneratedTable,
    threads: Option<u32>,
) -> CompiledAccelerator {
    let hdfg = translate(&w.spec());
    let input = CompileInput {
        hdfg: &hdfg,
        fpga: FpgaSpec::vu9p(),
        layout: *table.heap.layout(),
        schema_columns: table.heap.schema().len(),
        expected_tuples: table.heap.tuple_count(),
    };
    match threads {
        Some(t) => compile_with_threads(&input, t),
        None => compile(&input),
    }
    .unwrap()
}

/// The oracle's models for `spec` over `batch`, at `acc`'s thread count
/// and fold order.
fn oracle(spec: &AlgoSpec, acc: &CompiledAccelerator, batch: &TupleBatch) -> Vec<Vec<f32>> {
    let mut models = dana::exec::initial_models(&acc.design);
    let threads = acc.design.num_threads as usize;
    train_spec(spec, &acc.fold_order, threads, batch, &mut models).unwrap();
    models
}

/// A small table of `name`'s shape (LRMF at 50×40, rank 10).
fn small_workload(name: &str, scale: f64) -> Workload {
    let mut w = workload(name).unwrap().scaled(scale);
    if w.algorithm == Algorithm::Lrmf {
        w.lrmf = Some((50, 40, 10));
        w.tuples = 2_000;
    }
    w
}

fn extract(table: &dana_workloads::GeneratedTable, striders: u32) -> TupleBatch {
    let engine = AccessEngine::for_table(
        *table.heap.layout(),
        table.heap.schema().clone(),
        AccessEngineConfig::new(
            striders,
            dana_fpga::Clock::FPGA_150MHZ,
            dana_fpga::AxiLink::with_bandwidth(2.5e9),
        ),
    );
    let (batch, _) = engine.extract_heap(&table.heap).unwrap();
    batch
}

/// Strider extraction must equal CPU deforming byte-for-byte, for every
/// algorithm's schema.
#[test]
fn strider_extraction_equals_cpu_scan() {
    for name in ["Remote Sensing LR", "Patient", "Netflix"] {
        let w = small_workload(name, 0.002);
        let table = generate(&w, 32 * 1024, 77).unwrap();
        let strider_batch = extract(&table, 4);
        let cpu_batch = table.heap.scan_batch().unwrap();
        assert_eq!(strider_batch, cpu_batch, "{name}");
    }
}

/// The streaming batch data path (pool → extract → engine, page by page)
/// must train the bit-identical model to the oracle over the whole table
/// (`HeapFile::scan_batch`), for all four zoo models — at the thread count
/// DEPLOY compiles to — and charge exactly the static estimate's cycles.
/// (One-thread schedules are held to the oracle by `lowered_differential`.)
#[test]
fn streaming_path_matches_reference_path_across_modes() {
    for (name, scale) in [
        ("Remote Sensing LR", 0.004),
        ("Remote Sensing SVM", 0.004),
        ("Patient", 0.01),
        ("Netflix", 1.0),
    ] {
        let mut w = small_workload(name, scale);
        w.epochs = 3;
        w.merge_coef = 8;
        let table = generate(&w, 32 * 1024, 123).unwrap();
        let batch = table.heap.scan_batch().unwrap();
        let db = Dana::new(
            FpgaSpec::vu9p(),
            BufferPoolConfig {
                pool_bytes: 256 << 20,
                page_size: 32 * 1024,
            },
            DiskModel::ssd(),
        );
        db.create_table("t", table.heap.clone()).unwrap();
        db.prewarm("t").unwrap();
        let spec = w.spec();
        db.deploy(&spec, "t").unwrap();
        let acc = compile_for(&w, &table, None);
        let streaming = execute(&db, &spec.name, "t");
        assert_eq!(streaming.num_threads, acc.design.num_threads, "{name}");
        assert_eq!(
            streaming.models,
            oracle(&spec, &acc, &batch),
            "{name}: batch path diverged from the oracle"
        );
        assert_eq!(
            streaming.engine.cycles,
            3 * acc.estimate.epoch_engine_cycles,
            "{name}: cycles vs the static estimate"
        );
    }
}

/// The six public Table-3 designs, compiled as `DEPLOY` compiles them for
/// the full-size tables, are all multi-lane designs — LRMF included — so
/// the one (lockstep) tier really runs them across lanes.
#[test]
fn public_table3_designs_all_run_lockstep() {
    for name in [
        "Remote Sensing LR",
        "WLAN",
        "Remote Sensing SVM",
        "Netflix",
        "Patient",
        "Blog Feedback",
    ] {
        let w = workload(name).unwrap();
        // The design depends on the spec, the page layout and the expected
        // row count — not on the rows: a 64-row table of the same shape
        // supplies the layout.
        let mut tiny = w.clone();
        tiny.tuples = 64;
        let table = generate(&tiny, 32 * 1024, 7).unwrap();
        let acc = compile(&CompileInput {
            hdfg: &translate(&w.spec()),
            fpga: FpgaSpec::vu9p(),
            layout: *table.heap.layout(),
            schema_columns: table.heap.schema().len(),
            expected_tuples: w.tuples,
        })
        .unwrap();
        assert!(acc.design.num_threads > 1, "{name}: a multi-lane design");
    }
}

/// Pool sharding changes locking, never results: an eight-shard core (the
/// serving default) must train the bit-identical model, with the
/// bit-identical cycle counts and simulated timing, to the embedded
/// one-shard `Dana` — for every zoo model.
#[test]
fn concurrent_core_matches_single_threaded_across_modes() {
    use dana::{SystemCore, SystemCoreConfig};

    for (name, scale) in [
        ("Remote Sensing LR", 0.004),
        ("Remote Sensing SVM", 0.004),
        ("Patient", 0.01),
        ("Netflix", 1.0),
    ] {
        let mut w = small_workload(name, scale);
        w.epochs = 3;
        w.merge_coef = 8;
        let pool = dana_storage::BufferPoolConfig {
            pool_bytes: 256 << 20,
            page_size: 32 * 1024,
        };

        let core = SystemCore::new(SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool,
            pool_shards: 8,
            disk: DiskModel::ssd(),
        });
        let db = Dana::new(FpgaSpec::vu9p(), pool, DiskModel::ssd());
        let spec = w.spec();
        for sys in [&core, &*db] {
            sys.create_table("t", generate(&w, 32 * 1024, 123).unwrap().heap)
                .unwrap();
            sys.prewarm("t").unwrap();
            sys.deploy(&spec, "t").unwrap();
        }

        let check = |label: &str, concurrent: DanaReport, serial: DanaReport| {
            assert_eq!(
                concurrent.models, serial.models,
                "{name}: {label} eight-shard run diverged from one-shard"
            );
            assert_eq!(concurrent.epochs_run, serial.epochs_run, "{name}: {label}");
            assert_eq!(
                concurrent.engine.cycles, serial.engine.cycles,
                "{name}: {label} cycle counts diverged"
            );
            assert_eq!(concurrent.timing, serial.timing, "{name}: {label} timing");
        };
        check(
            "deployed",
            execute(&core, &spec.name, "t"),
            execute(&db, &spec.name, "t"),
        );
        assert_eq!(core.held_frames(), 0, "{name}: leaked buffer-pool frames");
    }
}

/// The compiled engine, rebuilt from its design, must train the same
/// model as the oracle, for every dense algorithm, bit for bit.
#[test]
fn engine_model_matches_reference_dense() {
    for name in ["Patient", "Remote Sensing LR", "Remote Sensing SVM"] {
        let mut w = workload(name).unwrap().scaled(0.001);
        w.features = 24;
        w.epochs = 6;
        w.merge_coef = 8;
        w.learning_rate = 0.1;
        let table = generate(&w, 32 * 1024, 88).unwrap();
        let tuples = extract(&table, 2);

        let acc = compile_for(&w, &table, None);
        let engine = ExecutionEngine::new(acc.design.clone()).unwrap();
        let mut store = ModelStore::new(&acc.design, vec![vec![0.0; 24]]).unwrap();
        engine.run_training_batch(&tuples, &mut store).unwrap();

        assert_eq!(
            store.into_values(),
            oracle(&w.spec(), &acc, &tuples),
            "{name}: engine vs oracle"
        );
    }
}

/// The hardware generator's performance estimate must match the
/// cycle-accurate executor exactly, ragged last thread group included,
/// for all four zoo models.
#[test]
fn perf_estimator_matches_interpreter() {
    for name in ["WLAN", "Remote Sensing SVM", "Patient", "Netflix"] {
        let mut w = small_workload(name, 0.001);
        w.tuples = 1_001;
        w.epochs = 1;
        w.merge_coef = 8;
        let table = generate(&w, 32 * 1024, 99).unwrap();
        let tuples = extract(&table, 2);
        let acc = compile_for(&w, &table, Some(8));
        assert_ne!(tuples.len() % 8, 0, "{name}: a ragged last group");

        let init = dana::exec::initial_models(&acc.design);
        let mut store = ModelStore::new(&acc.design, init).unwrap();
        let stats = acc.engine.run_training_batch(&tuples, &mut store).unwrap();
        assert_eq!(
            stats.cycles, acc.estimate.epoch_engine_cycles,
            "{name}: estimator must be cycle-exact"
        );
    }
}

/// LRMF through the engine trains the oracle's factors bit for bit —
/// thread-batched scatters land in thread order on both sides — and
/// reduces RMSE.
#[test]
fn engine_lrmf_converges_like_reference() {
    let mut w = workload("Netflix").unwrap();
    w.lrmf = Some((40, 30, 6));
    w.tuples = 3_000;
    w.epochs = 15;
    w.merge_coef = 4;
    w.learning_rate = 0.05;
    let table = generate(&w, 32 * 1024, 101).unwrap();
    let tuples = extract(&table, 2);

    let acc = compile_for(&w, &table, None);
    let engine = ExecutionEngine::new(acc.design.clone()).unwrap();
    let init = dana::exec::initial_models(&acc.design);
    let mut store = ModelStore::new(&acc.design, init.clone()).unwrap();
    engine.run_training_batch(&tuples, &mut store).unwrap();
    let trained = store.into_values();
    assert_eq!(trained, oracle(&w.spec(), &acc, &tuples));

    let rmse = |m: &[Vec<f32>]| {
        let factors = dana_ml::LrmfModel {
            l: m[0].clone(),
            r: m[1].clone(),
            rows: 40,
            cols: 30,
            rank: 6,
        };
        dana_ml::metrics::lrmf_rmse(&factors, &tuples).unwrap()
    };
    let (before, after) = (rmse(&init), rmse(&trained));
    assert!(after < before, "rmse {before} → {after}");
}

/// A compiled Strider program survives the 22-bit ISA encoding — the check
/// DEPLOY runs before it accepts an accelerator.
#[test]
fn strider_program_survives_22_bit_encoding() {
    let w = {
        let mut w = workload("Blog Feedback").unwrap().scaled(0.002);
        w.features = 12;
        w
    };
    let table = generate(&w, 32 * 1024, 55).unwrap();
    let acc = compile_for(&w, &table, None);
    let words = dana_strider::isa::encode_program(&acc.strider_program).unwrap();
    let decoded = dana_strider::isa::decode_program(&words).unwrap();
    assert_eq!(acc.strider_program, decoded);
}
