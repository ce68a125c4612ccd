//! Ablation integration tests: the design choices DESIGN.md calls out,
//! verified at functional scale (their full-scale counterparts are the
//! Figure 11/12/14/16 bench targets).

use dana::prelude::*;
use dana::{analytic_dana, analytic_dana_threads, SystemParams};
use dana_workloads::{generate, workload};

fn db_with(table_name: &str, w: &dana_workloads::Workload, seed: u64) -> Dana {
    let table = generate(w, 32 * 1024, seed).unwrap();
    let db = Dana::new(
        FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 256 << 20,
            page_size: 32 * 1024,
        },
        DiskModel::ssd(),
    );
    db.create_table(table_name, table.heap).unwrap();
    db.prewarm(table_name).unwrap();
    db
}

/// Fig. 11 at functional scale: Striders beat the CPU-fed ablation and
/// both produce the identical model.
#[test]
fn strider_ablation_functional() {
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.005);
    w.epochs = 4;
    w.merge_coef = 16;
    let db = db_with("rs", &w, 1);
    let spec = w.spec();
    let with = db
        .train_with_spec(&spec, "rs", ExecutionMode::Strider)
        .unwrap();
    let without = db
        .train_with_spec(&spec, "rs", ExecutionMode::CpuFed)
        .unwrap();
    assert!(with.timing.total_seconds < without.timing.total_seconds);
    assert_eq!(
        with.models, without.models,
        "feeding path must not change the math"
    );
}

/// Fig. 16 at functional scale: TABLA (single-thread, CPU-fed) is slower
/// than DAnA and slower than the Strider-fed multi-thread design.
#[test]
fn tabla_ablation_functional() {
    let mut w = workload("Patient").unwrap().scaled(0.01);
    w.epochs = 3;
    w.merge_coef = 16;
    let db = db_with("patient", &w, 2);
    let spec = w.spec();
    let dana = db
        .train_with_spec(&spec, "patient", ExecutionMode::Strider)
        .unwrap();
    let tabla = db
        .train_with_spec(&spec, "patient", ExecutionMode::Tabla)
        .unwrap();
    assert_eq!(tabla.num_threads, 1);
    assert!(dana.num_threads > 1);
    assert!(tabla.engine.cycles > dana.engine.cycles);
    assert!(tabla.timing.total_seconds > dana.timing.total_seconds);
}

/// Fig. 12's shape at functional scale: more threads reduce engine cycles
/// for a narrow dense model, with diminishing returns.
#[test]
fn thread_scaling_functional() {
    let mut w = workload("Remote Sensing SVM").unwrap().scaled(0.003);
    w.epochs = 2;
    let db = db_with("rssvm", &w, 3);
    let mut cycles = Vec::new();
    for threads in [1u32, 4, 16] {
        let mut wt = w.with_merge_coef(threads);
        wt.learning_rate = w.learning_rate; // zoo scales lr by merge coef
        let spec = wt.spec();
        let report = db
            .train_with_spec(&spec, "rssvm", ExecutionMode::Strider)
            .unwrap();
        cycles.push(report.engine.cycles);
    }
    assert!(cycles[1] < cycles[0], "{cycles:?}");
    assert!(cycles[2] < cycles[1], "{cycles:?}");
    // (Saturation appears at higher thread counts; the full-scale sweep is
    // the fig12_threads bench target.)
}

/// Fig. 14's shape analytically: halving bandwidth hurts a wide dense
/// workload monotonically.
#[test]
fn bandwidth_monotonicity() {
    let w = workload("S/N Linear").unwrap();
    let p = SystemParams::default();
    let mut last = f64::INFINITY;
    for scale in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let t = analytic_dana(
            &w,
            ExecutionMode::Strider,
            true,
            &p.with_bandwidth_scale(scale),
        )
        .unwrap()
        .total_seconds;
        assert!(t <= last * 1.0001, "runtime must not grow with bandwidth");
        last = t;
    }
}

/// Descending (stock-PostgreSQL-style) tuple placement works end to end —
/// the Strider ISA's layout flexibility claim.
#[test]
fn descending_layout_end_to_end() {
    use dana_storage::page::TupleDirection;
    use dana_storage::HeapFileBuilder;
    let schema = Schema::training(12);
    let mut b = HeapFileBuilder::new(schema, 32 * 1024, TupleDirection::Descending).unwrap();
    let truth: Vec<f32> = (0..12).map(|i| 0.1 * i as f32).collect();
    for k in 0..800 {
        let x: Vec<f32> = (0..12)
            .map(|i| (((k * 3 + i) % 9) as f32 - 4.0) / 4.0)
            .collect();
        let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        b.insert(&Tuple::training(&x, y)).unwrap();
    }
    let db = Dana::new(
        FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size: 32 * 1024,
        },
        DiskModel::ssd(),
    );
    db.create_table("desc_table", b.finish()).unwrap();
    let src = dana_dsl::zoo::linear_regression_source(12, 8, 120);
    db.deploy_source(&src, "linearR", "desc_table").unwrap();
    let report = db.run_udf("linearR", "desc_table").unwrap();
    // The periodic feature generator makes the design matrix rank-deficient,
    // so weights are not identifiable — check the *predictions* instead.
    let model = dana_ml::DenseModel(report.dense_model().to_vec());
    let data = dana_storage::TupleBatch::from_rows(
        13,
        (0..800usize).map(|k| {
            let mut x: Vec<f32> = (0..12)
                .map(|i| (((k * 3 + i) % 9) as f32 - 4.0) / 4.0)
                .collect();
            let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
            x.push(y);
            x
        }),
    );
    let mse = dana_ml::metrics::mse(&model, &data).unwrap();
    assert!(mse < 1e-3, "mse {mse}");
}

/// A smaller FPGA (Arria-10 class) still compiles and runs every
/// algorithm, with fewer resources.
#[test]
fn arria10_compiles_all_algorithms() {
    let mut w = workload("WLAN").unwrap().scaled(0.005);
    w.features = 32;
    w.epochs = 2;
    let table = generate(&w, 32 * 1024, 9).unwrap();
    let db = Dana::new(
        FpgaSpec::arria10(),
        BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size: 32 * 1024,
        },
        DiskModel::ssd(),
    );
    db.create_table("t", table.heap).unwrap();
    let info = db.deploy(&w.spec(), "t").unwrap();
    assert!(db.run_udf("logisticR", "t").is_ok());
    // The VU9P hosts strictly more clusters than the Arria 10.
    let big = Dana::new(
        FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size: 32 * 1024,
        },
        DiskModel::ssd(),
    );
    let table2 = generate(&w, 32 * 1024, 9).unwrap();
    big.create_table("t", table2.heap).unwrap();
    let info_big = big.deploy(&w.spec(), "t").unwrap();
    assert!(
        info_big.num_threads as u32 * info_big.acs_per_thread as u32
            >= info.num_threads as u32 * info.acs_per_thread as u32
    );
}

/// The analytic and explicit-thread paths agree when the DSE would pick
/// the same point.
#[test]
fn analytic_thread_override_consistency() {
    let w = workload("Netflix").unwrap();
    let p = SystemParams::default();
    let auto = analytic_dana(&w, ExecutionMode::Strider, true, &p)
        .unwrap()
        .total_seconds;
    // Sweeping must bracket the auto-chosen design.
    let best_sweep = [1u32, 2, 4, 8, 16, 32, 64]
        .iter()
        .map(|t| {
            analytic_dana_threads(&w, *t, true, &p)
                .unwrap()
                .total_seconds
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        auto <= best_sweep * 1.05,
        "auto {auto} vs best sweep {best_sweep}"
    );
}
