//! Ablation integration tests: the design choices the paper's ablation
//! figures isolate (threads, AXI bandwidth, TABLA; README "Reproducing the
//! paper"). Thread scaling runs at functional scale; the CPU-fed and TABLA
//! feeds are priced by the analytic harness only, the figures' source
//! (Figs. 11/12/14/16 of `dana_bench::figures`), and the last test here
//! holds that harness to the simulator it stands in for.

use dana::prelude::*;
use dana::{
    analytic_dana, analytic_dana_threads, analytic_greenplum, analytic_madlib, compile_workload,
    ExecutionMode, SystemParams,
};
use dana_workloads::{generate, workload};

mod common;
use common::execute;

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

/// Fig. 16 priced by the analytic harness: TABLA (single-thread,
/// CPU-fed) compiles to one thread and is slower than DAnA on the same
/// workload, in the engine and end to end.
#[test]
fn tabla_ablation_analytic() {
    let mut w = workload("Patient").unwrap();
    w.merge_coef = 16;
    let p = SystemParams::default();
    assert_eq!(
        compile_workload(&w, &p, Some(1))
            .unwrap()
            .design
            .num_threads,
        1
    );
    assert!(compile_workload(&w, &p, None).unwrap().design.num_threads > 1);
    let dana = analytic_dana(&w, ExecutionMode::Strider, true, &p).unwrap();
    let tabla = analytic_dana(&w, ExecutionMode::Tabla, true, &p).unwrap();
    assert!(
        tabla.engine_seconds > dana.engine_seconds,
        "{tabla:?} {dana:?}"
    );
    assert!(
        tabla.total_seconds > dana.total_seconds,
        "{tabla:?} {dana:?}"
    );
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
        db.deploy(&spec, "rssvm").unwrap();
        let report = execute(&db, &spec.name, "rssvm");
        cycles.push(report.engine.cycles);
    }
    assert!(cycles[1] < cycles[0], "{cycles:?}");
    assert!(cycles[2] < cycles[1], "{cycles:?}");
    // (Saturation appears at higher thread counts; the full-scale sweep is
    // fig12 of `dana_bench::figures`.)
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
    let src = dana_dsl::zoo::linear_regression_source(dana_dsl::zoo::DenseParams {
        n_features: 12,
        learning_rate: 0.1,
        merge_coef: 8,
        epochs: 120,
    });
    db.deploy_source(&src, "linearR", "desc_table").unwrap();
    let report = execute(&db, "linearR", "desc_table");
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
    execute(&db, "logisticR", "t");
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

/// The paper-scale harness is the simulator's cost model, not a second
/// one: both price a scan through `runtime::epoch_costs` + `compose`, the
/// harness from Table-3 statistics × the compiler's estimate, the
/// simulator from what the access engine and the pool measured. On the
/// six public workloads at 2 % scale, fed by the Striders (the one feed
/// the system runs), warm and cold, the two must agree term by term — and the one term on which they
/// do not (a cold scan's disk seconds) is asserted on both sides by
/// formula, so it is written down rather than discovered.
#[test]
fn analytic_harness_is_the_simulators_cost_model() {
    const PAGE: usize = 32 * 1024;
    let pool = BufferPoolConfig {
        pool_bytes: 256 << 20,
        page_size: PAGE,
    };
    let p = SystemParams {
        pool_bytes: pool.pool_bytes,
        page_size: PAGE,
        ..SystemParams::default()
    };
    // The disk formulas below multiply where the pool sums page by page:
    // equal to rounding (the worst observed is under 1e-14).
    let close = |formula: f64, charged: f64| (formula - charged).abs() <= 1e-12 * charged.abs();
    let page_read = p.disk.read_time(PAGE as u64);
    for name in [
        "Remote Sensing LR",
        "WLAN",
        "Remote Sensing SVM",
        "Netflix",
        "Patient",
        "Blog Feedback",
    ] {
        // Every epoch after the first costs the same on both sides; three
        // hold the first/later split without Netflix's 110 passes.
        let mut w = workload(name).unwrap().scaled(0.02);
        w.epochs = w.epochs.min(3);
        let db = Dana::new(p.fpga, pool, p.disk);
        let table = generate(&w, PAGE, 7).unwrap();
        db.create_table("t", table.heap).unwrap();
        let pages = w.pages_for(PAGE);
        assert_eq!(db.table_pages("t"), Some(pages as u32), "{name}");
        let scan_read = p.disk.read_time(pages * PAGE as u64);

        let spec = w.spec();
        db.deploy(&spec, "t").unwrap();
        let estimate = compile_workload(&w, &p, None).unwrap().estimate;
        let page_strider = p.fpga.clock.to_seconds(estimate.strider_cycles_per_page);
        for warm in [true, false] {
            let at = format!("{name}, warm = {warm}");
            if warm {
                db.prewarm("t").unwrap();
            } else {
                db.clear_cache();
            }
            let misses_before = db.pool_stats().misses;
            let report = execute(&db, &spec.name, "t");
            let missed = db.pool_stats().misses - misses_before;
            let a = analytic_dana(&w, ExecutionMode::Strider, warm, &p).unwrap();
            let f = report.timing;
            assert_eq!(report.epochs_run, w.epochs, "{at}");
            // One model: what it prices from equal counts is equal to the
            // bit, not merely close.
            assert_eq!(a.setup_seconds, f.setup_seconds, "{at}");
            assert_eq!(a.engine_seconds, f.engine_seconds, "{at}");
            assert_eq!(a.axi_seconds, f.axi_seconds, "{at}");
            assert_eq!(a.decompress_seconds, f.decompress_seconds, "{at}");
            // The estimate charges the partial last page as a full one.
            let over = a.strider_seconds - f.strider_seconds;
            assert!(
                (0.0..w.epochs as f64 * page_strider).contains(&over),
                "{at}: {a:?} {f:?}"
            );
            // The stated difference: the pool charges every missed page a
            // random read, the harness one sequential read per scan. (The
            // table fits the pool: only epoch 1 misses.)
            assert_eq!(missed, if warm { 0 } else { pages }, "{at}");
            assert!(
                close(missed as f64 * page_read, f.io_seconds),
                "{at}: {f:?}"
            );
            assert_eq!(a.io_seconds, if warm { 0.0 } else { scan_read }, "{at}");
            // Warm, only the Strider term differs, and no epoch here is
            // Strider-bound.
            if warm {
                assert_eq!(a.total_seconds, f.total_seconds, "{at}");
            }
        }

        // The baselines' CPU seconds are the `CpuModel` epoch formulas over
        // the generated heap's own counts; their disk seconds are one
        // sequential read per cold scan, like DAnA's. (The harness prices
        // LRMF over the paper's dense-row representation instead.)
        if w.lrmf.is_some() {
            continue;
        }
        let heap = db.table_snapshot("t").unwrap();
        let features = heap.schema().len() - 1;
        let madlib_epoch = p.cpu.madlib_epoch_seconds(
            w.algorithm,
            heap.tuple_count(),
            features,
            10,
            heap.layout().tuple_bytes,
            heap.page_count() as u64,
        );
        let greenplum_epoch =
            p.cpu
                .greenplum_epoch_seconds(w.algorithm, madlib_epoch, 8, features as u64 * 4);
        let epochs = w.epochs as f64;
        for warm in [true, false] {
            let (am, ag) = (
                analytic_madlib(&w, warm, &p),
                analytic_greenplum(&w, 8, warm, &p),
            );
            let at = format!("{name}, warm = {warm}");
            assert_eq!(am.cpu_seconds, epochs * madlib_epoch, "{at}");
            assert_eq!(ag.cpu_seconds, epochs * greenplum_epoch, "{at}");
            let analytic_io = if warm { 0.0 } else { scan_read };
            assert_eq!([am.io_seconds, ag.io_seconds], [analytic_io; 2], "{at}");
        }
    }
}
