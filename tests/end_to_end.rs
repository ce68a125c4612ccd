//! End-to-end integration: DSL → deploy → SQL → Striders → engine → model,
//! across all four algorithm families at functional scale.

use dana::prelude::*;
use dana_ml::metrics;
use dana_workloads::{generate, workload};

mod common;
use common::{core, execute};

/// The page size of the workload tables these tests generate.
const PAGE: usize = 32 * 1024;

fn tuples_of(heap: &HeapFile) -> dana_storage::TupleBatch {
    heap.scan_batch().expect("heap pages are well-formed")
}

#[test]
fn logistic_regression_full_pipeline() {
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.003);
    w.epochs = 30;
    w.merge_coef = 8;
    w.learning_rate = 0.5;
    let table = generate(&w, PAGE, 11).unwrap();
    let data = tuples_of(&table.heap);

    let db = core(PAGE);
    db.create_table("remote_sensing", table.heap).unwrap();
    db.deploy(&w.spec(), "remote_sensing").unwrap();
    let out = db
        .execute_statement("SELECT * FROM dana.logisticR('remote_sensing');")
        .unwrap();

    let model = dana_ml::DenseModel(out.report().unwrap().dense_model().to_vec());
    let acc = metrics::classification_accuracy(&model, &data, false).unwrap();
    assert!(acc > 0.9, "accuracy {acc}");
    assert!(
        out.report().unwrap().num_threads > 1,
        "DSE should multi-thread this UDF"
    );
    assert!(out.report().unwrap().timing.total_seconds > 0.0);
}

#[test]
fn svm_full_pipeline() {
    let mut w = workload("Remote Sensing SVM").unwrap().scaled(0.002);
    w.epochs = 25;
    w.merge_coef = 8;
    w.learning_rate = 0.2;
    let table = generate(&w, PAGE, 12).unwrap();
    let data = tuples_of(&table.heap);

    let db = core(PAGE);
    db.create_table("rs_svm", table.heap).unwrap();
    db.deploy(&w.spec(), "rs_svm").unwrap();
    let report = execute(&db, "svm", "rs_svm");

    let model = dana_ml::DenseModel(report.dense_model().to_vec());
    let acc = metrics::classification_accuracy(&model, &data, true).unwrap();
    assert!(acc > 0.9, "accuracy {acc}");
}

#[test]
fn linear_regression_via_textual_dsl() {
    let mut w = workload("Patient").unwrap().scaled(0.01);
    w.epochs = 25;
    let table = generate(&w, PAGE, 13).unwrap();
    let data = tuples_of(&table.heap);
    let truth = table.truth.clone().unwrap();

    let db = core(PAGE);
    db.create_table("patient", table.heap).unwrap();
    let source = dana_dsl::zoo::linear_regression_source(dana_dsl::zoo::DenseParams {
        n_features: w.features,
        learning_rate: 0.1,
        merge_coef: 8,
        epochs: 25,
    });
    let info = db.deploy_source(&source, "linearR", "patient").unwrap();
    assert!(info.micro_ops > 0);
    let report = execute(&db, "linearR", "patient");

    let model = dana_ml::DenseModel(report.dense_model().to_vec());
    let loss = metrics::mse(&model, &data).unwrap();
    assert!(loss < 0.05, "mse {loss}");
    // The planted model should be recovered approximately.
    let got = report.dense_model();
    let close = got
        .iter()
        .zip(&truth)
        .filter(|(a, b)| (*a - *b).abs() < 0.15)
        .count();
    assert!(
        close * 10 >= truth.len() * 8,
        "{close}/{} weights recovered",
        truth.len()
    );
}

#[test]
fn lrmf_full_pipeline() {
    let mut w = workload("Netflix").unwrap();
    w.lrmf = Some((60, 45, 8));
    w.tuples = 5_000;
    w.epochs = 25;
    w.merge_coef = 4;
    w.learning_rate = 0.05;
    let table = generate(&w, PAGE, 14).unwrap();
    let data = tuples_of(&table.heap);

    let db = core(PAGE);
    db.create_table("ratings", table.heap).unwrap();
    db.deploy(&w.spec(), "ratings").unwrap();
    let report = execute(&db, "lrmf", "ratings");

    assert_eq!(report.models.len(), 2);
    let l = report.model("L").unwrap();
    let r = report.model("R").unwrap();
    let model = dana_ml::LrmfModel {
        l: l.to_vec(),
        r: r.to_vec(),
        rows: 60,
        cols: 45,
        rank: 8,
    };
    let rmse = metrics::lrmf_rmse(&model, &data).unwrap();
    let before = metrics::lrmf_rmse(&dana_ml::LrmfModel::zeroed(60, 45, 8), &data).unwrap();
    assert!(rmse < before * 0.5, "rmse {before:.3} -> {rmse:.3}");
}

#[test]
fn convergence_condition_stops_training_early() {
    let src = r#"
        mo = model([8])
        in = input([8])
        out = output()
        lr = meta(0.05)
        cf = meta(0.05)
        mc = meta(8)
        s = sigma(mo * in, 1)
        er = s - out
        grad = er * in
        grad = merge(grad, mc, "+")
        up = lr * grad
        mo_up = mo - up
        setModel(mo_up)
        n = norm(grad, 1)
        conv = n < cf
        setConvergence(conv, 500)
    "#;
    let mut w = workload("Patient").unwrap().scaled(0.005);
    w.features = 8;
    let table = generate(&w, PAGE, 15).unwrap();

    let db = core(PAGE);
    db.create_table("t", table.heap).unwrap();
    db.deploy_source(src, "convlin", "t").unwrap();
    let report = execute(&db, "convlin", "t");
    assert!(
        report.converged_early,
        "gradient should shrink below the threshold"
    );
    assert!(report.epochs_run < 500, "ran {} epochs", report.epochs_run);
}

#[test]
fn catalog_survives_multiple_udfs_and_tables() {
    let db = core(PAGE);
    for (i, name) in ["alpha", "beta"].iter().enumerate() {
        let mut w = workload("Blog Feedback").unwrap().scaled(0.003);
        w.features = 16;
        w.epochs = 3;
        let table = generate(&w, PAGE, 20 + i as u64).unwrap();
        db.create_table(name, table.heap).unwrap();
    }
    let mut w = workload("Blog Feedback").unwrap().scaled(0.003);
    w.features = 16;
    w.epochs = 3;
    let mut spec_a = w.spec();
    spec_a.name = "lin_a".into();
    let mut spec_b = w.spec();
    spec_b.name = "lin_b".into();
    db.deploy(&spec_a, "alpha").unwrap();
    db.deploy(&spec_b, "beta").unwrap();
    assert_eq!(db.accelerator_names(), vec!["lin_a", "lin_b"]);
    assert!(db
        .execute_statement("SELECT * FROM dana.lin_a('alpha')")
        .is_ok());
    assert!(db
        .execute_statement("SELECT * FROM dana.lin_b('beta')")
        .is_ok());
    // Cross-wiring a UDF to the other (schema-compatible) table also works.
    assert!(db
        .execute_statement("SELECT * FROM dana.lin_a('beta')")
        .is_ok());
}

#[test]
fn page_sizes_8_16_32k_all_work() {
    for page_size in [8 * 1024, 16 * 1024, 32 * 1024] {
        let mut w = workload("WLAN").unwrap().scaled(0.01);
        w.features = 20;
        w.epochs = 5;
        let table = generate(&w, page_size, 30).unwrap();
        let db = core(page_size);
        db.create_table("t", table.heap).unwrap();
        db.deploy(&w.spec(), "t").unwrap();
        let report = execute(&db, "logisticR", "t");
        assert_eq!(report.epochs_run, 5, "page size {page_size}");
    }
}

/// `EXPLAIN`'s FPGA estimate is the bill, bit for bit: bind prices a
/// statement through the same cost model the run is billed by, from the
/// counts the scan will measure. Holds for every zoo model on a resident
/// table with a ragged last page, at the stock clock and at 100 MHz, for
/// an EXECUTE that runs its whole epoch budget, an unfiltered EVALUATE,
/// a PREDICT … INTO and a point PREDICT — and `EXPLAIN ANALYZE` carries
/// the same estimate beside the run it predicted.
#[test]
fn explain_prices_every_statement_as_it_is_billed() {
    let zoo = [
        ("Patient", "linearR"),
        ("Remote Sensing LR", "logisticR"),
        ("Remote Sensing SVM", "svm"),
        ("Netflix", "lrmf"),
    ];
    for mhz in [150.0, 100.0] {
        for (name, udf) in zoo {
            let mut w = workload(name).unwrap();
            (w.tuples, w.epochs) = (997, 3);
            let table = generate(&w, 8 * 1024, 11).unwrap();
            let capacity = u64::from(table.heap.layout().capacity);
            assert_ne!(table.heap.tuple_count() % capacity, 0, "{name}: ragged");
            let point = tuples_of(&table.heap).row(0).to_vec();
            let db = Dana::new(
                FpgaSpec {
                    clock: dana_fpga::Clock::from_mhz(mhz),
                    ..FpgaSpec::vu9p()
                },
                BufferPoolConfig {
                    pool_bytes: 64 << 20,
                    page_size: 8 * 1024,
                },
                DiskModel::ssd(),
            );
            db.create_table("t", table.heap).unwrap();
            db.deploy(&w.spec(), "t").unwrap();
            db.prewarm("t").unwrap();
            let values = point.iter().map(f32::to_string).collect::<Vec<_>>();
            let statements = [
                format!("SELECT * FROM dana.{udf}('t');"),
                format!("EVALUATE dana.{udf}('t');"),
                format!("PREDICT dana.{udf}('t') INTO 'p';"),
                format!("PREDICT dana.{udf}(VALUES ({}));", values.join(", ")),
            ];
            for sql in &statements {
                let explained = db.execute_statement(&format!("EXPLAIN {sql}")).unwrap();
                let priced = explained.comparison().unwrap();
                let estimate = priced.estimated_seconds(BackendKind::Fpga).unwrap();
                let out = db.execute_statement(sql).unwrap();
                if let Ok(report) = out.report() {
                    assert_eq!(report.epochs_run, 3, "{sql}: whole budget");
                }
                let billed = out.timing().unwrap().total_seconds;
                assert!(billed > 0.0, "{sql} at {mhz} MHz");
                assert_eq!(estimate, billed, "{sql} at {mhz} MHz");
            }
            let analyzed = db
                .execute_statement(&format!("EXPLAIN ANALYZE {}", statements[0]))
                .unwrap();
            let QueryResponse::Analyzed(analyzed) = analyzed else {
                panic!("EXPLAIN ANALYZE answers with an analyzed run");
            };
            let priced = analyzed.comparison.as_ref().unwrap();
            assert_eq!(
                priced.estimated_seconds(BackendKind::Fpga),
                Some(analyzed.outcome.sim_seconds()),
                "{udf} at {mhz} MHz"
            );
        }
    }
}
