//! Intra-query parallelism acceptance benchmark: gang-parallel PREDICT
//! vs serial PREDICT on one large table.
//!
//! One cold-cache scoring query over a wide logistic-regression table,
//! serial and with gangs of 2 and 4 — the intra-query twin of the
//! `throughput` bench (which scales across queries; this one scales a
//! *single* query). Timing is the *simulated* end-to-end `DanaTiming`
//! every figure uses: a gang's epoch costs its critical member (shards
//! stream their page ranges simultaneously), so a 4-gang's cold scan
//! reads a quarter of the table per member. Host wall-clock is printed
//! alongside for reference (shards also run on real OS threads).
//!
//! Correctness gate: the 4-shard prediction stream must be bit-identical
//! to the serial one. Acceptance gate: 4-shard PREDICT ≥ 2.5× serial
//! (≥ 1.3× in `DANA_SMOKE=1` mode, where the table is small enough that
//! the per-query setup constants eat most of the scan). Full runs append
//! one JSON record per line to `BENCH_parallel.json` at the repo root.

use std::time::Instant;

use dana::prelude::*;
use dana_bench::{series_path, BenchRecord};
use dana_server::{SystemCore, SystemCoreConfig};
use dana_storage::page::TupleDirection;
use dana_storage::{BufferPoolConfig, HeapFileBuilder, Schema};

const PAGE: usize = 32 * 1024;

fn logistic_heap(n: usize, d: usize) -> HeapFile {
    let truth: Vec<f32> = (0..d).map(|i| 0.25 * i as f32 - 1.5).collect();
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let x: Vec<f32> = (0..d)
            .map(|i| (((k * 13 + i * 7) % 29) as f32 - 14.0) / 14.0)
            .collect();
        let s: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        b.insert(&Tuple::training(&x, (s > 0.0) as u8 as f32))
            .unwrap();
    }
    b.finish()
}

fn main() {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let (n, d) = if smoke { (150_000, 16) } else { (800_000, 16) };
    let spec = dana_dsl::zoo::logistic_regression(dana_dsl::zoo::DenseParams {
        n_features: d,
        learning_rate: 0.1,
        merge_coef: 8,
        epochs: 2,
    })
    .unwrap();

    let core = SystemCore::new(SystemCoreConfig {
        fpga: FpgaSpec::vu9p(),
        pool: BufferPoolConfig {
            pool_bytes: 1 << 30,
            page_size: PAGE,
        },
        ..Default::default()
    });
    let heap = logistic_heap(n, d);
    let pages = heap.page_count();
    core.create_table("clicks", heap).unwrap();
    core.deploy(&spec, "clicks").unwrap();

    println!("=== parallel_scaling: cold-cache PREDICT over {n} × {d} ({pages} pages) ===");

    // ---- sharded training (trains the model PREDICT binds) --------------
    core.clear_cache();
    let train_serial = core.run_udf("logisticR", "clicks").unwrap();
    core.clear_cache();
    let train4 = core
        .execute_statement("EXECUTE dana.logisticR('clicks') WITH (shards = 4);")
        .unwrap();
    let train4 = train4.report();
    let train_speedup = train_serial.timing.total_seconds / train4.timing.total_seconds;
    println!(
        "train   serial sim {:.4}s | 4-shard sim {:.4}s ({train_speedup:.2}x)",
        train_serial.timing.total_seconds, train4.timing.total_seconds
    );
    // Rebind the serial model so every scoring run uses identical values.
    core.clear_cache();
    let _ = core.run_udf("logisticR", "clicks").unwrap();

    // ---- scoring: serial vs gangs, all cold-cache ------------------------
    let run_predict = |dest: &str, shards: Option<u16>| {
        core.clear_cache();
        let wall = Instant::now();
        let report = core
            .execute_statement(&format!(
                "PREDICT dana.logisticR('clicks') INTO '{dest}' WITH (shards = {});",
                shards.unwrap_or(1)
            ))
            .unwrap()
            .predict_report()
            .clone();
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        (report, wall_ms)
    };
    let (serial, serial_wall) = run_predict("p_serial", None);
    let (p2, _) = run_predict("p_2", Some(2));
    let (p4, wall4) = run_predict("p_4", Some(4));

    // Correctness gate: bit-identical materialized predictions.
    let read = |name: &str| -> Vec<f32> {
        let heap = core.table_snapshot(name).unwrap();
        let col = heap.schema().len() - 1;
        heap.scan_batch().unwrap().rows().map(|r| r[col]).collect()
    };
    assert_eq!(
        read("p_serial"),
        read("p_4"),
        "4-shard PREDICT must be bit-identical to serial"
    );

    let s2 = serial.timing.total_seconds / p2.timing.total_seconds;
    let s4 = serial.timing.total_seconds / p4.timing.total_seconds;
    println!(
        "predict serial sim {:.4}s (wall {serial_wall:.0} ms)",
        serial.timing.total_seconds
    );
    println!(
        "predict 2-shard sim {:.4}s ({s2:.2}x) | 4-shard sim {:.4}s ({s4:.2}x, wall {wall4:.0} ms)",
        p2.timing.total_seconds, p4.timing.total_seconds
    );

    BenchRecord::new(
        "parallel_scaling",
        serial.timing.total_seconds * 1e3,
        p4.timing.total_seconds * 1e3,
        smoke,
    )
    .int("tuples", n as u64)
    .int("features", d as u64)
    .int("pages", pages as u64)
    .num("shards2_sim_s", p2.timing.total_seconds)
    .num("speedup_2", s2)
    .num("serial_wall_ms", serial_wall)
    .num("shards4_wall_ms", wall4)
    .num("train_serial_sim_s", train_serial.timing.total_seconds)
    .num("train_shards4_sim_s", train4.timing.total_seconds)
    .num("train_speedup_4", train_speedup)
    .append(&series_path("parallel"));

    // Acceptance: 4-shard PREDICT must clear 2.5× over serial (relaxed
    // to 1.3× in smoke mode, where per-query constants dominate the
    // deliberately small scan).
    let floor = if smoke { 1.3 } else { 2.5 };
    assert!(
        s4 >= floor,
        "4-shard scoring speedup {s4:.2}x is below the {floor}x acceptance floor"
    );
    assert!(s2 > 1.0, "2 shards must beat serial: {s2:.2}x");
}
