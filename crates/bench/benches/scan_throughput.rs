//! Scan-tier acceptance benchmark: cold-cache pushdown scan vs full scan.
//!
//! One scoring query (EVALUATE, the scan-dominated statement) over a
//! large linear-regression table clustered on `x0`, full-width vs with a
//! `WHERE x0 < t` predicate selecting ~10% of the rows. The filtered run
//! streams the compressed sidecar — zone maps skip every page whose
//! `x0` range cannot match, the survivors decompress on fetch with the
//! decompress term charged to the cycle model — so the cold-cache
//! simulated time must drop ≥ 2× at 10% selectivity (≥ 1.2× in
//! `DANA_SMOKE=1` mode, where the table is small and per-query setup
//! constants dominate). Host wall-clock is printed for reference.
//!
//! Correctness gates: the filtered metric must equal evaluating a
//! pre-materialized filtered table bit-exactly, and the decompress cost
//! must be visible in the filtered run's `DanaTiming`. Full runs append
//! one JSON record per line to `BENCH_scan.json` at the repo root.

use std::time::Instant;

use dana::prelude::*;
use dana_bench::{series_path, BenchRecord};
use dana_storage::page::TupleDirection;
use dana_storage::{BufferPoolConfig, HeapFileBuilder, Schema};

const PAGE: usize = 32 * 1024;

/// Rows clustered on `x0` (ascending 0..1 with insertion order — the
/// natural layout of a time- or key-sorted fact table), so the zone maps
/// concentrate the `x0 < t` survivors in the leading pages.
fn clustered_rows(n: usize, d: usize) -> Vec<(Vec<f32>, f32)> {
    let truth: Vec<f32> = (0..d).map(|i| 0.2 * i as f32 - 0.7).collect();
    (0..n)
        .map(|k| {
            let mut x: Vec<f32> = (0..d)
                .map(|i| (((k * 13 + i * 7) % 29) as f32 - 14.0) / 14.0)
                .collect();
            x[0] = k as f32 / n as f32;
            let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
            (x, y)
        })
        .collect()
}

fn heap_of(rows: &[(Vec<f32>, f32)], d: usize) -> HeapFile {
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending).unwrap();
    for (x, y) in rows {
        b.insert(&Tuple::training(x, *y)).unwrap();
    }
    b.finish()
}

fn main() {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let (n, d) = if smoke { (60_000, 12) } else { (400_000, 12) };
    let rows = clustered_rows(n, d);
    let kept: Vec<_> = rows.iter().filter(|(x, _)| x[0] < 0.1).cloned().collect();
    let selectivity = kept.len() as f64 / n as f64;

    let db = Dana::new(
        FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 1 << 30,
            page_size: PAGE,
        },
        DiskModel::ssd(),
    );
    let heap = heap_of(&rows, d);
    let pages = heap.page_count();
    db.create_table("facts", heap).unwrap();
    db.create_table("facts_10pct", heap_of(&kept, d)).unwrap();
    let spec = dana_dsl::zoo::linear_regression(dana_dsl::zoo::DenseParams {
        n_features: d,
        learning_rate: 0.1,
        merge_coef: 8,
        epochs: 1,
    })
    .unwrap();
    db.deploy(&spec, "facts").unwrap();
    db.run_udf("linearR", "facts").unwrap();

    println!(
        "=== scan_throughput: cold-cache EVALUATE over {n} × {d} ({pages} pages, \
         {:.1}% selectivity) ===",
        selectivity * 100.0
    );

    let run = |sql: &str| {
        db.clear_cache();
        let wall = Instant::now();
        let out = db.execute_statement(sql).unwrap();
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        match out {
            dana::StatementOutcome::Evaluate(e) => (e, wall_ms),
            other => panic!("expected EVALUATE, got {other:?}"),
        }
    };
    let (full, full_wall) = run("EVALUATE dana.linearR('facts');");
    let (filtered, filtered_wall) = run("EVALUATE dana.linearR('facts') WHERE x0 < 0.1;");
    let (reference, _) = run("EVALUATE dana.linearR('facts_10pct');");

    // Correctness: virtual materialization, bit-exact.
    assert_eq!(
        filtered.value, reference.value,
        "filtered EVALUATE must equal the pre-materialized table"
    );
    assert_eq!(filtered.rows_scored, kept.len() as u64);
    // The codec's cost is charged, not hidden: the filtered run's cycle
    // model carries a nonzero decompress term, the full scan none.
    assert!(
        filtered.timing.decompress_seconds > 0.0,
        "decompress cost must be visible in the cycle model"
    );
    assert_eq!(full.timing.decompress_seconds, 0.0);

    let scan = db.stats_snapshot(Some("scan"));
    let stat = |name: &str| {
        scan.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
            .unwrap_or(0.0)
    };
    let ratio = stat("compression_ratio");
    let skipped = stat("pages_skipped");

    let speedup = full.timing.total_seconds / filtered.timing.total_seconds;
    println!(
        "full     sim {:.4}s (wall {full_wall:.0} ms)",
        full.timing.total_seconds
    );
    println!(
        "filtered sim {:.4}s (wall {filtered_wall:.0} ms, decompress {:.6}s) -> {speedup:.2}x",
        filtered.timing.total_seconds, filtered.timing.decompress_seconds
    );
    println!("compression ratio {ratio:.2}x | pages skipped {skipped:.0}/{pages}");

    BenchRecord::new(
        "scan_throughput",
        full.timing.total_seconds * 1e3,
        filtered.timing.total_seconds * 1e3,
        smoke,
    )
    .int("tuples", n as u64)
    .int("features", d as u64)
    .int("pages", pages as u64)
    .num("selectivity", selectivity)
    .num("compression_ratio", ratio)
    .num("pages_skipped", skipped)
    .num("decompress_sim_s", filtered.timing.decompress_seconds)
    .num("full_wall_ms", full_wall)
    .num("filtered_wall_ms", filtered_wall)
    .append(&series_path("scan"));

    // Acceptance: ≥ 2× cold-cache at 10% selectivity (1.2× in smoke
    // mode, where the scan is deliberately small).
    let floor = if smoke { 1.2 } else { 2.0 };
    assert!(
        speedup >= floor,
        "filtered-scan speedup {speedup:.2}x is below the {floor}x acceptance floor"
    );
}
