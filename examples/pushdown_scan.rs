//! Pushdown-scan demo: filtered training through the compressed scan
//! tier.
//!
//! A large linear-regression table clustered on `x0` is trained twice —
//! full-width full scan, then with a `WHERE x0 < 0.1` pushdown predicate
//! that the zone maps resolve to ~10% of the pages. The demo prints:
//!
//! * `EXPLAIN` — the cost advisor pricing the *filtered* statement: the
//!   scan term shrinks with the predicate's selectivity and carries the
//!   codec's decompress cost, so the backend comparison reflects what
//!   the pushdown scan will actually stream;
//! * the two training runs' simulated timings side by side, the
//!   filtered one showing the new `decompress_seconds` cycle-model slot;
//! * `SHOW STATS ('scan')` — pages skipped, bytes decompressed,
//!   compression ratio, selectivity — and `SHOW STATS ('buffer')`, whose
//!   resident-bytes gauge is the compression ratio's denominator.
//!
//! Run with `cargo run --release --example pushdown_scan`;
//! `DANA_SMOKE=1` shrinks the table for CI.

use dana::prelude::*;
use dana_storage::page::TupleDirection;
use dana_storage::{HeapFileBuilder, Schema};

const PAGE: usize = 32 * 1024;

fn clustered_heap(n: usize, d: usize) -> HeapFile {
    let truth: Vec<f32> = (0..d).map(|i| 0.2 * i as f32 - 0.7).collect();
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let mut x: Vec<f32> = (0..d)
            .map(|i| (((k * 13 + i * 7) % 29) as f32 - 14.0) / 14.0)
            .collect();
        // Clustered on x0: ascending 0..1 with insertion order, so the
        // per-page zone maps give `WHERE x0 < t` a contiguous page range.
        x[0] = k as f32 / n as f32;
        let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        b.insert(&Tuple::training(&x, y)).unwrap();
    }
    b.finish()
}

fn main() {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let (n, d) = if smoke { (60_000, 12) } else { (400_000, 12) };

    let db = Dana::new(
        FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 1 << 30,
            page_size: PAGE,
        },
        DiskModel::ssd(),
    );
    let heap = clustered_heap(n, d);
    let pages = heap.page_count();
    db.create_table("facts", heap).unwrap();
    let spec = dana_dsl::zoo::linear_regression(dana_dsl::zoo::DenseParams {
        n_features: d,
        learning_rate: 0.1,
        merge_coef: 8,
        epochs: 2,
    })
    .unwrap();
    db.deploy(&spec, "facts").unwrap();

    println!("=== pushdown_scan: {n} × {d} training table, {pages} pages ===\n");

    // The advisor prices the filtered statement before anything runs:
    // the predicate's planning selectivity scales the pages and tuples
    // priced, and every page read is charged its decompression.
    let filtered_sql = "SELECT * FROM dana.linearR('facts') WHERE x0 < 0.1;";
    let out = db
        .execute_statement(&format!("EXPLAIN {filtered_sql}"))
        .unwrap();
    let cmp = out.comparison().unwrap();
    println!("EXPLAIN {filtered_sql}\n{cmp}\n");

    // Full scan, then the pushdown scan, both cold-cache.
    let train = |sql: &str| {
        db.clear_cache();
        let out = db.execute_statement(sql).unwrap();
        out.report().unwrap().clone()
    };
    let full = train("SELECT * FROM dana.linearR('facts');");
    let filtered = train(filtered_sql);
    println!(
        "full scan:     sim {:.4}s over {} tuples",
        full.timing.total_seconds, n
    );
    println!(
        "pushdown scan: sim {:.4}s over {} tuples (decompress {:.6}s) -> {:.2}x",
        filtered.timing.total_seconds,
        filtered.access.tuples,
        filtered.timing.decompress_seconds,
        full.timing.total_seconds / filtered.timing.total_seconds
    );

    // The scan tier's own counters, then the buffer gauges that give the
    // compression ratio its denominator.
    for subsystem in ["scan", "buffer"] {
        let out = db
            .execute_statement(&format!("SHOW STATS ('{subsystem}');"))
            .unwrap();
        let QueryResponse::Stats(snap) = out else {
            panic!("expected stats response");
        };
        println!("\nSHOW STATS ('{subsystem}');\n{}", snap.render_table());
    }
}
