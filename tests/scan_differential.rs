//! Scan-tier differential suite — the acceptance gate for pushdown.
//!
//! The contract of `WHERE`/`COLUMNS` pushdown is *virtual
//! materialization*: a filtered/projected EXECUTE, PREDICT, or EVALUATE
//! must behave **bit-identically** to running the same statement over a
//! manually pre-materialized filtered table — models, materialized
//! prediction pages, and metric values — across all four zoo analytics,
//! for gangs of 1, 2, and 4 shards. A filtered PREDICT materializes from
//! the slots its scan kept, so its table is also held to the reference
//! selection (`select_slots` over the raw heap), page for page. A drop
//! racing a filtered scan must leave no buffer-pool frame held and no
//! compressed sidecar resident.

use dana::prelude::*;
use dana::{parse_statement, Statement, SystemCore, SystemCoreConfig};
use dana_dsl::zoo::{self, Algorithm, DenseParams, LrmfParams};
use dana_storage::page::TupleDirection;
use dana_storage::{HeapFileBuilder, Schema};

mod common;
use common::execute;

const PAGE: usize = 8 * 1024;

/// A four-shard pool, as a served core would run (sharding changes
/// locking, never results).
fn fresh_core() -> SystemCore {
    SystemCore::new(SystemCoreConfig {
        fpga: FpgaSpec::vu9p(),
        pool: BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size: PAGE,
        },
        pool_shards: 4,
        disk: DiskModel::ssd(),
    })
}

/// Deterministic dense rows: `d` features + label for `algo`.
fn dense_rows(n: usize, d: usize, algo: Algorithm) -> Vec<(Vec<f32>, f32)> {
    let truth: Vec<f32> = (0..d).map(|i| 0.3 * i as f32 - 0.8).collect();
    (0..n)
        .map(|k| {
            let x: Vec<f32> = (0..d)
                .map(|i| (((k * 11 + i * 5) % 17) as f32 - 8.0) / 8.0)
                .collect();
            let s: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
            let y = match algo {
                Algorithm::Linear => s,
                Algorithm::Logistic => (s > 0.0) as u8 as f32,
                Algorithm::Svm => {
                    if s > 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                Algorithm::Lrmf => unreachable!("dense rows"),
            };
            (x, y)
        })
        .collect()
}

fn dense_heap_of(rows: &[(Vec<f32>, f32)], d: usize) -> HeapFile {
    dense_heap_in(TupleDirection::Ascending, rows, d)
}

fn dense_heap_in(direction: TupleDirection, rows: &[(Vec<f32>, f32)], d: usize) -> HeapFile {
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, direction).unwrap();
    for (x, y) in rows {
        b.insert(&Tuple::training(x, *y)).unwrap();
    }
    b.finish()
}

/// Deterministic rows of `d` unquantized features in `[-1, 1)` — 24
/// random mantissa bits each, so no lane packs narrower than the cells —
/// and a bounded linear label.
fn unquantized_rows(n: usize, d: usize) -> Vec<(Vec<f32>, f32)> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u32 << 23) as f32 - 1.0
    };
    (0..n)
        .map(|_| {
            let x: Vec<f32> = (0..d).map(|_| unit()).collect();
            let y = 0.5 * x[0] - 0.25 * x[1];
            (x, y)
        })
        .collect()
}

/// Deterministic ratings clustered by user row.
fn rating_rows(n: usize, rows: usize, cols: usize) -> Vec<(i32, i32, f32)> {
    (0..n)
        .map(|k| {
            let (i, j) = (k * rows / n, (k * 13) % cols);
            let r = 1.0 + ((i * 3 + j * 5) % 4) as f32;
            (i as i32, j as i32, r)
        })
        .collect()
}

fn rating_heap_of(rows: &[(i32, i32, f32)]) -> HeapFile {
    let mut b = HeapFileBuilder::new(Schema::rating(), PAGE, TupleDirection::Ascending).unwrap();
    for &(i, j, r) in rows {
        b.insert(&Tuple::rating(i, j, r)).unwrap();
    }
    b.finish()
}

fn spec_for(algo: Algorithm, epochs: u32) -> AlgoSpec {
    match algo {
        Algorithm::Lrmf => zoo::lrmf(LrmfParams {
            rows: 24,
            cols: 18,
            rank: 6,
            learning_rate: 0.05,
            merge_coef: 4,
            epochs,
        })
        .unwrap(),
        _ => zoo::spec_for(
            algo,
            DenseParams {
                n_features: 10,
                learning_rate: 0.1,
                merge_coef: 8,
                epochs,
            },
        )
        .unwrap(),
    }
}

/// (full heap, pre-materialized filtered heap, WHERE clause) per algo.
/// The predicate is evaluated here exactly as the scan tier will: a
/// strict comparison on the decoded column value.
fn tables_for(algo: Algorithm) -> (HeapFile, HeapFile, &'static str) {
    match algo {
        Algorithm::Lrmf => {
            let rows = rating_rows(900, 24, 18);
            let kept: Vec<_> = rows.iter().copied().filter(|&(i, _, _)| i < 12).collect();
            (rating_heap_of(&rows), rating_heap_of(&kept), "WHERE i < 12")
        }
        _ => {
            let rows = dense_rows(1400, 10, algo);
            let kept: Vec<_> = rows.iter().filter(|(x, _)| x[0] < 0.0).cloned().collect();
            (
                dense_heap_of(&rows, 10),
                dense_heap_of(&kept, 10),
                "WHERE x0 < 0",
            )
        }
    }
}

const ZOO: [Algorithm; 4] = [
    Algorithm::Linear,
    Algorithm::Logistic,
    Algorithm::Svm,
    Algorithm::Lrmf,
];

fn pages_of(heap: &HeapFile) -> Vec<Vec<u8>> {
    (0..heap.page_count())
        .map(|p| heap.page_bytes(p).unwrap().to_vec())
        .collect()
}

/// The first `width` user-data bytes of the tuples `slots` names page by
/// page (`None`: every tuple), in order — byte comparison, so NaN cells
/// and integer columns compare exactly.
fn cells_of(heap: &HeapFile, width: usize, slots: Option<&[Vec<u16>]>) -> Vec<Vec<u8>> {
    let mut cells = Vec::new();
    for p in 0..heap.page_count() {
        let page = heap.page(p).unwrap();
        let every: Vec<u16> = (0..page.tuple_count()).collect();
        for &slot in slots.map_or(&every, |s| &s[p as usize]) {
            cells.push(page.user_data(slot, width).unwrap().to_vec());
        }
    }
    cells
}

/// Holds the table a filtered `PREDICT … INTO dest` built from its scan's
/// survivor lists to the reference selection: `dest` keeps exactly the
/// tuples `select_slots` names over `source`'s raw pages, in page and slot
/// order (the appended prediction cell aside) — zone-pruned pages included,
/// since the reference lists them empty.
fn held_to_select_slots(core: &SystemCore, source: &str, dest: &str, wher: &str) {
    let Statement::Call(call) =
        parse_statement(&format!("PREDICT dana.f('{source}') INTO 'd' {wher};")).unwrap()
    else {
        panic!("expected a call");
    };
    let heap = core.table_snapshot(source).unwrap();
    let bound = call.scan.unwrap().bind(heap.schema()).unwrap();
    let reference = dana::select_slots(&heap, &bound).unwrap();
    assert_eq!(reference.len(), heap.page_count() as usize);
    let width = heap.schema().tuple_data_width();
    assert_eq!(
        cells_of(&core.table_snapshot(dest).unwrap(), width, None),
        cells_of(&heap, width, Some(&reference)),
        "`{dest}`: {wher} over `{source}`"
    );
}

/// Filtered EXECUTE / PREDICT / EVALUATE against the full table must be
/// bit-identical to the plain statement against the pre-materialized
/// filtered table, for every zoo model × shard count — and each charges
/// `SHOW STATS ('scan')` for exactly one logical scan, whatever shape
/// (one stream, or one scan replayed by k members) ran it.
#[test]
fn filtered_statements_match_prematerialized_table_concurrent_facade() {
    for algo in ZOO {
        let spec = spec_for(algo, 3);
        let udf = spec.name.clone();
        let (full, filtered, wher) = tables_for(algo);
        let (rows_full, rows_kept) = (full.tuple_count() as f64, filtered.tuple_count() as f64);
        let core = fresh_core();
        core.create_table("t", full).unwrap();
        core.create_table("tf", filtered).unwrap();
        core.deploy(&spec, "tf").unwrap();
        if algo == Algorithm::Linear {
            // NaN in x1 on every fifth row: a `!=` keeps those rows, and
            // no zone map may rule their pages out on min/max alone.
            let mut rows = dense_rows(1400, 10, algo);
            for (x, _) in rows.iter_mut().step_by(5) {
                x[1] = f32::NAN;
            }
            core.create_table("tn", dense_heap_of(&rows, 10)).unwrap();
        }

        let run = |sql: String| core.execute_statement(&sql).unwrap();
        let scan_counters = || {
            let snap = core.stats_snapshot(Some("scan"));
            ["queries", "rows_considered", "rows_emitted"].map(|c| snap.get("scan", c).unwrap())
        };
        let run_filtered = |sql: String| {
            let before = scan_counters();
            let outcome = run(sql.clone());
            let after = scan_counters();
            assert_eq!(
                [0, 1, 2].map(|i| after[i] - before[i]),
                [1.0, rows_full, rows_kept],
                "{algo:?}: scan counters charged by `{sql}`"
            );
            outcome
        };
        for k in [1u16, 2, 4] {
            let with = format!("WITH (shards = {k}, backend = fpga)");
            // EXECUTE: models bit-identical.
            let got = run_filtered(format!("SELECT * FROM dana.{udf}('t') {wher} {with};"));
            let want = run(format!("SELECT * FROM dana.{udf}('tf') {with};"));
            let (got, want) = (got.report().unwrap(), want.report().unwrap());
            assert_eq!(got.models, want.models, "{algo:?} k={k}: trained models");
            assert_eq!(got.engine, want.engine, "{algo:?} k={k}: engine counters");

            // PREDICT: materialized pages byte-identical. (The reference
            // train above bound the model both runs score with.)
            run_filtered(format!(
                "PREDICT dana.{udf}('t') INTO 'pf_{k}' {wher} {with};"
            ));
            run(format!("PREDICT dana.{udf}('tf') INTO 'pr_{k}' {with};"));
            let got_pages = pages_of(&core.table_snapshot(&format!("pf_{k}")).unwrap());
            let want_pages = pages_of(&core.table_snapshot(&format!("pr_{k}")).unwrap());
            assert_eq!(got_pages, want_pages, "{algo:?} k={k}: prediction pages");
            // The survivors the scan handed PREDICT are the reference
            // selection, whichever way the scan ran (streamed by one
            // member, or drained once and replayed by k).
            held_to_select_slots(&core, "t", &format!("pf_{k}"), wher);
            if algo == Algorithm::Linear {
                let wher = "WHERE x1 != 0.25";
                run(format!(
                    "PREDICT dana.{udf}('tn') INTO 'pn_{k}' {wher} {with};"
                ));
                held_to_select_slots(&core, "tn", &format!("pn_{k}"), wher);
            }

            // EVALUATE: metric value and row count bit-identical.
            let got = run_filtered(format!("EVALUATE dana.{udf}('t') {wher} {with};"));
            let want = run(format!("EVALUATE dana.{udf}('tf') {with};"));
            let (got, want) = (got.eval_report().unwrap(), want.eval_report().unwrap());
            assert_eq!(got.value, want.value, "{algo:?} k={k}: metric value");
            assert_eq!(got.rows_scored, want.rows_scored, "{algo:?} k={k}");
            // The codec's cost is charged, not hidden: only the pushdown
            // scan reads compressed frames.
            assert!(got.timing.decompress_seconds > 0.0, "{algo:?} k={k}");
            assert_eq!(want.timing.decompress_seconds, 0.0, "{algo:?} k={k}");
        }
        assert_eq!(core.held_frames(), 0, "{algo:?}: leaked frames");
    }
}

/// `COLUMNS (…)` projection: training a narrower UDF over a wide table
/// with a projection (composed with a predicate) is bit-identical to
/// the pre-materialized projected+filtered table — including PREDICT's
/// materialized output schema and pages.
#[test]
fn projection_matches_prematerialized_table() {
    let d_wide = 12;
    let d = 8;
    let rows = dense_rows(1400, d_wide, Algorithm::Linear);
    let kept: Vec<(Vec<f32>, f32)> = rows
        .iter()
        .filter(|(x, _)| x[0] < 0.0)
        .map(|(x, y)| (x[..d].to_vec(), *y))
        .collect();
    let spec = zoo::linear_regression(DenseParams {
        n_features: d,
        learning_rate: 0.1,
        merge_coef: 8,
        epochs: 3,
    })
    .unwrap();
    let cols = "COLUMNS (x0, x1, x2, x3, x4, x5, x6, x7, y)";

    let db = fresh_core();
    db.create_table("wide", dense_heap_of(&rows, d_wide))
        .unwrap();
    db.create_table("tp", dense_heap_of(&kept, d)).unwrap();
    // Deploy against the projected-width table: the engine's design is
    // sized for what the scan emits, not what is stored.
    db.deploy(&spec, "tp").unwrap();

    for k in [1u16, 2, 4] {
        let with = format!("WITH (shards = {k}, backend = fpga)");
        let got = db
            .execute_statement(&format!(
                "SELECT * FROM dana.linearR('wide') WHERE x0 < 0 {cols} {with};"
            ))
            .unwrap();
        let want = db
            .execute_statement(&format!("SELECT * FROM dana.linearR('tp') {with};"))
            .unwrap();
        assert_eq!(
            got.report().unwrap().models,
            want.report().unwrap().models,
            "k={k}: projected training"
        );

        db.execute_statement(&format!(
            "PREDICT dana.linearR('wide') INTO 'pf_{k}' WHERE x0 < 0 {cols} {with};"
        ))
        .unwrap();
        db.execute_statement(&format!("PREDICT dana.linearR('tp') INTO 'pr_{k}' {with};"))
            .unwrap();
        let got_heap = db.table_snapshot(&format!("pf_{k}")).unwrap();
        let want_heap = db.table_snapshot(&format!("pr_{k}")).unwrap();
        assert_eq!(
            got_heap.schema().columns().len(),
            d + 2,
            "projected prediction schema: {d} features + y + prediction"
        );
        assert_eq!(
            pages_of(&got_heap),
            pages_of(&want_heap),
            "k={k}: projected prediction pages"
        );
    }
}

/// Both arms of the pushdown page path keep the contract. A descending
/// table of quantized features compresses to `CODEC_FOR` on every page,
/// which the scan filters on its lanes; a table of 100 unquantized
/// features has full pages that do not shrink and stay `CODEC_RAW`, which
/// the scan decompresses and walks. Filtered EXECUTE / PREDICT / EVALUATE
/// over each are bit-identical to the pre-materialized table at shards
/// 1 / 2 / 4, and the PREDICT table holds the reference selection.
#[test]
fn both_page_codecs_match_prematerialized_tables() {
    let cases = [
        (
            TupleDirection::Descending,
            dense_rows(1400, 10, Algorithm::Linear),
            10,
        ),
        (TupleDirection::Ascending, unquantized_rows(700, 100), 100),
    ];
    for (direction, rows, d) in cases {
        let full = dense_heap_in(direction, &rows, d);
        // The sidecar a scan streams is this build of the same heap.
        let sidecar = dana::ScanSidecar::build(&full).unwrap();
        let codecs: Vec<u8> = (0..sidecar.page_count())
            .map(|p| sidecar.page(p)[0])
            .collect();
        let full_pages = &codecs[..codecs.len() - 1];
        match direction {
            TupleDirection::Descending => assert!(codecs.iter().all(|&c| c == dana::CODEC_FOR)),
            TupleDirection::Ascending => {
                assert!(
                    full_pages.iter().all(|&c| c == dana::CODEC_RAW),
                    "{codecs:?}"
                )
            }
        }
        let kept: Vec<_> = rows.iter().filter(|(x, _)| x[0] < 0.0).cloned().collect();
        let spec = zoo::linear_regression(DenseParams {
            n_features: d,
            learning_rate: 0.01,
            merge_coef: 8,
            epochs: 2,
        })
        .unwrap();
        let core = fresh_core();
        core.create_table("t", full).unwrap();
        core.create_table("tf", dense_heap_in(direction, &kept, d))
            .unwrap();
        core.deploy(&spec, "tf").unwrap();
        let run = |sql: String| core.execute_statement(&sql).unwrap();
        let wher = "WHERE x0 < 0";
        for k in [1u16, 2, 4] {
            let label = format!("{direction:?}, {d} features, k={k}");
            let with = format!("WITH (shards = {k}, backend = fpga)");
            let got = run(format!("SELECT * FROM dana.linearR('t') {wher} {with};"));
            let want = run(format!("SELECT * FROM dana.linearR('tf') {with};"));
            let (got, want) = (got.report().unwrap(), want.report().unwrap());
            assert_eq!(got.models, want.models, "{label}: trained models");
            assert_eq!(got.engine, want.engine, "{label}: engine counters");

            run(format!(
                "PREDICT dana.linearR('t') INTO 'pf_{k}' {wher} {with};"
            ));
            run(format!("PREDICT dana.linearR('tf') INTO 'pr_{k}' {with};"));
            assert_eq!(
                pages_of(&core.table_snapshot(&format!("pf_{k}")).unwrap()),
                pages_of(&core.table_snapshot(&format!("pr_{k}")).unwrap()),
                "{label}: prediction pages"
            );
            held_to_select_slots(&core, "t", &format!("pf_{k}"), wher);

            let got = run(format!("EVALUATE dana.linearR('t') {wher} {with};"));
            let want = run(format!("EVALUATE dana.linearR('tf') {with};"));
            let (got, want) = (got.eval_report().unwrap(), want.eval_report().unwrap());
            assert_eq!(got.value, want.value, "{label}: metric value");
            assert_eq!(got.rows_scored, want.rows_scored, "{label}");
        }
        assert_eq!(core.held_frames(), 0);
    }
}

/// DROP racing filtered scans: the compressed sidecar and its shadow
/// frames go with the entry, the scans finish (or fail typed) on their
/// snapshots, and no buffer-pool frame stays held.
#[test]
fn drop_racing_filtered_scan_releases_every_frame() {
    let spec = spec_for(Algorithm::Linear, 2);
    let core = fresh_core();
    let rows = dense_rows(1400, 10, Algorithm::Linear);
    core.create_table("seed", dense_heap_of(&rows, 10)).unwrap();
    core.deploy(&spec, "seed").unwrap();
    execute(&core, "linearR", "seed");

    for round in 0..6 {
        let name = format!("t{round}");
        core.create_table(&name, dense_heap_of(&rows, 10)).unwrap();
        let sql = format!(
            "EVALUATE dana.linearR('{name}') WHERE x0 < 0 WITH (shards = {}, backend = fpga);",
            1 + round % 2
        );
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    // The scan runs on its catalog snapshot; a drop that
                    // lands first surfaces as a typed catalog error.
                    let _ = core.execute_statement(&sql);
                });
            }
            s.spawn(|| {
                let _ = core.drop_table(&name);
            });
        });
        // Whoever lost the race: the table must be droppable exactly once
        // and nothing of it (raw or compressed shadow) stays resident.
        let _ = core.drop_table(&name);
        assert_eq!(core.held_frames(), 0, "round {round}: held frames");
    }
    assert_eq!(core.held_frames(), 0);
}
