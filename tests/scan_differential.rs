//! Scan-tier differential suite: what the statement matrix cannot
//! express.
//!
//! `tests/statements.rs` holds filtered and projected statements over
//! `CODEC_FOR` pages to one oracle. Here both page codecs meet a table
//! pre-materialized from the survivors: a `WHERE` EXECUTE, PREDICT and
//! EVALUATE over pages the scan filters on their lanes (`CODEC_FOR`) and
//! over pages it decompresses and walks (`CODEC_RAW`) behave
//! bit-identically to the plain statement over that table — models,
//! engine counters, materialized prediction pages and metric values — at
//! shards 1, 2 and 4, and the PREDICT table holds the reference selection
//! (`select_slots` over the raw heap), page for page. A gang of k > 1
//! makes one metered selection at open; each member then extracts its own
//! slots on every pass. A `!=` predicate keeps NaN cells, and a drop
//! racing a filtered scan must leave no buffer-pool frame held and no
//! compressed sidecar resident.

use dana::prelude::*;
use dana::{parse_statement, Statement, SystemCore};
use dana_dsl::zoo::{self, DenseParams};
use dana_storage::page::TupleDirection;

mod common;
use common::{core, dense_heap, dense_rows, execute, heap, pages_of, truth, zoo_spec, PAGE};

/// A training heap of `rows` (`d` features + label) placed in `direction`.
fn heap_in(direction: TupleDirection, rows: &[(Vec<f32>, f32)], d: usize) -> HeapFile {
    let tuples: Vec<_> = rows.iter().map(|(x, y)| Tuple::training(x, *y)).collect();
    heap(Schema::training(d), direction, &tuples)
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
            dense_rows(1400, 10, Algorithm::Linear, truth),
            10,
        ),
        (TupleDirection::Ascending, unquantized_rows(700, 100), 100),
    ];
    for (direction, rows, d) in cases {
        let full = heap_in(direction, &rows, d);
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
        let db = core(PAGE);
        db.create_table("t", full).unwrap();
        db.create_table("tf", heap_in(direction, &kept, d)).unwrap();
        db.deploy(&spec, "tf").unwrap();
        let run = |sql: String| db.execute_statement(&sql).unwrap();
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
                pages_of(&db.table_snapshot(&format!("pf_{k}")).unwrap()),
                pages_of(&db.table_snapshot(&format!("pr_{k}")).unwrap()),
                "{label}: prediction pages"
            );
            held_to_select_slots(&db, "t", &format!("pf_{k}"), wher);

            let got = run(format!("EVALUATE dana.linearR('t') {wher} {with};"));
            let want = run(format!("EVALUATE dana.linearR('tf') {with};"));
            let (got, want) = (got.eval_report().unwrap(), want.eval_report().unwrap());
            assert_eq!(got.value, want.value, "{label}: metric value");
            assert_eq!(got.rows_scored, want.rows_scored, "{label}");
        }
        assert_eq!(db.held_frames(), 0);
    }
}

/// NaN in `x1` on every fifth row: a `!=` keeps those rows, and no zone
/// map may rule their pages out on min/max alone, so a filtered PREDICT
/// keeps exactly the reference selection at every gang size.
#[test]
fn not_equal_keeps_nan_cells() {
    let mut rows = dense_rows(1400, 10, Algorithm::Linear, truth);
    for (x, _) in rows.iter_mut().step_by(5) {
        x[1] = f32::NAN;
    }
    let db = core(PAGE);
    db.create_table("tn", dense_heap(&rows)).unwrap();
    db.deploy(&zoo_spec(Algorithm::Linear, 1), "tn").unwrap();
    execute(&db, "linearR", "tn");
    let wher = "WHERE x1 != 0.25";
    for k in [1u16, 2, 4] {
        let sql = format!("PREDICT dana.linearR('tn') INTO 'pn_{k}' {wher} WITH (shards = {k});");
        db.execute_statement(&sql).unwrap();
        held_to_select_slots(&db, "tn", &format!("pn_{k}"), wher);
    }
    assert_eq!(db.held_frames(), 0);
}

/// DROP racing filtered scans: the compressed sidecar and its shadow
/// frames go with the entry, the scans finish (or fail typed) on their
/// snapshots, and no buffer-pool frame stays held.
#[test]
fn drop_racing_filtered_scan_releases_every_frame() {
    let spec = zoo_spec(Algorithm::Linear, 2);
    let db = core(PAGE);
    let rows = dense_rows(1400, 10, Algorithm::Linear, truth);
    db.create_table("seed", dense_heap(&rows)).unwrap();
    db.deploy(&spec, "seed").unwrap();
    execute(&db, "linearR", "seed");

    for round in 0..6 {
        let name = format!("t{round}");
        db.create_table(&name, dense_heap(&rows)).unwrap();
        let sql = format!(
            "EVALUATE dana.linearR('{name}') WHERE x0 < 0 WITH (shards = {}, backend = fpga);",
            1 + round % 2
        );
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    // The scan runs on its catalog snapshot; a drop that
                    // lands first surfaces as a typed catalog error.
                    let _ = db.execute_statement(&sql);
                });
            }
            s.spawn(|| {
                let _ = db.drop_table(&name);
            });
        });
        // Whoever lost the race: the table must be droppable exactly once
        // and nothing of it (raw or compressed shadow) stays resident.
        let _ = db.drop_table(&name);
        assert_eq!(db.held_frames(), 0, "round {round}: held frames");
    }
    assert_eq!(db.held_frames(), 0);
}
