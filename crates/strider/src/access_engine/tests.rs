use super::*;
use crate::error::StriderError;
use dana_storage::page::TupleDirection;
use dana_storage::{ColumnType, Datum, HeapFileBuilder, HeapPage, PageView, Tuple};

fn heap_of(
    schema: Schema,
    direction: TupleDirection,
    tuples: impl Iterator<Item = Tuple>,
) -> HeapFile {
    let mut b = HeapFileBuilder::new(schema, 8 * 1024, direction).unwrap();
    for t in tuples {
        b.insert(&t).unwrap();
    }
    b.finish()
}

fn training_tuples(n: usize, features: usize) -> impl Iterator<Item = Tuple> {
    (0..n).map(move |k| {
        let feats: Vec<f32> = (0..features).map(|i| (k + i) as f32 * 0.5).collect();
        Tuple::training(&feats, -(k as f32))
    })
}

fn heap_with(n: usize, features: usize) -> HeapFile {
    heap_of(
        Schema::training(features),
        TupleDirection::Ascending,
        training_tuples(n, features),
    )
}

fn engine_for(heap: &HeapFile, striders: u32) -> AccessEngine {
    AccessEngine::for_table(
        *heap.layout(),
        heap.schema().clone(),
        AccessEngineConfig::new(striders, Clock::FPGA_150MHZ, AxiLink::with_bandwidth(2.5e9)),
    )
}

#[test]
fn extracted_tuples_match_cpu_scan() {
    let heap = heap_with(500, 12);
    let engine = engine_for(&heap, 4);
    let (batch, stats) = engine.extract_heap(&heap).unwrap();
    assert_eq!(batch.len(), 500);
    assert_eq!(batch.width(), 13);
    assert_eq!(stats.tuples, 500);
    for (ext, cpu) in batch.rows().zip(heap.scan()) {
        let cpu_vals: Vec<f32> = cpu.values.iter().map(|d| d.as_f32()).collect();
        assert_eq!(ext, &cpu_vals[..]);
    }
}

/// Heaps whose schemas take every route through the row decoder: the
/// all-`Float4` fast path, `Schema::rating()`, and all four types mixed.
fn heaps_of_every_shape(direction: TupleDirection) -> Vec<HeapFile> {
    let mixed = Schema::new(
        [
            ColumnType::Float8,
            ColumnType::Int8,
            ColumnType::Int4,
            ColumnType::Float4,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, ty)| (format!("c{i}"), ty))
        .collect(),
    );
    vec![
        heap_of(Schema::training(7), direction, training_tuples(200, 7)),
        heap_of(
            Schema::rating(),
            direction,
            (0..1500).map(|k| Tuple::rating(k % 37, -(k % 11), k as f32 * 0.25 - 3.0)),
        ),
        heap_of(
            mixed,
            direction,
            (0..700i64).map(|k| {
                Tuple::new(vec![
                    Datum::Float8(k as f64 * 1e-3 + 0.1),
                    Datum::Int8(k * 1_000_003 - 5),
                    Datum::Int4(7 - k as i32),
                    Datum::Float4(k as f32 * -0.75),
                ])
            }),
        ),
    ]
}

#[test]
fn batch_path_matches_reference_rows_path() {
    for direction in [TupleDirection::Ascending, TupleDirection::Descending] {
        for heap in heaps_of_every_shape(direction) {
            let engine = engine_for(&heap, 2);
            let label = format!("{:?}, {direction:?}", heap.schema().columns()[0].ty);
            assert!(heap.page_count() > 1, "{label}: want a partial last page");
            // Values and cycles equal the rows reference page for page
            // (and, independently of the bulk kernels, the CPU deform).
            let mut cpu = heap.scan();
            for p in 0..heap.page_count() {
                let page = heap.page_bytes(p).unwrap();
                let (rows, ref_cycles) = engine.extract_page_rows(page).unwrap();
                let mut batch = TupleBatch::new(heap.schema().len());
                let cycles = engine.extract_page_into(page, &mut batch).unwrap();
                assert_eq!(cycles, ref_cycles, "{label}: page {p} cycles");
                assert_eq!(batch.len(), rows.len(), "{label}: page {p}");
                for (got, want) in batch.rows().zip(&rows) {
                    assert_eq!(got, &want.values[..], "{label}: page {p}");
                    let cpu: Vec<f32> = cpu
                        .next()
                        .unwrap()
                        .values
                        .iter()
                        .map(Datum::as_f32)
                        .collect();
                    assert_eq!(got, &cpu[..], "{label}: page {p} vs CPU deform");
                }
            }
            assert!(cpu.next().is_none());
        }
    }
}

/// What a pushdown scan charges for a page it filters on its compressed
/// lanes is what walking the page costs, on every builder page — full
/// pages and partial last pages, both directions, every decoder route.
#[test]
fn canonical_page_cycles_is_the_walks_charge() {
    for direction in [TupleDirection::Ascending, TupleDirection::Descending] {
        for heap in heaps_of_every_shape(direction) {
            let engine = engine_for(&heap, 2);
            for p in 0..heap.page_count() {
                let page = heap.page(p).unwrap();
                let mut batch = TupleBatch::new(heap.schema().len());
                let cycles = engine
                    .extract_page_into(heap.page_bytes(p).unwrap(), &mut batch)
                    .unwrap();
                assert_eq!(
                    engine.canonical_page_cycles(page.tuple_count()),
                    cycles,
                    "{direction:?} page {p}"
                );
            }
        }
    }
}

#[test]
fn unfiltered_filtered_extraction_equals_plain_extraction() {
    for heap in heaps_of_every_shape(TupleDirection::Ascending) {
        let engine = engine_for(&heap, 2);
        for p in 0..heap.page_count() {
            let page = heap.page_bytes(p).unwrap();
            let mut plain = TupleBatch::new(heap.schema().len());
            let plain_cycles = engine.extract_page_into(page, &mut plain).unwrap();
            let mut filtered = TupleBatch::new(heap.schema().len());
            let cycles = engine
                .extract_page_filtered_into(page, &mut filtered, None, |_| true)
                .unwrap();
            assert_eq!(filtered, plain);
            assert_eq!(cycles, plain_cycles);
        }
    }
}

/// A page whose header says it holds no live tuples extracts nothing and
/// costs nothing on every path — a builder page with its count zeroed, and
/// a truly empty page, whose first line pointer is 0 — although the
/// generated program's do-while loop alone stages one phantom tuple there.
#[test]
fn page_with_no_live_tuples_extracts_nothing() {
    let heap = heap_with(30, 5);
    let layout = *heap.layout();
    let engine = engine_for(&heap, 1);
    let (program, config) = crate::codegen::strider_program_for_layout(&layout);
    let machine = crate::machine::StriderMachine::new(program, config);
    let mut zeroed = heap.page_bytes(0).unwrap().to_vec();
    zeroed[16..18].fill(0);
    for page in [zeroed, HeapPage::new(layout).into_bytes()] {
        assert_eq!(PageView::new(&page, layout).unwrap().tuple_count(), 0);
        assert_eq!(
            machine.run(&page).unwrap().len(),
            1,
            "the program's phantom"
        );

        let mut batch = TupleBatch::from_rows(6, [[9.0; 6]]);
        assert_eq!(engine.extract_page_into(&page, &mut batch), Ok(0));
        let mut calls = 0;
        let filtered = engine.extract_page_filtered_into(&page, &mut batch, None, |_| {
            calls += 1;
            true
        });
        assert_eq!((filtered, calls), (Ok(0), 0));
        assert_eq!(batch.as_slice(), &[9.0; 6]);
        assert_eq!(engine.extract_page_rows(&page), Ok((Vec::new(), 0)));
    }
}

/// A page cut inside its last tuple is the program's `PageBounds` error on
/// every path, and the batch keeps exactly the rows it had.
#[test]
fn truncated_page_is_the_programs_error_and_appends_nothing() {
    for direction in [TupleDirection::Ascending, TupleDirection::Descending] {
        let heap = heap_of(Schema::training(5), direction, training_tuples(30, 5));
        let layout = *heap.layout();
        let engine = engine_for(&heap, 1);
        let last = layout.tuple_offset(29);
        let page = &heap.page_bytes(0).unwrap()[..last + layout.tuple_bytes - 1];
        let expected = StriderError::PageBounds {
            // Descending, the first tuple staged is the one past the cut.
            addr: match direction {
                TupleDirection::Ascending => last,
                TupleDirection::Descending => layout.tuple_offset(0),
            },
            len: layout.tuple_bytes,
            page: page.len(),
        };
        let mut batch = TupleBatch::from_rows(6, [[9.0; 6]]);
        assert_eq!(
            engine.extract_page_into(page, &mut batch),
            Err(expected.clone())
        );
        let filtered = engine.extract_page_filtered_into(page, &mut batch, None, |_| true);
        assert_eq!(filtered, Err(expected.clone()));
        assert_eq!(batch.as_slice(), &[9.0; 6], "{direction:?}");
        assert_eq!(
            engine.extract_page_rows(page),
            Err(expected),
            "{direction:?}"
        );
    }
}

#[test]
fn training_split_puts_label_last() {
    let heap = heap_with(3, 4);
    let engine = engine_for(&heap, 1);
    let (tuples, _) = engine
        .extract_page_rows(heap.page_bytes(0).unwrap())
        .unwrap();
    let (x, y) = tuples[2].as_training();
    assert_eq!(x.len(), 4);
    assert_eq!(y, -2.0);
}

#[test]
fn rating_schema_converts_ints() {
    let schema = Schema::rating();
    let mut b = HeapFileBuilder::new(schema.clone(), 8 * 1024, TupleDirection::Ascending).unwrap();
    b.insert(&Tuple::rating(42, 99, 3.5)).unwrap();
    let heap = b.finish();
    let engine = engine_for(&heap, 1);
    let (batch, _) = engine.extract_heap(&heap).unwrap();
    assert_eq!(batch.row(0), &[42.0, 99.0, 3.5]);
}

#[test]
fn conversion_cycles_count_every_value() {
    let heap = heap_with(10, 6);
    let engine = engine_for(&heap, 1);
    let (_, stats) = engine.extract_heap(&heap).unwrap();
    let walk = estimated_cycles_per_page(heap.layout(), 10);
    assert_eq!(stats.strider_cycles, walk + 10 * 7); // 6 features + label
}

#[test]
fn empty_heap_costs_nothing() {
    let schema = Schema::training(4);
    let heap = HeapFileBuilder::new(schema.clone(), 8 * 1024, TupleDirection::Ascending)
        .unwrap()
        .finish();
    let engine = engine_for(&heap, 2);
    let (batch, stats) = engine.extract_heap(&heap).unwrap();
    assert!(batch.is_empty());
    assert_eq!(stats, AccessStats::default());
}
