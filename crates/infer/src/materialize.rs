//! Prediction materialization: turning a scored scan back into a heap.
//!
//! PREDICT is the first query that *writes* into the storage layer: its
//! output is a real catalog table — scannable, snapshottable, and
//! droppable like any heap. The schema is derived from the source table's
//! (every source column preserved with its exact on-page type and value)
//! plus one appended `prediction real` column; predictions are stored as
//! Float4, so a scan of the materialized table recovers each prediction
//! bit-exactly.
//!
//! A [`Materialization`] is the output table as a function of an
//! output-page range. Tuples are fixed-width and every page but the last
//! is full, so output page `j` holds output tuples `[j·cap, (j+1)·cap)`;
//! where those start in the source is a division (every tuple kept) or a
//! prefix sum over the scan's per-page survivor counts (a slot selection).
//! One walk ([`Materialization::build_range`]) writes a range: it reads
//! each source page once through `PageView::user_data` and copies the kept
//! cells and the prediction straight into the output page's slot
//! (`HeapFileBuilder::insert_with`) — no per-tuple allocation, no staging
//! buffer, no byte offset of the page format known here. Both public
//! builders are that walk over the whole table; the gang tier runs it over
//! several ranges at once and joins the parts, and the table is
//! byte-identical however it was cut.

use std::ops::Range;

use dana_storage::{
    ColumnType, HeapFile, HeapFileBuilder, PageLayoutDesc, RowDecoder, Schema, StorageError,
};

use crate::error::{InferError, InferResult};

/// Name of the appended prediction column.
pub const PREDICTION_COLUMN: &str = "prediction";

/// Derives a prediction table's schema: the source schema with a
/// `prediction real` column appended. Refuses a source that already has a
/// column of that name (scoring a prediction table into itself would
/// shadow the earlier predictions).
pub fn prediction_schema(source: &Schema) -> InferResult<Schema> {
    if source.column_index(PREDICTION_COLUMN).is_some() {
        return Err(InferError::Storage(
            dana_storage::StorageError::DuplicateName(PREDICTION_COLUMN.to_string()),
        ));
    }
    let mut cols: Vec<(String, ColumnType)> = source
        .columns()
        .iter()
        .map(|c| (c.name.clone(), c.ty))
        .collect();
    cols.push((PREDICTION_COLUMN.to_string(), ColumnType::Float4));
    Ok(Schema::new(cols))
}

/// Builds the materialized prediction heap: every source tuple (values
/// preserved byte-for-byte) with its prediction appended, in scan
/// order, using the source's page size and placement direction.
///
/// One read of each source page, one write of each output page: no
/// per-tuple `Datum` materialization, so materialization costs one page
/// walk, not a second full decode.
pub fn build_prediction_heap(source: &HeapFile, predictions: &[f32]) -> InferResult<HeapFile> {
    Materialization::new(source, None, None, predictions)?.build()
}

/// [`build_prediction_heap`] for a *pushdown* scoring scan: materializes
/// only the tuples the scan's predicates kept (`slots[page]` lists each
/// page's surviving slot numbers, in slot order — what the scan recorded,
/// or the scan tier's `select_slots` reference) and only its projected
/// columns, with one prediction per surviving tuple in scan order. Kept
/// cells are copied byte-for-byte, so the output heap is identical to
/// scoring a pre-materialized filtered/projected table.
pub fn build_prediction_heap_selected(
    source: &HeapFile,
    slots: &[Vec<u16>],
    projection: Option<&[usize]>,
    predictions: &[f32],
) -> InferResult<HeapFile> {
    Materialization::new(source, Some(slots), projection, predictions)?.build()
}

/// A PREDICT's output table, planned but not yet written: which source
/// tuples and columns it keeps, their predictions, and where every output
/// page's tuples start in the source.
pub struct Materialization<'a> {
    source: &'a HeapFile,
    /// Per source page, the slots kept; `None` keeps every live tuple.
    slots: Option<&'a [Vec<u16>]>,
    /// With a selection: output tuples before each source page, and the
    /// total as one last entry.
    kept_before: Vec<u64>,
    /// `(offset, width)` in the source's user data of each projected
    /// cell; `None` copies the row whole.
    spans: Option<Vec<(usize, usize)>>,
    predictions: &'a [f32],
    schema: Schema,
    layout: PageLayoutDesc,
}

impl<'a> Materialization<'a> {
    /// Plans the table: the tuples of `slots` (`None` = every live
    /// tuple), the columns of `projection` (`None` = all), one prediction
    /// per kept tuple in scan order.
    pub fn new(
        source: &'a HeapFile,
        slots: Option<&'a [Vec<u16>]>,
        projection: Option<&[usize]>,
        predictions: &'a [f32],
    ) -> InferResult<Materialization<'a>> {
        let mut kept_before = Vec::new();
        let tuples = match slots {
            None => source.tuple_count(),
            Some(slots) => {
                if slots.len() != source.page_count() as usize {
                    return Err(StorageError::SchemaMismatch(format!(
                        "slot selection covers {} pages, heap has {}",
                        slots.len(),
                        source.page_count()
                    ))
                    .into());
                }
                let mut total = 0u64;
                kept_before.push(total);
                for page in slots {
                    total += page.len() as u64;
                    kept_before.push(total);
                }
                total
            }
        };
        if predictions.len() as u64 != tuples {
            return Err(InferError::PredictionCount {
                predictions: predictions.len(),
                tuples,
            });
        }
        let src_schema = source.schema();
        let (schema, spans) = match projection {
            None => (prediction_schema(src_schema)?, None),
            Some(cols) => {
                let decoder = RowDecoder::new(src_schema);
                let mut projected = Vec::with_capacity(cols.len());
                let mut spans = Vec::with_capacity(cols.len());
                for &c in cols {
                    let col = src_schema.columns().get(c).ok_or_else(|| {
                        StorageError::SchemaMismatch(format!(
                            "projected column index {c} out of range for {}-column schema",
                            src_schema.len()
                        ))
                    })?;
                    projected.push((col.name.clone(), col.ty));
                    spans.push((decoder.columns()[c].0, col.ty.width()));
                }
                (prediction_schema(&Schema::new(projected))?, Some(spans))
            }
        };
        let src_layout = source.layout();
        let layout =
            HeapFileBuilder::layout_for(&schema, src_layout.page_size, src_layout.direction)?;
        Ok(Materialization {
            source,
            slots,
            kept_before,
            spans,
            predictions,
            schema,
            layout,
        })
    }

    /// Pages the output table has.
    pub fn page_count(&self) -> u32 {
        self.predictions
            .len()
            .div_ceil(self.layout.capacity as usize) as u32
    }

    /// Cuts the output pages into `count` contiguous ranges (±1 page, the
    /// longer ones first) that tile the table in order — one per page when
    /// there are fewer pages than `count`, one empty range for an empty
    /// table.
    pub fn ranges(&self, count: usize) -> Vec<Range<u32>> {
        let pages = self.page_count();
        let count = u32::try_from(count)
            .unwrap_or(u32::MAX)
            .clamp(1, pages.max(1));
        let mut start = 0;
        (0..count)
            .map(|i| {
                let end = start + pages / count + u32::from(i < pages % count);
                std::mem::replace(&mut start, end)..end
            })
            .collect()
    }

    /// The whole table as one range.
    fn build(&self) -> InferResult<HeapFile> {
        Ok(self.build_range(0..self.page_count())?.finish())
    }

    /// The one materializing walk: writes output pages `pages` — output
    /// tuples `[start·cap, end·cap)`, clipped to the table — as a heap
    /// part for `HeapFileBuilder::finish_parts`. Parts over ranges that
    /// tile the table join into the same bytes one range produces.
    pub fn build_range(&self, pages: Range<u32>) -> InferResult<HeapFileBuilder> {
        let capacity = self.layout.capacity as usize;
        let first = (pages.start as usize * capacity).min(self.predictions.len());
        let end = (pages.end as usize * capacity).min(self.predictions.len());
        let mut builder = HeapFileBuilder::at_page(
            self.schema.clone(),
            self.layout.page_size,
            self.layout.direction,
            pages.start,
        )?;
        // Where output tuple `first` sits in the source: the page, and how
        // many of that page's kept tuples come before it.
        let (mut page_no, mut skip) = match self.slots {
            None => {
                let per_page = self.source.layout().capacity as usize;
                (first / per_page, first % per_page)
            }
            Some(_) => {
                let page = self.kept_before.partition_point(|&b| b <= first as u64) - 1;
                (page, first - self.kept_before[page] as usize)
            }
        };
        let width = self.source.schema().tuple_data_width();
        let mut next = first;
        while next < end {
            let view = self.source.page(page_no as u32)?;
            let want = end - next;
            let mut emit = |slot: u16| -> InferResult<()> {
                let data = view.user_data(slot, width)?;
                let prediction = self.predictions[next].to_le_bytes();
                builder.insert_with(|out| {
                    let (cells, cell) = out.split_at_mut(out.len() - prediction.len());
                    match &self.spans {
                        None => cells.copy_from_slice(data),
                        Some(spans) => {
                            let mut at = 0;
                            for &(off, w) in spans {
                                cells[at..at + w].copy_from_slice(&data[off..off + w]);
                                at += w;
                            }
                        }
                    }
                    cell.copy_from_slice(&prediction);
                });
                next += 1;
                Ok(())
            };
            match self.slots {
                None => (skip as u16..view.tuple_count())
                    .take(want)
                    .try_for_each(&mut emit)?,
                Some(slots) => slots[page_no][skip..]
                    .iter()
                    .take(want)
                    .try_for_each(|&slot| emit(slot))?,
            }
            (page_no, skip) = (page_no + 1, 0);
        }
        Ok(builder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_storage::page::TupleDirection;
    use dana_storage::{Datum, PageView, Tuple};

    fn rating_heap(n: usize) -> HeapFile {
        let mut b =
            HeapFileBuilder::new(Schema::rating(), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            b.insert(&Tuple::rating(k as i32, (k * 3) as i32, k as f32 / 2.0))
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn schema_appends_prediction_column() {
        let s = prediction_schema(&Schema::training(4)).unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.columns()[5].name, PREDICTION_COLUMN);
        assert_eq!(s.columns()[5].ty, ColumnType::Float4);
        // Re-deriving from a prediction schema is refused.
        assert!(prediction_schema(&s).is_err());
    }

    #[test]
    fn heap_round_trips_values_and_predictions() {
        let heap = rating_heap(500);
        let predictions: Vec<f32> = (0..500).map(|k| 0.125 * k as f32 - 3.0).collect();
        let out = build_prediction_heap(&heap, &predictions).unwrap();
        assert_eq!(out.tuple_count(), 500);
        assert_eq!(out.schema().len(), 4);
        // Integer index columns survive with their exact on-page type;
        // predictions come back bit-exactly.
        for (k, t) in out.scan().enumerate() {
            assert_eq!(t.values[0], Datum::Int4(k as i32));
            assert_eq!(t.values[1], Datum::Int4((k * 3) as i32));
            assert_eq!(t.values[3], Datum::Float4(predictions[k]));
        }
    }

    #[test]
    fn selected_heap_keeps_only_chosen_slots_and_columns() {
        let heap = rating_heap(500);
        // Keep every third tuple, page by page, exactly as select_slots
        // would list them.
        let layout = *heap.layout();
        let mut slots: Vec<Vec<u16>> = Vec::new();
        let mut kept: Vec<usize> = Vec::new();
        let mut k = 0usize;
        for page_no in 0..heap.page_count() {
            let view = PageView::new(heap.page_bytes(page_no).unwrap(), layout).unwrap();
            let mut page_slots = Vec::new();
            for slot in 0..view.tuple_count() {
                if k.is_multiple_of(3) {
                    page_slots.push(slot);
                    kept.push(k);
                }
                k += 1;
            }
            slots.push(page_slots);
        }
        let predictions: Vec<f32> = kept.iter().map(|&k| k as f32 * 0.5).collect();
        // Project columns (2, 0): reordered and partial.
        let out =
            build_prediction_heap_selected(&heap, &slots, Some(&[2, 0]), &predictions).unwrap();
        assert_eq!(out.tuple_count(), kept.len() as u64);
        assert_eq!(out.schema().len(), 3);
        assert_eq!(out.schema().columns()[2].name, PREDICTION_COLUMN);
        for (i, t) in out.scan().enumerate() {
            let k = kept[i];
            assert_eq!(t.values[0], Datum::Float4(k as f32 / 2.0));
            assert_eq!(t.values[1], Datum::Int4(k as i32));
            assert_eq!(t.values[2], Datum::Float4(predictions[i]));
        }
        // No projection keeps the full schema, like build_prediction_heap.
        let full = build_prediction_heap_selected(&heap, &slots, None, &predictions).unwrap();
        assert_eq!(full.schema().len(), 4);
        // Selecting every slot with no projection matches the unselected
        // builder bit-for-bit.
        let all: Vec<Vec<u16>> = (0..heap.page_count())
            .map(|p| {
                let view = PageView::new(heap.page_bytes(p).unwrap(), layout).unwrap();
                (0..view.tuple_count()).collect()
            })
            .collect();
        let preds: Vec<f32> = (0..500).map(|k| k as f32).collect();
        let a = build_prediction_heap_selected(&heap, &all, None, &preds).unwrap();
        let b = build_prediction_heap(&heap, &preds).unwrap();
        assert_eq!(a.page_count(), b.page_count());
        for p in 0..a.page_count() {
            assert_eq!(a.page_bytes(p).unwrap(), b.page_bytes(p).unwrap());
        }
    }

    /// However the output pages are cut into ranges, the joined parts are
    /// the pages one range writes — checksums included.
    #[test]
    fn every_range_count_builds_the_same_pages() {
        for direction in [TupleDirection::Ascending, TupleDirection::Descending] {
            let mut b = HeapFileBuilder::new(Schema::rating(), 8 * 1024, direction).unwrap();
            let cap = HeapFileBuilder::layout_for(&Schema::rating(), 8 * 1024, direction)
                .unwrap()
                .capacity as usize;
            // Sixteen full source pages and a partial seventeenth.
            let n = cap * 16 + 41;
            for k in 0..n {
                b.insert(&Tuple::rating(k as i32, (k * 3) as i32, k as f32 / 2.0))
                    .unwrap();
            }
            let heap = b.finish();
            // Keep two tuples of three; pages 2 and 3 keep nothing.
            let slots: Vec<Vec<u16>> = (0..heap.page_count() as usize)
                .map(|p| {
                    let live = (n - p * cap).min(cap) as u16;
                    let keeps = |slot: &u16| {
                        !(2..4).contains(&p) && !(*slot as usize + p).is_multiple_of(3)
                    };
                    (0..live).filter(keeps).collect()
                })
                .collect();
            let kept: usize = slots.iter().map(Vec::len).sum();
            let predictions: Vec<f32> = (0..n).map(|k| k as f32 * 0.25 - 9.0).collect();
            let cases = [
                (None, None, n),
                (Some(&slots[..]), None, kept),
                (Some(&slots[..]), Some(&[2usize, 0][..]), kept),
            ];
            for (slots, projection, tuples) in cases {
                let table =
                    Materialization::new(&heap, slots, projection, &predictions[..tuples]).unwrap();
                let pages = table.page_count();
                assert!(pages > 7, "enough output pages to cut seven ways");
                let whole = table.build().unwrap();
                assert_eq!(whole.tuple_count(), tuples as u64);
                assert_eq!(whole.page_count(), pages);
                for count in [1, 2, 3, 4, 7, pages as usize + 3] {
                    let ranges = table.ranges(count);
                    // More ranges than pages: one page each.
                    assert_eq!(ranges.len(), count.min(pages as usize));
                    assert!(ranges.iter().all(|r| r.start < r.end));
                    let parts = ranges.into_iter().map(|r| table.build_range(r).unwrap());
                    let joined = HeapFileBuilder::finish_parts(parts.collect()).unwrap();
                    assert_eq!(joined.tuple_count(), whole.tuple_count());
                    assert_eq!(joined.page_count(), pages);
                    for p in 0..pages {
                        assert_eq!(
                            joined.page_bytes(p).unwrap(),
                            whole.page_bytes(p).unwrap(),
                            "{direction:?} projection {projection:?}: {count} ranges, page {p}"
                        );
                    }
                }
            }
            // An empty table is one empty range and no pages.
            let nothing: Vec<Vec<u16>> = vec![Vec::new(); heap.page_count() as usize];
            let table = Materialization::new(&heap, Some(&nothing), None, &[]).unwrap();
            assert_eq!(table.ranges(4), vec![0..0]);
            assert_eq!(table.build().unwrap().page_count(), 0);
        }
    }

    #[test]
    fn prediction_count_mismatch_is_typed_error() {
        let heap = rating_heap(10);
        assert!(matches!(
            build_prediction_heap(&heap, &[1.0; 9]),
            Err(InferError::PredictionCount {
                predictions: 9,
                tuples: 10
            })
        ));
    }
}
