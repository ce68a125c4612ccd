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
//! Both public builders are one private walk — every tuple or a slot
//! selection × every column or a projection — over `PageView::user_data`
//! and `RowDecoder`'s column spans; no byte offset of the format is known
//! here.

use dana_storage::{ColumnType, HeapFile, HeapFileBuilder, RowDecoder, Schema, StorageError};

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
/// One zero-copy pass over the source pages: each tuple's user-data
/// bytes are copied straight into the output heap with the prediction's
/// four Float4 bytes behind them — no per-tuple `Datum` materialization,
/// so materialization costs one page walk, not a second full decode.
pub fn build_prediction_heap(source: &HeapFile, predictions: &[f32]) -> InferResult<HeapFile> {
    materialize(source, None, None, source.tuple_count(), predictions)
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
    if slots.len() != source.page_count() as usize {
        return Err(StorageError::SchemaMismatch(format!(
            "slot selection covers {} pages, heap has {}",
            slots.len(),
            source.page_count()
        ))
        .into());
    }
    let selected = slots.iter().map(|s| s.len() as u64).sum();
    materialize(source, Some(slots), projection, selected, predictions)
}

/// The one materializing walk: the tuples of `slots` (`None` = every live
/// tuple, `tuples` in total), the columns of `projection` (`None` = all).
/// Every output tuple is a two-part raw insert — kept cells, prediction —
/// with no per-tuple allocation: unprojected cells are the source bytes
/// themselves, projected ones are gathered into one reused buffer.
fn materialize(
    source: &HeapFile,
    slots: Option<&[Vec<u16>]>,
    projection: Option<&[usize]>,
    tuples: u64,
    predictions: &[f32],
) -> InferResult<HeapFile> {
    if predictions.len() as u64 != tuples {
        return Err(InferError::PredictionCount {
            predictions: predictions.len(),
            tuples,
        });
    }
    let src_schema = source.schema();
    let decoder = RowDecoder::new(src_schema);
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let schema = match projection {
        None => prediction_schema(src_schema)?,
        Some(cols) => {
            let mut projected = Vec::with_capacity(cols.len());
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
            prediction_schema(&Schema::new(projected))?
        }
    };
    let layout = source.layout();
    let mut builder = HeapFileBuilder::new(schema, layout.page_size, layout.direction)?;
    let mut next = predictions.iter();
    let mut gathered: Vec<u8> = Vec::new();
    for page_no in 0..source.page_count() {
        let view = source.page(page_no)?;
        let mut emit = |slot: u16| -> InferResult<()> {
            let data = view.user_data(slot, decoder.data_width())?;
            let cells = if projection.is_some() {
                gathered.clear();
                for &(off, w) in &spans {
                    gathered.extend_from_slice(&data[off..off + w]);
                }
                &gathered[..]
            } else {
                data
            };
            let p = next.next().expect("count checked above");
            Ok(builder.insert_raw(&[cells, &p.to_le_bytes()])?)
        };
        match slots {
            None => (0..view.tuple_count()).try_for_each(&mut emit)?,
            Some(slots) => slots[page_no as usize]
                .iter()
                .try_for_each(|&slot| emit(slot))?,
        }
    }
    Ok(builder.finish())
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
