//! Per-page zone maps: the min/max statistics that let a filtered scan
//! prove "no tuple on this page can match" without touching the page.
//!
//! Statistics are computed over the engine-native f32 value of every cell
//! (via [`RowDecoder`], the same conversion the data paths use), ignoring
//! NaN — but remembering whether any NaN was seen, because `!=` predicates
//! match NaN rows and must not prune on min/max alone.

use dana_storage::{HeapFile, RowDecoder, StorageResult};

/// Min/max/has-NaN per column for one page, plus its live tuple count.
#[derive(Debug, Clone, PartialEq)]
pub struct PageZone {
    /// Per-column minimum over non-NaN values (`+inf` when all-NaN/empty).
    pub min: Vec<f32>,
    /// Per-column maximum over non-NaN values (`-inf` when all-NaN/empty).
    pub max: Vec<f32>,
    /// Whether the column holds at least one NaN on this page.
    pub has_nan: Vec<bool>,
    /// Live tuples on the page.
    pub tuples: u16,
}

impl PageZone {
    /// Computes the zone map of one page of `heap`.
    pub fn build(heap: &HeapFile, page_no: u32) -> StorageResult<PageZone> {
        let view = heap.page(page_no)?;
        let decoder = RowDecoder::new(heap.schema());
        let ncols = heap.schema().len();
        let mut zone = PageZone {
            min: vec![f32::INFINITY; ncols],
            max: vec![f32::NEG_INFINITY; ncols],
            has_nan: vec![false; ncols],
            tuples: view.tuple_count(),
        };
        let mut row = vec![0f32; ncols];
        for slot in 0..view.tuple_count() {
            decoder.decode_row(view.user_data(slot, decoder.data_width())?, &mut row);
            for (c, &v) in row.iter().enumerate() {
                if v.is_nan() {
                    zone.has_nan[c] = true;
                } else {
                    zone.min[c] = zone.min[c].min(v);
                    zone.max[c] = zone.max[c].max(v);
                }
            }
        }
        Ok(zone)
    }
}
