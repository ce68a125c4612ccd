//! Per-page zone maps: the min/max statistics that let a filtered scan
//! prove "no tuple on this page can match" without touching the page.
//!
//! Statistics are computed over the engine-native f32 value of every cell
//! (via [`RowDecoder`], the same conversion the data paths use), ignoring
//! NaN — but remembering whether any NaN was seen, because `!=` predicates
//! match NaN rows and must not prune on min/max alone. [`PageZone::build`]
//! decodes a page's rows; the sidecar build folds a packed page's column
//! lanes instead, by the same rule, to the same bits.

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
        let mut zone = PageZone::empty(ncols, view.tuple_count());
        let mut row = vec![0f32; ncols];
        for slot in 0..view.tuple_count() {
            decoder.decode_row(view.user_data(slot, decoder.data_width())?, &mut row);
            for (c, &v) in row.iter().enumerate() {
                zone.fold(c, v);
            }
        }
        Ok(zone)
    }

    /// The zone of `tuples` tuples before any cell of its `ncols` columns
    /// is folded in.
    pub(crate) fn empty(ncols: usize, tuples: u16) -> PageZone {
        PageZone {
            min: vec![f32::INFINITY; ncols],
            max: vec![f32::NEG_INFINITY; ncols],
            has_nan: vec![false; ncols],
            tuples,
        }
    }

    /// Folds one cell of column `c` in.
    #[inline]
    pub(crate) fn fold(&mut self, c: usize, v: f32) {
        fold_cell(&mut self.min[c], &mut self.max[c], &mut self.has_nan[c], v);
    }

    /// Folds the cells of column `c` in, in order.
    pub(crate) fn fold_column(&mut self, c: usize, cells: impl Iterator<Item = f32>) {
        let (mut min, mut max, mut has_nan) = (self.min[c], self.max[c], self.has_nan[c]);
        cells.for_each(|v| fold_cell(&mut min, &mut max, &mut has_nan, v));
        (self.min[c], self.max[c], self.has_nan[c]) = (min, max, has_nan);
    }
}

/// The one fold rule: a NaN only marks the column; any other value moves
/// a bound it lies strictly beyond. So of `-0.0` and `0.0` the one folded
/// first stays the bound — the result depends on the fold order alone.
#[inline]
fn fold_cell(min: &mut f32, max: &mut f32, has_nan: &mut bool, v: f32) {
    if v.is_nan() {
        *has_nan = true;
    } else {
        if v < *min {
            *min = v;
        }
        if v > *max {
            *max = v;
        }
    }
}
