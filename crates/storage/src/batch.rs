//! Flat tuple batches and the streaming source abstraction — the data-path
//! spine of the reproduction.
//!
//! The paper's Fig. 2 pipeline overlaps four stages at *page* granularity:
//! disk → buffer pool, buffer pool → FPGA (AXI), Strider extraction, and
//! execution-engine compute. Nothing in that pipeline ever materializes the
//! table as row objects; tuples flow from raw page bytes into the engine's
//! scratchpads as a contiguous float stream. [`TupleBatch`] is that
//! stream's unit: one flat row-major `Vec<f32>` holding every column of
//! every tuple extracted from (typically) one page — zero per-tuple
//! allocations, cache-linear reads, and O(pages) total allocation for a
//! full scan. Producers fill it a page at a time
//! ([`TupleBatch::append_rows`], Strider extraction's bulk decode), a row
//! at a time ([`TupleBatch::push_row`]) or a value at a time
//! ([`TupleBatch::start_row`], the CPU deform loop); whichever they use,
//! only whole rows ever become visible.
//!
//! [`TupleSource`] is the seam between the storage/strider side and the
//! execution engine: a rewindable stream of batches. The engine pulls
//! batches and trains as they arrive (the paper's "unpacking of data in the
//! access engine and processing it in the execution engine" interleave,
//! §5.1.1); at each epoch boundary it calls [`TupleSource::rewind`] to
//! re-scan. Implementations decide where batches come from — the buffer
//! pool via Striders, a CPU deform loop (the Fig. 11 ablation), or an
//! already-materialized batch ([`OneBatchSource`]) — so every feeding
//! strategy meets the engine through the same interface.

use std::fmt;

use crate::error::StorageError;

/// Contiguous row-major training tuples: `len() × width()` values in one
/// flat allocation. Row `i`'s columns are `data[i*width .. (i+1)*width]`,
/// in schema order (features then label for training schemas).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TupleBatch {
    data: Vec<f32>,
    width: usize,
}

impl TupleBatch {
    /// An empty batch of `width`-column rows.
    pub fn new(width: usize) -> TupleBatch {
        assert!(width > 0, "tuple batch needs at least one column");
        TupleBatch {
            data: Vec::new(),
            width,
        }
    }

    /// An empty batch with room for `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> TupleBatch {
        assert!(width > 0, "tuple batch needs at least one column");
        TupleBatch {
            data: Vec::with_capacity(width * rows),
            width,
        }
    }

    /// Builds a batch from row slices (test/bench convenience; the hot path
    /// fills batches in place via [`TupleBatch::append_rows`],
    /// [`TupleBatch::push_row`] or [`TupleBatch::start_row`]).
    pub fn from_rows<R: AsRef<[f32]>>(
        width: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> TupleBatch {
        let mut b = TupleBatch::new(width);
        for r in rows {
            b.push_row(r.as_ref());
        }
        b
    }

    /// Columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` as a column slice.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// All rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.width)
    }

    /// The whole flat value stream (what crosses the AXI link after
    /// float conversion).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Appends one full row.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Appends `rows` zeroed rows and returns them — `rows × width()`
    /// values, row-major — for a bulk producer to fill in place (Strider
    /// extraction decodes a whole page's records into it). Like a finished
    /// [`RowBuilder`], only whole rows ever become visible.
    pub fn append_rows(&mut self, rows: usize) -> &mut [f32] {
        let start = self.data.len();
        self.data.resize(start + rows * self.width, 0.0);
        &mut self.data[start..]
    }

    /// Starts an in-place row append for value-at-a-time producers (page
    /// deform loops). The row only becomes visible on
    /// [`RowBuilder::finish`]; dropping the builder early discards the
    /// partial row, so error paths cannot corrupt the batch.
    pub fn start_row(&mut self) -> RowBuilder<'_> {
        let start = self.data.len();
        RowBuilder { batch: self, start }
    }

    /// Drops all rows, keeping the allocation (page-loop reuse).
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

/// In-place row append handle — see [`TupleBatch::start_row`].
pub struct RowBuilder<'a> {
    batch: &'a mut TupleBatch,
    /// Offset of the row's first value; `usize::MAX` once finished.
    start: usize,
}

impl RowBuilder<'_> {
    pub fn push(&mut self, v: f32) {
        self.batch.data.push(v);
    }

    /// Commits the row, asserting it is exactly one row wide.
    pub fn finish(mut self) {
        assert_eq!(
            self.batch.data.len() - self.start,
            self.batch.width,
            "row has wrong number of values"
        );
        self.start = usize::MAX;
    }
}

impl Drop for RowBuilder<'_> {
    fn drop(&mut self) {
        if self.start != usize::MAX {
            self.batch.data.truncate(self.start);
        }
    }
}

/// Failure while producing the next batch of a stream. Wraps the producing
/// layer's error (buffer pool, page deform, Strider machine) as text so the
/// trait stays object-safe across crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError(pub String);

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tuple source: {}", self.0)
    }
}

impl std::error::Error for SourceError {}

impl From<StorageError> for SourceError {
    fn from(e: StorageError) -> SourceError {
        SourceError(e.to_string())
    }
}

/// A rewindable stream of [`TupleBatch`]es — the storage→engine seam.
///
/// Contract: `next_batch` yields batches until the scan is exhausted
/// (`Ok(None)`), all with the same `width()`; `rewind` restarts the scan so
/// the next `next_batch` replays the same tuples in the same order (epoch
/// semantics). Batch boundaries carry no meaning — consumers must produce
/// identical results whether the stream arrives as one batch or many
/// (the execution engine re-groups rows by its thread count internally).
pub trait TupleSource {
    /// Columns per row, fixed for the stream's lifetime.
    fn width(&self) -> usize;

    /// The next batch, or `None` at end of scan.
    fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError>;

    /// Restarts the scan from the first tuple.
    fn rewind(&mut self) -> Result<(), SourceError>;

    /// Total rows per scan, when known up front (sizing hint).
    fn tuple_count_hint(&self) -> Option<u64> {
        None
    }
}

/// [`TupleSource`] over one materialized batch: yields it once per scan.
/// This is how pre-extracted data (tests, benches) meets
/// the engine's streaming interface.
pub struct OneBatchSource<'a> {
    batch: &'a TupleBatch,
    served: bool,
}

impl<'a> OneBatchSource<'a> {
    pub fn new(batch: &'a TupleBatch) -> OneBatchSource<'a> {
        OneBatchSource {
            batch,
            served: false,
        }
    }
}

impl TupleSource for OneBatchSource<'_> {
    fn width(&self) -> usize {
        self.batch.width()
    }

    fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError> {
        if self.served {
            Ok(None)
        } else {
            self.served = true;
            Ok(Some(self.batch))
        }
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.served = false;
        Ok(())
    }

    fn tuple_count_hint(&self) -> Option<u64> {
        Some(self.batch.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_layout_and_row_access() {
        let mut b = TupleBatch::with_capacity(3, 2);
        b.push_row(&[1.0, 2.0, 3.0]);
        b.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.width(), 3);
        assert_eq!(b.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let rows: Vec<&[f32]> = b.rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn append_rows_exposes_whole_rows_to_fill() {
        let mut b = TupleBatch::new(2);
        b.push_row(&[9.0, 9.0]);
        let tail = b.append_rows(2);
        assert_eq!(tail, &[0.0; 4]);
        tail.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.row(2), &[3.0, 4.0]);
        assert!(b.append_rows(0).is_empty());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn row_builder_commits_on_finish() {
        let mut b = TupleBatch::new(2);
        let mut r = b.start_row();
        r.push(1.0);
        r.push(2.0);
        r.finish();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn row_builder_discards_partial_row_on_drop() {
        let mut b = TupleBatch::new(3);
        b.push_row(&[9.0, 9.0, 9.0]);
        {
            let mut r = b.start_row();
            r.push(1.0); // error path: builder dropped before the row is full
        }
        assert_eq!(b.len(), 1);
        assert_eq!(b.as_slice().len(), 3);
    }

    #[test]
    #[should_panic(expected = "wrong number of values")]
    fn row_builder_rejects_short_finish() {
        let mut b = TupleBatch::new(2);
        let mut r = b.start_row();
        r.push(1.0);
        r.finish();
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_row_checks_width() {
        TupleBatch::new(3).push_row(&[1.0]);
    }

    #[test]
    fn one_batch_source_replays_on_rewind() {
        let b = TupleBatch::from_rows(2, [[1.0, 2.0], [3.0, 4.0]]);
        let mut s = OneBatchSource::new(&b);
        assert_eq!(s.width(), 2);
        assert_eq!(s.tuple_count_hint(), Some(2));
        assert_eq!(s.next_batch().unwrap().unwrap().len(), 2);
        assert!(s.next_batch().unwrap().is_none());
        s.rewind().unwrap();
        assert_eq!(s.next_batch().unwrap().unwrap().len(), 2);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = TupleBatch::with_capacity(4, 16);
        b.push_row(&[0.0; 4]);
        let cap = b.data.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.data.capacity(), cap);
    }
}
