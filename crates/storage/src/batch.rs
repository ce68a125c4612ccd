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
//! allocations and cache-linear reads; a page source extracts every page
//! of a scan into one batch it clears and refills. Producers fill it a
//! page at a time ([`TupleBatch::append_rows`], Strider extraction's bulk
//! decode), a row at a time ([`TupleBatch::push_row`]) or a value at a
//! time ([`TupleBatch::start_row`], the CPU deform loop); whichever they
//! use, only whole rows ever become visible.
//!
//! [`TupleSource`] is the seam between the storage/strider side and the
//! execution engine: a rewindable stream of batches. The engine pulls
//! batches and trains as they arrive (the paper's "unpacking of data in the
//! access engine and processing it in the execution engine" interleave,
//! §5.1.1); at each epoch boundary it calls [`TupleSource::rewind`] to
//! re-scan. Implementations decide where batches come from — the buffer
//! pool via Striders, or an already-materialized batch
//! ([`OneBatchSource`]) — so every feeding strategy meets the engine
//! through the same interface.
//!
//! [`load_lanes`] is the other side of the seam, and the one place batch
//! rows move into the lockstep lanes: training's thread groups and
//! scoring's lane groups both load through it, each value once, straight
//! from the batch into its slot-major structure-of-arrays row.

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
/// ([`load_lanes`] re-groups rows by the consumer's lane count).
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

/// The one row-to-lane load: streams `source` into slot-major
/// structure-of-arrays rows `lanes` tuples at a time — the training
/// engine's thread groups and the scoring executor's lockstep groups.
///
/// Column `k` of a tuple in lane `l` lands at `soa[offsets[k] * lanes +
/// l]`; columns past `offsets.len()` are not loaded. Rows are written
/// straight from their batch a tile at a time, offsets outermost and lanes
/// innermost, so each column of a tile is one contiguous store into its
/// SoA row. The buffer itself carries a group across batch boundaries, so
/// boundaries are invisible: `flush(soa, active)` runs once per full group
/// (`active == lanes`) and once for the ragged last one, never for an
/// empty group.
///
/// A source narrower than `offsets`, or a batch whose width differs from
/// the source's, fails with `width_error(got, expected)` before any of the
/// batch's rows load.
pub fn load_lanes<B: AsMut<[f32]>, E: From<SourceError>>(
    source: &mut dyn TupleSource,
    offsets: &[u32],
    lanes: usize,
    soa: &mut B,
    width_error: impl Fn(usize, usize) -> E,
    mut flush: impl FnMut(&mut B, usize) -> Result<(), E>,
) -> Result<(), E> {
    assert!(lanes > 0, "a lane group needs at least one lane");
    let width = source.width();
    if width < offsets.len() {
        return Err(width_error(width, offsets.len()));
    }
    let mut active = 0;
    while let Some(batch) = source.next_batch()? {
        if batch.width() != width {
            return Err(width_error(batch.width(), width));
        }
        let (mut rows, mut left) = (batch.as_slice(), batch.len());
        while left > 0 {
            let (buf, free) = (soa.as_mut(), (lanes - active).min(left));
            let h = match free {
                16.. => load_tile::<16>(rows, width, offsets, lanes, active, buf),
                8.. => load_tile::<8>(rows, width, offsets, lanes, active, buf),
                4.. => load_tile::<4>(rows, width, offsets, lanes, active, buf),
                2.. => load_tile::<2>(rows, width, offsets, lanes, active, buf),
                _ => load_tile::<1>(rows, width, offsets, lanes, active, buf),
            };
            rows = &rows[h * width..];
            active += h;
            left -= h;
            if active == lanes {
                flush(soa, active)?;
                active = 0;
            }
        }
    }
    if active > 0 {
        flush(soa, active)?;
    }
    Ok(())
}

/// Loads the first `H` rows of `rows` into lanes `lane..lane + H`: per
/// column, `H` reads from rows that stay in L1 and one `H`-lane store,
/// which the compiler unrolls at each constant height. A run of rows
/// loads as its binary digits, largest first: 16 rows (a 64-byte line of
/// `f32` lanes per column) while they last, then 8, 4, 2, 1 — a few
/// passes over a wide row's SoA rows per page, not one per row. Returns
/// `H`.
fn load_tile<const H: usize>(
    rows: &[f32],
    width: usize,
    offsets: &[u32],
    lanes: usize,
    lane: usize,
    buf: &mut [f32],
) -> usize {
    let n = offsets.len();
    let tile: [&[f32]; H] = std::array::from_fn(|j| &rows[j * width..j * width + n]);
    for (k, &off) in offsets.iter().enumerate() {
        let base = off as usize * lanes + lane;
        let dst: &mut [f32; H] = (&mut buf[base..base + H]).try_into().expect("a whole tile");
        for (d, row) in dst.iter_mut().zip(&tile) {
            *d = row[k];
        }
    }
    H
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

    /// A source replaying `batches` in order.
    struct Batches(Vec<TupleBatch>, usize);

    impl TupleSource for Batches {
        fn width(&self) -> usize {
            self.0[0].width()
        }
        fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError> {
            self.1 += 1;
            Ok(self.0.get(self.1 - 1))
        }
        fn rewind(&mut self) -> Result<(), SourceError> {
            self.1 = 0;
            Ok(())
        }
    }

    type Flushes = Vec<(usize, Vec<f32>, Vec<f32>)>;

    /// Loads `source` at `lanes` lanes, columns 0 and 1 into SoA rows 1 and
    /// 0 (column 2 is not loaded), logging each flush's `(active, [row 0
    /// lanes], [row 1 lanes])`.
    fn load(source: &mut Batches, lanes: usize) -> (Result<(), SourceError>, Flushes) {
        let mut soa = vec![0.0f32; 2 * lanes];
        let mut flushed = Vec::new();
        let res = load_lanes(
            source,
            &[1, 0],
            lanes,
            &mut soa,
            |got, expected| SourceError(format!("width {got}, expected {expected}")),
            |soa: &mut Vec<f32>, active| {
                let row = |r: usize| soa[r * lanes..r * lanes + active].to_vec();
                flushed.push((active, row(0), row(1)));
                Ok(())
            },
        );
        (res, flushed)
    }

    #[test]
    fn load_lanes_carries_groups_across_batches() {
        let rows = |r: std::ops::Range<u8>| {
            TupleBatch::from_rows(3, r.map(|i| [f32::from(i), 10.0 * f32::from(i), -1.0]))
        };
        // Rows 0..6 over three batches (one empty): the first group spans
        // all three; rows 4 and 5 are the ragged tail.
        let mut source = Batches(
            vec![rows(0..1), rows(1..3), TupleBatch::new(3), rows(3..6)],
            0,
        );
        let (res, flushed) = load(&mut source, 4);
        assert_eq!(res, Ok(()));
        assert_eq!(
            flushed,
            [
                (4, vec![0.0, 10.0, 20.0, 30.0], vec![0.0, 1.0, 2.0, 3.0]),
                (2, vec![40.0, 50.0], vec![4.0, 5.0]),
            ]
        );

        // No rows: no flush.
        let (res, flushed) = load(&mut Batches(vec![TupleBatch::new(3)], 0), 4);
        assert_eq!(res, Ok(()));
        assert!(flushed.is_empty());

        // A batch of the wrong width fails before its rows load: its rows
        // would fill the group in flight (row 4), which is never flushed.
        let wide = TupleBatch::from_rows(4, [[7.0; 4]; 4]);
        let (res, flushed) = load(&mut Batches(vec![rows(0..5), wide], 0), 4);
        assert_eq!(res, Err(SourceError("width 4, expected 3".into())));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0, 4);
        // So does a source narrower than the loaded columns.
        let (res, _) = load(&mut Batches(vec![TupleBatch::new(1)], 0), 4);
        assert_eq!(res, Err(SourceError("width 1, expected 2".into())));

        // At 32 lanes a group loads in tiles of 16, 8 and 4 rows: rows
        // 0..16 and 16..20, then 20..28 and 28..32 from the second batch;
        // rows 32..40 are ragged. (The 4-lane case above loads 1 and 2.)
        let (res, flushed) = load(&mut Batches(vec![rows(0..20), rows(20..40)], 0), 32);
        assert_eq!(res, Ok(()));
        let lanes = |r: std::ops::Range<u8>, scale: f32| -> Vec<f32> {
            r.map(|i| scale * f32::from(i)).collect()
        };
        assert_eq!(
            flushed,
            [
                (32, lanes(0..32, 10.0), lanes(0..32, 1.0)),
                (8, lanes(32..40, 10.0), lanes(32..40, 1.0)),
            ]
        );
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
