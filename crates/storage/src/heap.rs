//! Heap files: ordered collections of pages holding one table's tuples.

use std::sync::Arc;

use crate::batch::TupleBatch;
use crate::error::{StorageError, StorageResult};
use crate::page::{HeapPage, PageLayoutDesc, PageView, TupleDirection};
use crate::schema::{RowDecoder, Schema};
use crate::tuple::{Tuple, TUPLE_HEADER_BYTES};

/// A table's on-disk storage: a sequence of immutable page images.
///
/// Training tables are write-once/read-many in the paper's evaluation, so
/// the heap is built by a [`HeapFileBuilder`] and then only read (by the
/// buffer pool on behalf of the Striders). Each page is a shared handle:
/// the builder's page buffer moves in without a copy, and a buffer-pool
/// miss lends the frame a clone of the handle rather than copying the
/// bytes — the Strider reads the page where the heap keeps it.
#[derive(Debug, Clone)]
pub struct HeapFile {
    schema: Schema,
    layout: PageLayoutDesc,
    pages: Vec<Arc<Vec<u8>>>,
    tuple_count: u64,
}

impl HeapFile {
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn layout(&self) -> &PageLayoutDesc {
        &self.layout
    }

    /// Number of pages.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Total number of tuples across all pages.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count
    }

    /// Total size in bytes (pages are fixed-size).
    pub fn total_bytes(&self) -> u64 {
        self.pages.len() as u64 * self.layout.page_size as u64
    }

    /// Tuples living in the page range `[start, end)`: every heap page
    /// is full (the layout's capacity) except possibly the last — pure
    /// arithmetic, no page decode. The shard planner and the range scan
    /// sources share this, so shard tuple counts always agree with what
    /// a range scan yields.
    pub fn tuples_in_page_range(&self, start: u32, end: u32) -> u64 {
        let pages = self.page_count();
        let capacity = self.layout.capacity as u64;
        (start..end.min(pages))
            .map(|p| {
                if p + 1 == pages {
                    self.tuple_count - capacity * (pages as u64 - 1)
                } else {
                    capacity
                }
            })
            .sum()
    }

    /// Raw image of page `page_no` (what the disk returns).
    pub fn page_bytes(&self, page_no: u32) -> StorageResult<&[u8]> {
        self.page_image(page_no).map(|p| p.as_slice())
    }

    /// The shared handle of page `page_no` — what a buffer-pool miss lends
    /// its frame.
    pub(crate) fn page_image(&self, page_no: u32) -> StorageResult<&Arc<Vec<u8>>> {
        self.pages
            .get(page_no as usize)
            .ok_or(StorageError::PageOutOfRange {
                page_no,
                pages: self.pages.len() as u32,
            })
    }

    /// A validated, borrowed view of page `page_no`.
    pub fn page(&self, page_no: u32) -> StorageResult<PageView<'_>> {
        PageView::new(self.page_bytes(page_no)?, self.layout)
    }

    /// Scans the whole heap into one flat [`TupleBatch`] (zero-copy page
    /// views, no per-tuple allocation) — the CPU-side counterpart of the
    /// Striders' batch extraction (the reference trainer's and the tests'
    /// input).
    pub fn scan_batch(&self) -> StorageResult<TupleBatch> {
        let mut batch = TupleBatch::with_capacity(self.schema.len(), self.tuple_count as usize);
        let decoder = RowDecoder::new(&self.schema);
        for page_no in 0..self.page_count() {
            self.page(page_no)?.deform_all_into(&decoder, &mut batch)?;
        }
        Ok(batch)
    }

    /// Sequentially scans every tuple as typed [`Tuple`]s (CPU-side
    /// decode).
    pub fn scan(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.page_count()).flat_map(move |page_no| {
            let page = self
                .page(page_no)
                .expect("heap pages are well-formed by construction");
            (0..page.tuple_count()).map(move |s| {
                Tuple::deform(&self.schema, page.tuple_bytes(s).expect("slot < count"))
                    .expect("heap tuples are well-formed by construction")
            })
        })
    }
}

/// Builds a heap file by appending tuples, sealing pages as they fill.
///
/// There is one way to put a tuple on a page: [`HeapFileBuilder::insert_with`]
/// forms the tuple header directly in the slot's bytes and hands the caller
/// the slot's user-data bytes to fill. Line pointers and the page header's
/// counts are written once, when the page rotates.
///
/// Tuples are fixed-width and every page but the last is full, so tuple
/// `k` of a heap lands on page `k / capacity`, and its `t_xmin` / `t_ctid`
/// are functions of `k`. That makes a heap buildable in parts: builders
/// opened [`at_page`](HeapFileBuilder::at_page) `0, j1, j2, …` and joined
/// by [`finish_parts`](HeapFileBuilder::finish_parts) produce the bytes one
/// builder would have.
pub struct HeapFileBuilder {
    schema: Schema,
    layout: PageLayoutDesc,
    /// Heap page number of this builder's first page.
    first_page: u32,
    pages: Vec<Arc<Vec<u8>>>,
    current: HeapPage,
    /// Slots of `current` written so far (live only once it rotates).
    filled: u16,
    tuple_count: u64,
}

/// `t_xmin` of a heap's tuple `k`: one xid per insert from 2 up (0 and 1
/// are reserved, like PostgreSQL's Invalid and Bootstrap), wrapping from
/// `u32::MAX` back to 2 — a cycle of `u32::MAX − 1` xids.
fn xid_of(k: u64) -> u32 {
    2 + (k % (u32::MAX as u64 - 1)) as u32
}

impl HeapFileBuilder {
    /// Starts a heap for `schema` with the given page size and placement
    /// direction.
    pub fn new(
        schema: Schema,
        page_size: usize,
        direction: TupleDirection,
    ) -> StorageResult<HeapFileBuilder> {
        HeapFileBuilder::at_page(schema, page_size, direction, 0)
    }

    /// A builder for the part of a heap that starts at page `first_page`
    /// (every page before it full): the tuples it takes get the `t_xmin` /
    /// `t_ctid` they would have had after `first_page × capacity` earlier
    /// inserts. [`HeapFileBuilder::finish_parts`] joins the parts.
    pub fn at_page(
        schema: Schema,
        page_size: usize,
        direction: TupleDirection,
        first_page: u32,
    ) -> StorageResult<HeapFileBuilder> {
        let layout = HeapFileBuilder::layout_for(&schema, page_size, direction)?;
        Ok(HeapFileBuilder {
            schema,
            layout,
            first_page,
            pages: Vec::new(),
            current: HeapPage::new(layout),
            filled: 0,
            tuple_count: 0,
        })
    }

    /// The page layout a heap of `schema` gets (no special space — the
    /// evaluation tables carry none).
    pub fn layout_for(
        schema: &Schema,
        page_size: usize,
        direction: TupleDirection,
    ) -> StorageResult<PageLayoutDesc> {
        PageLayoutDesc::new(
            page_size,
            0,
            TUPLE_HEADER_BYTES + schema.tuple_data_width(),
            TUPLE_HEADER_BYTES,
            direction,
        )
    }

    /// Appends one tuple.
    pub fn insert(&mut self, tuple: &Tuple) -> StorageResult<()> {
        tuple.check(&self.schema)?;
        self.insert_with(|data| tuple.write_data(data));
        Ok(())
    }

    /// Appends one tuple formed in place: a fresh header is written into
    /// the next slot and `fill` gets the slot's user-data bytes (exactly
    /// the schema's data width, zeroed) to write the cells into — the
    /// inference tier's materialization copies source columns
    /// byte-for-byte, no `Datum` round trip, and no buffer in between.
    pub fn insert_with(&mut self, fill: impl FnOnce(&mut [u8])) {
        if self.filled == self.layout.capacity {
            self.rotate_page();
        }
        let page_no = self.first_page + self.pages.len() as u32;
        let xmin = xid_of(self.first_page as u64 * self.layout.capacity as u64 + self.tuple_count);
        let ctid = self.ctid(page_no, self.filled);
        let (header, data) = self
            .current
            .slot_mut(self.filled)
            .split_at_mut(TUPLE_HEADER_BYTES);
        crate::tuple::write_header(xmin, ctid, header);
        fill(data);
        self.filled += 1;
        self.tuple_count += 1;
    }

    /// `t_ctid` of the tuple landing in `slot` of heap page `page_no`:
    /// `page_no << 16 | slot` — except that the first tuple of every page
    /// after the first carries `(page_no − 1) << 16 | capacity`.
    ///
    /// That exception is a quirk kept on purpose: it is what computing
    /// the pointer *before* rotating a full page yields — the slot one past
    /// the end of the previous page — and every heap on record was built
    /// that way. `t_ctid` is diagnostic only, but the bytes are not free to
    /// move: the scan codec packs the field, `capacity` in the slot half
    /// widens its FOR lane from 8 to 16 bits, and compressed sizes — and so
    /// every simulated I/O second of a pushdown scan — are recorded against
    /// it. Fixing it is a change with its own record diff.
    fn ctid(&self, page_no: u32, slot: u16) -> u32 {
        if slot == 0 && page_no > 0 {
            ((page_no - 1) << 16) | self.layout.capacity as u32
        } else {
            (page_no << 16) | slot as u32
        }
    }

    fn rotate_page(&mut self) {
        let mut full = std::mem::replace(&mut self.current, HeapPage::new(self.layout));
        full.set_live(0, self.filled);
        full.seal();
        self.pages.push(Arc::new(full.into_bytes()));
        self.filled = 0;
    }

    /// Seals the final page and returns the finished heap file. For a
    /// builder that starts the heap ([`HeapFileBuilder::new`]); a part
    /// opened [`at_page`](HeapFileBuilder::at_page) is finished with the
    /// parts before it, by [`HeapFileBuilder::finish_parts`].
    pub fn finish(self) -> HeapFile {
        HeapFileBuilder::finish_parts(vec![self])
            .expect("a builder started at page 0 is a whole heap")
    }

    /// Seals each part's final page and joins the parts, in order, into
    /// one heap. The parts must tile it: the first starts at page 0, each
    /// next one at the page the previous ended on, and only the last may
    /// end on a partial page — otherwise the pages would not be the ones a
    /// single builder writes, and the join is refused.
    pub fn finish_parts(parts: Vec<HeapFileBuilder>) -> StorageResult<HeapFile> {
        let mut joined: Option<HeapFile> = None;
        for mut part in parts {
            if part.filled > 0 {
                part.rotate_page();
            }
            let heap = joined.get_or_insert_with(|| HeapFile {
                schema: part.schema.clone(),
                layout: part.layout,
                pages: Vec::new(),
                tuple_count: 0,
            });
            let tiles = part.layout == heap.layout
                && part.schema == heap.schema
                && part.first_page == heap.page_count()
                && heap.tuple_count == heap.page_count() as u64 * heap.layout.capacity as u64;
            if !tiles {
                return Err(StorageError::SchemaMismatch(format!(
                    "heap part starting at page {} cannot follow {} tuples on {} pages: \
                     parts must share a layout and tile the heap in full pages",
                    part.first_page,
                    heap.tuple_count,
                    heap.page_count()
                )));
            }
            heap.pages.append(&mut part.pages);
            heap.tuple_count += part.tuple_count;
        }
        joined.ok_or_else(|| StorageError::SchemaMismatch("a heap needs at least one part".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, features: usize, page_size: usize) -> HeapFile {
        let schema = Schema::training(features);
        let mut b = HeapFileBuilder::new(schema, page_size, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            let feats: Vec<f32> = (0..features).map(|i| (k * features + i) as f32).collect();
            b.insert(&Tuple::training(&feats, k as f32)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn page_count_matches_capacity_math() {
        let heap = build(1000, 10, 8 * 1024);
        let cap = heap.layout().capacity as usize;
        assert_eq!(heap.page_count() as usize, 1000usize.div_ceil(cap));
        assert_eq!(heap.tuple_count(), 1000);
    }

    #[test]
    fn scan_returns_tuples_in_insert_order() {
        let heap = build(300, 4, 8 * 1024);
        let labels: Vec<f32> = heap.scan().map(|t| t.as_training().1).collect();
        assert_eq!(labels.len(), 300);
        for (k, y) in labels.iter().enumerate() {
            assert_eq!(*y, k as f32);
        }
    }

    #[test]
    fn pages_are_sealed_with_checksums() {
        let heap = build(500, 8, 8 * 1024);
        for p in 0..heap.page_count() {
            let page = heap.page(p).unwrap();
            assert!(page.verify_checksum());
            assert!(page.tuple_count() > 0);
        }
    }

    #[test]
    fn out_of_range_page_errors() {
        let heap = build(10, 2, 8 * 1024);
        assert!(heap.page_bytes(heap.page_count()).is_err());
    }

    #[test]
    fn empty_heap_has_no_pages() {
        let b =
            HeapFileBuilder::new(Schema::training(3), 8 * 1024, TupleDirection::Ascending).unwrap();
        let heap = b.finish();
        assert_eq!(heap.page_count(), 0);
        assert_eq!(heap.tuple_count(), 0);
        assert_eq!(heap.scan().count(), 0);
    }

    #[test]
    fn descending_direction_round_trips() {
        let schema = Schema::training(5);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Descending).unwrap();
        for k in 0..50 {
            b.insert(&Tuple::training(&[k as f32; 5], -(k as f32)))
                .unwrap();
        }
        let heap = b.finish();
        let labels: Vec<f32> = heap.scan().map(|t| t.as_training().1).collect();
        assert_eq!(labels[0], 0.0);
        assert_eq!(labels[49], -49.0);
    }

    fn row(k: usize) -> Tuple {
        let feats: Vec<f32> = (0..6).map(|i| (k * 6 + i) as f32 * 0.5).collect();
        Tuple::training(&feats, -(k as f32))
    }

    /// Page images minus header bytes 20..24 (the checksum).
    fn unsealed(heap: &HeapFile) -> Vec<Vec<u8>> {
        (0..heap.page_count())
            .map(|p| {
                let mut bytes = heap.page_bytes(p).unwrap().to_vec();
                bytes[20..24].fill(0);
                bytes
            })
            .collect()
    }

    /// The in-place builder writes the bytes `Tuple::form` +
    /// `HeapPage::insert` write under the rule the builder has always
    /// followed: xids count up from 2, and `t_ctid` is computed from the
    /// builder's state *before* a full page rotates. That order is what
    /// makes the first tuple of every page after the first point at slot
    /// `capacity` of the previous page — this test pins that quirk (see
    /// `HeapFileBuilder::ctid` for why it stays).
    #[test]
    fn in_place_builder_writes_the_formed_tuple_bytes() {
        let schema = Schema::training(6);
        for direction in [TupleDirection::Ascending, TupleDirection::Descending] {
            let mut b = HeapFileBuilder::new(schema.clone(), 8 * 1024, direction).unwrap();
            let layout = b.layout;
            // Three full pages and a partial fourth.
            let n = layout.capacity as usize * 3 + 17;
            let mut expected: Vec<Vec<u8>> = Vec::new();
            let mut current = HeapPage::new(layout);
            let mut xid = 2u32;
            for k in 0..n {
                b.insert(&row(k)).unwrap();
                let count = current.view().tuple_count();
                let ctid = ((expected.len() as u32) << 16) | count as u32;
                if count == layout.capacity {
                    let full = std::mem::replace(&mut current, HeapPage::new(layout));
                    expected.push(full.into_bytes());
                }
                current
                    .insert(&row(k).form(&schema, xid, ctid).unwrap())
                    .unwrap();
                xid = xid.wrapping_add(1).max(2);
            }
            expected.push(current.into_bytes());
            let heap = b.finish();
            assert_eq!(heap.tuple_count(), n as u64);
            assert_eq!(unsealed(&heap), expected, "{direction:?}");
            // The quirk, spelled out: page 1's first tuple names page 0.
            let first = heap.page(1).unwrap().tuple_bytes(0).unwrap();
            let ctid = u32::from_le_bytes(first[12..16].try_into().unwrap());
            assert_eq!(ctid, layout.capacity as u32);
            for p in 0..heap.page_count() {
                assert!(heap.page(p).unwrap().verify_checksum());
            }
        }
    }

    #[test]
    fn xids_wrap_past_the_reserved_ones() {
        assert_eq!(xid_of(0), 2);
        assert_eq!(xid_of(u32::MAX as u64 - 2), u32::MAX);
        assert_eq!(xid_of(u32::MAX as u64 - 1), 2);
        // The insert-by-insert rule agrees across the wrap.
        for k in u32::MAX as u64 - 5..u32::MAX as u64 + 5 {
            assert_eq!(xid_of(k + 1), xid_of(k).wrapping_add(1).max(2), "{k}");
        }
    }

    #[test]
    fn parts_join_into_the_bytes_one_builder_writes() {
        let schema = Schema::training(6);
        for direction in [TupleDirection::Ascending, TupleDirection::Descending] {
            let part = |first_page: u32, rows: std::ops::Range<usize>| {
                let mut b =
                    HeapFileBuilder::at_page(schema.clone(), 8 * 1024, direction, first_page)
                        .unwrap();
                for k in rows {
                    b.insert(&row(k)).unwrap();
                }
                b
            };
            let cap = part(0, 0..0).layout.capacity as usize;
            let n = cap * 4 + 9;
            let whole = part(0, 0..n).finish();
            for cuts in [vec![], vec![1], vec![2, 3], vec![1, 2, 3, 4]] {
                let mut parts = Vec::new();
                let mut start = 0usize;
                for end in cuts.iter().copied().chain([5]) {
                    parts.push(part(start as u32, (start * cap).min(n)..(end * cap).min(n)));
                    start = end;
                }
                let joined = HeapFileBuilder::finish_parts(parts).unwrap();
                assert_eq!(joined.tuple_count(), whole.tuple_count());
                assert_eq!(joined.pages, whole.pages, "{direction:?} cut at {cuts:?}");
            }
            // Parts that do not tile the heap are refused: a gap, a part
            // after a partial page, no part at all.
            let refused = [
                vec![part(0, 0..cap), part(2, 2 * cap..3 * cap)],
                vec![part(0, 0..cap - 1), part(1, cap..cap + 5)],
                vec![part(1, cap..2 * cap)],
                vec![],
            ];
            for parts in refused {
                assert!(matches!(
                    HeapFileBuilder::finish_parts(parts),
                    Err(StorageError::SchemaMismatch(_))
                ));
            }
        }
    }

    #[test]
    fn large_pages_hold_more_tuples() {
        let h8 = build(100, 10, 8 * 1024);
        let h32 = build(100, 10, 32 * 1024);
        assert!(h32.layout().capacity > h8.layout().capacity);
        assert!(h32.page_count() <= h8.page_count());
    }
}
