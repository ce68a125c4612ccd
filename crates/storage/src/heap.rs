//! Heap files: ordered collections of pages holding one table's tuples.

use crate::batch::TupleBatch;
use crate::error::{StorageError, StorageResult};
use crate::page::{HeapPage, PageLayoutDesc, PageView, TupleDirection};
use crate::schema::{RowDecoder, Schema};
use crate::tuple::{Tuple, TUPLE_HEADER_BYTES};

/// A table's on-disk storage: a sequence of immutable page images.
///
/// Training tables are write-once/read-many in the paper's evaluation, so
/// the heap is built by a [`HeapFileBuilder`] and then only read (by the
/// buffer pool on behalf of MADlib or the Striders).
#[derive(Debug, Clone)]
pub struct HeapFile {
    schema: Schema,
    layout: PageLayoutDesc,
    pages: Vec<Vec<u8>>,
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
        self.pages
            .get(page_no as usize)
            .map(|p| p.as_slice())
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
    /// Striders' batch extraction, shared by the software baselines.
    pub fn scan_batch(&self) -> StorageResult<TupleBatch> {
        let mut batch = TupleBatch::with_capacity(self.schema.len(), self.tuple_count as usize);
        let decoder = RowDecoder::new(&self.schema);
        for page_no in 0..self.page_count() {
            self.page(page_no)?.deform_all_into(&decoder, &mut batch)?;
        }
        Ok(batch)
    }

    /// Sequentially scans every tuple (CPU-side decode; this is the code
    /// path software baselines use).
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
pub struct HeapFileBuilder {
    schema: Schema,
    layout: PageLayoutDesc,
    pages: Vec<Vec<u8>>,
    current: HeapPage,
    tuple_count: u64,
    next_xid: u32,
}

impl HeapFileBuilder {
    /// Starts a heap for `schema` with the given page size and placement
    /// direction (no special space — the evaluation tables carry none).
    pub fn new(
        schema: Schema,
        page_size: usize,
        direction: TupleDirection,
    ) -> StorageResult<HeapFileBuilder> {
        let layout = PageLayoutDesc::new(
            page_size,
            0,
            TUPLE_HEADER_BYTES + schema.tuple_data_width(),
            TUPLE_HEADER_BYTES,
            direction,
        )?;
        Ok(HeapFileBuilder {
            schema,
            layout,
            pages: Vec::new(),
            current: HeapPage::new(layout),
            tuple_count: 0,
            next_xid: 2, // xid 0/1 are reserved, like PostgreSQL's Invalid/Bootstrap
        })
    }

    /// Appends one tuple.
    pub fn insert(&mut self, tuple: &Tuple) -> StorageResult<()> {
        let ctid = ((self.pages.len() as u32) << 16) | self.current.view().tuple_count() as u32;
        let bytes = tuple.form(&self.schema, self.next_xid, ctid)?;
        self.insert_formed(bytes)
    }

    /// Appends one tuple from raw user-data byte slices (a fresh header is
    /// formed; `parts` concatenate to exactly the schema's data width).
    /// The inference tier's materialization path: source columns are
    /// copied byte-for-byte — no `Datum` round trip, types preserved
    /// exactly — with the appended prediction cell's bytes behind them.
    pub fn insert_raw(&mut self, parts: &[&[u8]]) -> StorageResult<()> {
        let width = self.schema.tuple_data_width();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        if total != width {
            return Err(StorageError::SchemaMismatch(format!(
                "raw tuple is {total} bytes, schema expects {width}"
            )));
        }
        let ctid = ((self.pages.len() as u32) << 16) | self.current.view().tuple_count() as u32;
        let mut bytes = Vec::with_capacity(TUPLE_HEADER_BYTES + width);
        crate::tuple::form_header(self.next_xid, ctid, &mut bytes);
        for p in parts {
            bytes.extend_from_slice(p);
        }
        self.insert_formed(bytes)
    }

    fn insert_formed(&mut self, bytes: Vec<u8>) -> StorageResult<()> {
        if self.current.free_slots() == 0 {
            self.rotate_page();
        }
        self.current.insert(&bytes)?;
        self.tuple_count += 1;
        self.next_xid = self.next_xid.wrapping_add(1).max(2);
        Ok(())
    }

    fn rotate_page(&mut self) {
        let mut full = std::mem::replace(&mut self.current, HeapPage::new(self.layout));
        full.seal();
        self.pages.push(full.into_bytes());
    }

    /// Seals the final page and returns the finished heap file.
    pub fn finish(mut self) -> HeapFile {
        if self.current.view().tuple_count() > 0 {
            self.rotate_page();
        }
        HeapFile {
            schema: self.schema,
            layout: self.layout,
            pages: self.pages,
            tuple_count: self.tuple_count,
        }
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

    #[test]
    fn large_pages_hold_more_tuples() {
        let h8 = build(100, 10, 8 * 1024);
        let h32 = build(100, 10, 32 * 1024);
        assert!(h32.layout().capacity > h8.layout().capacity);
        assert!(h32.page_count() <= h8.page_count());
    }
}
