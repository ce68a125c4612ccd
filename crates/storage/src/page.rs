//! Byte-exact slotted heap pages (paper Fig. 6).
//!
//! A page consists of a 24-byte header, an array of 4-byte line pointers
//! ("tuple pointers" in the paper), the tuple data region, free space, and
//! an optional special space at the very end:
//!
//! ```text
//! +--------------+-------------------+------------- ... ----+--------+---------+
//! | page header  | line pointers     | tuple data           | free   | special |
//! | 24 B         | 4 B each          | fixed-width tuples   | space  | space   |
//! +--------------+-------------------+------------- ... ----+--------+---------+
//! ```
//!
//! Header layout (little-endian):
//!
//! ```text
//! offset  field        meaning
//! 0..8    page_size    total page size in bytes (the Strider's first read:
//!                      `readB 0, 8, %cr` in the paper's §5.1.2 listing)
//! 8..10   version      layout version / magic (0xDA7A)
//! 10..12  pd_lower     end of the used line-pointer region
//! 12..14  pd_upper     start of free space in the data region
//! 14..16  pd_special   offset of the special space
//! 16..18  tuple_count  number of live tuples
//! 18..20  flags        bit 0: tuple direction (0 = ascending, 1 = descending)
//! 20..24  checksum     lane-parallel FNV-1a over bytes 24.. (0 = not computed)
//! ```
//!
//! The checksum, exactly (PostgreSQL's `checksum_impl.h` interleaves FNV
//! lanes for the same reason — a loop the compiler can vectorise): with
//! `step(h, v) = (h ^ v) * 0x0100_0193` (wrapping, 32-bit) and every state
//! starting at the FNV offset basis `0x811c_9dc5`,
//!
//! 1. the bytes past the header are cut into 32-byte blocks; little-endian
//!    `u32` word `i` of each block is `step`ped into lane state `i` of 8;
//! 2. the 8 lane states, lane 0 first, are `step`ped into one final state;
//! 3. the bytes left over (fewer than 32 — 8 on every supported page size)
//!    are `step`ped into that state one byte at a time, in order;
//! 4. a result of 0 is stored as 1.
//!
//! `step` is a bijection in `h` for a fixed `v` and in `v` for a fixed
//! `h`, so a change confined to one word (or one tail byte) always changes
//! the sum.
//!
//! Training tuples are fixed-width, so the page pre-sizes its line-pointer
//! array for the maximum tuple count and places tuples **contiguously**.
//! Two placement directions are supported, and the Strider code generator
//! emits different walk loops for each (demonstrating the ISA's claim to
//! "cater to the variations in the database page organization", §1):
//!
//! * [`TupleDirection::Ascending`] — tuples grow upward from the end of the
//!   line-pointer array; the walk adds the tuple stride (the paper's
//!   assembly listing walks this way: `ad %treg, %treg, 0`).
//! * [`TupleDirection::Descending`] — tuples grow downward from the special
//!   space, like stock PostgreSQL; the walk subtracts the stride.
//!
//! [`PageView`] is the only code that validates a header or follows a line
//! pointer — every host-side reader goes through it and gets a typed
//! [`StorageError`] on a corrupt or truncated image, never a panic;
//! [`HeapPage`] is the write side only. Outside this crate only the scan
//! tier's page codec and the Strider generator (compiled from
//! [`PageLayoutDesc`]) are entitled to the byte layout.

use crate::batch::TupleBatch;
use crate::error::{StorageError, StorageResult};
use crate::schema::RowDecoder;

/// Size of the page header in bytes.
pub const PAGE_HEADER_BYTES: usize = 24;
/// Size of one line pointer in bytes (u16 offset, u16 length).
pub const LINE_POINTER_BYTES: usize = 4;
/// Layout version magic stored in the header.
pub const PAGE_VERSION: u16 = 0xDA7A;

/// Supported page sizes: the paper evaluates 8, 16, and 32 KB (§7,
/// "we measured end-to-end runtimes for 8, 16, and 32 KB page sizes").
pub const SUPPORTED_PAGE_SIZES: [usize; 3] = [8 * 1024, 16 * 1024, 32 * 1024];

/// Placement direction of tuples within the data region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TupleDirection {
    /// First tuple at the lowest data offset; subsequent tuples above it.
    Ascending,
    /// First tuple at the highest data offset (just below the special
    /// space); subsequent tuples below it — PostgreSQL's convention.
    Descending,
}

/// Everything the Strider code generator must know about a page layout to
/// emit an extraction program (§6.2: "The compiler converts the database
/// page configuration into a set of Strider instructions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PageLayoutDesc {
    /// Total page size in bytes.
    pub page_size: usize,
    /// Bytes reserved at the end of the page (index hints etc.).
    pub special_bytes: usize,
    /// On-page size of one tuple: header + user data.
    pub tuple_bytes: usize,
    /// Size of the tuple header that `cln` strips.
    pub tuple_header_bytes: usize,
    /// Maximum tuples per page.
    pub capacity: u16,
    /// Placement direction.
    pub direction: TupleDirection,
}

impl PageLayoutDesc {
    /// Computes the layout for a page/tuple size pair.
    pub fn new(
        page_size: usize,
        special_bytes: usize,
        tuple_bytes: usize,
        tuple_header_bytes: usize,
        direction: TupleDirection,
    ) -> StorageResult<PageLayoutDesc> {
        if !SUPPORTED_PAGE_SIZES.contains(&page_size) {
            return Err(StorageError::BadPageSize(page_size));
        }
        let usable = page_size
            .checked_sub(PAGE_HEADER_BYTES + special_bytes)
            .ok_or(StorageError::BadPageSize(page_size))?;
        let per_tuple = tuple_bytes + LINE_POINTER_BYTES;
        let capacity = usable / per_tuple;
        if capacity == 0 {
            return Err(StorageError::PageFull {
                needed: per_tuple,
                free: usable,
            });
        }
        Ok(PageLayoutDesc {
            page_size,
            special_bytes,
            tuple_bytes,
            tuple_header_bytes,
            capacity: capacity.min(u16::MAX as usize) as u16,
            direction,
        })
    }

    /// Offset of the first byte past the (pre-sized) line-pointer array,
    /// i.e. the start of the tuple data region.
    pub fn data_start(&self) -> usize {
        PAGE_HEADER_BYTES + self.capacity as usize * LINE_POINTER_BYTES
    }

    /// Offset of the special space.
    pub fn special_start(&self) -> usize {
        self.page_size - self.special_bytes
    }

    /// On-page offset of tuple `slot`.
    pub fn tuple_offset(&self, slot: u16) -> usize {
        match self.direction {
            TupleDirection::Ascending => self.data_start() + slot as usize * self.tuple_bytes,
            TupleDirection::Descending => {
                self.special_start() - (slot as usize + 1) * self.tuple_bytes
            }
        }
    }

    /// Bytes of user data (post-`cln`) per tuple.
    pub fn tuple_data_bytes(&self) -> usize {
        self.tuple_bytes - self.tuple_header_bytes
    }
}

/// A read-only heap page over *borrowed* bytes — the zero-copy view every
/// reader uses, for buffer-pool frames and heap pages alike. Validates the
/// header; never clones the page image.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    layout: PageLayoutDesc,
    bytes: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Wraps raw page bytes, validating the header.
    pub fn new(bytes: &'a [u8], layout: PageLayoutDesc) -> StorageResult<PageView<'a>> {
        if bytes.len() != layout.page_size {
            return Err(StorageError::CorruptPage(format!(
                "buffer is {} bytes, layout says {}",
                bytes.len(),
                layout.page_size
            )));
        }
        let view = PageView { layout, bytes };
        if view.read_u64(0) != layout.page_size as u64 {
            return Err(StorageError::CorruptPage(format!(
                "header page_size {} != {}",
                view.read_u64(0),
                layout.page_size
            )));
        }
        if view.read_u16(8) != PAGE_VERSION {
            return Err(StorageError::CorruptPage(format!(
                "bad version {:#x}",
                view.read_u16(8)
            )));
        }
        let count = view.read_u16(16);
        if count > layout.capacity {
            return Err(StorageError::CorruptPage(format!(
                "tuple_count {count} exceeds capacity {}",
                layout.capacity
            )));
        }
        Ok(view)
    }

    /// Number of live tuples.
    pub fn tuple_count(&self) -> u16 {
        self.read_u16(16)
    }

    /// Borrowed bytes of the tuple in `slot` (header + data).
    pub fn tuple_bytes(&self, slot: u16) -> StorageResult<&'a [u8]> {
        let count = self.tuple_count();
        if slot >= count {
            return Err(StorageError::SlotOutOfRange { slot, count });
        }
        let lp_off = PAGE_HEADER_BYTES + slot as usize * LINE_POINTER_BYTES;
        let off = self.read_u16(lp_off) as usize;
        let len = self.read_u16(lp_off + 2) as usize;
        if off + len > self.layout.page_size {
            return Err(StorageError::CorruptPage(format!(
                "line pointer {slot} points past page end ({off}+{len})"
            )));
        }
        Ok(&self.bytes[off..off + len])
    }

    /// The `width` bytes of user data of the tuple in `slot` — see
    /// [`crate::tuple::user_data`], the one reader of `t_hoff`.
    pub fn user_data(&self, slot: u16, width: usize) -> StorageResult<&'a [u8]> {
        crate::tuple::user_data(self.tuple_bytes(slot)?, width)
    }

    /// Decodes every live tuple straight into `batch` in slot order — the
    /// CPU-side page→batch step of the streaming data path. Only whole
    /// rows are appended: a bad tuple errors before its row starts.
    pub fn deform_all_into(
        &self,
        decoder: &RowDecoder,
        batch: &mut TupleBatch,
    ) -> StorageResult<()> {
        for slot in 0..self.tuple_count() {
            let data = self.user_data(slot, decoder.data_width())?;
            decoder.decode_row(data, batch.append_rows(1));
        }
        Ok(())
    }

    /// Verifies the stored checksum (0 means "not computed": accepted).
    pub fn verify_checksum(&self) -> bool {
        let stored = self.read_u32(20);
        stored == 0 || stored == checksum(&self.bytes[PAGE_HEADER_BYTES..])
    }

    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.bytes[off..off + 2].try_into().unwrap())
    }
    fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
    }
    fn read_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }
}

/// A heap page being written, over an owned byte buffer. Reads go through
/// [`HeapPage::view`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapPage {
    layout: PageLayoutDesc,
    bytes: Vec<u8>,
}

impl HeapPage {
    /// Creates an empty page for the given layout.
    pub fn new(layout: PageLayoutDesc) -> HeapPage {
        let mut page = HeapPage {
            layout,
            bytes: vec![0u8; layout.page_size],
        };
        page.write_u64(0, layout.page_size as u64);
        page.write_u16(8, PAGE_VERSION);
        page.write_u16(10, PAGE_HEADER_BYTES as u16); // pd_lower: no pointers yet
        let upper = match layout.direction {
            TupleDirection::Ascending => layout.data_start(),
            TupleDirection::Descending => layout.special_start(),
        };
        page.write_u16(12, upper as u16);
        page.write_u16(14, layout.special_start() as u16);
        page.write_u16(16, 0); // tuple_count
        let dir_flag = match layout.direction {
            TupleDirection::Ascending => 0u16,
            TupleDirection::Descending => 1u16,
        };
        page.write_u16(18, dir_flag);
        page.write_u32(20, 0); // checksum: not computed
        page
    }

    /// The read side of this page (well-formed by construction).
    pub fn view(&self) -> PageView<'_> {
        PageView {
            layout: self.layout,
            bytes: &self.bytes,
        }
    }

    /// Raw page image — what the buffer pool stores and Striders consume.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the page, returning its byte image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Remaining insertion capacity.
    pub fn free_slots(&self) -> u16 {
        self.layout.capacity - self.view().tuple_count()
    }

    /// Inserts formed tuple bytes; returns the slot.
    pub fn insert(&mut self, tuple: &[u8]) -> StorageResult<u16> {
        if tuple.len() != self.layout.tuple_bytes {
            return Err(StorageError::SchemaMismatch(format!(
                "tuple is {} bytes, page layout expects {}",
                tuple.len(),
                self.layout.tuple_bytes
            )));
        }
        let slot = self.view().tuple_count();
        if slot >= self.layout.capacity {
            return Err(StorageError::PageFull {
                needed: tuple.len() + LINE_POINTER_BYTES,
                free: 0,
            });
        }
        self.slot_mut(slot).copy_from_slice(tuple);
        self.set_live(slot, slot + 1);
        Ok(slot)
    }

    /// The bytes `slot`'s tuple occupies, for a writer that forms tuples
    /// in place. No reader sees them until [`HeapPage::set_live`] covers
    /// the slot.
    pub(crate) fn slot_mut(&mut self, slot: u16) -> &mut [u8] {
        let off = self.layout.tuple_offset(slot);
        &mut self.bytes[off..off + self.layout.tuple_bytes]
    }

    /// Makes slots `from..count` live beside the already-live `0..from`:
    /// their line pointers, then `tuple_count`, `pd_lower` and `pd_upper`
    /// — once per tuple for [`HeapPage::insert`], once per page for the
    /// heap builder.
    pub(crate) fn set_live(&mut self, from: u16, count: u16) {
        let tuple_bytes = self.layout.tuple_bytes;
        for slot in from..count {
            // Line pointer: u16 offset | u16 length.
            let lp_off = PAGE_HEADER_BYTES + slot as usize * LINE_POINTER_BYTES;
            self.write_u16(lp_off, self.layout.tuple_offset(slot) as u16);
            self.write_u16(lp_off + 2, tuple_bytes as u16);
        }
        self.write_u16(16, count);
        let lower = PAGE_HEADER_BYTES + count as usize * LINE_POINTER_BYTES;
        self.write_u16(10, lower as u16); // pd_lower
        let upper = match self.layout.direction {
            TupleDirection::Ascending => self.layout.data_start() + count as usize * tuple_bytes,
            TupleDirection::Descending => {
                self.layout.special_start() - count as usize * tuple_bytes
            }
        };
        self.write_u16(12, upper as u16); // pd_upper
    }

    /// Computes and stores the checksum of everything past the header.
    pub fn seal(&mut self) {
        let sum = checksum(&self.bytes[PAGE_HEADER_BYTES..]);
        self.write_u32(20, sum);
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        self.bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }
    fn write_u32(&mut self, off: usize, v: u32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }
    fn write_u64(&mut self, off: usize, v: u64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

const FNV_BASIS: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;
const CHECKSUM_LANES: usize = 8;

fn fnv_step(h: u32, v: u32) -> u32 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// The page checksum the module docs define. The 8 lane states are
/// independent, so the block loop has no multiply chain to wait on.
fn checksum(data: &[u8]) -> u32 {
    let mut lanes = [FNV_BASIS; CHECKSUM_LANES];
    let mut blocks = data.chunks_exact(4 * CHECKSUM_LANES);
    for block in &mut blocks {
        for (h, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *h = fnv_step(*h, u32::from_le_bytes(word.try_into().unwrap()));
        }
    }
    let folded = lanes.into_iter().fold(FNV_BASIS, fnv_step);
    let h = blocks
        .remainder()
        .iter()
        .fold(folded, |h, &b| fnv_step(h, b as u32));
    // Reserve 0 for "not computed".
    h.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::{Tuple, TUPLE_HEADER_BYTES};

    fn layout(dir: TupleDirection) -> PageLayoutDesc {
        let schema = Schema::training(10);
        PageLayoutDesc::new(
            8 * 1024,
            0,
            TUPLE_HEADER_BYTES + schema.tuple_data_width(),
            TUPLE_HEADER_BYTES,
            dir,
        )
        .unwrap()
    }

    #[test]
    fn capacity_accounts_for_pointers_and_header() {
        let l = layout(TupleDirection::Ascending);
        // tuple = 16 + 44 = 60 bytes, +4 pointer = 64; (8192-24)/64 = 127
        assert_eq!(l.tuple_bytes, 60);
        assert_eq!(l.capacity, 127);
        assert_eq!(l.data_start(), PAGE_HEADER_BYTES + 127 * 4);
    }

    #[test]
    fn insert_and_read_back_ascending() {
        let schema = Schema::training(10);
        let l = layout(TupleDirection::Ascending);
        let mut page = HeapPage::new(l);
        let feats: Vec<f32> = (0..10).map(|i| i as f32).collect();
        for k in 0..5 {
            let t = Tuple::training(&feats, k as f32);
            let bytes = t.form(&schema, 1, k).unwrap();
            assert_eq!(page.insert(&bytes).unwrap(), k as u16);
        }
        assert_eq!(page.view().tuple_count(), 5);
        for k in 0..5u16 {
            let t = Tuple::deform(&schema, page.view().tuple_bytes(k).unwrap()).unwrap();
            let (_, y) = t.as_training();
            assert_eq!(y, k as f32);
        }
        // Ascending: consecutive tuples are `tuple_bytes` apart, increasing.
        let o0 = l.tuple_offset(0);
        let o1 = l.tuple_offset(1);
        assert_eq!(o1 - o0, l.tuple_bytes);
    }

    #[test]
    fn insert_and_read_back_descending() {
        let schema = Schema::training(10);
        let l = layout(TupleDirection::Descending);
        let mut page = HeapPage::new(l);
        let feats: Vec<f32> = (0..10).map(|i| i as f32).collect();
        for k in 0..5 {
            let bytes = Tuple::training(&feats, k as f32)
                .form(&schema, 1, k)
                .unwrap();
            page.insert(&bytes).unwrap();
        }
        for k in 0..5u16 {
            let t = Tuple::deform(&schema, page.view().tuple_bytes(k).unwrap()).unwrap();
            assert_eq!(t.as_training().1, k as f32);
        }
        // Descending: offsets decrease.
        assert!(l.tuple_offset(1) < l.tuple_offset(0));
        assert_eq!(l.tuple_offset(0), l.special_start() - l.tuple_bytes);
    }

    #[test]
    fn page_full_is_reported() {
        let schema = Schema::training(10);
        let l = layout(TupleDirection::Ascending);
        let mut page = HeapPage::new(l);
        let bytes = Tuple::training(&[0.0; 10], 0.0)
            .form(&schema, 1, 0)
            .unwrap();
        for _ in 0..l.capacity {
            page.insert(&bytes).unwrap();
        }
        assert!(matches!(
            page.insert(&bytes),
            Err(StorageError::PageFull { .. })
        ));
    }

    #[test]
    fn header_fields_track_inserts() {
        let schema = Schema::training(10);
        let l = layout(TupleDirection::Ascending);
        let mut page = HeapPage::new(l);
        assert_eq!(page.view().read_u16(10) as usize, PAGE_HEADER_BYTES);
        let bytes = Tuple::training(&[0.0; 10], 0.0)
            .form(&schema, 1, 0)
            .unwrap();
        page.insert(&bytes).unwrap();
        page.insert(&bytes).unwrap();
        let view = page.view();
        assert_eq!(view.read_u16(16), 2); // tuple_count
        assert_eq!(
            view.read_u16(10) as usize,
            PAGE_HEADER_BYTES + 2 * LINE_POINTER_BYTES
        );
        assert_eq!(
            view.read_u16(12) as usize,
            l.data_start() + 2 * l.tuple_bytes
        );
        assert_eq!(view.read_u64(0) as usize, 8 * 1024);
    }

    #[test]
    fn from_bytes_validates() {
        let l = layout(TupleDirection::Ascending);
        let mut bytes = HeapPage::new(l).into_bytes();
        assert!(PageView::new(&bytes, l).is_ok());
        bytes[8] = 0; // clobber version
        assert!(PageView::new(&bytes, l).is_err());
        assert!(PageView::new(&[0u8; 100], l).is_err());
    }

    #[test]
    fn checksum_seal_and_verify() {
        let schema = Schema::training(10);
        let l = layout(TupleDirection::Ascending);
        let mut page = HeapPage::new(l);
        let bytes = Tuple::training(&[1.0; 10], 2.0)
            .form(&schema, 1, 0)
            .unwrap();
        page.insert(&bytes).unwrap();
        assert!(page.view().verify_checksum()); // 0 = not computed, accepted
        page.seal();
        assert!(page.view().verify_checksum());
        // Corrupt a data byte: verification must now fail.
        let mut raw = page.into_bytes();
        raw[PAGE_HEADER_BYTES + 100] ^= 0xFF;
        let corrupted = PageView::new(&raw, l).unwrap();
        assert!(!corrupted.verify_checksum());
    }

    /// The module docs' checksum definition written a second time, one
    /// byte and one word at a time, with no lanes array to vectorise.
    fn scalar_checksum(data: &[u8]) -> u32 {
        const PRIME: u32 = 0x0100_0193;
        let mut lanes = [0x811c_9dc5u32; 8];
        let blocks_end = data.len() - data.len() % 32;
        for at in (0..blocks_end).step_by(4) {
            let word = data[at] as u32
                | (data[at + 1] as u32) << 8
                | (data[at + 2] as u32) << 16
                | (data[at + 3] as u32) << 24;
            let lane = at / 4 % 8;
            lanes[lane] = (lanes[lane] ^ word).wrapping_mul(PRIME);
        }
        let mut h = 0x811c_9dc5u32;
        for lane in lanes {
            h = (h ^ lane).wrapping_mul(PRIME);
        }
        for &byte in &data[blocks_end..] {
            h = (h ^ byte as u32).wrapping_mul(PRIME);
        }
        if h == 0 {
            1
        } else {
            h
        }
    }

    #[test]
    fn seal_matches_the_scalar_definition() {
        let schema = Schema::training(10);
        let tuple_bytes = TUPLE_HEADER_BYTES + schema.tuple_data_width();
        let directions = [TupleDirection::Ascending, TupleDirection::Descending];
        for page_size in SUPPORTED_PAGE_SIZES {
            // Every supported size leaves an 8-byte tail past the blocks.
            assert_eq!((page_size - PAGE_HEADER_BYTES) % 32, 8);
            for direction in directions {
                let l =
                    PageLayoutDesc::new(page_size, 0, tuple_bytes, TUPLE_HEADER_BYTES, direction)
                        .unwrap();
                for tuples in [0, 1, l.capacity] {
                    let mut page = HeapPage::new(l);
                    for k in 0..tuples {
                        let feats: Vec<f32> = (0..10).map(|i| (k * 31 + i) as f32 * 0.37).collect();
                        let t = Tuple::training(&feats, -(k as f32));
                        page.insert(&t.form(&schema, 2 + k as u32, k as u32).unwrap())
                            .unwrap();
                    }
                    page.seal();
                    assert!(page.view().verify_checksum());
                    assert_eq!(
                        page.view().read_u32(20),
                        scalar_checksum(&page.as_bytes()[PAGE_HEADER_BYTES..]),
                        "{page_size} {direction:?} {tuples} tuples"
                    );
                }
            }
        }
    }

    #[test]
    fn unsupported_page_size_rejected() {
        let err = PageLayoutDesc::new(4096, 0, 64, 16, TupleDirection::Ascending);
        assert!(matches!(err, Err(StorageError::BadPageSize(4096))));
    }

    #[test]
    fn slot_out_of_range() {
        let l = layout(TupleDirection::Ascending);
        let page = HeapPage::new(l);
        assert!(matches!(
            page.view().tuple_bytes(0),
            Err(StorageError::SlotOutOfRange { .. })
        ));
    }
}
