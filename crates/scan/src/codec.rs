//! Per-page compression codecs.
//!
//! Two codecs, chosen per page at sidecar-build time:
//!
//! * **raw** (`CODEC_RAW`) — the page image verbatim. Always applicable.
//! * **FOR** (`CODEC_FOR`) — frame-of-reference + bit-packing over the
//!   page's integer lanes. A slotted heap page of fixed-width tuples is a
//!   collection of parallel integer sequences: the tuple-header words
//!   (xids count up, ctids count slots) and, per column, the little-endian
//!   bit patterns of the cell values (floats are packed as their `u32`/
//!   `u64` bit patterns, which keeps NaN payloads, signed zeros and
//!   subnormals byte-exact — the codec never interprets floats). Each lane
//!   stores its minimum and the bit-packed deltas. Everything else on a
//!   canonical page is reconstructed from the layout (line pointers) or is
//!   zero (free space), so only the 24-byte header and the special space
//!   ride along verbatim.
//!
//! [`compress_page`] does a page's work in one pass: it gathers every lane,
//! reading each cell once, and picks each lane's frame of reference
//! or dictionary with a hash table that stops counting distinct values
//! once a dictionary can no longer be the smaller; only the distinct
//! values are sorted, and a cell's dictionary index is its value's rank.
//! Before committing to the FOR form it checks the round trip in place,
//! without rebuilding the page: the packed image parses
//! ([`ForPage::open`]), every lane unpacks to the cells it was gathered
//! from, the header and special space are the page's, and every byte that
//! no lane, line pointer, header or special space covers is zero. A page
//! that deviates from the canonical builder layout in any way (or that
//! doesn't shrink) falls back to raw, making the round trip bit-exact
//! *unconditionally*.
//!
//! There is one parser of the packed form, [`ForPage::open`]: it checks
//! the whole image and borrows its lanes without unpacking them. A lane is
//! addressed in place — cell `slot` is the `slot`-th bit-packed code
//! through the lane's frame — so [`decompress_page`] is that parser plus a
//! scatter into a page image, and a pushdown scan ([`ForPage::filter_into`])
//! reads the predicate columns' lanes ([`ForPage::select_into`]) and then
//! only the kept cells of the projected columns ([`ForPage::extract_into`]),
//! building no page image at all. A scan that already knows a page's
//! selection runs the extract half alone.
//!
//! The reader works per lane and per dictionary entry rather than per
//! cell wherever the format allows. Eight codes of bit width ≤ 8 fill
//! exactly `bw` bytes, so one 64-bit load reads eight of them: `open`
//! checks a dictionary lane's indexes a word at a time (a carry test, see
//! `Lane::escapes_dictionary`), and a lane whose every slot is still kept
//! is unpacked a word at a time too. A conjunct over a dictionary lane is
//! evaluated once per dictionary entry into a pass table, so each code
//! costs one table load; a projected dictionary lane is decoded once per
//! entry into a table, so each kept cell costs one load. A lane of bit
//! width 0 holds one value, so its conjunct is decided once per page. Only
//! a frame-of-reference lane converts per code — and per *kept* code when
//! it is projected. Every cell value still goes through
//! [`ColumnType::decode_f32`] and every comparison through
//! [`CmpOp::matches`](crate::CmpOp::matches); the buffers for codes and
//! tables are a [`LaneScratch`] the caller keeps across pages.

use std::ops::Range;

use crate::spec::BoundScanSpec;
use crate::zonemap::PageZone;
use dana_storage::page::TupleDirection;
use dana_storage::{
    ColumnType, PageLayoutDesc, PageView, Schema, StorageError, StorageResult, TupleBatch,
    LINE_POINTER_BYTES, PAGE_HEADER_BYTES,
};

/// Codec id: page image stored verbatim.
pub const CODEC_RAW: u8 = 0;
/// Codec id: frame-of-reference + bit-packed lanes.
pub const CODEC_FOR: u8 = 1;

/// Compresses one page image. The result always begins with a codec id
/// byte and always decompresses (via [`decompress_page`] with the same
/// layout and schema) to exactly `bytes`.
pub fn compress_page(bytes: &[u8], layout: &PageLayoutDesc, schema: &Schema) -> Vec<u8> {
    PageEncoder::new(layout, schema).compress(bytes)
}

/// The compressor of one heap's pages, keeping its buffers from page to
/// page: [`compress_page`] is one call of it, and
/// [`ScanSidecar::build`](crate::ScanSidecar::build) runs one over a whole
/// heap and reads each `CODEC_FOR` page's zone map off the lanes it
/// gathered ([`PageEncoder::zone`]).
pub(crate) struct PageEncoder<'a> {
    layout: PageLayoutDesc,
    schema: &'a Schema,
    /// Per lane, the byte offset of its cells within a tuple and their
    /// width: the tuple-header words, then the columns in schema order.
    lanes: Vec<(usize, usize)>,
    /// Bytes at the front of a tuple that the lanes cover.
    covered: usize,
    /// Live tuples on the page last gathered.
    count: u16,
    /// That page's cells, lane after lane, `count` per lane.
    cells: Vec<u64>,
    /// Per lane packed as a dictionary, where in `firsts` its distinct
    /// values lie, in order of first appearance.
    firsts_at: Vec<Option<Range<usize>>>,
    firsts: Vec<u64>,
    lane: LaneEncoder,
    /// The packed image being built.
    out: Vec<u8>,
    /// One lane's codes and dictionary, unpacked by the round-trip check.
    codes: Vec<u64>,
    entries: Vec<u64>,
}

impl<'a> PageEncoder<'a> {
    pub(crate) fn new(layout: &PageLayoutDesc, schema: &'a Schema) -> PageEncoder<'a> {
        let header_words = (0..layout.tuple_header_bytes / 4).map(|w| (w * 4, 4));
        let mut covered = layout.tuple_header_bytes;
        let columns = schema.columns().iter().map(|col| {
            let at = covered;
            covered += col.ty.width();
            (at, col.ty.width())
        });
        let lanes = header_words.chain(columns).collect();
        PageEncoder {
            layout: *layout,
            schema,
            lanes,
            covered,
            count: 0,
            cells: Vec::new(),
            firsts_at: Vec::new(),
            firsts: Vec::new(),
            lane: LaneEncoder::default(),
            out: Vec::new(),
            codes: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// [`compress_page`] of `bytes`: the FOR form when the page packs
    /// smaller and round-trips, sized exactly; the raw form otherwise.
    pub(crate) fn compress(&mut self, bytes: &[u8]) -> Vec<u8> {
        if self.pack(bytes).is_some() && self.out.len() < 1 + bytes.len() && self.round_trips(bytes)
        {
            return self.out.as_slice().to_vec();
        }
        let mut out = Vec::with_capacity(1 + bytes.len());
        out.push(CODEC_RAW);
        out.extend_from_slice(bytes);
        out
    }

    /// The zone map of `page`, the page [`compress`](Self::compress) last
    /// packed to `CODEC_FOR`, folded off its column lanes in slot order —
    /// [`PageZone::build`]'s, bit for bit. `None` when some tuple's user
    /// data, as [`PageView::user_data`] finds it, does not start right after
    /// the tuple header, where the lanes were gathered; a page `PageView`
    /// cannot read is the error `PageZone::build` returns.
    ///
    /// A dictionary lane folds only its distinct values, in order of first
    /// appearance: the first cell to reach a bound is the first appearance
    /// of its value, so the fold ends on the same bits.
    pub(crate) fn zone(&self, page: &[u8]) -> StorageResult<Option<PageZone>> {
        let (layout, width) = (&self.layout, self.schema.tuple_data_width());
        let view = PageView::new(page, *layout)?;
        for slot in 0..view.tuple_count() {
            let lanes = layout.tuple_offset(slot) + layout.tuple_header_bytes;
            if view.user_data(slot, width)?.as_ptr() != page.as_ptr().wrapping_add(lanes) {
                return Ok(None);
            }
        }
        let n = self.count as usize;
        let header_words = self.layout.tuple_header_bytes / 4;
        let mut zone = PageZone::empty(self.schema.len(), self.count);
        for (c, col) in self.schema.columns().iter().enumerate() {
            let lane = header_words + c;
            let values = match &self.firsts_at[lane] {
                Some(at) => &self.firsts[at.clone()],
                None => &self.cells[lane * n..][..n],
            };
            zone.fold_column(c, values.iter().map(|&bits| decode(col.ty, bits)));
        }
        Ok(Some(zone))
    }

    /// Gathers the page's lanes, reading each cell once, and packs them
    /// into `out`. `None` when the page visibly deviates from the canonical
    /// builder layout: its size, its tuple count, a line pointer (they are
    /// regenerated, not stored), or lanes that do not fit in a tuple.
    fn pack(&mut self, bytes: &[u8]) -> Option<()> {
        let layout = &self.layout;
        if bytes.len() != layout.page_size
            || !layout.tuple_header_bytes.is_multiple_of(4)
            || self.covered > layout.tuple_bytes
        {
            return None;
        }
        let count = u16::from_le_bytes([bytes[16], bytes[17]]);
        if count > layout.capacity {
            return None;
        }
        // Line pointers must be exactly what the layout dictates (used
        // slots) or zero (unused slots).
        let pointers =
            bytes[PAGE_HEADER_BYTES..layout.data_start()].chunks_exact(LINE_POINTER_BYTES);
        for (slot, lp) in (0..layout.capacity).zip(pointers) {
            let off = u16::from_le_bytes([lp[0], lp[1]]) as usize;
            let len = u16::from_le_bytes([lp[2], lp[3]]) as usize;
            let canonical = if slot < count {
                (layout.tuple_offset(slot), layout.tuple_bytes)
            } else {
                (0, 0)
            };
            if (off, len) != canonical {
                return None;
            }
        }
        let n = count as usize;
        self.count = count;
        self.cells.clear();
        self.cells.resize(n * self.lanes.len(), 0);
        // The tuples lie back to back, slot 0 first (ascending) or last
        // (descending). A lane at a time, each cell is read once and the
        // lane's cells are written in order.
        let tuples = match layout.direction {
            TupleDirection::Ascending => layout.data_start()..,
            TupleDirection::Descending => layout.special_start() - n * layout.tuple_bytes..,
        };
        // (A layout of zero-byte tuples has no lanes to read.)
        let tuples =
            bytes[tuples][..n * layout.tuple_bytes].chunks_exact(layout.tuple_bytes.max(1));
        let lanes = self.cells.chunks_exact_mut(n.max(1)).zip(&self.lanes);
        for (cells, &(offset, width)) in lanes {
            for (cell, tuple) in cells.iter_mut().zip(tuples.clone()) {
                *cell = le_value(&tuple[offset..], width)?;
            }
            if layout.direction == TupleDirection::Descending {
                cells.reverse();
            }
        }
        self.out.clear();
        self.out.push(CODEC_FOR);
        self.out.extend_from_slice(&bytes[..PAGE_HEADER_BYTES]);
        self.out.extend_from_slice(&bytes[layout.special_start()..]);
        self.firsts_at.clear();
        self.firsts.clear();
        for (lane, &(_, width)) in self.lanes.iter().enumerate() {
            let cells = &self.cells[lane * n..][..n];
            let at = self.firsts.len();
            let dict = self.lane.encode(cells, width, &mut self.out) == LANE_DICT;
            if dict {
                self.firsts.extend_from_slice(&self.lane.distinct);
            }
            self.firsts_at.push(dict.then_some(at..self.firsts.len()));
        }
        Some(())
    }

    /// Whether `out` decompresses to exactly `bytes` — checked in place,
    /// without building the image: the packed form parses
    /// ([`ForPage::open`]), every lane unpacks to the cells gathered from
    /// the page, the header and special space are the page's, and every
    /// byte that no lane, line pointer, header or special space covers —
    /// free space, tuple padding — is zero. ([`pack`](Self::pack) checked
    /// the line pointers.)
    fn round_trips(&mut self, bytes: &[u8]) -> bool {
        let layout = &self.layout;
        let Ok(Some(page)) = ForPage::open(&self.out, layout, self.schema) else {
            return false;
        };
        if page.header != &bytes[..PAGE_HEADER_BYTES]
            || page.special != &bytes[layout.special_start()..]
        {
            return false;
        }
        let n = self.count as usize;
        let lanes = page
            .header_words
            .iter()
            .chain(page.columns.iter().map(|(_, lane)| lane));
        for (i, lane) in lanes.enumerate() {
            if !lane.holds(
                &self.cells[i * n..][..n],
                &mut self.codes,
                &mut self.entries,
            ) {
                return false;
            }
        }
        let tuples = n * layout.tuple_bytes;
        let free = match layout.direction {
            TupleDirection::Ascending => layout.data_start() + tuples..layout.special_start(),
            TupleDirection::Descending => layout.data_start()..layout.special_start() - tuples,
        };
        let zero = |bytes: &[u8]| bytes.iter().fold(0, |any, &b| any | b) == 0;
        zero(&bytes[free])
            && (self.covered == layout.tuple_bytes
                || (0..self.count).all(|slot| {
                    zero(&bytes[layout.tuple_offset(slot)..][self.covered..layout.tuple_bytes])
                }))
    }
}

/// Decompresses a page produced by [`compress_page`] back to its exact
/// image: a `CODEC_FOR` page is [`ForPage::open`] plus a scatter of its
/// lanes into a zeroed page.
pub fn decompress_page(
    packed: &[u8],
    layout: &PageLayoutDesc,
    schema: &Schema,
) -> StorageResult<Vec<u8>> {
    Ok(match ForPage::open(packed, layout, schema)? {
        Some(page) => page.image(),
        // `open` checked the raw body's length.
        None => packed[1..].to_vec(),
    })
}

/// A `CODEC_FOR` page parsed in place: the page header, the special space
/// and one bit-packed lane per tuple-header word and per column, all
/// borrowed from the compressed image — nothing is unpacked until a cell
/// is asked for.
pub struct ForPage<'a> {
    layout: PageLayoutDesc,
    header: &'a [u8],
    special: &'a [u8],
    count: u16,
    /// One lane per 4-byte tuple-header word.
    header_words: Vec<Lane<'a>>,
    /// One lane per column, in schema order, with the column's type.
    columns: Vec<(ColumnType, Lane<'a>)>,
}

impl<'a> ForPage<'a> {
    /// Parses a [`compress_page`] image. `Ok(None)` is a well-formed
    /// `CODEC_RAW` page, which has no lanes. A `CODEC_FOR` image is checked
    /// whole — `tuple_count ≤ capacity`, every lane's mode, bit width
    /// (≤ 64) and length, every dictionary index of every lane, no trailing
    /// bytes — so this fails exactly when [`decompress_page`] does, however
    /// few cells a caller then reads.
    pub fn open(
        packed: &'a [u8],
        layout: &PageLayoutDesc,
        schema: &Schema,
    ) -> StorageResult<Option<ForPage<'a>>> {
        let (&codec, body) = packed
            .split_first()
            .ok_or_else(|| StorageError::CorruptPage("empty compressed page".to_string()))?;
        match codec {
            CODEC_RAW if body.len() == layout.page_size => return Ok(None),
            CODEC_RAW => {
                return Err(StorageError::CorruptPage(format!(
                    "raw codec body is {} bytes, layout says {}",
                    body.len(),
                    layout.page_size
                )))
            }
            CODEC_FOR => {}
            other => {
                return Err(StorageError::CorruptPage(format!(
                    "unknown page codec {other}"
                )))
            }
        }
        let corrupt = |what: &str| StorageError::CorruptPage(format!("FOR codec: {what}"));
        let mut r = Reader { body, at: 0 };
        let header = r.take(PAGE_HEADER_BYTES).ok_or_else(|| corrupt("header"))?;
        let special = r
            .take(layout.special_bytes)
            .ok_or_else(|| corrupt("special space"))?;
        let count = u16::from_le_bytes([header[16], header[17]]);
        if count > layout.capacity {
            return Err(corrupt("tuple_count exceeds capacity"));
        }
        let n = count as usize;
        let words = layout.tuple_header_bytes / 4;
        let mut header_words = Vec::with_capacity(words);
        for w in 0..words {
            let lane = r.lane(n, 4, w * 4);
            header_words.push(lane.ok_or_else(|| corrupt("tuple-header lane"))?);
        }
        let mut columns = Vec::with_capacity(schema.len());
        let mut offset = layout.tuple_header_bytes;
        for col in schema.columns() {
            let width = col.ty.width();
            let lane = r.lane(n, width, offset);
            columns.push((col.ty, lane.ok_or_else(|| corrupt("column lane"))?));
            offset += width;
        }
        if r.at != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Some(ForPage {
            layout: *layout,
            header,
            special,
            count,
            header_words,
            columns,
        }))
    }

    /// Live tuples on the page.
    pub fn tuple_count(&self) -> u16 {
        self.count
    }

    /// The pushdown scan of this page, on its lanes: [`ForPage::select_into`]
    /// then [`ForPage::extract_into`] over the slots it kept. Rows and
    /// slots are exactly what walking the rebuilt image and filtering its
    /// full-width rows would give.
    pub fn filter_into(
        &self,
        spec: &BoundScanSpec,
        batch: &mut TupleBatch,
        kept: &mut Vec<u16>,
        scratch: &mut LaneScratch,
    ) {
        self.select_into(spec, kept, scratch);
        self.extract_into(spec, kept, batch, scratch);
    }

    /// The select half of a pushdown scan: the predicate columns are read,
    /// conjunct by conjunct, narrowing `kept` (overwritten) to the slots
    /// that pass every one, in slot order. Cells convert through
    /// [`ColumnType::decode_f32`] and compare through [`CmpOp::matches`].
    /// A conjunct over a dictionary lane is evaluated once per dictionary
    /// entry and a conjunct over a lane of bit width 0 once per page;
    /// `scratch` holds the codes and tables in between (its contents on
    /// entry are ignored).
    ///
    /// [`CmpOp::matches`]: crate::CmpOp::matches
    pub fn select_into(
        &self,
        spec: &BoundScanSpec,
        kept: &mut Vec<u16>,
        scratch: &mut LaneScratch,
    ) {
        let n = self.count as usize;
        let LaneScratch { codes, pass, .. } = scratch;
        kept.clear();
        kept.extend(0..self.count);
        for p in &spec.predicates {
            if kept.is_empty() {
                break;
            }
            let (ty, lane) = &self.columns[p.column];
            let matches = |cell: f32| p.op.matches(cell, p.value);
            if lane.bw == 0 {
                // One value on the whole page: one verdict for every slot.
                if !matches(decode(*ty, lane.bits(0))) {
                    kept.clear();
                }
                continue;
            }
            lane.codes_of(n, kept, codes);
            match lane.frame {
                Frame::Dict(dict) => {
                    pass.clear();
                    pass.extend(dict_entries(*ty, dict).map(matches));
                    retain_codes(kept, codes, |code| pass[code as usize]);
                }
                Frame::Reference(min) => retain_codes(kept, codes, |code| {
                    matches(decode(*ty, min.wrapping_add(code)))
                }),
            }
        }
    }

    /// The extract half of a pushdown scan: the projected columns of the
    /// selected `slots` (ascending, each below [`ForPage::tuple_count`], as
    /// [`ForPage::select_into`] leaves them) decoded straight into `batch`
    /// (appended; its width must be the projected width), one row per
    /// slot. A projected dictionary lane is decoded once per entry into a
    /// table and a lane of bit width 0 once per page.
    pub fn extract_into(
        &self,
        spec: &BoundScanSpec,
        slots: &[u16],
        batch: &mut TupleBatch,
        scratch: &mut LaneScratch,
    ) {
        let n = self.count as usize;
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(slots.last().is_none_or(|&s| usize::from(s) < n));
        let LaneScratch { codes, table, .. } = scratch;
        let width = spec.output_width(self.columns.len());
        assert_eq!(
            batch.width(),
            width,
            "batch width must be the projected width"
        );
        let out = batch.append_rows(slots.len());
        if slots.is_empty() {
            return;
        }
        for j in 0..width {
            let (ty, lane) = &self.columns[spec.projection.as_ref().map_or(j, |cols| cols[j])];
            let cells = out.chunks_exact_mut(width).map(|row| &mut row[j]);
            if lane.bw == 0 {
                let value = decode(*ty, lane.bits(0));
                cells.for_each(|cell| *cell = value);
                continue;
            }
            lane.codes_of(n, slots, codes);
            match lane.frame {
                Frame::Dict(dict) => {
                    table.clear();
                    table.extend(dict_entries(*ty, dict));
                    for (cell, &code) in cells.zip(codes.iter()) {
                        *cell = table[code as usize];
                    }
                }
                Frame::Reference(min) => {
                    for (cell, &code) in cells.zip(codes.iter()) {
                        *cell = decode(*ty, min.wrapping_add(code));
                    }
                }
            }
        }
    }

    /// The exact page image: header, regenerated line pointers, every
    /// lane's cells at their tuple offsets, special space; zeros elsewhere.
    fn image(&self) -> Vec<u8> {
        let layout = &self.layout;
        let mut page = vec![0u8; layout.page_size];
        page[..PAGE_HEADER_BYTES].copy_from_slice(self.header);
        page[layout.special_start()..].copy_from_slice(self.special);
        for slot in 0..self.count {
            let lp = PAGE_HEADER_BYTES + slot as usize * LINE_POINTER_BYTES;
            page[lp..lp + 2].copy_from_slice(&(layout.tuple_offset(slot) as u16).to_le_bytes());
            page[lp + 2..lp + 4].copy_from_slice(&(layout.tuple_bytes as u16).to_le_bytes());
        }
        let lanes = self
            .header_words
            .iter()
            .chain(self.columns.iter().map(|(_, lane)| lane));
        let mut codes = Vec::new();
        for lane in lanes {
            lane.unpack(self.count as usize, &mut codes);
            for (slot, &code) in (0..self.count).zip(&codes) {
                let at = layout.tuple_offset(slot) + lane.offset;
                let v = lane.bits(code);
                match lane.width {
                    4 => page[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes()),
                    _ => page[at..at + 8].copy_from_slice(&v.to_le_bytes()),
                }
            }
        }
        page
    }
}

/// The buffers [`ForPage::select_into`] and [`ForPage::extract_into`] read
/// lanes through, kept across a scan's pages so a page costs no allocation
/// once they have grown.
#[derive(Default)]
pub struct LaneScratch {
    /// The codes of one lane's kept slots, in slot order.
    codes: Vec<u64>,
    /// A projected dictionary lane's entries, decoded.
    table: Vec<f32>,
    /// A conjunct's verdict on each entry of a dictionary lane.
    pass: Vec<bool>,
}

/// A cell of `ty` from its bit pattern (a 4-byte cell is the low 32 bits).
fn decode(ty: ColumnType, bits: u64) -> f32 {
    ty.decode_f32(&bits.to_le_bytes()[..ty.width()])
}

/// A dictionary's entries of `ty`, decoded.
fn dict_entries(ty: ColumnType, dict: &[u8]) -> impl Iterator<Item = f32> + '_ {
    dict.chunks_exact(ty.width())
        .map(move |entry| ty.decode_f32(entry))
}

/// Keeps the slots of `kept` whose code — `codes[i]` is slot `kept[i]`'s —
/// passes `keep`.
fn retain_codes(kept: &mut Vec<u16>, codes: &[u64], keep: impl Fn(u64) -> bool) {
    // Every slot is written where the next kept one goes; only a kept
    // slot advances the cursor — no branch on the verdict.
    let mut len = 0;
    for (i, &code) in codes.iter().enumerate().take(kept.len()) {
        kept[len] = kept[i];
        len += usize::from(keep(code));
    }
    kept.truncate(len);
}

/// Lane mode: frame-of-reference over the raw integer values.
const LANE_FOR: u8 = 0;
/// Lane mode: sorted dictionary + bit-packed indices (low-cardinality
/// lanes — e.g. categorical or quantized float columns — where the value
/// *range* is wide but the distinct count is small).
const LANE_DICT: u8 = 1;

/// Maximum dictionary size worth trying (12-bit indices).
const DICT_MAX: usize = 4096;

/// The lane encoder, keeping its buffers from lane to lane.
#[derive(Default)]
struct LaneEncoder {
    /// Open-addressing table: a value and 1 + its entry in `distinct`, or
    /// 0 in an empty slot. Only the slots in `used` are not empty.
    table: Vec<(u64, u16)>,
    used: Vec<usize>,
    /// The lane's distinct values, in order of first appearance.
    distinct: Vec<u64>,
    /// Per cell, the entry of `distinct` holding its value.
    entry: Vec<u16>,
    /// Each entry's value and entry, sorted by value.
    sorted: Vec<(u64, u16)>,
    /// Per entry, its value's rank among the distinct values: the cell's
    /// dictionary index.
    rank: Vec<u16>,
}

impl LaneEncoder {
    /// Encodes one lane, choosing the smaller of
    /// `[LANE_FOR][min: width bytes LE][bit_width: u8][packed deltas]` and
    /// `[LANE_DICT][n_dict: u16 LE][dict: n_dict × width bytes][bit_width: u8][packed indices]`
    /// (the frame of reference on a tie, and no dictionary of more than
    /// `DICT_MAX` entries). The dictionary is sorted and a cell's index is
    /// its value's rank in it. Returns the lane mode written.
    fn encode(&mut self, values: &[u64], width: usize, out: &mut Vec<u8>) -> u8 {
        let n = values.len();
        let (min, max) = match values.split_first() {
            Some((&first, rest)) => rest
                .iter()
                .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
            None => (0, 0),
        };
        let for_bw = bit_width(max - min); // 0 when all equal
        let for_len = width + 1 + packed_len(n, for_bw);
        let dict_len = |d: usize| 2 + d * width + 1 + packed_len(n, bit_width(d.max(1) as u64 - 1));
        // The most entries a dictionary may have and still be smaller:
        // `dict_len` grows with the entry count, and no entries beat any
        // frame of reference.
        let (mut limit, mut above) = (0, DICT_MAX + 1);
        while above - limit > 1 {
            let mid = (limit + above) / 2;
            if dict_len(mid) < for_len {
                limit = mid;
            } else {
                above = mid;
            }
        }
        if !self.index(values, limit) {
            out.push(LANE_FOR);
            put_value(min, width, out);
            out.push(for_bw as u8);
            pack_bits(values.iter().map(|&v| v - min), for_bw, out);
            return LANE_FOR;
        }
        self.sorted.clear();
        self.sorted.extend(self.distinct.iter().copied().zip(0..));
        self.sorted.sort_unstable();
        self.rank.clear();
        self.rank.resize(self.sorted.len(), 0);
        for (rank, &(_, entry)) in (0..).zip(&self.sorted) {
            self.rank[entry as usize] = rank;
        }
        let dict_bw = bit_width(self.sorted.len().max(1) as u64 - 1);
        out.push(LANE_DICT);
        out.extend_from_slice(&(self.sorted.len() as u16).to_le_bytes());
        for &(v, _) in &self.sorted {
            put_value(v, width, out);
        }
        out.push(dict_bw as u8);
        let codes = self.entry.iter().map(|&e| self.rank[e as usize] as u64);
        pack_bits(codes, dict_bw, out);
        LANE_DICT
    }

    /// Indexes `values` by distinct value into `distinct` and `entry`, or
    /// gives up (`false`) as soon as there are more than `limit` of them.
    fn index(&mut self, values: &[u64], limit: usize) -> bool {
        // At most half full: a probe always ends.
        let slots = (2 * limit.min(values.len())).next_power_of_two().max(2);
        let shift = u64::BITS - slots.trailing_zeros();
        for at in self.used.drain(..) {
            self.table[at] = (0, 0);
        }
        if self.table.len() < slots {
            self.table.resize(slots, (0, 0));
        }
        self.distinct.clear();
        self.entry.clear();
        self.entry.resize(values.len(), 0);
        for (entry, &v) in self.entry.iter_mut().zip(values) {
            let mut at = (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
            *entry = loop {
                match self.table[at] {
                    (key, e) if key == v && e != 0 => break e - 1,
                    (_, 0) if self.distinct.len() == limit => return false,
                    (_, 0) => {
                        self.distinct.push(v);
                        self.used.push(at);
                        self.table[at] = (v, self.distinct.len() as u16);
                        break self.distinct.len() as u16 - 1;
                    }
                    _ => at = (at + 1) & (slots - 1),
                }
            };
        }
        true
    }
}

/// Bits needed to write `v` (0 for 0).
fn bit_width(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

fn put_value(v: u64, width: usize, out: &mut Vec<u8>) {
    match width {
        4 => out.extend_from_slice(&(v as u32).to_le_bytes()),
        _ => out.extend_from_slice(&v.to_le_bytes()),
    }
}

fn packed_len(n: usize, bw: usize) -> usize {
    (n * bw).div_ceil(8)
}

/// Appends `values`, each `bw` bits wide (and below `2^bw`), as one
/// little-endian bit stream: value `i` at bit `i × bw`, the last byte
/// zero-padded.
fn pack_bits(mut values: impl ExactSizeIterator<Item = u64>, bw: usize, out: &mut Vec<u8>) {
    out.reserve(packed_len(values.len(), bw));
    if bw <= 8 {
        // Eight codes fill exactly `bw` bytes: one word per eight.
        loop {
            let (mut word, mut k) = (0u64, 0);
            for v in values.by_ref().take(8) {
                word |= v << (k * bw);
                k += 1;
            }
            out.extend_from_slice(&word.to_le_bytes()[..packed_len(k, bw)]);
            if k < 8 {
                return;
            }
        }
    }
    let (mut acc, mut nbits) = (0u64, 0);
    for v in values {
        acc |= v << nbits;
        nbits += bw;
        if nbits >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            nbits -= 64;
            // The bits of `v` that did not fit; none when it began the word.
            acc = v.checked_shr((bw - nbits) as u32).unwrap_or(0);
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..nbits.div_ceil(8)]);
}

/// One bit-packed lane, addressed in place: cell `slot` is code `slot`
/// (`bw` bits at bit `slot × bw`) mapped through the lane's frame.
struct Lane<'a> {
    /// Byte offset of the lane's cells within a tuple.
    offset: usize,
    /// On-page bytes per cell (4 or 8).
    width: usize,
    frame: Frame<'a>,
    bw: usize,
    /// The low `bw` bits.
    mask: u64,
    packed: &'a [u8],
}

/// How a lane's codes map to cell values.
#[derive(Clone, Copy)]
enum Frame<'a> {
    /// `LANE_FOR`: the code is a delta from this minimum.
    Reference(u64),
    /// `LANE_DICT`: the code indexes `width`-byte little-endian entries.
    Dict(&'a [u8]),
}

impl Lane<'_> {
    fn code(&self, slot: usize) -> u64 {
        let bit = slot * self.bw;
        // The code is at most 7 + 64 bits from byte `bit / 8`: one 8-byte
        // load holds it when `bw ≤ 56`, one 16-byte load always does —
        // zero-padded past the lane's last byte.
        let tail = &self.packed[(bit / 8).min(self.packed.len())..];
        if self.bw <= 56 {
            if let Some(word) = tail.first_chunk::<8>() {
                return (u64::from_le_bytes(*word) >> (bit % 8)) & self.mask;
            }
        }
        let word = match tail.first_chunk::<16>() {
            Some(word) => *word,
            None => {
                let mut word = [0u8; 16];
                word[..tail.len()].copy_from_slice(tail);
                word
            }
        };
        (u128::from_le_bytes(word) >> (bit % 8)) as u64 & self.mask
    }

    /// Folds `f` over the lane's first `groups` runs of eight codes, at
    /// bit widths 1–8, where eight codes fill exactly `bw` bytes: run
    /// `group` holds codes `8 × group ..` in the low `8 × bw` bits of its
    /// word, and zeros above. The byte count is a constant in each arm, so
    /// a run is one fixed-size load.
    fn fold_groups<B>(&self, groups: usize, init: B, f: impl FnMut(B, u64) -> B) -> B {
        fn fold<const BW: usize, B>(
            packed: &[u8],
            groups: usize,
            init: B,
            mut f: impl FnMut(B, u64) -> B,
        ) -> B {
            packed
                .chunks_exact(BW)
                .take(groups)
                .fold(init, |acc, bytes| {
                    let mut word = [0u8; 8];
                    word[..BW].copy_from_slice(bytes);
                    f(acc, u64::from_le_bytes(word))
                })
        }
        let packed = self.packed;
        match self.bw {
            1 => fold::<1, B>(packed, groups, init, f),
            2 => fold::<2, B>(packed, groups, init, f),
            3 => fold::<3, B>(packed, groups, init, f),
            4 => fold::<4, B>(packed, groups, init, f),
            5 => fold::<5, B>(packed, groups, init, f),
            6 => fold::<6, B>(packed, groups, init, f),
            7 => fold::<7, B>(packed, groups, init, f),
            8 => fold::<8, B>(packed, groups, init, f),
            bw => unreachable!("bit width {bw} has no eight-code groups"),
        }
    }

    /// Whether the first `n` codes do not all index a dictionary of
    /// `n_dict` entries: whether the largest of them is `≥ n_dict`, the
    /// largest of no codes being 0 — so an empty dictionary is refused
    /// even over no codes.
    fn escapes_dictionary(&self, n: usize, n_dict: u64) -> bool {
        let bw = self.bw;
        if bw < 64 && n_dict >> bw != 0 {
            // Every `bw`-bit code is an index.
            return false;
        }
        if n_dict == 0 {
            return true;
        }
        let mut slot = 0;
        if bw <= 8 {
            // `bw` ≥ 1 here. Fields 0, 2, 4, 6 of a group, and 1, 3, 5, 7
            // shifted onto them, each have `bw` clear bits above once
            // masked: adding `2^bw − n_dict` to a field carries into the
            // bit above it exactly when the field is ≥ `n_dict`.
            let spread = |field: u64| (0..4).fold(0, |word, k| word | field << (2 * k * bw));
            let (even, bias, carries) = (
                spread(self.mask),
                spread((1 << bw) - n_dict),
                spread(1 << bw),
            );
            let sums = self.fold_groups(n / 8, 0, |sums, word| {
                sums | ((word & even) + bias) | (((word >> bw) & even) + bias)
            });
            if sums & carries != 0 {
                return true;
            }
            slot = n / 8 * 8;
        }
        (slot..n).any(|slot| self.code(slot) >= n_dict)
    }

    /// The codes of the `kept` slots (ascending, of the lane's `n`), into
    /// `codes` (overwritten): the whole lane [unpacked](Lane::unpack) when
    /// every slot is kept, each kept slot's code read where it lies
    /// otherwise.
    fn codes_of(&self, n: usize, kept: &[u16], codes: &mut Vec<u64>) {
        if kept.len() == n {
            self.unpack(n, codes);
        } else {
            codes.clear();
            codes.extend(kept.iter().map(|&slot| self.code(slot as usize)));
        }
    }

    /// The first `n` codes, in slot order, into `codes` (overwritten):
    /// eight per load at bit widths 1–8, none at bit width 0.
    fn unpack(&self, n: usize, codes: &mut Vec<u64>) {
        codes.clear();
        codes.resize(n, 0);
        if self.bw == 0 {
            return;
        }
        let mut grouped = 0;
        if (1..=8).contains(&self.bw) {
            grouped = self.fold_groups(n / 8, 0, |group, word| {
                for (k, code) in codes[8 * group..][..8].iter_mut().enumerate() {
                    *code = (word >> (k * self.bw)) & self.mask;
                }
                group + 1
            }) * 8;
        }
        for (slot, code) in codes.iter_mut().enumerate().skip(grouped) {
            *code = self.code(slot);
        }
    }

    /// Whether the lane's `cells.len()` cells are `cells`: its codes
    /// unpacked into `codes`, a dictionary's entries read into `entries`
    /// (both overwritten).
    fn holds(&self, cells: &[u64], codes: &mut Vec<u64>, entries: &mut Vec<u64>) -> bool {
        self.unpack(cells.len(), codes);
        let pairs = codes.iter().zip(cells);
        let differ = match self.frame {
            Frame::Reference(min) => pairs.fold(0, |differ, (&code, &cell)| {
                differ | (min.wrapping_add(code) ^ cell)
            }),
            Frame::Dict(dict) => {
                entries.clear();
                let values = dict.chunks_exact(self.width);
                entries.extend(values.filter_map(|entry| le_value(entry, self.width)));
                pairs.fold(0, |differ, (&code, &cell)| {
                    differ
                        | entries
                            .get(code as usize)
                            .map_or(u64::MAX, |&entry| entry ^ cell)
                })
            }
        };
        differ == 0
    }

    /// The bit pattern code `code` stands for; a 4-byte cell's is the low
    /// 32 bits.
    fn bits(&self, code: u64) -> u64 {
        match self.frame {
            Frame::Reference(min) => min.wrapping_add(code),
            Frame::Dict(dict) => le_value(&dict[code as usize * self.width..], self.width)
                .expect("Reader::lane checked every index against the dictionary"),
        }
    }
}

/// The `width`-byte (4 or 8) little-endian value `bytes` starts with.
fn le_value(bytes: &[u8], width: usize) -> Option<u64> {
    Some(match width {
        4 => u32::from_le_bytes(*bytes.first_chunk()?) as u64,
        _ => u64::from_le_bytes(*bytes.first_chunk()?),
    })
}

struct Reader<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.body.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(s)
    }

    fn byte(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Parses one lane of `n` cells of on-page `width` bytes (at `offset`
    /// within a tuple), checking its mode, its bit width, its length and
    /// that every index is in the dictionary.
    fn lane(&mut self, n: usize, width: usize, offset: usize) -> Option<Lane<'a>> {
        let frame = match self.byte()? {
            LANE_FOR => Frame::Reference(le_value(self.take(width)?, width)?),
            LANE_DICT => {
                let n_dict = u16::from_le_bytes(*self.take(2)?.first_chunk()?) as usize;
                Frame::Dict(self.take(n_dict * width)?)
            }
            _ => return None,
        };
        let bw = self.byte()? as usize;
        if bw > 64 {
            return None;
        }
        let lane = Lane {
            offset,
            width,
            frame,
            bw,
            mask: ((1u128 << bw) - 1) as u64,
            packed: self.take(packed_len(n, bw))?,
        };
        match frame {
            Frame::Dict(dict) if lane.escapes_dictionary(n, (dict.len() / width) as u64) => None,
            _ => Some(lane),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_storage::page::HeapPage;
    use dana_storage::tuple::TUPLE_HEADER_BYTES;
    use dana_storage::{HeapFileBuilder, Tuple};
    use proptest::prelude::*;

    fn build_pages(n: usize, d: usize, dir: TupleDirection) -> (Vec<Vec<u8>>, PageLayoutDesc) {
        let schema = Schema::training(d);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, dir).unwrap();
        for k in 0..n {
            let x: Vec<f32> = (0..d).map(|i| ((k * 3 + i) % 7) as f32 * 0.25).collect();
            b.insert(&Tuple::training(&x, k as f32)).unwrap();
        }
        let heap = b.finish();
        let layout = *heap.layout();
        let pages = (0..heap.page_count())
            .map(|p| heap.page_bytes(p).unwrap().to_vec())
            .collect();
        (pages, layout)
    }

    #[test]
    fn builder_pages_round_trip_and_shrink() {
        for dir in [TupleDirection::Ascending, TupleDirection::Descending] {
            let (pages, layout) = build_pages(500, 8, dir);
            let schema = Schema::training(8);
            let mut raw = 0usize;
            let mut packed_total = 0usize;
            for page in &pages {
                let packed = compress_page(page, &layout, &schema);
                assert_eq!(packed[0], CODEC_FOR, "builder pages are canonical");
                let back = decompress_page(&packed, &layout, &schema).unwrap();
                assert_eq!(&back, page);
                raw += page.len();
                packed_total += packed.len();
            }
            assert!(
                packed_total < raw / 2,
                "clustered data must compress ≥2×: {packed_total} vs {raw}"
            );
        }
    }

    #[test]
    fn special_float_bit_patterns_survive() {
        let schema = Schema::training(2);
        let mut b =
            HeapFileBuilder::new(schema.clone(), 8 * 1024, TupleDirection::Ascending).unwrap();
        let oddballs = [
            f32::NAN,
            f32::from_bits(0x7fc0_1234), // NaN with payload
            -0.0,
            0.0,
            f32::from_bits(1), // smallest subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ];
        for (k, &v) in oddballs.iter().enumerate() {
            b.insert(&Tuple::training(&[v, -v], k as f32)).unwrap();
        }
        let heap = b.finish();
        let page = heap.page_bytes(0).unwrap();
        let packed = compress_page(page, heap.layout(), &schema);
        let back = decompress_page(&packed, heap.layout(), &schema).unwrap();
        assert_eq!(back.as_slice(), page, "bit patterns must survive exactly");
    }

    /// A page of 40 `Schema::training(3)` tuples under a layout with 8
    /// bytes of padding past each tuple's data and 16 bytes of special
    /// space, which holds a pattern.
    fn padded_page(dir: TupleDirection) -> (Vec<u8>, PageLayoutDesc, Schema) {
        let schema = Schema::training(3);
        let tuple_bytes = TUPLE_HEADER_BYTES + schema.tuple_data_width() + 8;
        let layout =
            PageLayoutDesc::new(8 * 1024, 16, tuple_bytes, TUPLE_HEADER_BYTES, dir).unwrap();
        let mut page = HeapPage::new(layout);
        for k in 0..40u32 {
            let tuple = Tuple::training(&[k as f32, 0.5, -(k as f32)], (k % 3) as f32);
            let mut bytes = tuple.form(&schema, 7 + k, k).unwrap();
            bytes.resize(tuple_bytes, 0);
            page.insert(&bytes).unwrap();
        }
        let mut bytes = page.into_bytes();
        for (i, b) in bytes[layout.special_start()..].iter_mut().enumerate() {
            *b = 0xA0 | i as u8;
        }
        (bytes, layout, schema)
    }

    /// Every byte of a page is either stored (header, special space,
    /// lanes), regenerated (line pointers) or required to be zero: a
    /// stray byte anywhere regenerated or zero sends the page raw, one in
    /// a stored byte stays packed — and either way it round-trips.
    #[test]
    fn corrupted_page_falls_back_to_raw() {
        for dir in [TupleDirection::Ascending, TupleDirection::Descending] {
            let (pages, layout) = build_pages(50, 4, dir);
            let schema = Schema::training(4);
            let mut bent = pages[0].clone();
            // Scribble on a line pointer: no longer canonical.
            bent[PAGE_HEADER_BYTES] ^= 0xFF;
            let packed = compress_page(&bent, &layout, &schema);
            assert_eq!(packed[0], CODEC_RAW);
            assert_eq!(decompress_page(&packed, &layout, &schema).unwrap(), bent);

            let (page, layout, schema) = padded_page(dir);
            assert_eq!(compress_page(&page, &layout, &schema)[0], CODEC_FOR);
            let count = 40;
            let first = layout.tuple_offset(0);
            let cases = [
                ("used line pointer", PAGE_HEADER_BYTES + 1, CODEC_RAW),
                (
                    "unused line pointer",
                    PAGE_HEADER_BYTES + count * 4 + 2,
                    CODEC_RAW,
                ),
                (
                    "free space",
                    layout.tuple_offset(count as u16) + 5,
                    CODEC_RAW,
                ),
                ("tuple padding", first + layout.tuple_bytes - 1, CODEC_RAW),
                ("header byte", 12, CODEC_FOR),
                ("special space", layout.special_start() + 3, CODEC_FOR),
            ];
            for (what, at, codec) in cases {
                let mut bent = page.clone();
                bent[at] ^= 0x5A;
                let packed = compress_page(&bent, &layout, &schema);
                assert_eq!(packed[0], codec, "{what} at {at}, {dir:?}");
                let back = decompress_page(&packed, &layout, &schema).unwrap();
                assert_eq!(back, bent, "{what} at {at}, {dir:?}");
            }
        }
    }

    #[test]
    fn unknown_codec_and_truncation_are_typed_errors() {
        let layout = PageLayoutDesc::new(8 * 1024, 0, 60, 16, TupleDirection::Ascending).unwrap();
        let schema = Schema::training(10);
        assert!(decompress_page(&[], &layout, &schema).is_err());
        assert!(decompress_page(&[9, 0, 0], &layout, &schema).is_err());
        assert!(decompress_page(&[CODEC_RAW, 0], &layout, &schema).is_err());
        assert!(decompress_page(&[CODEC_FOR, 1, 2], &layout, &schema).is_err());
    }

    /// A lane of `codes` packed at bit width `bw` (its frame is unused).
    fn lane_of<'a>(codes: &[u64], bw: usize, packed: &'a mut Vec<u8>) -> Lane<'a> {
        packed.clear();
        pack_bits(codes.iter().copied(), bw, packed);
        Lane {
            offset: 0,
            width: 8,
            frame: Frame::Reference(0),
            bw,
            mask: ((1u128 << bw) - 1) as u64,
            packed,
        }
    }

    /// The rule `Lane::escapes_dictionary` must decide, read one code at a
    /// time: the largest of the first `n` codes (0 when `n` is 0).
    fn max_code(lane: &Lane, n: usize) -> u64 {
        (0..n).map(|slot| lane.code(slot)).max().unwrap_or(0)
    }

    /// The word-at-a-time index check is `max_code(n) ≥ n_dict` — the
    /// empty dictionary refused even over no codes — at every bit width
    /// with eight-code groups and at 9 (code by code), for every
    /// dictionary size that leaves some code out of range, over zero to
    /// three whole groups plus every tail length, with the first
    /// out-of-range code (the smallest or the largest) in a group's first
    /// field, a group's last field or the tail, or nowhere.
    #[test]
    fn word_at_a_time_index_check_is_the_per_code_rule() {
        let mut packed = Vec::new();
        let mut escapes = 0;
        for bw in (1..=8).chain([9]) {
            let top = (1u64 << bw) - 1;
            for n_dict in 0..=top {
                for n in 0..4 * 8usize {
                    let places = [None, Some(0), Some(7), Some(15), Some(23), Some(n / 8 * 8)];
                    let places = places.into_iter().chain([n.checked_sub(1)]);
                    for place in places.filter(|at| at.is_none_or(|at| at < n)) {
                        for escape in [n_dict, top] {
                            let codes: Vec<u64> = (0..n as u64)
                                .map(|slot| match place {
                                    Some(at) if slot == at as u64 => escape,
                                    _ if n_dict == 0 => slot & top,
                                    _ if slot % 3 == 0 => n_dict - 1,
                                    _ => slot * 5 % n_dict,
                                })
                                .collect();
                            let lane = lane_of(&codes, bw, &mut packed);
                            let verdict = lane.escapes_dictionary(n, n_dict);
                            assert_eq!(
                                verdict,
                                max_code(&lane, n) >= n_dict,
                                "bw {bw}, {n_dict} entries, {n} codes, escape {escape} at {place:?}"
                            );
                            escapes += usize::from(verdict);
                        }
                    }
                }
            }
        }
        assert!(escapes > 0);
        // Every code of a dictionary covering the bit width is an index.
        let lane = lane_of(&[3, 0, 3, 1, 2, 3, 3, 0, 1], 2, &mut packed);
        assert!(!lane.escapes_dictionary(9, 4) && !lane.escapes_dictionary(9, 5));
    }

    /// A lane's kept codes are its codes, whether the whole lane is
    /// unpacked (every slot kept) or each kept slot is read in place — at
    /// bit widths with and without eight-code groups, tails included.
    #[test]
    fn kept_codes_are_the_lane_codes_either_way() {
        let mut packed = Vec::new();
        let mut codes = Vec::new();
        for bw in [0, 1, 3, 5, 8, 9, 13, 31, 56, 57, 63, 64] {
            for n in [0, 1, 7, 8, 9, 37, 372] {
                let mask = ((1u128 << bw) - 1) as u64;
                let values: Vec<u64> = (0..n as u64)
                    .map(|slot| slot.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7) & mask)
                    .collect();
                let lane = lane_of(&values, bw, &mut packed);
                let every: Vec<u16> = (0..n as u16).collect();
                lane.codes_of(n, &every, &mut codes);
                assert_eq!(codes, values, "bw {bw}, n {n}: unpacked");
                let some: Vec<u16> = every.iter().copied().filter(|s| s % 3 != 1).collect();
                lane.codes_of(n, &some, &mut codes);
                let expected: Vec<u64> = some.iter().map(|&s| values[s as usize]).collect();
                assert_eq!(codes, expected, "bw {bw}, n {n}: read in place");
            }
        }
    }

    /// The round trip's lane check holds a lane to exactly its cells:
    /// any one cell off, or a code past the dictionary, and it refuses —
    /// in frame-of-reference and dictionary lanes, in and past the
    /// eight-code groups.
    #[test]
    fn lane_holds_exactly_its_cells() {
        let (mut packed, mut codes, mut entries) = (Vec::new(), Vec::new(), Vec::new());
        let dict: Vec<u8> = [7u32, 40, 41]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let lane_codes: Vec<u64> = (0..21).map(|slot| slot % 3).collect();
        for frame in [Frame::Reference(1 << 40), Frame::Dict(&dict)] {
            let mut lane = lane_of(&lane_codes, 2, &mut packed);
            lane.frame = frame;
            lane.width = 4;
            let cells: Vec<u64> = lane_codes.iter().map(|&code| lane.bits(code)).collect();
            assert!(lane.holds(&cells, &mut codes, &mut entries));
            for slot in [0, 7, 8, 20] {
                let mut bent = cells.clone();
                bent[slot] ^= 1;
                assert!(!lane.holds(&bent, &mut codes, &mut entries), "slot {slot}");
            }
        }
        // Code 3 indexes no entry of a three-entry dictionary.
        let lane = Lane {
            frame: Frame::Dict(&dict),
            width: 4,
            ..lane_of(&[0, 3, 1], 2, &mut packed)
        };
        assert!(!lane.holds(&[7, 7, 40], &mut codes, &mut entries));
    }

    /// The lane encoder the hash-indexed one replaced, kept as its
    /// reference: sort a copy of the lane, dedup it, and binary-search
    /// every cell; pack a byte at a time.
    fn reference_encode_lane(values: &[u64], width: usize, out: &mut Vec<u8>) {
        let min = values.iter().copied().min().unwrap_or(0);
        let max_delta = values.iter().map(|&v| v - min).max().unwrap_or(0);
        let for_bw = 64 - max_delta.leading_zeros() as usize; // 0 when all equal
        let for_len = width + 1 + packed_len(values.len(), for_bw);

        let mut dict: Vec<u64> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let dict_bw = usize::BITS as usize - (dict.len().max(1) - 1).leading_zeros() as usize;
        let dict_len = 2 + dict.len() * width + 1 + packed_len(values.len(), dict_bw);

        if dict.len() <= DICT_MAX && dict_len < for_len {
            out.push(LANE_DICT);
            out.extend_from_slice(&(dict.len() as u16).to_le_bytes());
            for &v in &dict {
                put_value(v, width, out);
            }
            out.push(dict_bw as u8);
            reference_pack_bits(
                values
                    .iter()
                    .map(|v| dict.binary_search(v).expect("value in dict") as u64),
                dict_bw,
                out,
            );
        } else {
            out.push(LANE_FOR);
            put_value(min, width, out);
            out.push(for_bw as u8);
            reference_pack_bits(values.iter().map(|&v| v - min), for_bw, out);
        }
    }

    fn reference_pack_bits(values: impl Iterator<Item = u64>, bw: usize, out: &mut Vec<u8>) {
        let mut acc: u128 = 0;
        let mut nbits = 0usize;
        for v in values {
            acc |= (v as u128) << nbits;
            nbits += bw;
            while nbits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push(acc as u8);
        }
    }

    /// SplitMix64's output function: a bijection on `u64`.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `d` distinct values spread over `spread` bits above a random base,
    /// with 0 and `u64::MAX` among them when `extremes` (and `d ≥ 2`).
    fn distinct_values(d: usize, spread: u32, seed: u64, extremes: bool) -> Vec<u64> {
        let base = mix(seed);
        let step = (1u64 << spread.min(63)) / d.max(1) as u64;
        let mut values: Vec<u64> = (0..d as u64)
            .map(|k| base.wrapping_add(k * step.max(1)))
            .collect();
        if extremes && d >= 2 {
            values[0] = 0;
            values[d - 1] = u64::MAX;
        }
        values
    }

    /// `n` cells drawing on `pool`, every value of it used when `n` allows,
    /// in a scrambled order.
    fn cells_of(pool: &[u64], n: usize, seed: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| match i < pool.len() as u64 {
                true => pool[i as usize],
                false => pool[(mix(seed ^ i) % pool.len() as u64) as usize],
            })
            .collect()
    }

    /// The smallest dictionary and frame-of-reference bit width that tie
    /// (`dict_len == for_len`) on a lane of `n` cells of `width` bytes.
    fn tie(n: usize, width: usize) -> Option<(usize, usize)> {
        (2..=n.min(DICT_MAX)).find_map(|d| {
            let dict_bw = bit_width(d as u64 - 1);
            let dict_len = 2 + d * width + 1 + packed_len(n, dict_bw);
            (dict_bw.max(1)..=64)
                .find(|&for_bw| width + 1 + packed_len(n, for_bw) == dict_len)
                .map(|for_bw| (d, for_bw))
        })
    }

    /// A lane of `n` cells, `d` distinct, whose range needs exactly
    /// `for_bw` bits.
    fn lane_spanning(n: usize, d: usize, for_bw: usize, seed: u64) -> Vec<u64> {
        let base = mix(seed) >> 1;
        let top = ((1u128 << for_bw) - 1) as u64;
        let mut pool: Vec<u64> = (0..d as u64)
            .map(|k| base.wrapping_add((k as u128 * top as u128 / (d as u128 - 1)) as u64))
            .collect();
        pool.dedup();
        cells_of(&pool, n, seed)
    }

    /// Every lane shape the oracle is held to, for one case: 1, 2 and 17
    /// distinct values (with and without 0 and `u64::MAX`), all-distinct
    /// lanes, a `dict_len == for_len` tie when `n` and `width` have one,
    /// and `DICT_MAX` ± 1 distinct values over `big` > 4 096 cells.
    fn oracle_lanes(width: usize, n: usize, big: usize, spread: u32, seed: u64) -> Vec<Vec<u64>> {
        let mut lanes = Vec::new();
        for (k, d) in [1usize, 2, 17].into_iter().enumerate() {
            for extremes in [false, true] {
                let pool = distinct_values(d, spread, seed ^ k as u64, extremes);
                lanes.push(cells_of(&pool, n, seed));
            }
        }
        let stride = 1u64 << (spread % 55);
        let all = (0..n as u64).map(|i| mix(seed).wrapping_add((i * 7919 % n as u64) * stride));
        lanes.push(all.collect());
        lanes.push((0..n as u64).map(|i| mix(seed ^ i)).collect());
        if let Some((d, for_bw)) = tie(n, width) {
            lanes.push(lane_spanning(n, d, for_bw, seed));
        }
        for d in [DICT_MAX - 1, DICT_MAX, DICT_MAX + 1] {
            let pool = distinct_values(d, 32 + spread % 33, seed, spread.is_multiple_of(2));
            lanes.push(cells_of(&pool, big, seed));
        }
        lanes
    }

    proptest! {
        /// The hash-indexed lane encoder writes exactly the bytes the
        /// sort-and-search one did, with one encoder's buffers reused
        /// across every lane.
        #[test]
        fn lane_encoder_is_the_sorting_reference(
            width in prop::sample::select(vec![4usize, 8]),
            n in 0usize..601,
            big in 4097usize..12289,
            spread in 0u32..65,
            seed in 0u64..u64::MAX,
        ) {
            let mut encoder = LaneEncoder::default();
            for lane in oracle_lanes(width, n, big, spread, seed) {
                let (mut fast, mut reference) = (Vec::new(), Vec::new());
                encoder.encode(&lane, width, &mut fast);
                reference_encode_lane(&lane, width, &mut reference);
                prop_assert_eq!(fast, reference, "width {} n {} spread {} seed {}", width, lane.len(), spread, seed);
            }
        }
    }

    /// What the oracle property compares reaches each way a lane is
    /// chosen: empty lanes, frame-of-reference and dictionary lanes, a
    /// tie (which takes the frame of reference), and dictionaries of
    /// exactly `DICT_MAX` entries beside lanes of `DICT_MAX + 1` values.
    #[test]
    fn oracle_lanes_reach_every_choice() {
        let mut seen = std::collections::BTreeSet::new();
        for (width, n, big, spread) in [(4, 0, 4097, 3), (4, 600, 12288, 40), (8, 377, 12288, 64)] {
            for lane in oracle_lanes(width, n, big, spread, 11) {
                let mut out = Vec::new();
                reference_encode_lane(&lane, width, &mut out);
                let mut distinct = lane.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let (min, max) = (distinct.first().copied(), distinct.last().copied());
                let for_bw = bit_width(max.unwrap_or(0) - min.unwrap_or(0));
                let dict_bw = bit_width(distinct.len().max(1) as u64 - 1);
                let dict_len = 3 + distinct.len() * width + packed_len(lane.len(), dict_bw);
                if dict_len == width + 1 + packed_len(lane.len(), for_bw) {
                    assert_eq!(out[0], LANE_FOR, "a tie takes the frame of reference");
                    seen.insert("tie");
                }
                seen.insert(match (lane.len(), out[0], distinct.len()) {
                    (0, _, _) => "empty",
                    (_, LANE_DICT, DICT_MAX) => "dictionary of DICT_MAX",
                    (_, LANE_FOR, d) if d > DICT_MAX => "more than DICT_MAX",
                    (_, LANE_DICT, _) => "dictionary",
                    _ => "frame of reference",
                });
            }
        }
        let every = [
            "dictionary",
            "dictionary of DICT_MAX",
            "empty",
            "frame of reference",
            "more than DICT_MAX",
            "tie",
        ];
        assert_eq!(seen, every.into(), "{seen:?}");
    }
}
