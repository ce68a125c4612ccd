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
//! [`compress_page`] decompresses its own output and compares against the
//! original before committing to the FOR form — a page that deviates from
//! the canonical builder layout in any way (or that doesn't shrink) falls
//! back to raw, making the round trip bit-exact *unconditionally*.
//!
//! There is one parser of the packed form, [`ForPage::open`]: it checks
//! the whole image and borrows its lanes without unpacking them. A lane is
//! addressed in place — cell `slot` is the `slot`-th bit-packed code
//! through the lane's frame — so [`decompress_page`] is that parser plus a
//! scatter into a page image, and a pushdown scan ([`ForPage::filter_into`])
//! reads the predicate columns' lanes and then only the kept cells of the
//! projected columns, building no page image at all.
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

use crate::spec::BoundScanSpec;
use dana_storage::{
    ColumnType, PageLayoutDesc, Schema, StorageError, StorageResult, TupleBatch,
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
    if let Some(packed) = try_compress_for(bytes, layout, schema) {
        if packed.len() < 1 + bytes.len() {
            // Commit to FOR only if the reconstruction is bit-exact.
            if let Ok(back) = decompress_page(&packed, layout, schema) {
                if back == bytes {
                    return packed;
                }
            }
        }
    }
    let mut out = Vec::with_capacity(1 + bytes.len());
    out.push(CODEC_RAW);
    out.extend_from_slice(bytes);
    out
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

    /// The pushdown scan of this page, on its lanes: the predicate columns
    /// are read first, conjunct by conjunct, narrowing `kept` (overwritten)
    /// to the slots that pass every one; then only the projected columns
    /// of those slots are decoded, straight into `batch` (appended; its
    /// width must be the projected width). Cells convert through
    /// [`ColumnType::decode_f32`] and compare through [`CmpOp::matches`],
    /// so rows and slots are exactly what walking the rebuilt image and
    /// filtering its full-width rows would give.
    ///
    /// A conjunct over a dictionary lane is evaluated once per dictionary
    /// entry, a conjunct over a lane of bit width 0 once per page, and a
    /// projected dictionary lane decoded once per entry; `scratch` holds
    /// the codes and tables in between (its contents on entry are
    /// ignored).
    ///
    /// [`CmpOp::matches`]: crate::CmpOp::matches
    pub fn filter_into(
        &self,
        spec: &BoundScanSpec,
        batch: &mut TupleBatch,
        kept: &mut Vec<u16>,
        scratch: &mut LaneScratch,
    ) {
        let n = self.count as usize;
        let LaneScratch { codes, table, pass } = scratch;
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
        let width = spec.output_width(self.columns.len());
        assert_eq!(
            batch.width(),
            width,
            "batch width must be the projected width"
        );
        let out = batch.append_rows(kept.len());
        if kept.is_empty() {
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
            lane.codes_of(n, kept, codes);
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

/// The buffers [`ForPage::filter_into`] reads lanes through, kept across
/// a scan's pages so a page costs no allocation once they have grown.
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

/// Attempts the FOR encoding. Returns `None` when the page visibly
/// deviates from the canonical builder layout (the final round-trip check
/// in [`compress_page`] catches anything this misses).
fn try_compress_for(bytes: &[u8], layout: &PageLayoutDesc, schema: &Schema) -> Option<Vec<u8>> {
    if bytes.len() != layout.page_size || !layout.tuple_header_bytes.is_multiple_of(4) {
        return None;
    }
    let count = u16::from_le_bytes(bytes[16..18].try_into().unwrap());
    if count > layout.capacity {
        return None;
    }
    // Line pointers must be exactly what the layout dictates (used slots)
    // or zero (unused slots) — they are regenerated, not stored.
    for slot in 0..layout.capacity {
        let lp = PAGE_HEADER_BYTES + slot as usize * LINE_POINTER_BYTES;
        let off = u16::from_le_bytes(bytes[lp..lp + 2].try_into().unwrap());
        let len = u16::from_le_bytes(bytes[lp + 2..lp + 4].try_into().unwrap());
        if slot < count {
            if off as usize != layout.tuple_offset(slot) || len as usize != layout.tuple_bytes {
                return None;
            }
        } else if off != 0 || len != 0 {
            return None;
        }
    }
    let n = count as usize;
    let mut out = Vec::with_capacity(layout.page_size / 2);
    out.push(CODEC_FOR);
    out.extend_from_slice(&bytes[..PAGE_HEADER_BYTES]);
    out.extend_from_slice(&bytes[layout.special_start()..]);

    // Tuple-header word lanes.
    let header_words = layout.tuple_header_bytes / 4;
    let mut lane = Vec::with_capacity(n);
    for w in 0..header_words {
        lane.clear();
        for slot in 0..count {
            let at = layout.tuple_offset(slot) + w * 4;
            lane.push(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as u64);
        }
        encode_lane(&lane, 4, &mut out);
    }
    // One lane per column: the cells' little-endian bit patterns.
    for (idx, col) in schema.columns().iter().enumerate() {
        let col_off = schema.column_offset(idx).ok()?;
        let width = col.ty.width();
        lane.clear();
        for slot in 0..count {
            let at = layout.tuple_offset(slot) + layout.tuple_header_bytes + col_off;
            lane.push(match width {
                4 => u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as u64,
                _ => u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()),
            });
        }
        encode_lane(&lane, width, &mut out);
    }
    Some(out)
}

/// Lane mode: frame-of-reference over the raw integer values.
const LANE_FOR: u8 = 0;
/// Lane mode: sorted dictionary + bit-packed indices (low-cardinality
/// lanes — e.g. categorical or quantized float columns — where the value
/// *range* is wide but the distinct count is small).
const LANE_DICT: u8 = 1;

/// Maximum dictionary size worth trying (12-bit indices).
const DICT_MAX: usize = 4096;

/// Encodes one lane, choosing the smaller of
/// `[LANE_FOR][min: width bytes LE][bit_width: u8][packed deltas]` and
/// `[LANE_DICT][n_dict: u16 LE][dict: n_dict × width bytes][bit_width: u8][packed indices]`.
fn encode_lane(values: &[u64], width: usize, out: &mut Vec<u8>) {
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
        pack_bits(
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
        pack_bits(values.iter().map(|&v| v - min), for_bw, out);
    }
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

fn pack_bits(values: impl Iterator<Item = u64>, bw: usize, out: &mut Vec<u8>) {
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
    /// eight per load at bit widths 1–8.
    fn unpack(&self, n: usize, codes: &mut Vec<u64>) {
        codes.clear();
        codes.resize(n, 0);
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
    use dana_storage::page::TupleDirection;
    use dana_storage::{HeapFileBuilder, Tuple};

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

    #[test]
    fn corrupted_page_falls_back_to_raw() {
        let (pages, layout) = build_pages(50, 4, TupleDirection::Ascending);
        let schema = Schema::training(4);
        let mut bent = pages[0].clone();
        // Scribble on a line pointer: no longer canonical.
        bent[PAGE_HEADER_BYTES] ^= 0xFF;
        let packed = compress_page(&bent, &layout, &schema);
        assert_eq!(packed[0], CODEC_RAW);
        assert_eq!(decompress_page(&packed, &layout, &schema).unwrap(), bent);
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
}
