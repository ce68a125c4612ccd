//! The DAnA scan tier: compressed page storage plus predicate/projection
//! pushdown.
//!
//! The paper's Striders walk *raw* database pages; this crate adds the
//! storage-side half that practical accelerator stacks (Intel IAA-style
//! scan/extract/select engines) put in front of the compute kernel:
//!
//! * [`codec`] — per-page compression: frame-of-reference + bit-packing
//!   over the page's integer lanes (tuple-header words, Float4/Int column
//!   bit patterns) with a whole-page raw fallback, chosen per page. Both
//!   codecs reconstruct the exact page image — compression is bit-exact by
//!   construction, and [`codec::compress_page`] checks the round trip in
//!   place (every lane against the cells it packed, every other byte
//!   stored verbatim or zero) before committing to the packed form. A
//!   pushdown scan does not
//!   reconstruct a FOR page: [`ForPage::filter_into`] evaluates the
//!   predicate on the packed lanes and decodes only the kept cells of the
//!   projected columns.
//! * [`zonemap`] — per-page, per-column min/max/has-NaN statistics that
//!   let a filtered scan skip pages no tuple of which can match.
//! * [`spec`] — [`ScanSpec`]: the `WHERE <col> <op> <const> [AND …]` /
//!   `COLUMNS (…)` clauses compiled at parse time, bound to a schema into
//!   a [`BoundScanSpec`] that prunes pages and filters rows.
//! * [`sidecar`] — [`ScanSidecar`]: the lazily-built per-table compressed
//!   heap + zone maps the scan tier caches on the catalog entry, built in
//!   one pass per page (a packed page's zone map is read off the lanes its
//!   compression gathered).

pub mod codec;
pub mod sidecar;
pub mod spec;
pub mod zonemap;

pub use codec::{compress_page, decompress_page, ForPage, LaneScratch, CODEC_FOR, CODEC_RAW};
pub use sidecar::{select_slots, ScanSidecar};
pub use spec::{BoundPredicate, BoundScanSpec, CmpOp, Predicate, ScanError, ScanSpec};
pub use zonemap::PageZone;

/// Simulated decompressor throughput: bytes of reconstructed page per
/// accelerator clock cycle. IAA-class decompress engines sustain tens of
/// GB/s; at the VU9P's 150 MHz clock, 16 B/cycle ≈ 2.4 GB/s — deliberately
/// conservative so the decompress term stays visible in the cycle model.
pub const DECOMPRESS_BYTES_PER_CYCLE: u64 = 16;

/// Cycles charged for decompressing `raw_len` reconstructed bytes.
pub fn decompress_cycles(raw_len: usize) -> u64 {
    (raw_len as u64).div_ceil(DECOMPRESS_BYTES_PER_CYCLE)
}
