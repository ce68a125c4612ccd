//! The per-table scan sidecar: every page compressed, plus its zone map.
//!
//! Built lazily the first time a table is scanned with a pushdown spec and
//! kept in the catalog beside the table (`dana::core` maps heap id →
//! `Arc<ScanSidecar>`; DROP removes it with the table), the sidecar is what
//! the scan tier actually reads: compressed page images go through the
//! buffer pool (charged at their *compressed* size) and are filtered on
//! their lanes (`CODEC_FOR`) or decompressed (`CODEC_RAW`) on fetch, while
//! the zone maps drive page skipping and selectivity estimation without
//! touching any page.
//!
//! The build does each page's work once: one compressor runs over the
//! heap, keeping its buffers from page to page, and a `CODEC_FOR` page's
//! zone map is folded off the column lanes that compressor gathered, in
//! slot order, instead of decoding every row again. A page that stays
//! raw gets [`PageZone::build`], which stays the reference the folded
//! zones are held to.
//!
//! Which tuples a filtered scan keeps is decided once, by the scan: the
//! page source records the slots its predicate kept and PREDICT
//! materializes from that list. [`select_slots`] is the reference the list
//! is held to (tests and the benchmark's replay call it; no statement does);
//! it rebuilds each page's zone with [`PageZone::build`].

use std::sync::Arc;

use crate::codec::{PageEncoder, CODEC_FOR};
use crate::spec::BoundScanSpec;
use crate::zonemap::PageZone;
use dana_storage::{HeapFile, RowDecoder, StorageResult};

/// Compressed pages + zone maps for one heap.
#[derive(Debug, Clone)]
pub struct ScanSidecar {
    /// Per-page compressed image (codec byte + payload), as the shared
    /// handle a buffer-pool miss lends its frame.
    pages: Vec<Arc<Vec<u8>>>,
    /// Per-page zone map.
    zones: Vec<PageZone>,
    /// Total raw page bytes (the compression-ratio denominator).
    raw_bytes: u64,
    /// Total compressed bytes.
    compressed_bytes: u64,
}

impl ScanSidecar {
    /// Compresses every page of `heap` and computes its zone maps, in one
    /// pass per page: a `CODEC_FOR` page's zone is folded off the lanes
    /// its compression gathered, a raw page's comes from
    /// [`PageZone::build`].
    pub fn build(heap: &HeapFile) -> StorageResult<ScanSidecar> {
        let mut encoder = PageEncoder::new(heap.layout(), heap.schema());
        let mut pages = Vec::with_capacity(heap.page_count() as usize);
        let mut zones = Vec::with_capacity(heap.page_count() as usize);
        let mut raw_bytes = 0u64;
        let mut compressed_bytes = 0u64;
        for page_no in 0..heap.page_count() {
            let raw = heap.page_bytes(page_no)?;
            let packed = encoder.compress(raw);
            raw_bytes += raw.len() as u64;
            compressed_bytes += packed.len() as u64;
            let folded = match packed[0] {
                CODEC_FOR => encoder.zone(raw)?,
                _ => None,
            };
            zones.push(match folded {
                Some(zone) => zone,
                None => PageZone::build(heap, page_no)?,
            });
            pages.push(Arc::new(packed));
        }
        Ok(ScanSidecar {
            pages,
            zones,
            raw_bytes,
            compressed_bytes,
        })
    }

    /// The compressed image of one page — what
    /// [`SharedBufferPool::fetch_raw`](dana_storage::SharedBufferPool::fetch_raw)
    /// lends a frame.
    pub fn page(&self, page_no: u32) -> &Arc<Vec<u8>> {
        &self.pages[page_no as usize]
    }

    pub fn zones(&self) -> &[PageZone] {
        &self.zones
    }

    pub fn zone(&self, page_no: u32) -> &PageZone {
        &self.zones[page_no as usize]
    }

    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    pub fn compressed_bytes(&self) -> u64 {
        self.compressed_bytes
    }

    /// Raw-to-compressed ratio (≥ 1.0 means the codec won overall; the
    /// raw fallback bounds it below by ~1).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.compressed_bytes as f64
    }
}

/// Evaluates `spec` over every page of `heap` and returns, per page, the
/// slots whose tuples pass every conjunct (zone-pruned pages yield empty
/// slot lists). It reads the raw heap and builds each page's zone map
/// itself, sharing only the row decoder with the scan it is a reference for.
pub fn select_slots(heap: &HeapFile, spec: &BoundScanSpec) -> StorageResult<Vec<Vec<u16>>> {
    let decoder = RowDecoder::new(heap.schema());
    let mut row = vec![0f32; heap.schema().len()];
    (0..heap.page_count())
        .map(|page_no| {
            let mut slots = Vec::new();
            if !spec.page_can_match(&PageZone::build(heap, page_no)?) {
                return Ok(slots);
            }
            let view = heap.page(page_no)?;
            for slot in 0..view.tuple_count() {
                decoder.decode_row(view.user_data(slot, decoder.data_width())?, &mut row);
                if spec.row_matches(&row) {
                    slots.push(slot);
                }
            }
            Ok(slots)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CODEC_RAW;
    use crate::spec::{CmpOp, Predicate, ScanSpec};
    use dana_storage::page::TupleDirection;
    use dana_storage::{ColumnType, Datum, HeapFileBuilder, PageView, Schema, Tuple};

    fn heap(n: usize) -> HeapFile {
        let mut b =
            HeapFileBuilder::new(Schema::training(2), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            b.insert(&Tuple::training(&[k as f32, (k % 10) as f32], k as f32))
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn sidecar_round_trips_and_records_sizes() {
        let h = heap(800);
        let sc = ScanSidecar::build(&h).unwrap();
        assert_eq!(sc.page_count(), h.page_count());
        assert!(sc.ratio() > 1.0, "clustered pages must shrink");
        for p in 0..h.page_count() {
            assert_eq!(sc.page(p).capacity(), sc.page(p).len(), "sized exactly");
            let back = crate::codec::decompress_page(sc.page(p), h.layout(), h.schema()).unwrap();
            assert_eq!(back.as_slice(), h.page_bytes(p).unwrap());
            assert_eq!(sc.zone(p).tuples as u64, {
                let view = PageView::new(h.page_bytes(p).unwrap(), *h.layout()).unwrap();
                view.tuple_count() as u64
            });
        }
    }

    #[test]
    fn select_slots_matches_predicate_and_prunes() {
        // x0 ascends (a range predicate on it prunes pages); x1 cycles
        // 0..10 on every page (nothing to prune) with a NaN every 97th
        // row; y is NaN on the first 400 rows, so `!=` meets NaN-bearing,
        // all-NaN and all-equal zones.
        let rows: Vec<[f32; 3]> = (0..1500usize)
            .map(|k| {
                let x1 = if k % 97 == 0 {
                    f32::NAN
                } else {
                    (k % 10) as f32
                };
                [k as f32, x1, if k < 400 { f32::NAN } else { 7.0 }]
            })
            .collect();
        let mut b =
            HeapFileBuilder::new(Schema::training(2), 8 * 1024, TupleDirection::Ascending).unwrap();
        for r in &rows {
            b.insert(&Tuple::training(&r[..2], r[2])).unwrap();
        }
        let h = b.finish();
        let sc = ScanSidecar::build(&h).unwrap();
        let pred = |column: &str, op, value| Predicate {
            column: column.into(),
            op,
            value,
        };
        let range = vec![pred("x0", CmpOp::Ge, 300.0), pred("x0", CmpOp::Lt, 420.0)];
        let projection = Some(vec!["y".to_string(), "x0".to_string()]);
        // (conjuncts, projection, whether the last page is ruled out)
        let cases = [
            (range, None, true),
            (vec![pred("x1", CmpOp::Eq, 3.0)], None, false),
            // NaN != c holds: every NaN cell survives a `!=`.
            (vec![pred("x1", CmpOp::Ne, 3.0)], None, false),
            (vec![pred("y", CmpOp::Ne, 7.0)], None, true),
            (vec![pred("x0", CmpOp::Lt, 100.0)], projection, true),
        ];
        for (predicates, projection, tail_pruned) in cases {
            let spec = ScanSpec {
                predicates,
                projection,
            };
            let bound = spec.bind(h.schema()).unwrap();
            let sel = select_slots(&h, &bound).unwrap();
            assert_eq!(sel.len(), h.page_count() as usize);
            // Pruning never drops a matching row.
            let total: usize = sel.iter().map(|s| s.len()).sum();
            let expected = rows.iter().filter(|r| bound.row_matches(&r[..])).count();
            assert_eq!(total, expected, "{spec:?}");
            assert_eq!(sel.last().unwrap().is_empty(), tail_pruned, "{spec:?}");
        }
        // The zones the function rebuilds equal the sidecar's stored ones.
        for p in 0..h.page_count() {
            assert_eq!(&PageZone::build(&h, p).unwrap(), sc.zone(p), "page {p}");
        }
    }

    /// A zone's bounds as bit patterns, so `-0.0` and `0.0` differ.
    fn zone_bits(zone: &PageZone) -> (Vec<u32>, Vec<u32>, Vec<bool>, u16) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
        (
            bits(&zone.min),
            bits(&zone.max),
            zone.has_nan.clone(),
            zone.tuples,
        )
    }

    /// Zone maps folded off a packed page's lanes are `PageZone::build`'s,
    /// bit for bit — NaN payloads, both zeros in either order, infinities,
    /// subnormals, every column type, both tuple directions — and a page
    /// that stays raw keeps `PageZone::build`'s.
    #[test]
    fn lane_zones_are_the_decoded_zones() {
        let odd = [
            f32::from_bits(0x7FC0_1234), // NaN with payload
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1), // smallest subnormal
            f32::from_bits(0x807F_FFFF),
            1.5,
            -2.25,
        ];
        let schema = Schema::new(vec![
            ("f4".into(), ColumnType::Float4),
            ("i4".into(), ColumnType::Int4),
            ("i8".into(), ColumnType::Int8),
            ("f8".into(), ColumnType::Float8),
            ("zeros".into(), ColumnType::Float4),
        ]);
        for dir in [TupleDirection::Ascending, TupleDirection::Descending] {
            let mut b = HeapFileBuilder::new(schema.clone(), 8 * 1024, dir).unwrap();
            for k in 0..1000usize {
                let f = odd[(k + k / 150) % odd.len()];
                // Runs of each zero, so that a page meets either first
                // and both bounds are zeros.
                let zero = if k / 37 % 2 == 0 { -0.0 } else { 0.0 };
                b.insert(&Tuple::new(vec![
                    Datum::Float4(f),
                    Datum::Int4(k as i32 % 7 - 3),
                    Datum::Int8(-(k as i64) << 40),
                    Datum::Float8(if k % 5 == 0 {
                        -(f as f64)
                    } else {
                        f64::MIN_POSITIVE
                    }),
                    Datum::Float4(if k % 97 == 0 { odd[0] } else { zero }),
                ]))
                .unwrap();
            }
            let h = b.finish();
            let sc = ScanSidecar::build(&h).unwrap();
            let mut packed = 0;
            for p in 0..h.page_count() {
                packed += usize::from(sc.page(p)[0] == CODEC_FOR);
                let built = PageZone::build(&h, p).unwrap();
                assert_eq!(
                    zone_bits(sc.zone(p)),
                    zone_bits(&built),
                    "page {p}, {dir:?}"
                );
            }
            assert_eq!(packed, h.page_count() as usize, "every page packs");
        }
        // About 100 unquantized features on an 8 KB page: raw.
        let mut b = HeapFileBuilder::new(Schema::training(99), 8 * 1024, TupleDirection::Ascending)
            .unwrap();
        for k in 0..60u32 {
            let x: Vec<f32> = (0..99)
                .map(|i| f32::from_bits((k * 99 + i).wrapping_mul(0x9E37_79B9)))
                .collect();
            b.insert(&Tuple::training(&x, -0.0)).unwrap();
        }
        let h = b.finish();
        let sc = ScanSidecar::build(&h).unwrap();
        assert_eq!(sc.page(0)[0], CODEC_RAW);
        for p in 0..h.page_count() {
            let built = PageZone::build(&h, p).unwrap();
            assert_eq!(zone_bits(sc.zone(p)), zone_bits(&built), "raw page {p}");
        }
    }
}
