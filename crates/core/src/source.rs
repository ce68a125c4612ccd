//! The buffer-pool-backed [`TupleSource`]: the staged streaming loop that
//! replaces full-table materialization on the query hot path.
//!
//! Fig. 2's execution flow interleaves, per page: disk → buffer pool
//! (misses only), pool → FPGA page streaming, Strider extraction, and
//! engine compute. [`SharedPageStreamSource`] realizes that schedule in the
//! simulator: each `next_batch` call fetches ONE page through the pool,
//! extracts it into a flat [`TupleBatch`] with the Striders, and hands
//! the batch to the execution engine, which trains on it while the source
//! is ready to fetch the next page.
//!
//! A source holds one batch, cleared and refilled by every page, so a scan
//! allocates once whatever the table's size. A `rewind()` restarts the
//! page walk: training's later epochs stream their pages through the pool
//! again, as the hardware does and as [`crate::exec::stream_counts`]
//! prices them. Only the first pass is metered ([`ScanOutcome`]); a rewind
//! inside it walks the rest of it first, so the outcome is one whole pass.
//!
//! Under a pushdown [`ScanState`] this is also where a filtered statement's
//! selection is decided, once: the slots each page's predicate kept are
//! recorded as the page is filtered ([`ScanOutcome::kept`]), and a filtered
//! PREDICT materializes from that list. A `CODEC_FOR` page is filtered on
//! its compressed lanes ([`ForPage::filter_into`]): predicate columns
//! first, then only the kept cells of the projected columns, with no page
//! image and no Strider walk. The simulated clock does not see the
//! difference — it charges the page's decompression and the full walk
//! ([`AccessEngine::canonical_page_cycles`]) exactly as for a `CODEC_RAW`
//! page, which is decompressed and walked. A filtered gang's member is
//! handed its slots (`member_selections`) and extracts only those on
//! every pass: the extract half ([`ForPage::extract_into`]) on a
//! `CODEC_FOR` page, the Striders keyed by slot on a `CODEC_RAW` one.

use std::sync::Arc;

use dana_scan::{BoundScanSpec, ForPage, LaneScratch, ScanSidecar};
use dana_storage::{
    DiskModel, HeapFile, HeapId, PageId, SharedBufferPool, SourceError, TupleBatch, TupleSource,
};
use dana_strider::{AccessEngine, AccessStats};

use crate::report::Seconds;

/// Pushdown state for one scan: the table's compressed sidecar (shared out
/// of the catalog) plus the `WHERE`/`COLUMNS` spec bound to its schema.
/// Attaching this to a page source flips the whole data path:
/// pages stream *compressed* through the buffer pool (under the heap's
/// shadow id, charged at compressed size), zone-unmatchable pages are
/// skipped without a fetch, and surviving tuples are filtered/projected
/// before the engine sees them — on the lanes of a `CODEC_FOR` page, by
/// the Striders over the image of a `CODEC_RAW` one. Either way the
/// access stats charge a decompression and a full Strider walk per
/// fetched page.
#[derive(Clone)]
pub struct ScanState {
    pub sidecar: Arc<ScanSidecar>,
    pub spec: Arc<BoundScanSpec>,
}

/// What one source's first scan measured (extraction counters, simulated
/// disk seconds) and selected.
#[derive(Default)]
pub struct ScanOutcome {
    pub stats: AccessStats,
    pub io_seconds: Seconds,
    /// Under a pushdown [`ScanState`], per page of the scanned range, in
    /// page order: the slots whose records the predicate kept (none for a
    /// zone-pruned page). Empty without one.
    pub kept: Vec<Vec<u16>>,
}

/// Streams a table page-by-page out of the [`SharedBufferPool`] into one
/// batch, through `&self` fetches, so many queries can scan
/// simultaneously. Each page comes back as a
/// [`PageGuard`](dana_storage::PageGuard) over the image the pool lends
/// (the heap's page, or the sidecar's compressed one); a guard lives only
/// for the duration of its extraction, so the source never pins a frame
/// across engine compute.
///
/// Because the pool's statistics aggregate *every* concurrent query, this
/// source meters its own simulated I/O: the per-query `io_seconds` it
/// accumulates is the disk time of exactly the misses its first pass
/// caused.
pub struct SharedPageStreamSource<'a> {
    pool: &'a SharedBufferPool,
    disk: &'a DiskModel,
    heap: &'a HeapFile,
    heap_id: HeapId,
    access: &'a AccessEngine,
    next_page: u32,
    /// One past the last page this source scans (a shard boundary for
    /// gang-parallel scans; `page_count` for a whole-table scan).
    end_page: u32,
    start_page: u32,
    /// Whether the metered first pass is over: later passes record nothing.
    metered: bool,
    /// The one batch every page is extracted into.
    batch: TupleBatch,
    outcome: ScanOutcome,
    scan: Option<ScanState>,
    /// A filtered gang member's share of its gang's scan: per page of the
    /// range, the slots it extracts.
    selection: Option<Vec<Vec<u16>>>,
    /// A later pass's kept slots, which it does not record.
    unrecorded: Vec<u16>,
    /// The lane reader's buffers, kept across the scan's `CODEC_FOR` pages.
    lane_scratch: LaneScratch,
}

impl<'a> SharedPageStreamSource<'a> {
    /// A source over the page range `[start_page, end_page)` — one shard
    /// of a gang-parallel scan. The shared pool's `&self` fetches let any
    /// number of shard sources stream simultaneously, each metering its
    /// own simulated I/O.
    pub fn with_range(
        pool: &'a SharedBufferPool,
        disk: &'a DiskModel,
        heap: &'a HeapFile,
        heap_id: HeapId,
        access: &'a AccessEngine,
        start_page: u32,
        end_page: u32,
    ) -> SharedPageStreamSource<'a> {
        let end_page = end_page.min(heap.page_count());
        let start_page = start_page.min(end_page);
        SharedPageStreamSource {
            pool,
            disk,
            heap,
            heap_id,
            access,
            next_page: start_page,
            end_page,
            start_page,
            metered: false,
            batch: TupleBatch::new(heap.schema().len()),
            outcome: ScanOutcome::default(),
            scan: None,
            selection: None,
            unrecorded: Vec::new(),
            lane_scratch: LaneScratch::default(),
        }
    }

    /// Attaches a pushdown [`ScanState`] — see its docs for how it changes
    /// the data path.
    pub fn with_scan(mut self, scan: ScanState) -> SharedPageStreamSource<'a> {
        self.batch = TupleBatch::new(scan.spec.output_width(self.heap.schema().len()));
        self.scan = Some(scan);
        self
    }

    /// Makes this pushdown source one member of a filtered gang:
    /// `selection` holds, per page of its range, the slots it extracts on
    /// every pass (as [`member_selections`] cut them). The gang's one scan
    /// at open was the metered pass, so this source meters nothing.
    pub(crate) fn with_selection(mut self, selection: Vec<Vec<u16>>) -> SharedPageStreamSource<'a> {
        assert_eq!(selection.len(), (self.end_page - self.start_page) as usize);
        self.selection = Some(selection);
        self.metered = true;
        self
    }

    /// What this query's first scan measured, as far as it got.
    pub fn into_stats(mut self) -> ScanOutcome {
        self.access.finish_stats(&mut self.outcome.stats);
        self.outcome
    }

    /// Extracts page `page_no` into the batch, metering it on the first
    /// pass. Returns `false` when the page was skipped (zone-pruned, or
    /// none of a member's slots): no fetch, no rows.
    fn extract_page(&mut self, page_no: u32) -> Result<bool, SourceError> {
        let selected = self
            .selection
            .as_ref()
            .map(|pages| pages[(page_no - self.start_page) as usize].as_slice());
        let (batch, mut kept) = (&mut self.batch, std::mem::take(&mut self.unrecorded));
        batch.clear();
        kept.clear();
        // A fetched page's simulated disk seconds and Strider cycles. Each
        // arm's page guard unpins its frame when the arm ends, errors
        // included, so a corrupt page cannot leak a held frame.
        let cost = match &self.scan {
            None => {
                let (bytes, io) =
                    self.pool
                        .fetch(PageId::new(self.heap_id, page_no), self.heap, self.disk)?;
                let cycles = self.access.extract_page_into(&bytes, batch);
                Some((io, cycles.map_err(|e| SourceError(e.to_string()))?))
            }
            Some(scan)
                if selected.map_or_else(
                    || !scan.spec.page_can_match(scan.sidecar.zone(page_no)),
                    <[u16]>::is_empty,
                ) =>
            {
                None
            }
            Some(scan) => {
                // The sidecar's compressed image under the shadow id,
                // charged at compressed size.
                let (bytes, io) = self.pool.fetch_raw(
                    PageId::new(self.heap_id.shadow(), page_no),
                    scan.sidecar.page(page_no),
                    self.disk,
                )?;
                let (layout, schema) = (self.heap.layout(), self.heap.schema());
                let lanes = ForPage::open(&bytes, layout, schema)
                    .map_err(|e| SourceError(e.to_string()))?;
                let cycles = match lanes.filter(|page| page.tuple_count() > 0) {
                    // Filtered on its lanes; the simulated clock still
                    // charges decompression and the full walk.
                    Some(page) => {
                        let scratch = &mut self.lane_scratch;
                        match selected {
                            Some(slots) => page.extract_into(&scan.spec, slots, batch, scratch),
                            None => page.filter_into(&scan.spec, batch, &mut kept, scratch),
                        }
                        self.access.canonical_page_cycles(page.tuple_count())
                    }
                    None => {
                        let raw = dana_scan::decompress_page(&bytes, layout, schema)
                            .map_err(|e| SourceError(e.to_string()))?;
                        // The predicate runs once per record, in slot
                        // order: the call count is the slot number.
                        let mut slot = 0u16;
                        let mut selected = selected.map(|slots| slots.iter().peekable());
                        self.access
                            .extract_page_filtered_into(
                                &raw,
                                batch,
                                scan.spec.projection.as_deref(),
                                |row| {
                                    let keep = match &mut selected {
                                        Some(slots) => slots.next_if_eq(&&slot).is_some(),
                                        None => scan.spec.row_matches(row),
                                    };
                                    if keep {
                                        kept.push(slot);
                                    }
                                    slot += 1;
                                    keep
                                },
                            )
                            .map_err(|e| SourceError(e.to_string()))?
                    }
                };
                Some((io, cycles))
            }
        };
        if self.metered {
            self.unrecorded = kept;
            return Ok(cost.is_some());
        }
        let stats = &mut self.outcome.stats;
        match cost {
            None => stats.pages_skipped += 1,
            Some((io, cycles)) => {
                self.outcome.io_seconds += io;
                stats.pages += 1;
                stats.tuples += batch.len() as u64;
                stats.strider_cycles += cycles;
            }
        }
        if self.scan.is_some() {
            self.outcome.kept.push(kept);
            if cost.is_some() {
                let page_size = self.heap.layout().page_size;
                stats.decompress_cycles += dana_scan::decompress_cycles(page_size);
                stats.decompressed_bytes += page_size as u64;
            }
        }
        Ok(cost.is_some())
    }
}

/// A filtered gang's members, cut from its one scan's `kept` slots (per
/// source page) at the survivor counts `splits` (as from
/// [`dana_parallel::packed_tuple_splits`]): per member, the first page of
/// the range that holds its survivors and, per page of that range, the
/// slots it extracts. Concatenated in member order, the selections are
/// `kept`'s survivors in order, so member contents are those of sharding
/// the pre-materialized survivor table. A member's range starts and ends
/// on a page that holds some of its survivors; a page that a boundary
/// splits is in both members' ranges.
pub(crate) fn member_selections(kept: &[Vec<u16>], splits: &[u64]) -> Vec<(u32, Vec<Vec<u16>>)> {
    let (mut page, mut offset) = (0, 0);
    splits
        .iter()
        .map(|&n| {
            let mut left = n as usize;
            // A member starts on the first page with a survivor left.
            while left > 0 && offset == kept[page].len() {
                (page, offset) = (page + 1, 0);
            }
            let start = page as u32;
            let mut selection = Vec::new();
            while left > 0 {
                let take = (kept[page].len() - offset).min(left);
                selection.push(kept[page][offset..offset + take].to_vec());
                (left, offset) = (left - take, offset + take);
                if offset == kept[page].len() {
                    (page, offset) = (page + 1, 0);
                }
            }
            (start, selection)
        })
        .collect()
}

impl TupleSource for SharedPageStreamSource<'_> {
    fn width(&self) -> usize {
        self.batch.width()
    }

    fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError> {
        while self.next_page < self.end_page {
            let page_no = self.next_page;
            self.next_page += 1;
            // Skipped pages yield no batch; keep walking the range.
            if self.extract_page(page_no)? {
                return Ok(Some(&self.batch));
            }
        }
        self.metered = true;
        Ok(None)
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        // A rewind inside the metered pass walks the rest of it, so the
        // outcome describes one whole pass. Before its first page the walk
        // already starts where a rewind puts it.
        if !self.metered && self.next_page > self.start_page {
            while self.next_batch()?.is_some() {}
        }
        self.next_page = self.start_page;
        Ok(())
    }

    fn tuple_count_hint(&self) -> Option<u64> {
        match (&self.scan, &self.selection) {
            (_, Some(pages)) => Some(pages.iter().map(|slots| slots.len() as u64).sum()),
            // Post-filter estimate off the zone maps; a sizing hint only.
            (Some(s), None) => Some(s.spec.estimated_tuples(
                &s.sidecar.zones()[self.start_page as usize..self.end_page as usize],
            )),
            (None, None) => Some(
                self.heap
                    .tuples_in_page_range(self.start_page, self.end_page),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_fpga::{AxiLink, Clock};
    use dana_scan::{CmpOp, Predicate, ScanSpec};
    use dana_storage::page::TupleDirection;
    use dana_storage::{BufferPoolConfig, HeapFileBuilder, HeapPage, Schema, Tuple};
    use dana_strider::AccessEngineConfig;

    /// One pass of `source`, batch by batch, as bits (the rows hold NaNs).
    fn pass(source: &mut SharedPageStreamSource<'_>) -> Vec<(usize, Vec<u32>)> {
        let mut batches = Vec::new();
        while let Some(b) = source.next_batch().unwrap() {
            let bits = b.as_slice().iter().map(|v| v.to_bits()).collect();
            batches.push((b.width(), bits));
        }
        batches
    }

    /// A rewound pass is the first pass again: the same batches in the
    /// same order, bit for bit, out of the one batch the source clears and
    /// refills. Only the first pass meters, so two passes leave a single
    /// pass's outcome — counters, simulated I/O to the bit, kept slots —
    /// and so does a rewind in the middle of the first pass, which still
    /// meters all of it. A rewind before the first page walks nothing.
    /// Each source gets a pool of its own, emptied first, so every first
    /// pass runs cold. Returns the pass.
    fn assert_rewound_pass_is_the_first_pass<'a>(
        open: impl Fn(&'a SharedBufferPool) -> SharedPageStreamSource<'a>,
        pools: &'a [SharedBufferPool; 3],
    ) -> Vec<(usize, Vec<u32>)> {
        pools.iter().for_each(SharedBufferPool::clear);
        let mut once = open(&pools[0]);
        let first = pass(&mut once);
        assert!(once.next_batch().unwrap().is_none(), "a pass ends once");
        let once = once.into_stats();
        assert!(once.io_seconds > 0.0, "the first pass ran cold");
        let mut twice = open(&pools[1]);
        assert_eq!(pass(&mut twice), first);
        twice.rewind().unwrap();
        assert_eq!(pass(&mut twice), first, "the rewound pass");
        let mut interrupted = open(&pools[2]);
        assert!(interrupted.next_batch().unwrap().is_some());
        interrupted.rewind().unwrap();
        assert_eq!(
            pass(&mut interrupted),
            first,
            "the pass after a rewind mid-pass"
        );
        for (what, outcome) in [("rewound", twice), ("interrupted", interrupted)] {
            let outcome = outcome.into_stats();
            assert_eq!(outcome.stats, once.stats, "{what}");
            assert_eq!(
                outcome.io_seconds.to_bits(),
                once.io_seconds.to_bits(),
                "{what}"
            );
            assert_eq!(outcome.kept, once.kept, "{what}");
        }
        let mut fresh = open(&pools[0]);
        fresh.rewind().unwrap();
        assert_eq!(fresh.into_stats().stats, AccessStats::default());
        assert!(pools.iter().all(|pool| pool.held_frames() == 0));
        first
    }

    fn pool_of(page_size: usize) -> SharedBufferPool {
        SharedBufferPool::with_shards(
            BufferPoolConfig {
                pool_bytes: 1 << 20,
                page_size,
            },
            2,
        )
    }

    fn access_for(heap: &HeapFile) -> AccessEngine {
        AccessEngine::for_table(
            *heap.layout(),
            heap.schema().clone(),
            AccessEngineConfig::new(2, Clock::FPGA_150MHZ, AxiLink::with_bandwidth(2.5e9)),
        )
    }

    fn heap_of(rows: &[[f32; 3]], direction: TupleDirection) -> HeapFile {
        let mut b = HeapFileBuilder::new(Schema::training(2), 8 * 1024, direction).unwrap();
        for r in rows {
            b.insert(&Tuple::training(&r[..2], r[2])).unwrap();
        }
        b.finish()
    }

    /// The lists a pushdown scan records are exactly the slots whose rows
    /// match, page for page — for both placement directions, under a
    /// projection, across zone-pruned pages and a `!=` over NaN cells. A
    /// filtered gang's one scan at open is this same scan streamed to its
    /// end. The oracle is the row data itself, chunked at the page
    /// capacity. Every scan built here, and the unfiltered one, is also
    /// rewound against its own first pass.
    #[test]
    fn pushdown_scan_records_the_slots_it_kept() {
        // x0 ascends (a range on it prunes pages); x1 is NaN every 7th row.
        let rows: Vec<[f32; 3]> = (0..1200usize)
            .map(|k| {
                let x1 = if k % 7 == 0 { f32::NAN } else { (k % 5) as f32 };
                [k as f32, x1, k as f32 * 0.5]
            })
            .collect();
        let pred = |column: &str, op, value| Predicate {
            column: column.into(),
            op,
            value,
        };
        let page_size = 8 * 1024;
        let (pool, cold) = (
            pool_of(page_size),
            [pool_of(page_size), pool_of(page_size), pool_of(page_size)],
        );
        let disk = DiskModel::ssd();
        let directions = [TupleDirection::Ascending, TupleDirection::Descending];
        for (heap_no, direction) in directions.into_iter().enumerate() {
            let heap = heap_of(&rows, direction);
            let access = access_for(&heap);
            let plain = |pool| {
                SharedPageStreamSource::with_range(
                    pool,
                    &disk,
                    &heap,
                    HeapId(heap_no as u32 + 1),
                    &access,
                    0,
                    heap.page_count(),
                )
            };
            assert_rewound_pass_is_the_first_pass(plain, &cold);
            let sidecar = Arc::new(ScanSidecar::build(&heap).unwrap());
            // (conjuncts, projection, whether zone maps rule pages out)
            let cases = [
                (
                    vec![pred("x0", CmpOp::Ge, 300.0), pred("x0", CmpOp::Lt, 420.0)],
                    None,
                    true,
                ),
                (
                    vec![pred("x1", CmpOp::Ne, 3.0)],
                    Some(vec!["y".to_string(), "x0".to_string()]),
                    false,
                ),
            ];
            for (predicates, projection, prunes) in cases {
                let spec = ScanSpec {
                    predicates,
                    projection,
                };
                let bound = Arc::new(spec.bind(heap.schema()).unwrap());
                let expected: Vec<Vec<u16>> = rows
                    .chunks(heap.layout().capacity as usize)
                    .map(|page| {
                        let matching = page
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| bound.row_matches(*r));
                        matching.map(|(slot, _)| slot as u16).collect()
                    })
                    .collect();
                let survivors: usize = expected.iter().map(Vec::len).sum();
                let open = |pool| {
                    plain(pool).with_scan(ScanState {
                        sidecar: Arc::clone(&sidecar),
                        spec: Arc::clone(&bound),
                    })
                };
                assert_rewound_pass_is_the_first_pass(open, &cold);
                let mut streamed = open(&pool);
                let mut emitted = 0;
                while let Some(batch) = streamed.next_batch().unwrap() {
                    assert_eq!(batch.width(), bound.output_width(3));
                    emitted += batch.len();
                }
                let streamed = streamed.into_stats();
                assert_eq!(streamed.kept, expected, "{direction:?} {spec:?}");
                assert_eq!(emitted, survivors, "{direction:?} {spec:?}");
                assert_eq!(streamed.stats.tuples as usize, survivors);
                // A zone-pruned page is never fetched and records nothing.
                assert_eq!(streamed.stats.pages_skipped > 0, prunes, "{spec:?}");
                assert_eq!(
                    (streamed.stats.pages + streamed.stats.pages_skipped) as usize,
                    expected.len()
                );
                // Every fetched page is charged a decompression and the
                // full walk of its raw image, whichever path filtered it.
                let mut walk = 0;
                for p in (0..heap.page_count()).filter(|&p| bound.page_can_match(sidecar.zone(p))) {
                    let mut all = TupleBatch::new(3);
                    walk += access
                        .extract_page_into(heap.page_bytes(p).unwrap(), &mut all)
                        .unwrap();
                }
                assert_eq!(streamed.stats.strider_cycles, walk, "{spec:?}");
                assert_eq!(
                    streamed.stats.decompress_cycles,
                    streamed.stats.pages * dana_scan::decompress_cycles(page_size)
                );
            }
        }
    }

    /// A filtered gang's members, cut from its one scan's kept slots,
    /// stream exactly that scan's rows between them, in order and bit for
    /// bit, on every pass, and meter nothing. The cuts fall mid-page, at a
    /// page's end with a zone-pruned page next, and where the packed
    /// survivor table's pages put them. Pages reach the members as the
    /// sidecar's `CODEC_FOR` images (the extract half on the lanes) and,
    /// in a second pool, as `CODEC_RAW` images (the Striders keyed by
    /// slot).
    #[test]
    fn filtered_gang_members_stream_their_slices_of_one_scan() {
        let direction = TupleDirection::Ascending;
        let capacity = HeapFileBuilder::layout_for(&Schema::training(2), 8 * 1024, direction)
            .unwrap()
            .capacity as usize;
        // Every third page holds x1 = 10 only, which `x1 < 4` prunes; the
        // other pages keep four rows in five.
        let rows: Vec<[f32; 3]> = (0..capacity * 9 + 17)
            .map(|k| {
                let x1 = if (k / capacity) % 3 == 1 {
                    10.0
                } else {
                    (k % 5) as f32
                };
                [k as f32, x1, f32::from_bits(0x7fc0_0000 | k as u32)]
            })
            .collect();
        let heap = heap_of(&rows, direction);
        let access = access_for(&heap);
        let disk = DiskModel::ssd();
        let spec = ScanSpec {
            predicates: vec![Predicate {
                column: "x1".into(),
                op: CmpOp::Lt,
                value: 4.0,
            }],
            projection: Some(vec!["y".to_string(), "x0".to_string()]),
        };
        let state = ScanState {
            sidecar: Arc::new(ScanSidecar::build(&heap).unwrap()),
            spec: Arc::new(spec.bind(heap.schema()).unwrap()),
        };
        let (lanes, raw) = (pool_of(8 * 1024), pool_of(8 * 1024));
        for p in 0..heap.page_count() {
            let image = [&[dana_scan::CODEC_RAW][..], heap.page_bytes(p).unwrap()].concat();
            drop(raw.fetch_raw(PageId::new(HeapId(1).shadow(), p), &Arc::new(image), &disk));
        }
        let flat = |batches: Vec<(usize, Vec<u32>)>| -> Vec<u32> {
            batches.into_iter().flat_map(|(_, bits)| bits).collect()
        };
        let mut scans = Vec::new();
        for pool in [&lanes, &raw] {
            let open = |start, end| {
                SharedPageStreamSource::with_range(
                    pool,
                    &disk,
                    &heap,
                    HeapId(1),
                    &access,
                    start,
                    end,
                )
                .with_scan(state.clone())
            };
            let mut whole = open(0, heap.page_count());
            let rows_of_scan = flat(pass(&mut whole));
            let scan = whole.into_stats();
            let per_page: Vec<u64> = scan.kept.iter().map(|k| k.len() as u64).collect();
            assert!(per_page[1] == 0 && per_page[4] == 0, "{per_page:?}");
            let total: u64 = per_page.iter().sum();
            assert_eq!(total, scan.stats.tuples);
            let packed = crate::exec::packed_page_capacity(&heap, &state.spec).unwrap();
            let cuts = [
                vec![total],
                // Mid-page: page 0's survivors split between two members.
                vec![per_page[0] / 2, total - per_page[0] / 2],
                // At page 0's end; page 1 is zone-pruned.
                vec![
                    per_page[0],
                    per_page[2] + 3,
                    total - per_page[0] - per_page[2] - 3,
                ],
                dana_parallel::packed_tuple_splits(total, packed, 2),
                dana_parallel::packed_tuple_splits(total, packed, 4),
            ];
            for splits in cuts {
                let members = member_selections(&scan.kept, &splits);
                assert_eq!(members.len(), splits.len());
                let mut rows_of_members = Vec::new();
                for ((start, selection), &n) in members.into_iter().zip(&splits) {
                    // A member's range starts and ends on a page it reads.
                    assert!(!selection[0].is_empty() && !selection.last().unwrap().is_empty());
                    let end = start + selection.len() as u32;
                    let mut member = open(start, end).with_selection(selection);
                    assert_eq!(member.tuple_count_hint(), Some(n));
                    let first = pass(&mut member);
                    member.rewind().unwrap();
                    assert_eq!(pass(&mut member), first, "{splits:?}: a later pass");
                    rows_of_members.extend(flat(first));
                    let outcome = member.into_stats();
                    assert_eq!(outcome.stats.pages + outcome.stats.tuples, 0);
                    assert!(outcome.kept.is_empty() && outcome.io_seconds == 0.0);
                }
                assert!(rows_of_members == rows_of_scan, "{splits:?}");
            }
            assert_eq!(pool.held_frames(), 0);
            scans.push(rows_of_scan);
        }
        assert!(scans[0] == scans[1], "both codecs filter alike");
    }

    /// A pushdown scan that finds a page whose header says it holds no
    /// live tuples decompresses it but streams no row, keeps no slot,
    /// charges no walk, and releases the frame. The pages: a builder page
    /// with its count zeroed (stored raw: its line pointers disagree with
    /// its count), a one-tuple page's FOR image with its count zeroed
    /// (every lane has bit width 0, so the image still opens) and a truly
    /// empty page (stored raw).
    #[test]
    fn pushdown_scan_of_a_page_with_no_live_tuples_streams_nothing() {
        let heap_of = |rows: usize| {
            let schema = Schema::training(2);
            let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
            for k in 0..rows {
                b.insert(&Tuple::training(&[k as f32, 1.0], 0.5)).unwrap();
            }
            b.finish()
        };
        let heap = heap_of(50);
        let (layout, schema) = (heap.layout(), heap.schema());
        let access = AccessEngine::for_table(
            *layout,
            schema.clone(),
            AccessEngineConfig::new(2, Clock::FPGA_150MHZ, AxiLink::with_bandwidth(2.5e9)),
        );
        // `x0 != NaN` holds for every row: no zone map prunes the page.
        let spec = ScanSpec {
            predicates: vec![Predicate {
                column: "x0".into(),
                op: CmpOp::Ne,
                value: f32::NAN,
            }],
            projection: None,
        };
        let state = ScanState {
            sidecar: Arc::new(ScanSidecar::build(&heap).unwrap()),
            spec: Arc::new(spec.bind(schema).unwrap()),
        };
        let mut zeroed = heap.page_bytes(0).unwrap().to_vec();
        zeroed[16..18].fill(0);
        let one = heap_of(1);
        let mut for_zeroed = dana_scan::compress_page(one.page_bytes(0).unwrap(), layout, schema);
        for_zeroed[1 + 16..1 + 18].fill(0);
        let images = [
            dana_scan::compress_page(&zeroed, layout, schema),
            for_zeroed,
            dana_scan::compress_page(HeapPage::new(*layout).as_bytes(), layout, schema),
        ];
        assert_eq!(
            images.each_ref().map(|image| image[0]),
            [
                dana_scan::CODEC_RAW,
                dana_scan::CODEC_FOR,
                dana_scan::CODEC_RAW
            ]
        );
        for image in images {
            let pool = SharedBufferPool::with_shards(
                BufferPoolConfig {
                    pool_bytes: 1 << 20,
                    page_size: layout.page_size,
                },
                1,
            );
            let disk = DiskModel::instant();
            // The scan finds `image` in the pool as its page 0.
            drop(pool.fetch_raw(PageId::new(HeapId(1).shadow(), 0), &Arc::new(image), &disk));
            let mut scan =
                SharedPageStreamSource::with_range(&pool, &disk, &heap, HeapId(1), &access, 0, 1)
                    .with_scan(state.clone());
            assert!(scan.next_batch().unwrap().unwrap().is_empty());
            assert!(scan.next_batch().unwrap().is_none());
            let outcome = scan.into_stats();
            assert_eq!(outcome.kept, [Vec::<u16>::new()]);
            let stats = outcome.stats;
            assert_eq!((stats.pages, stats.tuples, stats.strider_cycles), (1, 0, 0));
            assert_eq!(stats.decompressed_bytes, layout.page_size as u64);
            assert_eq!(pool.held_frames(), 0);
        }
    }
}
