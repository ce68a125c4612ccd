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
//! What a source keeps depends on whether its statement reads it again.
//! Training does: epochs past the first (and a fault retry) replay the
//! extracted batches from an in-memory cache rather than re-driving the
//! Striders — the hardware would stream pages again, but its *per-epoch*
//! cost is identical, so the cost model charges extraction once and
//! [`crate::runtime::price`] multiplies per epoch, keeping the simulated
//! timing identical to the hardware schedule while the functional replay
//! stays cheap and deterministic. A training source therefore allocates
//! one batch per page and holds them all: O(pages) allocations, the
//! extracted table in memory. PREDICT, EVALUATE and SCORE read their scan
//! once, so `open_scan` opens their members
//! [`single_pass`](SharedPageStreamSource::single_pass): every page is
//! extracted into the same batch, cleared and refilled — one allocation and
//! one page of rows held, whatever the table's size — and a `rewind()`
//! after the scan has started is a typed error, not an empty replay.
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
//! page, which is decompressed and walked.

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

/// Streams a table page-by-page out of the [`SharedBufferPool`] as flat
/// batches, through `&self` fetches, so many queries can scan
/// simultaneously. Each page comes back as a
/// [`PageGuard`](dana_storage::PageGuard) over the image the pool lends
/// (the heap's page, or the sidecar's compressed one); a guard lives only
/// for the duration of its extraction, so the source never pins a frame
/// across engine compute.
///
/// Because the pool's statistics aggregate *every* concurrent query, this
/// source meters its own simulated I/O: the per-query `io_seconds` it
/// accumulates is the disk time of exactly the misses this scan caused.
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
    scan_done: bool,
    replay: usize,
    /// Every batch extracted so far, for replay — or, single-pass, the one
    /// batch every page is extracted into.
    cache: Vec<TupleBatch>,
    single_pass: bool,
    outcome: ScanOutcome,
    scan: Option<ScanState>,
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
            scan_done: false,
            replay: 0,
            cache: Vec::with_capacity((end_page - start_page) as usize),
            single_pass: false,
            outcome: ScanOutcome::default(),
            scan: None,
            lane_scratch: LaneScratch::default(),
        }
    }

    /// Opens the source for a statement that reads its scan exactly once
    /// (scoring — never training, whose later epochs and fault retries
    /// rewind): pages are extracted into one reused batch instead of a
    /// cached batch each, and the scan cannot be replayed.
    pub fn single_pass(mut self) -> SharedPageStreamSource<'a> {
        self.single_pass = true;
        self
    }

    /// Attaches a pushdown [`ScanState`] — see its docs for how it changes
    /// the data path.
    pub fn with_scan(mut self, scan: ScanState) -> SharedPageStreamSource<'a> {
        self.scan = Some(scan);
        self
    }

    /// What this query's first scan measured, as far as it got.
    pub fn into_stats(mut self) -> ScanOutcome {
        self.access.finish_stats(&mut self.outcome.stats);
        self.outcome
    }

    /// Completes the scan (if it has not finished) and dismantles the
    /// source into its extracted per-page batches and its outcome — how a
    /// *filtered* gang builds its replaying shard sources, since
    /// post-filter shard boundaries do not fall on source page boundaries.
    pub fn into_cache(mut self) -> Result<(Vec<TupleBatch>, ScanOutcome), SourceError> {
        if self.single_pass {
            return Err(SourceError(
                "a single-pass scan keeps one batch: it has no cache to hand over".into(),
            ));
        }
        self.rewind()?;
        let cache = std::mem::take(&mut self.cache);
        Ok((cache, self.into_stats()))
    }

    /// Returns `false` when the page was zone-pruned (no fetch, no batch).
    fn extract_next_page(&mut self, page_no: u32) -> Result<bool, SourceError> {
        if let Some(scan) = &self.scan {
            if !scan.spec.page_can_match(scan.sidecar.zone(page_no)) {
                self.outcome.stats.pages_skipped += 1;
                self.outcome.kept.push(Vec::new());
                return Ok(false);
            }
        }
        // Single-pass: the previous page's batch is this page's. The
        // caching path never looks at what it already holds.
        let reused = if self.single_pass {
            self.cache.pop()
        } else {
            None
        };
        let mut batch = match reused {
            Some(mut batch) => {
                batch.clear();
                batch
            }
            None => TupleBatch::with_capacity(self.width(), self.heap.layout().capacity as usize),
        };
        match &self.scan {
            None => {
                let (bytes, io) =
                    self.pool
                        .fetch(PageId::new(self.heap_id, page_no), self.heap, self.disk)?;
                self.outcome.io_seconds += io;
                self.outcome.stats.strider_cycles += self
                    .access
                    .extract_page_into(&bytes, &mut batch)
                    .map_err(|e| SourceError(e.to_string()))?;
                // The guard drops here, unpinning the frame — errors
                // included, so a corrupt page cannot leak a held frame.
            }
            Some(scan) => {
                // The sidecar's compressed image under the shadow id,
                // charged at compressed size; the guard unpins the frame
                // when this arm ends, errors included.
                let (bytes, io) = self.pool.fetch_raw(
                    PageId::new(self.heap_id.shadow(), page_no),
                    scan.sidecar.page(page_no),
                    self.disk,
                )?;
                self.outcome.io_seconds += io;
                let (layout, schema) = (self.heap.layout(), self.heap.schema());
                let lanes = ForPage::open(&bytes, layout, schema)
                    .map_err(|e| SourceError(e.to_string()))?;
                self.outcome.stats.decompress_cycles +=
                    dana_scan::decompress_cycles(layout.page_size);
                self.outcome.stats.decompressed_bytes += layout.page_size as u64;
                let mut kept = Vec::new();
                let cycles = match lanes.filter(|page| page.tuple_count() > 0) {
                    // Filtered on its lanes; the simulated clock still
                    // charges decompression and the full walk.
                    Some(page) => {
                        page.filter_into(&scan.spec, &mut batch, &mut kept, &mut self.lane_scratch);
                        self.access.canonical_page_cycles(page.tuple_count())
                    }
                    None => {
                        let raw = dana_scan::decompress_page(&bytes, layout, schema)
                            .map_err(|e| SourceError(e.to_string()))?;
                        // The predicate runs once per record, in slot
                        // order: the call count is the slot number.
                        let mut slot = 0u16;
                        self.access
                            .extract_page_filtered_into(
                                &raw,
                                &mut batch,
                                scan.spec.projection.as_deref(),
                                |row| {
                                    let keep = scan.spec.row_matches(row);
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
                self.outcome.stats.strider_cycles += cycles;
                self.outcome.kept.push(kept);
            }
        };
        self.outcome.stats.pages += 1;
        self.outcome.stats.tuples += batch.len() as u64;
        self.cache.push(batch);
        Ok(true)
    }
}

impl TupleSource for SharedPageStreamSource<'_> {
    fn width(&self) -> usize {
        match &self.scan {
            Some(s) => s.spec.output_width(self.heap.schema().len()),
            None => self.heap.schema().len(),
        }
    }

    fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError> {
        if self.scan_done {
            if self.replay >= self.cache.len() {
                return Ok(None);
            }
            self.replay += 1;
            return Ok(Some(&self.cache[self.replay - 1]));
        }
        loop {
            if self.next_page >= self.end_page {
                self.scan_done = true;
                self.replay = self.cache.len();
                return Ok(None);
            }
            let page_no = self.next_page;
            self.next_page += 1;
            // Zone-pruned pages push no batch; keep walking the range.
            if self.extract_next_page(page_no)? {
                break;
            }
        }
        Ok(Some(self.cache.last().expect("page just extracted")))
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        if self.single_pass {
            // Nothing read yet: the scan still starts where a rewind puts
            // it. After that the pages' batches are gone.
            if self.next_page == self.start_page {
                return Ok(());
            }
            return Err(SourceError(format!(
                "a single-pass scan cannot be rewound: PREDICT, EVALUATE and SCORE read \
                 their scan once and keep one batch ({} of pages {}..{} already streamed)",
                self.next_page - self.start_page,
                self.start_page,
                self.end_page
            )));
        }
        // A mid-scan rewind must still visit every page exactly once so
        // the access stats describe one full extraction pass.
        while !self.scan_done {
            if self.next_batch()?.is_none() {
                break;
            }
        }
        self.replay = 0;
        Ok(())
    }

    fn tuple_count_hint(&self) -> Option<u64> {
        match &self.scan {
            // Post-filter estimate off the zone maps; a sizing hint only.
            Some(s) => Some(s.spec.estimated_tuples(
                &s.sidecar.zones()[self.start_page as usize..self.end_page as usize],
            )),
            None => Some(
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

    /// A single-pass source is the caching source minus the cache: the
    /// same batches in the same order (bit for bit — the rows hold NaNs),
    /// the same counters, simulated I/O and kept slots, from one batch it
    /// clears and refills; and once it has streamed a page, a rewind is a
    /// typed error instead of an empty replay. Each gets a pool of its
    /// own, emptied first, so both scans run cold.
    fn assert_single_pass_is_the_caching_scan<'a>(
        open: impl Fn(&'a SharedBufferPool) -> SharedPageStreamSource<'a>,
        pools: &'a [SharedBufferPool; 2],
    ) {
        let bits = |b: &TupleBatch| -> (usize, Vec<u32>) {
            (
                b.width(),
                b.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        };
        pools.iter().for_each(SharedBufferPool::clear);
        let mut caching = open(&pools[0]);
        let mut once = open(&pools[1]).single_pass();
        once.rewind().expect("nothing streamed yet");
        let mut batches = 0;
        loop {
            let expected = caching.next_batch().unwrap().map(bits);
            let got = once.next_batch().unwrap().map(bits);
            assert_eq!(got, expected, "batch {batches}");
            assert!(
                once.cache.len() <= 1,
                "a single-pass source holds one batch"
            );
            if expected.is_none() {
                break;
            }
            batches += 1;
        }
        assert_eq!(caching.cache.len(), batches);
        assert!(once.next_batch().unwrap().is_none(), "no replay");
        let refused = once.rewind().unwrap_err();
        assert!(refused.0.contains("single-pass"), "{refused}");
        assert!(open(&pools[1]).single_pass().into_cache().is_err());
        let (caching, once) = (caching.into_stats(), once.into_stats());
        assert_eq!(once.stats, caching.stats);
        assert!(caching.io_seconds > 0.0, "both scans ran cold");
        assert_eq!(once.io_seconds.to_bits(), caching.io_seconds.to_bits());
        assert_eq!(once.kept, caching.kept);
    }

    /// The lists a pushdown scan records are exactly the slots whose rows
    /// match, page for page — for both placement directions, under a
    /// projection, across zone-pruned pages and a `!=` over NaN cells —
    /// whether the source is streamed to its end (a lone member) or
    /// drained at once (a filtered gang's one scan). The oracle is the
    /// row data itself, chunked at the page capacity. Every scan built
    /// here, and the unfiltered one, is also run single-pass against its
    /// caching twin.
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
        let new_pool = || {
            SharedBufferPool::with_shards(
                BufferPoolConfig {
                    pool_bytes: 1 << 20,
                    page_size: 8 * 1024,
                },
                2,
            )
        };
        let (pool, cold) = (new_pool(), [new_pool(), new_pool()]);
        let disk = DiskModel::ssd();
        let directions = [TupleDirection::Ascending, TupleDirection::Descending];
        for (heap_no, direction) in directions.into_iter().enumerate() {
            let mut b = HeapFileBuilder::new(Schema::training(2), 8 * 1024, direction).unwrap();
            for r in &rows {
                b.insert(&Tuple::training(&r[..2], r[2])).unwrap();
            }
            let heap = b.finish();
            let access = AccessEngine::for_table(
                *heap.layout(),
                heap.schema().clone(),
                AccessEngineConfig::new(2, Clock::FPGA_150MHZ, AxiLink::with_bandwidth(2.5e9)),
            );
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
            assert_single_pass_is_the_caching_scan(plain, &cold);
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
                assert_single_pass_is_the_caching_scan(open, &cold);
                let mut streamed = open(&pool);
                let mut emitted = 0;
                while let Some(batch) = streamed.next_batch().unwrap() {
                    assert_eq!(batch.width(), bound.output_width(3));
                    emitted += batch.len();
                }
                let streamed = streamed.into_stats();
                assert_eq!(streamed.kept, expected, "{direction:?} {spec:?}: streamed");
                assert_eq!(emitted, survivors, "{direction:?} {spec:?}");
                let (batches, drained) = open(&pool).into_cache().unwrap();
                assert_eq!(drained.kept, expected, "{direction:?} {spec:?}: drained");
                assert_eq!(drained.stats.tuples as usize, survivors);
                assert_eq!(
                    batches.iter().map(TupleBatch::len).sum::<usize>(),
                    survivors
                );
                // A zone-pruned page is never fetched and records nothing.
                assert_eq!(drained.stats.pages_skipped > 0, prunes, "{spec:?}");
                assert_eq!(
                    (drained.stats.pages + drained.stats.pages_skipped) as usize,
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
                assert_eq!(drained.stats.strider_cycles, walk, "{spec:?}");
                let page_size = heap.layout().page_size;
                assert_eq!(
                    drained.stats.decompress_cycles,
                    drained.stats.pages * dana_scan::decompress_cycles(page_size)
                );
            }
        }
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
                    .single_pass()
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
