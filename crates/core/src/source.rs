//! The buffer-pool-backed [`TupleSource`]: the staged streaming loop that
//! replaces full-table materialization on the query hot path.
//!
//! Fig. 2's execution flow interleaves, per page: disk → buffer pool
//! (misses only), pool → FPGA page streaming, Strider extraction, and
//! engine compute. [`SharedPageStreamSource`] realizes that schedule in the
//! simulator: each `next_batch` call fetches ONE page through the pool,
//! extracts it into a flat [`TupleBatch`] (via Striders or the CPU-deform
//! ablation — the Fig. 11 comparison is just a different [`ExecutionMode`]),
//! and hands the batch to the execution engine, which trains on it while
//! the source is ready to fetch the next page. Allocation is O(pages), not
//! O(tuples).
//!
//! Epochs past the first replay the extracted batches from an in-memory
//! cache rather than re-driving the Striders: the hardware would stream
//! pages again, but its *per-epoch* cost is identical, so the cost model
//! charges extraction once and [`crate::runtime::compose`] multiplies per
//! epoch — keeping the simulated timing identical to the hardware schedule
//! while the functional replay stays cheap and deterministic.

use std::sync::Arc;

use dana_scan::{BoundScanSpec, ScanSidecar};
use dana_storage::{
    DiskModel, HeapFile, HeapId, PageId, PageView, SharedBufferPool, SourceError, TupleBatch,
    TupleSource,
};
use dana_strider::{AccessEngine, AccessStats};

use crate::report::Seconds;
use crate::runtime::ExecutionMode;

/// Pushdown state for one scan: the table's compressed sidecar (shared out
/// of the catalog) plus the `WHERE`/`COLUMNS` spec bound to its schema.
/// Attaching this to a page source flips the whole data path:
/// pages stream *compressed* through the buffer pool (under the heap's
/// shadow id, charged at compressed size), are decompressed on fetch with
/// cycles charged to the access stats, zone-unmatchable pages are skipped
/// without a fetch, and surviving tuples are filtered/projected by the
/// Striders before the engine sees them — pushdown is a Strider-feed
/// path; `open_scan` refuses to pair it with a CPU-deform mode.
#[derive(Clone)]
pub struct ScanState {
    pub sidecar: Arc<ScanSidecar>,
    pub spec: Arc<BoundScanSpec>,
}

/// Streams a table page-by-page out of the [`SharedBufferPool`] as flat
/// batches, through `&self` fetches, so many queries can scan
/// simultaneously. Page bytes come back as `Arc<[u8]>` images; each is
/// held only for the duration of its extraction, so the source never pins
/// a frame across engine compute.
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
    /// How raw page bytes become engine-native f32 rows: on-chip Striders
    /// (full DAnA) or host-CPU deform (the Fig. 11 / TABLA ablations).
    mode: ExecutionMode,
    next_page: u32,
    /// One past the last page this source scans (a shard boundary for
    /// gang-parallel scans; `page_count` for a whole-table scan).
    end_page: u32,
    start_page: u32,
    scan_done: bool,
    replay: usize,
    cache: Vec<TupleBatch>,
    stats: AccessStats,
    io_seconds: Seconds,
    scan: Option<ScanState>,
}

impl<'a> SharedPageStreamSource<'a> {
    /// A source over the page range `[start_page, end_page)` — one shard
    /// of a gang-parallel scan. The shared pool's `&self` fetches let any
    /// number of shard sources stream simultaneously, each metering its
    /// own simulated I/O.
    #[allow(clippy::too_many_arguments)]
    pub fn with_range(
        pool: &'a SharedBufferPool,
        disk: &'a DiskModel,
        heap: &'a HeapFile,
        heap_id: HeapId,
        access: &'a AccessEngine,
        mode: ExecutionMode,
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
            mode,
            next_page: start_page,
            end_page,
            start_page,
            scan_done: false,
            replay: 0,
            cache: Vec::with_capacity((end_page - start_page) as usize),
            stats: AccessStats::default(),
            io_seconds: 0.0,
            scan: None,
        }
    }

    /// Attaches a pushdown [`ScanState`] — see its docs for how it changes
    /// the data path.
    pub fn with_scan(mut self, scan: ScanState) -> SharedPageStreamSource<'a> {
        self.scan = Some(scan);
        self
    }

    /// Extraction-pass counters plus the simulated disk seconds this
    /// query's first scan was charged.
    pub fn into_stats(self) -> (AccessStats, Seconds) {
        let mut stats = self.stats;
        self.access.finish_stats(&mut stats);
        (stats, self.io_seconds)
    }

    /// Completes the scan (if it has not finished) and dismantles the
    /// source into its extracted per-page batches, finished access stats,
    /// and metered I/O — how a *filtered* gang builds its replaying shard
    /// sources, since post-filter shard boundaries do not fall on source
    /// page boundaries.
    pub fn into_cache(mut self) -> Result<(Vec<TupleBatch>, AccessStats, Seconds), SourceError> {
        self.rewind()?;
        let mut stats = self.stats;
        self.access.finish_stats(&mut stats);
        Ok((self.cache, stats, self.io_seconds))
    }

    /// Returns `false` when the page was zone-pruned (no fetch, no batch).
    fn extract_next_page(&mut self, page_no: u32) -> Result<bool, SourceError> {
        if let Some(scan) = &self.scan {
            if !scan.spec.page_can_match(scan.sidecar.zone(page_no)) {
                self.stats.pages_skipped += 1;
                return Ok(false);
            }
        }
        let width = self.width();
        let mut batch = TupleBatch::with_capacity(width, self.heap.layout().capacity as usize);
        match &self.scan {
            None => {
                let (bytes, io) =
                    self.pool
                        .fetch(PageId::new(self.heap_id, page_no), self.heap, self.disk)?;
                self.io_seconds += io;
                if self.mode.uses_striders() {
                    self.stats.strider_cycles += self
                        .access
                        .extract_page_into(&bytes, &mut batch)
                        .map_err(|e| SourceError(e.to_string()))?;
                } else {
                    PageView::new(&bytes, *self.heap.layout())
                        .and_then(|view| view.deform_all_into(self.heap.schema(), &mut batch))
                        .map_err(SourceError::from)?;
                }
                // `bytes` drops here, releasing the frame hold — errors
                // included, so a corrupt page cannot leak a held frame.
            }
            Some(scan) => {
                // Compressed image under the shadow id, charged at
                // compressed size; the frame hold is released as soon as
                // the page is reconstructed.
                let (bytes, io) = self.pool.fetch_raw(
                    PageId::new(self.heap_id.shadow(), page_no),
                    scan.sidecar.page(page_no),
                    self.disk,
                )?;
                self.io_seconds += io;
                let raw =
                    dana_scan::decompress_page(&bytes, self.heap.layout(), self.heap.schema())
                        .map_err(|e| SourceError(e.to_string()))?;
                drop(bytes);
                self.stats.decompress_cycles += dana_scan::decompress_cycles(raw.len());
                self.stats.decompressed_bytes += raw.len() as u64;
                self.stats.strider_cycles += self
                    .access
                    .extract_page_filtered_into(
                        &raw,
                        &mut batch,
                        scan.spec.projection.as_deref(),
                        |row| scan.spec.row_matches(row),
                    )
                    .map_err(|e| SourceError(e.to_string()))?;
            }
        };
        self.stats.pages += 1;
        self.stats.tuples += batch.len() as u64;
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
