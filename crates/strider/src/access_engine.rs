//! The multi-Strider access engine (Fig. 5).
//!
//! "Training data is written to multiple page buffers, where each buffer
//! stores one database page at a time and has access to its personal
//! Strider. ... we store multiple pages on the FPGA and parallelize data
//! extraction from the pages across their corresponding Striders." (§5.1.1)
//!
//! The engine couples three cost sources the runtime later overlaps:
//! AXI streaming of raw pages, Strider cycles (parallel across page
//! buffers), and the float-conversion unit that turns extracted column
//! bytes into the execution engine's f32 operands ("transform user data
//! into a floating point format", §6.2).
//!
//! The page walk is the generated Strider program's, evaluated in closed
//! form ([`walk_page`]): the compiler fixes the program at deploy, so
//! nothing is interpreted per tuple at run time. The walk bounds-checks
//! the whole page before any row is appended and charges exactly the
//! cycles the interpreter would; [`crate::reference`] runs the interpreter
//! itself, and the tests hold the two equal page for page.
//!
//! The conversion is the storage crate's: [`AccessEngine::for_table`]
//! resolves the schema once into a [`RowDecoder`], and each record is
//! decoded straight from the page frame into the batch — which mirrors how
//! the hardware streams converted values straight to the execution
//! engine's input buffers (§6.2). The batch and filtered extraction paths
//! decode through that one routine, so they are bit-identical by
//! construction.

use dana_fpga::{AxiLink, Clock, Seconds};
use dana_storage::{HeapFile, PageLayoutDesc, RowDecoder, Schema, TupleBatch};

use crate::codegen::{estimated_cycles_per_page, walk_page, PageWalk};
use crate::error::StriderResult;

/// Sizing and timing configuration for the access engine.
#[derive(Debug, Clone, Copy)]
pub struct AccessEngineConfig {
    /// Number of page buffers (= Striders) the hardware generator allotted.
    pub num_striders: u32,
    /// FPGA clock for cycle→seconds conversion.
    pub clock: Clock,
    /// Host→FPGA link for page streaming.
    pub axi: AxiLink,
}

impl AccessEngineConfig {
    pub fn new(num_striders: u32, clock: Clock, axi: AxiLink) -> AccessEngineConfig {
        assert!(num_striders >= 1, "need at least one Strider");
        AccessEngineConfig {
            num_striders,
            clock,
            axi,
        }
    }
}

/// Aggregate costs of one extraction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessStats {
    pub pages: u64,
    pub tuples: u64,
    /// AXI streaming time (pages pipelined back-to-back).
    pub axi_seconds: Seconds,
    /// Total Strider cycles across all pages, float conversion included
    /// (before dividing across parallel Striders).
    pub strider_cycles: u64,
    /// Page-decompression cycles spent upstream of the Striders (the scan
    /// tier's codec). Zero on raw-page scans; charged by the page sources
    /// when frames are cached compressed.
    pub decompress_cycles: u64,
    /// Reconstructed page bytes the decompressor produced (the numerator
    /// of `SHOW STATS ('scan')`'s bytes-decompressed gauge).
    pub decompressed_bytes: u64,
    /// Pages a pushdown scan proved unmatchable from their zone maps and
    /// never fetched. Excluded from `pages`.
    pub pages_skipped: u64,
}

/// The access engine for one table's layout + schema.
pub struct AccessEngine {
    config: AccessEngineConfig,
    layout: PageLayoutDesc,
    decoder: RowDecoder,
}

impl AccessEngine {
    /// Builds the engine for a table: the page layout fixes the Strider
    /// program (the deployment-time compiler step) and the schema the
    /// float conversion.
    pub fn for_table(
        layout: PageLayoutDesc,
        schema: Schema,
        config: AccessEngineConfig,
    ) -> AccessEngine {
        AccessEngine {
            config,
            decoder: RowDecoder::new(&schema),
            layout,
        }
    }

    pub fn layout(&self) -> &PageLayoutDesc {
        &self.layout
    }

    pub fn decoder(&self) -> &RowDecoder {
        &self.decoder
    }

    /// Extracts every tuple from one raw page image into `batch` (appended
    /// in slot order), returning the Strider cycles spent (extraction +
    /// float conversion). This is the hot path: the page is walked and
    /// bounds-checked whole, then every record is decoded from the frame
    /// into one bulk append, with no per-tuple allocation and no per-cell
    /// dispatch. On error nothing is appended.
    ///
    /// Pages with no live tuples are skipped host-side — the DMA engine
    /// never ships them (heap builders also never produce them): no rows,
    /// no cycles.
    pub fn extract_page_into(&self, page: &[u8], batch: &mut TupleBatch) -> StriderResult<u64> {
        let walk = walk_page(&self.layout, page)?;
        let rows = batch.append_rows(walk.len()).chunks_exact_mut(self.width());
        for (record, row) in walk.records().zip(rows) {
            self.decoder.decode_records(record, self.stride(), row);
        }
        Ok(self.walk_cycles(&walk))
    }

    /// What [`AccessEngine::extract_page_into`] returns for a canonical
    /// builder-layout page of `tuples ≥ 1` live tuples: the generated walk
    /// plus one conversion cycle per value. A pushdown scan that filters a
    /// compressed page on its lanes charges this for the walk it skipped.
    pub fn canonical_page_cycles(&self, tuples: u16) -> u64 {
        estimated_cycles_per_page(&self.layout, tuples as u64)
            + self.conversion_cycles(tuples as usize)
    }

    /// Filtered/projected variant of [`AccessEngine::extract_page_into`]:
    /// every tuple is still walked and float-converted (the Striders and
    /// conversion unit do full-width work — pushdown saves *downstream*
    /// tuples, not extraction cycles on a matched page), but only rows
    /// passing `keep` reach `batch`, and only the columns in `projection`
    /// (schema order; `None` = all). The batch's width must equal the
    /// projected width. A pushdown scan takes this path for `CODEC_RAW`
    /// and empty pages only; it filters a `CODEC_FOR` page on its lanes
    /// (`dana_scan::ForPage::filter_into`).
    ///
    /// `keep` is called once per record, in slot order, with the full-width
    /// row in schema order — a caller counting its calls knows which slots
    /// survived (the page source records them for PREDICT's materializer).
    pub fn extract_page_filtered_into(
        &self,
        page: &[u8],
        batch: &mut TupleBatch,
        projection: Option<&[usize]>,
        mut keep: impl FnMut(&[f32]) -> bool,
    ) -> StriderResult<u64> {
        let walk = walk_page(&self.layout, page)?;
        let mut row = vec![0f32; self.width()];
        for record in walk.records() {
            self.decoder.decode_records(record, self.stride(), &mut row);
            if !keep(&row) {
                continue;
            }
            match projection {
                Some(cols) => {
                    let mut out = batch.start_row();
                    for &c in cols {
                        out.push(row[c]);
                    }
                    out.finish();
                }
                None => batch.push_row(&row),
            }
        }
        Ok(self.walk_cycles(&walk))
    }

    /// Values per extracted row (the schema's column count).
    pub(crate) fn width(&self) -> usize {
        self.decoder.columns().len()
    }

    /// Bytes per cleansed record in the output FIFO.
    fn stride(&self) -> usize {
        self.layout.tuple_data_bytes()
    }

    /// A walked page's charge: the walk, and one conversion cycle per
    /// value it emitted.
    fn walk_cycles(&self, walk: &PageWalk) -> u64 {
        walk.cycles() + self.conversion_cycles(walk.len())
    }

    /// The float-conversion unit's charge: one cycle per column value.
    pub(crate) fn conversion_cycles(&self, records: usize) -> u64 {
        records as u64 * self.width() as u64
    }

    /// Extracts an entire heap file into one flat batch, producing tuples
    /// in page/slot order and the aggregate access-engine cost model.
    pub fn extract_heap(&self, heap: &HeapFile) -> StriderResult<(TupleBatch, AccessStats)> {
        let mut all = TupleBatch::with_capacity(self.width(), heap.tuple_count() as usize);
        let mut stats = AccessStats::default();
        for p in 0..heap.page_count() {
            let page = heap.page_bytes(p).expect("page in range");
            let before = all.len();
            let cycles = self.extract_page_into(page, &mut all)?;
            stats.pages += 1;
            stats.tuples += (all.len() - before) as u64;
            stats.strider_cycles += cycles;
        }
        self.finish_stats(&mut stats);
        Ok((all, stats))
    }

    /// Completes an extraction pass's counters from its raw ones (pages,
    /// tuples, strider cycles): the AXI time of streaming its pages. What
    /// the pass costs is `dana::runtime::price`'s to say.
    pub fn finish_stats(&self, stats: &mut AccessStats) {
        let page_bytes = self.layout.page_size as u64;
        stats.axi_seconds = self
            .config
            .axi
            .stream_time(stats.pages * page_bytes, page_bytes);
    }
}

#[cfg(test)]
mod tests;
