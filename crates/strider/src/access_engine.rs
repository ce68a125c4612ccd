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
//! The conversion is the storage crate's: [`AccessEngine::for_table`]
//! resolves the schema once into a [`RowDecoder`], and each page's output
//! FIFO is checked once and then decoded in bulk, whole rows at a time,
//! straight into the batch — which mirrors how the hardware streams
//! converted values straight to the execution engine's input buffers
//! (§6.2). The batch, filtered and reference extraction paths all decode
//! through that one routine, so they are bit-identical by construction.
//! The page walk itself is the generated Strider program's.

use dana_fpga::{AxiLink, Clock, Seconds};
use dana_storage::{HeapFile, PageLayoutDesc, RowDecoder, Schema, TupleBatch};

use crate::codegen::strider_program_for_layout;
use crate::error::{StriderError, StriderResult};
use crate::machine::{StriderMachine, StriderRun};

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

/// One extracted, cleansed, float-converted training tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedTuple {
    /// All column values in schema order, as the engine's native f32.
    pub values: Vec<f32>,
}

impl ExtractedTuple {
    /// Splits a training-schema tuple into (features, label).
    pub fn as_training(&self) -> (&[f32], f32) {
        let n = self.values.len();
        (&self.values[..n - 1], self.values[n - 1])
    }
}

/// Aggregate costs of one extraction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessStats {
    pub pages: u64,
    pub tuples: u64,
    /// Raw page bytes that crossed the AXI link.
    pub bytes_transferred: u64,
    /// AXI streaming time (pages pipelined back-to-back).
    pub axi_seconds: Seconds,
    /// Total Strider cycles across all pages (before dividing across
    /// parallel Striders).
    pub strider_cycles: u64,
    /// Float-conversion cycles (one per extracted column value).
    pub conversion_cycles: u64,
    /// Page-decompression cycles spent upstream of the Striders (the scan
    /// tier's codec). Zero on raw-page scans; charged by the page sources
    /// when frames are cached compressed.
    pub decompress_cycles: u64,
    /// Reconstructed page bytes the decompressor produced (the numerator
    /// of `SHOW STATS ('scan')`'s bytes-decompressed gauge).
    pub decompressed_bytes: u64,
    /// Pages a pushdown scan proved unmatchable from their zone maps and
    /// never fetched. Excluded from `pages`/`bytes_transferred`.
    pub pages_skipped: u64,
    /// Wall-clock seconds for the access engine with `num_striders`-way
    /// parallel extraction overlapped against AXI streaming.
    pub access_seconds: Seconds,
}

/// The access engine for one table's layout + schema.
pub struct AccessEngine {
    config: AccessEngineConfig,
    machine: StriderMachine,
    layout: PageLayoutDesc,
    decoder: RowDecoder,
}

impl AccessEngine {
    /// Builds the engine for a table: generates the Strider program for the
    /// table's page layout (the deployment-time compiler step).
    pub fn for_table(
        layout: PageLayoutDesc,
        schema: Schema,
        config: AccessEngineConfig,
    ) -> AccessEngine {
        let (program, regs) = strider_program_for_layout(&layout);
        AccessEngine {
            config,
            machine: StriderMachine::new(program, regs),
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
    /// float conversion). This is the hot path: the page's records are
    /// checked once and decoded in one bulk append, with no per-tuple
    /// allocation and no per-cell dispatch.
    ///
    /// Pages with no live tuples are skipped host-side — the DMA engine
    /// never ships them (heap builders also never produce them).
    pub fn extract_page_into(&self, page: &[u8], batch: &mut TupleBatch) -> StriderResult<u64> {
        let run = self.machine.run(page)?;
        let (n, records, malformed) = self.checked_records(&run);
        self.decoder
            .decode_records(records, self.stride(), batch.append_rows(n));
        malformed?;
        Ok(run.cycles + self.conversion_cycles(n))
    }

    /// Filtered/projected variant of [`AccessEngine::extract_page_into`]:
    /// every tuple is still walked and float-converted (the Striders and
    /// conversion unit do full-width work — pushdown saves *downstream*
    /// tuples, not extraction cycles on a matched page), but only rows
    /// passing `keep` reach `batch`, and only the columns in `projection`
    /// (schema order; `None` = all). The batch's width must equal the
    /// projected width.
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
        let run = self.machine.run(page)?;
        let (n, full, malformed) = self.decoded_rows(&run);
        let width = self.width();
        for row in (0..n).map(|i| &full[i * width..(i + 1) * width]) {
            if !keep(row) {
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
                None => batch.push_row(row),
            }
        }
        malformed?;
        Ok(run.cycles + self.conversion_cycles(n))
    }

    /// Reference per-tuple extraction path, retained for differential
    /// testing of the batch pipeline (and for callers that want row
    /// objects). Allocates one `Vec<f32>` per tuple — never used on the
    /// deploy/execute hot path.
    pub fn extract_page_rows(&self, page: &[u8]) -> StriderResult<(Vec<ExtractedTuple>, u64)> {
        let run = self.machine.run(page)?;
        let (n, full, malformed) = self.decoded_rows(&run);
        malformed?;
        let width = self.width();
        let tuples = (0..n)
            .map(|i| ExtractedTuple {
                values: full[i * width..(i + 1) * width].to_vec(),
            })
            .collect();
        Ok((tuples, run.cycles + self.conversion_cycles(n)))
    }

    /// The once-per-page check of a run's output FIFO: the leading records
    /// of exactly the layout's user-data width (count and bytes), and the
    /// error for the first record that is not — none for a well-formed
    /// page, where the FIFO is `n × tuple_data_bytes`.
    fn checked_records<'r>(&self, run: &'r StriderRun) -> (usize, &'r [u8], StriderResult<()>) {
        let expected = self.stride();
        let (n, records) = run.fixed_width_prefix(expected);
        let malformed = if n < run.len() {
            Err(StriderError::BadTupleBytes(format!(
                "record is {} bytes, schema expects {expected}",
                run.record(n).len()
            )))
        } else {
            Ok(())
        };
        (n, records, malformed)
    }

    /// [`AccessEngine::checked_records`], decoded full-width into one
    /// row-major buffer of the page's own (allocated per page, never per
    /// record).
    fn decoded_rows(&self, run: &StriderRun) -> (usize, Vec<f32>, StriderResult<()>) {
        let (n, records, malformed) = self.checked_records(run);
        let mut full = vec![0f32; n * self.width()];
        self.decoder
            .decode_records(records, self.stride(), &mut full);
        (n, full, malformed)
    }

    /// Values per extracted row (the schema's column count).
    fn width(&self) -> usize {
        self.decoder.columns().len()
    }

    /// Bytes per cleansed record in the output FIFO.
    fn stride(&self) -> usize {
        self.layout.tuple_data_bytes()
    }

    /// The float-conversion unit's charge: one cycle per column value.
    fn conversion_cycles(&self, records: usize) -> u64 {
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

    /// Completes an extraction pass's cost model from its raw counters
    /// (pages, tuples, strider cycles): bytes shipped, AXI streaming time,
    /// conversion cycles, and the overlapped wall-clock cost.
    pub fn finish_stats(&self, stats: &mut AccessStats) {
        stats.bytes_transferred = stats.pages * self.layout.page_size as u64;
        stats.conversion_cycles = stats.tuples * self.width() as u64;
        stats.axi_seconds = self
            .config
            .axi
            .stream_time(stats.bytes_transferred, self.layout.page_size as u64);
        stats.access_seconds = self.access_seconds(stats);
    }

    /// Computes the engine's wall-clock cost: Strider work spreads across
    /// `num_striders` parallel units and overlaps with AXI streaming; the
    /// slower of the two dominates, plus one page of pipeline fill.
    pub fn access_seconds(&self, stats: &AccessStats) -> Seconds {
        if stats.pages == 0 {
            return 0.0;
        }
        let parallel_cycles = stats
            .strider_cycles
            .div_ceil(self.config.num_striders as u64);
        let strider_seconds = self.config.clock.to_seconds(parallel_cycles);
        let fill = self.config.axi.burst_time(self.layout.page_size as u64);
        stats.axi_seconds.max(strider_seconds) + fill
    }

    pub fn config(&self) -> &AccessEngineConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_storage::page::TupleDirection;
    use dana_storage::{ColumnType, Datum, HeapFileBuilder, Tuple};

    fn heap_of(
        schema: Schema,
        direction: TupleDirection,
        tuples: impl Iterator<Item = Tuple>,
    ) -> HeapFile {
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, direction).unwrap();
        for t in tuples {
            b.insert(&t).unwrap();
        }
        b.finish()
    }

    fn training_tuples(n: usize, features: usize) -> impl Iterator<Item = Tuple> {
        (0..n).map(move |k| {
            let feats: Vec<f32> = (0..features).map(|i| (k + i) as f32 * 0.5).collect();
            Tuple::training(&feats, -(k as f32))
        })
    }

    fn heap_with(n: usize, features: usize) -> HeapFile {
        heap_of(
            Schema::training(features),
            TupleDirection::Ascending,
            training_tuples(n, features),
        )
    }

    fn engine_for(heap: &HeapFile, striders: u32) -> AccessEngine {
        AccessEngine::for_table(
            *heap.layout(),
            heap.schema().clone(),
            AccessEngineConfig::new(striders, Clock::FPGA_150MHZ, AxiLink::with_bandwidth(2.5e9)),
        )
    }

    #[test]
    fn extracted_tuples_match_cpu_scan() {
        let heap = heap_with(500, 12);
        let engine = engine_for(&heap, 4);
        let (batch, stats) = engine.extract_heap(&heap).unwrap();
        assert_eq!(batch.len(), 500);
        assert_eq!(batch.width(), 13);
        assert_eq!(stats.tuples, 500);
        for (ext, cpu) in batch.rows().zip(heap.scan()) {
            let cpu_vals: Vec<f32> = cpu.values.iter().map(|d| d.as_f32()).collect();
            assert_eq!(ext, &cpu_vals[..]);
        }
    }

    /// Heaps whose schemas take every route through the row decoder: the
    /// all-`Float4` fast path, `Schema::rating()`, and all four types mixed.
    fn heaps_of_every_shape(direction: TupleDirection) -> Vec<HeapFile> {
        let mixed = Schema::new(
            [
                ColumnType::Float8,
                ColumnType::Int8,
                ColumnType::Int4,
                ColumnType::Float4,
            ]
            .into_iter()
            .enumerate()
            .map(|(i, ty)| (format!("c{i}"), ty))
            .collect(),
        );
        vec![
            heap_of(Schema::training(7), direction, training_tuples(200, 7)),
            heap_of(
                Schema::rating(),
                direction,
                (0..1500).map(|k| Tuple::rating(k % 37, -(k % 11), k as f32 * 0.25 - 3.0)),
            ),
            heap_of(
                mixed,
                direction,
                (0..700i64).map(|k| {
                    Tuple::new(vec![
                        Datum::Float8(k as f64 * 1e-3 + 0.1),
                        Datum::Int8(k * 1_000_003 - 5),
                        Datum::Int4(7 - k as i32),
                        Datum::Float4(k as f32 * -0.75),
                    ])
                }),
            ),
        ]
    }

    #[test]
    fn batch_path_matches_reference_rows_path() {
        for direction in [TupleDirection::Ascending, TupleDirection::Descending] {
            for heap in heaps_of_every_shape(direction) {
                let engine = engine_for(&heap, 2);
                let label = format!("{:?}, {direction:?}", heap.schema().columns()[0].ty);
                assert!(heap.page_count() > 1, "{label}: want a partial last page");
                // Values and cycles equal the rows reference page for page
                // (and, independently of the bulk kernels, the CPU deform).
                let mut cpu = heap.scan();
                for p in 0..heap.page_count() {
                    let page = heap.page_bytes(p).unwrap();
                    let (rows, ref_cycles) = engine.extract_page_rows(page).unwrap();
                    let mut batch = TupleBatch::new(heap.schema().len());
                    let cycles = engine.extract_page_into(page, &mut batch).unwrap();
                    assert_eq!(cycles, ref_cycles, "{label}: page {p} cycles");
                    assert_eq!(batch.len(), rows.len(), "{label}: page {p}");
                    for (got, want) in batch.rows().zip(&rows) {
                        assert_eq!(got, &want.values[..], "{label}: page {p}");
                        let cpu: Vec<f32> = cpu
                            .next()
                            .unwrap()
                            .values
                            .iter()
                            .map(Datum::as_f32)
                            .collect();
                        assert_eq!(got, &cpu[..], "{label}: page {p} vs CPU deform");
                    }
                }
                assert!(cpu.next().is_none());
            }
        }
    }

    #[test]
    fn unfiltered_filtered_extraction_equals_plain_extraction() {
        for heap in heaps_of_every_shape(TupleDirection::Ascending) {
            let engine = engine_for(&heap, 2);
            for p in 0..heap.page_count() {
                let page = heap.page_bytes(p).unwrap();
                let mut plain = TupleBatch::new(heap.schema().len());
                let plain_cycles = engine.extract_page_into(page, &mut plain).unwrap();
                let mut filtered = TupleBatch::new(heap.schema().len());
                let cycles = engine
                    .extract_page_filtered_into(page, &mut filtered, None, |_| true)
                    .unwrap();
                assert_eq!(filtered, plain);
                assert_eq!(cycles, plain_cycles);
            }
        }
    }

    /// A program emitting one short record: every path reports that record
    /// and the batch keeps exactly the whole rows before it.
    #[test]
    fn short_record_is_a_typed_error_and_leaves_no_partial_row() {
        let heap = heap_with(3, 1);
        let program = crate::asm::assemble(
            "readB 0, 8, %t0\nwriteB 0, 0, 0\n\
             readB 8, 8, %t0\nwriteB 0, 0, 0\n\
             readB 16, 4, %t0\nwriteB 0, 0, 0\n\
             readB 16, 8, %t0\nwriteB 0, 0, 0\n",
        )
        .unwrap();
        let engine = AccessEngine {
            machine: StriderMachine::new(program, [0; 16]),
            ..engine_for(&heap, 1)
        };
        let page: Vec<u8> = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let expected =
            StriderError::BadTupleBytes("record is 4 bytes, schema expects 8".to_string());

        let mut batch = TupleBatch::from_rows(2, [[9.0, 9.0]]);
        let err = engine.extract_page_into(&page, &mut batch).unwrap_err();
        assert_eq!(err, expected);
        assert_eq!(batch.as_slice(), &[9.0, 9.0, 1.0, 2.0, 3.0, 4.0]);

        let mut batch = TupleBatch::new(2);
        let err = engine
            .extract_page_filtered_into(&page, &mut batch, None, |row| row[0] > 2.0)
            .unwrap_err();
        assert_eq!(err, expected);
        assert_eq!(batch.as_slice(), &[3.0, 4.0]);

        let err = engine.extract_page_rows(&page).unwrap_err();
        assert_eq!(err, expected);
    }

    #[test]
    fn training_split_puts_label_last() {
        let heap = heap_with(3, 4);
        let engine = engine_for(&heap, 1);
        let (tuples, _) = engine
            .extract_page_rows(heap.page_bytes(0).unwrap())
            .unwrap();
        let (x, y) = tuples[2].as_training();
        assert_eq!(x.len(), 4);
        assert_eq!(y, -2.0);
    }

    #[test]
    fn rating_schema_converts_ints() {
        let schema = Schema::rating();
        let mut b =
            HeapFileBuilder::new(schema.clone(), 8 * 1024, TupleDirection::Ascending).unwrap();
        b.insert(&Tuple::rating(42, 99, 3.5)).unwrap();
        let heap = b.finish();
        let engine = engine_for(&heap, 1);
        let (batch, _) = engine.extract_heap(&heap).unwrap();
        assert_eq!(batch.row(0), &[42.0, 99.0, 3.5]);
    }

    #[test]
    fn more_striders_reduce_access_time() {
        let heap = heap_with(3000, 16);
        let one = engine_for(&heap, 1);
        let eight = engine_for(&heap, 8);
        let (_, s1) = one.extract_heap(&heap).unwrap();
        let (_, s8) = eight.extract_heap(&heap).unwrap();
        assert_eq!(s1.strider_cycles, s8.strider_cycles, "same total work");
        assert!(
            s8.access_seconds < s1.access_seconds,
            "parallel striders must cut wall time ({} vs {})",
            s8.access_seconds,
            s1.access_seconds
        );
    }

    #[test]
    fn access_time_is_bounded_below_by_axi() {
        let heap = heap_with(2000, 16);
        // Absurdly many striders: AXI must become the floor.
        let engine = engine_for(&heap, 1024);
        let (_, stats) = engine.extract_heap(&heap).unwrap();
        assert!(stats.access_seconds >= stats.axi_seconds);
    }

    #[test]
    fn conversion_cycles_count_every_value() {
        let heap = heap_with(10, 6);
        let engine = engine_for(&heap, 1);
        let (_, stats) = engine.extract_heap(&heap).unwrap();
        assert_eq!(stats.conversion_cycles, 10 * 7); // 6 features + label
    }

    #[test]
    fn empty_heap_costs_nothing() {
        let schema = Schema::training(4);
        let heap = HeapFileBuilder::new(schema.clone(), 8 * 1024, TupleDirection::Ascending)
            .unwrap()
            .finish();
        let engine = engine_for(&heap, 2);
        let (batch, stats) = engine.extract_heap(&heap).unwrap();
        assert!(batch.is_empty());
        assert_eq!(stats.access_seconds, 0.0);
    }
}
