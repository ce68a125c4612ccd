//! Strider code generation: page layout → extraction program.
//!
//! "The compiler converts the database page configuration into a set of
//! Strider instructions that process the page and tuple headers" (§6.2).
//! Given a [`PageLayoutDesc`], this module emits the walk loop and the
//! configuration-register image the access engine loads before execution.
//!
//! The generated program mirrors the paper's §5.1.2 listing: process the
//! page header, read the first tuple pointer, then loop — stage one tuple,
//! `cln` its header, emit the user data, advance by the tuple stride — until
//! the live tuple count is exhausted. Ascending layouts advance with `ad`,
//! descending (PostgreSQL-style) with `sub`: the same ISA "can be targeted"
//! at "variations in the database page organization" (§1).
//!
//! The program is the same dozen instructions for every layout, so its run
//! over a page has a closed form, [`walk_page`]: two header reads, then the
//! tuple offsets as arithmetic over the live count, the first tuple read
//! past the page's end found before any record is handed out, and the
//! cycles from [`estimated_cycles_per_page`]. That is what extraction runs;
//! [`StriderMachine`](crate::machine::StriderMachine) interpreting the
//! program is the oracle it is held to, record for record, error for error
//! and cycle for cycle.

use dana_storage::page::TupleDirection;
use dana_storage::PageLayoutDesc;

use crate::error::{StriderError, StriderResult};
use crate::isa::{config_regs, Instr, Opcode, Operand, Reg};
use crate::machine::{le_int, range_end};

/// Builds the extraction program and configuration-register image for a
/// page layout. Returns `(program, config)`.
///
/// Register conventions inside the program:
/// * `%t0` — current tuple offset;
/// * `%t1` — live tuple count (from the page header);
/// * `%t2` — scratch (first line pointer);
/// * `%t3` — loop index;
/// * `%t4` — staging integer view (unused scalar).
#[allow(clippy::vec_init_then_push)] // instruction-by-instruction listing reads best
pub fn strider_program_for_layout(layout: &PageLayoutDesc) -> (Vec<Instr>, [u64; 16]) {
    let mut config = [0u64; 16];
    config[config_regs::PAGE_SIZE.0 as usize] = layout.page_size as u64;
    config[config_regs::TUPLES_PER_PAGE.0 as usize] = layout.capacity as u64;
    config[config_regs::TUPLE_BYTES.0 as usize] = layout.tuple_bytes as u64;
    config[config_regs::DATA_START.0 as usize] = layout.data_start() as u64;
    config[config_regs::SPECIAL_START.0 as usize] = layout.special_start() as u64;
    config[config_regs::TUPLE_HEADER.0 as usize] = layout.tuple_header_bytes as u64;

    let imm = Operand::Imm;
    let r = |reg: Reg| Operand::Reg(reg);
    let t = |i: u8| Operand::Reg(Reg::t(i));

    let mut prog = Vec::new();
    // ---- page header processing --------------------------------------
    // live tuple count lives at header offset 16 (page.rs layout).
    prog.push(Instr::new(Opcode::ReadB, imm(16), imm(2), t(1)));
    // first line pointer: offset u16 | length u16 at the header's end (24).
    prog.push(Instr::new(Opcode::ReadB, imm(24), imm(4), t(2)));
    prog.push(Instr::new(Opcode::ExtrB, imm(0), imm(2), t(2)));
    // current offset := first tuple offset; index := 0.
    prog.push(Instr::new(Opcode::Ad, t(2), imm(0), t(0)));
    prog.push(Instr::new(Opcode::Ad, imm(0), imm(0), t(3)));
    // ---- tuple walk loop ----------------------------------------------
    prog.push(Instr::bentr());
    // stage one tuple (header + data).
    prog.push(Instr::new(
        Opcode::ReadB,
        t(0),
        r(config_regs::TUPLE_BYTES),
        t(4),
    ));
    // strip the tuple header ("remove its auxiliary information").
    prog.push(Instr::new(
        Opcode::Cln,
        imm(0),
        r(config_regs::TUPLE_HEADER),
        imm(0),
    ));
    // emit cleansed user data to the execution engine.
    prog.push(Instr::new(Opcode::WriteB, imm(0), imm(0), imm(0)));
    // advance to the next tuple.
    let step = match layout.direction {
        TupleDirection::Ascending => {
            Instr::new(Opcode::Ad, t(0), r(config_regs::TUPLE_BYTES), t(0))
        }
        TupleDirection::Descending => {
            Instr::new(Opcode::Sub, t(0), r(config_regs::TUPLE_BYTES), t(0))
        }
    };
    prog.push(step);
    prog.push(Instr::new(Opcode::Ad, t(3), imm(1), t(3)));
    // exit when index ≥ live count.
    prog.push(Instr::new(Opcode::Bexit, imm(1), t(3), t(1)));
    (prog, config)
}

/// Static cycle estimate for extracting one page holding `tuples` tuples —
/// used by the hardware generator's performance estimator without running
/// the interpreter, and what [`walk_page`] charges. Matches
/// [`crate::machine::StriderMachine`]'s cycle accounting exactly (tests
/// enforce this).
pub fn estimated_cycles_per_page(layout: &PageLayoutDesc, tuples: u64) -> u64 {
    estimated_scan_cycles(layout, 1, tuples)
}

/// [`estimated_cycles_per_page`] summed over `pages` pages that hold
/// `tuples` in all, each at least one: the walk is affine in a page's
/// tuple count, so a ragged last page needs no case of its own.
pub fn estimated_scan_cycles(layout: &PageLayoutDesc, pages: u64, tuples: u64) -> u64 {
    // Header processing: readB(2B)=1, readB(4B)=1, extrB=1, ad, ad — plus
    // the one-time bentr.
    let header = 6u64;
    // Loop body per tuple: readB (1 + extra words), cln, writeB (1 + extra
    // words of the cleansed data), ad, ad, bexit.
    let tuple_words = (layout.tuple_bytes as u64).div_ceil(8);
    let data_words = (layout.tuple_data_bytes() as u64).div_ceil(8);
    let per_tuple = tuple_words + 1 + data_words + 3;
    pages * header + tuples * per_tuple
}

/// The generated program's run over one page, as [`walk_page`] computes
/// it: the records the program emits, in order, and the cycles it takes.
#[derive(Debug, Clone, Copy)]
pub struct PageWalk<'p> {
    layout: PageLayoutDesc,
    page: &'p [u8],
    /// Offset of the first tuple (the first line pointer's).
    first: usize,
    records: usize,
}

impl<'p> PageWalk<'p> {
    /// Number of records the walk emits.
    pub fn len(&self) -> usize {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The records' user data — `tuple_data_bytes` each, borrowed from the
    /// page — in emission order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &'p [u8]> + '_ {
        let header = self.layout.tuple_header_bytes;
        (0..self.records).map(move |k| {
            let at = self.offset(k);
            &self.page[at + header..at + self.layout.tuple_bytes]
        })
    }

    /// Simulated Strider cycles: the program's, or none for a page skipped
    /// host-side.
    pub fn cycles(&self) -> u64 {
        match self.records {
            0 => 0,
            n => estimated_cycles_per_page(&self.layout, n as u64),
        }
    }

    /// Where the program's `k`-th `readB` stages its tuple: `ad` steps up,
    /// `sub` steps down and saturates at 0.
    fn offset(&self, k: usize) -> usize {
        let step = k * self.layout.tuple_bytes;
        match self.layout.direction {
            TupleDirection::Ascending => self.first + step,
            TupleDirection::Descending => self.first.saturating_sub(step),
        }
    }
}

/// Runs [`strider_program_for_layout`]`(layout)` over `page` in closed
/// form: the same records, the same cycles, or the same
/// [`StriderError::PageBounds`] — for a header read, or for the first tuple
/// read past the page's end, found by arithmetic before any record is
/// handed out (offsets are monotone). One departure, on purpose: a page
/// whose header says it holds no live tuples is skipped host-side — no
/// records, no cycles — where the program's do-while loop would stage one
/// phantom tuple.
pub fn walk_page<'p>(layout: &PageLayoutDesc, page: &'p [u8]) -> StriderResult<PageWalk<'p>> {
    let mut walk = PageWalk {
        layout: *layout,
        page,
        first: 0,
        records: 0,
    };
    let live = live_tuples(page)? as usize;
    if live == 0 {
        return Ok(walk);
    }
    // `readB 24, 4` then `extrB 0, 2`: the first line pointer's offset.
    walk.first = read_page(page, 24, 4)? as u16 as usize;
    let (tuple, len) = (layout.tuple_bytes, page.len());
    // How many tuples the loop stages before its first read past the end.
    let fitting = match layout.direction {
        TupleDirection::Ascending => len
            .checked_sub(walk.first)
            .map_or(0, |room| room.checked_div(tuple).unwrap_or(usize::MAX)),
        // Descending offsets only shrink: the first tuple is the last
        // that can overrun.
        TupleDirection::Descending if range_end(walk.first, tuple, len).is_some() => usize::MAX,
        TupleDirection::Descending => 0,
    };
    if fitting < live {
        return Err(StriderError::PageBounds {
            addr: walk.offset(fitting),
            len: tuple,
            page: len,
        });
    }
    walk.records = live;
    Ok(walk)
}

/// The page header's live tuple count — the program's first instruction,
/// `readB 16, 2` — which decides whether the page is walked at all.
pub(crate) fn live_tuples(page: &[u8]) -> StriderResult<u16> {
    Ok(read_page(page, 16, 2)? as u16)
}

/// `readB addr, len` of the page as an integer, or the interpreter's error.
fn read_page(page: &[u8], addr: usize, len: usize) -> StriderResult<u64> {
    let end = range_end(addr, len, page.len()).ok_or(StriderError::PageBounds {
        addr,
        len,
        page: page.len(),
    })?;
    Ok(le_int(&page[addr..end]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::StriderMachine;
    use dana_storage::{HeapFileBuilder, Schema, Tuple};

    fn build_heap(dir: TupleDirection, n: usize, features: usize) -> dana_storage::HeapFile {
        let schema = Schema::training(features);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, dir).unwrap();
        for k in 0..n {
            let feats: Vec<f32> = (0..features).map(|i| (k * 100 + i) as f32).collect();
            b.insert(&Tuple::training(&feats, k as f32)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn generated_program_extracts_every_tuple_ascending() {
        let heap = build_heap(TupleDirection::Ascending, 300, 10);
        let (prog, config) = strider_program_for_layout(heap.layout());
        let machine = StriderMachine::new(prog, config);
        let mut total = 0usize;
        for p in 0..heap.page_count() {
            let run = machine.run(heap.page_bytes(p).unwrap()).unwrap();
            total += run.len();
            for rec in run.records() {
                assert_eq!(rec.len(), heap.layout().tuple_data_bytes());
            }
        }
        assert_eq!(total, 300);
    }

    #[test]
    fn generated_program_extracts_every_tuple_descending() {
        let heap = build_heap(TupleDirection::Descending, 137, 7);
        let (prog, config) = strider_program_for_layout(heap.layout());
        let machine = StriderMachine::new(prog, config);
        let mut labels = Vec::new();
        for p in 0..heap.page_count() {
            let run = machine.run(heap.page_bytes(p).unwrap()).unwrap();
            for rec in run.records() {
                // label is the final f32 of the record
                let off = rec.len() - 4;
                labels.push(f32::from_le_bytes(rec[off..].try_into().unwrap()));
            }
        }
        assert_eq!(labels.len(), 137);
        for (k, l) in labels.iter().enumerate() {
            assert_eq!(*l, k as f32, "tuple order must be preserved");
        }
    }

    #[test]
    fn extraction_matches_cpu_deform() {
        // The Strider's byte stream must equal what CPU-side deforming sees.
        let heap = build_heap(TupleDirection::Ascending, 50, 5);
        let schema = Schema::training(5);
        let (prog, config) = strider_program_for_layout(heap.layout());
        let machine = StriderMachine::new(prog, config);
        let mut strider_tuples: Vec<Vec<f32>> = Vec::new();
        for p in 0..heap.page_count() {
            let run = machine.run(heap.page_bytes(p).unwrap()).unwrap();
            for rec in run.records() {
                let vals: Vec<f32> = rec
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                strider_tuples.push(vals);
            }
        }
        let cpu_tuples: Vec<Vec<f32>> = heap
            .scan()
            .map(|t| t.values.iter().map(|d| d.as_f32()).collect())
            .collect();
        assert_eq!(strider_tuples, cpu_tuples);
        let _ = schema;
    }

    /// A pushdown scan charges this formula for pages it filters on their
    /// compressed lanes, so it must be the walk's count for both placement
    /// directions, small and large pages, partial and full pages.
    #[test]
    fn cycle_estimate_matches_interpreter_exactly() {
        let mut full_pages = 0;
        for direction in [TupleDirection::Ascending, TupleDirection::Descending] {
            for page_kb in [8, 32] {
                for (n, features) in [(10, 4), (100, 10), (700, 10), (60, 33), (900, 33)] {
                    let schema = Schema::training(features);
                    let mut b = HeapFileBuilder::new(schema, page_kb * 1024, direction).unwrap();
                    for k in 0..n {
                        b.insert(&Tuple::training(&vec![k as f32; features], 0.5))
                            .unwrap();
                    }
                    let heap = b.finish();
                    let (prog, config) = strider_program_for_layout(heap.layout());
                    let machine = StriderMachine::new(prog, config);
                    for p in 0..heap.page_count() {
                        let run = machine.run(heap.page_bytes(p).unwrap()).unwrap();
                        full_pages += usize::from(run.len() == heap.layout().capacity as usize);
                        let est = estimated_cycles_per_page(heap.layout(), run.len() as u64);
                        assert_eq!(
                            run.cycles, est,
                            "{direction:?} {page_kb} KB, {n} tuples, {features} features: page {p}"
                        );
                    }
                }
            }
        }
        assert!(full_pages >= 4, "full-capacity pages: {full_pages}");
    }

    /// The walk in the interpreter's terms: records and cycles, or the
    /// error.
    fn walked(layout: &PageLayoutDesc, page: &[u8]) -> StriderResult<(Vec<Vec<u8>>, u64)> {
        let walk = walk_page(layout, page)?;
        Ok((walk.records().map(<[u8]>::to_vec).collect(), walk.cycles()))
    }

    fn interpreted(layout: &PageLayoutDesc, page: &[u8]) -> StriderResult<(Vec<Vec<u8>>, u64)> {
        let (prog, config) = strider_program_for_layout(layout);
        let run = StriderMachine::new(prog, config).run(page)?;
        Ok((run.records().map(<[u8]>::to_vec).collect(), run.cycles))
    }

    /// The closed-form walk is the program's run — records, cycles and
    /// `PageBounds` errors — on clean pages and on pages damaged where
    /// the program looks: the live count, the first line pointer, the
    /// length. (`tests/properties.rs` runs the same comparison over random
    /// layouts and damage.)
    #[test]
    fn walk_is_the_interpreters_run() {
        for direction in [TupleDirection::Ascending, TupleDirection::Descending] {
            let heap = build_heap(direction, 300, 10);
            let l = *heap.layout();
            let clean = heap.page_bytes(0).unwrap();
            let at = |field: usize, v: u16| {
                let mut page = clean.to_vec();
                page[field..field + 2].copy_from_slice(&v.to_le_bytes());
                page
            };
            let mut pages = vec![
                clean.to_vec(),
                heap.page_bytes(heap.page_count() - 1).unwrap().to_vec(),
            ];
            for count in [1, l.capacity, l.capacity + 1, u16::MAX] {
                pages.push(at(16, count));
            }
            // The last tuple that fits, and one byte past it.
            let last = l.page_size - l.tuple_bytes;
            for first in [0, 1, last, last + 1, u16::MAX as usize] {
                pages.push(at(24, first as u16));
            }
            for cut in [10, 20, 27, l.tuple_offset(3) + 5, l.page_size - 1] {
                pages.push(clean[..cut].to_vec());
            }
            let mut errors = 0;
            for (i, page) in pages.iter().enumerate() {
                let program = interpreted(&l, page);
                errors += usize::from(program.is_err());
                assert_eq!(walked(&l, page), program, "{direction:?} page {i}");
            }
            assert!(errors >= 4, "{direction:?}: {errors} errors");
        }
    }

    #[test]
    fn config_registers_describe_layout() {
        let heap = build_heap(TupleDirection::Ascending, 10, 8);
        let l = heap.layout();
        let (_, config) = strider_program_for_layout(l);
        assert_eq!(config[0], l.page_size as u64);
        assert_eq!(config[1], l.capacity as u64);
        assert_eq!(config[2], l.tuple_bytes as u64);
        assert_eq!(config[5], l.tuple_header_bytes as u64);
    }

    #[test]
    fn program_fits_a_tiny_instruction_store() {
        // The ISA's point is a small footprint: "This feature invariably
        // reduces the instruction footprint" (§5.1.2). The whole walk is
        // a dozen instructions regardless of page or tuple size.
        let heap = build_heap(TupleDirection::Ascending, 10, 200);
        let (prog, _) = strider_program_for_layout(heap.layout());
        assert!(prog.len() <= 16, "{} instructions", prog.len());
    }
}
