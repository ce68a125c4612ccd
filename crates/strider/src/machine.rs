//! Cycle-accurate Strider interpreter.
//!
//! Executes one Strider program against one page buffer, exactly as the
//! hardware of Fig. 5 would: scalar registers for pointer arithmetic, the
//! staging buffer (shifter output) for wide data, and an output FIFO of
//! extracted records toward the execution engine.
//!
//! No extraction path runs it: the access engine evaluates the generated
//! program in closed form ([`crate::codegen::walk_page`]). The interpreter
//! is the oracle that walk is held to (the per-tuple reference,
//! [`crate::reference`], runs it page by page), and the engine of any
//! hand-written program (`assemble`, the `strider_playground` example).
//!
//! **Cycle model.** Every instruction costs one cycle; `readB`/`writeB`
//! additionally pay one cycle per 8 bytes moved beyond the first (the
//! page-buffer BRAM exposes a 64-bit read port). This makes per-page
//! extraction cost scale with tuple bytes — the quantity the access engine
//! overlaps against AXI transfer and compute.

use std::borrow::Cow;

use crate::error::{StriderError, StriderResult};
use crate::isa::{Instr, Opcode, Operand};

/// Result of running a program over one page.
///
/// Records are stored flat — one contiguous byte buffer plus per-record
/// end offsets — matching the hardware's output FIFO and keeping the run
/// to O(1) allocations regardless of the page's tuple count.
#[derive(Debug, Clone, PartialEq)]
pub struct StriderRun {
    /// All extracted records' bytes (one per `writeB 0`), back to back in
    /// extraction order — the cleansed user-data bytes of each tuple.
    data: Vec<u8>,
    /// End offset of each record within `data`.
    ends: Vec<u32>,
    /// Simulated Strider cycles consumed.
    pub cycles: u64,
    /// Instructions executed (≥ program length when loops run).
    pub executed: u64,
}

impl StriderRun {
    /// Number of extracted records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Record `i`'s bytes.
    pub fn record(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[start..self.ends[i] as usize]
    }

    /// All records in extraction order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (0..self.ends.len()).map(move |i| self.record(i))
    }
}

/// The interpreter. Reusable across pages; [`StriderMachine::run`] resets
/// per-run state but keeps the program and configuration registers.
pub struct StriderMachine {
    program: Vec<Instr>,
    config: [u64; 16],
    /// Runaway-loop bound (instructions per page).
    fuel: u64,
}

impl StriderMachine {
    /// Creates a machine for `program` with configuration registers
    /// `config` (loaded over AXI in hardware; see [`crate::isa::config_regs`]).
    pub fn new(program: Vec<Instr>, config: [u64; 16]) -> StriderMachine {
        StriderMachine {
            program,
            config,
            fuel: 50_000_000,
        }
    }

    pub fn program(&self) -> &[Instr] {
        &self.program
    }

    /// Runs the program over `page` (a full page image).
    pub fn run(&self, page: &[u8]) -> StriderResult<StriderRun> {
        let mut regs = [0u64; 32];
        regs[..16].copy_from_slice(&self.config);
        let mut staging: Vec<u8> = Vec::new();
        // Copy-on-write: only `writeB` mode 1 mutates the page, and the
        // generated extraction programs never do — the common case streams
        // the borrowed frame bytes with no 32 KB copy.
        let mut page: Cow<[u8]> = Cow::Borrowed(page);
        let mut data: Vec<u8> = Vec::new();
        let mut ends: Vec<u32> = Vec::new();
        let mut loop_stack: Vec<usize> = Vec::new();
        let mut pc = 0usize;
        let mut cycles = 0u64;
        let mut executed = 0u64;

        let val = |regs: &[u64; 32], op: Operand| -> u64 {
            match op {
                Operand::Reg(r) => regs[r.0 as usize],
                Operand::Imm(v) => v as u64,
            }
        };
        let set = |regs: &mut [u64; 32], op: Operand, v: u64| {
            if let Operand::Reg(r) = op {
                regs[r.0 as usize] = v;
            }
        };

        while pc < self.program.len() {
            executed += 1;
            if executed > self.fuel {
                return Err(StriderError::Fuel { executed });
            }
            cycles += 1;
            let i = self.program[pc];
            match i.opcode {
                Opcode::ReadB => {
                    let addr = val(&regs, i.a) as usize;
                    let count = val(&regs, i.b) as usize;
                    let Some(end) = range_end(addr, count, page.len()) else {
                        return Err(StriderError::PageBounds {
                            addr,
                            len: count,
                            page: page.len(),
                        });
                    };
                    staging.clear();
                    staging.extend_from_slice(&page[addr..end]);
                    set(&mut regs, i.c, le_int(&staging));
                    cycles += extra_move_cycles(count);
                }
                Opcode::ExtrB => {
                    let offset = val(&regs, i.a) as usize;
                    let count = val(&regs, i.b) as usize;
                    let Some(end) = range_end(offset, count, staging.len()) else {
                        return Err(StriderError::StagingBounds {
                            offset,
                            len: count,
                            staged: staging.len(),
                        });
                    };
                    staging.copy_within(offset..end, 0);
                    staging.truncate(count);
                    set(&mut regs, i.c, le_int(&staging));
                }
                Opcode::WriteB => {
                    let mode = val(&regs, i.a);
                    if mode == 0 {
                        data.extend_from_slice(&staging);
                        ends.push(data.len() as u32);
                    } else {
                        let addr = val(&regs, i.b) as usize;
                        let Some(end) = range_end(addr, staging.len(), page.len()) else {
                            return Err(StriderError::PageBounds {
                                addr,
                                len: staging.len(),
                                page: page.len(),
                            });
                        };
                        page.to_mut()[addr..end].copy_from_slice(&staging);
                    }
                    cycles += extra_move_cycles(staging.len());
                }
                Opcode::ExtrBi => {
                    let bitoff = val(&regs, i.a) as usize;
                    let bitcount = (val(&regs, i.b) as usize).min(64);
                    if range_end(bitoff, bitcount, staging.len() * 8).is_none() {
                        return Err(StriderError::StagingBounds {
                            offset: bitoff / 8,
                            len: bitcount.div_ceil(8),
                            staged: staging.len(),
                        });
                    }
                    let mut v: u64 = 0;
                    for k in 0..bitcount {
                        let bit = bitoff + k;
                        let byte = staging[bit / 8];
                        if byte >> (bit % 8) & 1 == 1 {
                            v |= 1 << k;
                        }
                    }
                    set(&mut regs, i.c, v);
                }
                Opcode::Cln => {
                    let offset = val(&regs, i.a) as usize;
                    let count = val(&regs, i.b) as usize;
                    let Some(end) = range_end(offset, count, staging.len()) else {
                        return Err(StriderError::StagingBounds {
                            offset,
                            len: count,
                            staged: staging.len(),
                        });
                    };
                    staging.drain(offset..end);
                }
                Opcode::Ins => {
                    let src = val(&regs, i.a);
                    let count = (val(&regs, i.b) as usize).min(8);
                    let offset = (val(&regs, i.c) as usize).min(staging.len());
                    let bytes = src.to_le_bytes();
                    for (k, b) in bytes[..count].iter().enumerate() {
                        staging.insert(offset + k, *b);
                    }
                }
                Opcode::Ad => {
                    let v = val(&regs, i.a).wrapping_add(val(&regs, i.b));
                    set(&mut regs, i.c, v);
                }
                Opcode::Sub => {
                    let v = val(&regs, i.a).saturating_sub(val(&regs, i.b));
                    set(&mut regs, i.c, v);
                }
                Opcode::Mul => {
                    let v = val(&regs, i.a).wrapping_mul(val(&regs, i.b));
                    set(&mut regs, i.c, v);
                }
                Opcode::Bentr => {
                    loop_stack.push(pc + 1);
                }
                Opcode::Bexit => {
                    let cond = val(&regs, i.a);
                    let x = val(&regs, i.b);
                    let y = val(&regs, i.c);
                    let exit = match cond {
                        0 => x < y,
                        1 => x >= y,
                        2 => x == y,
                        _ => x != y,
                    };
                    let head = *loop_stack.last().ok_or(StriderError::UnmatchedBexit(pc))?;
                    if exit {
                        loop_stack.pop();
                    } else {
                        pc = head;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        if !loop_stack.is_empty() {
            return Err(StriderError::UnclosedLoop);
        }
        Ok(StriderRun {
            data,
            ends,
            cycles,
            executed,
        })
    }
}

/// `start + count` when `[start, start + count)` lies within `limit` —
/// `None` also when the sum overflows, so a register near `u64::MAX` is a
/// bounds error like any other, never a wrapped sum that passes the guard.
pub(crate) fn range_end(start: usize, count: usize, limit: usize) -> Option<usize> {
    start.checked_add(count).filter(|&end| end <= limit)
}

/// Little-endian integer of the first ≤8 bytes.
pub(crate) fn le_int(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(buf)
}

/// Wide moves pay one extra cycle per 8 bytes beyond the first word.
fn extra_move_cycles(bytes: usize) -> u64 {
    (bytes.div_ceil(8) as u64).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_src(src: &str, page: &[u8], config: [u64; 16]) -> StriderResult<StriderRun> {
        StriderMachine::new(assemble(src).unwrap(), config).run(page)
    }

    #[test]
    fn read_and_extract() {
        let mut page = vec![0u8; 64];
        page[10] = 0xAB;
        page[11] = 0xCD;
        let r = run_src("readB 10, 2, %t0\nwriteB 0, 0, 0\n", &page, [0; 16]).unwrap();
        assert_eq!(r.records().collect::<Vec<_>>(), vec![&[0xAB, 0xCD][..]]);
    }

    #[test]
    fn extract_narrows_staging() {
        let page: Vec<u8> = (0u8..32).collect();
        let r = run_src(
            "readB 0, 16, %t0\nextrB 4, 2, %t1\nwriteB 0, 0, 0\n",
            &page,
            [0; 16],
        )
        .unwrap();
        assert_eq!(r.records().collect::<Vec<_>>(), vec![&[4, 5][..]]);
    }

    #[test]
    fn clean_removes_header() {
        let page: Vec<u8> = (0u8..32).collect();
        // stage 12 bytes, strip the first 4 → bytes 4..12
        let r = run_src(
            "readB 0, 12, %t0\ncln 0, 4, 0\nwriteB 0, 0, 0\n",
            &page,
            [0; 16],
        )
        .unwrap();
        assert_eq!(r.record(0), (4u8..12).collect::<Vec<u8>>());
    }

    #[test]
    fn insert_adds_bytes() {
        let page: Vec<u8> = vec![9, 9, 9, 9];
        // stage [9,9], then insert 0xFF at offset 1
        let src = "readB 0, 2, %t0\nad 0, 31, %t1\nins %t1, 1, 1\nwriteB 0, 0, 0\n";
        let r = run_src(src, &page, [0; 16]).unwrap();
        assert_eq!(r.record(0), vec![9, 31, 9]);
    }

    #[test]
    fn bit_extraction() {
        let page = vec![0b1011_0101u8, 0xFF];
        // bits [2,6) of byte 0 = 1101 = 13
        let src = "readB 0, 2, %t0\nextrBi 2, 4, %t1\nsub %t1, 13, %t2\nbentr\nbexit 2, %t2, 0\n";
        let r = run_src(src, &page, [0; 16]);
        assert!(r.is_ok(), "{r:?}"); // loop exits immediately because t2 == 0
    }

    #[test]
    fn loop_walks_tuples() {
        // Three 4-byte "tuples" at offsets 0, 4, 8. cr2 = 4 (stride),
        // cr1 = 3 (count).
        let page: Vec<u8> = (0u8..16).collect();
        let mut config = [0u64; 16];
        config[1] = 3;
        config[2] = 4;
        let src = "\
ad 0, 0, %t0      # offset = 0
ad 0, 0, %t1      # index = 0
bentr
readB %t0, %cr2, %t2
writeB 0, 0, 0
ad %t0, %cr2, %t0
ad %t1, 1, %t1
bexit 1, %t1, %cr1
";
        let r = run_src(src, &page, config).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.record(0), vec![0, 1, 2, 3]);
        assert_eq!(r.record(2), vec![8, 9, 10, 11]);
        assert!(r.executed > 8, "loop body must re-execute");
    }

    #[test]
    fn arithmetic_semantics() {
        let page = vec![0u8; 8];
        let src = "\
ad 5, 7, %t0
mul %t0, 3, %t1
sub %t1, 6, %t2
sub 3, 9, %t3     # saturates at 0
bentr
bexit 2, %t3, 0
";
        let r = run_src(src, &page, [0; 16]);
        assert!(r.is_ok());
    }

    #[test]
    fn wide_reads_cost_extra_cycles() {
        let page = vec![0u8; 1024];
        let narrow = run_src("readB 0, 8, %t0\n", &page, [0; 16]).unwrap();
        let wide = run_src("readB 0, 24, %t0\n", &page, [0; 16]).unwrap();
        assert_eq!(narrow.cycles, 1);
        assert_eq!(wide.cycles, 3); // 24 bytes = 3 words
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let page = vec![0u8; 8];
        let err = run_src("readB 4, 8, %t0\n", &page, [0; 16]).unwrap_err();
        assert!(matches!(err, StriderError::PageBounds { .. }));
    }

    /// Operands are user input (`assemble`, `strider_playground`): a
    /// register near `u64::MAX` must be a typed bounds error on every
    /// opcode that adds it to a length, in debug and release alike.
    #[test]
    fn hostile_operands_are_typed_errors() {
        let page = vec![0u8; 64];
        let mut config = [0u64; 16];
        config[0] = u64::MAX - 3;
        config[1] = 8;
        let huge = (u64::MAX - 3) as usize;
        let err = run_src("readB %cr0, %cr1, %t1\n", &page, config).unwrap_err();
        assert_eq!(
            err,
            StriderError::PageBounds {
                addr: huge,
                len: 8,
                page: 64
            }
        );
        let err = run_src("readB 0, 8, %t0\nwriteB 1, %cr0, 0\n", &page, config).unwrap_err();
        assert_eq!(
            err,
            StriderError::PageBounds {
                addr: huge,
                len: 8,
                page: 64
            }
        );
        for op in ["extrB", "cln"] {
            let src = format!("readB 0, 16, %t0\n{op} %cr0, %cr1, %t1\n");
            assert_eq!(
                run_src(&src, &page, config).unwrap_err(),
                StriderError::StagingBounds {
                    offset: huge,
                    len: 8,
                    staged: 16
                },
                "{op}"
            );
        }
        let err = run_src("readB 0, 16, %t0\nextrBi %cr0, %cr1, %t1\n", &page, config);
        assert_eq!(
            err.unwrap_err(),
            StriderError::StagingBounds {
                offset: huge / 8,
                len: 1,
                staged: 16
            }
        );
        // Built at run time rather than configured: 0 - 1 saturates, so
        // multiply up to it instead.
        let src = "ad 0, 1, %t0\nmul %t0, %cr0, %t0\nreadB %t0, 8, %t1\n";
        assert!(matches!(
            run_src(src, &page, config).unwrap_err(),
            StriderError::PageBounds { .. }
        ));
    }

    #[test]
    fn runaway_loop_hits_fuel() {
        let page = vec![0u8; 8];
        let prog = assemble("bentr\nad %t0, 0, %t0\nbexit 2, %t0, 1\n").unwrap();
        let mut m = StriderMachine::new(prog, [0; 16]);
        m.fuel = 1000;
        assert!(matches!(m.run(&page), Err(StriderError::Fuel { .. })));
    }

    #[test]
    fn bexit_without_bentr_errors() {
        let page = vec![0u8; 8];
        let err = run_src("bexit 2, 0, 0\n", &page, [0; 16]).unwrap_err();
        assert!(matches!(err, StriderError::UnmatchedBexit(_)));
    }

    #[test]
    fn unclosed_loop_detected() {
        let page = vec![0u8; 8];
        let err = run_src("bentr\nad %t0, 1, %t0\n", &page, [0; 16]).unwrap_err();
        assert!(matches!(err, StriderError::UnclosedLoop));
    }

    #[test]
    fn write_back_mode_mutates_local_page_copy_only() {
        let page = vec![1u8, 2, 3, 4];
        // Stage bytes 0..2, write them back at addr 2, then re-read and emit.
        let src =
            "readB 0, 2, %t0\nad 0, 2, %t1\nwriteB 1, %t1, 0\nreadB 0, 4, %t0\nwriteB 0, 0, 0\n";
        let r = run_src(src, &page, [0; 16]).unwrap();
        assert_eq!(r.record(0), vec![1, 2, 1, 2]);
        assert_eq!(page, vec![1, 2, 3, 4], "caller's page is untouched");
    }
}
