//! Striders: DAnA's database-aware on-chip memory interface (§5.1).
//!
//! A Strider is a tiny programmable engine that sits between a page buffer
//! (holding one raw database page shipped over AXI) and the execution
//! engine. It "extracts, cleanses, and processes the training data tuples"
//! by pointer-chasing the page bytes — page header, tuple pointers, tuple
//! headers — with a specialized 22-bit fixed-length ISA (Table 2).
//!
//! This crate provides the full Strider stack:
//!
//! * [`isa`] — the ten instructions of Table 2, their 22-bit encoding, and
//!   the register file (16 configuration + 16 temporary registers, per
//!   Fig. 5's configuration-register block);
//! * [`asm`] — a two-way assembler for the paper's assembly syntax
//!   (`readB 0, 8, %cr0`);
//! * [`codegen`] — the compiler half that "converts the database page
//!   configuration into a set of Strider instructions" (§6.2) for any
//!   [`dana_storage::PageLayoutDesc`] (ascending or descending tuple
//!   placement, any supported page size), and that program's run in
//!   closed form ([`codegen::walk_page`]), which extraction evaluates;
//! * [`machine`] — a cycle-accurate interpreter: one instruction per cycle,
//!   wide reads/writes pay one cycle per 8 bytes of data moved — the oracle
//!   the closed-form walk is held to;
//! * [`access_engine`] — the multi-Strider access engine (Fig. 5): page
//!   buffers, AXI streaming, float conversion of extracted columns, and the
//!   per-page cycle accounting the runtime overlaps with compute;
//! * [`mod@reference`] — the per-tuple extraction path the batch path is
//!   tested against, running the interpreter (no statement reaches it).

pub mod access_engine;
pub mod asm;
pub mod codegen;
pub mod error;
pub mod isa;
pub mod machine;
pub mod reference;

pub use access_engine::{AccessEngine, AccessEngineConfig, AccessStats};
pub use asm::{assemble, disassemble};
pub use codegen::strider_program_for_layout;
pub use error::{StriderError, StriderResult};
pub use isa::{Instr, Opcode, Operand, Reg};
pub use machine::{StriderMachine, StriderRun};
pub use reference::ExtractedTuple;
