//! Strider error types.

use std::fmt;

/// Errors from encoding, assembling, or executing Strider programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StriderError {
    /// An operand value does not fit its 6-bit field.
    OperandRange { value: u64, limit: u64 },
    /// Unknown opcode value during decode.
    BadOpcode(u32),
    /// Assembly text error with 1-based line number.
    Asm { line: usize, msg: String },
    /// Out-of-bounds page-buffer access at runtime.
    PageBounds {
        addr: usize,
        len: usize,
        page: usize,
    },
    /// Staging-buffer slice out of range.
    StagingBounds {
        offset: usize,
        len: usize,
        staged: usize,
    },
    /// `bexit` without a matching `bentr`.
    UnmatchedBexit(usize),
    /// The program exceeded the execution fuel (runaway loop).
    Fuel { executed: u64 },
    /// Program ended inside an open loop.
    UnclosedLoop,
}

impl fmt::Display for StriderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StriderError::OperandRange { value, limit } => {
                write!(f, "operand {value} exceeds field limit {limit}")
            }
            StriderError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            StriderError::Asm { line, msg } => write!(f, "asm error at line {line}: {msg}"),
            StriderError::PageBounds { addr, len, page } => {
                write!(
                    f,
                    "page access [{addr}, {addr}+{len}) outside {page}-byte page"
                )
            }
            StriderError::StagingBounds {
                offset,
                len,
                staged,
            } => {
                write!(
                    f,
                    "staging access [{offset}, {offset}+{len}) outside {staged} staged bytes"
                )
            }
            StriderError::UnmatchedBexit(pc) => write!(f, "bexit at pc {pc} without bentr"),
            StriderError::Fuel { executed } => {
                write!(f, "execution fuel exhausted after {executed} instructions")
            }
            StriderError::UnclosedLoop => write!(f, "program ended inside an open loop"),
        }
    }
}

impl std::error::Error for StriderError {}

pub type StriderResult<T> = Result<T, StriderError>;
