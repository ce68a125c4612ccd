//! Execution-engine error types.

use std::fmt;

/// Errors from validating or executing engine programs.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An AU index exceeds the per-thread allocation.
    BadAu { au: u16, aus_per_thread: u16 },
    /// A memory slot exceeds the per-AU scratchpad.
    BadSlot { slot: u16, slots: u16 },
    /// Two micro-ops target the same AU in one step.
    AuConflict { step: usize, au: u16 },
    /// A non-Mov micro-op reads across cluster boundaries.
    CrossClusterRead { step: usize, au: u16, src_au: u16 },
    /// More cross-cluster transfers in a step than bus lanes.
    BusOversubscribed {
        step: usize,
        movs: usize,
        lanes: usize,
    },
    /// A gather/scatter references an unknown model id.
    BadModel(u8),
    /// A gathered/scattered row index is out of the model's range.
    RowOutOfRange { model: u8, row: i64, rows: usize },
    /// Model store shape disagrees with the design.
    ModelShape(String),
    /// Tuple width disagrees with the design's input+output slots.
    TupleWidth { got: usize, expected: usize },
    /// The upstream tuple source failed while producing a batch.
    Source(String),
    /// The query's deadline passed; raised by cooperative cancellation
    /// checks at epoch boundaries and by admission shedding.
    DeadlineExceeded,
    /// A transient accelerator fault (injected or reported) at an epoch
    /// boundary. Retryable: the member re-runs the epoch from the
    /// epoch-start model.
    TransientFault { epoch: u32 },
}

impl EngineError {
    /// Whether a retry (the epoch re-run from the epoch-start model) can
    /// possibly succeed. Deterministic program errors — bad schedules,
    /// shape mismatches — are not retryable.
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::TransientFault { .. })
    }

    /// Whether this is the cooperative-cancellation deadline signal.
    pub fn is_deadline(&self) -> bool {
        matches!(self, EngineError::DeadlineExceeded)
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadAu { au, aus_per_thread } => {
                write!(f, "AU {au} out of range ({aus_per_thread} per thread)")
            }
            EngineError::BadSlot { slot, slots } => {
                write!(f, "slot {slot} out of range ({slots} per AU)")
            }
            EngineError::AuConflict { step, au } => {
                write!(f, "step {step}: AU {au} issued two operations")
            }
            EngineError::CrossClusterRead { step, au, src_au } => {
                write!(
                    f,
                    "step {step}: AU {au} reads AU {src_au} across clusters without a Mov"
                )
            }
            EngineError::BusOversubscribed { step, movs, lanes } => {
                write!(
                    f,
                    "step {step}: {movs} cross-cluster transfers exceed {lanes} bus lanes"
                )
            }
            EngineError::BadModel(m) => write!(f, "unknown model id {m}"),
            EngineError::RowOutOfRange { model, row, rows } => {
                write!(f, "model {model}: row {row} outside 0..{rows}")
            }
            EngineError::ModelShape(msg) => write!(f, "model shape: {msg}"),
            EngineError::TupleWidth { got, expected } => {
                write!(f, "tuple has {got} values, engine expects {expected}")
            }
            EngineError::Source(msg) => write!(f, "tuple source: {msg}"),
            EngineError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            EngineError::TransientFault { epoch } => {
                write!(
                    f,
                    "transient accelerator fault at epoch {epoch} (retryable)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<dana_storage::SourceError> for EngineError {
    fn from(e: dana_storage::SourceError) -> EngineError {
        EngineError::Source(e.0)
    }
}

pub type EngineResult<T> = Result<T, EngineError>;
