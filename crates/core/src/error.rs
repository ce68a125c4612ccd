//! Top-level error type: every layer's failures, unified.

use std::fmt;

/// Errors surfaced by the DAnA system façade.
#[derive(Debug)]
pub enum DanaError {
    Storage(dana_storage::StorageError),
    Dsl(dana_dsl::DslError),
    Compiler(dana_compiler::CompilerError),
    Engine(dana_engine::EngineError),
    Strider(dana_strider::StriderError),
    /// Inference-tier failure (scoring lowering, SoA scorer, metrics,
    /// materialization).
    Infer(dana_infer::InferError),
    /// Intra-query parallel tier failure (shard execution, merge
    /// derivation, partial-model shapes).
    Parallel(dana_parallel::ParallelError),
    /// SQL the query front end cannot parse.
    Query(String),
    /// The accelerator's backing table has been dropped; its Strider
    /// program walks a page layout that no longer exists.
    StaleAccelerator {
        udf: String,
        dropped_table: String,
    },
    /// PREDICT/EVALUATE on a UDF that has never been trained: there are
    /// no model values to score with until an EXECUTE stores some.
    ModelNotTrained {
        udf: String,
    },
    /// A typed accessor asked a [`crate::QueryResponse`] for a different
    /// kind than the statement answered with.
    UnexpectedResponse {
        expected: &'static str,
        got: &'static str,
    },
}

impl fmt::Display for DanaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DanaError::Storage(e) => write!(f, "storage: {e}"),
            DanaError::Dsl(e) => write!(f, "dsl: {e}"),
            DanaError::Compiler(e) => write!(f, "compiler: {e}"),
            DanaError::Engine(e) => write!(f, "engine: {e}"),
            DanaError::Strider(e) => write!(f, "strider: {e}"),
            DanaError::Infer(e) => write!(f, "infer: {e}"),
            DanaError::Parallel(e) => write!(f, "parallel: {e}"),
            DanaError::Query(msg) => write!(f, "query: {msg}"),
            DanaError::StaleAccelerator { udf, dropped_table } => write!(
                f,
                "accelerator '{udf}' is stale: its table '{dropped_table}' was dropped"
            ),
            DanaError::ModelNotTrained { udf } => write!(
                f,
                "accelerator '{udf}' has no trained model yet: run EXECUTE before PREDICT/EVALUATE"
            ),
            DanaError::UnexpectedResponse { expected, got } => {
                write!(f, "expected a {expected} response, got {got}")
            }
        }
    }
}

impl std::error::Error for DanaError {}

impl From<dana_storage::StorageError> for DanaError {
    fn from(e: dana_storage::StorageError) -> DanaError {
        DanaError::Storage(e)
    }
}

impl From<dana_dsl::DslError> for DanaError {
    fn from(e: dana_dsl::DslError) -> DanaError {
        DanaError::Dsl(e)
    }
}

impl From<dana_compiler::CompilerError> for DanaError {
    fn from(e: dana_compiler::CompilerError) -> DanaError {
        DanaError::Compiler(e)
    }
}

impl From<dana_engine::EngineError> for DanaError {
    fn from(e: dana_engine::EngineError) -> DanaError {
        DanaError::Engine(e)
    }
}

impl From<dana_strider::StriderError> for DanaError {
    fn from(e: dana_strider::StriderError) -> DanaError {
        DanaError::Strider(e)
    }
}

impl From<dana_infer::InferError> for DanaError {
    fn from(e: dana_infer::InferError) -> DanaError {
        DanaError::Infer(e)
    }
}

impl From<dana_parallel::ParallelError> for DanaError {
    fn from(e: dana_parallel::ParallelError) -> DanaError {
        DanaError::Parallel(e)
    }
}

impl DanaError {
    /// Whether this error is the deadline signal: admission shedding a
    /// queued query, a scoring statement's up-front check, or a gang
    /// member's epoch boundary (every EXECUTE's).
    pub fn is_deadline_exceeded(&self) -> bool {
        match self {
            DanaError::Engine(e) => e.is_deadline(),
            DanaError::Parallel(dana_parallel::ParallelError::Engine { source, .. }) => {
                source.is_deadline()
            }
            _ => false,
        }
    }

    /// Whether this error is a transient accelerator fault (retryable).
    pub fn is_transient_fault(&self) -> bool {
        match self {
            DanaError::Engine(e) => e.is_transient(),
            DanaError::Parallel(dana_parallel::ParallelError::Engine { source, .. }) => {
                source.is_transient()
            }
            _ => false,
        }
    }
}

pub type DanaResult<T> = Result<T, DanaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: DanaError = dana_storage::StorageError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("storage"));
        let e: DanaError = dana_dsl::DslError::NoModelUpdate.into();
        assert!(e.to_string().contains("dsl"));
        let e = DanaError::Query("bad".into());
        assert!(e.to_string().contains("query"));
        let e = DanaError::StaleAccelerator {
            udf: "linearR".into(),
            dropped_table: "t".into(),
        };
        assert!(e.to_string().contains("stale"));
        assert!(e.to_string().contains("linearR"));
    }
}
