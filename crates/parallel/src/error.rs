//! Errors the intra-query parallel tier can surface.

use std::fmt;

use dana_engine::EngineError;
use dana_infer::InferError;

/// Failures planning or executing a gang-scheduled parallel query.
#[derive(Debug)]
pub enum ParallelError {
    /// A shard's engine run failed, or its epoch boundary did: the query
    /// deadline passed, or a transient fault outlived the retry policy
    /// (reported for the lowest-index failing shard, so concurrent
    /// failures surface deterministically).
    Engine { shard: usize, source: EngineError },
    /// A shard's scoring run failed.
    Infer { shard: usize, source: InferError },
    /// The design's model merge semantics cannot be derived — e.g. a
    /// row-scattered model whose row index is computed rather than read
    /// straight from a tuple column, so shard ownership is unknowable at
    /// plan time.
    UnsupportedMerge { model: String, reason: String },
    /// A gang needs at least one shard.
    EmptyGang,
    /// Per-shard partial models disagree with the design's model shapes.
    ModelShape(String),
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelError::Engine { shard, source } => {
                write!(f, "shard {shard}: engine: {source}")
            }
            ParallelError::Infer { shard, source } => {
                write!(f, "shard {shard}: scoring: {source}")
            }
            ParallelError::UnsupportedMerge { model, reason } => {
                write!(
                    f,
                    "model '{model}' cannot be merged across shards: {reason}"
                )
            }
            ParallelError::EmptyGang => write!(f, "a gang needs at least one shard"),
            ParallelError::ModelShape(msg) => write!(f, "partial-model shape: {msg}"),
        }
    }
}

impl std::error::Error for ParallelError {}

pub type ParallelResult<T> = Result<T, ParallelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_shard() {
        let e = ParallelError::Engine {
            shard: 3,
            source: EngineError::TupleWidth {
                got: 2,
                expected: 4,
            },
        };
        assert!(e.to_string().contains("shard 3"));
        let e = ParallelError::UnsupportedMerge {
            model: "L".into(),
            reason: "computed row index".into(),
        };
        assert!(e.to_string().contains("'L'"));
    }
}
