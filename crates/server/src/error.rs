//! Serving-tier errors: everything a client can get back from a request.

use std::fmt;

use dana::DanaError;
use dana_storage::StorageError;

use crate::session::SessionId;

/// Errors surfaced by [`crate::DanaServer`].
#[derive(Debug)]
pub enum ServerError {
    /// The query itself failed inside the DAnA core (compile, storage,
    /// execution, stale accelerator, ...).
    Dana(DanaError),
    /// Admission control refused the query: the queue is at capacity.
    Overloaded { queued: usize, limit: usize },
    /// The session id was never opened (or already closed).
    UnknownSession(SessionId),
    /// The server is shutting down; no new work is admitted.
    ShuttingDown,
    /// The worker executing the query disappeared before replying (it
    /// panicked); the query's outcome is unknown.
    WorkerLost,
    /// The query's dispatch panicked; the worker caught the panic
    /// (`catch_unwind`) and kept serving. The payload is the panic
    /// message, if it was a string.
    QueryPanicked(String),
}

impl ServerError {
    /// Whether this error is the typed deadline signal — from admission
    /// shedding or from cooperative cancellation during execution.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(self, ServerError::Dana(e) if e.is_deadline_exceeded())
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Dana(e) => write!(f, "query failed: {e}"),
            ServerError::Overloaded { queued, limit } => {
                write!(f, "admission refused: {queued} queued (limit {limit})")
            }
            ServerError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::WorkerLost => write!(f, "worker lost before replying"),
            ServerError::QueryPanicked(msg) => {
                write!(f, "query dispatch panicked (worker recovered): {msg}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<DanaError> for ServerError {
    fn from(e: DanaError) -> ServerError {
        ServerError::Dana(e)
    }
}

impl From<StorageError> for ServerError {
    fn from(e: StorageError) -> ServerError {
        ServerError::Dana(DanaError::Storage(e))
    }
}

pub type ServerResult<T> = Result<T, ServerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: ServerError = DanaError::Query("bad".into()).into();
        assert!(e.to_string().contains("query failed"));
        let e: ServerError = StorageError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("unknown table"));
        let e = ServerError::Overloaded {
            queued: 10,
            limit: 10,
        };
        assert!(e.to_string().contains("admission refused"));
    }
}
