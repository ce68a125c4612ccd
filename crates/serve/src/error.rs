//! The serving tier's error type.

use dana::DanaError;
use dana_server::ServerError;

/// What a point prediction can fail with.
///
/// The underlying refusal is always typed on the request that carried
/// the dispatch: the batch *leader* (and every unbatched call) gets
/// [`ServeError::Server`] with the full [`ServerError`] chain — e.g. a
/// `DanaError::StaleAccelerator` when the bound table was dropped
/// mid-flight. Followers of a failed coalesced dispatch receive
/// [`ServeError::Batch`] carrying the shared failure's message (the
/// originals are not cloneable).
#[derive(Debug)]
pub enum ServeError {
    /// The server/core refusal, typed.
    Server(ServerError),
    /// A coalesced dispatch this request rode failed; the message is
    /// this member's copy of the shared failure.
    Batch(String),
}

pub type ServeResult<T> = Result<T, ServeError>;

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Server(e) => write!(f, "{e}"),
            ServeError::Batch(msg) => write!(f, "coalesced dispatch failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Server(e) => Some(e),
            ServeError::Batch(_) => None,
        }
    }
}

impl From<ServerError> for ServeError {
    fn from(e: ServerError) -> ServeError {
        ServeError::Server(e)
    }
}

impl From<DanaError> for ServeError {
    fn from(e: DanaError) -> ServeError {
        ServeError::Server(ServerError::Dana(e))
    }
}
