//! The serving runtime's typed error surface.
//!
//! The runtime's contract is that nothing in the ingestion or migration
//! path panics and nothing is silently dropped: a full queue under the
//! reject policy, a misconfiguration, a missing model during recovery — all
//! surface as a [`ServeError`] variant precise enough for the caller to act
//! on (retry the batch, fix the config, re-seed the registry).

use std::fmt;

use etsc_persist::PersistError;

/// Errors produced by the serving runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A configuration value is unusable (zero shards, zero queue capacity,
    /// zero anchor stride, zero checkpoint interval, …).
    BadConfig(String),
    /// Under [`OverflowPolicy::Reject`](crate::OverflowPolicy::Reject), the
    /// batch would overflow a shard's bounded queue. **No record of the
    /// batch was enqueued** — the rejection is atomic, so the caller can
    /// retry the whole batch after draining.
    QueueFull {
        /// Shard whose queue would overflow.
        shard: usize,
        /// Stream id of the first record that did not fit.
        stream: u64,
        /// The configured per-shard queue capacity.
        capacity: usize,
    },
    /// During [`Runtime::recover`](crate::Runtime::recover), a stream's
    /// anchor snapshot names a model that the registry no longer holds. The
    /// stream id pinpoints which in-flight stream is stranded.
    ModelMissing {
        /// Stream whose snapshot references the missing model.
        stream: u64,
        /// The registry entry name the snapshot expects.
        model: String,
    },
    /// A per-stream operation (export, migration) named a stream that is
    /// not live in this runtime.
    UnknownStream {
        /// The stream id that has no monitor.
        stream: u64,
    },
    /// A migration batch names a stream twice, or an import
    /// ([`Runtime::import_streams`](crate::Runtime::import_streams)) would
    /// overwrite a stream that is already live in this runtime. The batch is
    /// refused atomically — no stream of it was added or removed.
    DuplicateStream {
        /// The stream id listed twice or already live.
        stream: u64,
    },
    /// A snapshot/restore or registry operation failed.
    Persist(PersistError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadConfig(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::QueueFull {
                shard,
                stream,
                capacity,
            } => write!(
                f,
                "shard {shard} queue is full (capacity {capacity}); batch rejected at stream \
                 {stream} with no records enqueued"
            ),
            ServeError::ModelMissing { stream, model } => write!(
                f,
                "cannot recover stream {stream}: model {model:?} is absent from the registry"
            ),
            ServeError::UnknownStream { stream } => {
                write!(f, "stream {stream} is not live in this runtime")
            }
            ServeError::DuplicateStream { stream } => write!(
                f,
                "stream {stream} is listed twice in the batch or already live in this runtime; \
                 migration refused with no streams moved"
            ),
            ServeError::Persist(e) => write!(f, "persistence error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}
