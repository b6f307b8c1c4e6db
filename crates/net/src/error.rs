//! The wire layer's typed error surface.
//!
//! The protocol's contract mirrors the in-process runtime's: nothing in the
//! framing, transport, or request path panics, hangs, or silently drops — a
//! truncated frame, a bad checksum, a full queue on the remote node, a
//! missing model during a remote recovery all surface as a [`WireError`]
//! variant precise enough to act on. Remote failures cross the wire as
//! typed error replies (never a dropped connection), so
//! [`ServeError`](etsc_serve::ServeError) semantics — e.g. "queue-full
//! rejections are atomic, retry the batch" — survive the process boundary.

use std::fmt;

use etsc_persist::PersistError;
use etsc_serve::ServeError;

/// Errors produced by the wire protocol, the transports, and remote nodes.
///
/// Variants split into three groups: **transport** (I/O, timeouts,
/// connection lifecycle), **framing** (a frame or payload that does not
/// decode), and **remote** (typed failures a node reported in an error
/// reply — the cross-node images of [`ServeError`] variants).
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    // --- transport ---
    /// A socket operation failed.
    Io(String),
    /// The peer did not produce a complete reply within the configured
    /// timeout. The connection is in an unknown mid-frame state; callers
    /// should drop and reconnect rather than retry on the same socket.
    TimedOut,
    /// The peer closed the connection cleanly at a frame boundary.
    ConnectionClosed,

    // --- framing ---
    /// The connection dropped (or the buffer ended) mid-frame.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The frame does not start with [`WIRE_MAGIC`](crate::wire::WIRE_MAGIC).
    BadMagic,
    /// The frame was written by an incompatible wire version.
    UnsupportedVersion {
        /// Version found in the frame header.
        found: u16,
        /// Version this endpoint speaks.
        supported: u16,
    },
    /// The frame checksum does not match its contents.
    ChecksumMismatch,
    /// The frame header declares a payload larger than the configured
    /// limit. Detected **before** any allocation, so a hostile length
    /// prefix costs a typed error, not memory.
    FrameTooLarge {
        /// Payload length the header declares.
        declared: usize,
        /// The receiving endpoint's limit.
        max: usize,
    },
    /// The frame's message-type byte is not part of the protocol.
    UnknownMsgType(u8),
    /// The frame decoded but its payload does not match the message
    /// layout.
    Malformed(String),
    /// The peer answered with a structurally valid message of the wrong
    /// type for the request (a protocol bug, not a transport fault).
    UnexpectedReply {
        /// Reply the request expects.
        expected: &'static str,
        /// Message that actually arrived.
        got: &'static str,
    },

    // --- remote (typed error replies) ---
    /// The remote node's shard queue would overflow under
    /// [`OverflowPolicy::Reject`](etsc_serve::OverflowPolicy::Reject). Like
    /// its in-process twin, the rejection is atomic: the node enqueued no
    /// record of the batch, so the caller can drain and retry it whole.
    QueueFull {
        /// Remote shard whose queue would overflow.
        shard: usize,
        /// Stream id of the first record that did not fit.
        stream: u64,
        /// The remote runtime's per-shard queue capacity.
        capacity: usize,
        /// Server hint: how long to wait before retrying, in milliseconds
        /// (0 = unknown; back off with the client policy instead).
        retry_after_ms: u64,
    },
    /// The remote node cannot serve a stream because its model is absent
    /// from the node's registry.
    ModelMissing {
        /// Stream whose snapshot references the missing model.
        stream: u64,
        /// The registry entry name the snapshot expects.
        model: String,
    },
    /// The remote node has no live stream with this id (e.g. a migrate-out
    /// for a stream the node does not own).
    UnknownStream {
        /// The unknown stream id.
        stream: u64,
    },
    /// A migration batch names a stream twice, or a migrate-in would
    /// overwrite a stream already live on the remote node; the node refused
    /// the whole batch atomically.
    DuplicateStream {
        /// The stream id listed twice or already live remotely.
        stream: u64,
    },
    /// The remote node rejected the request as misconfigured (e.g. a
    /// checkpoint request on a node that was started without a registry).
    RemoteBadConfig(String),
    /// A persistence operation failed on the remote node.
    RemotePersist(String),
    /// The remote node could not decode the request and said so (a typed
    /// reply, not a dropped connection). The node closes the connection
    /// after this reply — mid-stream state is unknowable after a framing
    /// error — so reconnect before retrying.
    RemoteMalformed(String),
    /// The node is at its connection limit; the reply is sent before the
    /// connection closes so the client can back off and retry.
    Busy {
        /// Connections the node was serving when it refused this one.
        active: usize,
        /// The node's configured connection limit.
        limit: usize,
        /// Server hint: how long to wait before retrying, in milliseconds
        /// (0 = unknown; back off with the client policy instead).
        retry_after_ms: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "socket error: {msg}"),
            WireError::TimedOut => write!(f, "timed out waiting for the peer"),
            WireError::ConnectionClosed => write!(f, "peer closed the connection"),
            WireError::Truncated { context } => {
                write!(f, "connection dropped mid-frame while reading {context}")
            }
            WireError::BadMagic => write!(f, "not an etsc-net frame (bad magic)"),
            WireError::UnsupportedVersion { found, supported } => write!(
                f,
                "wire version {found} is not supported (this endpoint speaks {supported})"
            ),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::FrameTooLarge { declared, max } => {
                write!(f, "frame declares a {declared}-byte payload (limit {max})")
            }
            WireError::UnknownMsgType(t) => write!(f, "unknown message type {t}"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::UnexpectedReply { expected, got } => {
                write!(f, "expected a {expected} reply, got {got}")
            }
            WireError::QueueFull {
                shard,
                stream,
                capacity,
                retry_after_ms: _,
            } => write!(
                f,
                "remote shard {shard} queue is full (capacity {capacity}); batch rejected at \
                 stream {stream} with no records enqueued"
            ),
            WireError::ModelMissing { stream, model } => write!(
                f,
                "remote node cannot serve stream {stream}: model {model:?} is absent from its \
                 registry"
            ),
            WireError::UnknownStream { stream } => {
                write!(f, "remote node has no live stream {stream}")
            }
            WireError::DuplicateStream { stream } => write!(
                f,
                "stream {stream} is listed twice in the batch or already live on the remote \
                 node; migration refused"
            ),
            WireError::RemoteBadConfig(msg) => write!(f, "remote configuration error: {msg}"),
            WireError::RemotePersist(msg) => write!(f, "remote persistence error: {msg}"),
            WireError::RemoteMalformed(msg) => {
                write!(f, "remote node could not decode the request: {msg}")
            }
            WireError::Busy {
                active,
                limit,
                retry_after_ms: _,
            } => write!(
                f,
                "node is at its connection limit ({active}/{limit}); retry later"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

impl From<PersistError> for WireError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::UnexpectedEof { context } => WireError::Truncated { context },
            other => WireError::Malformed(other.to_string()),
        }
    }
}

impl WireError {
    /// The error-reply image of a [`ServeError`]: what a node sends back
    /// when the wrapped runtime refuses a request. Total — every runtime
    /// failure has a typed wire form, which is what keeps "never a dropped
    /// connection" honest.
    pub fn from_serve(e: &ServeError) -> Self {
        match e {
            ServeError::QueueFull {
                shard,
                stream,
                capacity,
            } => WireError::QueueFull {
                shard: *shard,
                stream: *stream,
                capacity: *capacity,
                retry_after_ms: 0,
            },
            ServeError::ModelMissing { stream, model } => WireError::ModelMissing {
                stream: *stream,
                model: model.clone(),
            },
            ServeError::UnknownStream { stream } => WireError::UnknownStream { stream: *stream },
            ServeError::DuplicateStream { stream } => {
                WireError::DuplicateStream { stream: *stream }
            }
            ServeError::BadConfig(msg) => WireError::RemoteBadConfig(msg.clone()),
            ServeError::Persist(p) => WireError::RemotePersist(p.to_string()),
        }
    }

    /// True when the remote node guarantees the request was **not** applied,
    /// so resending it cannot duplicate work regardless of what the request
    /// was. [`QueueFull`](WireError::QueueFull) rejections are atomic (no
    /// record enqueued) and [`Busy`](WireError::Busy) refusals happen before
    /// the request is even read.
    pub fn leaves_request_unapplied(&self) -> bool {
        matches!(self, WireError::QueueFull { .. } | WireError::Busy { .. })
    }

    /// True when retrying the request might succeed: the failure was either
    /// provably-unapplied server pressure ([`leaves_request_unapplied`]
    /// (WireError::leaves_request_unapplied)) or a transport fault that may
    /// have been transient. For transport faults the request *may* have been
    /// applied before the fault — only retry them when the request is
    /// idempotent (or deduplicated server-side, like tagged ingest batches).
    pub fn is_retryable(&self) -> bool {
        self.leaves_request_unapplied()
            || matches!(
                self,
                WireError::Io(_)
                    | WireError::TimedOut
                    | WireError::ConnectionClosed
                    | WireError::Truncated { .. }
                    | WireError::ChecksumMismatch
                    | WireError::RemoteMalformed(_)
            )
    }

    /// True when the connection that produced this error is in an unknown
    /// or closed state and must be re-established before the next request.
    /// [`RemoteMalformed`](WireError::RemoteMalformed) and
    /// [`Busy`](WireError::Busy) qualify because the node closes the
    /// connection right after sending those replies.
    pub fn needs_reconnect(&self) -> bool {
        matches!(
            self,
            WireError::Io(_)
                | WireError::TimedOut
                | WireError::ConnectionClosed
                | WireError::Truncated { .. }
                | WireError::ChecksumMismatch
                | WireError::RemoteMalformed(_)
                | WireError::Busy { .. }
        )
    }

    /// The server's retry-after hint, when it sent one. `None` for errors
    /// that carry no hint or whose hint is 0 (= unknown); callers fall back
    /// to their own backoff schedule.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        match self {
            WireError::QueueFull { retry_after_ms, .. }
            | WireError::Busy { retry_after_ms, .. }
                if *retry_after_ms > 0 =>
            {
                Some(std::time::Duration::from_millis(*retry_after_ms))
            }
            _ => None,
        }
    }
}
