//! The runtime surface as a trait, so callers can be generic over *where*
//! the streams are served.
//!
//! [`StreamService`] captures the ingestion surface of
//! [`Runtime`](crate::Runtime) — open, ingest, drain — behind an associated
//! error type. The in-process [`Runtime`] implements it directly; the
//! `etsc-net` crate implements it for its `NetClient` (one node over a
//! socket) and `Cluster` (many nodes behind a consistent-hash router), so a
//! test or a driver written against `StreamService` runs unchanged whether
//! the monitors live in this process, behind a socket, or across a cluster
//! — which is exactly how the cross-node layers prove their alarm
//! sequences match the in-process ones.

use crate::error::ServeError;
use crate::runtime::{Record, Runtime, StreamAlarm};
use etsc_early::EarlyClassifier;

/// A destination that serves streams: open them, feed them records, and
/// collect the alarms they raise.
///
/// Implementations must preserve the runtime's core contract: records of
/// one stream are processed in ingest order, nothing is silently dropped,
/// and overflow/remote failures surface as typed errors. Per-stream alarm
/// sequences must not depend on which implementation serves the traffic.
pub trait StreamService {
    /// The implementation's error type (`ServeError` in-process, a wire
    /// error over a socket).
    type Error: std::error::Error + 'static;

    /// Open a monitor for `stream` without ingesting anything; `Ok(false)`
    /// if the stream was already live.
    fn open_stream(&mut self, stream: u64) -> Result<bool, Self::Error>;

    /// Route a batch of records to their streams (auto-opening unknown
    /// ids). Backpressure semantics follow the underlying runtime's
    /// [`OverflowPolicy`](crate::OverflowPolicy): the call either blocks
    /// while the work happens or fails with a typed queue-full error that
    /// means no record of the batch was accepted.
    ///
    /// The caller supplies records only. A [`Runtime`] applies them
    /// untagged and untraced (the default [`IngestMeta`](crate::IngestMeta)
    /// of [`Runtime::ingest_with`]); the network implementations tag and
    /// trace each batch from their own client configuration.
    fn ingest(&mut self, batch: &[Record]) -> Result<(), Self::Error>;

    /// Process everything queued and return the produced alarms.
    fn drain(&mut self) -> Result<Vec<StreamAlarm>, Self::Error>;

    /// Number of live streams.
    fn stream_count(&mut self) -> Result<usize, Self::Error>;
}

impl<'a, C: EarlyClassifier + ?Sized> StreamService for Runtime<'a, C> {
    type Error = ServeError;

    fn open_stream(&mut self, stream: u64) -> Result<bool, ServeError> {
        Ok(Runtime::open_stream(self, stream))
    }

    fn ingest(&mut self, batch: &[Record]) -> Result<(), ServeError> {
        Runtime::ingest(self, batch)
    }

    fn drain(&mut self) -> Result<Vec<StreamAlarm>, ServeError> {
        Ok(Runtime::drain(self))
    }

    fn stream_count(&mut self) -> Result<usize, ServeError> {
        Ok(Runtime::stream_count(self))
    }
}
