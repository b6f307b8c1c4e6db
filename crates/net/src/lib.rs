#![warn(missing_docs)]
// panic-freedom: runtime code returns typed errors, never panics.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

//! # etsc-net
//!
//! The cross-node layer of the serving stack: a zero-dependency wire
//! protocol, a federated node runtime, and a cluster router — early
//! classification served across machines with the same determinism
//! contract it has in one process.
//!
//! `etsc-serve` ends at the process boundary: one [`Runtime`] owns every
//! monitor it serves. This crate removes that boundary in three layers,
//! each usable on its own:
//!
//! * **[`wire`]** — a length-prefixed, versioned, checksummed frame codec
//!   over blocking `std::net` TCP and Unix sockets (no async runtime). The
//!   payload vocabulary is the persist codec's ([`etsc_persist`]), the
//!   checksum is the stack's FNV-1a ([`etsc_core::hash`]), and decoding is
//!   hostile-input safe: bad magic, wrong version, truncation, checksum
//!   mismatch, oversized length prefixes, and hostile element counts all
//!   surface as typed [`WireError`]s before any proportional allocation —
//!   never a panic, never a hang.
//! * **[`node`]** — [`Node`] wraps a serving [`Runtime`] behind a
//!   [`Listener`]: a blocking accept loop, bounded scoped connection
//!   threads, end-to-end backpressure (a remote
//!   [`QueueFull`](WireError::QueueFull) is the same atomic, retryable
//!   error it is in process), typed error replies for every failure, and
//!   graceful shutdown that drains in-flight work into the final ack.
//!   [`NetClient`] is the other end: the `Runtime` surface over a socket,
//!   implementing [`StreamService`](etsc_serve::StreamService) so drivers
//!   and tests run unchanged in-process and over the wire.
//! * **[`cluster`]** — [`ClusterRouter`] consistent-hashes stream ids onto
//!   node endpoints (virtual-node ring, minimal movement when the node set
//!   changes), and [`Cluster`] routes batches client-side, merges drains
//!   deterministically, and migrates live streams between nodes in two
//!   phases, export then import — a failed migration restores the source
//!   node and leaves the topology untouched.
//! * **fault tolerance** ([`fault`], [`retry`], [`supervisor`]) —
//!   deterministic fault injection under the transport ([`FaultPlan`]
//!   scripts refusals, disconnects, stalls, corruption, and asymmetric
//!   partitions against seeded op counters), a retry/backoff policy on
//!   [`NetClient`] with automatic [`reconnect`](NetClient::reconnect) and
//!   idempotency-tagged ingest (server-side dedup makes retried batches
//!   exactly-once), and a [`Supervisor`] that heartbeats nodes, declares
//!   one dead after a miss threshold, and fails its streams over to the
//!   survivors from the node's registry checkpoint — paired with the
//!   sink-side [`DedupCursor`](etsc_serve::DedupCursor) this upgrades
//!   alarm delivery to exactly-once across a crash.
//!
//! The contract that matters end to end: **per-stream alarm sequences are
//! invariant under distribution**. The same traffic produces the same
//! alarms whether the monitors live in this process, behind one socket, or
//! spread across a cluster with mid-run migrations — bit-exact under the
//! raw norm, and still bit-exact when a node is killed mid-event and its
//! streams fail over. The end-to-end tests assert exactly that.
//!
//! # Frame layout
//!
//! | field      | size    | value                                      |
//! |------------|---------|--------------------------------------------|
//! | `magic`    | 4 bytes | [`WIRE_MAGIC`] = `b"ETSN"`                 |
//! | `version`  | u16 LE  | [`WIRE_VERSION`]                           |
//! | `msg_type` | u8      | message discriminant                       |
//! | `len`      | u32 LE  | payload length in bytes                    |
//! | `payload`  | `len` B | message body (persist-codec primitives)    |
//! | `checksum` | u64 LE  | FNV-1a 64 over every preceding byte        |
//!
//! # Version policy
//!
//! [`WIRE_VERSION`] bumps on any change to the frame layout or to an
//! existing message's payload layout; endpoints reject every other version
//! with a typed [`UnsupportedVersion`](WireError::UnsupportedVersion)
//! instead of misdecoding. New message types may be added within a
//! version: an unrecognized type is a typed error reply, and a node only
//! answers with reply types the request implies, so older clients never
//! see frames they cannot decode. Version 2 is the fault-tolerance bump:
//! ingest batches carry an idempotency tag, ingest acks report duplicate
//! application, and busy/queue-full errors carry a retry-after hint (see
//! [`WIRE_VERSION`]'s changelog).
//!
//! [`Runtime`]: etsc_serve::Runtime

pub mod client;
pub mod cluster;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod node;
pub mod retry;
pub mod supervisor;
pub mod transport;
pub mod wire;

pub use client::{ClientConfig, NetClient};
pub use cluster::{Cluster, ClusterRouter};
pub use error::WireError;
pub use fault::{Fault, FaultInjector, FaultPlan, Op};
pub use metrics::MessageTimings;
pub use node::{Node, NodeConfig};
pub use retry::{RetryPolicy, RetryStats};
pub use supervisor::{FailoverReport, Supervisor, SupervisorConfig};
pub use transport::{Conn, Endpoint, Listener};
pub use wire::{Frame, Message, MAX_FRAME_PAYLOAD, WIRE_MAGIC, WIRE_VERSION};
