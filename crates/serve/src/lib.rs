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

//! # etsc-serve
//!
//! An in-process, sharded serving runtime for early-classification
//! monitors: the layer that turns "one
//! [`StreamMonitor`](etsc_stream::StreamMonitor) driven from test code"
//! into "many thousands of concurrent streams behind one API".
//!
//! The stack below this crate already provides everything a serving layer
//! needs per stream — incremental
//! [`DecisionSession`](etsc_early::DecisionSession)s (amortized O(1) per
//! sample), anchor-based monitors, and byte-exact checkpoint/restore of
//! in-flight state (`etsc-persist`). What it lacked was ownership and
//! routing: who holds a million monitors, how does a sample find its
//! monitor, and how does stream state move when the worker topology
//! changes. [`Runtime`] answers all three:
//!
//! * **Routing** — [`ShardRouter`] hashes stream ids
//!   ([`etsc_core::hash`]) onto N shards; each shard owns its streams'
//!   monitors, in a dense slab whose slot a record resolves once at
//!   ingest, and a bounded record queue.
//! * **Batched ingestion** — [`Runtime::ingest`] routes record batches into
//!   the queues with an explicit [`OverflowPolicy`] (apply backpressure by
//!   draining in place, or reject the batch atomically with a typed error —
//!   never panic, never drop); [`Runtime::drain`] services every shard's
//!   queue on its own worker thread (`etsc_core::parallel`, honoring
//!   `ETSC_THREADS` with an explicit override for tests) and returns alarms
//!   in a deterministic total order.
//! * **Live rebalancing** — [`Runtime::rebalance`] re-shards on the fly,
//!   moving each re-routed stream's monitor to its new worker by value.
//!   Refractory clocks travel too, so per-stream alarm sequences are
//!   unchanged across a migration, bit for bit.
//! * **Crash recovery** — [`Runtime::checkpoint`] persists the model plus
//!   every stream's anchors (and undelivered alarms) to a
//!   [`ModelRegistry`](etsc_persist::ModelRegistry);
//!   [`Runtime::recover`] rebuilds the runtime in a fresh process and
//!   continues every alarm sequence exactly. Periodic checkpoints hang off
//!   ingest via [`Runtime::enable_checkpoints`].
//! * **Metrics** — [`Runtime::stats`] snapshots per-shard and
//!   runtime-lifetime counters into a [`ServeStats`] report, and
//!   [`ServeStats::render_prometheus`] emits it in the Prometheus text
//!   exposition format.
//! * **Cross-runtime migration** — [`Runtime::export_streams`] /
//!   [`Runtime::import_streams`] move live streams between runtimes (and,
//!   via `etsc-net`, between machines) as two-phase batches of `(stream
//!   id, anchor snapshot)` bytes, and the [`StreamService`] trait abstracts
//!   the ingest/drain surface so drivers run unchanged against a local
//!   [`Runtime`], a remote node, or a whole cluster.
//!
//! See the [`runtime`] module docs for the execution model and the
//! determinism contract (per-stream alarm sequences are invariant under
//! shard count, worker count, and mid-run rebalancing).
//!
//! ```
//! use etsc_serve::{OverflowPolicy, Record, Runtime, RuntimeConfig};
//! use etsc_stream::{StreamMonitorConfig, StreamNorm};
//! # use etsc_early::{Decision, EarlyClassifier};
//! # struct Edge;
//! # impl EarlyClassifier for Edge {
//! #     fn n_classes(&self) -> usize { 1 }
//! #     fn series_len(&self) -> usize { 16 }
//! #     fn decide(&self, p: &[f64]) -> Decision {
//! #         if p.len() >= 4 && p.last().is_some_and(|&x| x > 0.5) {
//! #             Decision::Predict { label: 0, confidence: 1.0 }
//! #         } else { Decision::Wait }
//! #     }
//! #     fn predict_full(&self, _s: &[f64]) -> usize { 0 }
//! # }
//! # let model = Edge;
//! let mut rt = Runtime::new(
//!     &model,
//!     RuntimeConfig {
//!         shards: 4,
//!         monitor: StreamMonitorConfig {
//!             anchor_stride: 1,
//!             norm: StreamNorm::Raw,
//!             refractory: 100,
//!         },
//!         ..RuntimeConfig::default()
//!     },
//! )
//! .unwrap();
//! // Interleaved traffic from 8 streams: stream 3 carries a pulse.
//! for t in 0..32 {
//!     let batch: Vec<Record> = (0..8)
//!         .map(|id| Record::new(id, if id == 3 && t >= 20 { 1.0 } else { 0.0 }))
//!         .collect();
//!     rt.ingest(&batch).unwrap();
//! }
//! let alarms = rt.drain();
//! assert!(alarms.iter().all(|a| a.stream == 3));
//! assert!(!alarms.is_empty());
//! ```

pub mod dedup;
pub mod error;
pub mod router;
pub mod runtime;
pub mod service;
mod shard;
pub mod stats;

pub use dedup::DedupCursor;
pub use error::ServeError;
pub use router::ShardRouter;
pub use runtime::{
    IngestMeta, OverflowPolicy, Record, Runtime, RuntimeConfig, StreamAlarm, SERVE_STATE_KIND,
};
pub use service::StreamService;
pub use stats::{ServeStats, ShardStats};
