#![warn(missing_docs)]

//! # etsc
//!
//! Early time series classification (ETSC) algorithms, their substrates,
//! streaming deployment, and meaningfulness audits — a from-scratch Rust
//! reproduction of Wu, Der & Keogh, *"When is Early Classification of Time
//! Series Meaningful?"* (ICDE 2022).
//!
//! This crate is a facade: each module re-exports one workspace crate.
//!
//! * [`core`] — time series model, z-normalization, ED/DTW distances with
//!   lower bounds, subsequence nearest-neighbor search, stream events.
//! * [`datasets`] — seeded synthetic generators standing in for every
//!   dataset the paper uses (GunPoint, spoken words, ECG, EOG, EPG, random
//!   walks, chicken accelerometry).
//! * [`classifiers`] — classic whole-series classification: kNN, centroids,
//!   Gaussian models, SFA / WEASEL-lite, logistic regression, evaluation.
//! * [`early`] — the ETSC algorithms (ECTS, RelaxedECTS, EDSC-CHE/KDE,
//!   RelClass/LDG, TEASER, ECDIRE, stopping rules, cost-aware triggers,
//!   template matching) behind the [`early::EarlyClassifier`] trait —
//!   stateless [`early::EarlyClassifier::decide`] for offline evaluation,
//!   incremental [`early::DecisionSession`]s for streaming — with an
//!   explicit prefix-normalization policy at evaluation time.
//! * [`stream`] — anchored stream monitors, alarm scoring, intervention
//!   cost models, and Appendix A's well-posed alternatives.
//! * [`serve`] — the sharded multi-stream serving runtime
//!   ([`serve::Runtime`]): deterministic stream → shard routing, batched
//!   ingestion with explicit backpressure, live rebalancing by anchor
//!   migration, and registry-backed crash recovery.
//! * [`net`] — the cross-node layer: a zero-dependency framed wire
//!   protocol over TCP/Unix sockets, a federated node runtime
//!   ([`net::Node`] / [`net::NetClient`]) serving a [`serve::Runtime`]
//!   behind a socket, and a consistent-hash cluster router
//!   ([`net::Cluster`]) with two-phase cross-node stream migration.
//! * [`audit`] — the Section 6 meaningfulness criteria: costs,
//!   prefix/inclusion/homophone confusability, priors, and normalization
//!   sensitivity, combined into [`audit::MeaningfulnessReport`].
//! * [`persist`] — versioned binary snapshots for fitted models
//!   ([`persist::Persist`]), checkpoint/restore for in-flight sessions, and
//!   a file-backed [`persist::ModelRegistry`] for deploy-style workflows.
//!
//! ## Example
//!
//! ```
//! use etsc::datasets::gunpoint::{self, GunPointConfig};
//! use etsc::early::ects::{Ects, EctsConfig};
//! use etsc::early::metrics::{evaluate, PrefixPolicy};
//!
//! let mut train = gunpoint::generate(10, &GunPointConfig::default(), 1);
//! let mut test = gunpoint::generate(10, &GunPointConfig::default(), 2);
//! train.znormalize();
//! test.znormalize();
//!
//! let ects = Ects::fit(&train, &EctsConfig::default());
//! let result = evaluate(&ects, &test, PrefixPolicy::Oracle);
//! assert!(result.accuracy() > 0.5);
//! assert!(result.earliness() <= 1.0);
//! ```
//!
//! ## Streaming sessions
//!
//! Deployment is streaming-first: instead of re-deciding on every grown
//! prefix (which makes each new sample cost O(prefix)), open a stateful
//! [`early::DecisionSession`] and push samples as they arrive. Sessions
//! keep running state — running sums for online z-normalization,
//! incremental partial Euclidean sums for the 1NN models, per-class
//! likelihood accumulators (closed-form under per-prefix renormalization;
//! see the running-sums algebra on [`early::SessionNorm`]), per-checkpoint
//! caches for the ensemble models — so the amortized per-sample cost is
//! O(1) in the prefix length, and (under [`early::SessionNorm::Raw`])
//! decisions reproduce `decide` exactly. No built-in algorithm falls back
//! to whole-prefix replay under either norm. [`stream::StreamMonitor`]
//! drives one session per candidate anchor: as the lanes of one
//! [`early::DecisionLanes`] block per stream, one state advanced in one
//! loop, where the model offers it ([`early::EarlyClassifier::lanes`];
//! `ProbThreshold<NearestCentroid>`), and as boxed sessions in a generic
//! [`early::SessionLanes`] fleet otherwise, with the same decisions and
//! checkpoint bytes either way.
//!
//! ```
//! use etsc::datasets::gunpoint::{self, GunPointConfig};
//! use etsc::early::ects::{Ects, EctsConfig};
//! use etsc::early::{EarlyClassifier, SessionNorm};
//! use etsc::stream::{StreamMonitor, StreamMonitorConfig, StreamNorm};
//!
//! let mut train = gunpoint::generate(10, &GunPointConfig::default(), 1);
//! train.znormalize();
//! let ects = Ects::fit(&train, &EctsConfig::default());
//!
//! // One stream, driven by hand: push samples, read decisions.
//! let mut session = ects.session(SessionNorm::Raw);
//! let probe = train.series(0).to_vec();
//! let mut first_commit = None;
//! for (i, &x) in probe.iter().enumerate() {
//!     if session.push(x).is_predict() {
//!         first_commit = Some(i + 1);
//!         break;
//!     }
//! }
//! let len = first_commit.expect("a training exemplar matches itself");
//! assert!(len <= probe.len());
//! // Incremental and stateless paths agree: the prefix that committed
//! // decides, every shorter prefix waits.
//! assert!(ects.decide(&probe[..len]).is_predict());
//!
//! // Honest deployment normalization: a PerPrefix session z-normalizes
//! // with past-only statistics, folding each prefix-wide mean/std change
//! // into closed-form running-sum updates instead of replaying the
//! // prefix. It tracks the renormalize-and-decide reference.
//! let raw_probe: Vec<f64> = probe.iter().map(|&x| 40.0 + 3.0 * x).collect();
//! let mut honest = ects.session(SessionNorm::PerPrefix);
//! let mut committed_at = None;
//! for (i, &x) in raw_probe.iter().enumerate() {
//!     if honest.push(x).is_predict() {
//!         committed_at = Some(i + 1);
//!         break;
//!     }
//! }
//! let t = committed_at.expect("a shifted/scaled exemplar still matches");
//! let znormed = etsc::core::znorm::znormalize(&raw_probe[..t]);
//! assert!(ects.decide(&znormed).is_predict());
//!
//! // A monitor runs sessions over an unbounded stream, one per anchor.
//! let mut monitor = StreamMonitor::new(
//!     &ects,
//!     StreamMonitorConfig {
//!         anchor_stride: 4,
//!         norm: StreamNorm::PerPrefix,
//!         refractory: 50,
//!     },
//! );
//! let background = vec![0.0; 500];
//! let alarms = monitor.run(&background);
//! assert!(alarms.len() <= 500);
//! ```
//!
//! ## Persistence & checkpointing
//!
//! Fitted models and in-flight sessions live in RAM; [`persist`] makes them
//! durable. Every fitted model implements [`persist::Persist`]
//! (`snapshot() -> Vec<u8>` / `restore(&[u8])` over a zero-dependency,
//! versioned, checksummed little-endian format — no serde), and every
//! built-in [`early::DecisionSession`] supports checkpointing via
//! [`early::checkpoint_session`] / [`early::resume_session`]: the restored
//! session continues **bit-identically** to one that was never interrupted
//! (`Raw` exactly; `PerPrefix` resumes its running-sums algebra from the
//! same IEEE bits, so the documented ~1e-9 tolerance still refers only to
//! the comparison against batch renormalization). At the deployment level,
//! [`stream::StreamMonitor::snapshot_anchors`] /
//! [`stream::StreamMonitor::resume_anchors`] drain and rehydrate every
//! in-flight anchor — refractory clock included — across a restart, and
//! [`persist::ModelRegistry`] stores snapshots as named files.
//!
//! ```
//! use etsc::core::UcrDataset;
//! use etsc::early::ects::{Ects, EctsConfig};
//! use etsc::early::{checkpoint_session, resume_session, EarlyClassifier, SessionNorm};
//! use etsc::persist::ModelRegistry;
//!
//! // Fit on a tiny two-class problem and save the model by name.
//! let train = UcrDataset::new(
//!     (0..8)
//!         .map(|i| {
//!             let level = if i % 2 == 0 { 0.0 } else { 3.0 };
//!             (0..16).map(|j| level + 0.05 * ((i * 5 + j) % 7) as f64).collect()
//!         })
//!         .collect(),
//!     vec![0, 1, 0, 1, 0, 1, 0, 1],
//! )
//! .unwrap();
//! let ects = Ects::fit(&train, &EctsConfig::default());
//! let dir = std::env::temp_dir().join(format!("etsc-doc-{}", std::process::id()));
//! let registry = ModelRegistry::open(&dir).unwrap();
//! registry.save("ects", &ects).unwrap();
//!
//! // Drive a stream halfway, checkpoint the session, and "restart".
//! let probe: Vec<f64> = train.series(1).to_vec();
//! let mut session = ects.session(SessionNorm::Raw);
//! let reference: Vec<_> = probe.iter().map(|&x| session.push(x)).collect();
//! let mut half = ects.session(SessionNorm::Raw);
//! for &x in &probe[..8] {
//!     half.push(x);
//! }
//! let checkpoint = checkpoint_session(half.as_ref()).unwrap();
//!
//! // New process: reload the model, resume the session, continue. The
//! // decisions are bit-identical to the uninterrupted run.
//! let restored: Ects = registry.load("ects").unwrap();
//! let mut resumed = resume_session(&restored, SessionNorm::Raw, &checkpoint).unwrap();
//! for (t, &x) in probe[8..].iter().enumerate() {
//!     assert_eq!(resumed.push(x), reference[8 + t]);
//! }
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! ## Serving & sharding
//!
//! [`serve::Runtime`] is the deployment-scale layer over all of the above:
//! it owns many concurrent streams, routes each to one of N shards by
//! hashing its id ([`core::hash`]), and services every shard's queue on its
//! own worker thread during a [`drain`](serve::Runtime::drain)
//! (`ETSC_THREADS`, or the explicit [`serve::RuntimeConfig::threads`]
//! override). Ingestion is batched with an explicit
//! [`serve::OverflowPolicy`] — apply backpressure in place, or reject the
//! batch atomically with a typed error; nothing panics, nothing is silently
//! dropped. Per-stream alarm sequences are **invariant under shard count,
//! worker count, and mid-run rebalancing**:
//! [`rebalance`](serve::Runtime::rebalance) migrates re-routed streams
//! between workers as `(model name, anchor snapshot)` pairs over the
//! [`persist`] byte path, refractory clocks included, and
//! [`checkpoint`](serve::Runtime::checkpoint) /
//! [`recover`](serve::Runtime::recover) carry the whole runtime across a
//! crash the same way. [`stats`](serve::Runtime::stats) reports per-shard
//! and lifetime counters.
//!
//! ```
//! use etsc::core::UcrDataset;
//! use etsc::early::ects::{Ects, EctsConfig};
//! use etsc::persist::ModelRegistry;
//! use etsc::serve::{Record, Runtime, RuntimeConfig};
//! use etsc::stream::{StreamMonitorConfig, StreamNorm};
//!
//! // Fit a model on a tiny two-class problem.
//! let train = UcrDataset::new(
//!     (0..8)
//!         .map(|i| {
//!             let level = if i % 2 == 0 { 0.0 } else { 3.0 };
//!             (0..16).map(|j| level + 0.05 * ((i * 5 + j) % 7) as f64).collect()
//!         })
//!         .collect(),
//!     vec![0, 1, 0, 1, 0, 1, 0, 1],
//! )
//! .unwrap();
//! let ects = Ects::fit(&train, &EctsConfig::default());
//!
//! // Build a 4-shard runtime and ingest interleaved batches from many
//! // streams (unknown stream ids auto-open).
//! let cfg = RuntimeConfig {
//!     shards: 4,
//!     monitor: StreamMonitorConfig {
//!         anchor_stride: 4,
//!         norm: StreamNorm::Raw,
//!         refractory: 20,
//!     },
//!     model_name: "ects".to_string(),
//!     ..RuntimeConfig::default()
//! };
//! let mut rt = Runtime::new(&ects, cfg.clone()).unwrap();
//! let probe: Vec<f64> = train.series(1).to_vec();
//! for t in 0..8 {
//!     let batch: Vec<Record> = (0..6).map(|id| Record::new(id, probe[t])).collect();
//!     rt.ingest(&batch).unwrap();
//! }
//!
//! // Live rebalance: stream state migrates between workers as anchor
//! // snapshots; alarm sequences are unchanged.
//! rt.rebalance(7).unwrap();
//! assert_eq!(rt.shard_count(), 7);
//! assert_eq!(rt.stream_count(), 6);
//!
//! // Checkpoint the whole runtime (model + every stream's anchors) ...
//! let dir = std::env::temp_dir().join(format!("etsc-serve-doc-{}", std::process::id()));
//! let registry = ModelRegistry::open(&dir).unwrap();
//! rt.checkpoint(&registry).unwrap();
//! drop(rt);
//!
//! // ... and recover it in a "new process": reload the model by name,
//! // rebuild the runtime, keep serving. Decisions continue exactly.
//! let restored: Ects = registry.load("ects").unwrap();
//! let mut recovered = Runtime::recover(&restored, &dir, "ects").unwrap();
//! assert_eq!(recovered.stream_count(), 6);
//! for t in 8..16 {
//!     let batch: Vec<Record> = (0..6).map(|id| Record::new(id, probe[t])).collect();
//!     recovered.ingest(&batch).unwrap();
//! }
//! let alarms = recovered.drain();
//! assert!(alarms.len() <= 6 * 16);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! ## Cross-node serving
//!
//! [`net`] removes the process boundary: a [`net::Node`] serves a
//! [`serve::Runtime`] over a framed, versioned, checksummed wire protocol
//! (blocking `std::net`, no async runtime), and a [`net::NetClient`]
//! exposes the same ingest/drain/checkpoint surface over the socket —
//! both implement [`serve::StreamService`], so drivers are generic over
//! where the monitors live. Above single nodes, [`net::Cluster`]
//! consistent-hashes stream ids over node endpoints and migrates live
//! streams between machines with the same two-phase snapshot discipline
//! rebalancing uses. Per-stream alarm sequences are invariant under all
//! of it. Every malformed frame, remote overflow, or misconfiguration
//! surfaces as a typed [`net::WireError`] — never a panic, never a
//! silently dropped connection.
//!
//! ```
//! use etsc::core::UcrDataset;
//! use etsc::early::ects::{Ects, EctsConfig};
//! use etsc::net::{Endpoint, Listener, NetClient, Node, NodeConfig};
//! use etsc::serve::{Record, Runtime, RuntimeConfig};
//! use etsc::stream::{StreamMonitorConfig, StreamNorm};
//!
//! // Fit a model and wrap a runtime in a node on a loopback socket.
//! let train = UcrDataset::new(
//!     (0..8)
//!         .map(|i| {
//!             let level = if i % 2 == 0 { 0.0 } else { 3.0 };
//!             (0..16).map(|j| level + 0.05 * ((i * 5 + j) % 7) as f64).collect()
//!         })
//!         .collect(),
//!     vec![0, 1, 0, 1, 0, 1, 0, 1],
//! )
//! .unwrap();
//! let ects = Ects::fit(&train, &EctsConfig::default());
//! let cfg = RuntimeConfig {
//!     shards: 2,
//!     monitor: StreamMonitorConfig {
//!         anchor_stride: 4,
//!         norm: StreamNorm::Raw,
//!         refractory: 20,
//!     },
//!     model_name: "ects".to_string(),
//!     ..RuntimeConfig::default()
//! };
//! let node = Node::new(Runtime::new(&ects, cfg).unwrap(), NodeConfig::default());
//! let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
//! let endpoint = listener.local_endpoint().unwrap();
//!
//! std::thread::scope(|s| {
//!     let server = s.spawn(|| node.serve(listener));
//!
//!     // A client across the wire has the Runtime surface: ingest
//!     // interleaved multi-stream batches, drain alarms, read metrics.
//!     let mut client = NetClient::connect(&endpoint).unwrap();
//!     let probe: Vec<f64> = train.series(1).to_vec();
//!     for t in 0..16 {
//!         let batch: Vec<Record> =
//!             (0..4).map(|id| Record::new(id, probe[t % probe.len()])).collect();
//!         client.ingest(&batch).unwrap();
//!     }
//!     let alarms = client.drain().unwrap();
//!     assert!(alarms.len() <= 4 * 16);
//!     assert_eq!(client.stream_count().unwrap(), 4);
//!     let metrics = client.stats_prometheus().unwrap();
//!     assert!(metrics.contains("etsc_serve_ingested_total 64"));
//!
//!     node.stop();
//!     server.join().unwrap().unwrap();
//! });
//! ```
//!
//! ## Observability
//!
//! [`core::metrics`] is the telemetry plane everything above reports
//! into: lock-free atomic counters and gauges, fixed-bucket log₂ latency
//! [histograms](core::metrics::Histogram) (O(1) wait-free recording,
//! mergeable snapshots, p50/p99/p999 readout), and an injectable
//! [`Clock`](core::metrics::Clock) — monotonic in production, manual in
//! tests, or disabled to turn every timing site into a no-op. Recording
//! never touches alarm bytes: the same traffic produces bit-identical
//! alarm sequences under any clock mode (`tests/metrics_e2e.rs` enforces
//! this). The serve runtime times drain cycles, sampled pushes,
//! checkpoint pauses, and migrations; the net layer adds per-message-kind
//! request service times, client RTTs, retry backoff, and failover
//! probes; all of it renders as Prometheus text exposition.
//!
//! ```
//! use etsc::core::metrics::Clock;
//! use etsc::core::UcrDataset;
//! use etsc::early::ects::{Ects, EctsConfig};
//! use etsc::serve::{Record, Runtime, RuntimeConfig};
//!
//! let train = UcrDataset::new(
//!     (0..8)
//!         .map(|i| {
//!             let level = if i % 2 == 0 { 0.0 } else { 3.0 };
//!             (0..16).map(|j| level + 0.05 * ((i * 5 + j) % 7) as f64).collect()
//!         })
//!         .collect(),
//!     vec![0, 1, 0, 1, 0, 1, 0, 1],
//! )
//! .unwrap();
//! let ects = Ects::fit(&train, &EctsConfig::default());
//! let mut rt = Runtime::new(
//!     &ects,
//!     RuntimeConfig { shards: 2, ..RuntimeConfig::default() },
//! )
//! .unwrap();
//! rt.set_clock(Clock::monotonic()); // the default; Clock::disabled() opts out
//!
//! for t in 0..32 {
//!     let batch: Vec<Record> = (0..4).map(|id| Record::new(id, t as f64)).collect();
//!     rt.ingest(&batch).unwrap();
//!     if (t + 1) % 8 == 0 {
//!         rt.drain();
//!     }
//! }
//!
//! // Quantiles read straight off the runtime's own histograms…
//! let stats = rt.stats();
//! assert!(stats.drain_cycle_ns.count() >= 4);
//! assert!(stats.drain_cycle_ns.p99() >= stats.drain_cycle_ns.p50());
//!
//! // …and the same snapshots render as Prometheus text exposition.
//! let text = stats.render_prometheus();
//! assert!(text.contains("etsc_serve_ingested_total 128"));
//! assert!(text.contains("# TYPE etsc_serve_drain_cycle_ns histogram"));
//! assert!(text.contains("etsc_serve_drain_cycle_ns_bucket{le=\"+Inf\"}"));
//! ```
//!
//! ## Tracing
//!
//! [`core::trace`] adds the causal layer on top of the metrics plane: a
//! [`Tracer`](core::trace::Tracer) is a cloneable handle over a bounded
//! wait-free span ring and a typed structured event log, with
//! deterministic span ids and the same injectable
//! [`Clock`](core::metrics::Clock) (disabled clock = every call a no-op).
//! A 16-byte [`TraceContext`](core::trace::TraceContext) — trace id plus
//! parent span — rides the wire protocol (v3) so **one trace id follows a
//! record across processes**: the cluster client opens a `ClientIngest`
//! root and a `ClientSend` per node, the node continues it as
//! `NodeIngest`, the runtime as `ShardEnqueue` → `ShardDrain` →
//! `AlarmEmit`, and failure handling stays inside the same trace
//! (`Migration`, `Redelivery` after a failover, plus
//! failover/retry/backoff events). Retained spans export as Chrome
//! `trace_event` JSON (load in `chrome://tracing` or Perfetto) — locally
//! via [`Runtime::export_trace`](serve::Runtime::export_trace), remotely
//! via [`net::Cluster::fetch_traces`] — and events render as text or JSON
//! lines. Tracing never touches alarm bytes: the same traffic produces
//! bit-identical alarm sequences with tracing on, off, or under a manual
//! clock (`tests/trace_e2e.rs` enforces this across a three-node cluster
//! with a live migration and a failover), and `bench_serve` holds the
//! recording path under the same 5% budget as telemetry.
//!
//! ```
//! use etsc::core::metrics::Clock;
//! use etsc::core::trace::{Scope, SpanKind, Tracer, TracerConfig};
//! use etsc::core::UcrDataset;
//! use etsc::early::ects::{Ects, EctsConfig};
//! use etsc::serve::{IngestMeta, Record, Runtime, RuntimeConfig};
//!
//! let train = UcrDataset::new(
//!     (0..8)
//!         .map(|i| {
//!             let level = if i % 2 == 0 { 0.0 } else { 3.0 };
//!             (0..16).map(|j| level + 0.05 * ((i * 5 + j) % 7) as f64).collect()
//!         })
//!         .collect(),
//!     vec![0, 1, 0, 1, 0, 1, 0, 1],
//! )
//! .unwrap();
//! let ects = Ects::fit(&train, &EctsConfig::default());
//! let mut rt = Runtime::new(
//!     &ects,
//!     RuntimeConfig { shards: 2, ..RuntimeConfig::default() },
//! )
//! .unwrap();
//!
//! // A tracer over a manual clock: deterministic timestamps. Cloning
//! // shares the buffers, so every layer records into one span set.
//! let tracer = Tracer::new(TracerConfig {
//!     clock: Clock::manual(),
//!     ..TracerConfig::default()
//! });
//! rt.set_tracer(tracer.clone());
//!
//! // Open a root scope (exactly what the net client does per batch) and
//! // hand its context to the runtime: enqueue and the next drain record
//! // ShardEnqueue → ShardDrain (→ AlarmEmit per alarm) under the root.
//! let mut root = Scope::root(Some(&tracer), SpanKind::ClientIngest);
//! let ctx = root.ctx();
//! for t in 0..8 {
//!     let batch: Vec<Record> = (0..4).map(|id| Record::new(id, t as f64)).collect();
//!     rt.ingest_with(&batch, IngestMeta { ctx, ..IngestMeta::default() }).unwrap();
//!     tracer.clock().advance_ns(1_000);
//! }
//! rt.drain();
//! root.finish(32, None);
//!
//! // Every span carries the trace id, parented back to the root...
//! let spans = tracer.spans();
//! assert!(spans.iter().any(|s| s.kind == SpanKind::ShardEnqueue));
//! assert!(spans.iter().any(|s| s.kind == SpanKind::ShardDrain));
//! assert!(spans.iter().all(|s| Some(s.trace_id) == ctx.map(|c| c.trace_id)));
//! assert_eq!(tracer.dropped_spans(), 0);
//!
//! // ...and the retained set exports as Chrome trace_event JSON.
//! let json = rt.export_trace("doc");
//! assert!(json.contains("\"traceEvents\""));
//! ```
//!
//! ## Fault tolerance
//!
//! The wire layer assumes the network fails and the serving layer assumes
//! nodes die. Requests carry a retry schedule ([`net::RetryPolicy`]:
//! capped exponential backoff with deterministic jitter), and every
//! [`net::WireError`] classifies itself — retryable transport fault,
//! known-unapplied rejection ([`busy / queue-full replies carry a
//! retry-after hint`](net::WireError::retry_after)), or permanent. Ingest
//! retries are made safe by idempotency tags: a client configured with a
//! nonzero [`net::ClientConfig::client_id`] tags each batch with a
//! sequence number, and a node that already applied it answers the retry
//! with a duplicate ack instead of applying it twice. Above that,
//! a [`net::Supervisor`] heartbeats every node in a cluster, declares a
//! node dead after consecutive missed probes, recovers its streams from
//! its registry checkpoint, and imports them into the survivors — while a
//! [`serve::DedupCursor`] at the alarm sink turns the checkpoint's
//! at-least-once re-delivery back into exactly-once delivery. All of it is
//! testable deterministically: a [`net::FaultInjector`] scripted by a
//! seeded [`net::FaultPlan`] injects refused connects, mid-frame
//! disconnects, read stalls, corrupted frames, and asymmetric partitions
//! underneath a real client, with no real clocks or entropy involved.
//!
//! ```
//! use std::time::Duration;
//!
//! use etsc::core::UcrDataset;
//! use etsc::early::ects::{Ects, EctsConfig};
//! use etsc::net::{
//!     ClientConfig, Cluster, Endpoint, Listener, Node, NodeConfig, RetryPolicy, Supervisor,
//!     SupervisorConfig,
//! };
//! use etsc::persist::ModelRegistry;
//! use etsc::serve::{DedupCursor, Record, Runtime, RuntimeConfig};
//! use etsc::stream::{StreamMonitorConfig, StreamNorm};
//!
//! let train = UcrDataset::new(
//!     (0..8)
//!         .map(|i| {
//!             let level = if i % 2 == 0 { 0.0 } else { 3.0 };
//!             (0..16).map(|j| level + 0.05 * ((i * 5 + j) % 7) as f64).collect()
//!         })
//!         .collect(),
//!     vec![0, 1, 0, 1, 0, 1, 0, 1],
//! )
//! .unwrap();
//! let ects = Ects::fit(&train, &EctsConfig::default());
//! let cfg = RuntimeConfig {
//!     monitor: StreamMonitorConfig {
//!         anchor_stride: 4,
//!         norm: StreamNorm::Raw,
//!         refractory: 20,
//!     },
//!     model_name: "ects".to_string(),
//!     ..RuntimeConfig::default()
//! };
//!
//! // Two nodes; node 0 checkpoints every batch into a registry the
//! // supervisor can reach — that checkpoint is what failover recovers.
//! let root = std::env::temp_dir().join(format!("etsc-ft-doc-{}", std::process::id()));
//! let dirs = vec![root.join("node0"), root.join("node1")];
//! let mut rt0 = Runtime::new(&ects, cfg.clone()).unwrap();
//! rt0.enable_checkpoints(ModelRegistry::open(&dirs[0]).unwrap(), 1).unwrap();
//! let node0 = Node::new(rt0, NodeConfig::default());
//! let node1 = Node::new(Runtime::new(&ects, cfg).unwrap(), NodeConfig::default());
//! let (l0, l1) = (
//!     Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap(),
//!     Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap(),
//! );
//! let (e0, e1) = (l0.local_endpoint().unwrap(), l1.local_endpoint().unwrap());
//!
//! std::thread::scope(|s| {
//!     let s0 = s.spawn(|| node0.serve(l0));
//!     let s1 = s.spawn(|| node1.serve(l1));
//!
//!     // Fail fast against a dead node, and tag batches (nonzero id) so
//!     // ingest retries are idempotent.
//!     let client_cfg = ClientConfig {
//!         request_timeout: Duration::from_millis(200),
//!         retry: RetryPolicy {
//!             max_attempts: 2,
//!             base_delay: Duration::from_millis(1),
//!             max_delay: Duration::from_millis(5),
//!             jitter_seed: 7,
//!         },
//!         client_id: 1,
//!         ..ClientConfig::default()
//!     };
//!     let mut cluster = Cluster::connect_with(&[e0, e1], client_cfg).unwrap();
//!     for id in 0..4 {
//!         cluster.open_stream(id).unwrap();
//!     }
//!     cluster.migrate(&[0, 1], 0).unwrap();
//!     cluster.migrate(&[2, 3], 1).unwrap();
//!
//!     // Live traffic; alarms pass through a dedup cursor at the sink.
//!     let mut sink = DedupCursor::default();
//!     let probe: Vec<f64> = train.series(1).to_vec();
//!     for t in 0..8 {
//!         let batch: Vec<Record> = (0..4).map(|id| Record::new(id, probe[t])).collect();
//!         cluster.ingest(&batch).unwrap();
//!     }
//!     let _ = sink.filter(cluster.drain().unwrap());
//!
//!     // Kill node 0 for real. The next ingest errors once; the lost
//!     // sub-batch is stashed, the survivor's half was applied.
//!     node0.stop();
//!     s0.join().unwrap().unwrap();
//!     let batch: Vec<Record> = (0..4).map(|id| Record::new(id, probe[8])).collect();
//!     assert!(cluster.ingest(&batch).is_err());
//!
//!     // One missed heartbeat declares it dead; its streams come back on
//!     // the survivor, recovered from the checkpoint.
//!     let sup_cfg = SupervisorConfig {
//!         miss_threshold: 1,
//!         ..SupervisorConfig::new(dirs.clone(), "ects")
//!     };
//!     let mut sup: Supervisor<Ects> = Supervisor::new(sup_cfg);
//!     let reports = sup.tick(&mut cluster).unwrap();
//!     assert_eq!(reports.len(), 1);
//!     assert_eq!(reports[0].node, 0);
//!     cluster.apply_failover(&reports[0]).unwrap();
//!
//!     // Checkpoint recovery re-delivers alarms at-least-once; the sink's
//!     // cursor drops anything it has already seen — exactly-once overall.
//!     let _ = sink.filter(reports[0].redelivered.clone());
//!
//!     // Every stream is served again and traffic flows, with the stashed
//!     // batch settled.
//!     assert_eq!(cluster.stream_count().unwrap(), 4);
//!     assert_eq!(cluster.pending_batches(), 0);
//!     let batch: Vec<Record> = (0..4).map(|id| Record::new(id, probe[9])).collect();
//!     cluster.ingest(&batch).unwrap();
//!
//!     node1.stop();
//!     s1.join().unwrap().unwrap();
//! });
//! # let _ = std::fs::remove_dir_all(&root);
//! ```
//!
//! ## Subsequence search and the threading model
//!
//! Long-stream search (the Fig 5 homophone hunt, Fig 8's 500 dustbathing
//! neighbors) runs on [`core::nn::BatchProfile`]: build the engine once per
//! haystack — a single cumulative-statistics pass
//! ([`core::nn::CumStats`]) makes every window's mean/std O(1) — then issue
//! as many queries as you like. Per query the only O(m) work left is a
//! blocked, SIMD-dispatched dot product;
//! [`nearest`](core::nn::BatchProfile::nearest) additionally prunes windows
//! that cannot beat the best match so far via the dot-product identity.
//! The free functions ([`core::nn::distance_profile`], …) wrap a throwaway
//! engine for one-shot calls, and
//! [`core::nn::select_within`] / [`core::nn::select_top_k`] re-select
//! matches from an existing profile so threshold sweeps don't rescan.
//!
//! Heavy stages fan out across worker threads via [`core::parallel`] — the
//! profile engine (haystack chunks), the ECTS pairwise fit, TEASER's
//! per-snapshot fits, batch evaluation, and multi-anchor stream servicing.
//! The worker count comes from the `ETSC_THREADS` environment variable
//! (default: all cores; `1` = fully serial), and parallelism is a pure
//! performance knob: work is split into contiguous chunks and stitched in
//! input order, every per-item computation is identical to the serial
//! loop, and there are no atomics or reduction-order races — results are
//! **bit-identical at any thread count** (the `parallel_equivalence`
//! integration tests pin this at 1, 2, and 7 workers).
//!
//! ```
//! use etsc::core::nn::BatchProfile;
//! use etsc::core::parallel;
//!
//! // One engine, many queries: the haystack statistics pass runs once.
//! let haystack: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.1).sin()).collect();
//! let needle: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
//! let other: Vec<f64> = (0..50).map(|i| (i as f64 * 0.23).cos()).collect();
//!
//! let engine = BatchProfile::new(&haystack);
//! let profiles = engine.profiles(&[&needle, &other]);
//! assert_eq!(profiles[0].len(), haystack.len() - needle.len() + 1);
//!
//! // The planted shape matches (z-normalized distance ~ 0)...
//! let hit = engine.nearest(&needle).unwrap();
//! assert!(hit.dist < 1e-6);
//! // ...and the worker count never changes results, only wall-clock.
//! let serial = parallel::with_threads(1, || engine.profile(&needle));
//! let parallel = parallel::with_threads(4, || engine.profile(&needle));
//! assert_eq!(serial, parallel);
//! ```
//!
//! ## Invariants, enforced
//!
//! The guarantees above — bit-identical replay, deterministic alarm order,
//! typed errors instead of panics — are machine-checked, not conventions.
//! CI runs `cargo clippy --workspace --all-targets -- -D warnings`, and
//! five rules ride on it:
//!
//! | rule | clippy lint | enabled in |
//! |---|---|---|
//! | **determinism**: no ambient clock | `disallowed_methods` (`Instant::now`, `SystemTime::now`) | root `clippy.toml`; `crates/bench` and the criterion shim opt out in their `Cargo.toml` |
//! | **ordered-iteration**: no hash-ordered collections (one reviewed exemption: the serve shard's lookup-only, never-iterated stream id → slot index) | `disallowed_types` (`HashMap`, `HashSet`) | root `clippy.toml`, every crate |
//! | **panic-freedom**: no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`/bare indexing | `unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented`, `indexing_slicing` | `#![warn]` in the serve, net and persist `lib.rs`; unit tests exempt via `clippy.toml` |
//! | **cast-safety**: no narrowing or sign-changing `as` casts in the frozen codecs | `cast_possible_truncation`, `cast_sign_loss`, `cast_possible_wrap` | `#![warn]` atop `persist/src/lib.rs` (the whole crate) and `net/src/wire.rs` |
//! | **lock-hygiene**: no path holds two locks | `disallowed_methods` (`Mutex::lock`, `RwLock::{read, write}`) | root `clippy.toml`, every crate |
//!
//! An exemption is `#[expect(<lint>, reason = "…")]` on the one statement
//! or fn that needs it — each lock acquisition's reason states it is the
//! only lock its module takes. An `#[expect]` whose lint stops firing
//! raises `unfulfilled_lint_expectations`, so a stale exemption fails the
//! same gate, and a deliberate true positive per rule (e.g. the `HashMap`
//! in `etsc-persist`'s unit tests) proves the configuration still bites.
//! Performance is watched the same way:
//! CI re-runs the quick benchmarks and `bench_diff` (in `crates/bench`)
//! compares every metric of the fresh `BENCH_*.json` reports against the
//! committed baselines in `crates/bench/baselines/`, printing a
//! direction-aware regression table (warn-only in CI, `--deny` for local
//! A/B runs on quiet hardware).

pub use etsc_audit as audit;
pub use etsc_classifiers as classifiers;
pub use etsc_core as core;
pub use etsc_datasets as datasets;
pub use etsc_early as early;
pub use etsc_net as net;
pub use etsc_persist as persist;
pub use etsc_serve as serve;
pub use etsc_stream as stream;
