//! The sharded serving runtime: many streams, per-shard workers, batched
//! ingestion, live rebalancing, and crash recovery.
//!
//! # Execution model
//!
//! A [`Runtime`] owns N **shards**; each shard owns the
//! [`StreamMonitor`]s of the streams routed to it (see
//! [`ShardRouter`]) plus a bounded queue of not-yet-processed records.
//! [`ingest_with`](Runtime::ingest_with) (and [`ingest`](Runtime::ingest),
//! its untagged, untraced form) only *routes* — it appends each record to
//! its shard's queue (auto-opening unknown streams) and applies the
//! configured [`OverflowPolicy`] when a queue is full. An [`IngestMeta`]
//! rides along: an idempotency tag that makes retried delivery
//! exactly-once, and a wire trace context.
//! [`drain`](Runtime::drain) does the work: every shard's queue is
//! processed by a worker thread (scoped fan-out via [`etsc_core::parallel`],
//! worker count from `ETSC_THREADS` or the explicit
//! [`RuntimeConfig::threads`] override), in queue order, and the produced
//! alarms are returned sorted by the global ingest sequence number.
//!
//! A shard keeps its monitors in a dense slab (`Vec`), one slot per
//! stream. [`ingest`](Runtime::ingest) resolves a record's stream id to its
//! slot once, through a lookup-only `HashMap` index, and the queued record
//! carries the slot, so the drain indexes the slab directly: per record the
//! runtime does one hash lookup and writes the live-depth gauges once per
//! batch. Slots move only while every queue is empty — a stream leaves the
//! slab by `swap_remove` in [`close_stream`](Runtime::close_stream) and
//! [`export_streams`](Runtime::export_streams), and
//! [`rebalance`](Runtime::rebalance) rebuilds every slab; each drains the
//! queues first. Nothing iterates the index: every walk whose result
//! escapes (checkpoint bytes, [`stream_ids`](Runtime::stream_ids)) visits
//! shards in order and ids ascending within each, so slot and hash order
//! never reach bytes, alarms or callers.
//!
//! Batching is what amortizes the fan-out: a scoped spawn costs ~10µs per
//! worker, so the intended shape is "ingest a few thousand records, drain
//! once", not "drain after every sample". Correctness never depends on the
//! batching: records of one stream are processed in ingest order regardless
//! of batch boundaries, shard count, or worker count.
//!
//! # Determinism
//!
//! Each stream's monitor sees exactly the samples ingested for that stream,
//! in order — no matter which shard owns it or how many worker threads
//! service the shards. Per-stream alarm sequences are therefore **invariant
//! under the shard count, the worker count, and mid-run rebalancing**
//! (bit-exact for [`StreamNorm::Raw`](etsc_stream::StreamNorm::Raw); the
//! per-prefix norm is equally deterministic, its documented fp tolerance
//! applies only to comparisons against offline batch renormalization).
//! The tagged global sequence numbers make even the *interleaving*
//! reproducible: [`drain`](Runtime::drain) output is sorted by the sequence
//! number of the triggering sample.
//!
//! # Migration and recovery
//!
//! Both reuse the persistence substrate rather than inventing a second
//! serialization: a stream moves across a process boundary as a
//! `(model name, anchor snapshot)` pair, exactly the follow-on the
//! checkpoint layer was built for —
//! [`export_streams`](Runtime::export_streams) /
//! [`import_streams`](Runtime::import_streams) ship
//! [`StreamMonitor::snapshot_anchors`] bytes to
//! [`StreamMonitor::resume_anchors`] (refractory clocks included), so alarm
//! sequences are unchanged across a migration. Within one process,
//! [`rebalance`](Runtime::rebalance) drains, then moves every monitor to its
//! new shard by value: no bytes are written.
//! [`checkpoint`](Runtime::checkpoint) persists the fitted model plus every
//! stream's anchor snapshot (and any undelivered alarms) into a
//! [`ModelRegistry`]; [`recover`](Runtime::recover) rebuilds the whole
//! runtime from those bytes in a fresh process.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroU64;
use std::path::Path;

use etsc_core::metrics::{Clock, Gauge, Histogram};
use etsc_core::parallel;
use etsc_core::trace::{self, EventKind, Scope, Severity, SpanKind, TraceContext, Tracer};
use etsc_early::EarlyClassifier;
use etsc_persist::{Encoder, ModelRegistry, Persist, PersistError};
use etsc_stream::{Alarm, StreamMonitor, StreamMonitorConfig, StreamNorm};

use crate::error::ServeError;
use crate::router::ShardRouter;
use crate::shard::Shard;
use crate::stats::ServeStats;

/// Envelope kind tag for [`Runtime::checkpoint`] state.
pub const SERVE_STATE_KIND: &str = "ServeRuntimeState";

/// Registry entry name holding the runtime state for model `name` (the
/// model itself lives under `name`).
fn state_entry_name(model_name: &str) -> String {
    format!("{model_name}.serve")
}

/// What [`Runtime::ingest`] does when a record's shard queue is full.
///
/// Neither policy panics and neither drops data silently — the explicit
/// backpressure contract of the ingestion path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Apply backpressure by doing the work: the runtime drains every
    /// shard's queue in place (alarms are buffered for the next
    /// [`drain`](Runtime::drain)) and then enqueues the record. Ingestion
    /// never fails for capacity reasons; the queue bound caps memory, not
    /// throughput.
    Block,
    /// Reject the batch with [`ServeError::QueueFull`]. The rejection is
    /// **atomic** — no record of the offending batch is enqueued — so the
    /// caller can drain and retry the whole batch.
    Reject,
}

/// Serving runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Number of shards (each serviced by one worker during a drain).
    pub shards: usize,
    /// Bounded per-shard queue capacity, in records.
    pub queue_capacity: usize,
    /// Policy when a shard queue is full at ingest time.
    pub overflow: OverflowPolicy,
    /// Monitor configuration applied to every stream.
    pub monitor: StreamMonitorConfig,
    /// Registry name the fitted model is checkpointed under; each stream's
    /// snapshot references it, and recovery demands it be present.
    pub model_name: String,
    /// Explicit worker-thread count for drains (tests pin 1/2/7 here);
    /// `None` resolves via [`etsc_core::parallel::num_threads`]
    /// (`ETSC_THREADS`, default all cores). Worker count never changes
    /// results, only wall-clock.
    pub threads: Option<usize>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            overflow: OverflowPolicy::Block,
            monitor: StreamMonitorConfig::default(),
            model_name: "model".to_string(),
            threads: None,
        }
    }
}

/// One ingested sample: a stream id and its next value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Stream the sample belongs to.
    pub stream: u64,
    /// The sample.
    pub value: f64,
}

impl Record {
    /// Convenience constructor.
    pub fn new(stream: u64, value: f64) -> Self {
        Self { stream, value }
    }
}

/// What [`Runtime::ingest_with`] is told about a batch besides its records.
/// The default is an untagged, untraced batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestMeta {
    /// Idempotency tag `(client, seq)`: the runtime remembers the highest
    /// `seq` applied per client and skips a batch at or below it. `None`
    /// is untagged, and the batch always applies (the wire spells it
    /// client 0).
    pub tag: Option<(NonZeroU64, u64)>,
    /// Wire trace context: with one and an enabled tracer, the batch's
    /// routing is recorded as one `ShardEnqueue` span per touched shard
    /// under its parent span, and the next drain of those shards parents
    /// its `ShardDrain`/`AlarmEmit` spans under them.
    pub ctx: Option<TraceContext>,
}

/// An alarm attributed to a stream, tagged with the global ingest sequence
/// number of the sample that triggered it.
///
/// `seq` makes drained output totally ordered and reproducible: the same
/// traffic yields the same sorted alarm list at any shard/worker count.
/// `alarm.time` remains the *per-stream* sample index (each stream has its
/// own clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamAlarm {
    /// Stream that alarmed.
    pub stream: u64,
    /// Global ingest sequence number of the triggering sample.
    pub seq: u64,
    /// The monitor alarm (per-stream time/anchor/label/confidence).
    pub alarm: Alarm,
}

/// The runtime's latency/size histograms. Lock-free (`&self` recording),
/// shared by reference with the shard workers during a parallel drain.
struct RuntimeMetrics {
    drain_cycle_ns: Histogram,
    push_ns: Histogram,
    checkpoint_pause_ns: Histogram,
    checkpoint_bytes: Histogram,
    migration_ns: Histogram,
    /// Live total queue depth across all shards, updated at every ingest,
    /// reject, and drain — a scraper between drains sees the actual
    /// backlog, not a stale drain-time value.
    queue_depth: Gauge,
    /// High-water mark of the live depth over the runtime's life (survives
    /// rebalances, unlike the per-shard topology-scoped marks).
    queue_depth_high_water: Gauge,
}

impl RuntimeMetrics {
    fn new() -> Self {
        Self {
            drain_cycle_ns: Histogram::new(),
            push_ns: Histogram::new(),
            checkpoint_pause_ns: Histogram::new(),
            checkpoint_bytes: Histogram::new(),
            migration_ns: Histogram::new(),
            queue_depth: Gauge::new(),
            queue_depth_high_water: Gauge::new(),
        }
    }
}

/// Periodic-checkpoint schedule installed by
/// [`Runtime::enable_checkpoints`].
struct AutoCheckpoint {
    registry: ModelRegistry,
    every: u64,
    last_at: u64,
}

/// The sharded multi-stream serving runtime (see the [module docs](self)).
pub struct Runtime<'a, C: EarlyClassifier + ?Sized> {
    clf: &'a C,
    cfg: RuntimeConfig,
    router: ShardRouter,
    shards: Vec<Shard<'a, C>>,
    /// Global ingest sequence number of the next record.
    seq: u64,
    /// Alarms produced by implicit flushes (backpressure, rebalance,
    /// checkpoint), awaiting the next [`drain`](Self::drain).
    pending: Vec<StreamAlarm>,
    auto: Option<AutoCheckpoint>,
    /// Per-client ingest cursors: the highest batch sequence number applied
    /// for each tagged client (see [`IngestMeta::tag`]). Checkpointed, so
    /// dedup survives crash + recovery.
    clients: BTreeMap<u64, u64>,
    // Runtime-lifetime counters (per-shard counters reset with topology).
    ingested: u64,
    rejected_batches: u64,
    duplicate_batches: u64,
    rebalances: u64,
    migrated_streams: u64,
    checkpoints: u64,
    last_checkpoint_bytes: usize,
    retired_pushes: u64,
    retired_alarms: u64,
    /// Timing source for the latency histograms below. Monotonic by
    /// default; swap in a manual clock for deterministic tests or a
    /// disabled one to measure the uninstrumented baseline
    /// ([`set_clock`](Self::set_clock)). Alarm content never reads it.
    clock: Clock,
    metrics: RuntimeMetrics,
    /// Optional distributed-tracing handle ([`set_tracer`](Self::set_tracer)).
    /// Like the clock, it only feeds telemetry — alarm content never
    /// depends on whether (or how) the runtime is traced.
    tracer: Option<Tracer>,
    /// The most recent wire trace context a traced ingest carried; the
    /// parent for checkpoint/migration spans, so maintenance work triggered
    /// by a traced record stays connected to its trace.
    last_ctx: Option<TraceContext>,
}

impl<'a, C: EarlyClassifier + ?Sized> Runtime<'a, C> {
    /// Build an empty runtime over a fitted classifier.
    pub fn new(clf: &'a C, cfg: RuntimeConfig) -> Result<Self, ServeError> {
        if cfg.shards == 0 {
            return Err(ServeError::BadConfig("shard count must be ≥ 1".into()));
        }
        if cfg.queue_capacity == 0 {
            return Err(ServeError::BadConfig("queue capacity must be ≥ 1".into()));
        }
        if cfg.monitor.anchor_stride == 0 {
            return Err(ServeError::BadConfig("anchor stride must be ≥ 1".into()));
        }
        if cfg.threads == Some(0) {
            return Err(ServeError::BadConfig(
                "thread override must be ≥ 1 (use None for the ETSC_THREADS default)".into(),
            ));
        }
        let router = ShardRouter::new(cfg.shards);
        let shards = (0..cfg.shards).map(|_| Shard::new()).collect();
        Ok(Self {
            clf,
            cfg,
            router,
            shards,
            seq: 0,
            pending: Vec::new(),
            auto: None,
            clients: BTreeMap::new(),
            ingested: 0,
            rejected_batches: 0,
            duplicate_batches: 0,
            rebalances: 0,
            migrated_streams: 0,
            checkpoints: 0,
            last_checkpoint_bytes: 0,
            retired_pushes: 0,
            retired_alarms: 0,
            clock: Clock::monotonic(),
            metrics: RuntimeMetrics::new(),
            tracer: None,
            last_ctx: None,
        })
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Replace the timing source behind the latency histograms (see
    /// [`ServeStats`] for what is measured). The default is
    /// [`Clock::monotonic`]; hand in [`Clock::manual`] for deterministic
    /// timing in tests, or [`Clock::disabled`] to skip every timing read
    /// (the baseline half of the instrumentation-overhead A/B in
    /// `bench_serve`). The clock only feeds telemetry — alarm sequences
    /// are identical under every clock mode.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// The clock currently feeding the latency histograms (clones share
    /// the time source, so a test can step a manual clock it installed).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Install a distributed-tracing handle. Clones share buffers, so
    /// handing the same tracer to this runtime and its node collects one
    /// process-wide span set. A tracer over a [`Clock::disabled`] clock
    /// (or no tracer at all — the default) records nothing and costs
    /// nothing; either way alarm sequences are bit-identical.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Render this runtime's retained spans as Chrome `trace_event` JSON
    /// stamped with `process`. Without a tracer, a complete empty trace
    /// document (so callers can always hand the result to a viewer).
    pub fn export_trace(&self, process: &str) -> String {
        match &self.tracer {
            Some(t) => t.export_chrome(process),
            None => trace::export::chrome_trace_json(process, &[], 0),
        }
    }

    /// Current shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Streams currently live across all shards.
    pub fn stream_count(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Records routed but not yet processed, across all shard queues.
    pub fn queued(&self) -> usize {
        self.shards.iter().map(Shard::queued).sum()
    }

    /// True if a monitor exists for `stream`.
    pub fn contains_stream(&self, stream: u64) -> bool {
        self.shards
            .get(self.router.route(stream))
            .is_some_and(|s| s.contains(stream))
    }

    /// Worker count for the next drain.
    fn worker_threads(&self) -> usize {
        self.cfg
            .threads
            .unwrap_or_else(parallel::num_threads)
            .max(1)
    }

    /// A timed, traced scope for maintenance work: its span of `kind`
    /// joins the last traced ingest's trace.
    fn maintenance_scope(&self, kind: SpanKind) -> Scope {
        Scope::child(self.tracer.as_ref(), self.last_ctx, kind).timed(&self.clock)
    }

    /// Open a monitor for `stream` without ingesting anything; returns
    /// `false` if the stream was already live. (Ingest auto-opens unknown
    /// streams, so this is only needed to pre-warm assignments.)
    pub fn open_stream(&mut self, stream: u64) -> bool {
        // `route` always lands below `shards.len()` (router and shard vec
        // change together); the `else` arm is unreachable but panic-free.
        let Some(shard) = self.shards.get_mut(self.router.route(stream)) else {
            return false;
        };
        !shard.contains(stream)
            && shard.insert(stream, StreamMonitor::new(self.clf, self.cfg.monitor))
    }

    /// Retire `stream` and discard its in-flight anchors; returns `false`
    /// if no such stream was live. Pending queues are drained first (the
    /// produced alarms are buffered for the next [`drain`](Self::drain)),
    /// so no already-ingested sample of the stream is silently dropped.
    pub fn close_stream(&mut self, stream: u64) -> bool {
        self.flush_all();
        self.shards
            .get_mut(self.router.route(stream))
            .is_some_and(|s| s.remove(stream).is_some())
    }

    /// [`ingest_with`](Self::ingest_with) an untagged, untraced batch.
    pub fn ingest(&mut self, batch: &[Record]) -> Result<(), ServeError> {
        self.ingest_with(batch, IngestMeta::default()).map(drop)
    }

    /// Route a batch of records into the shard queues; `Ok(false)` means
    /// the batch's tag showed it already applied, and nothing was queued.
    ///
    /// Unknown stream ids auto-open a monitor. Records are *not* processed
    /// here (see [`drain`](Self::drain)) unless a queue fills under
    /// [`OverflowPolicy::Block`], which flushes in place. Under
    /// [`OverflowPolicy::Reject`] an overflowing batch is refused atomically
    /// with [`ServeError::QueueFull`]. Samples of one stream are processed
    /// in ingest order, across any batching, sharding, or threading.
    ///
    /// A tagged batch at or below its client's cursor is skipped without
    /// touching any queue or recording any span, and counted in
    /// [`ServeStats::duplicate_batches`] — which is how a client retrying a
    /// batch whose acknowledgement was lost learns the original attempt
    /// landed, upgrading retried delivery from at-least-once to
    /// exactly-once. The cursor advances *before* any due periodic
    /// checkpoint is cut, so a checkpoint covering the batch also covers
    /// its dedup state.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] means **no record was enqueued** and the
    /// client's cursor did not move — drain and retry the whole batch, tag
    /// and all. Any other error can only come from a due periodic
    /// checkpoint (see [`enable_checkpoints`](Self::enable_checkpoints))
    /// failing to write; the batch **was fully accepted** — do not
    /// re-ingest it. The failed checkpoint is not retried until the next
    /// interval elapses.
    pub fn ingest_with(&mut self, batch: &[Record], meta: IngestMeta) -> Result<bool, ServeError> {
        if let Some((client, seq)) = meta.tag {
            if self
                .clients
                .get(&client.get())
                .is_some_and(|&cur| seq <= cur)
            {
                self.duplicate_batches += 1;
                return Ok(false);
            }
        }
        self.enqueue_batch(batch, meta.ctx)?;
        if let Some((client, seq)) = meta.tag {
            self.clients.insert(client.get(), seq);
        }
        self.maybe_auto_checkpoint()?;
        Ok(true)
    }

    /// The per-client ingest cursors (client id → highest applied batch
    /// seq). A supervisor reads these off a recovered runtime to decide
    /// which in-flight batches the checkpoint already covers.
    pub fn ingest_cursors(&self) -> &BTreeMap<u64, u64> {
        &self.clients
    }

    /// Route the batch into the shard queues for
    /// [`ingest_with`](Self::ingest_with), without consulting the cursors
    /// or the checkpoint schedule.
    fn enqueue_batch(
        &mut self,
        batch: &[Record],
        ctx: Option<TraceContext>,
    ) -> Result<(), ServeError> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.cfg.overflow == OverflowPolicy::Reject {
            // Pre-scan so the rejection is atomic: either every record fits
            // in its queue, or none is enqueued.
            let mut incoming = vec![0usize; self.shards.len()];
            for r in batch {
                let s = self.router.route(r.stream);
                // route() < shards.len() == incoming.len() by construction
                // (router and shard vec change together), so the entry
                // exists; the fallback merely skips counting.
                let pending = incoming
                    .get_mut(s)
                    .map(|c| {
                        *c += 1;
                        *c
                    })
                    .unwrap_or(1);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "route() < shards.len() by construction — router and shard vec change together"
                )]
                let queued_here = self.shards[s].queued();
                if queued_here + pending > self.cfg.queue_capacity {
                    self.rejected_batches += 1;
                    if let Some(t) = self.tracer.as_ref() {
                        t.event(
                            Severity::Warn,
                            EventKind::QueueFull,
                            s as u64,
                            queued_here as u64,
                        );
                    }
                    // The depth did not change, but a rejection is one of
                    // the moments a scraper most wants a fresh gauge.
                    self.metrics.queue_depth.set(self.queued() as u64);
                    return Err(ServeError::QueueFull {
                        shard: s,
                        stream: r.stream,
                        capacity: self.cfg.queue_capacity,
                    });
                }
            }
        }
        // A traced batch records one ShardEnqueue span per shard it touched,
        // in first-touch order, which the routing loop notes in `touched`.
        // Untraced, `seen` stays empty and the note is one failed lookup.
        let ctx = ctx.filter(|_| self.tracer.as_ref().is_some_and(Tracer::enabled));
        let started = ctx.and(self.tracer.as_ref()).map_or(0, Tracer::start);
        let mut seen = if ctx.is_some() {
            vec![false; self.shards.len()]
        } else {
            Vec::new()
        };
        let mut touched = Vec::new();
        let clf = self.clf;
        let monitor_cfg = self.cfg.monitor;
        // The live-depth gauges are written once per batch and before each
        // Block-policy flush: the depth only rises between flushes, so the
        // high-water mark still catches every peak.
        let mut depth = self.queued() as u64;
        for r in batch {
            let s = self.router.route(r.stream);
            if let Some(first) = seen.get_mut(s).filter(|done| !**done) {
                *first = true;
                touched.push(s);
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "route() < shards.len() by construction — router and shard vec change together"
            )]
            if self.shards[s].queued() >= self.cfg.queue_capacity {
                // Block policy: backpressure by doing the work now.
                self.metrics.queue_depth_high_water.record_max(depth);
                self.flush_all();
                depth = 0;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "route() < shards.len() by construction; a borrow-precise direct index keeps `self.seq` readable below"
            )]
            self.shards[s].enqueue(self.seq, r.stream, r.value, || {
                StreamMonitor::new(clf, monitor_cfg)
            });
            depth += 1;
            self.seq += 1;
            self.ingested += 1;
        }
        self.metrics.queue_depth.set(depth);
        self.metrics.queue_depth_high_water.record_max(depth);
        if let (Some(ctx), Some(tracer)) = (ctx, &self.tracer) {
            self.last_ctx = Some(ctx);
            // The spans sit under the wire context's parent; each shard's
            // trace slot (latest traced ingest wins) lets its next drain
            // continue the chain.
            for s in touched {
                let span = tracer.span(
                    SpanKind::ShardEnqueue,
                    ctx.trace_id,
                    ctx.parent_span,
                    started,
                    s as u64,
                );
                if let Some(shard) = self.shards.get_mut(s) {
                    shard.trace = Some((ctx.trace_id, span));
                }
            }
        }
        Ok(())
    }

    /// Process every queued record (all shards in parallel) and return all
    /// produced alarms — including any buffered by implicit flushes — sorted
    /// by global ingest sequence number.
    pub fn drain(&mut self) -> Vec<StreamAlarm> {
        self.flush_all();
        self.pending.sort_by_key(|a| a.seq);
        std::mem::take(&mut self.pending)
    }

    /// Process all shard queues, buffering alarms into `self.pending`.
    ///
    /// One worker per shard (bounded by the configured thread count); each
    /// shard's queue is processed serially in ingest order, so worker count
    /// cannot change what any monitor sees.
    fn flush_all(&mut self) {
        if self.queued() == 0 {
            // A drain right after a rebalance/checkpoint (which flush
            // internally) must not pay the scoped-spawn round for nothing.
            return;
        }
        let timer = Scope::timer(&self.clock);
        let threads = self.worker_threads().min(self.shards.len());
        // Field-precise borrows: the workers mutate the shards while
        // recording into the (lock-free, `&self`) histograms.
        let clock = &self.clock;
        let push_ns = &self.metrics.push_ns;
        let tracer = self.tracer.as_ref();
        let batches = parallel::map_mut_with(threads, &mut self.shards, |shard| {
            shard.process_queue(clock, push_ns, tracer)
        });
        for batch in batches {
            self.pending.extend(batch);
        }
        // Every queue is empty after a flush — the live gauge says so
        // immediately, not at the next stats() call.
        self.metrics.queue_depth.set(0);
        timer.stop(&self.metrics.drain_cycle_ns);
    }

    /// Re-shard the runtime to `new_shards` workers, moving every monitor
    /// by value into the shard the new router assigns it — refractory
    /// clocks, lanes and pooled sessions included — so alarm sequences are
    /// unchanged across the move. Nothing is serialized: within one process
    /// a monitor is the state a snapshot would carry.
    ///
    /// Pending queues are drained first (alarms buffered for the next
    /// [`drain`](Self::drain)). The only error is a shard count of 0, which
    /// leaves the topology exactly as it was.
    pub fn rebalance(&mut self, new_shards: usize) -> Result<(), ServeError> {
        if new_shards == 0 {
            return Err(ServeError::BadConfig("shard count must be ≥ 1".into()));
        }
        self.flush_all();
        let scope = self.maintenance_scope(SpanKind::Migration);
        let new_router = ShardRouter::new(new_shards);
        let old = std::mem::replace(
            &mut self.shards,
            (0..new_shards).map(|_| Shard::new()).collect(),
        );
        let mut n_migrated = 0u64;
        for (idx, shard) in old.into_iter().enumerate() {
            self.retired_pushes += shard.pushes;
            self.retired_alarms += shard.alarms;
            for (id, monitor) in shard.into_monitors() {
                let target = new_router.route(id);
                n_migrated += u64::from(target != idx);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "target < new_shards == shards.len() by construction; silently dropping a monitor would be worse than the impossible panic"
                )]
                self.shards[target].insert(id, monitor);
            }
        }
        self.router = new_router;
        self.cfg.shards = new_shards;
        self.rebalances += 1;
        self.migrated_streams += n_migrated;
        scope.event(
            Severity::Info,
            EventKind::Migration,
            n_migrated,
            new_shards as u64,
        );
        scope.finish(n_migrated, Some(&self.metrics.migration_ns));
        Ok(())
    }

    /// Export streams for a cross-runtime (typically cross-node) migration:
    /// each returned entry is the stream id and its anchor-snapshot bytes
    /// (the exact [`StreamMonitor::snapshot_anchors`] envelope that
    /// [`import_streams`](Self::import_streams) resumes from). Pending queues are drained first, so the snapshot
    /// reflects every already-ingested sample; the produced alarms stay
    /// buffered for the next [`drain`](Self::drain).
    ///
    /// The export is **two-phase**: all requested streams are snapshotted
    /// before any is removed, so an error (an unknown stream id, a stream
    /// listed twice, a third-party session without checkpoint support)
    /// leaves the runtime exactly as it was. On success the exported streams
    /// are retired here — their monitors are gone and subsequent records for
    /// those ids would auto-open fresh monitors, so callers move the bytes to
    /// their new owner before resuming ingestion.
    pub fn export_streams(&mut self, streams: &[u64]) -> Result<Vec<(u64, Vec<u8>)>, ServeError> {
        self.flush_all();
        let scope = self.maintenance_scope(SpanKind::Migration);
        // Phase 1 (fallible, read-only): snapshot every requested stream.
        let mut out = Vec::with_capacity(streams.len());
        let mut listed = BTreeSet::new();
        for &id in streams {
            if !listed.insert(id) {
                return Err(ServeError::DuplicateStream { stream: id });
            }
            let monitor = self
                .shards
                .get(self.router.route(id))
                .and_then(|s| s.get(id))
                .ok_or(ServeError::UnknownStream { stream: id })?;
            out.push((id, monitor.snapshot_anchors()?));
        }
        // Phase 2 (infallible): retire the exported monitors.
        for &id in streams {
            if let Some(shard) = self.shards.get_mut(self.router.route(id)) {
                shard.remove(id);
            }
        }
        let n = streams.len() as u64;
        self.migrated_streams += n;
        scope.event(Severity::Info, EventKind::Migration, n, 0);
        scope.finish(n, Some(&self.metrics.migration_ns));
        Ok(out)
    }

    /// Import streams exported by another runtime's
    /// [`export_streams`](Self::export_streams): rehydrate each `(stream
    /// id, anchor snapshot)` pair into a fresh monitor and route it to its
    /// shard. The other half of a cross-node migration.
    ///
    /// Two-phase like the export: every snapshot is resumed into a fresh
    /// monitor before any stream is inserted, so an error (corrupt bytes, a
    /// duplicate id) leaves the runtime untouched — in particular, a
    /// failed import never half-applies a migration batch.
    pub fn import_streams(&mut self, streams: &[(u64, Vec<u8>)]) -> Result<(), ServeError> {
        // An import records no span, only its event and timing.
        let timer = Scope::timer(&self.clock);
        // Phase 1 (fallible): validate ids and rehydrate monitors.
        let mut fresh: BTreeMap<u64, StreamMonitor<'a, C>> = BTreeMap::new();
        for (id, bytes) in streams {
            if fresh.contains_key(id)
                || self
                    .shards
                    .get(self.router.route(*id))
                    .is_some_and(|s| s.contains(*id))
            {
                return Err(ServeError::DuplicateStream { stream: *id });
            }
            let mut monitor = StreamMonitor::new(self.clf, self.cfg.monitor);
            monitor.resume_anchors(bytes)?;
            fresh.insert(*id, monitor);
        }
        // Phase 2 (infallible): adopt them.
        let n = fresh.len() as u64;
        for (id, monitor) in fresh {
            #[expect(
                clippy::indexing_slicing,
                reason = "route() < shards.len() by construction; silently dropping an imported monitor would be worse than the impossible panic"
            )]
            self.shards[self.router.route(id)].insert(id, monitor);
        }
        self.migrated_streams += n;
        if let Some(t) = &self.tracer {
            t.event(Severity::Info, EventKind::Migration, n, 0);
        }
        timer.stop(&self.metrics.migration_ns);
        Ok(())
    }

    /// The stream ids currently live in this runtime, ascending.
    pub fn stream_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.shards.iter().flat_map(Shard::ids).collect();
        ids.sort_unstable();
        ids
    }

    /// A metrics snapshot: per-shard counters for the current topology plus
    /// runtime-lifetime totals.
    pub fn stats(&self) -> ServeStats {
        let shards: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.stats(i))
            .collect();
        ServeStats {
            streams: shards.iter().map(|s| s.streams).sum(),
            pushes: self.retired_pushes + shards.iter().map(|s| s.pushes).sum::<u64>(),
            alarms: self.retired_alarms + shards.iter().map(|s| s.alarms).sum::<u64>(),
            ingested: self.ingested,
            pending_alarms: self.pending.len(),
            rejected_batches: self.rejected_batches,
            duplicate_batches: self.duplicate_batches,
            queue_depth: self.metrics.queue_depth.get(),
            queue_depth_high_water: self.metrics.queue_depth_high_water.get(),
            rebalances: self.rebalances,
            migrated_streams: self.migrated_streams,
            checkpoints: self.checkpoints,
            last_checkpoint_bytes: self.last_checkpoint_bytes,
            drain_cycle_ns: self.metrics.drain_cycle_ns.snapshot(),
            push_ns: self.metrics.push_ns.snapshot(),
            checkpoint_pause_ns: self.metrics.checkpoint_pause_ns.snapshot(),
            checkpoint_bytes: self.metrics.checkpoint_bytes.snapshot(),
            migration_ns: self.metrics.migration_ns.snapshot(),
            shards,
        }
    }

    /// Write a whole-runtime state checkpoint — configuration, clocks,
    /// undelivered alarms, and every stream's `(model name, anchor
    /// snapshot)` pair — into the registry under `"<model_name>.serve"`.
    ///
    /// The fitted model itself must already be in the registry (use
    /// [`checkpoint`](Self::checkpoint) to save both, or
    /// [`enable_checkpoints`](Self::enable_checkpoints) which saves the
    /// model once up front); recovery verifies its presence per stream and
    /// fails with [`ServeError::ModelMissing`] otherwise.
    ///
    /// Queues are drained first (a checkpoint captures processed state, not
    /// raw queue contents), with the produced alarms buffered — and,
    /// being undelivered, written into the checkpoint. After a crash those
    /// alarms are re-delivered by the recovered runtime's first
    /// [`drain`](Self::drain): delivery is at-least-once across a
    /// checkpoint/recover cycle, never lossy.
    ///
    /// The envelope is written in one buffer, pre-sized from the last
    /// checkpoint's size: each stream's anchor envelope, and every session
    /// section inside it, is encoded in place where it ends up
    /// ([`StreamMonitor::snapshot_anchors_into`]), the outer envelope is
    /// sealed once, and those bytes go to the registry as they are. A
    /// stream whose session cannot checkpoint fails the call with nothing
    /// written: the registry keeps the previous checkpoint, and the
    /// checkpoint counter does not move.
    ///
    /// Returns the checkpoint envelope size in bytes.
    pub fn checkpoint_state(&mut self, registry: &ModelRegistry) -> Result<usize, ServeError> {
        self.flush_all();
        let scope = self.maintenance_scope(SpanKind::Checkpoint);
        scope.event(
            Severity::Info,
            EventKind::CheckpointBegin,
            self.stream_count() as u64,
            0,
        );
        let mut enc = Encoder::with_capacity(self.last_checkpoint_bytes);
        enc.try_envelope(SERVE_STATE_KIND, |e| self.encode_state(e))?;
        let bytes = enc.into_bytes();
        registry.save_bytes(&state_entry_name(&self.cfg.model_name), &bytes)?;
        self.checkpoints += 1;
        self.last_checkpoint_bytes = bytes.len();
        let n = bytes.len() as u64;
        self.metrics.checkpoint_bytes.record(n);
        scope.event(Severity::Info, EventKind::CheckpointEnd, n, 0);
        scope.finish(n, Some(&self.metrics.checkpoint_pause_ns));
        Ok(bytes.len())
    }

    /// The checkpoint payload that
    /// [`checkpoint_state`](Self::checkpoint_state) seals: configuration,
    /// counters, undelivered alarms, every stream's anchors (each its own
    /// checksummed [`StreamMonitor::snapshot_anchors`] envelope, written in
    /// place) and the retry-dedup cursors.
    fn encode_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_usize(self.shards.len());
        enc.put_usize(self.cfg.queue_capacity);
        enc.put_u8(match self.cfg.overflow {
            OverflowPolicy::Block => 0,
            OverflowPolicy::Reject => 1,
        });
        enc.put_usize(self.cfg.monitor.anchor_stride);
        enc.put_u8(match self.cfg.monitor.norm {
            StreamNorm::Raw => 0,
            StreamNorm::PerPrefix => 1,
        });
        enc.put_usize(self.cfg.monitor.refractory);
        enc.put_str(&self.cfg.model_name);
        enc.put_u64(self.seq);
        enc.put_u64(self.ingested);
        enc.put_u64(self.rejected_batches);
        enc.put_u64(self.rebalances);
        enc.put_u64(self.migrated_streams);
        // Count the checkpoint being cut, so a runtime recovered from these
        // bytes reports the same total the live runtime does after the save.
        enc.put_u64(self.checkpoints + 1);
        let stats = self.stats();
        enc.put_u64(stats.pushes);
        enc.put_u64(stats.alarms);
        enc.put_usize(self.pending.len());
        for a in &self.pending {
            enc.put_u64(a.stream);
            enc.put_u64(a.seq);
            a.alarm.encode(enc);
        }
        enc.put_usize(self.stream_count());
        for shard in &self.shards {
            for (id, monitor) in shard.sorted() {
                enc.put_u64(id);
                enc.put_str(&self.cfg.model_name);
                monitor.snapshot_anchors_into(enc)?;
            }
        }
        // Trailing section (readers treat it as optional for checkpoints
        // cut before it existed): retry-dedup state, so exactly-once ingest
        // survives crash + recovery.
        enc.put_u64(self.duplicate_batches);
        enc.put_usize(self.clients.len());
        for (&client, &seq) in &self.clients {
            enc.put_u64(client);
            enc.put_u64(seq);
        }
        Ok(())
    }

    /// Stop periodic checkpointing (see
    /// [`enable_checkpoints`](Self::enable_checkpoints)).
    pub fn disable_checkpoints(&mut self) {
        self.auto = None;
    }

    /// Cut a state checkpoint if the periodic schedule says one is due.
    fn maybe_auto_checkpoint(&mut self) -> Result<(), ServeError> {
        let Some(auto) = &mut self.auto else {
            return Ok(());
        };
        if self.seq - auto.last_at < auto.every {
            return Ok(());
        }
        // Advance the schedule *before* attempting the write: a failing
        // registry surfaces once per interval as a typed error, instead of
        // re-flushing and re-snapshotting every stream on every subsequent
        // ingest while the disk stays broken.
        auto.last_at = self.seq;
        let registry = auto.registry.clone();
        self.checkpoint_state(&registry)?;
        Ok(())
    }
}

impl<'a, C: EarlyClassifier + Persist> Runtime<'a, C> {
    /// Checkpoint the fitted model **and** the runtime state into the
    /// registry (entries `model_name` and `"<model_name>.serve"`). Returns
    /// the state envelope size in bytes. See
    /// [`checkpoint_state`](Self::checkpoint_state) for the delivery
    /// semantics of undelivered alarms.
    pub fn checkpoint(&mut self, registry: &ModelRegistry) -> Result<usize, ServeError> {
        registry.save(&self.cfg.model_name, self.clf)?;
        self.checkpoint_state(registry)
    }

    /// Turn on periodic checkpointing: after roughly every
    /// `every_records` ingested records, [`ingest`](Self::ingest) cuts a
    /// state checkpoint into `registry`. The fitted model is saved once,
    /// now; subsequent periodic writes persist only the (much smaller)
    /// runtime state.
    pub fn enable_checkpoints(
        &mut self,
        registry: ModelRegistry,
        every_records: u64,
    ) -> Result<(), ServeError> {
        if every_records == 0 {
            return Err(ServeError::BadConfig(
                "checkpoint interval must be ≥ 1 record".into(),
            ));
        }
        registry.save(&self.cfg.model_name, self.clf)?;
        self.auto = Some(AutoCheckpoint {
            registry,
            every: every_records,
            last_at: self.seq,
        });
        Ok(())
    }

    /// Rebuild a runtime from the checkpoint saved under `model_name` in
    /// the registry directory `dir` (see [`checkpoint`](Self::checkpoint)).
    ///
    /// `clf` is the fitted model to serve with — typically just loaded from
    /// the same registry (`registry.load::<C>(model_name)`), which is
    /// behavior-bit-identical to the instance that was checkpointed. Every
    /// recovered stream's snapshot names its model; if the registry no
    /// longer holds that entry the recovery fails with
    /// [`ServeError::ModelMissing`] carrying the stream id (and a snapshot
    /// whose model entry is of a different type fails with a
    /// [`PersistError::KindMismatch`]). The recovered runtime continues
    /// every stream's alarm sequence exactly where the checkpoint left it.
    pub fn recover(
        clf: &'a C,
        dir: impl AsRef<Path>,
        model_name: &str,
    ) -> Result<Self, ServeError> {
        let registry = ModelRegistry::open(dir)?;
        Self::recover_from(clf, &registry, model_name)
    }

    /// [`recover`](Self::recover) against an already-open registry.
    ///
    /// A checkpoint that lists a stream twice is corrupt: recovery fails
    /// with [`PersistError::Corrupt`] naming the id instead of letting the
    /// later entry replace the earlier one.
    pub fn recover_from(
        clf: &'a C,
        registry: &ModelRegistry,
        model_name: &str,
    ) -> Result<Self, ServeError> {
        let bytes = registry.load_bytes(&state_entry_name(model_name))?;
        let mut dec = etsc_persist::open_envelope(&bytes, SERVE_STATE_KIND)?;
        let shards = dec.get_usize("serve shards")?;
        let queue_capacity = dec.get_usize("serve queue capacity")?;
        let overflow = match dec.get_u8("serve overflow policy")? {
            0 => OverflowPolicy::Block,
            1 => OverflowPolicy::Reject,
            t => {
                return Err(PersistError::Corrupt(format!("serve: overflow tag {t}")).into());
            }
        };
        let anchor_stride = dec.get_usize("serve anchor stride")?;
        let norm = match dec.get_u8("serve monitor norm")? {
            0 => StreamNorm::Raw,
            1 => StreamNorm::PerPrefix,
            t => {
                return Err(PersistError::Corrupt(format!("serve: norm tag {t}")).into());
            }
        };
        let refractory = dec.get_usize("serve refractory")?;
        let stored_name = dec.get_str("serve model name")?;
        if stored_name != model_name {
            return Err(PersistError::Corrupt(format!(
                "serve: checkpoint was cut for model {stored_name:?}, recovered as {model_name:?}"
            ))
            .into());
        }
        let cfg = RuntimeConfig {
            shards,
            queue_capacity,
            overflow,
            monitor: StreamMonitorConfig {
                anchor_stride,
                norm,
                refractory,
            },
            model_name: stored_name,
            threads: None,
        };
        let mut rt = Runtime::new(clf, cfg)?;
        rt.seq = dec.get_u64("serve seq")?;
        rt.ingested = dec.get_u64("serve ingested")?;
        rt.rejected_batches = dec.get_u64("serve rejected")?;
        rt.rebalances = dec.get_u64("serve rebalances")?;
        rt.migrated_streams = dec.get_u64("serve migrated")?;
        rt.checkpoints = dec.get_u64("serve checkpoints")?;
        rt.retired_pushes = dec.get_u64("serve pushes")?;
        rt.retired_alarms = dec.get_u64("serve alarms")?;
        rt.last_checkpoint_bytes = bytes.len();
        let n_pending = dec.get_usize("serve pending alarms")?;
        // A pending alarm is 2×u64 + a 4×8-byte alarm body; a checkpoint
        // (which may arrive over a network boundary) declaring more alarms
        // than its bytes can hold is corrupt — fail before looping.
        dec.check_claim(n_pending, 48, "serve pending alarms")?;
        for _ in 0..n_pending {
            let stream = dec.get_u64("serve pending stream")?;
            let seq = dec.get_u64("serve pending seq")?;
            let alarm = Alarm::decode(&mut dec)?;
            rt.pending.push(StreamAlarm { stream, seq, alarm });
        }
        let n_streams = dec.get_usize("serve stream count")?;
        // Each stream record holds an id, a model-name prefix, and an
        // anchor-blob length prefix: ≥ 20 bytes.
        dec.check_claim(n_streams, 20, "serve streams")?;
        let mut verified: BTreeSet<String> = BTreeSet::new();
        for _ in 0..n_streams {
            let id = dec.get_u64("serve stream id")?;
            let name = dec.get_str("serve stream model")?;
            let anchors = dec.get_bytes("serve stream anchors")?;
            if !verified.contains(&name) {
                // The (model name, anchor snapshot) pair is only usable if
                // the registry still holds a model of the right type under
                // that name — fail with the stranded stream's id, not a
                // panic deep inside resume.
                if !registry.contains(&name) {
                    return Err(ServeError::ModelMissing {
                        stream: id,
                        model: name,
                    });
                }
                let info = etsc_persist::inspect(&registry.load_bytes(&name)?)?;
                if info.kind != C::KIND {
                    return Err(PersistError::KindMismatch {
                        expected: C::KIND.to_string(),
                        found: info.kind,
                    }
                    .into());
                }
                verified.insert(name);
            }
            let mut monitor = StreamMonitor::new(clf, rt.cfg.monitor);
            monitor.resume_anchors(&anchors)?;
            #[expect(
                clippy::indexing_slicing,
                reason = "route() < shards.len() by construction; silently dropping a recovered stream would be worse than the impossible panic"
            )]
            let adopted = rt.shards[rt.router.route(id)].insert(id, monitor);
            if !adopted {
                return Err(PersistError::Corrupt(format!(
                    "serve: stream {id} appears twice in the checkpoint"
                ))
                .into());
            }
        }
        if dec.remaining() > 0 {
            // Retry-dedup section; absent in checkpoints cut before it
            // existed (those recover with empty cursors).
            rt.duplicate_batches = dec.get_u64("serve duplicate batches")?;
            let n_clients = dec.get_usize("serve client cursors")?;
            dec.check_claim(n_clients, 16, "serve client cursors")?;
            for _ in 0..n_clients {
                let client = dec.get_u64("serve client id")?;
                let seq = dec.get_u64("serve client seq")?;
                rt.clients.insert(client, seq);
            }
        }
        dec.finish()?;
        Ok(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_early::{Decision, DecisionSession, Decoder, SessionNorm};
    use etsc_persist::Persist;
    use std::path::PathBuf;

    /// A fully persistable mean-level detector (the serve twin of the
    /// monitor tests' detector): commits to class 0 once `need` samples
    /// have arrived and their running mean exceeds 0.5.
    #[derive(Debug, Clone, PartialEq)]
    struct PulseDetector {
        need: usize,
        len: usize,
    }

    struct MeanSession {
        need: usize,
        sum: f64,
        len: usize,
        decision: Decision,
    }

    impl DecisionSession for MeanSession {
        fn push(&mut self, x: f64) -> Decision {
            self.len += 1;
            if self.decision.is_predict() {
                return self.decision;
            }
            self.sum += x;
            if self.len >= self.need && self.sum / self.len as f64 > 0.5 {
                self.decision = Decision::Predict {
                    label: 0,
                    confidence: 1.0,
                };
            }
            self.decision
        }
        fn decision(&self) -> Decision {
            self.decision
        }
        fn len(&self) -> usize {
            self.len
        }
        fn reset(&mut self) {
            self.sum = 0.0;
            self.len = 0;
            self.decision = Decision::Wait;
        }
        fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
            enc.put_f64(self.sum);
            enc.put_usize(self.len);
            enc.put_bool(self.decision.is_predict());
            Ok(())
        }
    }

    impl EarlyClassifier for PulseDetector {
        fn n_classes(&self) -> usize {
            1
        }
        fn series_len(&self) -> usize {
            self.len
        }
        fn min_prefix(&self) -> usize {
            self.need
        }
        fn session(&self, _norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
            Box::new(MeanSession {
                need: self.need,
                sum: 0.0,
                len: 0,
                decision: Decision::Wait,
            })
        }
        fn resume_session(
            &self,
            _norm: SessionNorm,
            dec: &mut Decoder<'_>,
        ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
            let sum = dec.get_f64("sum")?;
            let len = dec.get_usize("len")?;
            let committed = dec.get_bool("committed")?;
            Ok(Box::new(MeanSession {
                need: self.need,
                sum,
                len,
                decision: if committed {
                    Decision::Predict {
                        label: 0,
                        confidence: 1.0,
                    }
                } else {
                    Decision::Wait
                },
            }))
        }
        fn predict_full(&self, _s: &[f64]) -> ClassLabel {
            0
        }
    }

    use etsc_core::ClassLabel;

    impl Persist for PulseDetector {
        const KIND: &'static str = "PulseDetector";
        fn encode_body(&self, enc: &mut Encoder) {
            enc.put_usize(self.need);
            enc.put_usize(self.len);
        }
        fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
            let need = dec.get_usize("pulse need")?;
            let len = dec.get_usize("pulse len")?;
            if need == 0 || len == 0 || need > len {
                return Err(PersistError::Corrupt(format!(
                    "pulse detector: need {need}, len {len}"
                )));
            }
            Ok(Self { need, len })
        }
    }

    fn detector() -> PulseDetector {
        PulseDetector { need: 4, len: 24 }
    }

    /// [`PulseDetector`] whose sessions keep the default `save_state`
    /// (`Unsupported`): a stream with a live anchor cannot checkpoint.
    struct Unsaveable(PulseDetector);

    struct UnsaveableSession<'a>(Box<dyn DecisionSession + 'a>);

    impl DecisionSession for UnsaveableSession<'_> {
        fn push(&mut self, x: f64) -> Decision {
            self.0.push(x)
        }
        fn decision(&self) -> Decision {
            self.0.decision()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn reset(&mut self) {
            self.0.reset();
        }
    }

    impl EarlyClassifier for Unsaveable {
        fn n_classes(&self) -> usize {
            self.0.n_classes()
        }
        fn series_len(&self) -> usize {
            self.0.series_len()
        }
        fn min_prefix(&self) -> usize {
            self.0.min_prefix()
        }
        fn session(&self, norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
            Box::new(UnsaveableSession(self.0.session(norm)))
        }
        fn predict_full(&self, s: &[f64]) -> ClassLabel {
            self.0.predict_full(s)
        }
    }

    fn config(shards: usize) -> RuntimeConfig {
        RuntimeConfig {
            shards,
            queue_capacity: 4096,
            overflow: OverflowPolicy::Block,
            monitor: StreamMonitorConfig {
                anchor_stride: 2,
                norm: StreamNorm::Raw,
                refractory: 30,
            },
            model_name: "pulse".to_string(),
            threads: Some(2),
        }
    }

    /// Interleaved traffic over `ids`: background zeros with a per-stream
    /// pulse window (offset by the stream's position so alarms differ per
    /// stream), `rounds` samples per stream, one record per stream per
    /// round.
    fn traffic(ids: &[u64], rounds: usize) -> Vec<Vec<Record>> {
        (0..rounds)
            .map(|t| {
                ids.iter()
                    .enumerate()
                    .map(|(k, &id)| {
                        let start = 30 + 7 * k;
                        let hot = t >= start && t < start + 15;
                        Record::new(id, if hot { 1.0 } else { 0.0 })
                    })
                    .collect()
            })
            .collect()
    }

    fn run_all(rt: &mut Runtime<'_, PulseDetector>, batches: &[Vec<Record>]) -> Vec<StreamAlarm> {
        for b in batches {
            rt.ingest(b).unwrap();
        }
        rt.drain()
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("etsc-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    const IDS: [u64; 6] = [1, 2, 3, 500, 8_000_000, u64::MAX - 7];

    #[test]
    fn ingest_auto_opens_and_drain_produces_per_stream_alarms() {
        let clf = detector();
        let mut rt = Runtime::new(&clf, config(3)).unwrap();
        let batches = traffic(&IDS, 90);
        let alarms = run_all(&mut rt, &batches);
        // Every stream got a pulse, so every stream alarms at least once.
        for &id in &IDS {
            assert!(
                alarms.iter().any(|a| a.stream == id),
                "stream {id} must alarm"
            );
        }
        // Output is sorted by the global ingest sequence number.
        assert!(alarms.windows(2).all(|w| w[0].seq < w[1].seq));
        let stats = rt.stats();
        assert_eq!(stats.streams, IDS.len());
        assert_eq!(stats.ingested, 90 * IDS.len() as u64);
        assert_eq!(stats.pushes, stats.ingested, "drained fully");
        assert_eq!(stats.alarms as usize, alarms.len());
        assert_eq!(stats.pending_alarms, 0);
        assert_eq!(stats.shards.len(), 3);
        assert!(stats.shards.iter().any(|s| s.streams > 0));
    }

    /// Pins the runtime's telemetry exactly: every span and event of a
    /// traced ingest, a drain, a rebalance, an export then import, and a
    /// checkpoint, with the runtime and a fixed-seed tracer on one manual
    /// clock that steps between calls.
    #[test]
    fn runtime_spans_events_and_timings_are_pinned() {
        use etsc_core::trace::TracerConfig;
        use EventKind as E;
        use SpanKind as K;
        let root = tmp_root("pinned-telemetry");
        let registry = ModelRegistry::open(&root).unwrap();
        let clf = detector();
        let clock = Clock::manual();
        let tracer = Tracer::new(TracerConfig {
            clock: clock.clone(),
            id_seed: 100,
            ..TracerConfig::default()
        });
        let cfg = RuntimeConfig {
            threads: Some(1),
            ..config(2)
        };
        let mut rt = Runtime::new(&clf, cfg).unwrap();
        rt.set_clock(clock.clone());
        rt.set_tracer(tracer.clone());
        let ctx = TraceContext {
            trace_id: 7,
            parent_span: 9,
        };
        let batch: Vec<Record> = (0..16).map(|i| Record::new(IDS[i % 4], 1.0)).collect();
        clock.advance_ns(1_000);
        rt.ingest_with(
            &batch,
            IngestMeta {
                ctx: Some(ctx),
                ..IngestMeta::default()
            },
        )
        .unwrap();
        clock.advance_ns(1_000);
        assert_eq!(rt.drain().len(), 4);
        clock.advance_ns(1_000);
        rt.rebalance(3).unwrap();
        clock.advance_ns(1_000);
        let moved = rt.export_streams(&[IDS[0], IDS[2]]).unwrap();
        // A failed export records nothing, and takes no span id.
        assert!(rt.export_streams(&[404]).is_err());
        clock.advance_ns(1_000);
        rt.import_streams(&moved).unwrap();
        clock.advance_ns(1_000);
        assert_eq!(rt.checkpoint(&registry).unwrap(), 762);

        let spans = tracer.spans();
        assert!(spans.iter().all(|s| s.trace_id == 7));
        let spans: Vec<_> = spans
            .iter()
            .map(|s| (s.span_id, s.parent_id, s.kind, s.start_ns, s.dur_ns, s.arg))
            .collect();
        #[rustfmt::skip]
        assert_eq!(spans, [
            (100, 9, K::ShardEnqueue, 1000, 0, 0),
            (101, 9, K::ShardEnqueue, 1000, 0, 1),
            (102, 100, K::ShardDrain, 2000, 0, 12),
            (103, 102, K::AlarmEmit, 2000, 0, 12),
            (104, 102, K::AlarmEmit, 2000, 0, 14),
            (105, 102, K::AlarmEmit, 2000, 0, 15),
            (106, 101, K::ShardDrain, 2000, 0, 4),
            (107, 106, K::AlarmEmit, 2000, 0, 13),
            (108, 9, K::Migration, 3000, 0, 3),
            (109, 9, K::Migration, 4000, 0, 2),
            (110, 9, K::Checkpoint, 6000, 0, 762),
        ]);
        let events: Vec<_> = tracer
            .events()
            .iter()
            .map(|e| (e.time_ns, e.severity, e.kind, e.a, e.b))
            .collect();
        #[rustfmt::skip]
        assert_eq!(events, [
            (3000, Severity::Info, E::Migration, 3, 3),
            (4000, Severity::Info, E::Migration, 2, 0),
            (5000, Severity::Info, E::Migration, 2, 0),
            (6000, Severity::Info, E::CheckpointBegin, 4, 0),
            (6000, Severity::Info, E::CheckpointEnd, 762, 0),
        ]);
        let stats = rt.stats();
        assert_eq!(stats.drain_cycle_ns.count(), 1);
        assert_eq!(stats.migration_ns.count(), 3);
        assert_eq!(stats.checkpoint_pause_ns.count(), 1);
        assert_eq!(
            (stats.checkpoint_bytes.count(), stats.checkpoint_bytes.sum),
            (1, 762)
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A traced batch's `ShardEnqueue` spans take their ids in the order
    /// the batch first touches each shard, not in shard order.
    #[test]
    fn enqueue_spans_follow_first_touch_order() {
        use etsc_core::trace::TracerConfig;
        let clf = detector();
        let tracer = Tracer::new(TracerConfig {
            clock: Clock::manual(),
            id_seed: 10,
            ..TracerConfig::default()
        });
        let mut rt = Runtime::new(&clf, config(3)).unwrap();
        rt.set_tracer(tracer.clone());
        // One stream per shard, first touched in descending shard order.
        let ids: Vec<u64> = (0..3)
            .rev()
            .map(|shard| (0u64..).find(|&id| rt.router.route(id) == shard).unwrap())
            .collect();
        let batch: Vec<Record> = ids
            .iter()
            .chain(&ids)
            .map(|&id| Record::new(id, 1.0))
            .collect();
        let ctx = Some(TraceContext {
            trace_id: 1,
            parent_span: 2,
        });
        rt.ingest_with(
            &batch,
            IngestMeta {
                ctx,
                ..IngestMeta::default()
            },
        )
        .unwrap();
        let spans: Vec<_> = tracer.spans().iter().map(|s| (s.span_id, s.arg)).collect();
        assert_eq!(spans, [(10, 2), (11, 1), (12, 0)]);
    }

    #[test]
    fn metrics_populate_under_monotonic_and_stay_empty_when_disabled() {
        use etsc_core::metrics::Clock;
        let clf = detector();
        let batches = traffic(&IDS, 90);

        // Default monotonic clock: drains and sampled pushes land in the
        // histograms; a checkpoint records both pause and size; rebalance
        // is timed as a migration.
        let root = tmp_root("metrics-clock");
        let registry = ModelRegistry::open(&root).unwrap();
        let mut rt = Runtime::new(&clf, config(3)).unwrap();
        let timed = run_all(&mut rt, &batches);
        rt.checkpoint(&registry).unwrap();
        rt.rebalance(4).unwrap();
        let stats = rt.stats();
        assert!(stats.drain_cycle_ns.count() >= 1);
        assert!(
            stats.push_ns.count() >= 1,
            "1-in-64 sampling over {} pushes must observe something",
            stats.pushes
        );
        assert_eq!(stats.checkpoint_pause_ns.count(), 1);
        assert_eq!(stats.checkpoint_bytes.count(), 1);
        assert_eq!(
            stats.checkpoint_bytes.sum,
            stats.last_checkpoint_bytes as u64
        );
        assert!(stats.migration_ns.count() >= 1);
        let _ = std::fs::remove_dir_all(&root);

        // Disabled clock: the latency histograms stay empty, size
        // histograms still fill, and — the invariant everything else rests
        // on — the alarm sequence is bit-identical to the timed run.
        let root = tmp_root("metrics-clock-off");
        let registry = ModelRegistry::open(&root).unwrap();
        let mut off = Runtime::new(&clf, config(3)).unwrap();
        off.set_clock(Clock::disabled());
        assert!(off.clock().is_disabled());
        let silent = run_all(&mut off, &batches);
        assert_eq!(silent, timed, "clock mode must not change alarms");
        off.checkpoint(&registry).unwrap();
        let stats = off.stats();
        assert_eq!(stats.drain_cycle_ns.count(), 0);
        assert_eq!(stats.push_ns.count(), 0);
        assert_eq!(stats.checkpoint_pause_ns.count(), 0);
        assert_eq!(
            stats.checkpoint_bytes.count(),
            1,
            "sizes are clock-independent"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn queue_depth_gauge_tracks_live_backlog_and_high_water_survives_drain() {
        let clf = detector();
        let mut cfg = config(1);
        cfg.queue_capacity = 8;
        let mut rt = Runtime::new(&clf, cfg).unwrap();
        // 20 records into a capacity-8 Block queue: the Block policy
        // flushes mid-batch at 8 and 16, leaving 4 records live.
        let batch: Vec<Record> = (0..20).map(|i| Record::new(1, i as f64)).collect();
        rt.ingest(&batch).unwrap();
        let stats = rt.stats();
        assert_eq!(
            stats.queue_depth, 4,
            "live gauge shows what is queued after the mid-batch flushes"
        );
        assert_eq!(
            stats.queue_depth_high_water, 8,
            "high water caught the pre-flush peaks"
        );
        rt.drain();
        let stats = rt.stats();
        assert_eq!(stats.queue_depth, 0, "drain zeroes the live gauge");
        assert_eq!(
            stats.queue_depth_high_water, 8,
            "the lifetime high-water mark survives the drain"
        );
        let text = stats.render_prometheus();
        assert!(text.contains("etsc_serve_queue_depth 0"));
        assert!(text.contains("etsc_serve_queue_depth_high_water 8"));

        // Reject policy: a refused batch leaves the gauge at the prior
        // backlog (the rejection enqueued nothing).
        let mut cfg = config(1);
        cfg.queue_capacity = 4;
        cfg.overflow = OverflowPolicy::Reject;
        let mut rt = Runtime::new(&clf, cfg).unwrap();
        let three: Vec<Record> = (0..3).map(|i| Record::new(1, i as f64)).collect();
        rt.ingest(&three).unwrap();
        assert_eq!(rt.stats().queue_depth, 3);
        let five: Vec<Record> = (0..5).map(|i| Record::new(1, i as f64)).collect();
        assert!(rt.ingest(&five).is_err());
        let stats = rt.stats();
        assert_eq!(stats.queue_depth, 3, "rejection left the backlog as-is");
        assert_eq!(stats.queue_depth_high_water, 3);
    }

    #[test]
    fn alarm_sequences_are_shard_count_invariant() {
        let clf = detector();
        let batches = traffic(&IDS, 120);
        let reference = run_all(&mut Runtime::new(&clf, config(1)).unwrap(), &batches);
        assert!(!reference.is_empty());
        for shards in [2, 7] {
            let alarms = run_all(&mut Runtime::new(&clf, config(shards)).unwrap(), &batches);
            assert_eq!(alarms, reference, "{shards} shards");
        }
    }

    #[test]
    fn alarm_sequences_are_worker_count_invariant() {
        let clf = detector();
        let batches = traffic(&IDS, 120);
        let reference = run_all(&mut Runtime::new(&clf, config(7)).unwrap(), &batches);
        for threads in [1usize, 7] {
            let mut cfg = config(7);
            cfg.threads = Some(threads);
            let alarms = run_all(&mut Runtime::new(&clf, cfg).unwrap(), &batches);
            assert_eq!(alarms, reference, "{threads} threads");
        }
    }

    #[test]
    fn rebalance_preserves_alarm_sequences_exactly() {
        let clf = detector();
        let batches = traffic(&IDS, 120);
        let reference = run_all(&mut Runtime::new(&clf, config(2)).unwrap(), &batches);

        // Rebalance twice mid-run (grow, then shrink), mid-pulse both times.
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        let mut alarms = Vec::new();
        for (t, b) in batches.iter().enumerate() {
            rt.ingest(b).unwrap();
            if t == 37 {
                rt.rebalance(5).unwrap();
                assert_eq!(rt.shard_count(), 5);
            }
            if t == 80 {
                rt.rebalance(3).unwrap();
            }
        }
        alarms.extend(rt.drain());
        assert_eq!(alarms, reference, "rebalancing must not change alarms");
        let stats = rt.stats();
        assert_eq!(stats.rebalances, 2);
        assert!(stats.migrated_streams > 0, "some stream must have moved");
        assert_eq!(stats.pushes, stats.ingested);
    }

    #[test]
    fn rebalance_to_zero_shards_is_rejected() {
        let clf = detector();
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        assert!(matches!(rt.rebalance(0), Err(ServeError::BadConfig(_))));
        assert_eq!(
            rt.shard_count(),
            2,
            "failed rebalance must not touch topology"
        );
    }

    #[test]
    fn reject_policy_is_atomic_and_typed() {
        let clf = detector();
        let mut cfg = config(1);
        cfg.queue_capacity = 4;
        cfg.overflow = OverflowPolicy::Reject;
        let mut rt = Runtime::new(&clf, cfg).unwrap();
        let batch: Vec<Record> = (0..6).map(|i| Record::new(9, i as f64)).collect();
        match rt.ingest(&batch) {
            Err(ServeError::QueueFull {
                shard,
                stream,
                capacity,
            }) => {
                assert_eq!(shard, 0);
                assert_eq!(stream, 9);
                assert_eq!(capacity, 4);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(rt.queued(), 0, "rejection must be atomic");
        assert_eq!(rt.stats().rejected_batches, 1);
        // A fitting batch is accepted; draining makes room for the retry.
        rt.ingest(&batch[..4]).unwrap();
        assert_eq!(rt.queued(), 4);
        rt.drain();
        rt.ingest(&batch[4..]).unwrap();
        assert_eq!(rt.stats().ingested, 6);
    }

    /// The idempotency-tag contract: a duplicate is skipped and counted, a
    /// refused batch leaves its client's cursor behind so the same tag
    /// applies once the queue drains, untagged batches always apply, and
    /// the cursors survive a checkpoint and recovery.
    #[test]
    fn each_tag_applies_once_across_refusals_and_recovery() {
        let root = tmp_root("tag-contract");
        let registry = ModelRegistry::open(&root).unwrap();
        let clf = detector();
        let mut cfg = config(1);
        cfg.queue_capacity = 4;
        cfg.overflow = OverflowPolicy::Reject;
        let mut rt = Runtime::new(&clf, cfg).unwrap();
        let client = NonZeroU64::new(7).unwrap();
        let tagged = |seq| IngestMeta {
            tag: Some((client, seq)),
            ctx: None,
        };
        let three = [Record::new(1, 1.0); 3];
        assert_eq!(rt.ingest_with(&three, tagged(1)), Ok(true));
        assert_eq!(rt.ingest_with(&three, tagged(1)), Ok(false));
        assert_eq!(rt.ingest_with(&three, tagged(0)), Ok(false));
        assert_eq!((rt.queued(), rt.stats().duplicate_batches), (3, 2));

        assert!(matches!(
            rt.ingest_with(&three, tagged(2)),
            Err(ServeError::QueueFull { .. })
        ));
        assert_eq!((rt.queued(), rt.ingest_cursors().get(&7)), (3, Some(&1)));
        rt.drain();
        assert_eq!(rt.ingest_with(&three, tagged(2)), Ok(true));
        assert_eq!(rt.ingest_cursors().get(&7), Some(&2));

        // The wire's client 0 arrives untagged: it always applies.
        rt.drain();
        for _ in 0..2 {
            assert_eq!(rt.ingest_with(&three[..1], IngestMeta::default()), Ok(true));
        }
        assert_eq!((rt.queued(), rt.ingest_cursors().len()), (2, 1));

        rt.checkpoint(&registry).unwrap();
        let mut back = Runtime::recover(&clf, &root, "pulse").unwrap();
        assert_eq!(back.ingest_cursors(), rt.ingest_cursors());
        assert_eq!(back.ingest_with(&three, tagged(2)), Ok(false));
        assert_eq!(back.stats().duplicate_batches, 3);
        assert_eq!(back.ingest_with(&three, tagged(3)), Ok(true));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn block_policy_applies_backpressure_without_loss() {
        let clf = detector();
        let batches = traffic(&IDS[..2], 100);
        let reference = run_all(&mut Runtime::new(&clf, config(1)).unwrap(), &batches);

        let mut cfg = config(1);
        cfg.queue_capacity = 3; // far smaller than the traffic
        let mut rt = Runtime::new(&clf, cfg).unwrap();
        let alarms = run_all(&mut rt, &batches);
        assert_eq!(alarms, reference, "backpressure must not lose records");
        let stats = rt.stats();
        assert!(stats.shards[0].queue_high_water <= 3);
        assert_eq!(stats.pushes, stats.ingested);
    }

    #[test]
    fn open_and_close_stream() {
        let clf = detector();
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        assert!(rt.open_stream(42));
        assert!(!rt.open_stream(42), "double open reports existing");
        assert!(rt.contains_stream(42));
        assert_eq!(rt.stream_count(), 1);
        // Queued records are processed (not dropped) before the close.
        rt.ingest(&[Record::new(42, 1.0); 10]).unwrap();
        assert!(rt.close_stream(42));
        assert!(!rt.close_stream(42));
        assert!(!rt.contains_stream(42));
        let alarms = rt.drain();
        assert!(
            alarms.iter().any(|a| a.stream == 42),
            "pre-close samples still alarm: {alarms:?}"
        );
        assert_eq!(rt.stats().pushes, 10);
    }

    /// Removing a stream from the middle of a shard's slab moves the last
    /// slot into the hole. One shard holds every stream here, so the close
    /// and the export both hit the middle of one slab while ingestion goes
    /// on around them; every other stream must keep its own monitor.
    #[test]
    fn closing_and_exporting_mid_slab_streams_leaves_every_other_stream_intact() {
        let clf = detector();
        let (closed, close_at) = (IDS[2], 25);
        let (exported, export_at) = (IDS[1], 50);
        let batches = traffic(&IDS, 120);
        let mut rt = Runtime::new(&clf, config(1)).unwrap();
        let mut alarms = Vec::new();
        for (t, b) in batches.iter().enumerate() {
            if t == close_at {
                assert!(rt.close_stream(closed));
            }
            if t == export_at {
                assert_eq!(rt.export_streams(&[exported]).unwrap().len(), 1);
            }
            let live: Vec<Record> = b
                .iter()
                .copied()
                .filter(|r| {
                    !(r.stream == closed && t >= close_at || r.stream == exported && t >= export_at)
                })
                .collect();
            rt.ingest(&live).unwrap();
            if t % 10 == 9 {
                alarms.extend(rt.drain());
            }
        }
        alarms.extend(rt.drain());

        // Reference: a runtime that never had the removed streams.
        let others: Vec<u64> = IDS
            .iter()
            .copied()
            .filter(|&id| id != closed && id != exported)
            .collect();
        let only_others: Vec<Vec<Record>> = batches
            .iter()
            .map(|b| {
                b.iter()
                    .copied()
                    .filter(|r| others.contains(&r.stream))
                    .collect()
            })
            .collect();
        let mut reference_rt = Runtime::new(&clf, config(1)).unwrap();
        let reference = run_all(&mut reference_rt, &only_others);
        for &id in &others {
            let bodies = |all: &[StreamAlarm]| -> Vec<Alarm> {
                all.iter()
                    .filter(|a| a.stream == id)
                    .map(|a| a.alarm)
                    .collect()
            };
            assert!(!bodies(&reference).is_empty(), "stream {id} must alarm");
            assert_eq!(bodies(&alarms), bodies(&reference), "stream {id}");
        }
        assert_eq!(rt.stream_ids(), reference_rt.stream_ids());
        assert_eq!(rt.stream_count(), others.len());
        for &id in &IDS {
            assert_eq!(rt.contains_stream(id), others.contains(&id), "stream {id}");
        }
    }

    /// Slot order is an accident of arrival: two runtimes opening the same
    /// streams in opposite orders must write the same checkpoint bytes.
    #[test]
    fn checkpoint_bytes_do_not_depend_on_stream_open_order() {
        let clf = detector();
        let batches = traffic(&IDS, 60);
        let mut reversed = IDS;
        reversed.reverse();
        let mut written = Vec::new();
        for (tag, order) in [("forward", IDS), ("reversed", reversed)] {
            let root = tmp_root(&format!("open-order-{tag}"));
            let registry = ModelRegistry::open(&root).unwrap();
            let mut rt = Runtime::new(&clf, config(2)).unwrap();
            for &id in &order {
                assert!(rt.open_stream(id));
            }
            for (t, b) in batches.iter().enumerate() {
                rt.ingest(b).unwrap();
                if t == 30 {
                    rt.rebalance(3).unwrap();
                }
            }
            rt.checkpoint(&registry).unwrap();
            written.push(registry.load_bytes("pulse.serve").unwrap());
            let _ = std::fs::remove_dir_all(&root);
        }
        assert!(
            written[0] == written[1],
            "stream open order leaked into the checkpoint bytes"
        );
    }

    #[test]
    fn export_refuses_a_stream_listed_twice_and_changes_nothing() {
        let clf = detector();
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        rt.ingest(&traffic(&IDS, 10).concat()).unwrap();
        let ids = rt.stream_ids();
        assert!(matches!(
            rt.export_streams(&[IDS[0], IDS[3], IDS[0]]),
            Err(ServeError::DuplicateStream { stream }) if stream == IDS[0]
        ));
        assert_eq!(rt.stream_ids(), ids, "a refused export retires nothing");
        assert_eq!(rt.stats().migrated_streams, 0);
        assert_eq!(rt.export_streams(&[IDS[0]]).unwrap().len(), 1);
        assert!(!rt.contains_stream(IDS[0]));
        assert_eq!(rt.stats().migrated_streams, 1);
    }

    /// The payload-mutation recipe: forge a real checkpoint so its second
    /// stream carries the first one's id, re-seal it so the checksum holds,
    /// and recovery must call it corrupt instead of keeping one stream.
    #[test]
    fn recover_refuses_a_checkpoint_listing_a_stream_twice() {
        let root = tmp_root("listed-twice");
        let clf = detector();
        let registry = ModelRegistry::open(&root).unwrap();
        let (first, second) = (0x0A0A_0A0A_0A0A_0A0A_u64, 0x0B0B_0B0B_0B0B_0B0B_u64);
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        rt.ingest(&traffic(&[first, second], 10).concat()).unwrap();
        // No undelivered alarms, so each id occurs once in the payload.
        rt.drain();
        rt.checkpoint(&registry).unwrap();
        let sealed = registry.load_bytes("pulse.serve").unwrap();
        let end = sealed.len() - 8;
        let start = end - etsc_persist::inspect(&sealed).unwrap().payload_len;
        let mut payload = sealed[start..end].to_vec();
        let offsets = |payload: &[u8], id: u64| -> Vec<usize> {
            payload
                .windows(8)
                .enumerate()
                .filter(|(_, w)| *w == id.to_le_bytes())
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(offsets(&payload, first).len(), 1);
        let at = offsets(&payload, second);
        assert_eq!(at.len(), 1);
        payload[at[0]..at[0] + 8].copy_from_slice(&first.to_le_bytes());
        registry
            .save_bytes(
                "pulse.serve",
                &etsc_persist::envelope(SERVE_STATE_KIND, &payload),
            )
            .unwrap();
        match Runtime::recover(&clf, &root, "pulse") {
            Err(ServeError::Persist(PersistError::Corrupt(msg))) => {
                assert!(msg.contains(&first.to_string()), "names the id: {msg}");
            }
            other => panic!(
                "expected Corrupt, got {:?}",
                other.map(|rt| rt.stream_count())
            ),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let clf = detector();
        for (tweak, what) in [
            (
                RuntimeConfig {
                    shards: 0,
                    ..config(1)
                },
                "shards",
            ),
            (
                RuntimeConfig {
                    queue_capacity: 0,
                    ..config(1)
                },
                "capacity",
            ),
            (
                RuntimeConfig {
                    threads: Some(0),
                    ..config(1)
                },
                "threads",
            ),
            (
                RuntimeConfig {
                    monitor: StreamMonitorConfig {
                        anchor_stride: 0,
                        norm: StreamNorm::Raw,
                        refractory: 0,
                    },
                    ..config(1)
                },
                "stride",
            ),
        ] {
            assert!(
                matches!(Runtime::new(&clf, tweak), Err(ServeError::BadConfig(_))),
                "{what} misconfiguration must be rejected"
            );
        }
    }

    #[test]
    fn checkpoint_recover_continues_every_alarm_sequence() {
        let root = tmp_root("recover");
        let clf = detector();
        let batches = traffic(&IDS, 120);
        let reference = run_all(&mut Runtime::new(&clf, config(3)).unwrap(), &batches);
        assert!(!reference.is_empty());

        // Interrupted twin: ingest 50 rounds (some alarms already drained,
        // some still pending at checkpoint time), checkpoint, "crash".
        let registry = ModelRegistry::open(&root).unwrap();
        let mut head = Runtime::new(&clf, config(3)).unwrap();
        let mut alarms = Vec::new();
        for b in &batches[..40] {
            head.ingest(b).unwrap();
        }
        alarms.extend(head.drain());
        for b in &batches[40..50] {
            head.ingest(b).unwrap();
        }
        let bytes_written = head.checkpoint(&registry).unwrap();
        assert!(bytes_written > 0);
        assert_eq!(head.stats().last_checkpoint_bytes, bytes_written);
        drop(head);

        // Fresh process: reload the model from the registry, recover, and
        // finish the traffic. Undelivered alarms from rounds 40..50 come
        // out of the recovered runtime's first drain.
        let restored: PulseDetector = registry.load("pulse").unwrap();
        assert_eq!(restored, clf);
        let mut tail = Runtime::recover(&restored, &root, "pulse").unwrap();
        assert_eq!(tail.stream_count(), IDS.len());
        assert_eq!(tail.shard_count(), 3);
        for b in &batches[50..] {
            tail.ingest(b).unwrap();
        }
        alarms.extend(tail.drain());
        assert_eq!(alarms, reference, "recovery must drop and invent nothing");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recover_with_missing_model_is_a_typed_error() {
        let root = tmp_root("missing-model");
        let clf = detector();
        let registry = ModelRegistry::open(&root).unwrap();
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        rt.ingest(&traffic(&IDS, 20).concat()).unwrap();
        rt.checkpoint(&registry).unwrap();
        drop(rt);

        // The model vanishes from the registry (partial restore, pruned
        // disk, wrong deploy bundle) — recovery must name a stranded
        // stream and its model, not panic inside resume.
        assert!(registry.remove("pulse").unwrap());
        let err = Runtime::recover(&clf, &root, "pulse")
            .err()
            .expect("recover without the model must fail");
        match err {
            ServeError::ModelMissing { stream, model } => {
                assert!(IDS.contains(&stream), "stranded stream id: {stream}");
                assert_eq!(model, "pulse");
            }
            other => panic!("expected ModelMissing, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recover_with_wrong_model_kind_is_rejected() {
        let root = tmp_root("wrong-kind");
        let clf = detector();
        let registry = ModelRegistry::open(&root).unwrap();
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        rt.ingest(&traffic(&IDS, 20).concat()).unwrap();
        rt.checkpoint(&registry).unwrap();
        drop(rt);

        // Overwrite the model entry with a snapshot of a different type.
        let foreign = etsc_core::UcrDataset::new(vec![vec![0.0, 1.0]], vec![0]).unwrap();
        registry.save("pulse", &foreign).unwrap();
        assert!(matches!(
            Runtime::recover(&clf, &root, "pulse"),
            Err(ServeError::Persist(PersistError::KindMismatch { .. }))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn periodic_checkpoints_fire_from_ingest() {
        let root = tmp_root("periodic");
        let clf = detector();
        let registry = ModelRegistry::open(&root).unwrap();
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        assert!(matches!(
            rt.enable_checkpoints(registry.clone(), 0),
            Err(ServeError::BadConfig(_))
        ));
        rt.enable_checkpoints(registry.clone(), 50).unwrap();
        assert!(registry.contains("pulse"), "model saved at enable time");
        for b in traffic(&IDS, 30) {
            rt.ingest(&b).unwrap(); // 6 records per round → ~180 total
        }
        let stats = rt.stats();
        assert!(
            (3..=4).contains(&stats.checkpoints),
            "~180 records / every-50 → 3 periodic checkpoints, got {}",
            stats.checkpoints
        );
        assert!(registry.contains("pulse.serve"));
        // The periodic checkpoint is recoverable like an explicit one.
        let tail = Runtime::recover(&clf, &root, "pulse").unwrap();
        assert_eq!(tail.stream_count(), IDS.len());
        rt.disable_checkpoints();
        let before = rt.stats().checkpoints;
        rt.ingest(&traffic(&IDS, 30).concat()).unwrap();
        assert_eq!(rt.stats().checkpoints, before, "disabled schedule is quiet");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failing_periodic_checkpoint_accepts_the_batch_and_backs_off() {
        let root = tmp_root("broken-registry");
        let clf = detector();
        let registry = ModelRegistry::open(&root).unwrap();
        let mut rt = Runtime::new(&clf, config(1)).unwrap();
        rt.enable_checkpoints(registry, 10).unwrap();
        // Break the registry out from under the schedule: replace its
        // directory with a plain file so every write fails.
        std::fs::remove_dir_all(&root).unwrap();
        std::fs::write(&root, b"not a directory").unwrap();

        let batch: Vec<Record> = (0..12).map(|i| Record::new(5, i as f64)).collect();
        let err = rt.ingest(&batch).expect_err("due checkpoint cannot write");
        assert!(matches!(err, ServeError::Persist(PersistError::Io(_))));
        // The batch was fully accepted despite the error — re-ingesting it
        // would double the stream's input.
        assert_eq!(rt.stats().ingested, 12);
        assert_eq!(rt.stats().pushes + rt.queued() as u64, 12);
        // The failed write is not re-attempted until another interval
        // elapses: the next small ingest succeeds quietly.
        rt.ingest(&batch[..2]).unwrap();
        assert_eq!(rt.stats().ingested, 14);
        let _ = std::fs::remove_file(&root);
    }

    /// The checkpoint envelope is written in place, so a stream that
    /// cannot checkpoint fails the call midway through the buffer: nothing
    /// may reach the registry, no counter may move, and the runtime must
    /// serve on exactly as if it had never tried.
    #[test]
    fn failing_checkpoint_writes_nothing_and_changes_nothing() {
        let root = tmp_root("unsaveable");
        let clf = Unsaveable(detector());
        let registry = ModelRegistry::open(&root).unwrap();
        let batches = traffic(&IDS, 90);
        let (head, tail) = batches.split_at(40);
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        let mut twin = Runtime::new(&clf, config(2)).unwrap();
        for &id in &IDS {
            assert!(rt.open_stream(id));
            assert!(twin.open_stream(id));
        }
        // No anchor is live yet, so there is no session to save.
        let written = rt.checkpoint_state(&registry).unwrap();
        let saved = registry.load_bytes("pulse.serve").unwrap();
        assert_eq!(saved.len(), written);
        for b in head {
            rt.ingest(b).unwrap();
            twin.ingest(b).unwrap();
        }
        assert!(matches!(
            rt.checkpoint_state(&registry),
            Err(ServeError::Persist(PersistError::Unsupported(_)))
        ));
        assert!(
            registry.load_bytes("pulse.serve").unwrap() == saved,
            "a failed checkpoint must leave the previous one in place"
        );
        let files: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["pulse.serve.etsc"], "no temp file is left behind");
        let stats = rt.stats();
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.last_checkpoint_bytes, written);
        for b in tail {
            rt.ingest(b).unwrap();
            twin.ingest(b).unwrap();
        }
        let (alarms, expected) = (rt.drain(), twin.drain());
        assert!(!expected.is_empty());
        assert_eq!(alarms, expected);
        assert_eq!(rt.stats().pushes, twin.stats().pushes);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovered_checkpoint_counter_matches_the_live_runtime() {
        let root = tmp_root("ckpt-counter");
        let clf = detector();
        let registry = ModelRegistry::open(&root).unwrap();
        let mut rt = Runtime::new(&clf, config(2)).unwrap();
        rt.ingest(&traffic(&IDS, 10).concat()).unwrap();
        rt.checkpoint(&registry).unwrap();
        rt.checkpoint(&registry).unwrap();
        assert_eq!(rt.stats().checkpoints, 2);
        let recovered = Runtime::recover(&clf, &root, "pulse").unwrap();
        assert_eq!(
            recovered.stats().checkpoints,
            2,
            "the checkpoint a runtime was recovered from counts"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_bytes_scale_with_stream_count() {
        let root = tmp_root("bytes");
        let clf = detector();
        let registry = ModelRegistry::open(&root).unwrap();
        let mut small = Runtime::new(&clf, config(2)).unwrap();
        small.ingest(&traffic(&IDS[..2], 10).concat()).unwrap();
        let small_bytes = small.checkpoint(&registry).unwrap();
        let mut big = Runtime::new(&clf, config(2)).unwrap();
        big.ingest(&traffic(&IDS, 10).concat()).unwrap();
        let big_bytes = big.checkpoint(&registry).unwrap();
        assert!(
            big_bytes > small_bytes,
            "6 streams ({big_bytes} B) must outweigh 2 ({small_bytes} B)"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
