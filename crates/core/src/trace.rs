//! Request-scoped distributed tracing and the structured event log: the
//! zero-dependency, lock-free observability core the cluster, node,
//! shard, and alarm layers all record into.
//!
//! # What lives here
//!
//! * [`ring`] — the bounded wait-free span ring: fixed-size slots,
//!   drop-oldest overwrite with exact drop accounting, per-thread buffers
//!   mergeable at export.
//! * [`span`] — the [`Span`] record and the closed [`SpanKind`]
//!   vocabulary of pipeline stages (client send → node decode → shard
//!   enqueue → drain → alarm emission, plus checkpoint / migration /
//!   failover redelivery).
//! * [`context`] — the 16-byte [`TraceContext`] that carries a trace id
//!   and parent span across the wire (protocol v3's optional trailing
//!   field; zero bytes when tracing is off).
//! * [`event`] — the typed, severity-filtered [`EventLog`] of operational
//!   events (failovers, fault injections, retries, migrations,
//!   checkpoints, queue-full rejections), rendered as text or JSON lines.
//! * [`export`] — Chrome `trace_event` JSON export for span sets.
//! * [`scope`] — the [`Scope`] every layer times and traces a region of
//!   work through: a histogram observation, a span, and events, each
//!   skipped when its clock is disabled.
//!
//! # Determinism contract
//!
//! Tracing obeys the same invariant the metrics plane does: **recording
//! never touches alarm bytes**. Span ids come from a deterministic seeded
//! counter, timestamps come from the injected
//! [`Clock`](crate::metrics::Clock), and a disabled clock short-circuits
//! every site — no spans, no events, no wire context, zero bytes of
//! overhead. The e2e suites assert per-stream alarm sequences are
//! bit-identical with tracing disabled, monotonic, and manual.
//!
//! # Using a tracer
//!
//! A [`Tracer`] is a cheap-to-clone shared handle (clones share the ring,
//! the event log, and the id counter), so one tracer can be handed to a
//! runtime, its node, and a supervisor and every span lands in one buffer.
//! Work is traced, and timed into a histogram if asked, through a
//! [`Scope`]:
//!
//! ```
//! use etsc_core::metrics::{Clock, Histogram};
//! use etsc_core::trace::{Scope, SpanKind, Tracer, TracerConfig};
//!
//! let clock = Clock::manual();
//! let tracer = Tracer::new(TracerConfig {
//!     clock: clock.clone(),
//!     ..TracerConfig::default()
//! });
//! let latency = Histogram::new();
//!
//! // A root span and a child under it: the child parents to the root's
//! // id before the root's span is recorded.
//! let mut root = Scope::root(Some(&tracer), SpanKind::ClientIngest).timed(&clock);
//! let ctx = root.ctx();
//! clock.advance_ns(300);
//! let child = Scope::child(Some(&tracer), ctx, SpanKind::ShardEnqueue);
//! clock.advance_ns(200);
//! child.finish(42, None);
//! root.finish(0, Some(&latency));
//!
//! let spans = tracer.spans();
//! assert_eq!(Some(spans[0].parent_id), ctx.map(|c| c.parent_span));
//! assert_eq!((spans[0].dur_ns, spans[1].dur_ns), (200, 500));
//! assert_eq!(latency.snapshot().sum, 500);
//! ```

pub mod context;
pub mod event;
pub mod export;
pub mod ring;
pub mod scope;
pub mod span;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::Clock;

pub use context::TraceContext;
pub use event::{Event, EventKind, EventLog, Severity};
pub use ring::SpanRing;
pub use scope::Scope;
pub use span::{Span, SpanKind};

/// Construction parameters for a [`Tracer`].
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// Span ring capacity (rounded up to a power of two). Default 4096.
    pub span_capacity: usize,
    /// Event log capacity (rounded up to a power of two). Default 1024.
    pub event_capacity: usize,
    /// First id the deterministic counter hands out (clamped to ≥ 1,
    /// because 0 means "no span"). Default 1.
    pub id_seed: u64,
    /// The clock every span timestamp and event time reads;
    /// [`Clock::disabled`] turns the whole tracer into a no-op. Default
    /// monotonic.
    pub clock: Clock,
    /// Events below this severity are discarded. Default
    /// [`Severity::Debug`] (keep everything).
    pub min_severity: Severity,
}

impl Default for TracerConfig {
    fn default() -> Self {
        Self {
            span_capacity: 4096,
            event_capacity: 1024,
            id_seed: 1,
            clock: Clock::monotonic(),
            min_severity: Severity::Debug,
        }
    }
}

#[derive(Debug)]
struct TracerInner {
    spans: SpanRing,
    events: EventLog,
    next_id: AtomicU64,
    clock: Clock,
}

/// The shared tracing handle: a span ring, an event log, a deterministic
/// id counter, and the injected clock, behind one `Arc`. Cloning shares
/// all four, so every layer of a process records into the same buffers.
///
/// All recording is `&self`, wait-free, and silently skipped when the
/// clock is disabled (see the [module docs](self) for the contract).
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(TracerConfig::default())
    }
}

impl Tracer {
    /// Build a tracer from `cfg`.
    pub fn new(cfg: TracerConfig) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                spans: SpanRing::new(cfg.span_capacity),
                events: EventLog::new(cfg.event_capacity, cfg.min_severity),
                next_id: AtomicU64::new(cfg.id_seed.max(1)),
                clock: cfg.clock,
            }),
        }
    }

    /// Whether this tracer records anything: true unless its clock is
    /// disabled. Sites hoist this check and skip their span bookkeeping
    /// entirely when it is false.
    pub fn enabled(&self) -> bool {
        !self.inner.clock.is_disabled()
    }

    /// The injected clock (shared with every clone).
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Current clock time in nanoseconds (0 when disabled) — the start
    /// timestamp for a span about to be measured.
    pub fn start(&self) -> u64 {
        self.inner.clock.now_ns()
    }

    /// The next id from the deterministic counter that both trace and span
    /// ids come from (unique, nonzero, monotone). A [`Scope`] takes its
    /// span's id here before the span is recorded, so its work can parent
    /// to it.
    fn next_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, span: Span) {
        self.inner.spans.record(span.pack());
    }

    /// Record a span that started at `start_ns` (from [`start`](Self::start))
    /// and ends now. Returns the new span's id, or 0 (and records nothing)
    /// when the tracer is disabled.
    pub fn span(
        &self,
        kind: SpanKind,
        trace_id: u64,
        parent_id: u64,
        start_ns: u64,
        arg: u64,
    ) -> u64 {
        let end = self.inner.clock.now_ns();
        self.span_at(kind, trace_id, parent_id, start_ns, end, arg)
    }

    /// Record a span with explicit start and end timestamps (end is
    /// clamped to start). Returns the new span's id, or 0 when disabled.
    pub fn span_at(
        &self,
        kind: SpanKind,
        trace_id: u64,
        parent_id: u64,
        start_ns: u64,
        end_ns: u64,
        arg: u64,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let span_id = self.next_id();
        self.record(Span {
            trace_id,
            span_id,
            parent_id,
            kind,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            arg,
        });
        span_id
    }

    /// Log one event at the current clock time (no-op when disabled or
    /// below the log's severity floor).
    pub fn event(&self, severity: Severity, kind: EventKind, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.inner.events.log(Event {
            time_ns: self.inner.clock.now_ns(),
            severity,
            kind,
            a,
            b,
        });
    }

    /// Every retained span, oldest first (record order).
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .spans
            .snapshot()
            .iter()
            .filter_map(|(_, words)| Span::unpack(words))
            .collect()
    }

    /// Every retained event, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.events()
    }

    /// Spans evicted from the ring (drop-oldest plus contention drops).
    pub fn dropped_spans(&self) -> u64 {
        self.inner.spans.dropped()
    }

    /// Events evicted from the event log.
    pub fn dropped_events(&self) -> u64 {
        self.inner.events.dropped()
    }

    /// Render the retained spans as Chrome `trace_event` JSON, stamped
    /// with `process` (see [`export::chrome_trace_json`]).
    pub fn export_chrome(&self, process: &str) -> String {
        export::chrome_trace_json(process, &self.spans(), self.dropped_spans())
    }

    /// Render the retained events as human text, one line per event.
    pub fn events_text(&self) -> String {
        self.inner.events.render_text()
    }

    /// Render the retained events as JSON lines.
    pub fn events_json_lines(&self) -> String {
        self.inner.events.render_json_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing_and_returns_zero_ids() {
        let tracer = Tracer::new(TracerConfig {
            clock: Clock::disabled(),
            ..TracerConfig::default()
        });
        assert!(!tracer.enabled());
        let id = tracer.span(SpanKind::ClientIngest, 1, 0, 0, 0);
        assert_eq!(id, 0);
        tracer.event(Severity::Error, EventKind::FailoverDeclared, 1, 1);
        assert!(tracer.spans().is_empty());
        assert!(tracer.events().is_empty());
    }

    #[test]
    fn clones_share_ring_ids_and_clock() {
        let clock = Clock::manual();
        let tracer = Tracer::new(TracerConfig {
            clock: clock.clone(),
            id_seed: 100,
            ..TracerConfig::default()
        });
        let twin = tracer.clone();
        let trace = tracer.next_id();
        assert_eq!(trace, 100);
        let t0 = twin.start();
        clock.advance_ns(50);
        let root = twin.span(SpanKind::NodeIngest, trace, 0, t0, 7);
        assert_eq!(root, 101);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].span_id, root);
        assert_eq!(spans[0].dur_ns, 50);
        assert_eq!(spans[0].arg, 7);
    }

    #[test]
    fn id_seed_zero_still_hands_out_nonzero_ids() {
        let tracer = Tracer::new(TracerConfig {
            id_seed: 0,
            ..TracerConfig::default()
        });
        assert_eq!(tracer.next_id(), 1);
    }

    #[test]
    fn export_includes_every_span_and_the_drop_counter() {
        let clock = Clock::manual();
        let tracer = Tracer::new(TracerConfig {
            span_capacity: 2,
            clock: clock.clone(),
            ..TracerConfig::default()
        });
        let trace = tracer.next_id();
        for shard in 0..5u64 {
            let t0 = tracer.start();
            clock.advance_ns(10);
            tracer.span(SpanKind::ShardDrain, trace, 0, t0, shard);
        }
        assert_eq!(tracer.dropped_spans(), 3);
        let json = tracer.export_chrome("test");
        assert!(json.contains("\"dropped_spans\":3"));
        assert_eq!(json.matches("\"name\":\"shard_drain\"").count(), 2);
    }
}
