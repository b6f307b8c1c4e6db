//! One shard of the serving runtime: the monitors of the streams routed to
//! it, kept in a dense slab, and its bounded queue of routed-but-unprocessed
//! records.
//!
//! A stream's **slot** is its position in the slab. Ingest resolves the
//! stream id to its slot once, through a lookup-only index, and the queued
//! record carries the slot, so a drain indexes the slab directly instead of
//! looking the id up a second time.
//!
//! The index is a std `HashMap` (keyed SipHash, so ids arriving over the
//! wire cannot be chosen to collide). Nothing iterates it: every walk whose
//! result escapes — checkpoint bytes, the stream id listing — goes through
//! [`Shard::sorted`] or sorts ids itself, so the hash order never reaches
//! bytes, alarms or callers.

use etsc_core::metrics::{Clock, Histogram};
use etsc_core::trace::{SpanKind, Tracer};
use etsc_early::EarlyClassifier;
use etsc_stream::StreamMonitor;

use crate::runtime::StreamAlarm;
use crate::stats::ShardStats;

/// Per-push latency is sampled once every this many pushes per shard. A
/// pair of clock reads costs ~100 ns on a 2-vCPU VM (98–110 ns, pinned),
/// against pushes of ~70 ns (4096 template streams) to ~170 ns (the
/// softmax model's lane block): sampled 1-in-8 they cost ~12 ns a push,
/// over the 5% telemetry budget; 1-in-64 costs under 2 ns, while a busy
/// shard still collects thousands of samples per second.
const PUSH_SAMPLE_EVERY: u64 = 64;

/// A routed-but-unprocessed record: the slab slot of its stream's monitor,
/// resolved at ingest.
struct Queued {
    seq: u64,
    slot: usize,
    value: f64,
}

/// One shard: its streams' monitors and its bounded record queue.
pub(crate) struct Shard<'a, C: EarlyClassifier + ?Sized> {
    /// The monitors this shard owns, densely packed, each with its stream
    /// id; a stream's slot is its position here.
    ///
    /// **Slot stability:** queued records carry slots, so a slot may move
    /// only while the queue is empty. Opening a stream appends and never
    /// moves one; only [`remove`](Self::remove) does (`swap_remove` plus an
    /// index fix for the entry that moved), and every caller of it —
    /// `close_stream`, `export_streams`, `rebalance` — flushes all queues
    /// first.
    monitors: Vec<(u64, StreamMonitor<'a, C>)>,
    /// Stream id → slot in `monitors`, one entry per monitor.
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only id → slot index; never iterated"
    )]
    index: std::collections::HashMap<u64, usize>,
    queue: Vec<Queued>,
    pub(crate) pushes: u64,
    pub(crate) alarms: u64,
    queue_high_water: usize,
    /// Trace state: (trace id, enqueue span id) of the most recent traced
    /// ingest that routed into this shard, consumed by the next queue
    /// processing, which parents its `ShardDrain`/`AlarmEmit` spans to the
    /// enqueue span. One slot per shard — when several traced batches land
    /// between drains the latest wins, a deliberate coarsening that keeps
    /// the hot ingest path at one word-sized store per record (the
    /// tracing-overhead A/B in bench_serve holds the whole path under
    /// 5%). Only populated while a tracer is installed and enabled.
    pub(crate) trace: Option<(u64, u64)>,
}

impl<'a, C: EarlyClassifier + ?Sized> Shard<'a, C> {
    pub(crate) fn new() -> Self {
        Self {
            monitors: Vec::new(),
            index: Default::default(),
            queue: Vec::new(),
            pushes: 0,
            alarms: 0,
            queue_high_water: 0,
            trace: None,
        }
    }

    /// Streams live in this shard.
    pub(crate) fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Records queued here and not yet processed.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// True if `stream` is live in this shard.
    pub(crate) fn contains(&self, stream: u64) -> bool {
        self.index.contains_key(&stream)
    }

    /// The monitor of `stream`, if it is live here.
    pub(crate) fn get(&self, stream: u64) -> Option<&StreamMonitor<'a, C>> {
        let slot = *self.index.get(&stream)?;
        self.monitors.get(slot).map(|(_, m)| m)
    }

    /// The slot of `stream`, opening it with the monitor `open` builds if it
    /// is not live here; the flag is true if it was opened now. Appending
    /// never moves an existing slot, so this is safe with records queued.
    fn slot_or_open(
        &mut self,
        stream: u64,
        open: impl FnOnce() -> StreamMonitor<'a, C>,
    ) -> (usize, bool) {
        let monitors = &mut self.monitors;
        let mut opened = false;
        let slot = *self.index.entry(stream).or_insert_with(|| {
            opened = true;
            monitors.push((stream, open()));
            monitors.len() - 1
        });
        (slot, opened)
    }

    /// Adopt `monitor` as `stream`'s; false (and `monitor` dropped) if the
    /// stream is already live here.
    pub(crate) fn insert(&mut self, stream: u64, monitor: StreamMonitor<'a, C>) -> bool {
        self.slot_or_open(stream, || monitor).1
    }

    /// Queue one sample of `stream`, opening the stream with `open` if it is
    /// new: the only id lookup the record costs.
    pub(crate) fn enqueue(
        &mut self,
        seq: u64,
        stream: u64,
        value: f64,
        open: impl FnOnce() -> StreamMonitor<'a, C>,
    ) {
        let (slot, _) = self.slot_or_open(stream, open);
        self.queue.push(Queued { seq, slot, value });
        self.queue_high_water = self.queue_high_water.max(self.queue.len());
    }

    /// Retire `stream`, returning its monitor. Moves the last slot into the
    /// freed one, so the queue must be empty (see `monitors`).
    pub(crate) fn remove(&mut self, stream: u64) -> Option<StreamMonitor<'a, C>> {
        debug_assert!(
            self.queue.is_empty(),
            "slots move only while the queue is empty"
        );
        let slot = self.index.remove(&stream)?;
        // Every indexed slot is below `monitors.len()`, so `swap_remove`
        // cannot panic.
        let (_, monitor) = self.monitors.swap_remove(slot);
        if let Some(&(moved, _)) = self.monitors.get(slot) {
            self.index.insert(moved, slot);
        }
        Some(monitor)
    }

    /// This shard's streams in ascending id order: the order of every walk
    /// whose result escapes.
    pub(crate) fn sorted(&self) -> Vec<(u64, &StreamMonitor<'a, C>)> {
        let mut streams: Vec<_> = self.monitors.iter().map(|(id, m)| (*id, m)).collect();
        streams.sort_unstable_by_key(|&(id, _)| id);
        streams
    }

    /// The ids of this shard's streams, in slot order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.monitors.iter().map(|&(id, _)| id)
    }

    /// Take the shard apart into its `(stream id, monitor)` pairs, in slot
    /// order.
    pub(crate) fn into_monitors(self) -> Vec<(u64, StreamMonitor<'a, C>)> {
        self.monitors
    }

    /// This shard's counters for a [`ServeStats`](crate::ServeStats)
    /// report, as shard number `shard`.
    pub(crate) fn stats(&self, shard: usize) -> ShardStats {
        ShardStats {
            shard,
            streams: self.monitors.len(),
            queued: self.queue.len(),
            queue_high_water: self.queue_high_water,
            pushes: self.pushes,
            alarms: self.alarms,
        }
    }

    /// Process every queued record in ingest order. Runs on one worker
    /// thread during a drain; shards are independent, so servicing them
    /// concurrently cannot change any stream's sample order. `clock` and
    /// `push_ns` come from the owning runtime: push latency is sampled
    /// every [`PUSH_SAMPLE_EVERY`]-th push per shard (the sampling
    /// decision depends only on the shard's push counter, never on the
    /// clock, so instrumentation cannot perturb what any monitor sees).
    pub(crate) fn process_queue(
        &mut self,
        clock: &Clock,
        push_ns: &Histogram,
        tracer: Option<&Tracer>,
    ) -> Vec<StreamAlarm> {
        let timing = !clock.is_disabled();
        // Trace state exists only if a traced ingest routed into this
        // shard; with none, the drain does zero tracing work (not even a
        // clock read).
        let tracer = tracer.filter(|t| t.enabled() && self.trace.is_some());
        let trace_start = tracer.map_or(0, |t| t.start());
        let drained = self.queue.len() as u64;
        let mut out = Vec::new();
        for q in self.queue.drain(..) {
            // Ingest resolved the slot when it queued the record, and slots
            // move only while the queue is empty, so it is live; a bug
            // upstream degrades to skipping the orphan record rather than
            // panicking a worker (which would poison the whole drain).
            let Some((stream, monitor)) = self.monitors.get_mut(q.slot) else {
                debug_assert!(false, "queued record for unknown slot {}", q.slot);
                continue;
            };
            self.pushes += 1;
            let sampled = timing && self.pushes.is_multiple_of(PUSH_SAMPLE_EVERY);
            let started = if sampled { clock.now_ns() } else { 0 };
            let alarm = monitor.push(q.value);
            if sampled {
                push_ns.record(clock.now_ns().saturating_sub(started));
            }
            if let Some(alarm) = alarm {
                self.alarms += 1;
                out.push(StreamAlarm {
                    stream: *stream,
                    seq: q.seq,
                    alarm,
                });
            }
        }
        if let (Some(tracer), Some((trace_id, enq_span))) = (tracer, self.trace.take()) {
            // One ShardDrain span for the whole pass, parented to the
            // enqueue span of the shard's latest traced ingest; each alarm
            // the drain produced becomes an instant AlarmEmit span under
            // the drain span — which is how one trace id connects
            // client → shard → alarm.
            let drain_span = tracer.span(
                SpanKind::ShardDrain,
                trace_id,
                enq_span,
                trace_start,
                drained,
            );
            for a in &out {
                let at = tracer.start();
                tracer.span_at(SpanKind::AlarmEmit, trace_id, drain_span, at, at, a.seq);
            }
        }
        out
    }
}
