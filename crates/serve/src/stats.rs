//! Instrumentation snapshots for the serving runtime, and their
//! Prometheus text exposition.

use etsc_core::metrics::{
    push_counter, push_gauge, push_histogram, push_scalar_series, HistogramSnapshot,
};

/// Counters for one shard, as of a [`stats`](crate::Runtime::stats) call.
///
/// Per-shard counters describe the **current topology**: they start at zero
/// when the shard is created (at construction, after a
/// [`rebalance`](crate::Runtime::rebalance), or at recovery) — the work done
/// by previous topologies is folded into the runtime-level totals on
/// [`ServeStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (0-based).
    pub shard: usize,
    /// Streams currently owned by this shard.
    pub streams: usize,
    /// Records waiting in this shard's queue right now.
    pub queued: usize,
    /// Largest queue depth this shard has seen — the number to compare with
    /// the configured capacity when sizing backpressure.
    pub queue_high_water: usize,
    /// Samples pushed into this shard's monitors.
    pub pushes: u64,
    /// Alarms produced by this shard's monitors.
    pub alarms: u64,
}

/// A whole-runtime metrics snapshot from [`stats`](crate::Runtime::stats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Per-shard breakdown for the current topology, by shard index.
    pub shards: Vec<ShardStats>,
    /// Streams currently live across all shards.
    pub streams: usize,
    /// Total samples pushed into monitors over the runtime's life
    /// (rebalances and recoveries included).
    pub pushes: u64,
    /// Total alarms produced over the runtime's life.
    pub alarms: u64,
    /// Records accepted by [`ingest`](crate::Runtime::ingest) over the
    /// runtime's life (`pushes` lags this by whatever is still queued).
    pub ingested: u64,
    /// Alarms produced but not yet returned by a
    /// [`drain`](crate::Runtime::drain) call.
    pub pending_alarms: usize,
    /// Batches rejected under [`OverflowPolicy::Reject`](crate::OverflowPolicy::Reject).
    pub rejected_batches: u64,
    /// Tagged batches skipped by [`ingest_with`](crate::Runtime::ingest_with)
    /// because the client's cursor showed them already applied — each one is
    /// a retry duplicate that exactly-once delivery absorbed.
    pub duplicate_batches: u64,
    /// Live total queue depth across all shards, maintained continuously at
    /// every ingest, reject, and drain — between drains this reflects the
    /// actual backlog (unlike the per-shard snapshots, it needs no
    /// [`stats`](crate::Runtime::stats) walk to stay fresh).
    pub queue_depth: u64,
    /// Runtime-lifetime high-water mark of [`queue_depth`](Self::queue_depth)
    /// (per-shard marks reset with the topology; this one never does).
    pub queue_depth_high_water: u64,
    /// Completed [`rebalance`](crate::Runtime::rebalance) calls.
    pub rebalances: u64,
    /// Streams that changed shards in a rebalance, or left or joined the
    /// runtime through `export_streams` / `import_streams`.
    pub migrated_streams: u64,
    /// Checkpoints written (explicit and periodic).
    pub checkpoints: u64,
    /// Size in bytes of the most recent runtime-state checkpoint envelope
    /// (0 before the first checkpoint).
    pub last_checkpoint_bytes: usize,
    /// Latency distribution of whole drain cycles (one observation per
    /// [`drain`](crate::Runtime::drain)/flush that found queued work),
    /// in nanoseconds. Empty when the runtime's clock is disabled.
    pub drain_cycle_ns: HistogramSnapshot,
    /// Latency distribution of individual monitor pushes, sampled 1-in-64
    /// per shard (see [`crate::Runtime::set_clock`]), in nanoseconds.
    pub push_ns: HistogramSnapshot,
    /// Distribution of checkpoint pause times (the stop-the-world span of
    /// [`checkpoint_state`](crate::Runtime::checkpoint_state)), in
    /// nanoseconds.
    pub checkpoint_pause_ns: HistogramSnapshot,
    /// Distribution of checkpoint envelope sizes, in bytes (recorded for
    /// every checkpoint regardless of clock mode).
    pub checkpoint_bytes: HistogramSnapshot,
    /// Latency distribution of stream-migration operations (rebalances,
    /// exports, imports), in nanoseconds.
    pub migration_ns: HistogramSnapshot,
}

impl ServeStats {
    /// Render this snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one `# HELP`/`# TYPE` preamble per metric, runtime
    /// totals as unlabelled samples, per-shard values labelled
    /// `{shard="<index>"}`.
    ///
    /// Counter metrics carry the conventional `_total` suffix; queue
    /// high-water marks and live-stream counts are gauges. The serving
    /// node (`etsc-net`) answers its `Stats` request with exactly this
    /// text, so any Prometheus-compatible scraper can consume a node
    /// without a translation layer.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter =
            |name: &str, help: &str, value: u64| push_counter(&mut out, name, help, value);
        counter(
            "etsc_serve_ingested_total",
            "Records accepted by ingest over the runtime's life.",
            self.ingested,
        );
        counter(
            "etsc_serve_pushes_total",
            "Samples pushed into stream monitors over the runtime's life.",
            self.pushes,
        );
        counter(
            "etsc_serve_alarms_total",
            "Alarms produced over the runtime's life.",
            self.alarms,
        );
        counter(
            "etsc_serve_rejected_batches_total",
            "Batches rejected under the Reject overflow policy.",
            self.rejected_batches,
        );
        counter(
            "etsc_serve_duplicate_batches_total",
            "Tagged ingest batches skipped as already-applied retry duplicates.",
            self.duplicate_batches,
        );
        counter(
            "etsc_serve_rebalances_total",
            "Completed rebalance calls.",
            self.rebalances,
        );
        counter(
            "etsc_serve_migrated_streams_total",
            "Streams that changed shards in a rebalance, or left or joined the runtime through export/import.",
            self.migrated_streams,
        );
        counter(
            "etsc_serve_checkpoints_total",
            "Checkpoints written (explicit and periodic).",
            self.checkpoints,
        );
        let mut gauge =
            |name: &str, help: &str, value: u64| push_gauge(&mut out, name, help, value);
        gauge(
            "etsc_serve_streams",
            "Streams currently live across all shards.",
            self.streams as u64,
        );
        gauge(
            "etsc_serve_pending_alarms",
            "Alarms produced but not yet returned by a drain.",
            self.pending_alarms as u64,
        );
        gauge(
            "etsc_serve_queue_depth",
            "Live total queue depth across all shards (updated at ingest/reject/drain).",
            self.queue_depth,
        );
        gauge(
            "etsc_serve_queue_depth_high_water",
            "Runtime-lifetime high-water mark of the live queue depth.",
            self.queue_depth_high_water,
        );
        gauge(
            "etsc_serve_last_checkpoint_bytes",
            "Size of the most recent runtime-state checkpoint envelope.",
            self.last_checkpoint_bytes as u64,
        );
        gauge(
            "etsc_serve_shards",
            "Shards in the current topology.",
            self.shards.len() as u64,
        );
        let mut histogram = |name: &str, help: &str, snap: &HistogramSnapshot| {
            push_histogram(&mut out, name, help, snap)
        };
        histogram(
            "etsc_serve_drain_cycle_ns",
            "Drain-cycle latency in nanoseconds (one observation per flush with queued work).",
            &self.drain_cycle_ns,
        );
        histogram(
            "etsc_serve_push_ns",
            "Per-push monitor latency in nanoseconds, sampled 1-in-64 pushes per shard.",
            &self.push_ns,
        );
        histogram(
            "etsc_serve_checkpoint_pause_ns",
            "Checkpoint pause (stop-the-world span of a state checkpoint) in nanoseconds.",
            &self.checkpoint_pause_ns,
        );
        histogram(
            "etsc_serve_checkpoint_bytes",
            "Checkpoint envelope sizes in bytes.",
            &self.checkpoint_bytes,
        );
        histogram(
            "etsc_serve_migration_ns",
            "Stream-migration latency (rebalance/export/import) in nanoseconds.",
            &self.migration_ns,
        );
        let labels: Vec<String> = self
            .shards
            .iter()
            .map(|s| format!("shard=\"{}\"", s.shard))
            .collect();
        let mut labelled =
            |name: &str, help: &str, kind: &str, value: &dyn Fn(&ShardStats) -> u64| {
                let series: Vec<(&str, u64)> = labels
                    .iter()
                    .zip(&self.shards)
                    .map(|(l, s)| (l.as_str(), value(s)))
                    .collect();
                push_scalar_series(&mut out, name, help, kind, &series);
            };
        labelled(
            "etsc_serve_shard_streams",
            "Streams currently owned by the shard.",
            "gauge",
            &|s| s.streams as u64,
        );
        labelled(
            "etsc_serve_shard_queued",
            "Records waiting in the shard's queue right now.",
            "gauge",
            &|s| s.queued as u64,
        );
        labelled(
            "etsc_serve_shard_queue_high_water",
            "Largest queue depth the shard has seen in the current topology.",
            "gauge",
            &|s| s.queue_high_water as u64,
        );
        labelled(
            "etsc_serve_shard_pushes_total",
            "Samples pushed into the shard's monitors in the current topology.",
            "counter",
            &|s| s.pushes,
        );
        labelled(
            "etsc_serve_shard_alarms_total",
            "Alarms produced by the shard's monitors in the current topology.",
            "counter",
            &|s| s.alarms,
        );
        out
    }
}
