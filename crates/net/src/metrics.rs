//! Per-message-kind latency instrumentation shared by [`Node`] and
//! [`NetClient`]: one log₂ [`Histogram`] per request kind, recorded
//! wait-free from connection threads, rendered as a single labelled
//! Prometheus family (`msg="Drain"`, `msg="Ping"`, …) through the shared
//! exposition helpers in [`etsc_core::metrics`].
//!
//! Timing only happens when the injected [`Clock`](etsc_core::metrics::Clock)
//! is enabled, and never influences replies — the distribution-invariance
//! contract of the crate holds with instrumentation on.
//!
//! [`Node`]: crate::Node
//! [`NetClient`]: crate::NetClient

use etsc_core::metrics::{push_histogram_series, Histogram, HistogramSnapshot};

use crate::wire::Message;

/// Request kinds a [`MessageTimings`] distinguishes, in slot order.
/// Reply types are not timed (they are never dispatched as requests).
pub const MSG_KINDS: [&str; 11] = [
    "OpenStream",
    "IngestBatch",
    "Drain",
    "Checkpoint",
    "Stats",
    "MigrateOut",
    "MigrateIn",
    "Shutdown",
    "Ping",
    "StreamCount",
    "Trace",
];

/// One latency histogram per request kind. `&self` recording, so a node's
/// connection threads share one instance without coordination.
#[derive(Debug)]
pub struct MessageTimings {
    slots: [Histogram; MSG_KINDS.len()],
}

impl Default for MessageTimings {
    fn default() -> Self {
        Self::new()
    }
}

impl MessageTimings {
    /// All-empty timings.
    pub fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// The [`Message::IngestBatch`] slot, for ingest frames encoded
    /// without a [`Message`].
    pub(crate) const INGEST_BATCH: usize = 1;

    /// Slot index for a *request* message, `None` for reply types.
    pub fn index_of(msg: &Message) -> Option<usize> {
        match msg {
            Message::OpenStream { .. } => Some(0),
            Message::IngestBatch { .. } => Some(Self::INGEST_BATCH),
            Message::Drain => Some(2),
            Message::Checkpoint => Some(3),
            Message::Stats => Some(4),
            Message::MigrateOut { .. } => Some(5),
            Message::MigrateIn { .. } => Some(6),
            Message::Shutdown => Some(7),
            Message::Ping { .. } => Some(8),
            Message::StreamCount => Some(9),
            Message::Trace => Some(10),
            _ => None,
        }
    }

    /// Record `ns` into the slot picked earlier by [`index_of`]
    /// (out-of-range indices are ignored, never a panic).
    ///
    /// [`index_of`]: Self::index_of
    pub fn record(&self, slot: usize, ns: u64) {
        if let Some(h) = self.slots.get(slot) {
            h.record(ns);
        }
    }

    /// Snapshot every slot, labelled by kind name (empty slots included —
    /// callers filter if they only want observed kinds).
    pub fn snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        MSG_KINDS
            .iter()
            .zip(self.slots.iter())
            .map(|(&kind, h)| (kind, h.snapshot()))
            .collect()
    }

    /// Fold another timings snapshot set into `acc` (element-wise merge,
    /// associative and commutative — cluster aggregation over clients uses
    /// this). `acc` must be [`MSG_KINDS`]-shaped, e.g. from
    /// [`empty_snapshots`](Self::empty_snapshots).
    pub fn merge_into(
        acc: &mut [(&'static str, HistogramSnapshot)],
        other: &[(&'static str, HistogramSnapshot)],
    ) {
        for (a, o) in acc.iter_mut().zip(other.iter()) {
            a.1.merge(&o.1);
        }
    }

    /// A [`MSG_KINDS`]-shaped all-empty snapshot set, the identity for
    /// [`merge_into`](Self::merge_into).
    pub fn empty_snapshots() -> Vec<(&'static str, HistogramSnapshot)> {
        MSG_KINDS
            .iter()
            .map(|&kind| (kind, HistogramSnapshot::empty()))
            .collect()
    }

    /// Append this timing set as one labelled histogram family, one
    /// `msg="…"` series per kind that has at least one observation. A
    /// fully empty set still emits the family preamble (and nothing
    /// else), so scrapers see a stable metric universe.
    pub fn push_prometheus(&self, out: &mut String, name: &str, help: &str) {
        let snaps = self.snapshots();
        push_snapshots_prometheus(out, name, help, &snaps);
    }
}

/// Render a [`MSG_KINDS`]-shaped snapshot set (from
/// [`MessageTimings::snapshots`] or a [`merge_into`] fold) as one
/// labelled histogram family, skipping kinds with no observations.
///
/// [`merge_into`]: MessageTimings::merge_into
pub fn push_snapshots_prometheus(
    out: &mut String,
    name: &str,
    help: &str,
    snaps: &[(&'static str, HistogramSnapshot)],
) {
    let labelled: Vec<(String, &HistogramSnapshot)> = snaps
        .iter()
        .filter(|(_, s)| s.count() > 0)
        .map(|(kind, s)| (format!("msg=\"{kind}\""), s))
        .collect();
    let series: Vec<(&str, &HistogramSnapshot)> =
        labelled.iter().map(|(l, s)| (l.as_str(), *s)).collect();
    push_histogram_series(out, name, help, &series);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_kind_maps_to_its_slot_and_replies_map_to_none() {
        let reqs = [
            Message::OpenStream { stream: 1 },
            Message::IngestBatch {
                client: 0,
                seq: 0,
                records: vec![],
                ctx: None,
            },
            Message::Drain,
            Message::Checkpoint,
            Message::Stats,
            Message::MigrateOut { streams: vec![] },
            Message::MigrateIn { streams: vec![] },
            Message::Shutdown,
            Message::Ping { token: 9 },
            Message::StreamCount,
            Message::Trace,
        ];
        for (i, msg) in reqs.iter().enumerate() {
            assert_eq!(MessageTimings::index_of(msg), Some(i), "{}", msg.name());
            assert_eq!(msg.name(), MSG_KINDS[i], "slot order matches names");
        }
        assert_eq!(
            MessageTimings::index_of(&Message::Pong { token: 9 }),
            None,
            "replies are not timed"
        );
    }

    #[test]
    fn recording_is_per_slot_and_out_of_range_is_ignored() {
        let t = MessageTimings::new();
        t.record(2, 1_000);
        t.record(2, 3_000);
        t.record(8, 50);
        t.record(usize::MAX, 7); // silently dropped
        let snaps = t.snapshots();
        assert_eq!(snaps[2].1.count(), 2);
        assert_eq!(snaps[8].1.count(), 1);
        assert_eq!(snaps.iter().map(|(_, s)| s.count()).sum::<u64>(), 3);
    }

    #[test]
    fn exposition_labels_only_observed_kinds() {
        let t = MessageTimings::new();
        t.record(2, 1_000);
        t.record(8, 50);
        let mut out = String::new();
        t.push_prometheus(&mut out, "etsc_net_request_ns", "Service time.");
        assert_eq!(
            out.matches("# TYPE etsc_net_request_ns histogram").count(),
            1
        );
        assert!(out.contains("etsc_net_request_ns_count{msg=\"Drain\"} 1"));
        assert!(out.contains("etsc_net_request_ns_count{msg=\"Ping\"} 1"));
        assert!(!out.contains("msg=\"Stats\""), "unobserved kind skipped");
    }

    #[test]
    fn merge_into_folds_kindwise() {
        let a = MessageTimings::new();
        a.record(2, 100);
        let b = MessageTimings::new();
        b.record(2, 200);
        b.record(8, 7);
        let mut acc = MessageTimings::empty_snapshots();
        MessageTimings::merge_into(&mut acc, &a.snapshots());
        MessageTimings::merge_into(&mut acc, &b.snapshots());
        assert_eq!(acc[2].1.count(), 2);
        assert_eq!(acc[2].1.sum, 300);
        assert_eq!(acc[8].1.count(), 1);
    }
}
