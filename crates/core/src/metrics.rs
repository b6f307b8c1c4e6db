//! Lock-free telemetry for the serving stack: atomic counters and gauges,
//! log₂-bucket latency histograms, a deterministic [`Clock`], and the
//! shared Prometheus text-exposition helpers every layer renders through.
//!
//! # Design
//!
//! * **Zero dependencies, zero locks.** Every metric is plain `std`
//!   atomics; recording is wait-free and `&self`, so shard workers and
//!   connection threads share one metric without coordination.
//! * **Histograms are mergeable.** [`HistogramSnapshot::merge`] is
//!   associative and commutative, so per-shard/per-client histograms
//!   aggregate in any order — see [`histogram`] for bucket layout and the
//!   quantile error bound.
//! * **Time is injected.** Instrumented code reads a [`Clock`] handed to
//!   it: monotonic in production, manually stepped in deterministic
//!   tests, disabled when a bench wants the uninstrumented baseline.
//!   Clippy's `disallowed_methods` (the workspace `clippy.toml`) bans
//!   ambient clocks; the two `#[expect]`ed exceptions in library code
//!   are [`clock`] and the trace exporter's export stamp
//!   ([`crate::trace::export`]).
//! * **One exposition dialect.** [`push_scalar_series`] and
//!   [`push_histogram_series`], and the unlabelled [`push_counter`],
//!   [`push_gauge`] and [`push_histogram`] over them, are the only code
//!   that formats Prometheus text (version 0.0.4); `etsc-serve` and
//!   `etsc-net` both render through them, so `_bucket`/`_sum`/`_count` and
//!   `# HELP`/`# TYPE` stay format-identical across every layer.
//!
//! Histogram exposition is cumulative, as Prometheus requires: each
//! `_bucket{le="N"}` sample counts observations ≤ N, bucket lines stop at
//! the highest non-empty bucket, and a final `le="+Inf"` line always
//! equals `_count`.

pub mod clock;
pub mod histogram;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

pub use clock::Clock;
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: a value that can move both ways (queue depth, live
/// streams), plus a high-water helper.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is higher (high-water tracking).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Append one unlabelled counter in Prometheus text exposition format.
pub fn push_counter(out: &mut String, name: &str, help: &str, value: u64) {
    push_scalar_series(out, name, help, "counter", &[("", value)]);
}

/// Append one unlabelled gauge in Prometheus text exposition format.
pub fn push_gauge(out: &mut String, name: &str, help: &str, value: u64) {
    push_scalar_series(out, name, help, "gauge", &[("", value)]);
}

/// Append one scalar family — a `# HELP`/`# TYPE` preamble, then one
/// sample per series — in Prometheus text exposition format. `kind` is
/// the exposition type (`"counter"` or `"gauge"`); each series is
/// `(labels, value)`, with `labels` empty or pre-rendered as in
/// [`push_histogram_series`].
pub fn push_scalar_series(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    series: &[(&str, u64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in series {
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {value}");
        } else {
            let _ = writeln!(out, "{name}{{{labels}}} {value}");
        }
    }
}

/// Append one unlabelled histogram family (`_bucket` lines with
/// cumulative counts and `le` labels, then `_sum` and `_count`) in
/// Prometheus text exposition format.
pub fn push_histogram(out: &mut String, name: &str, help: &str, snap: &HistogramSnapshot) {
    push_histogram_series(out, name, help, &[("", snap)]);
}

/// Append one histogram family with one sample set per labelled series.
///
/// Each element of `series` is `(labels, snapshot)` where `labels` is
/// either empty (an unlabelled series) or a pre-rendered label list such
/// as `msg="Drain"` — the helper appends the `le` label after it. Bucket
/// lines are cumulative, stop at the series' highest non-empty bucket,
/// and always end with an `le="+Inf"` line equal to `_count`, so any
/// Prometheus-compatible scraper can derive quantiles with
/// `histogram_quantile`.
pub fn push_histogram_series(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(&str, &HistogramSnapshot)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (labels, snap) in series {
        let prefix = if labels.is_empty() {
            String::new()
        } else {
            format!("{labels},")
        };
        let mut cumulative = 0u64;
        if let Some(highest) = snap.highest_bucket() {
            for (i, &c) in snap.buckets.iter().enumerate().take(highest + 1) {
                cumulative = cumulative.saturating_add(c);
                let ub = HistogramSnapshot::bucket_upper_bound(i);
                let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"{ub}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"+Inf\"}} {cumulative}");
        if labels.is_empty() {
            let _ = writeln!(out, "{name}_sum {}", snap.sum);
            let _ = writeln!(out, "{name}_count {cumulative}");
        } else {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {}", snap.sum);
            let _ = writeln!(out, "{name}_count{{{labels}}} {cumulative}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exposition_is_cumulative_and_capped_by_inf() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(5);
        let mut out = String::new();
        push_histogram(&mut out, "lat_ns", "Latency.", &h.snapshot());
        let expected = "# HELP lat_ns Latency.\n\
                        # TYPE lat_ns histogram\n\
                        lat_ns_bucket{le=\"0\"} 1\n\
                        lat_ns_bucket{le=\"1\"} 3\n\
                        lat_ns_bucket{le=\"3\"} 3\n\
                        lat_ns_bucket{le=\"7\"} 4\n\
                        lat_ns_bucket{le=\"+Inf\"} 4\n\
                        lat_ns_sum 7\n\
                        lat_ns_count 4\n";
        assert_eq!(out, expected);
    }

    #[test]
    fn labelled_series_share_one_family_preamble() {
        let a = Histogram::new();
        a.record(2);
        let b = Histogram::new();
        b.record(1000);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut out = String::new();
        push_histogram_series(
            &mut out,
            "rtt_ns",
            "RTT.",
            &[("msg=\"Ping\"", &sa), ("msg=\"Drain\"", &sb)],
        );
        assert_eq!(out.matches("# TYPE rtt_ns histogram").count(), 1);
        assert!(out.contains("rtt_ns_bucket{msg=\"Ping\",le=\"3\"} 1"));
        assert!(out.contains("rtt_ns_bucket{msg=\"Drain\",le=\"+Inf\"} 1"));
        assert!(out.contains("rtt_ns_sum{msg=\"Drain\"} 1000"));
        assert!(out.contains("rtt_ns_count{msg=\"Ping\"} 1"));
    }

    #[test]
    fn empty_histogram_still_exposes_a_valid_family() {
        let mut out = String::new();
        push_histogram(
            &mut out,
            "idle_ns",
            "Never recorded.",
            &Histogram::new().snapshot(),
        );
        assert!(out.contains("idle_ns_bucket{le=\"+Inf\"} 0"));
        assert!(out.contains("idle_ns_sum 0"));
        assert!(out.contains("idle_ns_count 0"));
    }
}
