//! Fixed-bucket log₂-scale histograms: lock-free O(1) recording, cheap
//! quantile readout, and associative merging across shards and threads.
//!
//! # Bucket layout
//!
//! A [`Histogram`] has [`BUCKETS`] (= 64) slots. Bucket 0 holds the value
//! `0`; bucket `i` (for `1 ≤ i < 63`) holds the values whose highest set
//! bit is bit `i - 1`, i.e. the half-open power-of-two range
//! `[2^(i-1), 2^i)`; the last bucket is the **overflow bucket**, holding
//! everything from `2^62` up to `u64::MAX`. A value lands in its bucket
//! with one `leading_zeros` instruction — recording is O(1), branch-light,
//! and touches exactly two relaxed atomics (bucket slot and sum).
//!
//! The inclusive upper bound of bucket `i` is therefore `2^i - 1`
//! (`u64::MAX` for the overflow bucket) — see
//! [`HistogramSnapshot::bucket_upper_bound`]. Quantiles read from a
//! snapshot return the upper bound of the bucket containing the requested
//! rank, so a reported quantile is an upper bound on the true value with
//! at most 2× relative error — the standard log₂-histogram trade: fixed
//! memory (64 slots, 512 bytes per histogram) and wait-free writes in
//! exchange for coarse (but monotone) quantiles.
//!
//! # Merge semantics
//!
//! [`HistogramSnapshot::merge`] adds bucket counts and sums element-wise
//! with saturating arithmetic. Saturating addition of non-negative counts
//! is associative **and** commutative (`min(MAX, a+b+c)` regardless of
//! grouping), so per-shard or per-thread histograms can be merged in any
//! order — or tree-reduced — and produce the same totals. The property
//! suite in `crates/core/tests/proptests.rs` pins this down.
//!
//! The live `sum` is a relaxed `fetch_add` and therefore *wraps* if the
//! running total ever exceeds `u64::MAX` — unreachable in the intended
//! regime (a `u64` of nanoseconds is ~584 years; a `u64` of bytes is
//! 16 EiB), so recording stays a single wait-free instruction. Snapshot
//! merging saturates instead, because merged totals aggregate many
//! sources and defensive arithmetic there costs nothing per observation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of bucket slots in a [`Histogram`] (one per power of two of a
/// `u64`, plus the zero bucket folded into slot 0 and the overflow values
/// folded into the last slot).
pub const BUCKETS: usize = 64;

/// A lock-free fixed-bucket log₂ histogram of `u64` observations
/// (typically nanoseconds or bytes). See the [module docs](self) for the
/// bucket layout.
///
/// All methods take `&self`; recording from many threads concurrently is
/// the intended use (the serve runtime's shard workers all record into one
/// histogram during a parallel drain). Reads ([`snapshot`](Self::snapshot))
/// are relaxed and not atomic *across* slots — a snapshot taken while
/// writers are active may be mid-update by a few counts, which is the
/// usual (and documented) telemetry trade.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`,
    /// clamped into the overflow bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Record one observation. O(1), wait-free, two relaxed atomic adds.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(slot) = self.buckets.get(Self::bucket_index(value)) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }

    /// A plain-data copy of the current state, for quantile readout,
    /// merging, and exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, slot) in buckets.iter_mut().zip(&self.buckets) {
            *out = slot.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: plain data, comparable,
/// mergeable, and serializable into Prometheus exposition by
/// [`push_histogram`](super::push_histogram).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see the [module docs](self) for
    /// which values land where).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values (saturating).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (what a fresh histogram would produce).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Total observations in this snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Inclusive upper bound of bucket `i`: `0` for bucket 0, `2^i - 1`
    /// for the middle buckets, `u64::MAX` for the overflow bucket.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= BUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Fold `other` into `self`: element-wise saturating adds. Saturating
    /// addition of counts is associative and commutative, so merge order
    /// (shard-by-shard, tree-reduced, any permutation) never changes the
    /// result.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The merged copy of two snapshots (see [`merge`](Self::merge)).
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// The value at quantile `q` (clamped to `[0, 1]`): the upper bound of
    /// the bucket containing the rank-`⌈q·count⌉` observation, or 0 for an
    /// empty snapshot. Monotone in `q` by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * total), as a rank in 1..=total.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(c);
            if cumulative >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Median upper bound (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile upper bound (`quantile(0.99)`).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile upper bound (`quantile(0.999)`).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Index of the highest non-empty bucket, or `None` when empty (used
    /// by the exposition helpers to stop emitting bucket lines early).
    pub fn highest_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_land_in_distinct_buckets() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 101_106);
        // p50 of 6 values → rank 3 → the bucket holding 3 → upper bound 3.
        assert_eq!(s.p50(), 3);
        // p99 → rank 6 → the bucket holding 100_000 → 2^17 - 1.
        assert_eq!(s.p99(), (1 << 17) - 1);
        assert!(s.p999() >= s.p99());
    }

    #[test]
    fn overflow_values_saturate_into_the_last_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        h.record(1u64 << 62);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 3);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 17 + i % 1024);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.highest_bucket(), None);
    }
}
