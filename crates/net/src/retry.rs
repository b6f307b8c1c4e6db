//! Retry policy and counters for the resilient client.
//!
//! The policy is deliberately small: a bounded attempt count and a capped
//! exponential backoff with **deterministic** jitter (the in-workspace
//! `rand` shim seeded from the policy, never from a clock), so two runs of
//! the same test sleep the same schedule. What is retried — and when a
//! reconnect happens first — is decided by
//! [`WireError`](crate::WireError)'s classification methods
//! ([`is_retryable`](crate::WireError::is_retryable),
//! [`needs_reconnect`](crate::WireError::needs_reconnect)) inside
//! [`NetClient`](crate::NetClient); a server-supplied
//! [`retry_after`](crate::WireError::retry_after) hint overrides the
//! computed backoff for that attempt.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;

use etsc_core::metrics::push_counter;

/// When and how often a [`NetClient`](crate::NetClient) retries a failed
/// request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, the first included (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Backoff ceiling (the exponential is capped here).
    pub max_delay: Duration,
    /// Seed for the jitter stream (each delay is scaled by a deterministic
    /// factor in `[0.5, 1.0)` to de-synchronize clients that share a
    /// policy).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            jitter_seed: 0x9E37,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — requests fail on first error, exactly
    /// the pre-retry client behavior.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry number `retry` (0-based), jittered by
    /// `rng`: `min(max_delay, base_delay · 2^retry)` scaled by a factor in
    /// `[0.5, 1.0)`.
    pub fn backoff(&self, retry: u32, rng: &mut StdRng) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(retry.min(16)).unwrap_or(u32::MAX))
            .min(self.max_delay);
        exp.mul_f64(0.5 + 0.5 * rng.random::<f64>())
    }
}

/// Resilience counters for one client (aggregated across a
/// [`Cluster`](crate::Cluster)'s clients by
/// [`Cluster::render_prometheus`](crate::Cluster::render_prometheus)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests re-sent after a retryable failure.
    pub retries: u64,
    /// Successful transport re-establishments.
    pub reconnects: u64,
    /// Ingest acks reporting the batch was a duplicate the node had
    /// already applied (each one is an ack lost in transit that dedup
    /// absorbed).
    pub duplicate_acks: u64,
    /// Requests that exhausted every attempt and surfaced their error.
    pub giveups: u64,
}

impl RetryStats {
    /// Fold another stats snapshot into this one.
    pub fn merge(&mut self, other: &RetryStats) {
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.duplicate_acks += other.duplicate_acks;
        self.giveups += other.giveups;
    }

    /// Render these counters in Prometheus text exposition format (same
    /// conventions as the serving runtime's metrics; see
    /// [`ServeStats::render_prometheus`](etsc_serve::ServeStats::render_prometheus)).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        push_counter(
            &mut out,
            "etsc_net_retries_total",
            "Requests re-sent after a retryable failure.",
            self.retries,
        );
        push_counter(
            &mut out,
            "etsc_net_reconnects_total",
            "Successful transport re-establishments.",
            self.reconnects,
        );
        push_counter(
            &mut out,
            "etsc_net_duplicate_acks_total",
            "Ingest acks reporting an already-applied duplicate batch.",
            self.duplicate_acks,
        );
        push_counter(
            &mut out,
            "etsc_net_giveups_total",
            "Requests that exhausted every retry attempt.",
            self.giveups,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy::default();
        // Jitter scales by [0.5, 1.0): bound each delay by its nominal
        // exponential window instead of pinning exact values.
        let mut rng = StdRng::seed_from_u64(1);
        for retry in 0..8 {
            let nominal = policy
                .base_delay
                .saturating_mul(1 << retry)
                .min(policy.max_delay);
            let d = policy.backoff(retry, &mut rng);
            assert!(d >= nominal.mul_f64(0.5), "retry {retry}: {d:?} too small");
            assert!(d <= nominal, "retry {retry}: {d:?} exceeds nominal");
        }
        let mut rng = StdRng::seed_from_u64(2);
        assert!(policy.backoff(40, &mut rng) <= policy.max_delay, "capped");
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(policy.jitter_seed);
        let mut b = StdRng::seed_from_u64(policy.jitter_seed);
        let xs: Vec<Duration> = (0..6).map(|r| policy.backoff(r, &mut a)).collect();
        let ys: Vec<Duration> = (0..6).map(|r| policy.backoff(r, &mut b)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn none_policy_is_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn stats_merge_and_render() {
        let mut a = RetryStats {
            retries: 2,
            reconnects: 1,
            duplicate_acks: 1,
            giveups: 0,
        };
        a.merge(&RetryStats {
            retries: 1,
            reconnects: 0,
            duplicate_acks: 0,
            giveups: 3,
        });
        let text = a.render_prometheus();
        assert!(text.contains("etsc_net_retries_total 3"));
        assert!(text.contains("etsc_net_reconnects_total 1"));
        assert!(text.contains("etsc_net_duplicate_acks_total 1"));
        assert!(text.contains("etsc_net_giveups_total 3"));
    }
}
