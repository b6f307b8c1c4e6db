//! The workspace's clock policy, as a type.
//!
//! Every timing read in the stack goes through a [`Clock`] handed in by
//! the caller — never through an ambient `Instant::now()` call site of its
//! own. That keeps latency instrumentation compatible with the two
//! invariants the e2e suites enforce:
//!
//! * **Determinism** — alarm *content* never consumes a clock value, and
//!   clippy's `disallowed_methods` (the workspace `clippy.toml`) bans
//!   ambient clocks outside the benchmarks. `Clock::monotonic()` is one of
//!   the two `#[expect]`ed library sites; the other is the trace
//!   exporter's wall-clock stamp ([`crate::trace::export`]). Tests and
//!   fault-injection harnesses use [`Clock::manual`], stepping time
//!   explicitly, so a timing-instrumented run replays bit-identically.
//! * **Zero interference** — [`Clock::disabled`] turns every `now_ns`
//!   read into a constant, letting benches A/B the cost of the
//!   instrumentation itself (the serve bench asserts it under 5%).
//!
//! Cloning is cheap and shares the underlying time source: clones of a
//! manual clock all see the same [`advance_ns`](Clock::advance_ns) steps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A nanosecond clock: monotonic in production, manually stepped in
/// tests, or disabled for overhead measurement. See the
/// [module docs](self) for the policy.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// Real elapsed time since the clock was built.
    Monotonic { origin: Instant },
    /// Logical time, shared across clones, advanced explicitly.
    Manual { now_ns: Arc<AtomicU64> },
    /// Every read returns 0; timing-gated instrumentation skips its reads.
    Disabled,
}

impl Default for Clock {
    fn default() -> Self {
        Self::monotonic()
    }
}

impl Clock {
    /// A monotonic production clock reading real elapsed nanoseconds.
    ///
    /// This constructor is the library's one `Instant::now` call site
    /// (see the [module docs](self)).
    pub fn monotonic() -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "determinism: the clock every instrumented layer is handed; alarms never read it"
        )]
        let origin = Instant::now();
        Self {
            inner: Inner::Monotonic { origin },
        }
    }

    /// A manual clock starting at 0 ns. Clones share the time source:
    /// advancing any clone advances them all, so a test can hand a runtime
    /// a clock and step it from outside.
    pub fn manual() -> Self {
        Self {
            inner: Inner::Manual {
                now_ns: Arc::new(AtomicU64::new(0)),
            },
        }
    }

    /// A clock whose reads all return 0. Instrumentation gates its timing
    /// reads on [`is_disabled`](Self::is_disabled), so a disabled clock
    /// measures the *uninstrumented* hot path — the baseline half of the
    /// overhead A/B in `bench_serve`.
    pub fn disabled() -> Self {
        Self {
            inner: Inner::Disabled,
        }
    }

    /// True for a [`disabled`](Self::disabled) clock — hoist this check
    /// out of hot loops and skip the paired `now_ns` reads entirely.
    pub fn is_disabled(&self) -> bool {
        matches!(self.inner, Inner::Disabled)
    }

    /// Current time in nanoseconds: elapsed-since-construction
    /// (monotonic), the stepped logical time (manual), or 0 (disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Inner::Monotonic { origin } => {
                u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Inner::Manual { now_ns } => now_ns.load(Ordering::Relaxed),
            Inner::Disabled => 0,
        }
    }

    /// Step a [`manual`](Self::manual) clock forward by `ns` (shared with
    /// every clone); returns `false` (and does nothing) on monotonic and
    /// disabled clocks.
    pub fn advance_ns(&self, ns: u64) -> bool {
        match &self.inner {
            Inner::Manual { now_ns } => {
                now_ns.fetch_add(ns, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Step a manual clock forward by a [`Duration`] (convenience wrapper
    /// over [`advance_ns`](Self::advance_ns)).
    pub fn advance(&self, by: Duration) -> bool {
        self.advance_ns(u64::try_from(by.as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_shared_across_clones() {
        let clock = Clock::manual();
        let twin = clock.clone();
        assert_eq!(clock.now_ns(), 0);
        assert!(clock.advance_ns(250));
        assert_eq!(twin.now_ns(), 250);
        assert!(twin.advance(Duration::from_nanos(50)));
        assert_eq!(clock.now_ns(), 300);
    }

    #[test]
    fn disabled_clock_reads_zero_and_refuses_advances() {
        let clock = Clock::disabled();
        assert!(clock.is_disabled());
        assert_eq!(clock.now_ns(), 0);
        assert!(!clock.advance_ns(100));
        assert_eq!(clock.now_ns(), 0);
    }

    #[test]
    fn monotonic_clock_moves_forward() {
        let clock = Clock::monotonic();
        assert!(!clock.is_disabled());
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        assert!(!clock.advance_ns(1), "real time cannot be stepped");
    }
}
