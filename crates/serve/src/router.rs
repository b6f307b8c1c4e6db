//! Deterministic stream → shard routing.

use etsc_core::hash;

/// Routes stream ids to shards by hashing the id
/// ([`etsc_core::hash::fnv1a_u64`]) and reducing modulo the shard count.
///
/// The route is a pure function of `(stream, shard_count)` — stable across
/// processes, platforms, and releases — so any host (an ingester, a
/// rebalancer, a recovery process) computes the same assignment without
/// coordination. Changing the shard count changes most routes; the runtime's
/// [`rebalance`](crate::Runtime::rebalance) handles that by moving the
/// affected streams' monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` workers.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`; [`Runtime`](crate::Runtime) validates its
    /// shard count before constructing one.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be positive");
        Self { shards }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `stream` (in `0..shards()`).
    pub fn route(&self, stream: u64) -> usize {
        hash::shard_of(stream, self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_deterministic_and_in_range() {
        for shards in [1usize, 2, 7, 16] {
            let r = ShardRouter::new(shards);
            assert_eq!(r.shards(), shards);
            for id in [0u64, 1, 42, 1 << 40, u64::MAX] {
                let s = r.route(id);
                assert!(s < shards);
                assert_eq!(s, ShardRouter::new(shards).route(id));
            }
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for id in 0..100u64 {
            assert_eq!(r.route(id), 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_panics() {
        ShardRouter::new(0);
    }
}
