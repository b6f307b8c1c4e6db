//! Bounded lock-free span storage: fixed-size slots, wait-free recording,
//! drop-oldest overwrite with exact drop accounting.
//!
//! # Design
//!
//! A [`SpanRing`] is a power-of-two array of slots. Recording claims a
//! global sequence number with one `fetch_add` and writes the span into
//! slot `seq & mask` under a per-slot version word (a seqlock): the
//! version goes odd while the write is in flight and even (and larger)
//! when it lands. Readers snapshot without blocking writers — a slot whose
//! version is odd, or changes between the first and second read, is simply
//! skipped as in-flight. Nothing ever waits.
//! The payload words are relaxed: the writer's release fence, after its
//! acquiring claim CAS, pairs with the reader's acquire fence, after its
//! payload loads, so a reader that saw any new word re-reads a changed
//! version; the even version is a release store the reader's first load
//! acquires. A write costs its claim and CAS, not a locked store a word.
//!
//! Overwriting is the drop policy: once the ring wraps, each new span
//! evicts the oldest surviving one, and the eviction is counted, so
//! `recorded() == snapshot().len() + dropped()` holds exactly whenever no
//! writer is mid-flight (the span proptests pin this at 1, 2, and 7
//! threads). The pathological case — a writer lapped by a full ring's
//! worth of newer claims while still inside its slot — is handled by the
//! claim CAS: the late writer loses the slot and its span is counted
//! dropped rather than torn.
//!
//! Every field of every slot is a plain atomic (no `unsafe`), so the worst
//! concurrent interleaving is a skipped slot in a snapshot, never undefined
//! behavior.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Number of payload words a slot carries; [`SpanRing`] stores anything
/// that packs into this many `u64`s (spans use 7, events pack into 4 and
/// leave the rest zero).
pub const SLOT_WORDS: usize = 7;

/// One seqlock-guarded slot: a version word, the claim sequence, and the
/// packed payload.
#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in flight; even ≥ 2 = stable.
    ver: AtomicU64,
    /// The global claim sequence of the record stored here.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Self {
        Self {
            ver: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; SLOT_WORDS],
        }
    }
}

/// A bounded, wait-free, drop-oldest ring of packed records. See the
/// [module docs](self) for the concurrency story.
#[derive(Debug)]
pub struct SpanRing {
    slots: Vec<Slot>,
    mask: u64,
    /// Total records claimed (== total `record` calls).
    head: AtomicU64,
    /// Records that evicted an older stable record (drop-oldest).
    overwritten: AtomicU64,
    /// Records dropped because their slot was mid-write (a writer lapped
    /// by a full ring of newer claims).
    contended: AtomicU64,
}

impl SpanRing {
    /// A ring holding at most `capacity` records (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        Self {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Slot count (the most records a snapshot can return).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record one packed payload. Wait-free: one `fetch_add` to claim a
    /// sequence, one CAS to claim the slot; on CAS failure the record is
    /// counted dropped instead of waiting.
    pub fn record(&self, words: [u64; SLOT_WORDS]) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get((seq & self.mask) as usize) else {
            return; // unreachable: mask < len
        };
        let ver = slot.ver.load(Ordering::Relaxed);
        if ver & 1 == 1
            || slot
                .ver
                .compare_exchange(ver, ver + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // A reader that sees any payload word below also sees the odd
        // version, so it never takes a half-written slot for a stable one.
        fence(Ordering::Release);
        if ver > 0 {
            // The slot held a stable older record; this write evicts it.
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        slot.seq.store(seq, Ordering::Relaxed);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.ver.store(ver + 2, Ordering::Release);
    }

    /// Total records ever claimed by `record` calls.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records no longer retrievable: evicted by drop-oldest overwrite
    /// plus the (rare) slot-contention drops. With no writer in flight,
    /// `recorded() == snapshot().len() as u64 + dropped()`.
    pub fn dropped(&self) -> u64 {
        self.overwritten
            .load(Ordering::Relaxed)
            .saturating_add(self.contended.load(Ordering::Relaxed))
    }

    /// Collect every stable record, oldest first (by claim sequence).
    /// Never blocks writers; slots mid-write are skipped.
    pub fn snapshot(&self) -> Vec<(u64, [u64; SLOT_WORDS])> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let v1 = slot.ver.load(Ordering::Acquire);
            if v1 == 0 || v1 & 1 == 1 {
                continue; // never written, or write in flight
            }
            let seq = slot.seq.load(Ordering::Relaxed);
            let mut words = [0u64; SLOT_WORDS];
            for (w, v) in words.iter_mut().zip(&slot.words) {
                *w = v.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.ver.load(Ordering::Relaxed) != v1 {
                continue; // torn by a concurrent overwrite
            }
            out.push((seq, words));
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        out
    }
}

/// Merge per-thread (or per-ring) snapshots into one record-ordered list:
/// the union of all entries, sorted by claim sequence (ties broken by
/// payload words so the merge is total and deterministic).
pub fn merge_snapshots(parts: &[Vec<(u64, [u64; SLOT_WORDS])>]) -> Vec<(u64, [u64; SLOT_WORDS])> {
    let mut all: Vec<(u64, [u64; SLOT_WORDS])> =
        parts.iter().flat_map(|p| p.iter().copied()).collect();
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(tag: u64) -> [u64; SLOT_WORDS] {
        let mut w = [0u64; SLOT_WORDS];
        w[0] = tag;
        w
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(SpanRing::new(0).capacity(), 2);
        assert_eq!(SpanRing::new(5).capacity(), 8);
        assert_eq!(SpanRing::new(8).capacity(), 8);
    }

    #[test]
    fn under_capacity_everything_survives_in_order() {
        let ring = SpanRing::new(8);
        for i in 0..5u64 {
            ring.record(words(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(ring.dropped(), 0);
        for (i, (seq, w)) in snap.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(w[0], i as u64);
        }
    }

    #[test]
    fn wrap_drops_oldest_and_counts_exactly() {
        let ring = SpanRing::new(4);
        for i in 0..11u64 {
            ring.record(words(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4, "ring retains exactly its capacity");
        assert_eq!(ring.dropped(), 7, "11 recorded, 4 retained");
        assert_eq!(ring.recorded(), snap.len() as u64 + ring.dropped());
        // The survivors are the newest four, oldest first.
        let tags: Vec<u64> = snap.iter().map(|(_, w)| w[0]).collect();
        assert_eq!(tags, vec![7, 8, 9, 10]);
    }

    #[test]
    fn concurrent_recording_accounts_for_every_claim() {
        let ring = SpanRing::new(16);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..500u64 {
                        ring.record(words(t * 1_000 + i));
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), 2_000);
        let snap = ring.snapshot();
        assert_eq!(snap.len() as u64 + ring.dropped(), 2_000);
        // Snapshot is strictly ordered by claim sequence.
        for pair in snap.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }

    #[test]
    fn merge_unions_and_orders_per_thread_rings() {
        let a = SpanRing::new(8);
        let b = SpanRing::new(8);
        a.record(words(10));
        b.record(words(20));
        a.record(words(11));
        let merged = merge_snapshots(&[a.snapshot(), b.snapshot()]);
        assert_eq!(merged.len(), 3);
        let tags: Vec<u64> = merged.iter().map(|(_, w)| w[0]).collect();
        // Per-ring sequences both start at 0; ties break on payload.
        assert_eq!(tags, vec![10, 20, 11]);
    }
}
