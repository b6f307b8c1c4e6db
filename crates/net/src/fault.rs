//! Deterministic fault injection for the transport layer.
//!
//! Every failover path in this crate is exercised by tests, not hoped-for,
//! and that requires faults that happen *on demand* and *reproducibly*. A
//! [`FaultPlan`] scripts faults against a monotone per-kind operation
//! counter (the n-th connect, read, or write a client performs); a
//! [`FaultInjector`] built from the plan is threaded under
//! [`Conn`](crate::transport::Conn) via
//! [`Conn::connect_with_faults`](crate::transport::Conn::connect_with_faults)
//! — or, more commonly, via
//! [`ClientConfig::faults`](crate::client::ClientConfig) — where it
//! intercepts socket operations and substitutes failures.
//!
//! Randomized plans ([`FaultPlan::random`]) draw from the in-workspace
//! `rand` shim seeded with a caller-supplied `u64` — no clocks, no OS
//! entropy — so a failing seed replays bit-identically forever.
//!
//! The injector is cheap shared state behind an `Arc`: cloning it and
//! handing the clone to a client means the plan **persists across
//! reconnects** (op counters and sticky partitions carry over), which is
//! what makes "the ack was lost and every retry is eaten by the partition"
//! a scriptable scenario rather than a race.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injectable failure.
///
/// Faults are either **one-shot** (consumed by the operation they fire on)
/// or **sticky** (state that persists until a [`Fault::Heal`]): the
/// partitions are sticky, everything else is one-shot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The dial fails with `ConnectionRefused`, as if nothing were
    /// listening on the endpoint.
    RefuseConnect,
    /// The read observes a clean end-of-stream (`Ok(0)`), as if the peer
    /// closed mid-conversation.
    DropRead,
    /// The write fails with `BrokenPipe`, as if the peer vanished
    /// mid-frame.
    DropWrite,
    /// The next `n` reads return `WouldBlock` (a silent peer); a read
    /// timeout surfaces upstream if the stall outlasts the deadline.
    StallReads(u32),
    /// One byte of the data actually read is flipped, so the frame
    /// checksum fails on this endpoint.
    CorruptRead,
    /// One byte of the outgoing buffer is flipped (on a copy — the
    /// caller's data is untouched), so the frame checksum fails on the
    /// *peer* and comes back as a typed
    /// [`RemoteMalformed`](crate::WireError::RemoteMalformed) reply.
    CorruptWrite,
    /// Sticky asymmetric partition: all reads stall (requests still go
    /// out, replies never arrive) until healed.
    PartitionInbound,
    /// Sticky asymmetric partition: all writes are silently swallowed
    /// (`Ok(len)` without transmission) until healed.
    PartitionOutbound,
    /// Clear both partitions and any pending read stall.
    Heal,
}

/// A scripting point: the index (0-based, per kind) of the operation a
/// fault fires on. An entry fires on the first operation of its kind whose
/// index is **at or past** the scripted one, so plans stay robust to the
/// exact number of socket calls a frame takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The n-th connection attempt.
    Connect(u64),
    /// The n-th read call.
    Read(u64),
    /// The n-th write call.
    Write(u64),
}

/// A reproducible script of faults, built by hand or from a seed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(Op, Fault)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until faults are added or injected
    /// live).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Script `fault` to fire at `op` (builder-style).
    pub fn at(mut self, op: Op, fault: Fault) -> FaultPlan {
        self.entries.push((op, fault));
        self
    }

    /// A seeded plan of `faults` *recoverable* transients (stalls, dropped
    /// reads/writes, corrupted writes) at operation indices drawn uniformly
    /// from `[0, window)`. Recoverable means a client with reconnect +
    /// retry enabled makes progress through all of them; sticky partitions
    /// are deliberately excluded and must be scripted explicitly.
    pub fn random(seed: u64, faults: usize, window: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..faults {
            let idx = rng.random_range(0..window.max(1));
            let (op, fault) = match rng.random_range(0..4u32) {
                0 => (Op::Read(idx), Fault::DropRead),
                1 => (Op::Write(idx), Fault::DropWrite),
                2 => (Op::Read(idx), Fault::StallReads(rng.random_range(1..4u32))),
                _ => (Op::Write(idx), Fault::CorruptWrite),
            };
            plan.entries.push((op, fault));
        }
        plan
    }

    /// Compile the plan into a shareable injector.
    pub fn build(self) -> FaultInjector {
        FaultInjector(Arc::new(Mutex::new(State {
            scripted: self.entries,
            connects: 0,
            reads: 0,
            writes: 0,
            stall_remaining: 0,
            partition_in: false,
            partition_out: false,
            injected: 0,
        })))
    }
}

struct State {
    scripted: Vec<(Op, Fault)>,
    connects: u64,
    reads: u64,
    writes: u64,
    stall_remaining: u32,
    partition_in: bool,
    partition_out: bool,
    injected: u64,
}

impl State {
    /// Fire (and consume) every scripted entry whose point is at or before
    /// the current operation, folding sticky effects into state and
    /// returning the first one-shot fault to apply to this operation.
    fn fire(&mut self, kind: fn(u64) -> Op, idx: u64) -> Option<Fault> {
        let mut one_shot = None;
        let mut i = 0;
        while i < self.scripted.len() {
            let Some(&(point, _)) = self.scripted.get(i) else {
                break; // unreachable: `i` is bounded by the loop guard
            };
            let due = match (point, kind(0)) {
                (Op::Connect(k), Op::Connect(_)) => k <= idx,
                (Op::Read(k), Op::Read(_)) => k <= idx,
                (Op::Write(k), Op::Write(_)) => k <= idx,
                _ => false,
            };
            if !due {
                i += 1;
                continue;
            }
            let (_, fault) = self.scripted.remove(i);
            self.injected += 1;
            match fault {
                Fault::StallReads(n) => self.stall_remaining += n,
                Fault::PartitionInbound => self.partition_in = true,
                Fault::PartitionOutbound => self.partition_out = true,
                Fault::Heal => {
                    self.partition_in = false;
                    self.partition_out = false;
                    self.stall_remaining = 0;
                }
                other => {
                    if one_shot.is_none() {
                        one_shot = Some(other);
                    } else {
                        // Two one-shots due on the same call: keep the
                        // later for the next operation of this kind.
                        self.scripted.insert(i, (kind(idx + 1), other));
                        i += 1;
                    }
                }
            }
        }
        one_shot
    }
}

/// What a read call should do, decided under the injector lock and acted
/// on outside it.
enum ReadAction {
    Proceed,
    Corrupt,
    Eof,
    Stall,
}

/// Shared, thread-safe fault state compiled from a [`FaultPlan`].
///
/// Clone it freely — clones share the same counters and sticky state, so
/// one injector can cover every connection a client opens over its
/// lifetime (reconnects included).
///
/// Lock poisoning is absorbed (`unwrap_or_else(PoisonError::into_inner)`):
/// the state is plain counters and flags, valid at every step, so a panic
/// on another thread must not cascade into the fault filter itself.
#[derive(Clone)]
pub struct FaultInjector(Arc<Mutex<State>>);

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state();
        f.debug_struct("FaultInjector")
            .field("pending", &s.scripted.len())
            .field("injected", &s.injected)
            .field("partition_in", &s.partition_in)
            .field("partition_out", &s.partition_out)
            .finish()
    }
}

impl FaultInjector {
    /// The shared fault state, poisoning absorbed (see the type docs).
    #[expect(
        clippy::disallowed_methods,
        reason = "lock-hygiene: the only lock this module takes, so no path holds two"
    )]
    fn state(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Inject `fault` live, at the next operation of its kind (or, for the
    /// sticky partitions and [`Fault::Heal`], immediately). This is how a
    /// test flips a healthy link into a partitioned one mid-scenario.
    pub fn inject(&self, fault: Fault) {
        let mut s = self.state();
        match fault {
            Fault::PartitionInbound => {
                s.partition_in = true;
                s.injected += 1;
            }
            Fault::PartitionOutbound => {
                s.partition_out = true;
                s.injected += 1;
            }
            Fault::Heal => {
                s.partition_in = false;
                s.partition_out = false;
                s.stall_remaining = 0;
                s.injected += 1;
            }
            Fault::RefuseConnect => {
                let at = s.connects;
                s.scripted.push((Op::Connect(at), fault));
            }
            Fault::DropRead | Fault::StallReads(_) | Fault::CorruptRead => {
                let at = s.reads;
                s.scripted.push((Op::Read(at), fault));
            }
            Fault::DropWrite | Fault::CorruptWrite => {
                let at = s.writes;
                s.scripted.push((Op::Write(at), fault));
            }
        }
    }

    /// Clear both partitions and any pending stall (equivalent to
    /// `inject(Fault::Heal)`).
    pub fn heal(&self) {
        self.inject(Fault::Heal);
    }

    /// How many faults have fired so far (tests assert the plan actually
    /// ran instead of silently missing its scripted points).
    pub fn injected(&self) -> u64 {
        self.state().injected
    }

    /// Scripted entries that have not fired yet.
    pub fn pending(&self) -> usize {
        self.state().scripted.len()
    }

    /// Intercept a connection attempt; `Err` means the dial must fail
    /// without touching the network.
    pub(crate) fn on_connect(&self) -> io::Result<()> {
        let mut s = self.state();
        let idx = s.connects;
        s.connects += 1;
        if let Some(Fault::RefuseConnect) = s.fire(Op::Connect, idx) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "fault injection: connection refused",
            ));
        }
        Ok(())
    }

    /// Perform one read through the fault filter.
    pub(crate) fn read(&self, inner: &mut dyn Read, buf: &mut [u8]) -> io::Result<usize> {
        let action = {
            let mut s = self.state();
            let idx = s.reads;
            s.reads += 1;
            let one_shot = s.fire(Op::Read, idx);
            if s.partition_in {
                ReadAction::Stall
            } else if s.stall_remaining > 0 {
                s.stall_remaining -= 1;
                ReadAction::Stall
            } else {
                match one_shot {
                    Some(Fault::DropRead) => ReadAction::Eof,
                    Some(Fault::CorruptRead) => ReadAction::Corrupt,
                    _ => ReadAction::Proceed,
                }
            }
        };
        match action {
            ReadAction::Proceed => inner.read(buf),
            ReadAction::Eof => Ok(0),
            ReadAction::Corrupt => {
                let n = inner.read(buf)?;
                if n > 0 {
                    if let Some(b) = buf.first_mut() {
                        *b ^= 0x40;
                    }
                }
                Ok(n)
            }
            ReadAction::Stall => {
                // Pace the caller's retry loop the way a real silent peer
                // paced by the socket read timeout would.
                std::thread::sleep(Duration::from_millis(1));
                Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "fault injection: read stalled",
                ))
            }
        }
    }

    /// Perform one write through the fault filter.
    pub(crate) fn write(&self, inner: &mut dyn Write, buf: &[u8]) -> io::Result<usize> {
        let one_shot = {
            let mut s = self.state();
            let idx = s.writes;
            s.writes += 1;
            let one_shot = s.fire(Op::Write, idx);
            if s.partition_out {
                // Swallowed: the caller believes the bytes left.
                return Ok(buf.len());
            }
            one_shot
        };
        match one_shot {
            Some(Fault::DropWrite) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "fault injection: write dropped",
            )),
            Some(Fault::CorruptWrite) => {
                let mut copy = buf.to_vec();
                if let Some(b) = copy.first_mut() {
                    *b ^= 0x40;
                }
                inner.write(&copy)
            }
            _ => inner.write(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plan_fires_in_order_and_is_consumed() {
        let inj = FaultPlan::new()
            .at(Op::Read(0), Fault::DropRead)
            .at(Op::Write(1), Fault::DropWrite)
            .build();
        assert_eq!(inj.pending(), 2);

        let mut src: &[u8] = b"abc";
        let mut buf = [0u8; 3];
        assert_eq!(inj.read(&mut src, &mut buf).unwrap(), 0, "dropped read");
        assert_eq!(inj.read(&mut src, &mut buf).unwrap(), 3, "then healthy");

        let mut sink = Vec::new();
        assert_eq!(inj.write(&mut sink, b"xy").unwrap(), 2, "write 0 healthy");
        let err = inj.write(&mut sink, b"zw").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(inj.pending(), 0);
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn late_scripted_points_fire_on_the_next_operation() {
        // Entry at Read(5) while only 2 reads happen before the check:
        // fires on the first read at-or-past index 5.
        let inj = FaultPlan::new().at(Op::Read(5), Fault::DropRead).build();
        let mut src: &[u8] = &[7u8; 64];
        let mut buf = [0u8; 4];
        for i in 0..5 {
            assert_eq!(inj.read(&mut src, &mut buf).unwrap(), 4, "read {i}");
        }
        assert_eq!(inj.read(&mut src, &mut buf).unwrap(), 0, "read 5 dropped");
    }

    #[test]
    fn partitions_are_sticky_until_healed() {
        let inj = FaultPlan::new().build();
        inj.inject(Fault::PartitionInbound);
        inj.inject(Fault::PartitionOutbound);

        let mut src: &[u8] = b"abcd";
        let mut buf = [0u8; 4];
        for _ in 0..3 {
            let err = inj.read(&mut src, &mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        }
        let mut sink = Vec::new();
        assert_eq!(inj.write(&mut sink, b"xy").unwrap(), 2);
        assert!(sink.is_empty(), "partitioned write was swallowed");

        inj.heal();
        assert_eq!(inj.read(&mut src, &mut buf).unwrap(), 4);
        assert_eq!(inj.write(&mut sink, b"xy").unwrap(), 2);
        assert_eq!(sink, b"xy");
    }

    #[test]
    fn corrupt_write_flips_a_byte_on_a_copy() {
        let inj = FaultPlan::new()
            .at(Op::Write(0), Fault::CorruptWrite)
            .build();
        let original = b"ETSN".to_vec();
        let mut sink = Vec::new();
        assert_eq!(inj.write(&mut sink, &original).unwrap(), 4);
        assert_ne!(sink, original, "wire bytes corrupted");
        assert_eq!(original, b"ETSN".to_vec(), "caller's buffer untouched");
    }

    #[test]
    fn stall_reads_counts_down() {
        let inj = FaultPlan::new()
            .at(Op::Read(0), Fault::StallReads(2))
            .build();
        let mut src: &[u8] = b"ab";
        let mut buf = [0u8; 2];
        for _ in 0..2 {
            let err = inj.read(&mut src, &mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        }
        assert_eq!(inj.read(&mut src, &mut buf).unwrap(), 2);
    }

    #[test]
    fn refused_connect_consumes_one_attempt() {
        let inj = FaultPlan::new()
            .at(Op::Connect(1), Fault::RefuseConnect)
            .build();
        assert!(inj.on_connect().is_ok(), "connect 0 untouched");
        let err = inj.on_connect().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(inj.on_connect().is_ok(), "connect 2 healthy again");
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(42, 8, 100);
        let b = FaultPlan::random(42, 8, 100);
        let c = FaultPlan::random(43, 8, 100);
        assert_eq!(a.entries, b.entries);
        assert_ne!(a.entries, c.entries);
        assert_eq!(a.entries.len(), 8);
        for (_, fault) in &a.entries {
            assert!(
                !matches!(fault, Fault::PartitionInbound | Fault::PartitionOutbound),
                "random plans inject only recoverable transients"
            );
        }
    }
}
