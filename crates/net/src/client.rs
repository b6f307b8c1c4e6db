//! The blocking client for one node: the [`Runtime`] surface, over a
//! socket.
//!
//! [`NetClient`] speaks one request/one reply at a time over a single
//! connection, with a per-request deadline. It exposes the same
//! ingest/drain/checkpoint verbs as the in-process
//! [`Runtime`](etsc_serve::Runtime) and implements
//! [`StreamService`](etsc_serve::StreamService), so a driver (or a test)
//! written against the trait runs unchanged in-process and over the wire —
//! which is how this crate proves its alarm sequences match the
//! in-process runtime's.
//!
//! # Exchanges
//!
//! A request is one exchange in two halves: the write half puts the
//! request's frame on the wire, and the read half waits for its reply.
//! Every verb here runs the two back to back. [`Cluster::ingest`] runs
//! them apart: it writes every node's sub-batch first and then reads the
//! acknowledgements in the order it wrote them, so a batch spread over
//! several nodes costs about one round trip instead of one per node. A
//! connection still carries one request at a time — its reply is read
//! before the next frame goes out on it — so a reply always answers the
//! request just written. Each exchange's deadline runs from its own write
//! ([`ClientConfig::request_timeout`]).
//!
//! [`Cluster::ingest`]: crate::Cluster::ingest
//!
//! # Resilience
//!
//! Every request runs under the configured [`RetryPolicy`]: failures that
//! [`WireError::is_retryable`] classifies as worth another attempt are
//! retried with capped exponential backoff and deterministic jitter, after
//! an automatic [`reconnect`](NetClient::reconnect) when the error left
//! the connection in an unknown state ([`WireError::needs_reconnect`]).
//! Requests whose failure proves the node did **not** apply them
//! ([`WireError::leaves_request_unapplied`] — queue-full and busy
//! refusals) are always safe to retry; transport faults are only retried
//! for idempotent requests, or for ingest batches carrying an idempotency
//! tag (a nonzero [`ClientConfig::client_id`]), which the node
//! deduplicates server-side so a batch whose acknowledgement was lost in
//! transit is never applied twice.

use std::io::Write;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use etsc_core::metrics::{Clock, Histogram, HistogramSnapshot};
use etsc_core::trace::{EventKind, Scope, Severity, SpanKind, TraceContext, Tracer};
use etsc_serve::{Record, StreamAlarm, StreamService};

use crate::error::WireError;
use crate::fault::FaultInjector;
use crate::metrics::MessageTimings;
use crate::retry::{RetryPolicy, RetryStats};
use crate::transport::{Conn, Endpoint};
use crate::wire::{read_frame, Message, ReadOutcome, MAX_FRAME_PAYLOAD};

/// Tuning for a [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for a reply, counted from the write of its request (every
    /// attempt of a retried request starts a fresh one). It bounds waiting
    /// only: a reply already in the socket is read even when the deadline
    /// has passed, which matters when [`Cluster::ingest`] reads one node's
    /// acknowledgement after another's. Zero disables the deadline (the
    /// client waits as long as the node computes — the right choice when
    /// ingest legitimately blocks on remote backpressure).
    ///
    /// [`Cluster::ingest`]: crate::Cluster::ingest
    pub request_timeout: Duration,
    /// Largest reply payload the client will accept.
    pub max_frame_payload: usize,
    /// Retry schedule for failed requests ([`RetryPolicy::none`] restores
    /// fail-on-first-error).
    pub retry: RetryPolicy,
    /// Idempotency-tag identity for ingest batches. `0` (the default)
    /// sends untagged batches — the node applies every one, and transport
    /// faults during ingest are *not* retried because a lost
    /// acknowledgement would make the retry a duplicate. Any nonzero id
    /// must be unique per client *incarnation* per node — tagged batches
    /// carry `(id, seq)` and the node remembers the highest applied seq
    /// per id across checkpoints, so a rebuilt client reusing an id would
    /// see its restarted sequence numbers dropped as duplicates.
    pub client_id: u64,
    /// Optional deterministic fault injection on everything this client's
    /// connections do (tests only; `None` in production).
    pub faults: Option<FaultInjector>,
    /// Clock behind request deadlines and the client's RTT histograms:
    /// monotonic by default, manual in deterministic tests. A
    /// [`Clock::disabled`] clock leaves the RTT histograms empty **and
    /// disables request deadlines** — without a time source the client
    /// cannot tell when one expires — so only disable it where the node is
    /// trusted to always reply.
    pub clock: Clock,
    /// Optional client-side tracer. When present and enabled, every
    /// [`ingest`](NetClient::ingest) opens a trace (a `ClientIngest` root
    /// span) whose [`TraceContext`] rides the batch over the wire, and
    /// retry/backoff decisions are recorded as structured events. `None`
    /// (the default) sends untraced batches — zero extra bytes on the
    /// wire, zero overhead on the hot path.
    pub tracer: Option<Tracer>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_secs(30),
            max_frame_payload: MAX_FRAME_PAYLOAD,
            retry: RetryPolicy::default(),
            client_id: 0,
            faults: None,
            clock: Clock::monotonic(),
            tracer: None,
        }
    }
}

/// A request ready for the wire: the frame every attempt writes, its RTT
/// slot, and whether a transport fault may be retried (see the
/// [module docs](self)).
pub(crate) struct Request {
    frame: Vec<u8>,
    slot: Option<usize>,
    idempotent: bool,
}

impl Request {
    fn new(msg: &Message, idempotent: bool) -> Self {
        Self {
            frame: msg.to_frame_bytes(),
            slot: MessageTimings::index_of(msg),
            idempotent,
        }
    }
}

/// What the write half hands the read half: a request is on the wire and
/// its reply is still unread.
pub(crate) struct Sent {
    /// RTT slot and the clock reading just before the write; `None` when
    /// the exchange is untimed.
    rtt: Option<(usize, u64)>,
    /// When waiting for the reply gives up, counted from the write; `None`
    /// waits as long as the node computes.
    deadline: Option<u64>,
}

/// A connection to one [`Node`](crate::Node).
pub struct NetClient {
    conn: Conn,
    endpoint: Endpoint,
    cfg: ClientConfig,
    /// Jitter stream for backoff delays (seeded from policy + identity:
    /// deterministic, but distinct per client).
    rng: StdRng,
    /// Sequence number the *next* ingest batch will carry. Advances only
    /// on success, so a failed batch re-sent later reuses its number and
    /// the node's dedup cursor can recognize it.
    next_seq: u64,
    stats: RetryStats,
    /// Round-trip time per request kind (successful exchanges only).
    rtt_ns: MessageTimings,
    /// Scheduled retry-backoff delays, recorded whether or not the clock
    /// is enabled (the delay is known, not measured).
    backoff_ns: Histogram,
}

/// Unwrap a specific reply variant or produce a typed
/// [`WireError::UnexpectedReply`].
macro_rules! expect_reply {
    ($reply:expr, $expected:literal, $pat:pat => $out:expr) => {
        match $reply {
            $pat => Ok($out),
            other => Err(WireError::UnexpectedReply {
                expected: $expected,
                got: other.name(),
            }),
        }
    };
}

impl NetClient {
    /// Dial a node with the default [`ClientConfig`].
    pub fn connect(endpoint: &Endpoint) -> Result<Self, WireError> {
        Self::connect_with(endpoint, ClientConfig::default())
    }

    /// Dial a node.
    pub fn connect_with(endpoint: &Endpoint, cfg: ClientConfig) -> Result<Self, WireError> {
        let conn =
            Conn::connect_with_faults(endpoint, Self::poll_timeout(&cfg), cfg.faults.clone())?;
        let rng = StdRng::seed_from_u64(cfg.retry.jitter_seed ^ cfg.client_id);
        Ok(Self {
            conn,
            endpoint: endpoint.clone(),
            cfg,
            rng,
            next_seq: 1,
            stats: RetryStats::default(),
            rtt_ns: MessageTimings::new(),
            backoff_ns: Histogram::new(),
        })
    }

    /// The socket-level timeout is a fraction of the request deadline so
    /// the deadline check runs several times before it expires.
    fn poll_timeout(cfg: &ClientConfig) -> Duration {
        if cfg.request_timeout.is_zero() {
            Duration::from_millis(20)
        } else {
            (cfg.request_timeout / 4).max(Duration::from_millis(1))
        }
    }

    /// The endpoint this client is connected to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// This client's idempotency-tag identity (0 = untagged).
    pub fn client_id(&self) -> u64 {
        self.cfg.client_id
    }

    /// The sequence number the next ingest batch will carry (advances only
    /// when a batch is acknowledged).
    pub fn next_batch_seq(&self) -> u64 {
        self.next_seq
    }

    /// Resilience counters accumulated by this client.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// Round-trip-time histograms per request kind (successful exchanges
    /// only; empty under a disabled clock).
    pub fn rtt_timings(&self) -> &MessageTimings {
        &self.rtt_ns
    }

    /// Distribution of scheduled retry-backoff delays, in nanoseconds.
    pub fn backoff_snapshot(&self) -> HistogramSnapshot {
        self.backoff_ns.snapshot()
    }

    /// Drop the current connection and dial the endpoint again. The old
    /// connection is replaced only once the new dial succeeds, and request
    /// state (the ingest sequence number, retry counters) carries over —
    /// this is the first-class form of the "drop and reconnect" the
    /// transport errors call for.
    pub fn reconnect(&mut self) -> Result<(), WireError> {
        let fresh = Conn::connect_with_faults(
            &self.endpoint,
            Self::poll_timeout(&self.cfg),
            self.cfg.faults.clone(),
        )?;
        self.conn.shutdown();
        self.conn = fresh;
        self.stats.reconnects += 1;
        Ok(())
    }

    /// The write half of an exchange: put `req`'s frame on the wire. The
    /// RTT clock starts just before the write, when the clock is enabled;
    /// the reply deadline starts just after it. Deadlines are read off the
    /// configured clock, so a disabled clock disables them and a manual
    /// clock makes timeout behavior test-steppable.
    pub(crate) fn send(&mut self, req: &Request) -> Result<Sent, WireError> {
        let clock = &self.cfg.clock;
        let rtt = match req.slot {
            Some(slot) if !clock.is_disabled() => Some((slot, clock.now_ns())),
            _ => None,
        };
        self.conn.write_all(&req.frame)?;
        self.conn.flush()?;
        let deadline = if self.cfg.request_timeout.is_zero() || clock.is_disabled() {
            None
        } else {
            let timeout = u64::try_from(self.cfg.request_timeout.as_nanos()).unwrap_or(u64::MAX);
            Some(clock.now_ns().saturating_add(timeout))
        };
        Ok(Sent { rtt, deadline })
    }

    /// The read half of an exchange: read the reply to the request `sent`
    /// describes, recording the round trip into the per-kind RTT
    /// histograms on success. A remote [`Message::Error`] reply is
    /// surfaced as the carried [`WireError`].
    pub(crate) fn recv(&mut self, sent: Sent) -> Result<Message, WireError> {
        let clock = &self.cfg.clock;
        let outcome = read_frame(&mut self.conn, self.cfg.max_frame_payload, &mut || {
            sent.deadline.is_some_and(|d| clock.now_ns() >= d)
        })?;
        let reply = match outcome {
            ReadOutcome::Frame(frame) => match Message::decode(&frame)? {
                Message::Error(err) => return Err(err),
                reply => reply,
            },
            ReadOutcome::Closed => return Err(WireError::ConnectionClosed),
            ReadOutcome::Stopped => return Err(WireError::TimedOut),
        };
        if let Some((slot, started)) = sent.rtt {
            self.rtt_ns
                .record(slot, clock.now_ns().saturating_sub(started));
        }
        Ok(reply)
    }

    /// One attempt at `req`: both halves, back to back, without retries.
    fn attempt(&mut self, req: &Request) -> Result<Message, WireError> {
        let sent = self.send(req)?;
        self.recv(sent)
    }

    /// Send a request under the retry policy. `idempotent` marks requests
    /// that are safe to re-send even when a transport fault hides whether
    /// the node applied the original (see the [module docs](self)).
    fn request(&mut self, msg: &Message, idempotent: bool) -> Result<Message, WireError> {
        let req = Request::new(msg, idempotent);
        let first = self.attempt(&req);
        self.settle(&req, first)
    }

    /// Run the retry policy over `req`, whose first attempt already ended
    /// in `first`: that attempt counts against
    /// [`RetryPolicy::max_attempts`], and the rest run here.
    fn settle(
        &mut self,
        req: &Request,
        first: Result<Message, WireError>,
    ) -> Result<Message, WireError> {
        let mut outcome = first;
        let mut retries_done = 0u32;
        loop {
            let err = match outcome {
                Ok(reply) => return Ok(reply),
                Err(e) => e,
            };
            let retryable =
                err.leaves_request_unapplied() || (req.idempotent && err.is_retryable());
            let out_of_attempts = retries_done + 1 >= self.cfg.retry.max_attempts.max(1);
            if !retryable || out_of_attempts {
                if retryable {
                    self.stats.giveups += 1;
                }
                if err.needs_reconnect() {
                    // The connection may still carry this request's late
                    // reply (a timed-out ack arriving after the deadline,
                    // say); reading that as the answer to the *next*
                    // request would desynchronize every reply after it.
                    // Kill the socket first so a failed redial can't
                    // resurrect it, then try for a fresh one.
                    self.conn.shutdown();
                    let _ = self.reconnect();
                }
                return Err(err);
            }
            self.stats.retries += 1;
            if err.needs_reconnect() {
                // A failed reconnect is not terminal: the remaining
                // attempts bound how long a dead endpoint is re-dialed.
                let _ = self.reconnect();
            }
            let delay = err
                .retry_after()
                .unwrap_or_else(|| self.cfg.retry.backoff(retries_done, &mut self.rng));
            let delay_ns = u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX);
            self.backoff_ns.record(delay_ns);
            if let Some(t) = &self.cfg.tracer {
                let code = req.slot.unwrap_or(0) as u64;
                t.event(
                    Severity::Warn,
                    EventKind::Retry,
                    code,
                    (retries_done + 1) as u64,
                );
                t.event(Severity::Debug, EventKind::Backoff, code, delay_ns);
            }
            std::thread::sleep(delay);
            retries_done += 1;
            outcome = self.attempt(req);
        }
    }

    /// Round-trip probe; returns the echoed token.
    pub fn ping(&mut self, token: u64) -> Result<u64, WireError> {
        let reply = self.request(&Message::Ping { token }, true)?;
        expect_reply!(reply, "Pong", Message::Pong { token } => token)
    }

    /// [`ping`](Self::ping) without retries — a failure probe for health
    /// checking, where retrying inside the probe would hide exactly the
    /// signal the caller wants.
    pub fn ping_once(&mut self, token: u64) -> Result<u64, WireError> {
        let reply = self.attempt(&Request::new(&Message::Ping { token }, true))?;
        expect_reply!(reply, "Pong", Message::Pong { token } => token)
    }

    /// Open a monitor for `stream` on the node; `Ok(false)` if it already
    /// existed.
    pub fn open_stream(&mut self, stream: u64) -> Result<bool, WireError> {
        let reply = self.request(&Message::OpenStream { stream }, true)?;
        expect_reply!(reply, "OpenAck", Message::OpenAck { created } => created)
    }

    /// Ingest a batch on the node. Blocks while the node applies
    /// backpressure; a remote Reject-policy overflow comes back as
    /// [`WireError::QueueFull`] with nothing enqueued (after the policy's
    /// retries — each one safe, since the rejection is atomic).
    ///
    /// With a nonzero [`ClientConfig::client_id`] the batch carries an
    /// idempotency tag and transport faults are retried too: if the
    /// original attempt actually landed and only the acknowledgement was
    /// lost, the node reports the retry as an already-applied duplicate
    /// and nothing is ingested twice. On error the batch's sequence number
    /// is not consumed; re-sending the same records later reuses it, and
    /// the node's cursor still dedups against the original.
    pub fn ingest(&mut self, batch: &[Record]) -> Result<(), WireError> {
        // With a live tracer, this ingest opens its own trace: a
        // ClientIngest root whose context rides the batch, so every
        // downstream span (node, shard, alarm) chains back to this call.
        let mut root = Scope::root(self.cfg.tracer.as_ref(), SpanKind::ClientIngest);
        let result = self.ingest_ctx(batch, root.ctx());
        root.finish(batch.len() as u64, None);
        result
    }

    /// [`ingest`](Self::ingest) under a caller-supplied [`TraceContext`]
    /// (or none), opening no trace of its own: a stashed cluster sub-batch
    /// is redelivered inside the trace it was first sent in.
    pub(crate) fn ingest_ctx(
        &mut self,
        batch: &[Record],
        ctx: Option<TraceContext>,
    ) -> Result<(), WireError> {
        let req = self.ingest_request(batch, ctx);
        let first = self.attempt(&req);
        self.finish_ingest(&req, first)
    }

    /// The ingest request for `batch` under the next batch seq, framed
    /// straight from the borrowed records. Tagged batches are idempotent.
    pub(crate) fn ingest_request(&self, batch: &[Record], ctx: Option<TraceContext>) -> Request {
        Request {
            frame: crate::wire::ingest_frame(self.cfg.client_id, self.next_seq, batch, ctx),
            slot: Some(MessageTimings::INGEST_BATCH),
            idempotent: self.cfg.client_id != 0,
        }
    }

    /// Finish an ingest whose first attempt ended in `first`: the retry
    /// policy runs the remaining attempts, and an acknowledgement advances
    /// the batch seq.
    pub(crate) fn finish_ingest(
        &mut self,
        req: &Request,
        first: Result<Message, WireError>,
    ) -> Result<(), WireError> {
        let reply = self.settle(req, first)?;
        let applied = expect_reply!(reply, "IngestAck", Message::IngestAck { applied } => applied)?;
        if !applied {
            self.stats.duplicate_acks += 1;
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Fetch the node's recorded trace as a Chrome `trace_event` JSON
    /// document. A node without a tracer answers a complete empty
    /// document, so this is always safe to call. Idempotent (exporting
    /// does not consume the node's span ring), so transport faults retry.
    pub fn fetch_trace(&mut self) -> Result<String, WireError> {
        let reply = self.request(&Message::Trace, true)?;
        expect_reply!(reply, "TraceAck", Message::TraceAck { json } => json)
    }

    /// Drain the node and return the alarms it produced. Not retried on
    /// transport faults: a drain is destructive (the node hands its
    /// pending alarms to the reply), so a lost reply must surface rather
    /// than silently re-draining.
    pub fn drain(&mut self) -> Result<Vec<StreamAlarm>, WireError> {
        let reply = self.request(&Message::Drain, false)?;
        expect_reply!(reply, "DrainAck", Message::DrainAck { alarms } => alarms)
    }

    /// Cut a checkpoint into the node's registry; returns the state
    /// envelope's size in bytes. Idempotent (a re-cut checkpoint
    /// overwrites the same registry entry), so transport faults retry.
    pub fn checkpoint(&mut self) -> Result<u64, WireError> {
        let reply = self.request(&Message::Checkpoint, true)?;
        expect_reply!(reply, "CheckpointAck", Message::CheckpointAck { bytes } => bytes)
    }

    /// Fetch the node's metrics as Prometheus text exposition.
    pub fn stats_prometheus(&mut self) -> Result<String, WireError> {
        let reply = self.request(&Message::Stats, true)?;
        expect_reply!(reply, "StatsAck", Message::StatsAck { text } => text)
    }

    /// Number of live streams on the node.
    pub fn stream_count(&mut self) -> Result<usize, WireError> {
        let reply = self.request(&Message::StreamCount, true)?;
        expect_reply!(reply, "StreamCountAck",
            Message::StreamCountAck { streams } => streams as usize)
    }

    /// Export `streams` from the node for migration. Atomic remotely: on
    /// error no stream was removed. Not retried on transport faults — a
    /// lost reply carries the only copy of the exported snapshots.
    pub fn migrate_out(&mut self, streams: &[u64]) -> Result<Vec<(u64, Vec<u8>)>, WireError> {
        let reply = self.request(
            &Message::MigrateOut {
                streams: streams.to_vec(),
            },
            false,
        )?;
        expect_reply!(reply, "MigrateStreams", Message::MigrateStreams { streams } => streams)
    }

    /// Import streams exported from another node. Atomic remotely: on
    /// error none were adopted. Not retried on transport faults — if the
    /// original import landed, a blind retry would surface a misleading
    /// [`DuplicateStream`](WireError::DuplicateStream).
    pub fn migrate_in(&mut self, streams: &[(u64, Vec<u8>)]) -> Result<u64, WireError> {
        let reply = self.request(
            &Message::MigrateIn {
                streams: streams.to_vec(),
            },
            false,
        )?;
        expect_reply!(reply, "MigrateInAck", Message::MigrateInAck { accepted } => accepted)
    }

    /// Gracefully shut the node down; returns its final drain. Consumes
    /// the client — the node closes the connection after the ack.
    pub fn shutdown(mut self) -> Result<Vec<StreamAlarm>, WireError> {
        let reply = self.request(&Message::Shutdown, false)?;
        expect_reply!(reply, "ShutdownAck", Message::ShutdownAck { alarms } => alarms)
    }
}

impl StreamService for NetClient {
    type Error = WireError;

    fn open_stream(&mut self, stream: u64) -> Result<bool, WireError> {
        NetClient::open_stream(self, stream)
    }

    fn ingest(&mut self, batch: &[Record]) -> Result<(), WireError> {
        NetClient::ingest(self, batch)
    }

    fn drain(&mut self) -> Result<Vec<StreamAlarm>, WireError> {
        NetClient::drain(self)
    }

    fn stream_count(&mut self) -> Result<usize, WireError> {
        NetClient::stream_count(self)
    }
}
