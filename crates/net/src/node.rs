//! The federated node: a serving [`Runtime`] behind a socket.
//!
//! A [`Node`] wraps one `etsc-serve` [`Runtime`] and answers the wire
//! protocol over a [`Listener`] — blocking I/O on a bounded set of scoped
//! connection threads, no async runtime. The runtime sits behind a mutex,
//! so a node preserves the runtime's semantics exactly: requests are
//! serialized, backpressure under [`OverflowPolicy::Block`] happens while
//! the requesting client waits for its ack, and a
//! [`QueueFull`](crate::WireError::QueueFull) rejection under
//! [`OverflowPolicy::Reject`] crosses the wire as the same atomic,
//! retryable, typed error it is in process.
//!
//! [`OverflowPolicy::Block`]: etsc_serve::OverflowPolicy::Block
//! [`OverflowPolicy::Reject`]: etsc_serve::OverflowPolicy::Reject
//!
//! # Shutdown
//!
//! [`Node::stop`] (or a wire [`Message::Shutdown`]) flips a flag that the
//! accept loop and every connection thread poll via their read timeouts.
//! In-flight requests finish and send their replies first — a batch that
//! was being ingested when the flag flipped is never lost — then the
//! threads unwind and [`Node::serve`] returns, handing the runtime back
//! for inspection via [`Node::into_runtime`].

use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use etsc_core::metrics::Clock;
use etsc_core::trace::{Scope, SpanKind};
use etsc_early::EarlyClassifier;
use etsc_persist::{ModelRegistry, Persist};
use etsc_serve::{IngestMeta, Runtime};

use crate::error::WireError;
use crate::metrics::MessageTimings;
use crate::transport::{Conn, Listener};
use crate::wire::{read_frame, Message, ReadOutcome, MAX_FRAME_PAYLOAD};

/// Tuning for a [`Node`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Maximum concurrently served connections. A connection over the
    /// limit is answered with a typed [`Busy`](WireError::Busy) reply and
    /// closed, so clients can back off instead of hanging.
    pub max_connections: usize,
    /// Read timeout applied to every connection; this is also the poll
    /// interval at which idle connection threads notice a shutdown.
    pub read_timeout: Duration,
    /// Largest frame payload the node will accept; a header declaring more
    /// fails before any allocation.
    pub max_frame_payload: usize,
    /// Retry-after hint carried by [`Busy`](WireError::Busy) refusals —
    /// roughly how long a connection slot takes to free up here. Zero
    /// means "unknown" and lets clients use their own backoff.
    pub busy_retry_after: Duration,
    /// Retry-after hint carried by [`QueueFull`](WireError::QueueFull)
    /// rejections. Zero (the default) means "unknown": with a
    /// single-driver Reject-policy queue nobody else drains, so the node
    /// usually cannot predict when capacity frees.
    pub queue_full_retry_after: Duration,
    /// Clock behind the node's per-request service-time histograms:
    /// monotonic by default, [`Clock::disabled`] to serve untimed (the
    /// histograms then stay empty), manual in deterministic tests. Timing
    /// never influences replies, only the exposed metrics.
    pub clock: Clock,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            max_connections: 32,
            read_timeout: Duration::from_millis(20),
            max_frame_payload: MAX_FRAME_PAYLOAD,
            busy_retry_after: Duration::from_millis(50),
            queue_full_retry_after: Duration::ZERO,
            clock: Clock::monotonic(),
        }
    }
}

/// One serving node: a [`Runtime`] plus the accept loop that exposes it.
pub struct Node<'a, C: EarlyClassifier + Persist> {
    runtime: Mutex<Runtime<'a, C>>,
    registry: Option<ModelRegistry>,
    cfg: NodeConfig,
    stop: AtomicBool,
    active: AtomicUsize,
    request_ns: MessageTimings,
}

impl<'a, C: EarlyClassifier + Persist> Node<'a, C> {
    /// Wrap `runtime` in a node. Without a registry, `Checkpoint` requests
    /// are answered with a typed configuration error.
    pub fn new(runtime: Runtime<'a, C>, cfg: NodeConfig) -> Self {
        Self {
            runtime: Mutex::new(runtime),
            registry: None,
            cfg,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            request_ns: MessageTimings::new(),
        }
    }

    /// The node-side per-request service-time histograms (for inspection
    /// from tests and co-located drivers; scrapers get them appended to
    /// every `Stats` reply).
    pub fn request_timings(&self) -> &MessageTimings {
        &self.request_ns
    }

    /// Attach the registry that `Checkpoint` requests write to.
    pub fn with_registry(mut self, registry: ModelRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Ask the node to stop. Safe from any thread; [`Node::serve`] returns
    /// once in-flight requests have finished and replied.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// True once [`Node::stop`] was called (locally or over the wire).
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Reclaim the wrapped runtime (after [`Node::serve`] has returned).
    pub fn into_runtime(self) -> Runtime<'a, C> {
        self.runtime
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The wrapped runtime, poisoning ignored.
    #[expect(
        clippy::disallowed_methods,
        reason = "lock-hygiene: the only lock this module takes, so no path holds two"
    )]
    fn lock_runtime(&self) -> MutexGuard<'_, Runtime<'a, C>> {
        self.runtime.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `f` against the wrapped runtime (for inspection from tests and
    /// co-located drivers).
    pub fn with_runtime<R>(&self, f: impl FnOnce(&mut Runtime<'a, C>) -> R) -> R {
        let mut rt = self.lock_runtime();
        f(&mut rt)
    }

    /// Serve the protocol on `listener` until [`Node::stop`]. Blocking —
    /// callers put it on a (scoped) thread. Connection handlers run on
    /// scoped threads of their own, so every one of them has unwound by
    /// the time this returns.
    pub fn serve(&self, listener: Listener) -> Result<(), WireError> {
        std::thread::scope(|s| {
            while !self.is_stopped() {
                match listener.poll_accept(self.cfg.read_timeout)? {
                    Some(mut conn) => {
                        let active = self.active.load(Ordering::SeqCst);
                        if active >= self.cfg.max_connections {
                            // Refuse with a typed reply, never a silent
                            // close.
                            let _ = Message::Error(WireError::Busy {
                                active,
                                limit: self.cfg.max_connections,
                                retry_after_ms: self.cfg.busy_retry_after.as_millis() as u64,
                            })
                            .write_to(&mut conn);
                            conn.shutdown();
                            continue;
                        }
                        self.active.fetch_add(1, Ordering::SeqCst);
                        s.spawn(move || {
                            self.handle_conn(&mut conn);
                            self.active.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    None => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            Ok(())
        })
    }

    /// Serve one connection until it closes, errors, or the node stops.
    fn handle_conn(&self, conn: &mut Conn) {
        loop {
            let outcome = read_frame(conn, self.cfg.max_frame_payload, &mut || self.is_stopped());
            match outcome {
                Ok(ReadOutcome::Frame(frame)) => match Message::decode(&frame) {
                    Ok(msg) => {
                        let (reply, close_after) = self.handle_message(msg);
                        if reply.write_to(conn).is_err() {
                            return;
                        }
                        if close_after {
                            conn.shutdown();
                            return;
                        }
                    }
                    Err(err) => {
                        // The frame was sound but its payload was not: say
                        // so in a typed reply, then close — after a
                        // protocol mismatch further frames cannot be
                        // trusted to mean what they say.
                        let _ = Message::Error(err).write_to(conn);
                        conn.shutdown();
                        return;
                    }
                },
                Ok(ReadOutcome::Closed) | Ok(ReadOutcome::Stopped) => {
                    conn.shutdown();
                    return;
                }
                Err(err) => {
                    // Framing failure (bad magic, bad checksum, truncated,
                    // oversized): reply typed, then close — byte alignment
                    // with the peer is lost.
                    let _ = Message::Error(err).write_to(conn);
                    conn.shutdown();
                    return;
                }
            }
        }
    }

    /// Dispatch one request to the runtime, timing its service span (lock
    /// acquisition included — contention is part of what a client waits
    /// for) into the per-kind histograms. Returns the reply and whether
    /// the connection should close after sending it. Total: every request
    /// gets a reply, and runtime failures cross as typed
    /// [`Message::Error`]s.
    fn handle_message(&self, msg: Message) -> (Message, bool) {
        let clock = &self.cfg.clock;
        let slot = if clock.is_disabled() {
            None
        } else {
            MessageTimings::index_of(&msg)
        };
        let started = if slot.is_some() { clock.now_ns() } else { 0 };
        let (reply, close_after) = self.dispatch(msg);
        if let Some(slot) = slot {
            self.request_ns
                .record(slot, clock.now_ns().saturating_sub(started));
        }
        (reply, close_after)
    }

    fn dispatch(&self, msg: Message) -> (Message, bool) {
        let mut rt = self.lock_runtime();
        let reply = match msg {
            Message::OpenStream { stream } => Message::OpenAck {
                created: rt.open_stream(stream),
            },
            Message::IngestBatch {
                client,
                seq,
                records,
                ctx,
            } => {
                // When the batch carries a trace context and this runtime
                // has a live tracer, a NodeIngest span sits between the
                // client's send span and the shard spans; its duration
                // covers the node-side service, lock wait excluded.
                let mut scope = Scope::child(rt.tracer(), ctx, SpanKind::NodeIngest);
                let meta = IngestMeta {
                    tag: NonZeroU64::new(client).map(|client| (client, seq)),
                    ctx: scope.ctx(),
                };
                let reply = match rt.ingest_with(&records, meta) {
                    Ok(applied) => Message::IngestAck { applied },
                    Err(e) => {
                        let mut err = WireError::from_serve(&e);
                        if let WireError::QueueFull { retry_after_ms, .. } = &mut err {
                            *retry_after_ms = self.cfg.queue_full_retry_after.as_millis() as u64;
                        }
                        Message::Error(err)
                    }
                };
                scope.finish(records.len() as u64, None);
                reply
            }
            Message::Drain => Message::DrainAck { alarms: rt.drain() },
            Message::Checkpoint => match &self.registry {
                None => Message::Error(WireError::RemoteBadConfig(
                    "node was started without a registry".to_string(),
                )),
                Some(reg) => match rt.checkpoint(reg) {
                    Ok(bytes) => Message::CheckpointAck {
                        bytes: bytes as u64,
                    },
                    Err(e) => Message::Error(WireError::from_serve(&e)),
                },
            },
            Message::Stats => {
                let mut text = rt.stats().render_prometheus();
                self.request_ns.push_prometheus(
                    &mut text,
                    "etsc_net_request_ns",
                    "Node-side request service time per message kind, in nanoseconds.",
                );
                Message::StatsAck { text }
            }
            Message::MigrateOut { streams } => match rt.export_streams(&streams) {
                Ok(streams) => Message::MigrateStreams { streams },
                Err(e) => Message::Error(WireError::from_serve(&e)),
            },
            Message::MigrateIn { streams } => match rt.import_streams(&streams) {
                Ok(()) => Message::MigrateInAck {
                    accepted: streams.len() as u64,
                },
                Err(e) => Message::Error(WireError::from_serve(&e)),
            },
            Message::Shutdown => {
                // Graceful: drain everything in flight into the final
                // reply, then stop the node.
                let alarms = rt.drain();
                self.stop();
                return (Message::ShutdownAck { alarms }, true);
            }
            Message::Ping { token } => Message::Pong { token },
            Message::Trace => Message::TraceAck {
                // A node without a tracer answers with a complete, empty
                // Chrome trace document — absence of tracing is not an
                // error to a caller collecting cluster-wide traces.
                json: rt.export_trace("etsc-node"),
            },
            Message::StreamCount => Message::StreamCountAck {
                streams: rt.stream_count() as u64,
            },
            // A reply type arriving as a request is a protocol violation.
            other => Message::Error(WireError::Malformed(format!(
                "{} is a reply, not a request",
                other.name()
            ))),
        };
        (reply, false)
    }
}
