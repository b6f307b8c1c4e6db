//! The cluster layer: many nodes behind one client-side router.
//!
//! [`ClusterRouter`] places stream ids on node endpoints with consistent
//! hashing — each endpoint contributes [`ClusterRouter::REPLICAS`] virtual
//! points on a 64-bit FNV-1a ring, and a stream belongs to the first point
//! clockwise of its hashed id. Consistent hashing is the cluster-level
//! analogue of `etsc-serve`'s [`ShardRouter`](etsc_serve::ShardRouter):
//! where the in-process router may remap everything on a shard-count
//! change (streams are cheap to move between shards of one process), the
//! ring keeps cross-**node** movement minimal, because moving a stream
//! between machines costs a snapshot round-trip.
//!
//! [`Cluster`] adds the data path on top: it routes every request to the
//! owning node's [`NetClient`] (an ingest writes every node's sub-batch
//! before it reads any acknowledgement, so a batch costs about one round
//! trip whatever the node count), merges drains deterministically, and moves
//! live streams between nodes in two phases, export then import
//! ([`Cluster::migrate`]) — on any failure the streams are restored to their
//! source node and the routing topology is left untouched.

use std::collections::{BTreeMap, BTreeSet};

use etsc_core::hash;
use etsc_core::metrics::{push_counter, push_gauge, push_histogram, HistogramSnapshot};
use etsc_core::trace::{EventKind, Scope, Severity, SpanKind, TraceContext, Tracer};
use etsc_serve::{Record, StreamAlarm, StreamService};

use crate::client::{ClientConfig, NetClient, Request, Sent};
use crate::error::WireError;
use crate::metrics::MessageTimings;
use crate::retry::RetryStats;
use crate::supervisor::FailoverReport;
use crate::transport::Endpoint;

/// Client-side consistent-hash placement of streams onto node endpoints.
#[derive(Debug, Clone)]
pub struct ClusterRouter {
    endpoints: Vec<Endpoint>,
    /// `(ring position, node index)`, sorted by position.
    points: Vec<(u64, usize)>,
    /// Streams pinned to a specific node by an explicit migration; these
    /// win over the ring.
    overrides: BTreeMap<u64, usize>,
    /// Nodes declared dead; the ring walks past their points and pins to
    /// them are ignored until [`set_up`](Self::set_up).
    down: BTreeSet<usize>,
}

impl ClusterRouter {
    /// Virtual points each endpoint contributes to the ring. More points
    /// smooth the load split between nodes.
    pub const REPLICAS: usize = 128;

    /// Build a router over `endpoints` (at least one).
    pub fn new(endpoints: Vec<Endpoint>) -> Result<Self, WireError> {
        if endpoints.is_empty() {
            return Err(WireError::RemoteBadConfig(
                "a cluster needs at least one endpoint".to_string(),
            ));
        }
        let mut points = Vec::with_capacity(endpoints.len() * Self::REPLICAS);
        for (i, ep) in endpoints.iter().enumerate() {
            // Seed the ring position with the endpoint identity, fold in
            // the replica number, then avalanche: raw FNV positions of
            // near-identical endpoint strings correlate, which skews the
            // ring's arcs badly.
            let base = hash::fnv1a_64(ep.to_string().as_bytes());
            for replica in 0..Self::REPLICAS {
                let pos = hash::mix64(hash::fnv1a_64_with(base, &(replica as u64).to_le_bytes()));
                points.push((pos, i));
            }
        }
        points.sort_unstable();
        Ok(Self {
            endpoints,
            points,
            overrides: BTreeMap::new(),
            down: BTreeSet::new(),
        })
    }

    /// The endpoints this router places streams onto.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Node index that owns `stream` right now: a pin to a live node wins,
    /// then the ring (skipping down nodes).
    pub fn route(&self, stream: u64) -> usize {
        if let Some(&node) = self.overrides.get(&stream) {
            if !self.down.contains(&node) {
                return node;
            }
        }
        self.ring_route(stream)
    }

    /// Node index the ring alone assigns (ignoring overrides): the first
    /// point at or clockwise of the stream's hashed key whose node is not
    /// down. Every router with the same endpoints and the same down set
    /// computes the same placement — which is what lets two supervisors
    /// that independently declared a node dead converge on identical
    /// failover targets.
    pub fn ring_route(&self, stream: u64) -> usize {
        let key = hash::mix64(hash::fnv1a_u64(stream));
        // First ring point at or clockwise of the key, wrapping at the top.
        let start = self.points.partition_point(|&(pos, _)| pos < key);
        let n = self.points.len();
        // One full wrap-around pass from `start`, panic-free by shape: the
        // cycle is only sampled `n` consecutive points.
        for &(_, node) in self.points.iter().cycle().skip(start).take(n) {
            if !self.down.contains(&node) {
                return node;
            }
        }
        // Every node is down; fall back to the raw ring choice so routing
        // stays total (the request will fail with a transport error).
        self.points.get(start % n.max(1)).map_or(0, |p| p.1)
    }

    /// Declare `node` dead: the ring walks past its points, and pins to it
    /// are bypassed. Idempotent.
    pub fn set_down(&mut self, node: usize) {
        self.down.insert(node);
    }

    /// Declare `node` live again (e.g. after an operator replaced it).
    pub fn set_up(&mut self, node: usize) {
        self.down.remove(&node);
    }

    /// True if `node` is currently declared dead.
    pub fn is_down(&self, node: usize) -> bool {
        self.down.contains(&node)
    }

    /// Nodes currently declared dead, ascending.
    pub fn down_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.down.iter().copied()
    }

    /// Pin `stream` to `node`, overriding the ring (what a completed
    /// migration records). A pin matching the ring assignment is dropped.
    pub fn pin(&mut self, stream: u64, node: usize) {
        if self.ring_route(stream) == node {
            self.overrides.remove(&stream);
        } else {
            self.overrides.insert(stream, node);
        }
    }

    /// Streams currently pinned off their ring position.
    pub fn pinned(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.overrides.iter().map(|(&s, &n)| (s, n))
    }
}

/// A sub-batch whose send failed; held for redelivery (same client, same
/// sequence number) or for the failover decision if its node dies first.
struct PendingBatch {
    node: usize,
    /// Batch sequence number the node-side dedup cursor will see when this
    /// is redelivered (recorded at stash time; the client's sequence only
    /// advances on success, so redelivery reuses it).
    seq: u64,
    records: Vec<Record>,
    /// Trace context the batch was travelling under when it was stashed,
    /// so redelivery stays inside the original trace instead of orphaning
    /// the downstream spans.
    ctx: Option<TraceContext>,
}

/// One node's share of a fan-out between the scatter and the gather.
enum Leg {
    /// Held back behind the node's stashed batches: never sent, and
    /// stashed during the gather so the stash stays in node order. `seq`
    /// is what the batch will carry when the stash redelivers it.
    Queued { node: usize, seq: u64 },
    /// Written, or failed while writing; the gather reads the
    /// acknowledgement and runs the rest of the retry policy.
    Written {
        node: usize,
        req: Request,
        sent: Result<Sent, WireError>,
        /// The `ClientSend` scope; its context is the sub-batch's.
        scope: Scope,
    },
}

/// A connected cluster: one [`NetClient`] per node plus the router that
/// decides which node serves which stream.
///
/// # Failure handling
///
/// Each client runs the configured retry policy. With a nonzero
/// [`ClientConfig::client_id`] every client gets a distinct id (the
/// configured base plus the node index), so ingest batches carry
/// idempotency tags and transport faults during ingest retry safely. A
/// sub-batch that still fails is stashed and redelivered by the next
/// [`ingest`](Cluster::ingest) call — **do not re-submit a failed batch
/// yourself**; the stash already owns its delivery, and a manual
/// re-submission would mint fresh sequence numbers and duplicate records.
/// When a [`Supervisor`](crate::Supervisor) declares a node dead,
/// [`apply_failover`](Cluster::apply_failover) re-routes what the dead
/// node's checkpoint did not cover and drops what it did.
pub struct Cluster {
    router: ClusterRouter,
    clients: Vec<NetClient>,
    /// Per-node routing buffers, reused across fan-outs. Each is empty
    /// between calls; a sub-batch that fails is stashed with its buffer.
    parts: Vec<Vec<Record>>,
    pending: Vec<PendingBatch>,
    /// Alarms already pulled off some node by a [`drain`](Cluster::drain)
    /// whose merge then failed on another node. They left the remote
    /// runtime, so dropping them would lose them; they are held here and
    /// returned by the next successful drain instead.
    drained: Vec<StreamAlarm>,
    failovers: u64,
    /// The cluster-side tracer (shared with every client via the cloned
    /// [`ClientConfig`]); `None` runs fully untraced.
    tracer: Option<Tracer>,
    /// The root context of the most recent traced ingest — migration and
    /// failover-redelivery spans parent here, so cross-node topology
    /// changes show up inside the trace of the ingest they affected.
    last_trace: Option<TraceContext>,
}

impl Cluster {
    /// Dial every endpoint with the default [`ClientConfig`].
    pub fn connect(endpoints: &[Endpoint]) -> Result<Self, WireError> {
        Self::connect_with(endpoints, ClientConfig::default())
    }

    /// Dial every endpoint. A nonzero
    /// [`client_id`](ClientConfig::client_id) acts as a base: node `i`'s
    /// client is tagged `base + i`, so every client in this cluster dedups
    /// independently. Zero (the default) leaves ingest untagged. An id
    /// names a client *incarnation*: the nodes remember the highest batch
    /// seq applied per id across checkpoints, so a rebuilt cluster must
    /// use a fresh base — reusing one would make its restarted sequence
    /// numbers look like duplicates. Give concurrent drivers of the same
    /// nodes disjoint bases too. A base too large to give every node an id
    /// (`base + nodes - 1` past `u64::MAX`) is refused before any dial.
    pub fn connect_with(endpoints: &[Endpoint], cfg: ClientConfig) -> Result<Self, WireError> {
        let router = ClusterRouter::new(endpoints.to_vec())?;
        let ids = (0..endpoints.len())
            .map(|i| match cfg.client_id {
                0 => Some(0),
                base => u64::try_from(i).ok().and_then(|i| base.checked_add(i)),
            })
            .collect::<Option<Vec<u64>>>()
            .ok_or_else(|| {
                WireError::RemoteBadConfig(format!(
                    "client id base {} overflows u64 before each of {} nodes gets an id",
                    cfg.client_id,
                    endpoints.len()
                ))
            })?;
        let clients = endpoints
            .iter()
            .zip(ids)
            .map(|(ep, client_id)| {
                NetClient::connect_with(
                    ep,
                    ClientConfig {
                        client_id,
                        ..cfg.clone()
                    },
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            router,
            clients,
            parts: vec![Vec::new(); endpoints.len()],
            pending: Vec::new(),
            drained: Vec::new(),
            failovers: 0,
            tracer: cfg.tracer,
            last_trace: None,
        })
    }

    /// The cluster-side tracer, if one was configured.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The routing table (to inspect placement and pins).
    pub fn router(&self) -> &ClusterRouter {
        &self.router
    }

    /// Mutable access to the routing table.
    ///
    /// Pins normally appear as a side effect of [`Cluster::migrate`], but a
    /// *rebuilt* client — e.g. one reconnecting after a node was replaced —
    /// has a fresh ring and no memory of past migrations. Until its pins
    /// are re-seeded with [`ClusterRouter::pin`] to where the recovered
    /// topology actually holds each stream, the ring would route ingests to
    /// whatever node it hashes to, auto-opening fresh monitors away from
    /// the stream's real state.
    pub fn router_mut(&mut self) -> &mut ClusterRouter {
        &mut self.router
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.clients.len()
    }

    /// Direct access to one node's client (for per-node operations like
    /// stats or checkpoints). Index-style accessor: panics if `node >=
    /// self.nodes()`, exactly like slice indexing.
    pub fn client(&mut self, node: usize) -> &mut NetClient {
        self.node_client(node)
    }

    /// The client a routing decision resolved to.
    ///
    /// Every node index used internally is either produced by
    /// [`ClusterRouter::route`] (whose ring points and pins only name
    /// nodes of this cluster; failover reports are validated before their
    /// targets are pinned) or validated at the public boundary, so the
    /// index is in bounds by construction.
    #[expect(
        clippy::indexing_slicing,
        reason = "node index is router-produced or boundary-validated, so in bounds by construction"
    )]
    fn node_client(&mut self, node: usize) -> &mut NetClient {
        &mut self.clients[node]
    }

    /// The clients of the nodes not declared down, in node order.
    fn live_clients(&mut self) -> impl Iterator<Item = &mut NetClient> {
        let router = &self.router;
        let clients = self.clients.iter_mut().enumerate();
        clients.filter_map(move |(node, c)| (!router.is_down(node)).then_some(c))
    }

    /// Open `stream` on the node the router assigns it to.
    pub fn open_stream(&mut self, stream: u64) -> Result<bool, WireError> {
        let node = self.router.route(stream);
        self.node_client(node).open_stream(stream)
    }

    /// Node `node`'s routing buffer; in bounds for the same reason as
    /// [`node_client`](Self::node_client) (one buffer per client).
    #[expect(
        clippy::indexing_slicing,
        reason = "node index is router-produced, so in bounds by construction"
    )]
    fn part(&mut self, node: usize) -> &mut Vec<Record> {
        &mut self.parts[node]
    }

    /// Route a batch to its owning nodes. Records keep their relative
    /// order within each node's sub-batch, so per-stream ingest order is
    /// preserved (every record of one stream goes to one node).
    ///
    /// Scatter, then gather: previously failed sub-batches are redelivered
    /// first (FIFO per node, so per-stream order survives an outage). Then
    /// every node's sub-batch of this batch is written before any
    /// acknowledgement is read, and the acknowledgements are read in the
    /// order the sub-batches went out — so the batch costs about one round
    /// trip, not one per node. The call returns once every acknowledgement
    /// has been read. Every node is attempted even when one fails, so a
    /// flaky node cannot starve the others. A sub-batch that fails (after
    /// the client's own retries) is stashed for the next call; the first
    /// error in node order is returned. **On error, do not re-submit the
    /// batch** — its failed records are already queued internally and will
    /// be redelivered exactly once (or re-routed / dropped by
    /// [`apply_failover`](Self::apply_failover) if their node is declared
    /// dead).
    pub fn ingest(&mut self, batch: &[Record]) -> Result<(), WireError> {
        // With a live tracer, every cluster ingest opens one trace: a
        // ClientIngest root, one ClientSend child per node-bound
        // sub-batch, and whatever the nodes add downstream. The root's
        // context is remembered so later migrations and failover
        // redeliveries can join the same trace.
        let mut root = Scope::root(self.tracer.as_ref(), SpanKind::ClientIngest);
        let ctx = root.ctx();
        self.last_trace = ctx.or(self.last_trace);
        let result = self.ingest_fanout(batch, ctx);
        root.finish(batch.len() as u64, None);
        result
    }

    /// The routing fan-out behind [`ingest`](Self::ingest): route each
    /// record into its owning node's buffer, write every node's sub-batch
    /// (the scatter), then read their acknowledgements in node order (the
    /// gather). Each sub-batch travels under `ctx`, inside its own
    /// `ClientSend` span parented to `ctx.parent_span` when tracing is
    /// live; the span opens before the write and closes after the
    /// acknowledgement, so the spans of one call overlap. Failover
    /// redelivery calls this directly with a `Redelivery` span as the
    /// parent, so redelivered records stay inside the trace they started
    /// in.
    fn ingest_fanout(
        &mut self,
        batch: &[Record],
        ctx: Option<TraceContext>,
    ) -> Result<(), WireError> {
        let mut first_err = self.flush_pending().err();
        for r in batch {
            let node = self.router.route(r.stream);
            self.part(node).push(*r);
        }
        let mut legs = Vec::new();
        let nodes = self.clients.iter_mut().zip(&self.parts).enumerate();
        for (node, (client, part)) in nodes.filter(|(_, (_, part))| !part.is_empty()) {
            // A node with batches still stuck in the stash must not be
            // sent newer records ahead of them.
            let queued_ahead = self.pending.iter().filter(|p| p.node == node).count() as u64;
            if queued_ahead > 0 {
                let seq = client.next_batch_seq() + queued_ahead;
                legs.push(Leg::Queued { node, seq });
                continue;
            }
            let mut scope = Scope::child(self.tracer.as_ref(), ctx, SpanKind::ClientSend);
            let req = client.ingest_request(part, scope.ctx());
            let sent = client.send(&req);
            legs.push(Leg::Written {
                node,
                req,
                sent,
                scope,
            });
        }
        for leg in legs {
            match leg {
                // The stashed batch keeps the root-parented context (no
                // ClientSend span — nothing was sent).
                Leg::Queued { node, seq } => {
                    let records = std::mem::take(self.part(node));
                    self.pending.push(PendingBatch {
                        node,
                        seq,
                        records,
                        ctx,
                    });
                }
                Leg::Written {
                    node,
                    req,
                    sent,
                    mut scope,
                } => {
                    let client = self.node_client(node);
                    let seq = client.next_batch_seq();
                    let first = sent.and_then(|sent| client.recv(sent));
                    let outcome = client.finish_ingest(&req, first);
                    let send_ctx = scope.ctx();
                    scope.finish(node as u64, None);
                    match outcome {
                        Ok(()) => self.part(node).clear(),
                        Err(e) => {
                            let records = std::mem::take(self.part(node));
                            self.pending.push(PendingBatch {
                                node,
                                seq,
                                records,
                                ctx: send_ctx,
                            });
                            first_err.get_or_insert(e);
                        }
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Redeliver stashed sub-batches, FIFO per node. A node that fails
    /// again keeps its remaining batches queued (order preservation);
    /// other nodes keep flushing. Down nodes are left for
    /// [`apply_failover`](Self::apply_failover).
    fn flush_pending(&mut self) -> Result<(), WireError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut stuck: BTreeSet<usize> = BTreeSet::new();
        let mut first_err = None;
        let mut remaining = Vec::new();
        for p in std::mem::take(&mut self.pending) {
            if stuck.contains(&p.node) || self.router.is_down(p.node) {
                remaining.push(p);
                continue;
            }
            match self.node_client(p.node).ingest_ctx(&p.records, p.ctx) {
                Ok(()) => {}
                Err(e) => {
                    stuck.insert(p.node);
                    first_err.get_or_insert(e);
                    remaining.push(p);
                }
            }
        }
        self.pending = remaining;
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Sub-batches currently stashed for redelivery.
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }

    /// Completed failovers applied to this cluster.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Adopt a [`Supervisor`](crate::Supervisor) failover: mark the dead
    /// node down, pin its streams to the survivors that imported them, and
    /// settle the dead node's stashed sub-batches — a batch the recovered
    /// checkpoint already covers (its sequence number is at or behind the
    /// recovered ingest cursor) is dropped, because its records live on in
    /// the failed-over streams and redelivering them would duplicate;
    /// anything past the cursor is re-ingested through the new routing
    /// with fresh tags.
    pub fn apply_failover(&mut self, report: &FailoverReport) -> Result<(), WireError> {
        // Validate the report before mutating anything: a report naming
        // nodes this cluster does not have is refused whole, so routing
        // never pins a stream to a nonexistent client.
        let nodes = self.clients.len();
        if report.node >= nodes {
            return Err(WireError::RemoteBadConfig(format!(
                "failover report declares node {} dead, but the cluster has {nodes} node(s)",
                report.node
            )));
        }
        if let Some(&(stream, target)) = report.moved.iter().find(|&&(_, t)| t >= nodes) {
            return Err(WireError::RemoteBadConfig(format!(
                "failover report moves stream {stream} to node {target}, but the cluster has \
                 {nodes} node(s)"
            )));
        }
        self.router.set_down(report.node);
        for &(stream, target) in &report.moved {
            self.router.pin(stream, target);
        }
        let (dead, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.node == report.node);
        self.pending = keep;
        let client_id = self.node_client(report.node).client_id();
        let cursor = report.cursors.get(&client_id).copied().unwrap_or(0);
        for p in dead {
            if p.seq <= cursor {
                continue;
            }
            // Redeliver inside the trace the batch started in (falling
            // back to the most recent traced ingest): a Redelivery span
            // under the root, with the re-routed sends as its children.
            let parent = p.ctx.or(self.last_trace);
            let mut scope = Scope::child(self.tracer.as_ref(), parent, SpanKind::Redelivery);
            let res = self.ingest_fanout(&p.records, scope.ctx());
            scope.finish(p.records.len() as u64, None);
            res?;
        }
        self.failovers += 1;
        Ok(())
    }

    /// Aggregate resilience counters — every client's
    /// [`RetryStats`](crate::RetryStats) plus cluster-level failover and
    /// stash gauges — and every client's latency histograms (per-kind
    /// request RTT and retry-backoff delays, merged across clients — the
    /// merge is associative and commutative, so client order is
    /// irrelevant) in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut agg = RetryStats::default();
        for c in &self.clients {
            agg.merge(&c.retry_stats());
        }
        let mut out = agg.render_prometheus();
        push_counter(
            &mut out,
            "etsc_net_failovers_total",
            "Failovers applied to the cluster's routing.",
            self.failovers,
        );
        push_gauge(
            &mut out,
            "etsc_net_nodes_down",
            "Nodes currently declared dead.",
            self.router.down_nodes().count() as u64,
        );
        push_gauge(
            &mut out,
            "etsc_net_pending_batches",
            "Sub-batches stashed for redelivery.",
            self.pending.len() as u64,
        );
        let mut rtt = MessageTimings::empty_snapshots();
        let mut backoff = HistogramSnapshot::empty();
        for c in &self.clients {
            MessageTimings::merge_into(&mut rtt, &c.rtt_timings().snapshots());
            backoff.merge(&c.backoff_snapshot());
        }
        crate::metrics::push_snapshots_prometheus(
            &mut out,
            "etsc_net_client_rtt_ns",
            "Client-side request round-trip time per message kind, merged across the \
             cluster's clients, in nanoseconds.",
            &rtt,
        );
        push_histogram(
            &mut out,
            "etsc_net_backoff_ns",
            "Scheduled retry-backoff delays across the cluster's clients, in nanoseconds.",
            &backoff,
        );
        out
    }

    /// Drain every node and merge the alarms.
    ///
    /// Per-node drains arrive ordered by that node's global ingest
    /// sequence; sequence numbers are **not** comparable across nodes, so
    /// the merged list is sorted by `(stream, alarm.time)` — the
    /// per-stream clock every runtime agrees on. Within one stream this
    /// equals the single-process order; across streams it is a
    /// deterministic interleaving.
    ///
    /// Lossless under failure: a remote drain is destructive, so alarms
    /// pulled off one node before another node's drain fails are buffered
    /// rather than dropped. On an error, retry — the next successful call
    /// returns the buffered alarms merged with everything newly drained.
    pub fn drain(&mut self) -> Result<Vec<StreamAlarm>, WireError> {
        let (mut drained, mut first_err) = (Vec::new(), None);
        for client in self.live_clients() {
            match client.drain() {
                Ok(alarms) => drained.extend(alarms),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.drained.extend(drained);
        if let Some(e) = first_err {
            return Err(e);
        }
        let mut merged = std::mem::take(&mut self.drained);
        merged.sort_by_key(|a| (a.stream, a.alarm.time));
        Ok(merged)
    }

    /// Live streams across all (live) nodes.
    pub fn stream_count(&mut self) -> Result<usize, WireError> {
        self.live_clients().map(NetClient::stream_count).sum()
    }

    /// Checkpoint every live node into its own registry; returns state
    /// sizes in bytes, in node order (down nodes skipped).
    pub fn checkpoint_all(&mut self) -> Result<Vec<u64>, WireError> {
        self.live_clients().map(NetClient::checkpoint).collect()
    }

    /// Move live streams onto node `to`, two-phase:
    ///
    /// 1. **Export** — each source node snapshots and retires its subset
    ///    (atomic per node: an unknown id fails with nothing removed).
    /// 2. **Import** — node `to` adopts the snapshots (atomic: a corrupt
    ///    blob or duplicate id refuses the batch).
    ///
    /// On an import failure the exported streams are restored to their
    /// source nodes and the routing table is left untouched, so a failed
    /// migration never strands or double-serves a stream. Only after both
    /// phases succeed are the streams pinned to `to`.
    ///
    /// Streams already on `to` are skipped. The source nodes' queued
    /// records are drained (by the remote export) before the snapshot, so
    /// no queued work is lost; call [`Cluster::drain`] afterwards to
    /// collect any alarms that drain raised.
    pub fn migrate(&mut self, streams: &[u64], to: usize) -> Result<(), WireError> {
        if to >= self.clients.len() {
            return Err(WireError::RemoteBadConfig(format!(
                "migration target node {to} does not exist ({} nodes)",
                self.clients.len()
            )));
        }
        if self.router.is_down(to) {
            return Err(WireError::RemoteBadConfig(format!(
                "migration target node {to} is down"
            )));
        }
        let scope = Scope::child(self.tracer.as_ref(), self.last_trace, SpanKind::Migration);
        let mut moved = 0u64;
        let mut per_source: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for &s in streams {
            let from = self.router.route(s);
            if from != to {
                per_source.entry(from).or_default().push(s);
            }
        }
        for (from, ids) in per_source {
            let exported = self.node_client(from).migrate_out(&ids)?;
            if let Err(err) = self.node_client(to).migrate_in(&exported) {
                // Give the streams back to their source; the topology is
                // unchanged, so service resumes exactly where it was.
                self.node_client(from)
                    .migrate_in(&exported)
                    .map_err(|restore| {
                        WireError::RemotePersist(format!(
                            "migration to node {to} failed ({err}) and restoring {} stream(s) to \
                         node {from} also failed: {restore}",
                            exported.len()
                        ))
                    })?;
                return Err(err);
            }
            moved += ids.len() as u64;
            for id in ids {
                self.router.pin(id, to);
            }
        }
        scope.event(Severity::Info, EventKind::Migration, moved, to as u64);
        scope.finish(moved, None);
        Ok(())
    }

    /// Fetch every live node's Chrome `trace_event` document, in node
    /// order (down nodes skipped). Nodes without a tracer contribute a
    /// complete empty document.
    pub fn fetch_traces(&mut self) -> Result<Vec<String>, WireError> {
        self.live_clients().map(NetClient::fetch_trace).collect()
    }
}

impl StreamService for Cluster {
    type Error = WireError;

    fn open_stream(&mut self, stream: u64) -> Result<bool, WireError> {
        Cluster::open_stream(self, stream)
    }

    fn ingest(&mut self, batch: &[Record]) -> Result<(), WireError> {
        Cluster::ingest(self, batch)
    }

    fn drain(&mut self) -> Result<Vec<StreamAlarm>, WireError> {
        Cluster::drain(self)
    }

    fn stream_count(&mut self) -> Result<usize, WireError> {
        Cluster::stream_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(n: usize) -> Vec<Endpoint> {
        (0..n)
            .map(|i| Endpoint::Tcp(format!("10.0.0.{i}:7431")))
            .collect()
    }

    #[test]
    fn ring_routing_is_deterministic_and_total() {
        let router = ClusterRouter::new(eps(3)).unwrap();
        for stream in 0..1000u64 {
            let a = router.route(stream);
            let b = router.route(stream);
            assert_eq!(a, b);
            assert!(a < 3);
        }
    }

    #[test]
    fn ring_spreads_streams_across_nodes() {
        let router = ClusterRouter::new(eps(4)).unwrap();
        let mut counts = [0usize; 4];
        for stream in 0..4000u64 {
            counts[router.route(stream)] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            assert!(c > 200, "node {node} got only {c} of 4000 streams");
        }
    }

    #[test]
    fn adding_a_node_moves_only_a_minority_of_streams() {
        let before = ClusterRouter::new(eps(4)).unwrap();
        let mut grown = eps(4);
        grown.push(Endpoint::Tcp("10.0.0.9:7431".to_string()));
        let after = ClusterRouter::new(grown).unwrap();
        let moved = (0..10_000u64)
            .filter(|&s| before.route(s) != after.route(s))
            .count();
        // Ideal is 1/5 = 2000; consistent hashing should stay well under a
        // full remap and every move should target the new node.
        assert!(moved < 5000, "{moved} of 10000 streams moved");
        for s in 0..10_000u64 {
            if before.route(s) != after.route(s) {
                assert_eq!(after.route(s), 4, "stream {s} moved to an old node");
            }
        }
    }

    #[test]
    fn pins_override_the_ring_and_self_clean() {
        let mut router = ClusterRouter::new(eps(3)).unwrap();
        let stream = 7;
        let home = router.route(stream);
        let away = (home + 1) % 3;
        router.pin(stream, away);
        assert_eq!(router.route(stream), away);
        assert_eq!(router.pinned().count(), 1);
        // Pinning back to the ring assignment clears the override.
        router.pin(stream, home);
        assert_eq!(router.route(stream), home);
        assert_eq!(router.pinned().count(), 0);
    }

    #[test]
    fn a_client_id_base_that_overflows_is_refused_before_dialing() {
        use crate::fault::{Fault, FaultPlan, Op};
        use crate::transport::Listener;

        let listeners: Vec<Listener> = (0..2)
            .map(|_| Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap())
            .collect();
        let endpoints: Vec<Endpoint> = listeners
            .iter()
            .map(|l| l.local_endpoint().unwrap())
            .collect();
        // A dial would consume the scripted refusal; the refusal must
        // still be pending after the typed error.
        let faults = FaultPlan::new()
            .at(Op::Connect(0), Fault::RefuseConnect)
            .build();
        let cfg = ClientConfig {
            client_id: u64::MAX,
            faults: Some(faults.clone()),
            ..ClientConfig::default()
        };
        assert!(matches!(
            Cluster::connect_with(&endpoints, cfg),
            Err(WireError::RemoteBadConfig(_))
        ));
        assert_eq!(faults.pending(), 1, "refused before any dial");

        // The largest base that fits gives the last node u64::MAX.
        let cfg = ClientConfig {
            client_id: u64::MAX - 1,
            ..ClientConfig::default()
        };
        let mut cluster = Cluster::connect_with(&endpoints, cfg).unwrap();
        assert_eq!(cluster.client(0).client_id(), u64::MAX - 1);
        assert_eq!(cluster.client(1).client_id(), u64::MAX);
    }

    #[test]
    fn empty_cluster_is_a_typed_error() {
        assert!(matches!(
            ClusterRouter::new(Vec::new()).unwrap_err(),
            WireError::RemoteBadConfig(_)
        ));
    }
}
