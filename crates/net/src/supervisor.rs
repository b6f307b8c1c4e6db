//! Failure detection and automatic failover.
//!
//! A [`Supervisor`] heartbeats every node in a [`Cluster`] with `Ping`
//! probes. A node that misses [`SupervisorConfig::miss_threshold`]
//! consecutive probes (each probe gets one reconnect-and-retry to rule out
//! a stale connection) is declared dead and failed over:
//!
//! 1. the router marks the node down, so placement — for the failover
//!    itself and for all subsequent traffic — skips it;
//! 2. the node's serving state is recovered **from its registry
//!    checkpoint** ([`Runtime::recover_from`]), exactly as the node itself
//!    would restart;
//! 3. the recovered streams are exported over the same two-phase snapshot
//!    path a planned migration uses, imported into the surviving nodes the
//!    down-aware ring assigns, and pinned there;
//! 4. the checkpoint's undelivered alarms and per-client ingest cursors
//!    are returned in a [`FailoverReport`] so the caller can feed the
//!    alarms through a [`DedupCursor`](etsc_serve::DedupCursor) (recovery
//!    re-delivers; dedup makes delivery exactly-once) and hand the cursors
//!    to [`Cluster::apply_failover`], which settles in-flight batches.
//!
//! Two supervisors racing the same failover converge: both compute the
//! same down-set and therefore the same survivor placement, and the
//! importing node refuses duplicate streams atomically — the slower
//! supervisor counts them in
//! [`FailoverReport::already_imported`] and pins identically instead of
//! double-importing.
//!
//! The supervisor holds no connections of its own — it probes through the
//! cluster's clients — and recovery happens in-process from the registry
//! directory, which therefore must be reachable from where the supervisor
//! runs (shared storage, or a local copy of the dead node's registry).

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::path::PathBuf;

use etsc_core::metrics::{push_counter, push_gauge, push_histogram, Clock, Histogram};
use etsc_core::trace::{EventKind, Scope, Severity};
use etsc_early::EarlyClassifier;
use etsc_persist::{ModelRegistry, Persist};
use etsc_serve::{Runtime, StreamAlarm};

use crate::client::NetClient;
use crate::cluster::Cluster;
use crate::error::WireError;

/// Tuning for a [`Supervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Consecutive failed probes before a node is declared dead. Each
    /// probe already includes one reconnect attempt, so the threshold
    /// counts genuine unreachability, not stale sockets.
    pub miss_threshold: u32,
    /// Per-node registry directories (index-aligned with the cluster's
    /// endpoints): where each node checkpoints, and therefore where its
    /// state is recovered from when it dies.
    pub registries: Vec<PathBuf>,
    /// Registry entry name of the served model (every node serves the
    /// same fitted model under the same name).
    pub model_name: String,
}

impl SupervisorConfig {
    /// A config with the default miss threshold (3).
    pub fn new(registries: Vec<PathBuf>, model_name: impl Into<String>) -> Self {
        Self {
            miss_threshold: 3,
            registries,
            model_name: model_name.into(),
        }
    }
}

/// What one failover did; consumed by [`Cluster::apply_failover`] and by
/// the caller's alarm sink.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The node declared dead.
    pub node: usize,
    /// `(stream, surviving node)` for every recovered stream, as pinned.
    pub moved: Vec<(u64, usize)>,
    /// The checkpoint's undelivered alarms. Delivery is at-least-once
    /// across the crash — some of these may have been delivered before the
    /// node died — so feed them through a
    /// [`DedupCursor`](etsc_serve::DedupCursor) rather than straight to
    /// the sink.
    pub redelivered: Vec<StreamAlarm>,
    /// The checkpoint's per-client ingest cursors (client id → highest
    /// applied batch seq); [`Cluster::apply_failover`] uses them to decide
    /// which in-flight batches the checkpoint already covers.
    pub cursors: BTreeMap<u64, u64>,
    /// Streams another supervisor had already imported into a survivor
    /// when this one tried (two supervisors racing one failover).
    pub already_imported: usize,
}

/// Heartbeat-driven failure detector and failover driver (see the
/// [module docs](self)).
pub struct Supervisor<C: EarlyClassifier + Persist> {
    cfg: SupervisorConfig,
    misses: Vec<u32>,
    dead: BTreeSet<usize>,
    failovers: u64,
    clock: Clock,
    probe_ns: Histogram,
    failover_ns: Histogram,
    _model: PhantomData<fn() -> C>,
}

impl<C: EarlyClassifier + Persist> Supervisor<C> {
    /// Build a supervisor. `C` is the served model type — needed to load
    /// the checkpointed model during recovery.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Self {
            cfg,
            misses: Vec::new(),
            dead: BTreeSet::new(),
            failovers: 0,
            clock: Clock::monotonic(),
            probe_ns: Histogram::new(),
            failover_ns: Histogram::new(),
            _model: PhantomData,
        }
    }

    /// Replace the clock behind the probe/failover latency histograms
    /// (manual in deterministic tests, disabled to supervise untimed).
    /// Detection itself never reads the clock — ticks are caller-driven —
    /// so the clock mode cannot change which nodes are declared dead.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// Consecutive misses currently recorded against `node`.
    pub fn misses(&self, node: usize) -> u32 {
        self.misses.get(node).copied().unwrap_or(0)
    }

    /// True once `node` has been declared dead.
    pub fn is_dead(&self, node: usize) -> bool {
        self.dead.contains(&node)
    }

    /// Failovers this supervisor has driven.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// One heartbeat round: probe every live node, and fail over any that
    /// reaches the miss threshold. Returns one report per failover (empty
    /// when all is well); apply each with [`Cluster::apply_failover`] and
    /// feed its [`redelivered`](FailoverReport::redelivered) alarms
    /// through the sink's dedup cursor.
    ///
    /// Call this on the cadence you want dead nodes detected at: detection
    /// latency is `miss_threshold` ticks.
    pub fn tick(&mut self, cluster: &mut Cluster) -> Result<Vec<FailoverReport>, WireError> {
        if self.misses.len() != cluster.nodes() {
            self.misses = vec![0; cluster.nodes()];
        }
        let mut reports = Vec::new();
        for node in 0..cluster.nodes() {
            if self.dead.contains(&node) {
                continue;
            }
            // One observation per probe, hit or miss — a miss's span
            // (timeout + redial + second timeout) is the latency a failed
            // heartbeat costs the tick, which is the number to watch when
            // choosing a tick cadence.
            let probe = Scope::timer(&self.clock);
            let alive = Self::probe(cluster.client(node), node as u64);
            probe.stop(&self.probe_ns);
            if alive {
                if let Some(m) = self.misses.get_mut(node) {
                    *m = 0;
                }
                continue;
            }
            // `misses` was resized to `cluster.nodes()` above, so the entry
            // exists; the `unwrap_or(0)` fallback (which would merely delay
            // a failover) keeps the bookkeeping structurally panic-free.
            let misses = self
                .misses
                .get_mut(node)
                .map(|m| {
                    *m += 1;
                    *m
                })
                .unwrap_or(0);
            if misses >= self.cfg.miss_threshold.max(1) {
                let failover = Scope::timer(&self.clock);
                let report = self.failover(node, cluster)?;
                failover.stop(&self.failover_ns);
                reports.push(report);
            }
        }
        Ok(reports)
    }

    /// One health probe: a single un-retried ping, with one fresh dial if
    /// it fails (a stale connection and a dead node look identical until
    /// you reconnect).
    fn probe(client: &mut NetClient, token: u64) -> bool {
        if client.ping_once(token).is_ok() {
            return true;
        }
        client.reconnect().is_ok() && client.ping_once(token).is_ok()
    }

    /// Declare `node` dead and move its streams to the survivors.
    fn failover(
        &mut self,
        node: usize,
        cluster: &mut Cluster,
    ) -> Result<FailoverReport, WireError> {
        self.dead.insert(node);
        if let Some(t) = cluster.tracer() {
            t.event(
                Severity::Error,
                EventKind::FailoverDeclared,
                node as u64,
                self.misses(node) as u64,
            );
        }
        // Down first: the placement below — and everything after — must
        // skip the dead node.
        cluster.router_mut().set_down(node);
        let dir = self.cfg.registries.get(node).cloned().ok_or_else(|| {
            WireError::RemoteBadConfig(format!("no registry directory configured for node {node}"))
        })?;
        let registry = ModelRegistry::open(&dir)?;
        let model: C = registry.load(&self.cfg.model_name)?;
        let mut rt = Runtime::recover_from(&model, &registry, &self.cfg.model_name)
            .map_err(|e| WireError::from_serve(&e))?;
        // The checkpoint's undelivered alarms re-deliver through the
        // caller's dedup cursor; everything queued at checkpoint time was
        // already flushed into them by checkpoint_state.
        let redelivered = rt.drain();
        let cursors = rt.ingest_cursors().clone();
        let ids = rt.stream_ids();
        let exported = rt
            .export_streams(&ids)
            .map_err(|e| WireError::from_serve(&e))?;
        let mut per_target: BTreeMap<usize, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
        for (id, bytes) in exported {
            per_target
                .entry(cluster.router().route(id))
                .or_default()
                .push((id, bytes));
        }
        let mut moved = Vec::new();
        let mut already_imported = 0;
        for (target, blobs) in per_target {
            match cluster.client(target).migrate_in(&blobs) {
                Ok(_) => {}
                Err(WireError::DuplicateStream { .. }) => {
                    // A racing supervisor imported this target's batch
                    // first (imports are atomic, so "one duplicate" means
                    // "all already there"). Converge on its placement —
                    // identical to ours, since both routers walk the same
                    // ring with the same down set.
                    already_imported += blobs.len();
                }
                Err(e) => return Err(e),
            }
            for (id, _) in &blobs {
                cluster.router_mut().pin(*id, target);
                moved.push((*id, target));
            }
        }
        if let Some(t) = cluster.tracer() {
            t.event(
                Severity::Warn,
                EventKind::FailoverCompleted,
                node as u64,
                moved.len() as u64,
            );
        }
        self.failovers += 1;
        Ok(FailoverReport {
            node,
            moved,
            redelivered,
            cursors,
            already_imported,
        })
    }

    /// Render the supervisor's own metrics — failover count, dead-node
    /// count, probe and failover latency histograms — in the same
    /// Prometheus dialect every other layer exposes.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        push_counter(
            &mut out,
            "etsc_net_supervisor_failovers_total",
            "Failovers this supervisor has driven.",
            self.failovers,
        );
        push_gauge(
            &mut out,
            "etsc_net_supervisor_dead_nodes",
            "Nodes this supervisor has declared dead.",
            self.dead.len() as u64,
        );
        push_histogram(
            &mut out,
            "etsc_net_heartbeat_probe_ns",
            "Heartbeat probe latency in nanoseconds (misses include the redial and second timeout).",
            &self.probe_ns.snapshot(),
        );
        push_histogram(
            &mut out,
            "etsc_net_failover_ns",
            "End-to-end failover duration (recover, export, import, pin) in nanoseconds.",
            &self.failover_ns.snapshot(),
        );
        out
    }
}
