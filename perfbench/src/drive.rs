//! The closed loop: one generator thread sends each batch after the
//! previous call returns and drains every fixed number of batches.
//!
//! A round serves one [`Traffic`] from a fresh runtime (or fresh nodes), so
//! every round must reproduce the same per-stream alarms. Untraced rounds
//! read the clock once per batch and once per drain (for latency); traced
//! rounds also time every public call, one by one.

use std::time::{Duration, Instant};

use etsc_early::EarlyClassifier;
use etsc_net::{Cluster, ClusterRouter, Endpoint, Listener, Node, NodeConfig};
use etsc_persist::{ModelRegistry, Persist};
use etsc_serve::{Record, Runtime, StreamAlarm, StreamService};

use crate::measure::ns;
use crate::workload::{Spec, Transport};

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub records: usize,
    pub wall: Duration,
    pub cpu: Option<Duration>,
    /// Per batch: `ingest` call to the return of the drain (and any
    /// maintenance of that cycle) that emits its alarms, in µs.
    pub latency_us: Vec<f64>,
    pub alarms: Vec<StreamAlarm>,
    pub calls: u64,
    pub failed_calls: u64,
    /// Traced rounds only: every `ingest` / `drain` call's duration, in ns.
    pub ingest_ns: Vec<f64>,
    pub drain_ns: Vec<f64>,
    pub maint: Maintenance,
    pub queue_high_water: u64,
}

/// Checkpoints and rebalances a round performed, with their costs.
#[derive(Default, Clone)]
pub struct Maintenance {
    pub checkpoint_ns: f64,
    pub checkpoint_bytes: f64,
    pub checkpoint_streams: f64,
    pub rebalance_ns: f64,
    pub rebalanced_streams: f64,
}

impl Maintenance {
    pub fn add(&mut self, other: &Maintenance) {
        self.checkpoint_ns += other.checkpoint_ns;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.checkpoint_streams += other.checkpoint_streams;
        self.rebalance_ns += other.rebalance_ns;
        self.rebalanced_streams += other.rebalanced_streams;
    }

    /// Cut one checkpoint of `rt` into `registry`, timing it.
    pub fn checkpoint<C: EarlyClassifier + Persist>(
        &mut self,
        rt: &mut Runtime<'_, C>,
        registry: &ModelRegistry,
    ) -> bool {
        let t0 = Instant::now();
        let result = rt.checkpoint(registry);
        self.checkpoint_ns += ns(t0.elapsed());
        self.checkpoint_streams += Runtime::stream_count(rt) as f64;
        match result {
            Ok(bytes) => {
                self.checkpoint_bytes += bytes as f64;
                true
            }
            Err(_) => false,
        }
    }

    /// Re-shard `rt` to `shards`, timing it and counting moved streams.
    pub fn rebalance<C: EarlyClassifier + ?Sized>(
        &mut self,
        rt: &mut Runtime<'_, C>,
        shards: usize,
    ) -> bool {
        let moved_before = rt.stats().migrated_streams;
        let t0 = Instant::now();
        let ok = rt.rebalance(shards).is_ok();
        self.rebalance_ns += ns(t0.elapsed());
        self.rebalanced_streams += (rt.stats().migrated_streams - moved_before) as f64;
        ok
    }
}

/// Drive `records` through `svc` in batches of `spec.batch`, draining every
/// `spec.drain_every` batches. After each drain `maintain(svc, drain_index,
/// round)` may run maintenance calls; the cycle's latencies close after it.
fn closed_loop<S: StreamService>(
    svc: &mut S,
    records: &[Record],
    spec: &Spec,
    traced: bool,
    mut maintain: impl FnMut(&mut S, usize, &mut Round),
) -> Round {
    let batches = records.len().div_ceil(spec.batch);
    let mut round = Round {
        records: records.len(),
        latency_us: Vec::with_capacity(batches),
        ..Round::default()
    };
    if traced {
        round.ingest_ns.reserve(batches);
        round.drain_ns.reserve(batches / spec.drain_every + 1);
    }
    let mut pending: Vec<Instant> = Vec::with_capacity(spec.drain_every);
    let mut drains = 0;
    let cpu0 = crate::measure::cpu_time();
    let t0 = Instant::now();
    for (b, batch) in records.chunks(spec.batch).enumerate() {
        let start = Instant::now();
        pending.push(start);
        round.calls += 1;
        if svc.ingest(batch).is_err() {
            round.failed_calls += 1;
        }
        if traced {
            round.ingest_ns.push(ns(start.elapsed()));
        }
        if (b + 1) % spec.drain_every == 0 || b + 1 == batches {
            let d0 = Instant::now();
            round.calls += 1;
            match svc.drain() {
                Ok(alarms) => round.alarms.extend(alarms),
                Err(_) => round.failed_calls += 1,
            }
            if traced {
                round.drain_ns.push(ns(d0.elapsed()));
            }
            maintain(svc, drains, &mut round);
            drains += 1;
            let end = Instant::now();
            round
                .latency_us
                .extend(pending.drain(..).map(|s| (end - s).as_secs_f64() * 1e6));
        }
    }
    round.wall = t0.elapsed();
    round.cpu = cpu0
        .zip(crate::measure::cpu_time())
        .map(|(a, b)| b.saturating_sub(a));
    round
}

/// One round on an in-process runtime with `workers` drain threads,
/// including the workload's periodic checkpoints and mid-round rebalance.
/// `after` runs on the runtime once the loop is done (outside its timing).
fn inproc_round<C: EarlyClassifier + Persist>(
    clf: &C,
    spec: &Spec,
    records: &[Record],
    workers: usize,
    traced: bool,
    registry: &ModelRegistry,
    after: impl FnOnce(&mut Runtime<'_, C>),
) -> Round {
    let cfg = spec.runtime(clf.series_len(), spec.shards, workers);
    let mut rt = Runtime::new(clf, cfg).expect("workload runtime configuration is valid");
    let drains = records
        .len()
        .div_ceil(spec.batch)
        .div_ceil(spec.drain_every);
    let mut round = closed_loop(&mut rt, records, spec, traced, |rt, drain, round| {
        if let Some(every) = spec.checkpoint_every {
            if (drain + 1) % every == 0 {
                round.calls += 1;
                if !round.maint.checkpoint(rt, registry) {
                    round.failed_calls += 1;
                }
            }
        }
        if let Some(shards) = spec.rebalance_to {
            if drain == drains / 2 {
                round.calls += 1;
                if !round.maint.rebalance(rt, shards) {
                    round.failed_calls += 1;
                }
            }
        }
    });
    round.queue_high_water = rt.stats().queue_depth_high_water;
    after(&mut rt);
    round
}

/// Client-side timings of a loopback cluster.
#[derive(Default)]
pub struct NetCalls {
    pub ingest_us: Vec<f64>,
    pub drain_us: Vec<f64>,
    pub ping_us: Vec<f64>,
}

/// Two loopback nodes, one shard and one worker each, serving until
/// `body` returns; `body` gets a connected cluster client.
fn with_loopback_cluster<C: EarlyClassifier + Persist, R>(
    clf: &C,
    spec: &Spec,
    body: impl FnOnce(&mut Cluster) -> R,
) -> R {
    let cfg = spec.runtime(clf.series_len(), 1, 1);
    let nodes: Vec<Node<'_, C>> = (0..2)
        .map(|_| {
            let rt =
                Runtime::new(clf, cfg.clone()).expect("workload runtime configuration is valid");
            Node::new(rt, NodeConfig::default())
        })
        .collect();
    let listeners: Vec<(Listener, Endpoint)> = (0..2)
        .map(|_| {
            let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()))
                .expect("bind a loopback port");
            let endpoint = listener
                .local_endpoint()
                .expect("bound listener has an address");
            (listener, endpoint)
        })
        .collect();
    let endpoints: Vec<Endpoint> = listeners.iter().map(|(_, e)| e.clone()).collect();
    std::thread::scope(|s| {
        let servers: Vec<_> = nodes
            .iter()
            .zip(listeners)
            .map(|(node, (listener, _))| s.spawn(move || node.serve(listener)))
            .collect();
        // Stops the nodes even if `body` panics, so the scope can join.
        let stop = StopOnDrop(&nodes);
        let out = Cluster::connect(&endpoints).map(|mut cluster| body(&mut cluster));
        drop(stop);
        for server in servers {
            server
                .join()
                .expect("node thread panicked")
                .expect("node served without error");
        }
        out.expect("connect to the loopback nodes")
    })
}

/// One round through a fresh loopback cluster; also returns the cluster's
/// routing table. Traced rounds time `pings` pings per node after the loop.
fn cluster_round<C: EarlyClassifier + Persist>(
    clf: &C,
    spec: &Spec,
    records: &[Record],
    traced: bool,
    pings: usize,
) -> (Round, NetCalls, ClusterRouter) {
    with_loopback_cluster(clf, spec, |cluster| {
        let round = closed_loop(cluster, records, spec, traced, |_, _, _| {});
        let mut calls = NetCalls {
            ingest_us: round.ingest_ns.iter().map(|t| t / 1e3).collect(),
            drain_us: round.drain_ns.iter().map(|t| t / 1e3).collect(),
            ping_us: Vec::with_capacity(pings * cluster.nodes()),
        };
        for node in 0..cluster.nodes() {
            for token in 0..pings as u64 {
                let t0 = Instant::now();
                if cluster.client(node).ping(token).is_ok() {
                    calls.ping_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        (round, calls, cluster.router().clone())
    })
}

/// What a traced round measures beyond its [`Round`].
#[derive(Default)]
pub struct Extras {
    /// Cluster rounds: client-side call times and the routing table.
    pub net: Option<(NetCalls, ClusterRouter)>,
    /// In-process rounds of workloads that neither checkpoint nor
    /// rebalance in the loop: one of each on the end state, untimed by the
    /// loop.
    pub end_state: Maintenance,
}

/// Pings per node after a traced cluster round.
const PINGS: usize = 2_000;

/// One round of `spec` over `records`, wherever the workload serves.
pub fn round<C: EarlyClassifier + Persist>(
    clf: &C,
    spec: &Spec,
    records: &[Record],
    workers: usize,
    traced: bool,
    registry: &ModelRegistry,
) -> (Round, Extras) {
    let mut extras = Extras::default();
    let round = match spec.transport {
        Transport::InProcess => inproc_round(clf, spec, records, workers, traced, registry, |rt| {
            if traced && spec.checkpoint_every.is_none() {
                extras.end_state.checkpoint(rt, registry);
                extras.end_state.rebalance(rt, spec.shards + 1);
            }
        }),
        Transport::Loopback => {
            let pings = if traced { PINGS } else { 0 };
            let (round, calls, router) = cluster_round(clf, spec, records, traced, pings);
            extras.net = traced.then_some((calls, router));
            round
        }
    };
    (round, extras)
}

/// Time bringing up what serves `spec` — a runtime, or two nodes and a
/// connected client — up to the point the first ingest could be sent.
pub fn start_serving<C: EarlyClassifier + Persist>(
    clf: &C,
    spec: &Spec,
    workers: usize,
) -> Duration {
    let t0 = Instant::now();
    match spec.transport {
        Transport::InProcess => {
            let rt = Runtime::new(clf, spec.runtime(clf.series_len(), spec.shards, workers))
                .expect("workload runtime configuration is valid");
            let elapsed = t0.elapsed();
            drop(rt);
            elapsed
        }
        Transport::Loopback => with_loopback_cluster(clf, spec, |_| t0.elapsed()),
    }
}

struct StopOnDrop<'n, 'a, C: EarlyClassifier + Persist>(&'n [Node<'a, C>]);

impl<C: EarlyClassifier + Persist> Drop for StopOnDrop<'_, '_, C> {
    fn drop(&mut self) {
        for node in self.0 {
            node.stop();
        }
    }
}
