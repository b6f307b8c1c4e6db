//! Deterministic fault injection against a live node: scripted connection
//! refusals, dropped and corrupted frames, read stalls, and asymmetric
//! partitions, driven through the client's retry policy. The invariant
//! under test everywhere: a tagged ingest batch is applied **exactly
//! once** no matter which fault interrupts which attempt — through one
//! client, and through a two-node cluster that writes every node's
//! sub-batch before it reads any acknowledgement.

use std::sync::mpsc;
use std::time::Duration;

use etsc_early::{Decision, DecisionSession, EarlyClassifier, SessionNorm};
use etsc_net::{
    ClientConfig, Cluster, Endpoint, Fault, FaultPlan, Listener, NetClient, Node, NodeConfig, Op,
    RetryPolicy, RetryStats, WireError,
};
use etsc_persist::{Decoder, Encoder, Persist, PersistError};
use etsc_serve::{OverflowPolicy, Record, Runtime, RuntimeConfig};
use etsc_stream::{StreamMonitorConfig, StreamNorm};

// --- fixture: the mean-threshold pulse detector the serve tests use ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PulseDetector {
    need: usize,
    len: usize,
}

struct MeanSession {
    need: usize,
    sum: f64,
    len: usize,
    decision: Decision,
}

impl DecisionSession for MeanSession {
    fn push(&mut self, x: f64) -> Decision {
        self.len += 1;
        if self.decision.is_predict() {
            return self.decision;
        }
        self.sum += x;
        if self.len >= self.need && self.sum / self.len as f64 > 0.5 {
            self.decision = Decision::Predict {
                label: 0,
                confidence: 1.0,
            };
        }
        self.decision
    }
    fn decision(&self) -> Decision {
        self.decision
    }
    fn len(&self) -> usize {
        self.len
    }
    fn reset(&mut self) {
        self.sum = 0.0;
        self.len = 0;
        self.decision = Decision::Wait;
    }
    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_f64(self.sum);
        enc.put_usize(self.len);
        enc.put_bool(self.decision.is_predict());
        Ok(())
    }
}

impl EarlyClassifier for PulseDetector {
    fn n_classes(&self) -> usize {
        1
    }
    fn series_len(&self) -> usize {
        self.len
    }
    fn min_prefix(&self) -> usize {
        self.need
    }
    fn session(&self, _norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
        Box::new(MeanSession {
            need: self.need,
            sum: 0.0,
            len: 0,
            decision: Decision::Wait,
        })
    }
    fn resume_session(
        &self,
        _norm: SessionNorm,
        dec: &mut Decoder<'_>,
    ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
        let sum = dec.get_f64("sum")?;
        let len = dec.get_usize("len")?;
        let committed = dec.get_bool("committed")?;
        Ok(Box::new(MeanSession {
            need: self.need,
            sum,
            len,
            decision: if committed {
                Decision::Predict {
                    label: 0,
                    confidence: 1.0,
                }
            } else {
                Decision::Wait
            },
        }))
    }
    fn predict_full(&self, _s: &[f64]) -> usize {
        0
    }
}

impl Persist for PulseDetector {
    const KIND: &'static str = "PulseDetector";
    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_usize(self.need);
        enc.put_usize(self.len);
    }
    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let need = dec.get_usize("pulse need")?;
        let len = dec.get_usize("pulse len")?;
        if need == 0 || len == 0 || need > len {
            return Err(PersistError::Corrupt(format!(
                "pulse detector: need {need}, len {len}"
            )));
        }
        Ok(Self { need, len })
    }
}

fn detector() -> PulseDetector {
    PulseDetector { need: 4, len: 24 }
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        shards: 2,
        monitor: StreamMonitorConfig {
            anchor_stride: 1,
            norm: StreamNorm::Raw,
            refractory: 100,
        },
        model_name: "pulse".to_string(),
        threads: Some(2),
        ..RuntimeConfig::default()
    }
}

/// Stops the node even if the test body panics, so the scoped server
/// thread can join and the failure surfaces instead of hanging the suite.
struct StopGuard<'n, 'a>(&'n Node<'a, PulseDetector>);

impl Drop for StopGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

fn with_node<R>(
    cfg: RuntimeConfig,
    node_cfg: NodeConfig,
    body: impl FnOnce(&Endpoint, &Node<'_, PulseDetector>) -> R,
) -> R {
    let clf = detector();
    let runtime = Runtime::new(&clf, cfg).unwrap();
    let node = Node::new(runtime, node_cfg);
    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    std::thread::scope(|s| {
        let server = s.spawn(|| node.serve(listener));
        let guard = StopGuard(&node);
        let out = body(&endpoint, &node);
        drop(guard);
        server.join().unwrap().unwrap();
        out
    })
}

/// Two nodes on loopback, serving until `body` returns.
fn with_two_nodes<R>(body: impl FnOnce(&[Endpoint], [&Node<'_, PulseDetector>; 2]) -> R) -> R {
    let clf = detector();
    let nodes =
        [0, 1].map(|_| Node::new(Runtime::new(&clf, config()).unwrap(), NodeConfig::default()));
    let listeners =
        [0, 1].map(|_| Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap());
    let endpoints: Vec<Endpoint> = listeners
        .iter()
        .map(|l| l.local_endpoint().unwrap())
        .collect();
    let [n0, n1] = &nodes;
    std::thread::scope(|s| {
        let [l0, l1] = listeners;
        let servers = [s.spawn(|| n0.serve(l0)), s.spawn(|| n1.serve(l1))];
        let guards = [StopGuard(n0), StopGuard(n1)];
        let out = body(&endpoints, [n0, n1]);
        drop(guards);
        for server in servers {
            server.join().unwrap().unwrap();
        }
        out
    })
}

/// Three rounds over two streams per node of `cluster` (placement hangs
/// on the ephemeral ports, so the streams are picked by route), and how
/// many of the records each node owns.
fn spread_batch(cluster: &Cluster) -> (Vec<Record>, [usize; 2]) {
    const STREAMS: usize = 2;
    const ROUNDS: usize = 3;
    let mut picked: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for id in 0u64.. {
        let node = cluster.router().route(id);
        if picked[node].len() < STREAMS {
            picked[node].push(id);
        }
        if picked.iter().all(|ids| ids.len() == STREAMS) {
            break;
        }
    }
    let ids = picked.concat();
    let batch = (0..ROUNDS)
        .flat_map(|_| ids.iter().map(|&id| Record::new(id, 1.0)))
        .collect();
    (batch, [STREAMS * ROUNDS; 2])
}

/// Records queued on `node` and batches it refused as duplicates.
fn applied(node: &Node<'_, PulseDetector>) -> (usize, u64) {
    node.with_runtime(|rt| (rt.queued(), rt.stats().duplicate_batches))
}

/// A client config tuned for fault tests: fast timeouts, fast backoff, a
/// tagged identity so ingest retries are idempotent.
fn resilient_cfg(client_id: u64) -> ClientConfig {
    ClientConfig {
        request_timeout: Duration::from_millis(150),
        retry: RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
            jitter_seed: 7,
        },
        client_id,
        ..ClientConfig::default()
    }
}

fn batch() -> Vec<Record> {
    (0..6).map(|i| Record::new(i % 3, 1.0)).collect()
}

#[test]
fn refused_connect_is_consumed_and_the_next_dial_succeeds() {
    with_node(config(), NodeConfig::default(), |ep, _node| {
        let inj = FaultPlan::new()
            .at(Op::Connect(0), Fault::RefuseConnect)
            .build();
        let mut cfg = resilient_cfg(0);
        cfg.faults = Some(inj.clone());
        // The scripted refusal fires on the first dial...
        match NetClient::connect_with(ep, cfg.clone()).map(|_| ()) {
            Err(WireError::Io(msg)) => assert!(msg.contains("refused"), "{msg}"),
            other => panic!("expected a refused connect, got {other:?}"),
        }
        // ...is consumed by it, and the next dial goes through clean.
        let mut client = NetClient::connect_with(ep, cfg).unwrap();
        assert_eq!(client.ping(3).unwrap(), 3);
        assert_eq!(inj.pending(), 0);
    });
}

#[test]
fn transient_read_stalls_are_absorbed_below_the_retry_layer() {
    with_node(config(), NodeConfig::default(), |ep, _node| {
        let inj = FaultPlan::new()
            .at(Op::Read(0), Fault::StallReads(3))
            .build();
        let mut cfg = resilient_cfg(0);
        cfg.faults = Some(inj);
        let mut client = NetClient::connect_with(ep, cfg).unwrap();
        // Three stalled reads delay the reply but stay inside the request
        // deadline, so the frame reader just polls through them: no retry,
        // no reconnect, no duplicate.
        assert_eq!(client.ping(11).unwrap(), 11);
        assert_eq!(client.retry_stats().retries, 0);
        assert_eq!(client.retry_stats().reconnects, 0);
    });
}

#[test]
fn lost_ack_under_inbound_partition_makes_retried_ingest_exactly_once() {
    with_node(config(), NodeConfig::default(), |ep, node| {
        let inj = FaultPlan::new().build();
        let mut cfg = resilient_cfg(7);
        cfg.retry.max_attempts = 2; // fail fast: both attempts will stall
        cfg.faults = Some(inj.clone());
        let mut client = NetClient::connect_with(ep, cfg).unwrap();
        assert!(client.open_stream(0).unwrap());

        // Requests reach the node but every reply is lost: the classic
        // "applied but unacknowledged" failure.
        inj.inject(Fault::PartitionInbound);
        let records = batch();
        match client.ingest(&records) {
            Err(WireError::TimedOut) => {}
            other => panic!("expected the ack to time out, got {other:?}"),
        }
        assert_eq!(client.retry_stats().retries, 1);
        assert_eq!(client.retry_stats().giveups, 1);

        // Both attempts crossed the partition; the idempotency tag made
        // the second a server-side no-op.
        assert_eq!(node.with_runtime(|rt| rt.queued()), records.len());
        assert_eq!(node.with_runtime(|rt| rt.stats().duplicate_batches), 1);

        // Heal and re-submit the *same* batch: the client still holds its
        // unacknowledged seq, the node recognizes it, and the client
        // finally gets its (duplicate) ack. Still applied exactly once.
        inj.heal();
        client.ingest(&records).unwrap();
        assert_eq!(client.retry_stats().duplicate_acks, 1);
        assert_eq!(node.with_runtime(|rt| rt.queued()), records.len());
    });
}

#[test]
fn outbound_partition_swallows_requests_without_applying_them() {
    with_node(config(), NodeConfig::default(), |ep, node| {
        let inj = FaultPlan::new().build();
        let mut cfg = resilient_cfg(0); // untagged: transport faults must not retry
        cfg.faults = Some(inj.clone());
        let mut client = NetClient::connect_with(ep, cfg).unwrap();

        inj.inject(Fault::PartitionOutbound);
        match client.ingest(&batch()) {
            Err(WireError::TimedOut) => {}
            other => panic!("expected the swallowed request to time out, got {other:?}"),
        }
        // Untagged + transport fault: retrying could duplicate, so the
        // client must not have retried.
        assert_eq!(client.retry_stats().retries, 0);
        assert_eq!(node.with_runtime(|rt| rt.queued()), 0);

        // The partition was asymmetric — after healing, the same
        // connection serves again (nothing half-written on the wire).
        inj.heal();
        assert_eq!(client.ping(5).unwrap(), 5);
        assert_eq!(node.with_runtime(|rt| rt.queued()), 0);
    });
}

#[test]
fn corrupted_request_frame_is_refused_typed_and_the_retry_recovers() {
    with_node(config(), NodeConfig::default(), |ep, node| {
        let inj = FaultPlan::new().build();
        let mut cfg = resilient_cfg(9);
        cfg.faults = Some(inj.clone());
        let mut client = NetClient::connect_with(ep, cfg).unwrap();
        assert!(client.open_stream(0).unwrap());

        // Flip a bit in the next outbound frame: the node's checksum
        // catches it, replies typed, and closes; the tagged client
        // reconnects and re-sends.
        inj.inject(Fault::CorruptWrite);
        let records = batch();
        client.ingest(&records).unwrap();
        assert_eq!(client.retry_stats().retries, 1);
        assert!(client.retry_stats().reconnects >= 1);
        // The corrupt attempt was never applied, so no duplicate ack.
        assert_eq!(client.retry_stats().duplicate_acks, 0);
        assert_eq!(node.with_runtime(|rt| rt.queued()), records.len());
    });
}

#[test]
fn mid_frame_disconnect_on_write_retries_to_exactly_one_application() {
    with_node(config(), NodeConfig::default(), |ep, node| {
        let inj = FaultPlan::new().build();
        let mut cfg = resilient_cfg(13);
        cfg.faults = Some(inj.clone());
        let mut client = NetClient::connect_with(ep, cfg).unwrap();
        assert!(client.open_stream(0).unwrap());

        inj.inject(Fault::DropWrite);
        let records = batch();
        client.ingest(&records).unwrap();
        assert_eq!(client.retry_stats().retries, 1);
        assert!(client.retry_stats().reconnects >= 1);
        assert_eq!(node.with_runtime(|rt| rt.queued()), records.len());
    });
}

#[test]
fn queue_full_hint_crosses_the_wire_and_maps_to_a_duration() {
    let cfg = RuntimeConfig {
        shards: 1,
        queue_capacity: 8,
        overflow: OverflowPolicy::Reject,
        ..config()
    };
    let node_cfg = NodeConfig {
        queue_full_retry_after: Duration::from_millis(25),
        ..NodeConfig::default()
    };
    with_node(cfg, node_cfg, |ep, _node| {
        let mut client_cfg = resilient_cfg(0);
        client_cfg.retry = RetryPolicy::none(); // a full queue stays full here
        let mut client = NetClient::connect_with(ep, client_cfg).unwrap();
        let big: Vec<Record> = (0..50).map(|i| Record::new(i % 3, 1.0)).collect();
        let err = client.ingest(&big).unwrap_err();
        match &err {
            WireError::QueueFull { retry_after_ms, .. } => assert_eq!(*retry_after_ms, 25),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(err.retry_after(), Some(Duration::from_millis(25)));
        assert_eq!(client.retry_stats().giveups, 1);
    });
}

#[test]
fn scripted_plans_replay_identically_across_runs() {
    // The same seeded plan against the same node produces the same retry
    // counters — the harness is deterministic end to end, which is what
    // lets CI pin fault seeds.
    let run = || {
        with_node(config(), NodeConfig::default(), |ep, node| {
            let inj = FaultPlan::random(0xE75C, 3, 6).build();
            let mut cfg = resilient_cfg(21);
            cfg.retry.max_attempts = 6;
            cfg.faults = Some(inj);
            let mut client = NetClient::connect_with(ep, cfg).unwrap();
            // Under faults a retried open can find the stream already
            // created, so only the Ok matters here.
            client.open_stream(0).unwrap();
            let records = batch();
            client.ingest(&records).unwrap();
            assert_eq!(node.with_runtime(|rt| rt.queued()), records.len());
            let s = client.retry_stats();
            (s.retries, s.reconnects, s.duplicate_acks, s.giveups)
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn cluster_ingest_writes_every_sub_batch_before_reading_any_ack() {
    with_two_nodes(|eps, nodes| {
        let mut cluster = Cluster::connect(eps).unwrap();
        let (batch, per_node) = spread_batch(&cluster);
        let overlapped = std::thread::scope(|s| {
            // Declared inside the scope, so a panic drops the sender — and
            // releases the hold — before the scope joins its threads.
            let (release, released) = mpsc::channel::<()>();
            let (held, holding) = mpsc::channel();
            // Hold node 0's runtime: its sub-batch, written first, can be
            // neither applied nor acknowledged until the hold is released.
            let holder = s.spawn(move || {
                nodes[0].with_runtime(|_| {
                    held.send(()).unwrap();
                    let _ = released.recv();
                })
            });
            holding.recv().unwrap();
            let ingest = s.spawn(|| cluster.ingest(&batch));
            // Node 1's sub-batch must reach its queue while node 0's
            // acknowledgement is still outstanding (bounded: ~5 s).
            let overlapped = (0..5_000).any(|_| {
                let done = applied(nodes[1]).0 == per_node[1];
                if !done {
                    std::thread::sleep(Duration::from_millis(1));
                }
                done
            });
            drop(release);
            holder.join().unwrap();
            ingest.join().unwrap().unwrap();
            overlapped
        });
        assert!(
            overlapped,
            "node 1's sub-batch waited for node 0's acknowledgement"
        );
        assert_eq!(applied(nodes[0]), (per_node[0], 0));
        assert_eq!(applied(nodes[1]), (per_node[1], 0));
    });
}

#[test]
fn cluster_ingest_absorbs_one_shot_faults_on_the_first_written_node() {
    // The clients share one injector, so every fault lands on node 0's
    // exchange: the first frame written or the first reply read. A write
    // fault costs node 0 one tagged retry, the short stall costs nothing,
    // and node 1 never notices.
    let retried = RetryStats {
        retries: 1,
        reconnects: 1,
        ..RetryStats::default()
    };
    for (fault, node0_stats) in [
        (Fault::DropWrite, retried),
        (Fault::CorruptWrite, retried),
        (Fault::StallReads(3), RetryStats::default()),
    ] {
        with_two_nodes(|eps, nodes| {
            let inj = FaultPlan::new().build();
            let mut cfg = resilient_cfg(31);
            cfg.faults = Some(inj.clone());
            let mut cluster = Cluster::connect_with(eps, cfg).unwrap();
            let (batch, per_node) = spread_batch(&cluster);
            inj.inject(fault);
            cluster.ingest(&batch).unwrap();
            assert_eq!(inj.injected(), 1, "{fault:?} fired");
            assert_eq!(cluster.pending_batches(), 0, "{fault:?}");
            assert_eq!(applied(nodes[0]), (per_node[0], 0), "{fault:?}");
            assert_eq!(applied(nodes[1]), (per_node[1], 0), "{fault:?}");
            assert_eq!(cluster.client(0).retry_stats(), node0_stats, "{fault:?}");
            assert_eq!(
                cluster.client(1).retry_stats(),
                RetryStats::default(),
                "{fault:?}"
            );
        });
    }
}

#[test]
fn cluster_ingest_under_inbound_partition_sends_each_node_max_attempts_copies() {
    with_two_nodes(|eps, nodes| {
        let inj = FaultPlan::new().build();
        let mut cfg = resilient_cfg(41);
        cfg.retry.max_attempts = 2;
        cfg.faults = Some(inj.clone());
        let mut cluster = Cluster::connect_with(eps, cfg).unwrap();
        let (batch, per_node) = spread_batch(&cluster);

        // Every sub-batch reaches its node, every acknowledgement is lost.
        inj.inject(Fault::PartitionInbound);
        assert_eq!(cluster.ingest(&batch), Err(WireError::TimedOut));
        // Two attempts, so two copies per node — one applied, one
        // deduplicated — then a giveup, and both sub-batches stashed.
        let gave_up = RetryStats {
            retries: 1,
            reconnects: 2,
            duplicate_acks: 0,
            giveups: 1,
        };
        for node in 0..2 {
            assert_eq!(applied(nodes[node]), (per_node[node], 1), "node {node}");
            assert_eq!(cluster.client(node).retry_stats(), gave_up, "node {node}");
        }
        assert_eq!(cluster.pending_batches(), 2);

        // Healed, the next call redelivers the stash under the same seqs:
        // a third copy per node, recognized and acknowledged as such.
        inj.heal();
        cluster.ingest(&[]).unwrap();
        assert_eq!(cluster.pending_batches(), 0);
        for node in 0..2 {
            assert_eq!(applied(nodes[node]), (per_node[node], 2), "node {node}");
            assert_eq!(cluster.client(node).retry_stats().duplicate_acks, 1);
        }
    });
}

/// Pins the client tracer of a fault-free cluster exactly: every ingest's
/// root and per-node send spans, and a migration under the latest root,
/// on a manual clock that steps between calls.
#[test]
fn cluster_client_spans_and_events_are_pinned() {
    use etsc_core::metrics::Clock;
    use etsc_core::trace::{EventKind, Severity, SpanKind as K, Tracer, TracerConfig};
    with_two_nodes(|eps, _| {
        let clock = Clock::manual();
        let tracer = Tracer::new(TracerConfig {
            clock: clock.clone(),
            id_seed: 100,
            ..TracerConfig::default()
        });
        let cfg = ClientConfig {
            tracer: Some(tracer.clone()),
            ..ClientConfig::default()
        };
        let mut cluster = Cluster::connect_with(eps, cfg).unwrap();
        let (batch, _) = spread_batch(&cluster);
        for _ in 0..3 {
            clock.advance_ns(1_000);
            cluster.ingest(&batch).unwrap();
        }
        clock.advance_ns(1_000);
        // The batch opens with node 0's two streams.
        let streams: Vec<u64> = batch[..2].iter().map(|r| r.stream).collect();
        cluster.migrate(&streams, 1).unwrap();
        // A failed migration records nothing, and takes no span id.
        let absent = (0u64..)
            .find(|&id| cluster.router().route(id) == 0 && batch.iter().all(|r| r.stream != id))
            .unwrap();
        assert!(cluster.migrate(&[absent], 1).is_err());
        clock.advance_ns(1_000);
        cluster.ingest(&batch).unwrap();

        let spans: Vec<_> = tracer
            .spans()
            .iter()
            .map(|s| {
                (
                    s.trace_id,
                    s.span_id,
                    s.parent_id,
                    s.kind,
                    s.start_ns,
                    s.dur_ns,
                    s.arg,
                )
            })
            .collect();
        let events: Vec<_> = tracer
            .events()
            .iter()
            .map(|e| (e.time_ns, e.severity, e.kind, e.a, e.b))
            .collect();
        #[rustfmt::skip]
        assert_eq!(spans, [
            (100, 102, 101, K::ClientSend, 1000, 0, 0),
            (100, 103, 101, K::ClientSend, 1000, 0, 1),
            (100, 101, 0, K::ClientIngest, 1000, 0, 12),
            (104, 106, 105, K::ClientSend, 2000, 0, 0),
            (104, 107, 105, K::ClientSend, 2000, 0, 1),
            (104, 105, 0, K::ClientIngest, 2000, 0, 12),
            (108, 110, 109, K::ClientSend, 3000, 0, 0),
            (108, 111, 109, K::ClientSend, 3000, 0, 1),
            (108, 109, 0, K::ClientIngest, 3000, 0, 12),
            (108, 112, 109, K::Migration, 4000, 0, 2),
            (113, 115, 114, K::ClientSend, 5000, 0, 1),
            (113, 114, 0, K::ClientIngest, 5000, 0, 12),
        ]);
        assert_eq!(events, [(4000, Severity::Info, EventKind::Migration, 2, 1)]);
    });
}
