//! End-to-end tests of the cross-node serving layer over a real fitted
//! classifier and real loopback sockets.
//!
//! The acceptance bar for `etsc-net` mirrors `etsc-serve`'s: the same
//! synthetic multi-stream traffic produces **identical per-stream alarm
//! sequences** whether the monitors live in this process, behind one node's
//! socket, or spread across a two-node cluster — through a mid-event
//! cross-node migration and across a node crash recovered from a registry
//! checkpoint. Process and network boundaries are deployment knobs; they
//! must never change what any stream's monitor sees or decides.

use etsc::core::UcrDataset;
use etsc::early::ects::{Ects, EctsConfig};
use etsc::net::{Cluster, Endpoint, Listener, NetClient, Node, NodeConfig, WireError};
use etsc::persist::ModelRegistry;
use etsc::serve::{Record, Runtime, RuntimeConfig, StreamAlarm, StreamService};
use etsc::stream::{Alarm, StreamMonitorConfig, StreamNorm};
use std::path::PathBuf;

/// Same two-class problem as the serve end-to-end tests: low-level vs
/// high-level series with deterministic per-exemplar jitter.
fn train_set() -> UcrDataset {
    let data: Vec<Vec<f64>> = (0..10)
        .map(|i| {
            let level = if i % 2 == 0 { 0.0 } else { 3.0 };
            (0..24)
                .map(|j| level + 0.06 * ((i * 5 + j * 3) % 11) as f64)
                .collect()
        })
        .collect();
    let labels = (0..10).map(|i| i % 2).collect();
    UcrDataset::new(data, labels).unwrap()
}

fn serve_cfg() -> RuntimeConfig {
    RuntimeConfig {
        shards: 2,
        monitor: StreamMonitorConfig {
            anchor_stride: 3,
            norm: StreamNorm::Raw,
            refractory: 40,
        },
        model_name: "ects".to_string(),
        threads: Some(2),
        ..RuntimeConfig::default()
    }
}

const STREAM_IDS: [u64; 5] = [3, 17, 256, 99_991, u64::MAX / 3];
const ROUNDS: usize = 160;

/// Interleaved traffic: every stream alternates quiet background with an
/// event resembling a class-1 training exemplar, offset per stream so the
/// alarm times differ.
fn traffic() -> Vec<Vec<Record>> {
    let train = train_set();
    let event: Vec<f64> = train.series(1).to_vec();
    (0..ROUNDS)
        .map(|t| {
            STREAM_IDS
                .iter()
                .enumerate()
                .map(|(k, &id)| {
                    let start = 20 + 13 * k;
                    let value = if t >= start && t < start + event.len() {
                        event[t - start]
                    } else {
                        0.02 * ((t * 7 + k) % 5) as f64
                    };
                    Record::new(id, value)
                })
                .collect()
        })
        .collect()
}

/// Drive all traffic through any [`StreamService`] — the same driver runs
/// against an in-process `Runtime`, a `NetClient`, or a `Cluster`.
fn drive<S: StreamService>(svc: &mut S, cadence: usize) -> Vec<StreamAlarm>
where
    S::Error: std::fmt::Debug,
{
    let mut alarms = Vec::new();
    for (t, batch) in traffic().iter().enumerate() {
        svc.ingest(batch).unwrap();
        if (t + 1) % cadence == 0 {
            alarms.extend(svc.drain().unwrap());
        }
    }
    alarms.extend(svc.drain().unwrap());
    alarms
}

/// The in-process reference run every distributed topology must match.
fn reference_alarms(clf: &Ects) -> Vec<StreamAlarm> {
    let mut rt = Runtime::new(clf, serve_cfg()).unwrap();
    let alarms = drive(&mut rt, 8);
    assert!(!alarms.is_empty(), "the planted events must produce alarms");
    for &id in &STREAM_IDS {
        assert!(
            alarms.iter().any(|a| a.stream == id),
            "stream {id} must alarm"
        );
    }
    alarms
}

/// One stream's alarm bodies in drain order. Global sequence numbers are
/// node-local, so cross-node comparisons strip `seq` and compare the
/// per-stream clock (`alarm.time`) and verdicts, which every topology must
/// agree on exactly.
fn per_stream(alarms: &[StreamAlarm], id: u64) -> Vec<Alarm> {
    alarms
        .iter()
        .filter(|a| a.stream == id)
        .map(|a| a.alarm)
        .collect()
}

fn bind_loopback() -> (Listener, Endpoint) {
    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    (listener, endpoint)
}

fn tmp_root(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("etsc-net-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Stops the node when dropped, so a panicking test body cannot leave the
/// accept loop spinning and hang the scope's implicit join.
struct StopGuard<'n, 'a>(&'n Node<'a, Ects>);

impl Drop for StopGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// One node behind a socket is bit-identical to the in-process runtime —
/// including global sequence numbers, since a single node owns the whole
/// ingest order. The client and the runtime are driven by the *same*
/// generic code via [`StreamService`].
#[test]
fn a_net_client_matches_the_in_process_runtime_bit_exactly() {
    let clf = Ects::fit(&train_set(), &EctsConfig::default());
    let reference = reference_alarms(&clf);

    let node = Node::new(
        Runtime::new(&clf, serve_cfg()).unwrap(),
        NodeConfig::default(),
    );
    let (listener, endpoint) = bind_loopback();
    let over_the_wire = std::thread::scope(|s| {
        let guard = StopGuard(&node);
        let server = s.spawn(|| node.serve(listener));
        let mut client = NetClient::connect(&endpoint).unwrap();
        let alarms = drive(&mut client, 8);
        assert_eq!(client.stream_count().unwrap(), STREAM_IDS.len());
        drop(guard);
        server.join().unwrap().unwrap();
        alarms
    });
    assert_eq!(
        over_the_wire, reference,
        "a socket between driver and runtime must be invisible in the alarms"
    );
}

/// Two nodes, with half the streams migrated from node to node mid-event
/// and mid-refractory: every stream's alarms stay exactly those of the
/// single-process run. The migration travels over the wire via the
/// cluster's two-phase export/import.
#[test]
fn cross_node_migration_preserves_alarm_sequences() {
    let clf = Ects::fit(&train_set(), &EctsConfig::default());
    let reference = reference_alarms(&clf);

    let node_a = Node::new(
        Runtime::new(&clf, serve_cfg()).unwrap(),
        NodeConfig::default(),
    );
    let node_b = Node::new(
        Runtime::new(&clf, serve_cfg()).unwrap(),
        NodeConfig::default(),
    );
    let (la, ea) = bind_loopback();
    let (lb, eb) = bind_loopback();
    let batches = traffic();

    let cluster_alarms = std::thread::scope(|s| {
        let guard_a = StopGuard(&node_a);
        let guard_b = StopGuard(&node_b);
        let server_a = s.spawn(|| node_a.serve(la));
        let server_b = s.spawn(|| node_b.serve(lb));

        let mut cluster = Cluster::connect(&[ea.clone(), eb.clone()]).unwrap();
        let mut alarms = Vec::new();
        for (t, batch) in batches.iter().enumerate() {
            cluster.ingest(batch).unwrap();
            if t == 49 {
                // Round 49 is inside stream 256's event window and within
                // stream 3's refractory period: move those two (wherever
                // the ring put them) onto node B, carrying anchor state and
                // refractory clocks across the wire.
                alarms.extend(cluster.drain().unwrap());
                cluster.migrate(&[STREAM_IDS[0], STREAM_IDS[2]], 1).unwrap();
                assert!(
                    [STREAM_IDS[0], STREAM_IDS[2]]
                        .iter()
                        .all(|&id| cluster.router().route(id) == 1),
                    "migrated streams must route to node B afterwards"
                );
            }
            if (t + 1) % 8 == 0 {
                alarms.extend(cluster.drain().unwrap());
            }
        }
        alarms.extend(cluster.drain().unwrap());
        assert_eq!(cluster.stream_count().unwrap(), STREAM_IDS.len());
        assert!(
            cluster.client(1).stream_count().unwrap() >= 2,
            "node B must hold at least the two migrated streams"
        );

        drop(guard_a);
        drop(guard_b);
        server_a.join().unwrap().unwrap();
        server_b.join().unwrap().unwrap();
        alarms
    });

    for &id in &STREAM_IDS {
        assert_eq!(
            per_stream(&cluster_alarms, id),
            per_stream(&reference, id),
            "stream {id}: cluster alarms must match the single-process run"
        );
    }
}

/// A migration that lists a stream twice is refused before anything moves:
/// the source node keeps the stream, the cluster still holds every stream
/// where it was, and every alarm sequence stays the single-process one.
#[test]
fn a_migration_listing_a_stream_twice_is_refused_and_moves_nothing() {
    let clf = Ects::fit(&train_set(), &EctsConfig::default());
    let reference = reference_alarms(&clf);

    let node_a = Node::new(
        Runtime::new(&clf, serve_cfg()).unwrap(),
        NodeConfig::default(),
    );
    let node_b = Node::new(
        Runtime::new(&clf, serve_cfg()).unwrap(),
        NodeConfig::default(),
    );
    let (la, ea) = bind_loopback();
    let (lb, eb) = bind_loopback();
    let batches = traffic();
    // Deterministic placement (ring order depends on ephemeral ports).
    let on_a = [STREAM_IDS[1], STREAM_IDS[3]];
    let on_b = [STREAM_IDS[0], STREAM_IDS[2], STREAM_IDS[4]];

    let cluster_alarms = std::thread::scope(|s| {
        let guard_a = StopGuard(&node_a);
        let guard_b = StopGuard(&node_b);
        let server_a = s.spawn(|| node_a.serve(la));
        let server_b = s.spawn(|| node_b.serve(lb));

        let mut cluster = Cluster::connect(&[ea.clone(), eb.clone()]).unwrap();
        for &id in &STREAM_IDS {
            cluster.open_stream(id).unwrap();
        }
        cluster.migrate(&on_a, 0).unwrap();
        cluster.migrate(&on_b, 1).unwrap();
        let mut alarms = Vec::new();
        for (t, batch) in batches.iter().enumerate() {
            cluster.ingest(batch).unwrap();
            if t == 49 {
                let err = cluster.migrate(&[on_a[0], on_a[0]], 1).unwrap_err();
                assert!(
                    matches!(err, WireError::DuplicateStream { stream } if stream == on_a[0]),
                    "expected DuplicateStream for {}, got {err}",
                    on_a[0]
                );
                assert_eq!(cluster.router().route(on_a[0]), 0, "nothing was re-pinned");
                assert_eq!(cluster.client(0).stream_count().unwrap(), on_a.len());
                assert_eq!(cluster.client(1).stream_count().unwrap(), on_b.len());
            }
            if (t + 1) % 8 == 0 {
                alarms.extend(cluster.drain().unwrap());
            }
        }
        alarms.extend(cluster.drain().unwrap());
        assert_eq!(cluster.stream_count().unwrap(), STREAM_IDS.len());

        drop(guard_a);
        drop(guard_b);
        server_a.join().unwrap().unwrap();
        server_b.join().unwrap().unwrap();
        alarms
    });

    for &id in &STREAM_IDS {
        assert_eq!(
            per_stream(&cluster_alarms, id),
            per_stream(&reference, id),
            "stream {id}: the refused migration must be invisible in the alarms"
        );
    }
}

/// The full federation story from the issue: streams live across two
/// nodes, node A checkpoints into a registry and is killed mid-run, a
/// replacement is recovered from the checkpoint, the cluster client is
/// rebuilt and re-seeded — and every per-stream alarm sequence is exactly
/// the single-process one.
#[test]
fn killing_node_a_and_recovering_from_its_checkpoint_continues_every_stream() {
    let root = tmp_root("kill-recover");
    let clf = Ects::fit(&train_set(), &EctsConfig::default());
    let reference = reference_alarms(&clf);
    let registry = ModelRegistry::open(&root).unwrap();
    let batches = traffic();
    let mut alarms = Vec::new();

    // Deterministic placement (ring order depends on ephemeral ports):
    // odd-index streams on node A, even-index streams on node B.
    let on_a = [STREAM_IDS[1], STREAM_IDS[3]];
    let on_b = [STREAM_IDS[0], STREAM_IDS[2], STREAM_IDS[4]];

    // Phase 1: two live nodes; node A owns the registry. Drive the first 70
    // rounds (round 70 is inside stream 99_991's event window, so the crash
    // lands mid-event), checkpoint A over the wire, then kill it.
    let node_a = Node::new(
        Runtime::new(&clf, serve_cfg()).unwrap(),
        NodeConfig::default(),
    )
    .with_registry(ModelRegistry::open(&root).unwrap());
    let node_b = Node::new(
        Runtime::new(&clf, serve_cfg()).unwrap(),
        NodeConfig::default(),
    );
    let (la, ea) = bind_loopback();
    let (lb, eb) = bind_loopback();
    std::thread::scope(|s| {
        let guard_a = StopGuard(&node_a);
        let guard_b = StopGuard(&node_b);
        let server_a = s.spawn(|| node_a.serve(la));
        let server_b = s.spawn(|| node_b.serve(lb));

        let mut cluster = Cluster::connect(&[ea.clone(), eb.clone()]).unwrap();
        for &id in &STREAM_IDS {
            cluster.open_stream(id).unwrap();
        }
        cluster.migrate(&on_a, 0).unwrap();
        cluster.migrate(&on_b, 1).unwrap();
        assert_eq!(cluster.client(0).stream_count().unwrap(), on_a.len());
        assert_eq!(cluster.client(1).stream_count().unwrap(), on_b.len());

        for (t, batch) in batches[..70].iter().enumerate() {
            cluster.ingest(batch).unwrap();
            if (t + 1) % 8 == 0 {
                alarms.extend(cluster.drain().unwrap());
            }
        }
        alarms.extend(cluster.drain().unwrap());
        let saved = cluster.client(0).checkpoint().unwrap();
        assert!(saved > 0, "A's checkpoint must write state bytes");

        // Kill node A. Node B's monitors live on in its runtime — stopping
        // its accept loop below just releases the scope; `into_runtime`
        // carries its state into phase 2 unchanged.
        node_a.stop();
        server_a.join().unwrap().unwrap();
        drop(guard_a);
        drop(guard_b);
        server_b.join().unwrap().unwrap();
    });

    // Phase 2: recover A's replacement purely from the registry — model
    // bytes and per-stream checkpoints both — while B continues with the
    // state it already held (it never crashed, so it never reloads).
    let restored: Ects = registry.load("ects").unwrap();
    let rt_a2 = Runtime::recover(&restored, &root, "ects").unwrap();
    assert_eq!(rt_a2.stream_count(), on_a.len());
    let node_a2 = Node::new(rt_a2, NodeConfig::default());
    let node_b2 = Node::new(node_b.into_runtime(), NodeConfig::default());
    let (la2, ea2) = bind_loopback();
    let (lb2, eb2) = bind_loopback();
    std::thread::scope(|s| {
        let guard_a = StopGuard(&node_a2);
        let guard_b = StopGuard(&node_b2);
        let server_a = s.spawn(|| node_a2.serve(la2));
        let server_b = s.spawn(|| node_b2.serve(lb2));

        // A rebuilt client has a fresh ring over new endpoints; re-seed it
        // with where the streams actually live before any ingest, or the
        // ring would auto-open fresh monitors on the wrong node.
        let mut cluster = Cluster::connect(&[ea2.clone(), eb2.clone()]).unwrap();
        for &id in &on_a {
            cluster.router_mut().pin(id, 0);
        }
        for &id in &on_b {
            cluster.router_mut().pin(id, 1);
        }

        for (t, batch) in batches[70..].iter().enumerate() {
            cluster.ingest(batch).unwrap();
            if (t + 1) % 8 == 0 {
                alarms.extend(cluster.drain().unwrap());
            }
        }
        alarms.extend(cluster.drain().unwrap());

        drop(guard_a);
        drop(guard_b);
        server_a.join().unwrap().unwrap();
        server_b.join().unwrap().unwrap();
    });

    for &id in &STREAM_IDS {
        assert_eq!(
            per_stream(&alarms, id),
            per_stream(&reference, id),
            "stream {id}: the crash, recovery, and re-seeded client must be \
             invisible in the alarms"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
