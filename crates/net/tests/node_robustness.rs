//! Robustness tests against a *live* node: malformed bytes, protocol
//! violations, connection limits, and overload must all surface as typed
//! replies — the node never panics, never hangs, and never stops serving
//! well-behaved clients.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use etsc_early::{Decision, DecisionSession, EarlyClassifier, SessionNorm};
use etsc_net::wire::{encode_frame, read_frame, Message, ReadOutcome, WIRE_MAGIC};
use etsc_net::{Endpoint, Listener, NetClient, Node, NodeConfig, WireError};
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

/// Bind a node on a fresh loopback port and run `body` with its endpoint
/// while it serves; the node is stopped and joined before returning.
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

/// Read one reply frame from a raw socket, with a hard deadline so a
/// regression can fail instead of hanging the suite.
#[expect(
    clippy::disallowed_methods,
    reason = "determinism: a wall-clock test deadline; the reply bytes never read it"
)]
fn read_reply(stream: &mut TcpStream) -> Message {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let outcome = read_frame(stream, 1 << 20, &mut || {
        std::time::Instant::now() >= deadline
    })
    .expect("reply must be a well-formed frame");
    match outcome {
        ReadOutcome::Frame(f) => Message::decode(&f).expect("reply must decode"),
        other => panic!("expected a reply frame, got {other:?}"),
    }
}

fn raw_connect(endpoint: &Endpoint) -> TcpStream {
    match endpoint {
        Endpoint::Tcp(addr) => TcpStream::connect(addr).unwrap(),
        #[cfg(unix)]
        _ => panic!("tests dial TCP endpoints"),
    }
}

#[test]
fn garbage_bytes_get_a_typed_reply_and_the_node_survives() {
    with_node(config(), NodeConfig::default(), |ep, _node| {
        let mut raw = raw_connect(ep);
        raw.write_all(b"this is definitely not an etsc-net frame")
            .unwrap();
        match read_reply(&mut raw) {
            Message::Error(WireError::RemoteMalformed(msg)) => {
                assert!(msg.contains("magic"), "{msg}");
            }
            other => panic!("expected a typed error reply, got {other:?}"),
        }
        // The node must keep serving well-behaved clients afterwards.
        let mut client = NetClient::connect(ep).unwrap();
        assert_eq!(client.ping(7).unwrap(), 7);
    });
}

#[test]
fn mid_frame_disconnect_does_not_kill_the_node() {
    with_node(config(), NodeConfig::default(), |ep, _node| {
        let good = Message::Ping { token: 9 }.to_frame_bytes();
        let mut raw = raw_connect(ep);
        raw.write_all(&good[..good.len() / 2]).unwrap();
        drop(raw); // vanish mid-frame
        let mut client = NetClient::connect(ep).unwrap();
        assert_eq!(client.ping(11).unwrap(), 11);
    });
}

#[test]
fn checksum_corruption_is_reported_not_processed() {
    with_node(config(), NodeConfig::default(), |ep, node| {
        let mut bytes = Message::OpenStream { stream: 5 }.to_frame_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt the checksum itself
        let mut raw = raw_connect(ep);
        raw.write_all(&bytes).unwrap();
        match read_reply(&mut raw) {
            Message::Error(WireError::RemoteMalformed(msg)) => {
                assert!(msg.contains("checksum"), "{msg}");
            }
            other => panic!("expected a checksum error reply, got {other:?}"),
        }
        // The corrupted request must not have been executed.
        assert_eq!(node.with_runtime(|rt| rt.stream_count()), 0);
    });
}

#[test]
fn oversized_length_prefix_is_refused() {
    let node_cfg = NodeConfig {
        max_frame_payload: 1024,
        ..NodeConfig::default()
    };
    with_node(config(), node_cfg, |ep, _node| {
        // Hand-built header declaring a 256 MiB payload; no such bytes
        // follow, and the node must refuse on the declaration alone.
        let mut header = Vec::new();
        header.extend_from_slice(&WIRE_MAGIC);
        header.extend_from_slice(&etsc_net::WIRE_VERSION.to_le_bytes());
        header.push(3); // Drain
        header.extend_from_slice(&(256u32 << 20).to_le_bytes());
        let mut raw = raw_connect(ep);
        raw.write_all(&header).unwrap();
        match read_reply(&mut raw) {
            Message::Error(WireError::RemoteMalformed(msg)) => {
                assert!(msg.contains("1024"), "{msg}");
            }
            other => panic!("expected an oversize error reply, got {other:?}"),
        }
    });
}

#[test]
fn wrong_wire_version_is_refused() {
    with_node(config(), NodeConfig::default(), |ep, _node| {
        let good = Message::Drain.to_frame_bytes();
        let mut bad = good.clone();
        bad[4] = 0xFE; // version low byte
        let mut raw = raw_connect(ep);
        raw.write_all(&bad).unwrap();
        match read_reply(&mut raw) {
            Message::Error(WireError::RemoteMalformed(msg)) => {
                assert!(msg.contains("version"), "{msg}");
            }
            other => panic!("expected a version error reply, got {other:?}"),
        }
    });
}

#[test]
fn unknown_message_type_is_a_typed_reply() {
    with_node(config(), NodeConfig::default(), |ep, _node| {
        let bytes = encode_frame(222, &[]);
        let mut raw = raw_connect(ep);
        raw.write_all(&bytes).unwrap();
        match read_reply(&mut raw) {
            Message::Error(WireError::RemoteMalformed(msg)) => {
                assert!(msg.contains("222"), "{msg}");
            }
            other => panic!("expected an unknown-type reply, got {other:?}"),
        }
    });
}

#[test]
fn a_reply_sent_as_a_request_is_refused() {
    with_node(config(), NodeConfig::default(), |ep, _node| {
        let mut raw = raw_connect(ep);
        Message::Pong { token: 1 }.write_to(&mut raw).unwrap();
        match read_reply(&mut raw) {
            Message::Error(WireError::RemoteMalformed(msg)) => {
                assert!(msg.contains("reply"), "{msg}");
            }
            other => panic!("expected a protocol-violation reply, got {other:?}"),
        }
    });
}

#[test]
fn connection_limit_refuses_with_a_typed_busy_reply() {
    let node_cfg = NodeConfig {
        max_connections: 1,
        ..NodeConfig::default()
    };
    with_node(config(), node_cfg, |ep, _node| {
        let mut first = NetClient::connect(ep).unwrap();
        // The ping guarantees the first connection's handler is live (and
        // counted) before the second arrives.
        assert_eq!(first.ping(1).unwrap(), 1);
        // The refusal is pushed on accept, so read it without sending
        // anything (a send could race the node's close).
        let mut second = raw_connect(ep);
        match read_reply(&mut second) {
            Message::Error(WireError::Busy {
                active,
                limit,
                retry_after_ms,
            }) => {
                assert_eq!((active, limit), (1, 1));
                // The default config advertises how long a slot takes to
                // free up, so refused clients can sleep instead of spin.
                assert!(retry_after_ms > 0);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        // The first client is unaffected.
        assert_eq!(first.ping(3).unwrap(), 3);
    });
}

#[test]
fn queue_full_crosses_the_wire_as_the_same_atomic_typed_error() {
    let cfg = RuntimeConfig {
        shards: 1,
        queue_capacity: 8,
        overflow: OverflowPolicy::Reject,
        ..config()
    };
    with_node(cfg, NodeConfig::default(), |ep, node| {
        let mut client = NetClient::connect(ep).unwrap();
        let big: Vec<Record> = (0..50).map(|i| Record::new(i % 3, 1.0)).collect();
        match client.ingest(&big) {
            Err(WireError::QueueFull {
                shard,
                capacity,
                stream: _,
                retry_after_ms,
            }) => {
                assert_eq!(shard, 0);
                assert_eq!(capacity, 8);
                // Default: no hint — a Reject-policy queue drains only
                // through the caller, so the node cannot predict when.
                assert_eq!(retry_after_ms, 0);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Atomic remotely, exactly like in process: nothing was enqueued.
        assert_eq!(node.with_runtime(|rt| rt.queued()), 0);
        // A batch that fits is accepted on the same connection.
        let small: Vec<Record> = (0..8).map(|i| Record::new(i % 3, 1.0)).collect();
        client.ingest(&small).unwrap();
    });
}

#[test]
fn checkpoint_without_a_registry_is_a_typed_config_error() {
    with_node(config(), NodeConfig::default(), |ep, _node| {
        let mut client = NetClient::connect(ep).unwrap();
        match client.checkpoint() {
            Err(WireError::RemoteBadConfig(msg)) => {
                assert!(msg.contains("registry"), "{msg}");
            }
            other => panic!("expected RemoteBadConfig, got {other:?}"),
        }
    });
}

#[test]
fn stats_request_serves_prometheus_text() {
    with_node(config(), NodeConfig::default(), |ep, _node| {
        let mut client = NetClient::connect(ep).unwrap();
        let batch: Vec<Record> = (0..6).map(|i| Record::new(i, 1.0)).collect();
        for _ in 0..6 {
            client.ingest(&batch).unwrap();
        }
        let alarms = client.drain().unwrap();
        assert!(!alarms.is_empty());
        let text = client.stats_prometheus().unwrap();
        for needle in [
            "# TYPE etsc_serve_ingested_total counter",
            "etsc_serve_ingested_total 36",
            "# TYPE etsc_serve_streams gauge",
            "etsc_serve_streams 6",
            "etsc_serve_shard_streams{shard=\"0\"}",
            "etsc_serve_shard_streams{shard=\"1\"}",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    });
}

#[test]
fn graceful_shutdown_returns_the_final_drain() {
    let clf = detector();
    let runtime = Runtime::new(&clf, config()).unwrap();
    let node = Node::new(runtime, NodeConfig::default());
    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    std::thread::scope(|s| {
        let server = s.spawn(|| node.serve(listener));
        let _guard = StopGuard(&node);
        let mut client = NetClient::connect(&endpoint).unwrap();
        // Enough over-threshold samples to alarm, left undrained.
        for _ in 0..6 {
            client.ingest(&[Record::new(42, 1.0)]).unwrap();
        }
        let final_alarms = client.shutdown().unwrap();
        assert!(
            final_alarms.iter().any(|a| a.stream == 42),
            "shutdown must hand back the in-flight alarms"
        );
        server.join().unwrap().unwrap();
        assert!(node.is_stopped());
    });
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let mut path = std::env::temp_dir();
    path.push(format!("etsc-net-uds-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let clf = detector();
    let runtime = Runtime::new(&clf, config()).unwrap();
    let node = Node::new(runtime, NodeConfig::default());
    let endpoint = Endpoint::Unix(path.clone());
    let listener = Listener::bind(&endpoint).unwrap();
    std::thread::scope(|s| {
        let server = s.spawn(|| node.serve(listener));
        let _guard = StopGuard(&node);
        let mut client = NetClient::connect(&endpoint).unwrap();
        assert!(client.open_stream(3).unwrap());
        for _ in 0..6 {
            client.ingest(&[Record::new(3, 1.0)]).unwrap();
        }
        let alarms = client.drain().unwrap();
        assert!(alarms.iter().any(|a| a.stream == 3));
        assert_eq!(client.stream_count().unwrap(), 1);
        node.stop();
        server.join().unwrap().unwrap();
    });
    let _ = std::fs::remove_file(&path);
}
