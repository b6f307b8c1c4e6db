//! End-to-end tests of the telemetry plane: instrumentation must be
//! **invisible in the alarms** and **visible in the scrape**.
//!
//! The acceptance bar for `etsc_core::metrics` wiring: the same synthetic
//! multi-stream traffic produces bit-identical per-stream alarm sequences
//! whether the runtime clock is monotonic, manual, or disabled — timing
//! reads never touch alarm bytes — while a live node scraped over the wire
//! exposes well-formed Prometheus histogram families for every latency
//! surface (drain cycles, sampled pushes, checkpoint pauses and sizes,
//! request service times, client RTTs).

use etsc::core::metrics::Clock;
use etsc::core::UcrDataset;
use etsc::early::ects::{Ects, EctsConfig};
use etsc::net::{ClientConfig, Endpoint, Listener, NetClient, Node, NodeConfig};
use etsc::persist::ModelRegistry;
use etsc::serve::{Record, Runtime, RuntimeConfig, StreamAlarm};
use etsc::stream::{StreamMonitorConfig, StreamNorm};
use std::path::PathBuf;

/// Same two-class problem as the serve/net end-to-end tests.
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

/// Drive all traffic through an in-process runtime under the given clock,
/// checkpointing once mid-run and rebalancing once so every latency
/// histogram has a chance to observe something.
fn run_with_clock<'a>(
    clf: &'a Ects,
    clock: Clock,
    registry: &ModelRegistry,
) -> (Vec<StreamAlarm>, Runtime<'a, Ects>) {
    let mut rt = Runtime::new(clf, serve_cfg()).unwrap();
    rt.set_clock(clock);
    let mut alarms = Vec::new();
    for (t, batch) in traffic().iter().enumerate() {
        rt.ingest(batch).unwrap();
        if (t + 1) % 8 == 0 {
            alarms.extend(rt.drain());
        }
        if t == 79 {
            rt.checkpoint(registry).unwrap();
            rt.rebalance(3).unwrap();
        }
    }
    alarms.extend(rt.drain());
    (alarms, rt)
}

fn tmp_root(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("etsc-metrics-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// The tentpole invariant, end to end: monotonic, manual, and disabled
/// clocks produce bit-identical alarm sequences over the same traffic —
/// recording latencies never influences routing, draining, or monitor
/// decisions — while only the enabled clocks populate the histograms.
#[test]
fn alarm_sequences_are_clock_mode_invariant() {
    let root = tmp_root("clock-modes");
    let clf = Ects::fit(&train_set(), &EctsConfig::default());
    let registry = ModelRegistry::open(&root).unwrap();

    let (reference, rt_mono) = run_with_clock(&clf, Clock::monotonic(), &registry);
    assert!(!reference.is_empty(), "the planted events must alarm");

    let manual = Clock::manual();
    manual.advance_ns(1); // a nonzero origin, stepped never again
    let (under_manual, _) = run_with_clock(&clf, manual, &registry);
    assert_eq!(
        under_manual, reference,
        "manual clock must not change alarms"
    );

    let (silent, rt_off) = run_with_clock(&clf, Clock::disabled(), &registry);
    assert_eq!(silent, reference, "disabled clock must not change alarms");

    // The monotonic run measured real work; the disabled run measured none.
    let on = rt_mono.stats();
    assert!(on.drain_cycle_ns.count() >= 1);
    assert!(on.push_ns.count() >= 1, "1-in-64 sampling must still fire");
    assert_eq!(on.checkpoint_pause_ns.count(), 1);
    assert!(on.migration_ns.count() >= 1);
    let off = rt_off.stats();
    assert_eq!(off.drain_cycle_ns.count(), 0);
    assert_eq!(off.push_ns.count(), 0);
    assert_eq!(off.checkpoint_pause_ns.count(), 0);
    assert_eq!(off.migration_ns.count(), 0);
    // Size telemetry is clock-independent: both runs logged the envelope.
    assert_eq!(off.checkpoint_bytes.count(), 1);

    let _ = std::fs::remove_dir_all(&root);
}

/// Stops the node when dropped, so a panicking test body cannot leave the
/// accept loop spinning and hang the scope's implicit join.
struct StopGuard<'n, 'a>(&'n Node<'a, Ects>);

impl Drop for StopGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Assert `text` carries a well-formed Prometheus histogram family `name`:
/// at least one `_bucket` line with an `le` label, a final cumulative
/// `le="+Inf"` bucket, and `_sum`/`_count` lines whose count equals the
/// +Inf bucket's value.
fn assert_histogram_family(text: &str, name: &str) {
    assert!(
        text.contains(&format!("# TYPE {name} histogram")),
        "{name}: missing TYPE line"
    );
    assert!(
        text.contains(&format!("{name}_bucket{{")),
        "{name}: missing bucket lines"
    );
    let inf_values: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with(&format!("{name}_bucket{{")) && l.contains("le=\"+Inf\""))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .collect();
    assert!(!inf_values.is_empty(), "{name}: missing le=\"+Inf\" bucket");
    let counts: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with(&format!("{name}_count")))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .collect();
    assert_eq!(
        inf_values, counts,
        "{name}: every +Inf bucket must equal its series' _count"
    );
    assert!(
        counts.iter().any(|&c| c > 0),
        "{name}: the family must have observed something"
    );
    assert!(
        text.lines().any(|l| l.starts_with(&format!("{name}_sum"))),
        "{name}: missing _sum line"
    );
}

/// A live node scraped over the wire exposes the full histogram plane —
/// serve latencies, checkpoint pause and envelope size, and node-side
/// request service times — while the driving client accumulates RTTs
/// per message kind; and the over-the-wire alarms still match the
/// in-process reference exactly.
#[test]
fn a_live_node_exposes_the_full_histogram_plane() {
    let root = tmp_root("scrape");
    let clf = Ects::fit(&train_set(), &EctsConfig::default());
    let registry = ModelRegistry::open(&root).unwrap();
    let (reference, _) = run_with_clock(&clf, Clock::disabled(), &registry);

    let node = Node::new(
        Runtime::new(&clf, serve_cfg()).unwrap(),
        NodeConfig::default(),
    )
    .with_registry(ModelRegistry::open(&root).unwrap());
    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
    let endpoint = listener.local_endpoint().unwrap();

    let (scrape, alarms, rtt, backoff) = std::thread::scope(|s| {
        let guard = StopGuard(&node);
        let server = s.spawn(|| node.serve(listener));
        let mut client = NetClient::connect_with(&endpoint, ClientConfig::default()).unwrap();
        let mut alarms = Vec::new();
        for (t, batch) in traffic().iter().enumerate() {
            client.ingest(batch).unwrap();
            if (t + 1) % 8 == 0 {
                alarms.extend(client.drain().unwrap());
            }
            if t == 79 {
                assert!(client.checkpoint().unwrap() > 0);
            }
        }
        alarms.extend(client.drain().unwrap());
        let scrape = client.stats_prometheus().unwrap();
        let rtt = client.rtt_timings().snapshots();
        let backoff = client.backoff_snapshot();
        drop(guard);
        server.join().unwrap().unwrap();
        (scrape, alarms, rtt, backoff)
    });

    assert_eq!(
        alarms, reference,
        "instrumented wire path must reproduce the reference alarms"
    );

    // The scrape must expose at least four well-formed histogram families.
    for family in [
        "etsc_serve_drain_cycle_ns",
        "etsc_serve_push_ns",
        "etsc_serve_checkpoint_pause_ns",
        "etsc_serve_checkpoint_bytes",
        "etsc_net_request_ns",
    ] {
        assert_histogram_family(&scrape, family);
    }
    // Request timings are labelled per message kind; the drive above used
    // at least ingest, drain, checkpoint, and stats.
    for kind in ["IngestBatch", "Drain", "Checkpoint"] {
        assert!(
            scrape.contains(&format!("msg=\"{kind}\"")),
            "etsc_net_request_ns must carry a series for {kind}"
        );
    }

    // Client-side telemetry observed the same conversation: RTTs for the
    // kinds above, and no retries (healthy loopback) means no backoff.
    let rtt_kinds: Vec<&str> = rtt
        .iter()
        .filter(|(_, s)| s.count() > 0)
        .map(|(k, _)| *k)
        .collect();
    for kind in ["IngestBatch", "Drain", "Checkpoint", "Stats"] {
        assert!(rtt_kinds.contains(&kind), "client RTT must cover {kind}");
    }
    assert_eq!(backoff.count(), 0, "no retries expected on loopback");

    let _ = std::fs::remove_dir_all(&root);
}
