//! Per-layer replays: a workload's traffic through one layer's public calls
//! at a time, timed in blocks (single sub-µs calls are too short to time
//! one by one).
//!
//! Layers nest: a runtime drain runs monitor pushes, and a monitor push
//! runs one session push per live anchor. Each replay measures its layer
//! *with* everything below it; the ledger subtracts to get exclusive costs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use etsc_early::{DecisionSession, EarlyClassifier, SessionNorm};
use etsc_net::wire::decode_frame;
use etsc_net::{ClusterRouter, Message, MAX_FRAME_PAYLOAD};
use etsc_persist::Persist;
use etsc_serve::{Record, Runtime};
use etsc_stream::{Alarm, StreamMonitor, StreamMonitorConfig};

use crate::drive::Maintenance;
use crate::measure::ns;
use crate::traffic::Traffic;
use crate::workload::Spec;

/// `StreamMonitor::push` over bare monitors, in the runtime's record order.
pub struct StreamLayer {
    pub push_ns: f64,
    pub live_anchors_max: usize,
    pub pooled_sessions_max: usize,
    pub matches_reference: bool,
}

pub fn replay_monitors<C: EarlyClassifier>(
    clf: &C,
    cfg: StreamMonitorConfig,
    traffic: &Traffic,
    batch: usize,
    reference: &[Vec<Alarm>],
) -> StreamLayer {
    let mut monitors: Vec<StreamMonitor<'_, C>> = (0..traffic.streams())
        .map(|_| StreamMonitor::new(clf, cfg))
        .collect();
    let mut alarms: Vec<Vec<Alarm>> = vec![Vec::new(); traffic.streams()];
    let mut busy = Duration::ZERO;
    let (mut live_max, mut pooled_max) = (0, 0);
    for chunk in traffic.records.chunks(batch) {
        let t0 = Instant::now();
        for r in chunk {
            if let Some(a) = monitors[r.stream as usize].push(r.value) {
                alarms[r.stream as usize].push(a);
            }
        }
        busy += t0.elapsed();
        for r in chunk {
            let m = &monitors[r.stream as usize];
            live_max = live_max.max(m.live_anchors());
            pooled_max = pooled_max.max(m.pooled_sessions());
        }
    }
    StreamLayer {
        push_ns: ns(busy) / traffic.records.len() as f64,
        live_anchors_max: live_max,
        pooled_sessions_max: pooled_max,
        matches_reference: alarms == reference,
    }
}

/// Every anchor session the monitors open over the workload's streams.
pub struct Schedule {
    /// Per stream, in retirement order.
    anchors: Vec<Vec<Anchor>>,
    pub pushes_per_record: f64,
    /// Committed sessions over sessions opened.
    pub commit_ratio: f64,
    /// The schedule reproduced the monitors' alarms exactly, so replaying
    /// it pushes what the monitors push.
    pub matches_reference: bool,
}

pub fn schedule<C: EarlyClassifier>(
    clf: &C,
    cfg: StreamMonitorConfig,
    traffic: &Traffic,
    reference: &[Vec<Alarm>],
) -> Schedule {
    let mut matches = true;
    let anchors: Vec<Vec<Anchor>> = traffic
        .series
        .iter()
        .zip(reference)
        .map(|(xs, expected)| {
            let (anchors, alarms) = anchor_schedule(clf, cfg, xs);
            matches &= alarms == *expected;
            anchors
        })
        .collect();
    let all = || anchors.iter().flatten();
    let pushes: usize = all().map(|a| a.pushes).sum();
    let opened = all().count();
    let committed = all().filter(|a| a.committed).count();
    Schedule {
        pushes_per_record: pushes as f64 / traffic.records.len() as f64,
        commit_ratio: committed as f64 / opened.max(1) as f64,
        matches_reference: matches,
        anchors,
    }
}

/// ns per `DecisionSession::push`: every scheduled anchor replayed through
/// one bare (reset and reused) session over exactly the samples the
/// monitor pushes into it.
pub fn time_sessions<C: EarlyClassifier>(
    clf: &C,
    cfg: StreamMonitorConfig,
    traffic: &Traffic,
    schedule: &Schedule,
) -> f64 {
    let mut session = clf.session(cfg.norm.into());
    let mut pushes = 0usize;
    let mut busy = Duration::ZERO;
    for (xs, anchors) in traffic.series.iter().zip(&schedule.anchors) {
        let t0 = Instant::now();
        for a in anchors {
            session.reset();
            for &x in &xs[a.start..a.start + a.pushes] {
                black_box(session.push(x));
            }
        }
        busy += t0.elapsed();
        pushes += anchors.iter().map(|a| a.pushes).sum::<usize>();
    }
    ns(busy) / pushes.max(1) as f64
}

/// One anchor's session: where it opened, how many samples it was pushed
/// before it retired, and whether it committed.
struct Anchor {
    start: usize,
    pushes: usize,
    committed: bool,
}

/// The anchors a monitor with `cfg` opens over `xs`, and the alarms it
/// raises, rebuilt from the documented monitor semantics: an anchor every
/// `stride` samples, every live session pushed each sample, the oldest
/// committed anchor fires outside the refractory period, and committed
/// anchors inside it retire silently.
fn anchor_schedule<C: EarlyClassifier>(
    clf: &C,
    cfg: StreamMonitorConfig,
    xs: &[f64],
) -> (Vec<Anchor>, Vec<Alarm>) {
    let norm: SessionNorm = cfg.norm.into();
    let max_len = clf.series_len();
    let mut live: Vec<(Anchor, Box<dyn DecisionSession + '_>)> = Vec::new();
    let mut pool: Vec<Box<dyn DecisionSession + '_>> = Vec::new();
    let mut done = Vec::new();
    let mut alarms = Vec::new();
    let mut quiet_until = 0;
    for (t, &x) in xs.iter().enumerate() {
        if t % cfg.anchor_stride == 0 {
            let session = match pool.pop() {
                Some(mut s) => {
                    s.reset();
                    s
                }
                None => clf.session(norm),
            };
            let anchor = Anchor {
                start: t,
                pushes: 0,
                committed: false,
            };
            live.push((anchor, session));
        }
        let quiet = t < quiet_until;
        for (a, s) in &mut live {
            s.push(x);
            a.pushes += 1;
        }
        let fired = if quiet {
            None
        } else {
            live.iter().find_map(|(a, s)| {
                s.decision()
                    .label_confidence()
                    .map(|(label, confidence)| Alarm {
                        time: t,
                        anchor: a.start,
                        label,
                        confidence,
                    })
            })
        };
        let mut i = 0;
        while i < live.len() {
            let (a, s) = &live[i];
            let committed = s.decision().is_predict();
            let retire = if committed {
                quiet || fired.is_some_and(|f| f.anchor == a.start)
            } else {
                s.len() >= max_len
            };
            if retire {
                let (mut a, s) = live.remove(i);
                a.committed = committed;
                done.push(a);
                pool.push(s);
            } else {
                i += 1;
            }
        }
        if let Some(alarm) = fired {
            quiet_until = t + 1 + cfg.refractory;
            alarms.push(alarm);
        }
    }
    for (mut a, s) in live {
        a.committed = s.decision().is_predict();
        done.push(a);
    }
    (done, alarms)
}

/// Wire costs of the workload's batches as the 2-node cluster frames them:
/// one `IngestBatch` per node-bound sub-batch.
pub struct WireLayer {
    pub encode_ns_per_record: f64,
    pub decode_ns_per_record: f64,
    pub bytes_per_record: f64,
    pub route_ns_per_record: f64,
    pub frames: u64,
    /// Frames that did not decode back to the message encoded.
    pub bad_frames: u64,
}

pub fn replay_wire(traffic: &Traffic, batch: usize, router: &ClusterRouter) -> WireLayer {
    let records = &traffic.records;
    let t0 = Instant::now();
    let mut checksum = 0usize;
    for r in records {
        checksum = checksum.wrapping_add(router.route(black_box(r.stream)));
    }
    let route = t0.elapsed();
    black_box(checksum);

    let nodes = router.endpoints().len();
    let (mut encode, mut decode) = (Duration::ZERO, Duration::ZERO);
    let (mut bytes, mut frames, mut bad) = (0usize, 0u64, 0u64);
    for chunk in records.chunks(batch) {
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); nodes];
        for r in chunk {
            parts[router.route(r.stream)].push(*r);
        }
        for part in parts.into_iter().filter(|p| !p.is_empty()) {
            let msg = Message::IngestBatch {
                client: 0,
                seq: 0,
                records: part,
                ctx: None,
            };
            let t0 = Instant::now();
            let wire = black_box(msg.to_frame_bytes());
            let t1 = Instant::now();
            let back = decode_frame(&wire, MAX_FRAME_PAYLOAD).and_then(|f| Message::decode(&f));
            decode += t1.elapsed();
            encode += t1 - t0;
            bytes += wire.len();
            frames += 1;
            if !matches!(back, Ok(ref m) if *m == msg) {
                bad += 1;
            }
        }
    }
    let n = records.len() as f64;
    WireLayer {
        encode_ns_per_record: ns(encode) / n,
        decode_ns_per_record: ns(decode) / n,
        bytes_per_record: bytes as f64 / n,
        route_ns_per_record: ns(route) / n,
        frames,
        bad_frames: bad,
    }
}

/// The runtime work behind a cluster's calls, in process: the same
/// sub-batches into one single-shard, single-worker runtime per node.
pub struct ServeLayer {
    pub ingest_ns: f64,
    pub drain_ns: f64,
    pub queue_high_water: u64,
    /// One checkpoint and one rebalance of the first runtime's end state.
    pub maint: Maintenance,
}

pub fn replay_partitioned<C: EarlyClassifier + Persist>(
    clf: &C,
    spec: &Spec,
    records: &[Record],
    router: &ClusterRouter,
    registry: &etsc_persist::ModelRegistry,
) -> ServeLayer {
    let nodes = router.endpoints().len();
    let cfg = spec.runtime(clf.series_len(), 1, 1);
    let mut runtimes: Vec<Runtime<'_, C>> = (0..nodes)
        .map(|_| Runtime::new(clf, cfg.clone()).expect("workload runtime configuration is valid"))
        .collect();
    let (mut ingest, mut drain) = (Duration::ZERO, Duration::ZERO);
    let mut parts: Vec<Vec<Record>> = vec![Vec::new(); nodes];
    for (b, chunk) in records.chunks(spec.batch).enumerate() {
        for part in &mut parts {
            part.clear();
        }
        for r in chunk {
            parts[router.route(r.stream)].push(*r);
        }
        let t0 = Instant::now();
        for (rt, part) in runtimes.iter_mut().zip(&parts) {
            if !part.is_empty() {
                rt.ingest(part).expect("block-policy ingest does not fail");
            }
        }
        ingest += t0.elapsed();
        if (b + 1) % spec.drain_every == 0 {
            let t0 = Instant::now();
            for rt in &mut runtimes {
                black_box(rt.drain());
            }
            drain += t0.elapsed();
        }
    }
    let t0 = Instant::now();
    for rt in &mut runtimes {
        black_box(rt.drain());
    }
    drain += t0.elapsed();
    let queue_high_water = runtimes
        .iter()
        .map(|rt| rt.stats().queue_depth_high_water)
        .max()
        .unwrap_or(0);
    let mut maint = Maintenance::default();
    if let Some(rt) = runtimes.first_mut() {
        maint.checkpoint(rt, registry);
        maint.rebalance(rt, 2);
    }
    ServeLayer {
        ingest_ns: ns(ingest),
        drain_ns: ns(drain),
        queue_high_water,
        maint,
    }
}
