//! The traced run: rounds that time every public call, interleaved with
//! untraced rounds and with the layer replays, and the ledger built from
//! them. Every runtime drains on one worker, so the exclusive layer times
//! (CPU times) can add up to the loop's wall time.

use etsc_early::EarlyClassifier;
use etsc_net::ClusterRouter;
use etsc_persist::{ModelRegistry, Persist};
use etsc_stream::Alarm;

use crate::drive::{self, Extras, Maintenance, NetCalls, Round};
use crate::layers::{self, Schedule, StreamLayer};
use crate::ledger::{Ledger, Row};
use crate::measure::{beyond, median, ns, percentile};
use crate::report::Outcome;
use crate::traffic::Traffic;
use crate::workload::{Spec, Transport};

/// An in-process workload sends this share (1/N) of its traffic through
/// the loopback cluster for the net layer metrics.
const NET_PASS_SHARE: usize = 8;

#[derive(Default)]
pub struct Trace {
    rounds: Vec<Round>,
    net_calls: NetCalls,
    router: Option<ClusterRouter>,
    end_state: Maintenance,
    monitors: Vec<StreamLayer>,
    session_ns: Vec<f64>,
}

impl Trace {
    pub fn add_round(&mut self, round: Round, extras: Extras) {
        if let Some((calls, router)) = extras.net {
            self.net_calls.ingest_us.extend(calls.ingest_us);
            self.net_calls.drain_us.extend(calls.drain_us);
            self.net_calls.ping_us.extend(calls.ping_us);
            self.router = Some(router);
        }
        self.end_state.add(&extras.end_state);
        self.rounds.push(round);
    }

    /// One pass of each timed layer replay.
    pub fn replay<C: EarlyClassifier>(
        &mut self,
        clf: &C,
        spec: &Spec,
        traffic: &Traffic,
        reference: &[Vec<Alarm>],
        schedule: &Schedule,
        out: &mut Outcome,
    ) {
        let cfg = spec.monitor(clf.series_len());
        let monitors = layers::replay_monitors(clf, cfg, traffic, spec.batch, reference);
        out.check(1, u64::from(!monitors.matches_reference), || {
            "bare StreamMonitors disagree with the serial reference".into()
        });
        self.monitors.push(monitors);
        self.session_ns
            .push(layers::time_sessions(clf, cfg, traffic, schedule));
    }

    /// Per-layer metrics and the ledger.
    #[allow(clippy::too_many_arguments)]
    pub fn report<C: EarlyClassifier + Persist>(
        self,
        clf: &C,
        spec: &Spec,
        traffic: &Traffic,
        reference: &[Vec<Alarm>],
        plain: &[Round],
        schedule: &Schedule,
        registry: &ModelRegistry,
        out: &mut Outcome,
    ) {
        let traced = &self.rounds;
        let traced_records: f64 = traced.iter().map(|r| r.records as f64).sum();
        let per_record =
            |f: &dyn Fn(&Round) -> f64| traced.iter().map(f).sum::<f64>() / traced_records;
        let calls_ns = |r: &Round| r.ingest_ns.iter().sum::<f64>() + r.drain_ns.iter().sum::<f64>();
        let e2e = per_record(&|r| ns(r.wall));

        let stream_ns = median(&self.monitors.iter().map(|m| m.push_ns).collect::<Vec<_>>());
        let session_ns = median(&self.session_ns);
        let early = session_ns * schedule.pushes_per_record;
        if !schedule.matches_reference {
            eprintln!(
                "perfbench: warning: the anchor schedule does not reproduce the monitors' alarms; \
                 early.* may not match the monitors' pushes"
            );
        }

        // The runtime work, and the net pass: the loopback cluster over
        // this workload's batches and the same sub-batches in process.
        let mut net_calls = self.net_calls;
        let (serve_ingest, serve_drain, queue_high_water, maint, net_nested, net_self, router) =
            match spec.transport {
                Transport::InProcess => {
                    let cycle = spec.batch * spec.drain_every;
                    let n = (traffic.records.len() / NET_PASS_SHARE)
                        .div_ceil(cycle)
                        .saturating_mul(cycle)
                        .min(traffic.records.len());
                    let prefix = &traffic.records[..n];
                    let over_loopback = Spec {
                        transport: Transport::Loopback,
                        ..spec.clone()
                    };
                    let (round, extras) =
                        drive::round(clf, &over_loopback, prefix, 1, true, registry);
                    out.check_round(&round, &prefix_reference(reference, n / traffic.streams()));
                    let (calls, router) = extras
                        .net
                        .expect("a traced cluster round reports its calls");
                    net_calls = calls;
                    let serve = layers::replay_partitioned(clf, spec, prefix, &router, registry);
                    let net_self = (calls_ns(&round) - serve.ingest_ns - serve.drain_ns) / n as f64;
                    let in_loop = spec.checkpoint_every.is_some() || spec.rebalance_to.is_some();
                    let mut maint = Maintenance::default();
                    for r in traced {
                        maint.add(&r.maint);
                    }
                    (
                        per_record(&|r| r.ingest_ns.iter().sum()),
                        per_record(&|r| r.drain_ns.iter().sum()),
                        traced.iter().map(|r| r.queue_high_water).max().unwrap_or(0),
                        if in_loop { maint } else { self.end_state },
                        None,
                        net_self,
                        router,
                    )
                }
                Transport::Loopback => {
                    let router = self.router.expect("a traced cluster round ran");
                    let records = traffic.records.len() as f64;
                    let serve =
                        layers::replay_partitioned(clf, spec, &traffic.records, &router, registry);
                    let net_nested = per_record(&calls_ns);
                    let serve_nested = (serve.ingest_ns + serve.drain_ns) / records;
                    (
                        serve.ingest_ns / records,
                        serve.drain_ns / records,
                        serve.queue_high_water,
                        serve.maint,
                        Some(net_nested),
                        net_nested - serve_nested,
                        router,
                    )
                }
            };
        let wire = layers::replay_wire(traffic, spec.batch, &router);
        out.check(wire.frames, wire.bad_frames, || {
            format!(
                "{} wire frames did not decode to what was encoded",
                wire.bad_frames
            )
        });

        let serve_nested = serve_ingest + serve_drain;
        let mut rows = vec![
            Row {
                layer: "early",
                nested: early,
                exclusive: early,
            },
            Row {
                layer: "stream",
                nested: stream_ns,
                exclusive: stream_ns - early,
            },
            Row {
                layer: "serve",
                nested: serve_nested,
                exclusive: serve_nested - stream_ns,
            },
        ];
        match net_nested {
            Some(nested) => rows.push(Row {
                layer: "net",
                nested,
                exclusive: net_self,
            }),
            None => {
                // Maintenance inside the loop (zero where the workload does
                // none there).
                let rebalance = per_record(&|r| r.maint.rebalance_ns);
                let checkpoint = per_record(&|r| r.maint.checkpoint_ns);
                rows.push(Row {
                    layer: "serve.rebalance",
                    nested: rebalance,
                    exclusive: rebalance,
                });
                rows.push(Row {
                    layer: "persist",
                    nested: checkpoint,
                    exclusive: checkpoint,
                });
            }
        }
        let ledger = Ledger { rows, e2e };

        let rate = |rounds: &[Round]| {
            median(
                &rounds
                    .iter()
                    .map(|r| r.records as f64 / r.wall.as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        let (plain_rate, traced_rate) = (rate(plain), rate(traced));
        let max =
            |f: fn(&StreamLayer) -> usize| self.monitors.iter().map(f).max().unwrap_or(0) as f64;

        out.metric("early.push_ns", session_ns, "ns");
        out.metric(
            "early.pushes_per_record",
            schedule.pushes_per_record,
            "count",
        );
        out.metric("early.commit_ratio", schedule.commit_ratio, "ratio");
        out.metric("stream.push_ns", stream_ns, "ns");
        out.metric("stream.self_ns_per_record", stream_ns - early, "ns");
        out.metric(
            "stream.live_anchors_max",
            max(|m| m.live_anchors_max),
            "count",
        );
        out.metric(
            "stream.pooled_sessions_max",
            max(|m| m.pooled_sessions_max),
            "count",
        );
        out.metric("serve.ingest_ns_per_record", serve_ingest, "ns");
        out.metric("serve.drain_ns_per_record", serve_drain, "ns");
        out.metric("serve.self_ns_per_record", serve_nested - stream_ns, "ns");
        out.metric("serve.queue_high_water", queue_high_water as f64, "count");
        out.metric(
            "serve.rebalance_ns_per_stream",
            maint.rebalance_ns / maint.rebalanced_streams,
            "ns",
        );
        out.metric(
            "persist.checkpoint_ns_per_stream",
            maint.checkpoint_ns / maint.checkpoint_streams,
            "ns",
        );
        out.metric(
            "persist.checkpoint_bytes_per_stream",
            maint.checkpoint_bytes / maint.checkpoint_streams,
            "B",
        );
        out.metric("net.encode_ns_per_record", wire.encode_ns_per_record, "ns");
        out.metric("net.decode_ns_per_record", wire.decode_ns_per_record, "ns");
        out.metric("net.bytes_per_record", wire.bytes_per_record, "B");
        out.metric("net.route_ns_per_record", wire.route_ns_per_record, "ns");
        out.metric(
            "net.ingest_call_p50_us",
            percentile(&net_calls.ingest_us, 0.50),
            "us",
        );
        out.metric(
            "net.ingest_call_p99_us",
            percentile(&net_calls.ingest_us, 0.99),
            "us",
        );
        out.metric(
            "net.drain_call_p50_us",
            percentile(&net_calls.drain_us, 0.50),
            "us",
        );
        out.metric(
            "net.ping_rtt_p50_us",
            percentile(&net_calls.ping_us, 0.50),
            "us",
        );
        out.metric("net.self_ns_per_record", net_self, "ns");
        out.metric("ledger.unaccounted_pct", ledger.unaccounted_pct(), "%");
        out.metric(
            "bench.timing_overhead_pct",
            (plain_rate - traced_rate) / plain_rate * 100.0,
            "%",
        );

        let ingest_calls = net_calls.ingest_us.len();
        println!(
            "# net calls: {ingest_calls} ingest ({} beyond p99), {} drain, {} ping",
            beyond(ingest_calls, 0.99),
            net_calls.drain_us.len(),
            net_calls.ping_us.len()
        );
        println!(
            "# ledger: {} ({} traced rounds, {} layer replays, one drain worker per runtime)",
            spec.name,
            traced.len(),
            self.monitors.len()
        );
        for line in ledger.render().lines() {
            println!("#   {line}");
        }
        println!(
            "# target layers {} hold {:.1}% of the exclusive time",
            spec.target.join("+"),
            ledger.share_pct(spec.target)
        );
        if spec.transport == Transport::InProcess && ledger.unaccounted_pct().abs() > 10.0 {
            eprintln!(
                "perfbench: warning: the ledger leaves {:.1}% of the traced end-to-end time unaccounted",
                ledger.unaccounted_pct()
            );
        }
    }
}

/// The reference alarms of each stream's first `samples` samples (alarms
/// depend only on samples already pushed).
fn prefix_reference(reference: &[Vec<Alarm>], samples: usize) -> Vec<Vec<Alarm>> {
    reference
        .iter()
        .map(|alarms| {
            alarms
                .iter()
                .filter(|a| a.time < samples)
                .copied()
                .collect()
        })
        .collect()
}
