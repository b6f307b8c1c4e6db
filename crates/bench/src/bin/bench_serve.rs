//! Machine-readable benchmark of the sharded serving runtime
//! (`etsc-serve`).
//!
//! Over a grid of stream count × shard count, drives interleaved synthetic
//! traffic through a [`Runtime`] in the intended shape — ingest a window of
//! batches, then drain, with a periodic checkpoint every quarter of the
//! run — and reads its measurements off the runtime's **own telemetry**
//! (the `etsc_core::metrics` histograms the production stats path exposes)
//! rather than stopwatching from outside:
//!
//! * **throughput**: records pushed per second, end to end (routing +
//!   queueing + monitor servicing + the periodic checkpoint pauses);
//! * **ingest→drain latency**: p50/p99 of the runtime's drain-cycle
//!   histogram — an alarm is delivered by the drain that processes its
//!   triggering sample, so the drain-cycle distribution bounds
//!   push-to-alarm latency — plus the p99 of the sampled per-push
//!   histogram;
//! * **checkpoint pause**: p99 of the runtime's checkpoint-pause
//!   histogram over the run's periodic checkpoints, and the envelope
//!   size; and
//! * **instrumentation overhead**: an A/B of pushes/s with the runtime
//!   clock disabled vs monotonic — the cost of leaving telemetry on, which
//!   the 1-in-64 push sampling is designed to keep under 5%; and
//! * **tracing overhead**: the same A/B with a *disabled* tracer against a
//!   *recording* one, every batch carrying a wire [`TraceContext`] so the
//!   full span chain (`ShardEnqueue` → `ShardDrain` → `AlarmEmit`) records
//!   in the hot path — held to the same 5% budget.
//!
//! Each overhead is measured over [`PAIRS`] alternating pairs (the arm
//! that runs first alternates, so slow host drift hits both arms alike)
//! and reported as the median and interquartile range of the per-pair
//! percentages. Both arms run the workload the budgets apply to: 64
//! streams on 2 shards, drained on the default worker count, with the
//! periodic checkpoints.
//!
//! Writes `BENCH_serve.json` into the current directory.
//!
//! Run: `cargo run --release -p etsc-bench --bin bench_serve [--quick]`
//! `--quick` shrinks the grid and round count for CI smoke runs.
//!
//! **Caveat:** the numbers are only meaningful relative to each other on
//! the same machine; in particular, shard-count *scaling* requires
//! multiple cores (see the ROADMAP's single-CPU note).

use std::fmt::Write as _;
use std::time::Instant;

use etsc_classifiers::centroid::NearestCentroid;
use etsc_core::metrics::Clock;
use etsc_core::trace::{TraceContext, Tracer, TracerConfig};
use etsc_core::UcrDataset;
use etsc_early::threshold::ProbThreshold;
use etsc_persist::ModelRegistry;
use etsc_serve::{IngestMeta, Record, Runtime, RuntimeConfig};
use etsc_stream::{StreamMonitorConfig, StreamNorm};

/// Training exemplar length — also each monitor's anchor horizon.
const TRAIN_LEN: usize = 128;
/// Anchor stride: bounds live anchors per stream at TRAIN_LEN / stride.
const STRIDE: usize = 16;
/// Batches per ingest/drain cycle.
const CYCLE: usize = 32;
/// Checkpoints cut per run (evenly spaced over the cycles).
const CHECKPOINTS: usize = 4;

fn train_set() -> UcrDataset {
    let data: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            let level = if i % 2 == 0 { -2.0 } else { 2.0 };
            (0..TRAIN_LEN)
                .map(|j| level + 0.08 * (((i * 31 + j * 17) % 13) as f64 - 6.0))
                .collect()
        })
        .collect();
    UcrDataset::new(data, (0..8).map(|i| i % 2).collect()).unwrap()
}

/// Background traffic sample for stream `k` at round `t`: noise with a slow
/// drift, rarely decisive — so monitors stay busy instead of latching.
fn sample(k: usize, t: usize) -> f64 {
    0.15 * (((t * 23 + k * 7) % 17) as f64 - 8.0) + ((t as f64) * 0.013).sin()
}

struct Row {
    streams: usize,
    shards: usize,
    rounds: usize,
    pushes_per_sec: f64,
    p50_cycle_ns: u64,
    p99_cycle_ns: u64,
    p99_push_ns: u64,
    alarms: u64,
    checkpoints: u64,
    checkpoint_p99_ns: u64,
    checkpoint_bytes: usize,
}

fn bench_one(
    model: &ProbThreshold<NearestCentroid>,
    streams: usize,
    shards: usize,
    rounds: usize,
    registry: &ModelRegistry,
    clock: Clock,
    tracer: Option<Tracer>,
) -> Row {
    let cfg = RuntimeConfig {
        shards,
        queue_capacity: streams * CYCLE + 1,
        monitor: StreamMonitorConfig {
            anchor_stride: STRIDE,
            norm: StreamNorm::Raw,
            refractory: 200,
        },
        model_name: "serve-bench".to_string(),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(model, cfg).expect("valid bench config");
    rt.set_clock(clock);
    // With a tracer attached, every batch carries a wire context so the
    // per-shard span chain records (or no-ops, for a disabled tracer) in
    // the hot path — the workload the tracing-overhead A/B measures.
    let with_ctx = tracer.is_some();
    if let Some(t) = tracer {
        rt.set_tracer(t);
    }
    let cycles = rounds / CYCLE;
    let ckpt_every = (cycles / CHECKPOINTS).max(1);
    let mut batch = Vec::with_capacity(streams);
    let mut alarms = 0u64;
    let mut cycle = 0usize;
    let t0 = Instant::now();
    for t in 0..rounds {
        batch.clear();
        for k in 0..streams {
            batch.push(Record::new(k as u64, sample(k, t)));
        }
        let ctx = with_ctx.then_some(TraceContext {
            trace_id: (t + 1) as u64,
            parent_span: 0,
        });
        rt.ingest_with(&batch, IngestMeta { tag: None, ctx })
            .expect("bench queues are sized to fit");
        if (t + 1) % CYCLE == 0 {
            alarms += rt.drain().len() as u64;
            cycle += 1;
            if cycle.is_multiple_of(ckpt_every) {
                rt.checkpoint(registry).expect("bench checkpoint");
            }
        }
    }
    alarms += rt.drain().len() as u64;
    let elapsed = t0.elapsed().as_secs_f64();

    let stats = rt.stats();
    let total_pushes = (streams * rounds) as f64;
    Row {
        streams,
        shards,
        rounds,
        pushes_per_sec: total_pushes / elapsed,
        p50_cycle_ns: stats.drain_cycle_ns.p50(),
        p99_cycle_ns: stats.drain_cycle_ns.p99(),
        p99_push_ns: stats.push_ns.p99(),
        alarms,
        checkpoints: stats.checkpoints,
        checkpoint_p99_ns: stats.checkpoint_pause_ns.p99(),
        checkpoint_bytes: stats.last_checkpoint_bytes,
    }
}

/// Alternating pairs in each overhead A/B. A run lasts ~20 ms, and with
/// its drains on two workers one pair's percentage can land ten points
/// from the next (on 2 vCPUs the per-pair IQR reads 9–16% when the host
/// is quiet), so it takes this many pairs to pin the median to within a
/// percent or so.
const PAIRS: usize = 200;

/// Median and interquartile range of the percent throughput the `on` arm
/// of `run` loses to the `off` arm, per pair, over [`PAIRS`] alternating
/// pairs (negative = the instrumented arm happened to measure faster).
fn overhead_pct(mut run: impl FnMut(bool) -> f64) -> (f64, f64) {
    let mut pcts: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let (off, on) = if pair % 2 == 0 {
                let off = run(false);
                (off, run(true))
            } else {
                let on = run(true);
                (run(false), on)
            };
            (off - on) / off * 100.0
        })
        .collect();
    pcts.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let at = (PAIRS - 1) as f64 * q;
        let (lo, hi) = (pcts[at.floor() as usize], pcts[at.ceil() as usize]);
        lo + (hi - lo) * at.fract()
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

/// A clock that is on or off, for one arm of an overhead A/B.
fn clock(on: bool) -> Clock {
    if on {
        Clock::monotonic()
    } else {
        Clock::disabled()
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (stream_counts, shard_counts, rounds): (&[usize], &[usize], usize) = if quick {
        (&[8, 32], &[1, 4], 256)
    } else {
        (&[16, 64, 256], &[1, 2, 8], 1536)
    };
    println!(
        "bench_serve: stride {STRIDE}, cycle {CYCLE} batches, rounds = {rounds} per combination, \
         {CHECKPOINTS} periodic checkpoints per run"
    );

    let model = ProbThreshold::new(NearestCentroid::fit(&train_set()), 0.9999, TRAIN_LEN, 2);
    let mut dir = std::env::temp_dir();
    dir.push(format!("etsc-serve-bench-{}", std::process::id()));
    let registry = ModelRegistry::open(&dir).expect("temp registry");

    let mut rows = Vec::new();
    for &streams in stream_counts {
        for &shards in shard_counts {
            let row = bench_one(
                &model,
                streams,
                shards,
                rounds,
                &registry,
                Clock::monotonic(),
                None,
            );
            println!(
                "  streams {:>4} × shards {:>2}: {:>12.0} pushes/s  cycle p50/p99 {:>9}/{:>10} ns  \
                 push p99 {:>6} ns  ckpt p99 {:>9} ns / {:>8} B  ({} alarms)",
                row.streams,
                row.shards,
                row.pushes_per_sec,
                row.p50_cycle_ns,
                row.p99_cycle_ns,
                row.p99_push_ns,
                row.checkpoint_p99_ns,
                row.checkpoint_bytes,
                row.alarms,
            );
            rows.push(row);
        }
    }

    // The tracing A/B runs its runtime clock on, so only the tracer
    // differs.
    let overhead_rounds = if quick { 256 } else { 768 };
    let run = |clock: Clock, tracer: Option<Tracer>| {
        bench_one(&model, 64, 2, overhead_rounds, &registry, clock, tracer).pushes_per_sec
    };
    let overheads = [
        (
            "instrumentation",
            "disabled vs monotonic clock",
            overhead_pct(|on| run(clock(on), None)),
        ),
        (
            "tracing",
            "disabled vs recording tracer",
            overhead_pct(|on| {
                let tracer = Tracer::new(TracerConfig {
                    clock: clock(on),
                    ..TracerConfig::default()
                });
                run(Clock::monotonic(), Some(tracer))
            }),
        ),
    ];
    for (name, arms, (median, iqr)) in overheads {
        println!(
            "  {name} overhead ({arms}, {PAIRS} alternating pairs): median {median:+.2}%, \
             IQR {iqr:.2}%"
        );
        if median >= 5.0 {
            println!("  WARNING: {name} overhead is at or above the 5% budget");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Emit BENCH_serve.json (hand-rolled: the workspace is offline, no
    // serde).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"anchor_stride\": {STRIDE},");
    let _ = writeln!(json, "  \"batches_per_cycle\": {CYCLE},");
    let _ = writeln!(json, "  \"checkpoints_per_run\": {CHECKPOINTS},");
    for (name, _, (median, iqr)) in overheads {
        let _ = writeln!(
            json,
            "  \"{name}_overhead_pct\": {{\"median\": {median:.2}, \"iqr\": {iqr:.2}, \"pairs\": {PAIRS}}},"
        );
    }
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"streams\": {}, \"shards\": {}, \"rounds\": {}, \"pushes_per_sec\": {:.0}, \
             \"p50_cycle_ns\": {}, \"p99_cycle_ns\": {}, \"p99_push_ns\": {}, \"alarms\": {}, \
             \"checkpoints\": {}, \"checkpoint_p99_ns\": {}, \"checkpoint_bytes\": {}}}{}",
            r.streams,
            r.shards,
            r.rounds,
            r.pushes_per_sec,
            r.p50_cycle_ns,
            r.p99_cycle_ns,
            r.p99_push_ns,
            r.alarms,
            r.checkpoints,
            r.checkpoint_p99_ns,
            r.checkpoint_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");
}
