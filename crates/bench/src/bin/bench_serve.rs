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
//! * **instrumentation overhead**: median-of-5 interleaved A/B of
//!   pushes/s with the runtime clock disabled vs monotonic — the cost of
//!   leaving telemetry on, which the 1-in-64 push sampling is designed to
//!   keep under 5%; and
//! * **tracing overhead**: the same interleaved A/B with a *disabled*
//!   tracer against a *recording* one, every batch carrying a wire
//!   [`TraceContext`] so the full span chain (`ShardEnqueue` →
//!   `ShardDrain` → `AlarmEmit`) records in the hot path — held to the
//!   same 5% budget.
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
use etsc_serve::{Record, Runtime, RuntimeConfig};
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
        if with_ctx {
            let ctx = TraceContext {
                trace_id: (t + 1) as u64,
                parent_span: 0,
            };
            rt.ingest_ctx(&batch, Some(ctx))
                .expect("bench queues are sized to fit");
        } else {
            rt.ingest(&batch).expect("bench queues are sized to fit");
        }
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

/// Median of an interleaved A/B: 5 runs with the clock disabled against 5
/// with it monotonic, alternating so thermal / cache drift hits both arms
/// equally. Returns the percent throughput lost to instrumentation
/// (negative = the instrumented arm happened to measure faster).
fn instrumentation_overhead_pct(
    model: &ProbThreshold<NearestCentroid>,
    registry: &ModelRegistry,
    rounds: usize,
) -> f64 {
    let mut off = Vec::with_capacity(5);
    let mut on = Vec::with_capacity(5);
    for _ in 0..5 {
        off.push(bench_one(model, 64, 2, rounds, registry, Clock::disabled(), None).pushes_per_sec);
        on.push(bench_one(model, 64, 2, rounds, registry, Clock::monotonic(), None).pushes_per_sec);
    }
    overhead_pct_of(&mut off, &mut on)
}

/// Median of an interleaved A/B of the distributed-tracing path: 5 runs
/// with a **disabled** tracer (every span/event call short-circuits)
/// against 5 with a **recording** one, both arms ingesting with a wire
/// `TraceContext` so the full `ShardEnqueue` → `ShardDrain` → `AlarmEmit`
/// chain is exercised. Returns the percent throughput lost to recording,
/// held to the same 5% budget as telemetry.
fn tracing_overhead_pct(
    model: &ProbThreshold<NearestCentroid>,
    registry: &ModelRegistry,
    rounds: usize,
) -> f64 {
    let mut off = Vec::with_capacity(5);
    let mut on = Vec::with_capacity(5);
    for _ in 0..5 {
        let disabled = Tracer::new(TracerConfig {
            clock: Clock::disabled(),
            ..TracerConfig::default()
        });
        off.push(
            bench_one(
                model,
                64,
                2,
                rounds,
                registry,
                Clock::monotonic(),
                Some(disabled),
            )
            .pushes_per_sec,
        );
        let recording = Tracer::new(TracerConfig::default());
        on.push(
            bench_one(
                model,
                64,
                2,
                rounds,
                registry,
                Clock::monotonic(),
                Some(recording),
            )
            .pushes_per_sec,
        );
    }
    overhead_pct_of(&mut off, &mut on)
}

/// Percent throughput the `on` arm loses to the `off` arm, median vs
/// median (negative = the instrumented arm happened to measure faster).
fn overhead_pct_of(off: &mut Vec<f64>, on: &mut Vec<f64>) -> f64 {
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let (off_med, on_med) = (median(off), median(on));
    (off_med - on_med) / off_med * 100.0
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

    let overhead_rounds = if quick { 256 } else { 768 };
    let overhead_pct = instrumentation_overhead_pct(&model, &registry, overhead_rounds);
    println!(
        "  instrumentation overhead (disabled vs monotonic clock, median of 5): {overhead_pct:+.2}%"
    );
    if overhead_pct >= 5.0 {
        println!("  WARNING: telemetry overhead is at or above the 5% budget");
    }
    let trace_pct = tracing_overhead_pct(&model, &registry, overhead_rounds);
    println!("  tracing overhead (disabled vs recording tracer, median of 5): {trace_pct:+.2}%");
    if trace_pct >= 5.0 {
        println!("  WARNING: tracing overhead is at or above the 5% budget");
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Emit BENCH_serve.json (hand-rolled: the workspace is offline, no
    // serde).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"anchor_stride\": {STRIDE},");
    let _ = writeln!(json, "  \"batches_per_cycle\": {CYCLE},");
    let _ = writeln!(json, "  \"checkpoints_per_run\": {CHECKPOINTS},");
    let _ = writeln!(
        json,
        "  \"instrumentation_overhead_pct\": {overhead_pct:.2},"
    );
    let _ = writeln!(json, "  \"tracing_overhead_pct\": {trace_pct:.2},");
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
