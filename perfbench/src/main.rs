//! perfbench — the serving stack's benchmark.
//!
//! One command runs a named workload for a given seed, checks every
//! stream's alarms against a serial `StreamMonitor::run` reference, and
//! prints every metric by name and unit. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload anchor-fanout --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes a separate
//! traced run and reports the per-layer metrics and the ledger. `--size
//! tiny` shrinks the traffic for smoke tests. `perfbench/README.md` lists
//! the workloads and what each metric means.

mod drive;
mod layers;
mod ledger;
mod measure;
mod report;
mod traced;
mod traffic;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use etsc_early::EarlyClassifier;
use etsc_persist::{ModelRegistry, Persist};
use etsc_stream::{score_alarms, Alarm, ScoringConfig, StreamMonitor, StreamMonitorConfig};

use drive::Round;
use measure::{median, percentile};
use report::Outcome;
use traffic::Traffic;
use workload::{Model, Spec, Transport};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUPS: usize = 5;
/// Drain workers, at most the cores the process may use.
const MAX_WORKERS: usize = 2;
/// Scoring as in Appendix B: any gesture alarm inside a gesture counts.
const SCORING: ScoringConfig = ScoringConfig {
    tolerance: 75,
    match_labels: false,
};

const USAGE: &str =
    "usage: perfbench --workload <anchor-fanout|many-streams-checkpoint|cluster-loopback> \
                     --seed <n> --seconds <s> --trace <0|1> [--size tiny]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
            (None, None, None, None, false);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                "--size" => match value()?.as_str() {
                    "tiny" => tiny = true,
                    other => return Err(format!("--size takes only tiny, not {other}")),
                },
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny,
        })
    }
}

/// The checkpoint registry's directory, inside the working directory and
/// removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Self> {
        let dir =
            PathBuf::from(".bench_build/perfbench-scratch").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.tiny) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let parallelism = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let cores = parallelism();
    // In-process workloads run on one pinned core, hence one drain worker:
    // on a shared VM that removes most of their run-to-run spread. The
    // cluster's client and nodes keep separate cores, as on separate
    // machines; pinned, its tail latency was the noisier.
    let pinned = match spec.transport {
        Transport::InProcess => measure::pin_to_one_cpu(),
        Transport::Loopback => None,
    };
    // Traced runs drain on one worker so exclusive times can add up.
    let workers = if args.trace {
        1
    } else {
        parallelism().min(MAX_WORKERS)
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} size={} cores={cores} pinned_cpu={} workers={workers}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" },
        pinned.map_or("none".to_string(), |c| c.to_string()),
    );
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let registry = ModelRegistry::open(&scratch.0).expect("open the scratch registry");

    // Set-up: fit, traffic generation, and bringing up the runtime or
    // nodes, repeated; the last one is kept.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let (train, test) = workload::splits();
        let model = workload::fit(spec.model, &train);
        let traffic = Traffic::generate(&test, spec.streams, spec.samples, spec.gap, args.seed);
        let generated = t0.elapsed();
        let start = match &model {
            Model::Prob(m) => drive::start_serving(m, &spec, workers),
            Model::Template(m) => drive::start_serving(m, &spec, workers),
        };
        setup_s.push((generated + start).as_secs_f64());
        kept = Some((model, traffic));
    }
    let (model, traffic) = kept.expect("at least one set-up");

    let mut out = match &model {
        Model::Prob(m) => run(m, &spec, &traffic, &args, workers, &registry),
        Model::Template(m) => run(m, &spec, &traffic, &args, workers, &registry),
    };
    if !args.trace {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric(
            "peak_rss_mb",
            measure::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        );
    }
    println!(
        "# error_rate={} ({} failed of {} calls and checks)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for p in out.problems() {
        eprintln!("perfbench: INCORRECT: {p}");
    }
    drop(scratch);
    println!("{}", out.json());
    if !out.correct() {
        std::process::exit(1);
    }
}

/// Every stream run serially through its own `StreamMonitor::run`, on up
/// to `threads` threads.
fn reference_alarms<C: EarlyClassifier>(
    clf: &C,
    cfg: StreamMonitorConfig,
    traffic: &Traffic,
    threads: usize,
) -> Vec<Vec<Alarm>> {
    let per_thread = traffic.streams().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = traffic
            .series
            .chunks(per_thread)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|xs| StreamMonitor::new(clf, cfg).run(xs))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// The reference, then rounds until the time is up. A traced run follows
/// each untraced round with a traced one and a pass of the layer replays,
/// so slow drift of the machine hits all of them alike.
fn run<C: EarlyClassifier + Persist>(
    clf: &C,
    spec: &Spec,
    traffic: &Traffic,
    args: &Args,
    workers: usize,
    registry: &ModelRegistry,
) -> Outcome {
    let cfg = spec.monitor(clf.series_len());
    let reference = reference_alarms(clf, cfg, traffic, workers);
    let schedule = args
        .trace
        .then(|| layers::schedule(clf, cfg, traffic, &reference));
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut out = Outcome::default();
    let mut plain = Vec::new();
    let mut trace = traced::Trace::default();
    loop {
        let (round, _) = drive::round(clf, spec, &traffic.records, workers, false, registry);
        out.check_round(&round, &reference);
        plain.push(round);
        if let Some(schedule) = &schedule {
            let (round, extras) =
                drive::round(clf, spec, &traffic.records, workers, true, registry);
            out.check_round(&round, &reference);
            trace.add_round(round, extras);
            trace.replay(clf, spec, traffic, &reference, schedule, &mut out);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    match &schedule {
        Some(schedule) => trace.report(
            clf, spec, traffic, &reference, &plain, schedule, registry, &mut out,
        ),
        None => e2e_metrics(traffic, &reference, &plain, &mut out),
    }
    out
}

fn e2e_metrics(traffic: &Traffic, reference: &[Vec<Alarm>], rounds: &[Round], out: &mut Outcome) {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.records as f64 / r.wall.as_secs_f64())
        .collect();
    // Exact percentiles of each round's raw samples; the median round.
    let p50: Vec<f64> = rounds
        .iter()
        .map(|r| percentile(&r.latency_us, 0.50))
        .collect();
    let p99: Vec<f64> = rounds
        .iter()
        .map(|r| percentile(&r.latency_us, 0.99))
        .collect();
    let samples = rounds.first().map_or(0, |r| r.latency_us.len());
    let by_round = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# {} rounds of {} records; {samples} latency samples per round ({} beyond p99)",
        rounds.len(),
        traffic.records.len(),
        measure::beyond(samples, 0.99),
    );
    println!("# records_per_s by round: {}", by_round(&rates));
    println!("# ingest_to_drain_p99_us by round: {}", by_round(&p99));
    let cpu: Duration = rounds.iter().filter_map(|r| r.cpu).sum();
    let records: usize = rounds.iter().map(|r| r.records).sum();

    let samples_total: usize = traffic.series.iter().map(Vec::len).sum();
    let alarms: usize = reference.iter().map(Vec::len).sum();
    let (mut tp, mut fp, mut missed) = (0usize, 0usize, 0usize);
    for ((alarms, events), xs) in reference.iter().zip(&traffic.events).zip(&traffic.series) {
        let score = score_alarms(alarms, events, xs.len(), &SCORING);
        tp += score.true_positives;
        fp += score.false_positives;
        missed += score.false_negatives;
    }
    println!("# alarms={alarms} tp={tp} fp={fp} missed={missed}");

    out.metric("records_per_s", median(&rates), "1/s");
    out.metric("ingest_to_drain_p50_us", median(&p50), "us");
    out.metric("ingest_to_drain_p99_us", median(&p99), "us");
    out.metric("cpu_ns_per_record", measure::ns(cpu) / records as f64, "ns");
    out.metric(
        "alarms_per_10k",
        alarms as f64 * 1e4 / samples_total as f64,
        "count",
    );
    out.metric("fp_per_tp", fp as f64 / tp as f64, "ratio");
    out.metric("recall", tp as f64 / (tp + missed) as f64, "ratio");
}
