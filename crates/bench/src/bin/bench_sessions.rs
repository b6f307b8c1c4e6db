//! Machine-readable benchmark of the incremental decision sessions.
//!
//! For each built-in early-classification algorithm × [`SessionNorm`]
//! combination, drives the same probe stream through
//!
//! * `replay` — a [`ReplaySession`], the universal O(prefix)-per-push
//!   fallback (buffer, renormalize, call the stateless `decide`), and
//! * `incremental` — the algorithm's own `session()` implementation,
//!
//! and reports two costs per path: the **amortized** ns/push over a fresh
//! drive of the first 512 samples, and the **marginal** ns/push at prefix
//! length 512 (the session is warmed on 512 samples untimed, then the next
//! 128 pushes are timed) — the figure the acceptance bar (≥ 10× for the
//! combinations converted off the replay fallback this PR: EDSC under
//! `PerPrefix`, RelClass with a full covariance, RelClass and ProbThreshold
//! under `PerPrefix`) reads. The training fixture (see [`train_set`])
//! separates its classes only *past* the probed window, so no session
//! latches; a combination that commits anyway would report `null`
//! marginals rather than a meaningless latched figure. At that zero margin
//! the softmax-gated sessions (`prob-threshold`, `relclass-*`) take their
//! commit-test early-out on every push, so their figures are the gated
//! push — the common `Wait` of a stream — not the full softmax.
//!
//! Each row also reports `monitor_stride16_sample_ns`: ns per sample of a
//! [`StreamMonitor`] at anchor stride 16 over the same probe — the session
//! fan-out a stream deployment pays, as the monitor runs it: through the
//! model's lane block ([`EarlyClassifier::lanes`]), its own where it has
//! one and a fleet of one session per anchor otherwise. The fitted length
//! exceeds the probe and no session commits, so no anchor retires, up to 40
//! are live at once, and the monitor never walks their statuses.
//!
//! Writes `BENCH_sessions.json` into the current directory.
//!
//! Run: `cargo run --release -p etsc-bench --bin bench_sessions [--quick]`
//! `--quick` lowers the repetition count for CI smoke runs; the probe and
//! prefix length stay at the acceptance configuration (L = 512).

use std::fmt::Write as _;
use std::time::Instant;

use etsc_classifiers::centroid::NearestCentroid;
use etsc_classifiers::gaussian::CovarianceKind;
use etsc_core::UcrDataset;
use etsc_early::ects::{Ects, EctsConfig};
use etsc_early::edsc::{Edsc, EdscConfig, ThresholdMethod};
use etsc_early::relclass::{RelClass, RelClassConfig};
use etsc_early::template::TemplateMatcher;
use etsc_early::threshold::ProbThreshold;
use etsc_early::{DecisionSession, EarlyClassifier, ReplaySession, SessionNorm};
use etsc_stream::{StreamMonitor, StreamMonitorConfig, StreamNorm};

const SERIES_LEN: usize = 512;
/// Pushes timed after the warm-up for the marginal (at-prefix-512) figure.
const TAIL: usize = 128;
/// Training exemplar length. Deliberately longer than the probed window
/// (512 + 128): the classes separate only at `SPLIT`, so over the probed
/// prefix they are *identical* — every margin-gated algorithm sits at
/// exactly zero margin (identical class models over the observed
/// coordinates), ECTS minimum prediction lengths land past the probe, and
/// no session latches. The measured per-push cost at prefix 512 is
/// unchanged by the longer fitted length.
const TRAIN_LEN: usize = 768;
const SPLIT: usize = 576;

/// Median of `samples` (sorted in place), in seconds.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Two classes with *identical* per-exemplar noise (the hash deliberately
/// excludes the class) that separate to symmetric ±2 plateaus only at
/// `SPLIT`, past the probed window. Over every probed prefix the fitted
/// class models are coordinate-for-coordinate identical, so margins are
/// exactly zero, thresholds are never met, and every push pays the
/// unlatched cost — for the softmax-gated sessions, the gated `Wait` that
/// dominates a stream.
fn train_set(n_per_class: usize) -> UcrDataset {
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for c in 0..2usize {
        for i in 0..n_per_class {
            let level = if c == 0 { -2.0 } else { 2.0 };
            data.push(
                (0..TRAIN_LEN)
                    .map(|j| {
                        let noise = 0.08 * (((i * 31 + j * 17) % 13) as f64 - 6.0);
                        if j < SPLIT {
                            noise
                        } else {
                            level + noise
                        }
                    })
                    .collect::<Vec<f64>>(),
            );
            labels.push(c);
        }
    }
    UcrDataset::new(data, labels).unwrap()
}

/// Background-looking probe: `SERIES_LEN + TAIL` samples of structured
/// noise around zero, matching neither class plateau.
fn probe() -> Vec<f64> {
    (0..SERIES_LEN + TAIL)
        .map(|j| 0.07 * (((j * 23 + 5) % 17) as f64 - 8.0) + 0.3 * ((j as f64) * 0.05).sin())
        .collect()
}

/// Push `slice` through `session`; returns the 1-based commit step relative
/// to the session's pre-existing length, if a commit happened.
fn drive(session: &mut dyn DecisionSession, slice: &[f64]) -> Option<usize> {
    let mut commit = None;
    for (i, &x) in slice.iter().enumerate() {
        if session.push(x).is_predict() && commit.is_none() {
            commit = Some(i + 1);
        }
    }
    commit
}

struct PathCost {
    amortized_ns: f64,
    /// `None` when the session latched during warm-up (marginal pushes
    /// would be O(1) bookkeeping, not algorithm work).
    marginal_ns: Option<f64>,
    commit: Option<usize>,
}

fn measure<'a>(
    reps: usize,
    probe: &[f64],
    mut fresh: impl FnMut() -> Box<dyn DecisionSession + 'a>,
) -> PathCost {
    let warm = &probe[..SERIES_LEN];
    let tail = &probe[SERIES_LEN..];
    let mut amortized = Vec::with_capacity(reps);
    let mut marginal = Vec::with_capacity(reps);
    let mut commit = None;
    let mut latched = false;
    for _ in 0..reps {
        let mut s = fresh();
        let t0 = Instant::now();
        let c = drive(s.as_mut(), warm);
        amortized.push(t0.elapsed().as_secs_f64());
        commit = c;
        latched = s.decision().is_predict();
        let t0 = Instant::now();
        drive(s.as_mut(), tail);
        marginal.push(t0.elapsed().as_secs_f64());
    }
    PathCost {
        amortized_ns: median(&mut amortized) * 1e9 / SERIES_LEN as f64,
        marginal_ns: (!latched).then(|| median(&mut marginal) * 1e9 / TAIL as f64),
        commit,
    }
}

/// Median ns per sample of a fresh stride-16 [`StreamMonitor`] over `probe`.
fn measure_monitor(reps: usize, probe: &[f64], clf: &dyn EarlyClassifier, norm: StreamNorm) -> f64 {
    let cfg = StreamMonitorConfig {
        anchor_stride: 16,
        norm,
        refractory: 0,
    };
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut monitor = StreamMonitor::new(clf, cfg);
            let t0 = Instant::now();
            std::hint::black_box(monitor.run(probe));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples) * 1e9 / probe.len() as f64
}

struct Row {
    algorithm: &'static str,
    norm: &'static str,
    converted: bool,
    replay: PathCost,
    incremental: PathCost,
    monitor_ns: f64,
}

impl Row {
    /// Marginal speedup at prefix 512 (the acceptance figure), when both
    /// paths stayed unlatched.
    fn marginal_speedup(&self) -> Option<f64> {
        match (self.replay.marginal_ns, self.incremental.marginal_ns) {
            (Some(r), Some(i)) => Some(r / i),
            _ => None,
        }
    }
}

fn bench_combo(
    rows: &mut Vec<Row>,
    reps: usize,
    probe: &[f64],
    algorithm: &'static str,
    converted: bool,
    clf: &dyn EarlyClassifier,
    norm: SessionNorm,
) {
    let (norm_name, stream_norm) = match norm {
        SessionNorm::Raw => ("raw", StreamNorm::Raw),
        SessionNorm::PerPrefix => ("per-prefix", StreamNorm::PerPrefix),
    };
    let replay = measure(reps, probe, || Box::new(ReplaySession::new(clf, norm)));
    let incremental = measure(reps, probe, || clf.session(norm));
    let row = Row {
        algorithm,
        norm: norm_name,
        converted,
        replay,
        incremental,
        monitor_ns: measure_monitor(reps, probe, clf, stream_norm),
    };
    let marginal = row
        .marginal_speedup()
        .map_or("latched".to_string(), |s| format!("{s:8.1}x"));
    println!(
        "  {algorithm:<15} {norm_name:<10} replay {:9.1} ns/push   incremental {:9.1} ns/push   @512: {marginal}   monitor {:9.1} ns/sample{}",
        row.replay.amortized_ns,
        row.incremental.amortized_ns,
        row.monitor_ns,
        if converted { "  *" } else { "" }
    );
    rows.push(row);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 7 };
    println!(
        "bench_sessions: prefix length {SERIES_LEN} (+{TAIL} marginal), reps = {reps} (median); * = converted off the replay fallback this PR"
    );

    let train = train_set(6);
    let probe = probe();
    let mut rows: Vec<Row> = Vec::new();

    let ects = Ects::fit(&train, &EctsConfig::default());
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "ects",
        false,
        &ects,
        SessionNorm::Raw,
    );
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "ects",
        false,
        &ects,
        SessionNorm::PerPrefix,
    );

    // KDE thresholds hug the within-class (noise-scale) distance
    // distribution, so the neutral probe — a level gap away from every
    // mined pattern — never fires and EDSC sessions stay unlatched. (CHE
    // thresholds are cut down from the *between*-class distances and would
    // swallow the probe.)
    let edsc = Edsc::fit(
        &train,
        &EdscConfig {
            lengths: vec![32, 48],
            stride: 16,
            method: ThresholdMethod::Kde { precision: 0.9 },
            min_precision: 0.7,
            max_features_per_class: 8,
        },
    );
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "edsc",
        false,
        &edsc,
        SessionNorm::Raw,
    );
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "edsc",
        true,
        &edsc,
        SessionNorm::PerPrefix,
    );

    let rc_diag = RelClass::fit(
        &train,
        &RelClassConfig {
            tau: 0.95,
            ..Default::default()
        },
    );
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "relclass-diag",
        false,
        &rc_diag,
        SessionNorm::Raw,
    );
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "relclass-diag",
        true,
        &rc_diag,
        SessionNorm::PerPrefix,
    );

    let rc_full = RelClass::fit(
        &train,
        &RelClassConfig {
            tau: 0.95,
            covariance: CovarianceKind::Full,
            ..Default::default()
        },
    );
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "relclass-full",
        true,
        &rc_full,
        SessionNorm::Raw,
    );
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "relclass-full",
        true,
        &rc_full,
        SessionNorm::PerPrefix,
    );

    let prob = ProbThreshold::new(NearestCentroid::fit(&train), 0.9999, TRAIN_LEN, 2);
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "prob-threshold",
        false,
        &prob,
        SessionNorm::Raw,
    );
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "prob-threshold",
        true,
        &prob,
        SessionNorm::PerPrefix,
    );

    let template = TemplateMatcher::from_centroids(&train, 0.05, 32);
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "template",
        false,
        &template,
        SessionNorm::Raw,
    );
    bench_combo(
        &mut rows,
        reps,
        &probe,
        "template",
        false,
        &template,
        SessionNorm::PerPrefix,
    );

    // Emit BENCH_sessions.json (hand-rolled: the workspace is offline, no
    // serde).
    let fmt_opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.1}"));
    let fmt_commit = |c: Option<usize>| c.map_or("null".to_string(), |v| v.to_string());
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"prefix_len\": {SERIES_LEN},");
    let _ = writeln!(json, "  \"marginal_tail\": {TAIL},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"norm\": \"{}\", \"converted_this_pr\": {}, \
             \"replay_amortized_ns_per_push\": {:.1}, \"incremental_amortized_ns_per_push\": {:.1}, \
             \"replay_marginal_ns_per_push_at_512\": {}, \"incremental_marginal_ns_per_push_at_512\": {}, \
             \"marginal_speedup_at_512\": {}, \"commit_step\": {}, \"monitor_stride16_sample_ns\": {:.1}}}{}",
            r.algorithm,
            r.norm,
            r.converted,
            r.replay.amortized_ns,
            r.incremental.amortized_ns,
            fmt_opt(r.replay.marginal_ns),
            fmt_opt(r.incremental.marginal_ns),
            fmt_opt(r.marginal_speedup()),
            fmt_commit(r.incremental.commit),
            r.monitor_ns,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_sessions.json", &json).expect("write BENCH_sessions.json");
    println!("\nwrote BENCH_sessions.json");

    let worst_converted = rows
        .iter()
        .filter(|r| r.converted)
        .filter_map(|r| r.marginal_speedup().map(|s| (r, s)))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((r, s)) = worst_converted {
        println!(
            "slowest converted combination at prefix 512: {} / {} at {s:.1}x vs replay",
            r.algorithm, r.norm
        );
    }
}
