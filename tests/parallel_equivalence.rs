//! Thread-count invariance of every parallelized call site.
//!
//! The parallel layer (`etsc_core::parallel`) promises that worker count is
//! a pure performance knob: chunks are contiguous, per-item work is
//! identical to the serial loop, and results are stitched in input order.
//! These tests drive each parallelized call site — the subsequence-search
//! engine, the ECTS fit, the TEASER fit, batch evaluation, the generic lane
//! block, and the stream monitor — at 1, 2, and 7 workers (serial, even
//! split, ragged split) via the scoped `with_threads` override and assert
//! identical outputs. Fixtures are sized past each site's work gate so the
//! parallel path genuinely executes at t > 1.

use etsc::classifiers::eval::{accuracy, ConfusionMatrix};
use etsc::classifiers::knn::NearestNeighbors;
use etsc::core::nn::BatchProfile;
use etsc::core::parallel::with_threads;
use etsc::core::UcrDataset;
use etsc::datasets::gunpoint::{self, GunPointConfig};
use etsc::datasets::random_walk::smoothed_random_walk;
use etsc::early::ects::{Ects, EctsConfig};
use etsc::early::teaser::{Teaser, TeaserConfig};
use etsc::early::{
    Decision, DecisionLanes, DecisionSession, EarlyClassifier, LaneStatus, SessionLanes,
    SessionNorm,
};
use etsc::stream::{StreamMonitor, StreamMonitorConfig, StreamNorm};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// 34 exemplars → 561 pairs, past the ECTS fit's 512-pair parallel gate.
fn train_set() -> UcrDataset {
    let mut d = gunpoint::generate(17, &GunPointConfig::default(), 9);
    d.znormalize();
    d
}

#[test]
fn profile_engine_is_thread_count_invariant() {
    let hay = smoothed_random_walk(20_000, 5, 3); // past the window-work gate
    let q: Vec<f64> = smoothed_random_walk(64, 3, 4);
    let engine = BatchProfile::new(&hay);
    let serial = with_threads(1, || engine.profile(&q));
    let nearest_serial = with_threads(1, || engine.nearest(&q)).unwrap();
    for t in THREAD_COUNTS {
        let p = with_threads(t, || engine.profile(&q));
        assert_eq!(p, serial, "profile at {t} threads");
        let n = with_threads(t, || engine.nearest(&q)).unwrap();
        assert_eq!(n, nearest_serial, "nearest at {t} threads");
        let batch = with_threads(t, || engine.profiles(&[&q, &q[..32]]));
        assert_eq!(batch[0], serial, "batch profile at {t} threads");
    }
}

#[test]
fn ects_fit_is_thread_count_invariant() {
    // 84 exemplars × 150 samples → n²·L ≈ 1.06M, past the fit's total-work
    // gate, so t > 1 genuinely takes the row-sliced parallel sweep.
    let mut train = gunpoint::generate(42, &GunPointConfig::default(), 9);
    train.znormalize();
    let cfg = EctsConfig {
        min_support: 0.2, // exercise the support filter's distance accessor
        ..EctsConfig::default()
    };
    let serial = with_threads(1, || Ects::fit(&train, &cfg));
    for t in THREAD_COUNTS {
        let fitted = with_threads(t, || Ects::fit(&train, &cfg));
        assert_eq!(fitted.mpls(), serial.mpls(), "MPLs at {t} threads");
        // Decisions downstream of the fit agree too.
        let probe = train.series(0);
        assert_eq!(fitted.decide(&probe[..40]), serial.decide(&probe[..40]));
    }
}

#[test]
fn teaser_fit_is_thread_count_invariant() {
    let train = train_set();
    let cfg = TeaserConfig {
        n_snapshots: 8,
        ..TeaserConfig::fast()
    };
    let serial = with_threads(1, || Teaser::fit(&train, &cfg));
    for t in THREAD_COUNTS {
        let fitted = with_threads(t, || Teaser::fit(&train, &cfg));
        assert_eq!(fitted.snapshot_lengths(), serial.snapshot_lengths());
        assert_eq!(fitted.consistency(), serial.consistency(), "{t} threads");
        for i in 0..train.len() {
            assert_eq!(
                fitted.decide(train.series(i)),
                serial.decide(train.series(i)),
                "decision for exemplar {i} at {t} threads"
            );
        }
    }
}

#[test]
fn batch_evaluation_is_thread_count_invariant() {
    let train = train_set();
    // 150 test exemplars: past the 128-prediction eval gate.
    let test = {
        let mut d = gunpoint::generate(75, &GunPointConfig::default(), 77);
        d.znormalize();
        d
    };
    let clf = NearestNeighbors::one_nn_euclidean(&train);
    let acc_serial = with_threads(1, || accuracy(&clf, &test));
    let cm_serial = with_threads(1, || ConfusionMatrix::evaluate(&clf, &test));
    for t in THREAD_COUNTS {
        assert_eq!(with_threads(t, || accuracy(&clf, &test)), acc_serial);
        assert_eq!(
            with_threads(t, || ConfusionMatrix::evaluate(&clf, &test)),
            cm_serial,
            "{t} threads"
        );
    }
}

/// Lanes driven alike whether a model's block or a session fleet holds
/// them: push a sample, then read every lane's status.
trait Drive {
    fn open(&mut self);
    fn push(&mut self, x: f64) -> Vec<LaneStatus>;
}

impl Drive for dyn DecisionLanes + '_ {
    fn open(&mut self) {
        DecisionLanes::open(self);
    }
    fn push(&mut self, x: f64) -> Vec<LaneStatus> {
        DecisionLanes::push(self, x);
        self.status().to_vec()
    }
}

impl<C: EarlyClassifier + ?Sized> Drive for SessionLanes<'_, C> {
    fn open(&mut self) {
        SessionLanes::open(self);
    }
    fn push(&mut self, x: f64) -> Vec<LaneStatus> {
        SessionLanes::push(self, x);
        let mut statuses = Vec::new();
        self.retain(|s| {
            statuses.push(*s);
            true
        });
        statuses
    }
}

/// Every lane's first commit as `(lane, sample)`, then the final statuses.
type Staggered = (Vec<(usize, usize)>, Vec<LaneStatus>);

/// Drive `lanes` over `stream`: returns every lane's first commit as
/// `(lane, sample)`, then the final statuses.
fn drive_lanes(lanes: &mut (impl Drive + ?Sized), stream: &[f64]) -> Staggered {
    let mut committed = Vec::new();
    let mut events = Vec::new();
    let mut statuses = Vec::new();
    for (i, &x) in stream.iter().enumerate() {
        statuses = lanes.push(x);
        committed.resize(statuses.len(), false);
        for (lane, s) in statuses.iter().enumerate() {
            if s.decision.is_predict() && !committed[lane] {
                committed[lane] = true;
                events.push((lane, i));
            }
        }
    }
    (events, statuses)
}

#[test]
fn session_lanes_push_is_thread_count_invariant() {
    let train = train_set();
    let ects = Ects::fit(&train, &EctsConfig::default());
    let stream = smoothed_random_walk(200, 5, 11);
    // 600 lanes: past the 512-session fan-out gate.
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut lanes = SessionLanes::new(&ects, SessionNorm::PerPrefix);
            for _ in 0..600 {
                lanes.open();
            }
            drive_lanes(&mut lanes, &stream)
        })
    };
    let serial = run(1);
    assert!(!serial.0.is_empty(), "fixture should commit");
    for t in THREAD_COUNTS {
        assert_eq!(run(t), serial, "{t} threads");
    }
}

/// The four algorithm/norm combinations that previously fell back to the
/// whole-prefix `ReplaySession` — EDSC under per-prefix z-normalization,
/// RelClass with a full covariance (raw), and RelClass / ProbThreshold
/// under per-prefix z-normalization — each driven as a 600-lane
/// `SessionLanes` block (past the 512-session fan-out gate) at 1, 2, and 7
/// workers. Their incremental sessions hold only per-stream state, so
/// worker count must be a pure performance knob. The model's own lane
/// block (`EarlyClassifier::lanes`, serial) must agree with them.
#[test]
fn converted_session_combinations_are_thread_count_invariant() {
    use etsc::classifiers::centroid::NearestCentroid;
    use etsc::classifiers::gaussian::CovarianceKind;
    use etsc::early::edsc::{Edsc, EdscConfig, ThresholdMethod};
    use etsc::early::relclass::{RelClass, RelClassConfig};
    use etsc::early::threshold::ProbThreshold;

    // A small two-class set: flat head, class-separated tail.
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for c in 0..2usize {
        for i in 0..6 {
            data.push(
                (0..48)
                    .map(|j| {
                        let noise = 0.05 * (((i * 13 + j * 7 + c * 29) % 11) as f64 - 5.0);
                        if j < 16 {
                            noise
                        } else {
                            c as f64 * 2.0 + noise
                        }
                    })
                    .collect::<Vec<f64>>(),
            );
            labels.push(c);
        }
    }
    let train = UcrDataset::new(data, labels).unwrap();

    let edsc = Edsc::fit(
        &train,
        &EdscConfig {
            lengths: vec![8, 12],
            stride: 4,
            method: ThresholdMethod::Chebyshev { k: 2.0 },
            min_precision: 0.7,
            max_features_per_class: 6,
        },
    );
    let rc_full = RelClass::fit(
        &train,
        &RelClassConfig {
            covariance: CovarianceKind::Full,
            ..Default::default()
        },
    );
    let rc_diag = RelClass::fit(&train, &RelClassConfig::default());
    let prob = ProbThreshold::new(NearestCentroid::fit(&train), 0.8, 48, 2);
    let combos: [(&str, &dyn EarlyClassifier, SessionNorm); 4] = [
        ("edsc/per-prefix", &edsc, SessionNorm::PerPrefix),
        ("relclass-full/raw", &rc_full, SessionNorm::Raw),
        ("relclass/per-prefix", &rc_diag, SessionNorm::PerPrefix),
        ("prob-threshold/per-prefix", &prob, SessionNorm::PerPrefix),
    ];

    let stream = smoothed_random_walk(150, 5, 13);
    // Stagger the lanes so blocks sit at many prefix lengths: a push after
    // every seventh open.
    fn stagger(lanes: &mut (impl Drive + ?Sized), stream: &[f64]) -> Staggered {
        for lane in 0..600 {
            lanes.open();
            if lane % 7 == 6 {
                lanes.push(stream[lane % stream.len()]);
            }
        }
        drive_lanes(lanes, stream)
    }
    let mut blocks = 0;
    for (name, clf, norm) in combos {
        let run = |threads: usize| {
            with_threads(threads, || {
                stagger(&mut SessionLanes::new(clf, norm), &stream)
            })
        };
        let serial = run(1);
        for t in THREAD_COUNTS {
            assert_eq!(run(t), serial, "{name} at {t} threads");
        }
        if let Some(mut block) = clf.lanes(norm) {
            assert_eq!(stagger(block.as_mut(), &stream), serial, "{name} lanes");
            blocks += 1;
        }
    }
    assert_eq!(blocks, 1, "prob-threshold over a centroid has a lane block");
}

/// Long-pattern detector with a cheap O(1) incremental session: commits at
/// prefix length 300 iff the anchor's first sample was positive. With
/// stride 1, non-committing anchors stay live for the full 2500-sample
/// pattern window, driving the monitor's live-anchor population well past
/// the 512-anchor fan-out gate.
struct OnsetDetector;

struct OnsetSession {
    first: Option<f64>,
    len: usize,
    decision: Decision,
}

impl DecisionSession for OnsetSession {
    fn push(&mut self, x: f64) -> Decision {
        self.len += 1;
        let first = *self.first.get_or_insert(x);
        if !self.decision.is_predict() && self.len >= 300 && first > 0.0 {
            self.decision = Decision::Predict {
                label: 0,
                confidence: 1.0 / (1.0 + first),
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
        self.first = None;
        self.len = 0;
        self.decision = Decision::Wait;
    }
}

impl EarlyClassifier for OnsetDetector {
    fn n_classes(&self) -> usize {
        1
    }
    fn series_len(&self) -> usize {
        2500
    }
    fn session(&self, _norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
        Box::new(OnsetSession {
            first: None,
            len: 0,
            decision: Decision::Wait,
        })
    }
    fn predict_full(&self, _series: &[f64]) -> usize {
        0
    }
}

#[test]
fn stream_monitor_is_thread_count_invariant() {
    let clf = OnsetDetector;
    let stream = smoothed_random_walk(5_000, 5, 21);
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut mon = StreamMonitor::new(
                &clf,
                StreamMonitorConfig {
                    anchor_stride: 1,
                    norm: StreamNorm::Raw,
                    refractory: 10,
                },
            );
            mon.run(&stream)
        })
    };
    let serial = run(1);
    assert!(!serial.is_empty(), "fixture should alarm");
    for t in THREAD_COUNTS {
        assert_eq!(run(t), serial, "{t} threads");
    }
}
