//! Lane blocks ≡ per-anchor sessions.
//!
//! A `StreamMonitor` over `ProbThreshold<NearestCentroid>` advances a
//! stream's anchors as one lane block (`EarlyClassifier::lanes`). The same
//! model behind [`PerAnchor`], which forwards every method except `lanes`,
//! drives a session fleet, one boxed session per anchor, instead. The two
//! must agree bit for bit: alarms with their confidence bits,
//! `snapshot_anchors` bytes at several cut points, snapshots resumed across
//! the two paths, anchors closed in a commit tick, and a sharded `Runtime`
//! through a rebalance, an export → import and a checkpoint + recover.
//!
//! Both monitors walk their anchors only on a commit or when the oldest
//! expires. [`Reference`] walks every anchor on every sample, and both must
//! fire and retire as it does; so must a monitor over `TemplateMatcher`,
//! whose lanes are a session fleet.
//!
//! The lane loop is compiled differently in optimized builds, so CI runs
//! this suite under `cargo test --release` as well.

use etsc::classifiers::centroid::NearestCentroid;
use etsc::classifiers::{argmax, Classifier};
use etsc::core::UcrDataset;
use etsc::datasets::random_walk::smoothed_random_walk;
use etsc::early::template::TemplateMatcher;
use etsc::early::threshold::ProbThreshold;
use etsc::early::{
    Decision, DecisionSession, Decoder, EarlyClassifier, Encoder, PersistError, SessionNorm,
};
use etsc::persist::{ModelRegistry, Persist};
use etsc::serve::{Record, Runtime, RuntimeConfig, StreamAlarm};
use etsc::stream::monitor::MONITOR_STATE_KIND;
use etsc::stream::{Alarm, StreamMonitor, StreamMonitorConfig, StreamNorm};

type Model = ProbThreshold<NearestCentroid>;

/// The model with its lane block hidden: every `EarlyClassifier` method but
/// `lanes` is forwarded, so monitors over it take the per-anchor path.
struct PerAnchor(Model);

impl EarlyClassifier for PerAnchor {
    fn n_classes(&self) -> usize {
        self.0.n_classes()
    }
    fn series_len(&self) -> usize {
        self.0.series_len()
    }
    fn min_prefix(&self) -> usize {
        self.0.min_prefix()
    }
    fn decide(&self, prefix: &[f64]) -> Decision {
        self.0.decide(prefix)
    }
    fn session(&self, norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
        self.0.session(norm)
    }
    fn predict_full(&self, series: &[f64]) -> usize {
        self.0.predict_full(series)
    }
    fn resume_session(
        &self,
        norm: SessionNorm,
        dec: &mut Decoder<'_>,
    ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
        self.0.resume_session(norm, dec)
    }
}

/// The rules the monitors' walk trigger shortcuts, applied on every sample:
/// one boxed session per anchor, each pushed every sample; the oldest
/// committed anchor fires outside the refractory period, other committed
/// anchors stay live outside it and retire silently inside it, and an
/// uncommitted anchor retires once it has consumed `series_len` samples.
struct Reference<'a> {
    clf: &'a dyn EarlyClassifier,
    cfg: StreamMonitorConfig,
    anchors: Vec<(usize, Box<dyn DecisionSession + 'a>)>,
    now: usize,
    quiet_until: usize,
}

impl<'a> Reference<'a> {
    fn new(clf: &'a dyn EarlyClassifier, cfg: StreamMonitorConfig) -> Self {
        Self {
            clf,
            cfg,
            anchors: Vec::new(),
            now: 0,
            quiet_until: 0,
        }
    }

    fn push(&mut self, x: f64) -> Option<Alarm> {
        let t = self.now;
        self.now += 1;
        if t.is_multiple_of(self.cfg.anchor_stride) {
            let session = self.clf.session(self.cfg.norm.into());
            self.anchors.push((t, session));
        }
        let (quiet, series_len) = (t < self.quiet_until, self.clf.series_len());
        let mut fired = None;
        self.anchors
            .retain_mut(|(anchor, session)| match session.push(x) {
                Decision::Predict { label, confidence } if !quiet && fired.is_none() => {
                    let anchor = *anchor;
                    fired = Some(Alarm {
                        time: t,
                        anchor,
                        label,
                        confidence,
                    });
                    false
                }
                Decision::Predict { .. } => !quiet,
                Decision::Wait => session.len() < series_len,
            });
        if fired.is_some() {
            self.quiet_until = t + 1 + self.cfg.refractory;
        }
        fired
    }
}

/// Stored under the wrapped model's kind, so a checkpoint of either
/// runtime recovers into the other.
impl Persist for PerAnchor {
    const KIND: &'static str = Model::KIND;

    fn encode_body(&self, enc: &mut Encoder) {
        self.0.encode_body(enc);
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Model::decode_body(dec).map(PerAnchor)
    }
}

/// `k` classes of `len`-sample shapes (a sine per class at its own
/// frequency and level) with deterministic jitter.
fn dataset(k: usize, len: usize) -> UcrDataset {
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for c in 0..k {
        for i in 0..5 {
            data.push(
                (0..len)
                    .map(|j| {
                        let shape = ((j as f64) * (0.15 + 0.1 * c as f64)).sin() * (1.0 + c as f64);
                        shape + 0.5 * c as f64 + 0.05 * (((i * 7 + j * 3 + c) % 9) as f64 - 4.0)
                    })
                    .collect(),
            );
            labels.push(c);
        }
    }
    UcrDataset::new(data, labels).unwrap()
}

/// A random walk with the training exemplars embedded every ~90 samples
/// (scaled and shifted, so per-prefix normalization matters) and a NaN,
/// +∞ and −∞ sample each.
fn stream(train: &UcrDataset, n: usize, seed: u64) -> Vec<f64> {
    let mut s = smoothed_random_walk(n, 5, seed);
    let mut at = 30;
    let mut i = 0;
    while at + train.series_len() < n {
        let ex = train.series(i % train.len());
        for (slot, &x) in s[at..].iter_mut().zip(ex) {
            *slot = 2.0 + 1.5 * x;
        }
        at += train.series_len() + 50 + (i * 37) % 40;
        i += 1;
    }
    for (pos, bad) in [
        (n / 5, f64::NAN),
        (n / 2, f64::INFINITY),
        (4 * n / 5, f64::NEG_INFINITY),
    ] {
        s[pos] = bad;
    }
    s
}

/// Thresholds at, just above and 1e-12 below a value of the top-probability
/// trace of `probe` under `norm` (its maximum past `min_prefix`), kept in
/// `(0, 1]`: commits that land exactly on the threshold.
fn thresholds_near(
    inner: &NearestCentroid,
    norm: SessionNorm,
    probe: &[f64],
    min_prefix: usize,
) -> Vec<f64> {
    let mut scorer = match norm {
        SessionNorm::Raw => inner.score_session(),
        SessionNorm::PerPrefix => inner.score_session_znorm(),
    }
    .unwrap();
    let mut proba = vec![0.0; inner.n_classes()];
    let mut top = f64::NEG_INFINITY;
    for (i, &x) in probe.iter().enumerate() {
        scorer.push(x);
        scorer.predict_proba_into(&mut proba);
        let p = proba[argmax(&proba)];
        if i + 1 >= min_prefix && p.is_finite() && p > top {
            top = p;
        }
    }
    [top, top.next_up(), top - 1e-12]
        .into_iter()
        .filter(|t| *t > 0.0 && *t <= 1.0)
        .collect()
}

/// An alarm as comparable bits: time, anchor, label, confidence.
type AlarmBits = (usize, usize, usize, u64);

fn bits(a: &Alarm) -> AlarmBits {
    (a.time, a.anchor, a.label, a.confidence.to_bits())
}

/// Cut points for snapshot comparisons and cross-resumes.
fn cuts(n: usize) -> [usize; 3] {
    [n / 7, n / 2, n - 3]
}

/// Drive a monitor over `lanes`, one over `anchors` and the [`Reference`]
/// over `xs` side by side: identical alarms and live anchors after every
/// push, and identical snapshots at the cut points. At each cut, a snapshot
/// from either monitor resumes on the other and must reproduce the rest of
/// the alarms. Returns the alarm count.
fn assert_paths_agree(
    lanes: &impl EarlyClassifier,
    anchors: &impl EarlyClassifier,
    cfg: StreamMonitorConfig,
    xs: &[f64],
    what: &str,
) -> usize {
    let mut a = StreamMonitor::new(lanes, cfg);
    let mut b = StreamMonitor::new(anchors, cfg);
    let mut r = Reference::new(anchors, cfg);
    let mut alarms = Vec::new();
    let mut snaps = Vec::new();
    for (t, &x) in xs.iter().enumerate() {
        let fa = a.push(x);
        let fired = [fa, b.push(x), r.push(x)].map(|f| f.map(|f| bits(&f)));
        assert_eq!(fired, [fired[0]; 3], "{what}: sample {t}");
        alarms.extend(fa);
        let live = [a.live_anchors(), b.live_anchors(), r.anchors.len()];
        assert_eq!(live, [live[0]; 3], "{what}: sample {t}");
        if cuts(xs.len()).contains(&(t + 1)) {
            let (sa, sb) = (a.snapshot_anchors().unwrap(), b.snapshot_anchors().unwrap());
            assert_eq!(sa, sb, "{what}: snapshot after {} samples", t + 1);
            snaps.push((t + 1, sa));
        }
    }
    for (cut, snap) in snaps {
        let head = alarms.iter().filter(|al| al.time < cut).count();
        let mut onto_anchors = StreamMonitor::new(anchors, cfg);
        onto_anchors.resume_anchors(&snap).unwrap();
        let mut onto_lanes = StreamMonitor::new(lanes, cfg);
        onto_lanes.resume_anchors(&snap).unwrap();
        let rest: Vec<_> = alarms[head..].iter().map(bits).collect();
        let via_anchors: Vec<_> = xs[cut..]
            .iter()
            .filter_map(|&x| onto_anchors.push(x))
            .map(|al| bits(&al))
            .collect();
        let via_lanes: Vec<_> = xs[cut..]
            .iter()
            .filter_map(|&x| onto_lanes.push(x))
            .map(|al| bits(&al))
            .collect();
        assert_eq!(
            via_anchors, rest,
            "{what}: lanes snapshot at {cut} resumed per anchor"
        );
        assert_eq!(
            via_lanes, rest,
            "{what}: snapshot at {cut} resumed as lanes"
        );
    }
    alarms.len()
}

#[test]
fn lanes_match_per_anchor_sessions_across_configurations() {
    let mut runs = 0;
    let mut alarms = 0;
    for k in [2usize, 3] {
        let train = dataset(k, 40);
        let inner = NearestCentroid::fit(&train);
        let xs = stream(&train, 1_500, 11 + k as u64);
        // A model as long as its centroids, one longer and one shorter.
        for series_len in [40usize, 55, 28] {
            for norm in [StreamNorm::Raw, StreamNorm::PerPrefix] {
                for min_prefix in [3usize, 20] {
                    let probe: Vec<f64> = train.series(0).iter().map(|&x| 2.0 + 1.5 * x).collect();
                    for theta in thresholds_near(&inner, norm.into(), &probe, min_prefix) {
                        let model =
                            ProbThreshold::new(inner.clone(), theta, series_len, min_prefix);
                        let per_anchor = PerAnchor(model.clone());
                        for stride in [1usize, 7, 16, series_len + 3] {
                            for refractory in [0usize, 75] {
                                let cfg = StreamMonitorConfig {
                                    anchor_stride: stride,
                                    norm,
                                    refractory,
                                };
                                let what = format!(
                                    "K {k}, series_len {series_len}, {norm:?}, min_prefix {min_prefix}, \
                                     θ {theta}, stride {stride}, refractory {refractory}"
                                );
                                alarms += assert_paths_agree(&model, &per_anchor, cfg, &xs, &what);
                                runs += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(runs >= 300, "{runs} configurations");
    assert!(
        alarms > runs,
        "the grid must commit: {alarms} alarms over {runs} runs"
    );
}

#[test]
fn lanes_match_per_anchor_sessions_at_degenerate_temperatures() {
    // A softmax temperature that is not positive and finite leaves no logit
    // gap to gate on, so every lane past `min_prefix` reaches the softmax;
    // at θ = 0.5, β = 0 commits every one of them.
    let mut runs = 0;
    let mut alarms = 0;
    for k in [2usize, 3] {
        let train = dataset(k, 40);
        let xs = stream(&train, 1_500, 21 + k as u64);
        for beta in [-1.0, 0.0, f64::INFINITY, f64::NAN] {
            let inner = NearestCentroid::fit_with_beta(&train, beta);
            for theta in [0.5, 0.8] {
                let model = ProbThreshold::new(inner.clone(), theta, 40, 5);
                let per_anchor = PerAnchor(model.clone());
                for norm in [StreamNorm::Raw, StreamNorm::PerPrefix] {
                    for (stride, refractory) in [(1usize, 0usize), (16, 75)] {
                        let cfg = StreamMonitorConfig {
                            anchor_stride: stride,
                            norm,
                            refractory,
                        };
                        let what = format!(
                            "K {k}, β {beta}, θ {theta}, {norm:?}, stride {stride}, \
                             refractory {refractory}"
                        );
                        alarms += assert_paths_agree(&model, &per_anchor, cfg, &xs, &what);
                        runs += 1;
                    }
                }
            }
        }
    }
    assert!(
        alarms > runs,
        "the grid must commit: {alarms} alarms over {runs} runs"
    );
}

#[test]
fn template_fleet_matches_the_reference() {
    // The benchmark's fleet model: class centroids as templates, the
    // threshold at the 0.95 quantile of the training distances. Both
    // monitors hold a fleet of its sessions.
    let train = dataset(2, 40);
    let threshold = TemplateMatcher::calibrate_threshold(&train, 0.95);
    let clf = TemplateMatcher::from_centroids(&train, threshold, 20);
    let xs = stream(&train, 1_500, 31);
    let mut alarms = 0;
    for norm in [StreamNorm::Raw, StreamNorm::PerPrefix] {
        for stride in [1, 16, train.series_len()] {
            for refractory in [0, 75] {
                let cfg = StreamMonitorConfig {
                    anchor_stride: stride,
                    norm,
                    refractory,
                };
                let what = format!("template, {norm:?}, stride {stride}, refractory {refractory}");
                alarms += assert_paths_agree(&clf, &clf, cfg, &xs, &what);
            }
        }
    }
    assert!(alarms > 12, "the grid must commit: {alarms} alarms");
}

#[test]
fn closing_an_anchor_in_its_commit_tick_matches() {
    let train = dataset(2, 40);
    let model = ProbThreshold::new(NearestCentroid::fit(&train), 0.6, 40, 5);
    let per_anchor = PerAnchor(model.clone());
    let xs = stream(&train, 1_500, 5);
    for norm in [StreamNorm::Raw, StreamNorm::PerPrefix] {
        let cfg = StreamMonitorConfig {
            anchor_stride: 2,
            norm,
            refractory: 0,
        };
        let mut a = StreamMonitor::new(&model, cfg);
        let mut b = StreamMonitor::new(&per_anchor, cfg);
        let mut closed = 0;
        for (t, &x) in xs.iter().enumerate() {
            let (fa, fb) = (a.push(x), b.push(x));
            assert_eq!(
                fa.map(|f| bits(&f)),
                fb.map(|f| bits(&f)),
                "{norm:?}: sample {t}"
            );
            // Close the anchor next to the one that fired: with refractory
            // 0 it has often latched in the same tick.
            if let Some(fired) = fa {
                let next = fired.anchor + cfg.anchor_stride;
                let (ca, cb) = (a.close_anchor(next), b.close_anchor(next));
                assert_eq!(ca, cb, "{norm:?}: close {next} at sample {t}");
                closed += usize::from(ca);
            }
            assert_eq!(a.live_anchors(), b.live_anchors(), "{norm:?}: sample {t}");
        }
        assert!(closed > 0, "{norm:?}: some close must hit a live anchor");
        assert_eq!(a.snapshot_anchors().unwrap(), b.snapshot_anchors().unwrap());
    }
}

/// `snap`, a `snapshot_anchors` envelope of this model, with the session
/// length of lane `lane` one sample longer, re-sealed. Every other byte is
/// copied, so a `lane` past the last returns `snap` itself.
fn lengthen_lane(snap: &[u8], lane: usize) -> Vec<u8> {
    let mut dec = etsc::persist::open_envelope(snap, MONITOR_STATE_KIND).unwrap();
    let mut enc = Encoder::new();
    enc.put_usize(dec.get_usize("stride").unwrap());
    enc.put_u8(dec.get_u8("norm").unwrap());
    for field in ["refractory", "now", "quiet_until"] {
        enc.put_usize(dec.get_usize(field).unwrap());
    }
    let n = dec.get_usize("anchor count").unwrap();
    enc.put_usize(n);
    for i in 0..n {
        enc.put_usize(dec.get_usize("anchor offset").unwrap());
        let mut session = dec.get_bytes("anchor session").unwrap();
        if i == lane {
            // A probability-threshold session: its tag and norm, the
            // scorer's section, then the length.
            let mut s = Decoder::new(&session);
            s.get_u8("tag").unwrap();
            s.get_u8("norm").unwrap();
            let at = session.len() - s.remaining() + 8 + s.get_bytes("scorer").unwrap().len();
            let len = s.get_u64("len").unwrap();
            session[at..at + 8].copy_from_slice(&(len + 1).to_le_bytes());
        }
        enc.put_bytes(&session);
    }
    dec.finish().unwrap();
    etsc::persist::envelope(MONITOR_STATE_KIND, &enc.into_bytes())
}

/// True if `mon` refuses `bytes` as corrupt and keeps its own snapshot.
fn refuses<C: EarlyClassifier + ?Sized>(mon: &mut StreamMonitor<'_, C>, bytes: &[u8]) -> bool {
    let before = mon.snapshot_anchors().unwrap();
    let refused = matches!(mon.resume_anchors(bytes), Err(PersistError::Corrupt(_)));
    refused && mon.snapshot_anchors().unwrap() == before
}

#[test]
fn resume_refuses_a_lane_longer_than_its_anchor() {
    let train = dataset(2, 40);
    // A threshold few lanes reach, so that most anchors live to expire.
    let model = ProbThreshold::new(NearestCentroid::fit(&train), 0.99, 40, 5);
    let per_anchor = PerAnchor(model.clone());
    let xs = stream(&train, 200, 9);
    let cfg = StreamMonitorConfig {
        anchor_stride: 7,
        norm: StreamNorm::PerPrefix,
        refractory: 0,
    };
    let mut mon = StreamMonitor::new(&model, cfg);
    for &x in &xs[..100] {
        mon.push(x);
    }
    let snap = mon.snapshot_anchors().unwrap();
    let live = mon.live_anchors();
    assert!(live >= 3, "{live} live anchors");
    assert_eq!(lengthen_lane(&snap, live), snap, "the rewrite copies");
    for lane in [0, live / 2, live - 1] {
        let forged = lengthen_lane(&snap, lane);
        assert_ne!(forged, snap);
        // Refused as lanes and per anchor, by monitors with state of their
        // own, which they keep.
        let mut as_lanes = StreamMonitor::new(&model, cfg);
        let mut per_anchors = StreamMonitor::new(&per_anchor, cfg);
        for &x in &xs[100..130] {
            as_lanes.push(x);
            per_anchors.push(x);
        }
        assert!(refuses(&mut as_lanes, &forged), "lane {lane} as lanes");
        assert!(refuses(&mut per_anchors, &forged), "lane {lane} per anchor");
        // The snapshot it was forged from resumes on both paths.
        as_lanes.resume_anchors(&snap).unwrap();
        per_anchors.resume_anchors(&snap).unwrap();
        assert_eq!(as_lanes.live_anchors(), live);
        assert_eq!(per_anchors.live_anchors(), live);
    }
}

/// Runtime configuration shared by both models.
fn runtime_cfg(shards: usize) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        monitor: StreamMonitorConfig {
            anchor_stride: 8,
            norm: StreamNorm::PerPrefix,
            refractory: 30,
        },
        model_name: "lanes-equivalence".to_string(),
        threads: Some(2),
        ..RuntimeConfig::default()
    }
}

/// Records of 12 streams, round-robin, each stream its own walk with
/// embedded exemplars.
fn traffic(train: &UcrDataset, rounds: usize) -> Vec<Vec<Record>> {
    let streams: Vec<Vec<f64>> = (0..12).map(|s| stream(train, rounds, 100 + s)).collect();
    (0..rounds)
        .map(|t| {
            streams
                .iter()
                .enumerate()
                .map(|(s, xs)| Record::new(s as u64 * 7919, xs[t]))
                .collect()
        })
        .collect()
}

fn alarm_bits(alarms: &[StreamAlarm]) -> Vec<(u64, u64, AlarmBits)> {
    alarms
        .iter()
        .map(|a| (a.stream, a.seq, bits(&a.alarm)))
        .collect()
}

/// Ingest `batches` into `rt`, draining every 16 batches. With `migrate`,
/// rebalance to three shards a third of the way in, which moves monitors by
/// value, and two thirds of the way in send every third stream out and back
/// in through `export_streams` → `import_streams`, which resumes them from
/// their snapshot bytes.
fn drive<C: EarlyClassifier + ?Sized>(
    rt: &mut Runtime<'_, C>,
    batches: &[Vec<Record>],
    migrate: bool,
) -> Vec<StreamAlarm> {
    let mut alarms = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        rt.ingest(batch).unwrap();
        if (i + 1) % 16 == 0 {
            alarms.extend(rt.drain());
        }
        if migrate && i == batches.len() / 3 {
            rt.rebalance(3).unwrap();
        }
        if migrate && i == 2 * batches.len() / 3 {
            let moved: Vec<u64> = rt.stream_ids().into_iter().step_by(3).collect();
            let snapshots = rt.export_streams(&moved).unwrap();
            assert_eq!(snapshots.len(), 4);
            rt.import_streams(&snapshots).unwrap();
        }
    }
    alarms.extend(rt.drain());
    alarms
}

#[test]
fn runtime_through_rebalance_and_recover_matches() {
    let train = dataset(2, 40);
    let model = ProbThreshold::new(NearestCentroid::fit(&train), 0.6, 40, 10);
    let per_anchor = PerAnchor(model.clone());
    let batches = traffic(&train, 900);
    let (head, tail) = batches.split_at(500);

    let mut reference = Runtime::new(&model, runtime_cfg(2)).unwrap();
    let mut expected = drive(&mut reference, head, true);
    let mut twin = Runtime::new(&per_anchor, runtime_cfg(2)).unwrap();
    let got = drive(&mut twin, head, true);
    assert_eq!(
        alarm_bits(&got),
        alarm_bits(&expected),
        "through the rebalance"
    );
    assert!(!expected.is_empty(), "the traffic must alarm");

    // Checkpoint both; each recovers as the other.
    let root = std::env::temp_dir().join(format!("etsc-lanes-equivalence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (lanes_dir, anchors_dir) = (root.join("lanes"), root.join("anchors"));
    reference
        .checkpoint(&ModelRegistry::open(&lanes_dir).unwrap())
        .unwrap();
    twin.checkpoint(&ModelRegistry::open(&anchors_dir).unwrap())
        .unwrap();
    expected.extend(drive(&mut reference, tail, false));

    let name = runtime_cfg(2).model_name;
    let restored: Model = ModelRegistry::open(&anchors_dir)
        .unwrap()
        .load(&name)
        .unwrap();
    let mut as_lanes = Runtime::recover(&restored, &anchors_dir, &name).unwrap();
    let mut via_lanes = got.clone();
    via_lanes.extend(drive(&mut as_lanes, tail, false));
    let mut as_anchors = Runtime::recover(&per_anchor, &lanes_dir, &name).unwrap();
    let mut via_anchors = got;
    via_anchors.extend(drive(&mut as_anchors, tail, false));
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(
        alarm_bits(&via_lanes),
        alarm_bits(&expected),
        "per-anchor checkpoint recovered as lanes"
    );
    assert_eq!(
        alarm_bits(&via_anchors),
        alarm_bits(&expected),
        "lanes checkpoint recovered per anchor"
    );
}
