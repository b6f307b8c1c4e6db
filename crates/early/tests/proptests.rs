//! Property tests for the early classifiers: decisions stay in-domain,
//! evaluation invariants hold, thresholds act monotonically, and — for
//! every `EarlyClassifier` implementor — the incremental session API
//! reproduces the stateless grow-the-prefix `decide` loop.

use etsc_classifiers::centroid::NearestCentroid;
use etsc_classifiers::gaussian::{
    softmax_of_logs_in_place, CovarianceKind, GaussianLikelihoodSession, GaussianModel,
    GaussianZnormSession,
};
use etsc_classifiers::{argmax, Classifier, ScoreSession};
use etsc_core::UcrDataset;
use etsc_early::costaware::{CostAware, CostAwareConfig};
use etsc_early::ecdire::{Ecdire, EcdireConfig};
use etsc_early::ects::{Ects, EctsConfig};
use etsc_early::edsc::{Edsc, EdscConfig, ThresholdMethod};
use etsc_early::metrics::{classify_stream, evaluate, PrefixPolicy};
use etsc_early::relclass::{RelClass, RelClassConfig};
use etsc_early::teaser::{Teaser, TeaserConfig};
use etsc_early::template::TemplateMatcher;
use etsc_early::threshold::ProbThreshold;
use etsc_early::{Decision, EarlyClassifier, SessionNorm};
use proptest::prelude::*;

/// Assert that pushing `series` sample-by-sample through a fresh raw
/// session produces, at every prefix length up to and including the first
/// commit, exactly the decision of the stateless `decide` on that prefix —
/// the contract the session API is built on. (Sessions latch after the
/// first commit, which is the early classification, so the comparison stops
/// there.)
fn assert_session_reproduces_decide(clf: &dyn EarlyClassifier, series: &[f64]) {
    let mut session = clf.session(SessionNorm::Raw);
    for t in 0..series.len() {
        let incremental = session.push(series[t]);
        let batch = clf.decide(&series[..t + 1]);
        assert_eq!(
            incremental,
            batch,
            "session diverged from decide at prefix {}/{}",
            t + 1,
            series.len()
        );
        if incremental.is_predict() {
            break;
        }
    }
}

/// The first-commit outcome of the old offline evaluation loop: grow the
/// prefix one point at a time, query `decide`, stop at the first `Predict`.
fn first_commit_via_decide(clf: &dyn EarlyClassifier, series: &[f64]) -> Option<(usize, usize)> {
    let start = clf.min_prefix().clamp(1, series.len());
    for len in start..=series.len() {
        if let Some(label) = clf.decide(&series[..len]).label() {
            return Some((len, label));
        }
    }
    None
}

/// The first-commit outcome of a session under `norm` over the same series.
fn first_commit_via_session_norm(
    clf: &dyn EarlyClassifier,
    norm: SessionNorm,
    series: &[f64],
) -> Option<(usize, usize)> {
    let mut session = clf.session(norm);
    for (i, &x) in series.iter().enumerate() {
        if let Some(label) = session.push(x).label() {
            return Some((i + 1, label));
        }
    }
    None
}

/// The first-commit outcome of a raw session over the same series.
fn first_commit_via_session(clf: &dyn EarlyClassifier, series: &[f64]) -> Option<(usize, usize)> {
    first_commit_via_session_norm(clf, SessionNorm::Raw, series)
}

/// The first-commit outcome of the per-prefix reference loop: grow the
/// prefix, z-normalize it honestly, query `decide` — what the replay
/// fallback used to compute, and the semantics `SessionNorm::PerPrefix`
/// sessions must track.
fn first_commit_via_znorm_decide(
    clf: &dyn EarlyClassifier,
    series: &[f64],
) -> Option<(usize, usize)> {
    let start = clf.min_prefix().clamp(1, series.len());
    for len in start..=series.len() {
        let z = etsc_core::znorm::znormalize(&series[..len]);
        if let Some(label) = clf.decide(&z).label() {
            return Some((len, label));
        }
    }
    None
}

/// Assert a `PerPrefix` session tracks the renormalize-and-decide reference
/// to documented tolerance: the running-sums algebra regroups the same
/// floating-point arithmetic, so a commit may shift by at most one sample
/// where a score grazes its threshold, and labels must agree.
fn assert_per_prefix_session_tracks_reference(clf: &dyn EarlyClassifier, series: &[f64]) {
    let a = first_commit_via_znorm_decide(clf, series);
    let b = first_commit_via_session_norm(clf, SessionNorm::PerPrefix, series);
    match (a, b) {
        (None, None) => {}
        (Some((la, ca)), Some((lb, cb))) => {
            assert_eq!(ca, cb, "labels must agree");
            assert!(
                la.abs_diff(lb) <= 1,
                "commit step {la} vs {lb} drifted by more than one sample"
            );
        }
        _ => panic!("one path committed, the other never did: {a:?} vs {b:?}"),
    }
}

/// `series` with one sample replaced by NaN, +∞ or −∞ (the non-finite
/// inputs ingest passes through) at a `salt`-dependent position past the
/// first four; every third probe stays finite.
fn with_non_finite(series: &[f64], salt: u64, probe: usize) -> Vec<f64> {
    let mut s = series.to_vec();
    let k = salt as usize + probe;
    if !k.is_multiple_of(3) {
        let pos = 4 + (salt as usize * 7 + probe * 5) % (s.len() - 4);
        s[pos] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k % 3];
    }
    s
}

/// Thresholds that land a commit exactly at, just above and 1e-12 below
/// one of a probe's own trace values (the `pick`-th finite one), kept in
/// `(0, 1]`.
fn thresholds_near(trace: &[f64], pick: usize) -> Vec<f64> {
    let finite: Vec<f64> = trace.iter().copied().filter(|v| v.is_finite()).collect();
    let Some(&v) = finite.get(pick % finite.len().max(1)) else {
        return Vec::new();
    };
    [v, v.next_up(), v - 1e-12]
        .into_iter()
        .filter(|t| *t > 0.0 && *t <= 1.0)
        .collect()
}

/// Assert two per-push decision sequences agree exactly: same commits, same
/// labels, bit-equal confidences. Returns whether they commit.
fn assert_same_decisions(gated: &[Decision], ungated: &[Decision], what: &str) -> bool {
    assert_eq!(gated.len(), ungated.len(), "{what}");
    for (t, (a, b)) in gated.iter().zip(ungated).enumerate() {
        let same = match (a.label_confidence(), b.label_confidence()) {
            (None, None) => true,
            (Some((la, ca)), Some((lb, cb))) => la == lb && ca.to_bits() == cb.to_bits(),
            _ => false,
        };
        assert!(same, "{what}: push {}: gated {a:?}, ungated {b:?}", t + 1);
    }
    ungated.last().is_some_and(Decision::is_predict)
}

/// The ungated `ProbThreshold` session: every push scores, takes the argmax
/// and compares it with θ — the loop before the commit-test early-out.
fn ungated_prob_threshold(
    mut scorer: Box<dyn ScoreSession + '_>,
    n_classes: usize,
    theta: f64,
    min_prefix: usize,
    series: &[f64],
) -> Vec<Decision> {
    let mut proba = vec![0.0; n_classes];
    let mut decision = Decision::Wait;
    series
        .iter()
        .map(|&x| {
            if decision.is_predict() {
                return decision;
            }
            scorer.push(x);
            if scorer.len() < min_prefix {
                return Decision::Wait;
            }
            scorer.predict_proba_into(&mut proba);
            let label = argmax(&proba);
            if proba[label] >= theta {
                decision = Decision::Predict {
                    label,
                    confidence: proba[label],
                };
            }
            decision
        })
        .collect()
}

/// `ProbThreshold` sessions of `model` against the ungated loop over the
/// same scorer, under both norms, on every series of `d` (some with a
/// non-finite sample), at thresholds picked from each probe's own top-
/// probability trace. Returns how many runs committed.
fn assert_prob_threshold_gate_is_exact<C: Classifier + Clone>(
    model: &C,
    d: &UcrDataset,
    salt: u64,
    what: &str,
) -> usize {
    let min_prefix = 2;
    let k = model.n_classes();
    let mut commits = 0;
    for norm in [SessionNorm::Raw, SessionNorm::PerPrefix] {
        let open = || {
            match norm {
                SessionNorm::Raw => model.score_session(),
                SessionNorm::PerPrefix => model.score_session_znorm(),
            }
            .expect("built-in scorers are incremental")
        };
        for (i, (s, _)) in d.iter().enumerate() {
            let series = with_non_finite(s, salt, i);
            let mut scorer = open();
            let mut proba = vec![0.0; k];
            let trace: Vec<f64> = series
                .iter()
                .map(|&x| {
                    scorer.push(x);
                    scorer.predict_proba_into(&mut proba);
                    proba[argmax(&proba)]
                })
                .collect();
            for theta in thresholds_near(&trace[min_prefix - 1..], salt as usize + i) {
                let pt = ProbThreshold::new(model.clone(), theta, d.series_len(), min_prefix);
                let mut session = pt.session(norm);
                let gated: Vec<Decision> = series.iter().map(|&x| session.push(x)).collect();
                let ungated = ungated_prob_threshold(open(), k, theta, min_prefix, &series);
                let label = format!("{what} {norm:?} probe {i} θ = {theta}");
                commits += usize::from(assert_same_decisions(&gated, &ungated, &label));
            }
        }
    }
    commits
}

/// RelClass's calibrated posterior recomputed at every push from the public
/// likelihood sessions, with no early-out: `(label, confidence,
/// reliability)` per push.
struct UngatedRelClass<'a> {
    model: &'a GaussianModel,
    norm: SessionNorm,
    raw: GaussianLikelihoodSession<'a>,
    znorm: GaussianZnormSession<'a>,
    ll: Vec<f64>,
    posterior: Vec<f64>,
    pushed: usize,
}

impl<'a> UngatedRelClass<'a> {
    fn new(model: &'a GaussianModel, norm: SessionNorm) -> Self {
        Self {
            model,
            norm,
            raw: model.likelihood_session(),
            znorm: model.znorm_likelihood_session(),
            ll: vec![0.0; model.n_classes()],
            posterior: vec![0.0; model.n_classes()],
            pushed: 0,
        }
    }

    fn push(&mut self, x: f64) -> (usize, f64, f64) {
        self.pushed += 1;
        match self.norm {
            SessionNorm::Raw => {
                self.raw.push(x);
                self.ll.copy_from_slice(self.raw.log_likelihoods());
            }
            SessionNorm::PerPrefix => {
                self.znorm.push(x);
                self.znorm.log_likelihoods_into(&mut self.ll);
            }
        }
        let len = self.model.series_len();
        let t = self.pushed.min(len).max(1) as f64;
        for (c, p) in self.posterior.iter_mut().enumerate() {
            *p = (self.model.class_prior(c).max(1e-12).ln() + self.ll[c]) / t;
        }
        softmax_of_logs_in_place(&mut self.posterior);
        let label = argmax(&self.posterior);
        let (mut best, mut second) = (0.0f64, 0.0f64);
        for &v in &self.posterior {
            if v > best {
                second = best;
                best = v;
            } else if v > second {
                second = v;
            }
        }
        let observed = self.pushed.min(len) as f64 / len as f64;
        (label, self.posterior[label], (best - second) * observed)
    }
}

/// RelClass sessions against [`UngatedRelClass`] for every covariance kind
/// and both norms, on every series of `d` (some with a non-finite sample),
/// at τ picked from each probe's own reliability trace. Returns how many
/// runs committed.
fn assert_relclass_gate_is_exact(d: &UcrDataset, salt: u64) -> usize {
    let min_prefix = 3;
    let mut commits = 0;
    for kind in [
        CovarianceKind::Diagonal,
        CovarianceKind::PooledDiagonal,
        CovarianceKind::Full,
    ] {
        let model = GaussianModel::fit(d, kind);
        for norm in [SessionNorm::Raw, SessionNorm::PerPrefix] {
            for (i, (s, _)) in d.iter().enumerate() {
                let series = with_non_finite(s, salt, i);
                let mut probe = UngatedRelClass::new(&model, norm);
                let trace: Vec<f64> = series.iter().map(|&x| probe.push(x).2).collect();
                for tau in thresholds_near(&trace[min_prefix - 1..], salt as usize + i) {
                    let rc = RelClass::fit(
                        d,
                        &RelClassConfig {
                            tau,
                            covariance: kind,
                            min_prefix,
                        },
                    );
                    let mut session = rc.session(norm);
                    let gated: Vec<Decision> = series.iter().map(|&x| session.push(x)).collect();
                    let mut reference = UngatedRelClass::new(&model, norm);
                    let mut decision = Decision::Wait;
                    let ungated: Vec<Decision> = series
                        .iter()
                        .map(|&x| {
                            if !decision.is_predict() {
                                let (label, confidence, reliability) = reference.push(x);
                                if reference.pushed >= min_prefix && reliability >= tau {
                                    decision = Decision::Predict { label, confidence };
                                }
                            }
                            decision
                        })
                        .collect();
                    let label = format!("{kind:?} {norm:?} probe {i} τ = {tau}");
                    commits += usize::from(assert_same_decisions(&gated, &ungated, &label));
                }
            }
        }
    }
    commits
}

/// A small seeded two-class dataset with adjustable separation point.
fn dataset(n: usize, len: usize, split: usize, salt: u64) -> UcrDataset {
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for c in 0..2usize {
        for i in 0..n {
            data.push(
                (0..len)
                    .map(|j| {
                        let h = (i as u64 * 7 + j as u64 * 13 + c as u64 * 29 + salt * 31) % 11;
                        let noise = 0.06 * (h as f64 - 5.0);
                        if j < split {
                            noise
                        } else {
                            c as f64 * 2.0 + noise
                        }
                    })
                    .collect(),
            );
            labels.push(c);
        }
    }
    UcrDataset::new(data, labels).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ects_mpls_are_within_series_length(
        salt in 0u64..50,
        split in 0usize..20,
    ) {
        let d = dataset(5, 24, split, salt);
        let m = Ects::fit(&d, &EctsConfig::default());
        for &mpl in m.mpls() {
            prop_assert!((1..=24).contains(&mpl));
        }
    }

    #[test]
    fn decisions_have_valid_labels_and_confidence(
        salt in 0u64..30,
        prefix_len in 1usize..24,
    ) {
        let d = dataset(5, 24, 6, salt);
        let ects = Ects::fit(&d, &EctsConfig::default());
        let rc = RelClass::fit(&d, &RelClassConfig::default());
        let probe: Vec<f64> = d.series(0)[..prefix_len].to_vec();
        for decision in [ects.decide(&probe), rc.decide(&probe)] {
            if let Decision::Predict { label, confidence } = decision {
                prop_assert!(label < 2);
                prop_assert!((0.0..=1.0).contains(&confidence), "confidence {confidence}");
            }
        }
    }

    #[test]
    fn classify_stream_length_is_bounded(salt in 0u64..30) {
        let d = dataset(6, 24, 6, salt);
        let m = Ects::fit(&d, &EctsConfig::default());
        for (s, _) in d.iter() {
            let (label, len, _) = classify_stream(&m, s, PrefixPolicy::Oracle);
            prop_assert!(label < 2);
            prop_assert!(len >= 1 && len <= s.len());
        }
    }

    #[test]
    fn evaluation_metrics_are_in_unit_range(salt in 0u64..30, split in 0usize..16) {
        let train = dataset(6, 24, split, salt);
        let test = dataset(3, 24, split, salt ^ 0xFF);
        let m = RelClass::fit(&train, &RelClassConfig::default());
        let ev = evaluate(&m, &test, PrefixPolicy::Oracle);
        prop_assert!((0.0..=1.0).contains(&ev.accuracy()));
        prop_assert!((0.0..=1.0).contains(&ev.earliness()));
        prop_assert!((0.0..=1.0).contains(&ev.harmonic_mean()));
        prop_assert!((0.0..=1.0).contains(&ev.commit_rate()));
        prop_assert_eq!(ev.instances.len(), test.len());
    }

    #[test]
    fn template_threshold_is_monotone_in_commitments(
        salt in 0u64..30,
        t_small in 0.05f64..0.3,
        t_extra in 0.05f64..1.0,
    ) {
        let d = dataset(6, 24, 0, salt);
        let tight = TemplateMatcher::from_centroids(&d, t_small, 6);
        let loose = TemplateMatcher::from_centroids(&d, t_small + t_extra, 6);
        // Anything the tight matcher accepts, the loose one must too.
        for (s, _) in d.iter() {
            if tight.decide(s).is_predict() {
                prop_assert!(loose.decide(s).is_predict());
            }
        }
    }

    #[test]
    fn relclass_tau_monotonicity_on_commit_lengths(salt in 0u64..20) {
        let train = dataset(6, 24, 8, salt);
        let lo = RelClass::fit(&train, &RelClassConfig { tau: 0.05, ..Default::default() });
        let hi = RelClass::fit(&train, &RelClassConfig { tau: 0.6, ..Default::default() });
        for (s, _) in train.iter() {
            let (_, len_lo, _) = classify_stream(&lo, s, PrefixPolicy::Oracle);
            let (_, len_hi, _) = classify_stream(&hi, s, PrefixPolicy::Oracle);
            prop_assert!(len_lo <= len_hi, "lower tau must commit no later");
        }
    }
}

// Session/decide equivalence, one property per `EarlyClassifier`
// implementor. Fitting happens inside each case, so the case counts are
// kept low; the per-prefix assertions are exhaustive over every probe.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ects_sessions_reproduce_decide(salt in 0u64..40, split in 0usize..16) {
        let d = dataset(5, 24, split, salt);
        for relaxed in [false, true] {
            let m = Ects::fit(&d, &EctsConfig { relaxed, ..EctsConfig::default() });
            for (s, _) in d.iter() {
                assert_session_reproduces_decide(&m, s);
            }
        }
    }

    #[test]
    fn edsc_sessions_reproduce_decide(salt in 0u64..40) {
        let d = dataset(5, 24, 4, salt);
        for method in [
            ThresholdMethod::Chebyshev { k: 2.0 },
            ThresholdMethod::Kde { precision: 0.85 },
        ] {
            let cfg = EdscConfig {
                lengths: vec![6, 10],
                stride: 3,
                method,
                min_precision: 0.7,
                max_features_per_class: 6,
            };
            let m = Edsc::fit(&d, &cfg);
            for (s, _) in d.iter() {
                assert_session_reproduces_decide(&m, s);
            }
        }
    }

    #[test]
    fn relclass_sessions_reproduce_decide(salt in 0u64..40, split in 0usize..12) {
        let d = dataset(5, 24, split, salt);
        for cfg in [RelClassConfig::default(), RelClassConfig::ldg(0.1)] {
            let m = RelClass::fit(&d, &cfg);
            for (s, _) in d.iter() {
                assert_session_reproduces_decide(&m, s);
            }
        }
        // The reliability early-out is exact: every covariance kind under
        // both norms matches the ungated posterior loop push for push, with
        // τ grazing each probe's own reliabilities and non-finite samples.
        prop_assert!(assert_relclass_gate_is_exact(&d, salt) > 0, "no run committed");
    }

    #[test]
    fn relclass_full_covariance_sessions_reproduce_decide(salt in 0u64..40, split in 0usize..12) {
        // Previously a ReplaySession fallback. The incremental session
        // extends one forward-substitution row per push against the factor
        // computed at fit time — identical arithmetic in identical order to
        // the batch path, so the equivalence is exact, not toleranced.
        let d = dataset(5, 24, split, salt);
        let m = RelClass::fit(
            &d,
            &RelClassConfig {
                covariance: etsc_classifiers::gaussian::CovarianceKind::Full,
                ..Default::default()
            },
        );
        for (s, _) in d.iter() {
            assert_session_reproduces_decide(&m, s);
        }
    }

    #[test]
    fn teaser_sessions_reproduce_decide(salt in 0u64..30) {
        let d = dataset(5, 24, 6, salt);
        let cfg = TeaserConfig { n_snapshots: 6, ..TeaserConfig::fast() };
        let m = Teaser::fit(&d, &cfg);
        for (s, _) in d.iter() {
            assert_session_reproduces_decide(&m, s);
        }
    }

    #[test]
    fn checkpoint_algorithm_sessions_reproduce_decide(salt in 0u64..30, split in 0usize..12) {
        let d = dataset(5, 24, split, salt);
        let ecdire = Ecdire::fit(&d, &EcdireConfig { n_checkpoints: 6, ..EcdireConfig::default() });
        let stopping = etsc_early::stopping_rule::StoppingRule::fit(
            &d,
            &etsc_early::stopping_rule::StoppingRuleConfig {
                n_checkpoints: 6,
                gamma_grid_steps: 3,
                ..Default::default()
            },
        );
        let costaware = CostAware::fit(
            &d,
            &CostAwareConfig { n_checkpoints: 6, ..CostAwareConfig::default() },
        );
        let models: [&dyn EarlyClassifier; 3] = [&ecdire, &stopping, &costaware];
        for m in models {
            for (s, _) in d.iter() {
                assert_session_reproduces_decide(m, s);
            }
        }
    }

    #[test]
    fn prob_threshold_sessions_reproduce_decide(salt in 0u64..40, thr in 0.55f64..0.95) {
        let d = dataset(5, 24, 0, salt);
        let m = ProbThreshold::new(NearestCentroid::fit(&d), thr, 24, 2);
        for (s, _) in d.iter() {
            assert_session_reproduces_decide(&m, s);
        }
        // The commit-test early-out is exact: every built-in scorer under
        // both norms matches the ungated scoring loop push for push, with
        // θ grazing each probe's own probabilities and non-finite samples.
        let mut commits =
            assert_prob_threshold_gate_is_exact(&NearestCentroid::fit(&d), &d, salt, "centroid");
        for kind in [CovarianceKind::Diagonal, CovarianceKind::Full] {
            let what = format!("gaussian {kind:?}");
            commits += assert_prob_threshold_gate_is_exact(&GaussianModel::fit(&d, kind), &d, salt, &what);
        }
        prop_assert!(commits > 0, "no run committed");
    }

    #[test]
    fn first_commits_agree_between_session_and_decide_loop(salt in 0u64..40) {
        // The headline claim of the session API: streaming one sample at a
        // time commits at exactly the same step, with the same label, as
        // the old offline grow-the-prefix loop.
        let d = dataset(5, 24, 6, salt);
        let ects = Ects::fit(&d, &EctsConfig::default());
        let rc = RelClass::fit(&d, &RelClassConfig::default());
        let models: [&dyn EarlyClassifier; 2] = [&ects, &rc];
        for m in models {
            for (s, _) in d.iter() {
                prop_assert_eq!(first_commit_via_decide(m, s), first_commit_via_session(m, s));
            }
        }
    }

    #[test]
    fn per_prefix_sessions_track_znormalized_decide(salt in 0u64..40, split in 0usize..12) {
        // The three remaining previously-fallback combinations, each under
        // honest per-prefix z-normalization: RelClass (every covariance
        // kind), ProbThreshold (centroid and full-Gaussian substrates), and
        // EDSC. Tolerance is documented on each session type: the
        // closed-form running sums regroup the batch arithmetic, so commits
        // may shift by at most one sample at threshold grazes.
        let d = dataset(5, 24, split, salt);
        let rc_diag = RelClass::fit(&d, &RelClassConfig::default());
        let rc_ldg = RelClass::fit(&d, &RelClassConfig::ldg(0.1));
        let rc_full = RelClass::fit(
            &d,
            &RelClassConfig { covariance: CovarianceKind::Full, ..Default::default() },
        );
        let pt_centroid = ProbThreshold::new(
            etsc_classifiers::centroid::NearestCentroid::fit(&d),
            0.7,
            24,
            2,
        );
        let pt_gauss = ProbThreshold::new(
            GaussianModel::fit(&d, CovarianceKind::Full),
            0.7,
            24,
            2,
        );
        let edsc = Edsc::fit(
            &d,
            &EdscConfig {
                lengths: vec![6, 10],
                stride: 3,
                method: ThresholdMethod::Chebyshev { k: 2.0 },
                min_precision: 0.7,
                max_features_per_class: 6,
            },
        );
        let models: [&dyn EarlyClassifier; 6] =
            [&rc_diag, &rc_ldg, &rc_full, &pt_centroid, &pt_gauss, &edsc];
        for m in models {
            for (s, _) in d.iter() {
                assert_per_prefix_session_tracks_reference(m, s);
            }
        }
    }

    #[test]
    fn template_sessions_match_decide_to_tolerance(salt in 0u64..40, thr in 0.2f64..0.8) {
        // The template session evaluates the same z-normalized distance
        // through the correlation identity, which reassociates the floating
        // point sums — so commits may shift by at most one sample when a
        // distance grazes the threshold, and confidences agree to ~1e-6.
        let d = dataset(5, 24, 0, salt);
        let m = TemplateMatcher::from_centroids(&d, thr, 4);
        for (s, _) in d.iter() {
            let a = first_commit_via_decide(&m, s);
            let b = first_commit_via_session(&m, s);
            match (a, b) {
                (None, None) => {}
                (Some((la, ca)), Some((lb, cb))) => {
                    prop_assert_eq!(ca, cb, "labels must agree");
                    prop_assert!(
                        la.abs_diff(lb) <= 1,
                        "commit step {} vs {} drifted by more than one sample",
                        la,
                        lb
                    );
                }
                _ => prop_assert!(false, "one path committed, the other never did: {a:?} vs {b:?}"),
            }
        }
    }
}
