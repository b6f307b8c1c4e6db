//! The fixed probability-threshold framing of early classification
//! (Fig 3, right): "the ETSC algorithm simply predicts the probability of
//! being in each class, and if that probability exceeds some user-specified
//! threshold", classification is made.
//!
//! This wraps any probabilistic whole-series classifier whose
//! `predict_proba` accepts prefixes (nearest-centroid, Gaussian models,
//! WEASEL-lite all do).
//!
//! ## The commit-test early-out
//!
//! In a stream almost every push answers `Wait`, yet an exact answer needs
//! the full softmax (an `exp` and a divide per class) only to compare its
//! top probability with θ. Sessions therefore ask the scorer for its logit
//! gap `g` first ([`ScoreSession::logit_gap`]): the top probability is at
//! most `σ(g)` for any class count, so when
//! `g < logit(θ − 1e-9)` ([`min_commit_gap`], computed once in
//! [`ProbThreshold::new`]) the push returns `Wait` without scoring. The
//! `1e-9` slack covers the softmax's rounding, including the rounding (and,
//! past `g > 745`, the `exp` underflow) that returns exactly `1.0`, which
//! θ = 1 must still let through. Nothing is skipped when
//! `θ − 1e-9 ≤ 0.5` (two tied classes already reach 0.5), when a logit is
//! not finite, with fewer than two classes, or for scorers without a bound
//! (the buffering fallback and external scorers). Whenever the bound cannot
//! rule out a commit the exact path runs, so decisions and confidences are
//! bit-identical to the ungated loop, and since the probability scratch
//! buffer is not part of the checkpoint, neither are checkpoint bytes.
//!
//! ## Lanes
//!
//! When the wrapped classifier offers [`Classifier::score_lanes`], a
//! stream's anchor sessions run as one lane block
//! ([`EarlyClassifier::lanes`]): one scorer state for every lane, one pass
//! per push that applies the gate above to each lane and evaluates the
//! softmax only where the gate cannot rule out a commit. Each lane latches,
//! counts and checkpoints exactly as its session does. Without
//! `score_lanes`, the lanes are a [`SessionLanes`] fleet of those sessions.
//!
//! The block receives `min_commit_gap(θ)` itself, so it may rule a lane out
//! before it has a gap, with a cheaper bound that is sound under rounding
//! ([`ScoreLanes::push`]); nearest-centroid lanes do, from their squared
//! distances, before any root. A lane the bound cannot rule out takes the
//! exact gap, so decisions, confidences and checkpoint bytes are unchanged.

use etsc_classifiers::{argmax, min_commit_gap, Classifier, LaneTop, ScoreLanes, ScoreSession};
use etsc_core::ClassLabel;
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::{
    expect_norm, expect_session_tag, get_decision, put_decision, put_norm, session_tags, Decision,
    DecisionLanes, DecisionSession, EarlyClassifier, LaneStatus, SessionLanes, SessionNorm,
};

/// State-schema tag for the buffering [`RescoreSession`] fallback.
const TAG_RESCORE: u8 = 24;

/// An early classifier that commits when the wrapped model's class
/// probability exceeds a user threshold.
///
/// Its sessions skip the softmax on pushes whose logit gap proves the
/// threshold out of reach, with bit-identical decisions (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct ProbThreshold<C> {
    inner: C,
    threshold: f64,
    /// `min_commit_gap(threshold)`: a scorer whose logit gap is below it
    /// cannot reach the threshold (derived, never persisted).
    commit_gap: f64,
    series_len: usize,
    min_prefix: usize,
}

impl<C: Classifier> ProbThreshold<C> {
    /// Wrap a fitted classifier. `threshold` in `(0, 1]`; Fig 3 uses 0.8.
    pub fn new(inner: C, threshold: f64, series_len: usize, min_prefix: usize) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
        Self {
            inner,
            threshold,
            commit_gap: min_commit_gap(threshold),
            series_len,
            min_prefix: min_prefix.max(1),
        }
    }

    /// Access the wrapped classifier.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The probability trace over all prefixes of `series`: the Fig 3 plot.
    /// Returns `(prefix_len, predicted_label, max_probability)` per step.
    pub fn probability_trace(&self, series: &[f64]) -> Vec<(usize, ClassLabel, f64)> {
        (self.min_prefix..=series.len())
            .map(|l| {
                let p = self.inner.predict_proba(&series[..l]);
                let label = argmax(&p);
                (l, label, p[label])
            })
            .collect()
    }
}

impl<C: Classifier> EarlyClassifier for ProbThreshold<C> {
    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn series_len(&self) -> usize {
        self.series_len
    }

    fn min_prefix(&self) -> usize {
        self.min_prefix
    }

    fn decide(&self, prefix: &[f64]) -> Decision {
        if prefix.len() < self.min_prefix {
            return Decision::Wait;
        }
        let p = self.inner.predict_proba(prefix);
        let label = argmax(&p);
        self.commit(label, p[label]).unwrap_or(Decision::Wait)
    }

    fn session(&self, norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
        Box::new(ProbThresholdSession {
            model: self,
            norm,
            scorer: self.scorer(norm),
            proba: vec![0.0; self.inner.n_classes()],
            len: 0,
            decision: Decision::Wait,
        })
    }

    fn predict_full(&self, series: &[f64]) -> ClassLabel {
        self.inner.predict(series)
    }

    fn resume_session(
        &self,
        norm: SessionNorm,
        dec: &mut Decoder<'_>,
    ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
        // Reopen the scorer exactly as `session` would (incremental when the
        // wrapped model offers one, the buffering fallback otherwise) and
        // rehydrate it through the `ScoreSession` state API — so even a
        // wrapped classifier with no incremental form checkpoints cleanly.
        let mut scorer = self.scorer(norm);
        let (len, decision) = self.decode_state(norm, dec, |sub| scorer.load_state(sub))?;
        Ok(Box::new(ProbThresholdSession {
            model: self,
            norm,
            scorer,
            proba: vec![0.0; self.inner.n_classes()],
            len,
            decision,
        }))
    }

    fn lanes(&self, norm: SessionNorm) -> Box<dyn DecisionLanes + '_> {
        let Some(scores) = self.inner.score_lanes(norm == SessionNorm::PerPrefix) else {
            return Box::new(SessionLanes::new(self, norm));
        };
        Box::new(ProbThresholdLanes {
            model: self,
            norm,
            scores,
            status: Vec::new(),
            lag: 0,
            committed: false,
            peak: 0,
            tops: Vec::new(),
        })
    }
}

impl<C: Classifier> ProbThreshold<C> {
    /// The commit rule, shared by [`decide`](EarlyClassifier::decide), the
    /// sessions and the lanes: the top class `label` at probability `p`
    /// commits once `p` reaches the threshold.
    fn commit(&self, label: ClassLabel, p: f64) -> Option<Decision> {
        (p >= self.threshold).then_some(Decision::Predict {
            label,
            confidence: p,
        })
    }

    /// The scorer a session under `norm` drives: the wrapped classifier's
    /// incremental scorer for the requested normalization when it has one —
    /// `score_session` reproduces the batch probabilities exactly,
    /// `score_session_znorm` folds each prefix-wide mean/std change into
    /// closed-form running-sum updates (documented fp tolerance) — and for
    /// classifiers with no incremental form (kNN, WEASEL) the buffering
    /// [`RescoreSession`], which rescores the (optionally renormalized)
    /// prefix per push: O(prefix) scoring, but the threshold gate and
    /// latching logic stay session-native.
    fn scorer(&self, norm: SessionNorm) -> Box<dyn ScoreSession + '_> {
        match norm {
            SessionNorm::Raw => self.inner.score_session(),
            SessionNorm::PerPrefix => self.inner.score_session_znorm(),
        }
        .unwrap_or_else(|| {
            Box::new(RescoreSession {
                inner: &self.inner,
                norm,
                buf: Vec::new(),
            })
        })
    }

    /// Read a session checkpoint written by [`encode_state`]: the scorer
    /// section goes to `load_scorer`; returns the session's length and
    /// decision.
    fn decode_state(
        &self,
        norm: SessionNorm,
        dec: &mut Decoder<'_>,
        load_scorer: impl FnOnce(&mut Decoder<'_>) -> Result<(), PersistError>,
    ) -> Result<(usize, Decision), PersistError> {
        expect_session_tag(dec, session_tags::PROB_THRESHOLD)?;
        expect_norm(dec, norm)?;
        let mut sub = dec.section("prob-threshold scorer")?;
        load_scorer(&mut sub)?;
        sub.finish()?;
        let len = dec.get_usize("prob-threshold len")?;
        let decision = get_decision(dec, self.inner.n_classes())?;
        Ok((len, decision))
    }
}

/// Write a probability-threshold session checkpoint; the scorer section
/// comes from `save_scorer`. Sessions and lanes share it, byte for byte.
fn encode_state(
    enc: &mut Encoder,
    norm: SessionNorm,
    save_scorer: impl FnOnce(&mut Encoder) -> Result<(), PersistError>,
    status: LaneStatus,
) -> Result<(), PersistError> {
    enc.put_u8(session_tags::PROB_THRESHOLD);
    // The scorer variant is keyed off the norm at open time, so the norm is
    // part of the schema.
    put_norm(enc, norm);
    enc.try_section(save_scorer)?;
    enc.put_usize(status.len);
    put_decision(enc, status.decision);
    Ok(())
}

impl<C: Classifier + Persist> Persist for ProbThreshold<C> {
    const KIND: &'static str = "ProbThreshold";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_f64(self.threshold);
        enc.put_usize(self.series_len);
        enc.put_usize(self.min_prefix);
        enc.section(|e| self.inner.encode_body(e));
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let threshold = dec.get_f64("prob-threshold threshold")?;
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(PersistError::Corrupt(format!(
                "prob-threshold: threshold {threshold}"
            )));
        }
        let series_len = dec.get_usize("prob-threshold series_len")?;
        let min_prefix = dec.get_usize("prob-threshold min_prefix")?;
        let mut sub = dec.section("prob-threshold inner")?;
        let inner = C::decode_body(&mut sub)?;
        sub.finish()?;
        Ok(Self::new(inner, threshold, series_len, min_prefix))
    }
}

/// The universal scoring fallback: buffers the pushed samples and rescores
/// the whole (optionally per-prefix z-normalized) buffer through the
/// wrapped classifier's `predict_proba_into` on demand.
///
/// O(prefix) per probability query — this exists only for wrapped
/// classifiers with no incremental scorer for the requested normalization;
/// every built-in probabilistic substrate (nearest-centroid, Gaussian
/// models of every covariance kind) provides one for both norms and never
/// takes this path.
struct RescoreSession<'a, C> {
    inner: &'a C,
    norm: SessionNorm,
    buf: Vec<f64>,
}

impl<C: Classifier> ScoreSession for RescoreSession<'_, C> {
    fn push(&mut self, x: f64) {
        self.buf.push(x);
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn predict_proba_into(&self, out: &mut [f64]) {
        match self.norm {
            SessionNorm::Raw => self.inner.predict_proba_into(&self.buf, out),
            SessionNorm::PerPrefix => {
                let mut z = self.buf.clone();
                etsc_core::znorm::znormalize_in_place(&mut z);
                self.inner.predict_proba_into(&z, out);
            }
        }
    }

    fn reset(&mut self) {
        self.buf.clear();
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u8(TAG_RESCORE);
        enc.put_f64_slice(&self.buf);
        Ok(())
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        if dec.get_u8("rescore session tag")? != TAG_RESCORE {
            return Err(PersistError::Corrupt(
                "rescore session: wrong state tag".into(),
            ));
        }
        self.buf = dec.get_f64_vec("rescore buf")?;
        Ok(())
    }
}

/// Incremental probability-threshold session over the wrapped classifier's
/// [`ScoreSession`]; under [`SessionNorm::Raw`] it reproduces
/// [`ProbThreshold::decide`] exactly because the score session's
/// probabilities are defined to match the batch `predict_proba` on the same
/// prefix, and under [`SessionNorm::PerPrefix`] it tracks
/// `decide(&znormalize(prefix))` to the z-norm scorer's documented
/// tolerance.
struct ProbThresholdSession<'a, C> {
    model: &'a ProbThreshold<C>,
    /// Norm the scorer was opened under (part of the checkpoint schema).
    norm: SessionNorm,
    scorer: Box<dyn ScoreSession + 'a>,
    proba: Vec<f64>,
    /// Samples consumed, counted independently of the scorer so latched
    /// pushes stay O(1).
    len: usize,
    decision: Decision,
}

impl<C: Classifier> DecisionSession for ProbThresholdSession<'_, C> {
    fn push(&mut self, x: f64) -> Decision {
        self.len += 1;
        if self.decision.is_predict() {
            return self.decision; // latched: count the sample, skip the work
        }
        self.scorer.push(x);
        if self.scorer.len() < self.model.min_prefix {
            return Decision::Wait;
        }
        // The commit-test early-out (module docs): a gap this small proves
        // the top probability is below θ.
        if self
            .scorer
            .logit_gap()
            .is_some_and(|g| g < self.model.commit_gap)
        {
            return Decision::Wait;
        }
        self.scorer.predict_proba_into(&mut self.proba);
        let label = argmax(&self.proba);
        if let Some(commit) = self.model.commit(label, self.proba[label]) {
            self.decision = commit;
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
        self.scorer.reset();
        self.len = 0;
        self.decision = Decision::Wait;
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        let status = LaneStatus {
            decision: self.decision,
            len: self.len,
        };
        encode_state(enc, self.norm, |e| self.scorer.save_state(e), status)
    }
}

/// The lanes of [`ProbThreshold`] over a classifier's [`ScoreLanes`]: each
/// lane is a [`ProbThresholdSession`], with the scorers held in one block
/// and the threshold test applied to the few lanes the block reports.
///
/// A push leaves the statuses' lengths alone and counts itself in `lag`;
/// the lengths are filled in when they are read or a lane is added.
struct ProbThresholdLanes<'a, C> {
    model: &'a ProbThreshold<C>,
    norm: SessionNorm,
    /// One scorer lane per lane; a committed lane's scorer is frozen, as a
    /// latched session stops feeding its scorer.
    scores: Box<dyn ScoreLanes + 'a>,
    /// Every lane's status, its length `lag` samples behind.
    status: Vec<LaneStatus>,
    /// Pushes since the lengths in `status` were filled in.
    lag: usize,
    /// Whether some live lane holds a commit.
    committed: bool,
    /// Most lanes ever live: lanes beyond the live ones are pooled storage.
    peak: usize,
    /// Lanes the last push scored through the softmax.
    tops: Vec<LaneTop>,
}

impl<C> ProbThresholdLanes<'_, C> {
    /// Bring every lane's length up to date.
    fn fill_lens(&mut self) {
        if self.lag > 0 {
            for status in &mut self.status {
                status.len += self.lag;
            }
            self.lag = 0;
        }
    }

    /// Append a lane with `status`, its scorer already appended.
    fn add(&mut self, status: LaneStatus) {
        self.fill_lens();
        if status.decision.is_predict() {
            self.scores.freeze(self.status.len());
            self.committed = true;
        }
        self.status.push(status);
        self.peak = self.peak.max(self.status.len());
    }
}

impl<C: Classifier> DecisionLanes for ProbThresholdLanes<'_, C> {
    fn open(&mut self) {
        self.scores.open();
        self.add(LaneStatus::FRESH);
    }

    fn push(&mut self, x: f64) -> bool {
        self.lag += 1;
        self.tops.clear();
        self.scores.push(
            x,
            self.model.min_prefix,
            self.model.commit_gap,
            &mut self.tops,
        );
        for top in &self.tops {
            if let Some(commit) = self.model.commit(top.label, top.probability) {
                self.status[top.lane].decision = commit;
                self.scores.freeze(top.lane);
                self.committed = true;
            }
        }
        self.committed
    }

    fn status(&mut self) -> &[LaneStatus] {
        self.fill_lens();
        &self.status
    }

    fn retain(&mut self, keep: &[bool]) {
        // Every lane lags by the same count, so the kept ones still do.
        self.scores.retain(keep);
        let mut flags = keep.iter();
        self.status.retain(|_| flags.next() != Some(&false));
        self.committed = self.status.iter().any(|s| s.decision.is_predict());
    }

    fn save_lane(&self, lane: usize, enc: &mut Encoder) -> Result<(), PersistError> {
        let save = |e: &mut Encoder| self.scores.save_lane(lane, e);
        let status = self.status[lane];
        let len = status.len + self.lag;
        encode_state(enc, self.norm, save, LaneStatus { len, ..status })
    }

    fn resume_lane(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        let scores = &mut self.scores;
        let (len, decision) = self
            .model
            .decode_state(self.norm, dec, |sub| scores.load_lane(sub))?;
        self.add(LaneStatus { decision, len });
        Ok(())
    }

    fn pooled(&self) -> usize {
        self.peak - self.status.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate, PrefixPolicy};
    use etsc_classifiers::centroid::NearestCentroid;
    use etsc_core::UcrDataset;

    fn toy(n: usize, len: usize) -> UcrDataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            for i in 0..n {
                data.push(
                    (0..len)
                        .map(|j| c as f64 * 2.0 + 0.1 * (((i + j) % 7) as f64 - 3.0))
                        .collect(),
                );
                labels.push(c);
            }
        }
        UcrDataset::new(data, labels).unwrap()
    }

    #[test]
    fn commits_when_confident() {
        let train = toy(6, 30);
        let clf = ProbThreshold::new(NearestCentroid::fit(&train), 0.8, 30, 2);
        let test = toy(3, 30);
        let ev = evaluate(&clf, &test, PrefixPolicy::Raw);
        assert!(ev.accuracy() >= 0.9);
        assert!(ev.earliness() < 0.5, "separated classes commit early");
    }

    #[test]
    fn higher_threshold_is_never_earlier() {
        let train = toy(6, 30);
        let test = toy(3, 30);
        let lo = ProbThreshold::new(NearestCentroid::fit(&train), 0.6, 30, 2);
        let hi = ProbThreshold::new(NearestCentroid::fit(&train), 0.99, 30, 2);
        let e_lo = evaluate(&lo, &test, PrefixPolicy::Raw).earliness();
        let e_hi = evaluate(&hi, &test, PrefixPolicy::Raw).earliness();
        assert!(e_lo <= e_hi + 1e-12);
    }

    #[test]
    fn trace_has_one_entry_per_prefix() {
        let train = toy(4, 20);
        let clf = ProbThreshold::new(NearestCentroid::fit(&train), 0.8, 20, 3);
        let trace = clf.probability_trace(train.series(0));
        assert_eq!(trace.len(), 20 - 3 + 1);
        for &(l, label, p) in &trace {
            assert!((3..=20).contains(&l));
            assert!(label < 2);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn raw_session_reproduces_decide_exactly() {
        let train = toy(6, 30);
        let clf = ProbThreshold::new(NearestCentroid::fit(&train), 0.8, 30, 2);
        let test = toy(3, 30);
        for (probe, _) in test.iter() {
            let mut s = clf.session(crate::SessionNorm::Raw);
            for t in 0..probe.len() {
                let inc = s.push(probe[t]);
                let batch = clf.decide(&probe[..t + 1]);
                assert_eq!(inc, batch, "prefix {}", t + 1);
                if inc.is_predict() {
                    break; // sessions latch at the first commit
                }
            }
        }
    }

    #[test]
    fn per_prefix_session_tracks_znormalized_decide() {
        use etsc_core::znorm::znormalize;
        let train = toy(6, 30);
        let clf = ProbThreshold::new(NearestCentroid::fit(&train), 0.8, 30, 2);
        let test = toy(3, 30);
        for (probe, _) in test.iter() {
            let mut s = clf.session(crate::SessionNorm::PerPrefix);
            for t in 0..probe.len() {
                let inc = s.push(probe[t]);
                let batch = clf.decide(&znormalize(&probe[..t + 1]));
                // Closed-form running sums vs whole-prefix renormalization:
                // same arithmetic regrouped, so the gate can differ only
                // where a probability grazes the threshold within fp noise.
                assert_eq!(inc.is_predict(), batch.is_predict(), "prefix {}", t + 1);
                if let (Some((li, ci)), Some((lb, cb))) =
                    (inc.label_confidence(), batch.label_confidence())
                {
                    assert_eq!(li, lb);
                    assert!((ci - cb).abs() < 1e-9, "confidence {ci} vs {cb}");
                    break; // sessions latch at the first commit
                }
            }
        }
    }

    #[test]
    fn rescore_fallback_session_matches_decide_for_sessionless_inner() {
        use etsc_core::znorm::znormalize;
        /// A probabilistic classifier with no incremental scorer.
        #[derive(Debug)]
        struct Opaque;
        impl Classifier for Opaque {
            fn n_classes(&self) -> usize {
                2
            }
            fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
                // Confident in class 1 once the observed mean exceeds 0.5.
                let m = x.iter().sum::<f64>() / x.len().max(1) as f64;
                let p1 = 1.0 / (1.0 + (-4.0 * (m - 0.5)).exp());
                vec![1.0 - p1, p1]
            }
        }
        let clf = ProbThreshold::new(Opaque, 0.8, 16, 2);
        let probe: Vec<f64> = (0..16).map(|i| i as f64 * 0.2).collect();
        for norm in [crate::SessionNorm::Raw, crate::SessionNorm::PerPrefix] {
            let mut s = clf.session(norm);
            for t in 0..probe.len() {
                let inc = s.push(probe[t]);
                let batch = match norm {
                    crate::SessionNorm::Raw => clf.decide(&probe[..t + 1]),
                    crate::SessionNorm::PerPrefix => clf.decide(&znormalize(&probe[..t + 1])),
                };
                assert_eq!(inc, batch, "{norm:?} prefix {}", t + 1);
                if inc.is_predict() {
                    break;
                }
            }
        }
    }

    #[test]
    fn lane_block_push_reports_whether_a_live_lane_holds_a_commit() {
        let train = toy(6, 30);
        let clf = ProbThreshold::new(NearestCentroid::fit(&train), 0.8, 30, 2);
        // Class 1 sits near 2.0 and class 0 near 0.0: a lane fed 2.0
        // commits within a few samples, and a push of 1.0, halfway, commits
        // no lane, so what it returns is the flag as it stood.
        let undecided = 1.0;
        // Pushes 2.0 until `lane` commits; returns the pushes it took.
        let commit = |lanes: &mut dyn DecisionLanes, lane: usize| {
            for pushes in 1..=30 {
                lanes.push(2.0);
                if lanes.status()[lane].decision.is_predict() {
                    return pushes;
                }
            }
            panic!("lane {lane} did not commit");
        };
        let mut lanes = clf.lanes(SessionNorm::Raw);
        lanes.open();
        assert!(!lanes.push(undecided), "nothing committed yet");
        let pushes = commit(lanes.as_mut(), 0);
        // A younger lane opens; the committed one keeps the flag set.
        assert!(lanes.push(undecided));
        lanes.open();
        assert!(lanes.push(undecided));
        assert!(lanes.push(undecided));
        assert!(!lanes.status()[1].decision.is_predict());
        let lens: Vec<usize> = lanes.status().iter().map(|s| s.len).collect();
        assert_eq!(lens, [pushes + 4, 2], "every push counts, latched or not");

        // Retiring the last committed lane, as a monitor retires a fired
        // anchor, clears the flag.
        lanes.retain(&[false, true]);
        assert!(!lanes.push(undecided));

        // So does closing a committed lane, as `StreamMonitor::close_anchor`
        // does: every flag set but the closed lane's.
        commit(lanes.as_mut(), 0);
        let mut saved = Encoder::new();
        lanes.save_lane(0, &mut saved).unwrap();
        lanes.open();
        lanes.open();
        lanes.retain(&[true, true, false]);
        assert!(lanes.push(undecided), "the committed lane is still live");
        lanes.open();
        lanes.retain(&[false, true, true]);
        assert_eq!(lanes.status().len(), 2);
        assert!(!lanes.push(undecided));

        // A lane resumed committed sets the flag at once: the push after
        // it reports the commit, though it commits nothing itself.
        let bytes = saved.into_bytes();
        let mut resumed = clf.lanes(SessionNorm::Raw);
        resumed.open();
        resumed.resume_lane(&mut Decoder::new(&bytes)).unwrap();
        assert!(resumed.status()[1].decision.is_predict());
        assert!(resumed.push(undecided));
        // An uncommitted one does not.
        let mut fresh = Encoder::new();
        lanes.save_lane(1, &mut fresh).unwrap();
        let mut other = clf.lanes(SessionNorm::Raw);
        other
            .resume_lane(&mut Decoder::new(&fresh.into_bytes()))
            .unwrap();
        assert!(!other.push(undecided));
    }

    #[test]
    fn centroid_lanes_are_one_block_not_a_session_fleet() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Nearest-centroid scoring that counts the scorer sessions it opens.
        struct Counting(NearestCentroid, AtomicUsize);
        impl Classifier for Counting {
            fn n_classes(&self) -> usize {
                self.0.n_classes()
            }
            fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
                self.0.predict_proba(x)
            }
            fn score_session(&self) -> Option<Box<dyn ScoreSession + '_>> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.score_session()
            }
            fn score_lanes(&self, znorm: bool) -> Option<Box<dyn ScoreLanes + '_>> {
                self.0.score_lanes(znorm)
            }
        }
        let inner = Counting(NearestCentroid::fit(&toy(6, 30)), AtomicUsize::new(0));
        let clf = ProbThreshold::new(inner, 0.8, 30, 2);
        let opened = || clf.inner().1.load(Ordering::Relaxed);
        let mut lanes = clf.lanes(SessionNorm::Raw);
        for _ in 0..3 {
            lanes.open();
            lanes.push(2.0);
        }
        let mut saved = Encoder::new();
        lanes.save_lane(0, &mut saved).unwrap();
        let bytes = saved.into_bytes();
        lanes.resume_lane(&mut Decoder::new(&bytes)).unwrap();
        assert!(lanes.push(2.0));
        assert_eq!(opened(), 0, "a session fleet opens a scorer per lane");
        drop(clf.session(SessionNorm::Raw));
        assert_eq!(opened(), 1, "a session opens one");
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn rejects_zero_threshold() {
        let train = toy(2, 10);
        let _ = ProbThreshold::new(NearestCentroid::fit(&train), 0.0, 10, 1);
    }
}
