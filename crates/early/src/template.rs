//! Template matching with an absolute distance threshold — early
//! classification the way Section 5 of the paper actually does it.
//!
//! "Any subsequence that is within 2.3 of z-normalized Euclidean distance of
//! this template is essentially guaranteed to be dustbathing." Unlike the
//! probabilistic framings, a template matcher is *open-world*: a prefix
//! resembling no class produces no prediction, which is the only sane
//! behavior in a stream where target patterns are rare.
//!
//! The matcher compares the z-normalized prefix against the z-normalized
//! equal-length head of each class template, with distances length-
//! normalized (divided by √len) so one threshold works at every prefix
//! length.

use etsc_core::distance::euclidean;
use etsc_core::znorm::{znormalize, CONSTANT_EPS};
use etsc_core::{ClassLabel, UcrDataset};
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::{
    expect_session_tag, get_decision, put_decision, session_tags, Decision, DecisionSession,
    EarlyClassifier, SessionNorm,
};

/// An early classifier matching prefixes against per-class templates under
/// an absolute distance threshold.
#[derive(Debug, Clone)]
pub struct TemplateMatcher {
    /// One full-length template per class (stored raw; normalization is per
    /// comparison).
    templates: Vec<Vec<f64>>,
    /// Maximum accepted length-normalized z-distance.
    threshold: f64,
    min_prefix: usize,
    /// Per-class cumulative sums of template values (`cum_t[c][l]` = sum of
    /// the first `l` points) and squares — lets sessions evaluate the
    /// z-normalized head distance from running sums.
    cum_t: Vec<Vec<f64>>,
    cum_t2: Vec<Vec<f64>>,
}

impl TemplateMatcher {
    /// Build from explicit per-class templates (index = class label).
    pub fn from_templates(templates: Vec<Vec<f64>>, threshold: f64, min_prefix: usize) -> Self {
        assert!(!templates.is_empty(), "need at least one template");
        let len = templates[0].len();
        assert!(
            templates.iter().all(|t| t.len() == len && !t.is_empty()),
            "templates must share a non-empty length"
        );
        assert!(threshold > 0.0, "threshold must be positive");
        let mut cum_t = Vec::with_capacity(templates.len());
        let mut cum_t2 = Vec::with_capacity(templates.len());
        for t in &templates {
            let (c1, c2) = etsc_core::stats::prefix_value_and_square_sums(t);
            cum_t.push(c1);
            cum_t2.push(c2);
        }
        Self {
            templates,
            threshold,
            min_prefix: min_prefix.max(2),
            cum_t,
            cum_t2,
        }
    }

    /// Build templates as per-class centroids of a training set.
    pub fn from_centroids(train: &UcrDataset, threshold: f64, min_prefix: usize) -> Self {
        let n_classes = train.n_classes();
        let len = train.series_len();
        let mut sums = vec![vec![0.0; len]; n_classes];
        let mut counts = vec![0usize; n_classes];
        for (s, label) in train.iter() {
            for (acc, &v) in sums[label].iter_mut().zip(s) {
                *acc += v;
            }
            counts[label] += 1;
        }
        for (sum, &c) in sums.iter_mut().zip(&counts) {
            if c > 0 {
                sum.iter_mut().for_each(|v| *v /= c as f64);
            }
        }
        Self::from_templates(sums, threshold, min_prefix)
    }

    /// A data-driven threshold: the `quantile` of same-class full-length
    /// distances between training exemplars and their class centroid. A
    /// quantile of 0.95 accepts ~95% of genuine exemplars.
    pub fn calibrate_threshold(train: &UcrDataset, quantile: f64) -> f64 {
        let proto = Self::from_centroids(train, 1.0, 2);
        let mut dists: Vec<f64> = train
            .iter()
            .map(|(s, label)| proto.distance(label, s))
            .collect();
        // total_cmp: degenerate training data can produce NaN distances;
        // calibration must not panic on a poisoned compare.
        dists.sort_by(f64::total_cmp);
        let idx = ((quantile.clamp(0.0, 1.0)) * (dists.len() - 1) as f64).round() as usize;
        dists[idx].max(1e-6)
    }

    /// Length-normalized z-distance between a prefix and the head of class
    /// `c`'s template.
    pub fn distance(&self, c: ClassLabel, prefix: &[f64]) -> f64 {
        let len = prefix.len().min(self.templates[c].len());
        let t = znormalize(&self.templates[c][..len]);
        let p = znormalize(&prefix[..len]);
        euclidean(&t, &p) / (len as f64).sqrt()
    }

    /// The per-class templates.
    pub fn templates(&self) -> &[Vec<f64>] {
        &self.templates
    }

    /// The acceptance threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl Persist for TemplateMatcher {
    const KIND: &'static str = "TemplateMatcher";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_f64(self.threshold);
        enc.put_usize(self.min_prefix);
        enc.put_usize(self.templates.len());
        for t in &self.templates {
            enc.put_f64_slice(t);
        }
    }

    /// Templates and threshold travel; the per-class cumulative sums are
    /// recomputed at decode (`from_templates` runs the same deterministic
    /// code as the original construction).
    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let threshold = dec.get_f64("template threshold")?;
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(PersistError::Corrupt(format!(
                "template: threshold {threshold}"
            )));
        }
        let min_prefix = dec.get_usize("template min_prefix")?;
        let n = dec.get_usize("template count")?;
        if n == 0 {
            return Err(PersistError::Corrupt("template: zero templates".into()));
        }
        // Each template is at least its 8-byte length prefix.
        dec.check_claim(n, 8, "templates")?;
        let mut templates = Vec::with_capacity(n);
        for _ in 0..n {
            templates.push(dec.get_f64_vec("template pattern")?);
        }
        let len = templates[0].len();
        if len == 0 || templates.iter().any(|t| t.len() != len) {
            return Err(PersistError::Corrupt(
                "template: templates must share a non-empty length".into(),
            ));
        }
        Ok(Self::from_templates(templates, threshold, min_prefix))
    }
}

impl EarlyClassifier for TemplateMatcher {
    fn n_classes(&self) -> usize {
        self.templates.len()
    }

    fn series_len(&self) -> usize {
        self.templates[0].len()
    }

    fn min_prefix(&self) -> usize {
        self.min_prefix
    }

    fn decide(&self, prefix: &[f64]) -> Decision {
        if prefix.len() < self.min_prefix {
            return Decision::Wait;
        }
        let mut best: Option<(ClassLabel, f64)> = None;
        for c in 0..self.templates.len() {
            let d = self.distance(c, prefix);
            if d <= self.threshold && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((c, d));
            }
        }
        match best {
            Some((label, d)) => Decision::Predict {
                label,
                confidence: (1.0 - d / self.threshold).clamp(0.0, 1.0),
            },
            None => Decision::Wait,
        }
    }

    fn session(&self, _norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
        // The z-normalized distance is invariant to affine transforms of the
        // prefix, so honest per-prefix normalization and raw input coincide:
        // one session serves both `SessionNorm` variants.
        Box::new(TemplateSession {
            model: self,
            dot: vec![0.0; self.templates.len()],
            sum: 0.0,
            sumsq: 0.0,
            len: 0,
            decision: Decision::Wait,
        })
    }

    fn predict_full(&self, series: &[f64]) -> ClassLabel {
        (0..self.templates.len())
            .min_by(|&a, &b| {
                // total_cmp: NaN distances (degenerate inputs) must order
                // deterministically, not panic the fallback prediction.
                self.distance(a, series)
                    .total_cmp(&self.distance(b, series))
            })
            .unwrap_or(0)
    }

    fn resume_session(
        &self,
        _norm: SessionNorm,
        dec: &mut Decoder<'_>,
    ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
        // One session type serves both norms (the z-normalized distance is
        // affine-invariant), so the norm does not enter the state.
        expect_session_tag(dec, session_tags::TEMPLATE)?;
        let dot = dec.get_f64_vec("template dot")?;
        if dot.len() != self.templates.len() {
            return Err(PersistError::Corrupt(format!(
                "template session: {} dots for {} templates",
                dot.len(),
                self.templates.len()
            )));
        }
        let sum = dec.get_f64("template sum")?;
        let sumsq = dec.get_f64("template sumsq")?;
        let len = dec.get_usize("template len")?;
        let decision = get_decision(dec, self.templates.len())?;
        Ok(Box::new(TemplateSession {
            model: self,
            dot,
            sum,
            sumsq,
            len,
            decision,
        }))
    }
}

/// Incremental template-matching session.
///
/// Maintains running `Σp`, `Σp²`, and per-class `Σp·t` over the pushed
/// prefix; the length-normalized z-distance to each template head follows
/// from the correlation identity
/// `‖ẑ(t) − ẑ(p)‖² = 2·(l − Σẑ(t)·ẑ(p))`, so a push costs O(classes)
/// instead of the O(classes × prefix) of re-normalizing both sides in
/// [`TemplateMatcher::decide`]. Results agree with `decide` to floating-
/// point reassociation (the identity sums in a different order).
struct TemplateSession<'a> {
    model: &'a TemplateMatcher,
    /// Running Σ p_j·t_cj per class.
    dot: Vec<f64>,
    sum: f64,
    sumsq: f64,
    len: usize,
    decision: Decision,
}

impl TemplateSession<'_> {
    /// Length-normalized z-distance to class `c`'s template head at prefix
    /// length `l` (`l ≥ 1`), from the running sums.
    fn distance_at(&self, c: usize, l: usize) -> f64 {
        let lf = l as f64;
        let mu_p = self.sum / lf;
        let sd_p = (self.sumsq / lf - mu_p * mu_p).max(0.0).sqrt();
        let mu_t = self.model.cum_t[c][l] / lf;
        let sd_t = (self.model.cum_t2[c][l] / lf - mu_t * mu_t).max(0.0).sqrt();
        let p_const = sd_p <= CONSTANT_EPS;
        let t_const = sd_t <= CONSTANT_EPS;
        let d2 = match (p_const, t_const) {
            // Both z-normalize to zero vectors.
            (true, true) => 0.0,
            // One side is the zero vector; the other has ‖ẑ‖² = l.
            (true, false) | (false, true) => lf,
            (false, false) => {
                let corr = (self.dot[c] - lf * mu_t * mu_p) / (sd_t * sd_p);
                (2.0 * (lf - corr)).max(0.0)
            }
        };
        d2.sqrt() / lf.sqrt()
    }
}

impl DecisionSession for TemplateSession<'_> {
    fn push(&mut self, x: f64) -> Decision {
        if self.decision.is_predict() {
            self.len += 1;
            return self.decision; // latched: count the sample, skip the work
        }
        let model = self.model;
        let series_len = model.templates[0].len();
        if self.len < series_len {
            let j = self.len;
            self.sum += x;
            self.sumsq += x * x;
            for (acc, t) in self.dot.iter_mut().zip(&model.templates) {
                *acc += x * t[j];
            }
        }
        self.len += 1;
        let l = self.len.min(series_len);
        if self.len < model.min_prefix {
            return Decision::Wait;
        }
        let mut best: Option<(ClassLabel, f64)> = None;
        for c in 0..model.templates.len() {
            let d = self.distance_at(c, l);
            if d <= model.threshold && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((c, d));
            }
        }
        self.decision = match best {
            Some((label, d)) => Decision::Predict {
                label,
                confidence: (1.0 - d / model.threshold).clamp(0.0, 1.0),
            },
            None => Decision::Wait,
        };
        self.decision
    }

    fn decision(&self) -> Decision {
        self.decision
    }

    fn len(&self) -> usize {
        self.len
    }

    fn reset(&mut self) {
        self.dot.fill(0.0);
        self.sum = 0.0;
        self.sumsq = 0.0;
        self.len = 0;
        self.decision = Decision::Wait;
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u8(session_tags::TEMPLATE);
        enc.put_f64_slice(&self.dot);
        enc.put_f64(self.sum);
        enc.put_f64(self.sumsq);
        enc.put_usize(self.len);
        put_decision(enc, self.decision);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> UcrDataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            for i in 0..5 {
                let jitter = 0.02 * i as f64;
                data.push(
                    (0..40)
                        .map(|j| {
                            let t = j as f64 / 40.0;
                            if c == 0 {
                                (std::f64::consts::TAU * t).sin() + jitter
                            } else {
                                t * 2.0 - 1.0 + jitter
                            }
                        })
                        .collect(),
                );
                labels.push(c);
            }
        }
        UcrDataset::new(data, labels).unwrap()
    }

    #[test]
    fn matches_own_class_and_rejects_noise() {
        let train = toy();
        let m = TemplateMatcher::from_centroids(&train, 0.3, 10);
        // A class-0 exemplar commits correctly.
        let d = m.decide(train.series(0));
        assert_eq!(d.label(), Some(0));
        // Structureless noise is rejected (open world).
        let noise: Vec<f64> = (0..40)
            .map(|i| ((i * 2654435761_usize) % 97) as f64)
            .collect();
        assert_eq!(m.decide(&noise), Decision::Wait);
    }

    #[test]
    fn prefix_matching_is_early() {
        let train = toy();
        let m = TemplateMatcher::from_centroids(&train, 0.3, 10);
        // Half a class-1 exemplar already matches.
        let d = m.decide(&train.series(5)[..20]);
        assert_eq!(d.label(), Some(1));
    }

    #[test]
    fn calibrated_threshold_accepts_training_data() {
        let train = toy();
        let thr = TemplateMatcher::calibrate_threshold(&train, 0.95);
        let m = TemplateMatcher::from_centroids(&train, thr, 10);
        let accepted = train
            .iter()
            .filter(|(s, label)| m.decide(s).label() == Some(*label))
            .count();
        assert!(accepted >= 9, "accepted only {accepted}/10");
    }

    #[test]
    fn matcher_is_shift_and_scale_invariant() {
        let train = toy();
        let m = TemplateMatcher::from_centroids(&train, 0.3, 10);
        let moved: Vec<f64> = train.series(0).iter().map(|&v| 100.0 + 5.0 * v).collect();
        assert_eq!(m.decide(&moved).label(), Some(0));
    }

    #[test]
    fn predict_full_picks_nearest_template() {
        let train = toy();
        let m = TemplateMatcher::from_centroids(&train, 0.3, 10);
        assert_eq!(m.predict_full(train.series(1)), 0);
        assert_eq!(m.predict_full(train.series(6)), 1);
    }

    #[test]
    #[should_panic(expected = "share a non-empty length")]
    fn rejects_ragged_templates() {
        let _ = TemplateMatcher::from_templates(vec![vec![1.0, 2.0], vec![1.0]], 0.5, 2);
    }

    #[test]
    fn session_tracks_decide_within_tolerance() {
        let train = toy();
        let m = TemplateMatcher::from_centroids(&train, 0.3, 10);
        for (probe, _) in train.iter() {
            let mut s = m.session(SessionNorm::Raw);
            for t in 0..probe.len() {
                let inc = s.push(probe[t]);
                let batch = m.decide(&probe[..t + 1]);
                assert_eq!(inc.is_predict(), batch.is_predict(), "prefix {}", t + 1);
                if let (Some((li, ci)), Some((lb, cb))) =
                    (inc.label_confidence(), batch.label_confidence())
                {
                    assert_eq!(li, lb, "prefix {}", t + 1);
                    assert!((ci - cb).abs() < 1e-6, "confidence {ci} vs {cb}");
                    break; // sessions latch at the first commit
                }
            }
        }
    }

    #[test]
    fn session_is_shift_scale_invariant_like_decide() {
        let train = toy();
        let m = TemplateMatcher::from_centroids(&train, 0.3, 10);
        let probe = train.series(0);
        let moved: Vec<f64> = probe.iter().map(|&v| 100.0 + 5.0 * v).collect();
        let run = |xs: &[f64]| {
            let mut s = m.session(SessionNorm::PerPrefix);
            let mut committed = None;
            for (t, &x) in xs.iter().enumerate() {
                if let Some(lc) = s.push(x).label_confidence() {
                    committed = Some((t, lc.0));
                    break;
                }
            }
            committed
        };
        let a = run(probe);
        let b = run(&moved);
        assert_eq!(a, b, "affine-transformed stream must match identically");
        assert!(a.is_some());
    }

    #[test]
    fn session_rejects_noise_like_decide() {
        let train = toy();
        let m = TemplateMatcher::from_centroids(&train, 0.3, 10);
        let noise: Vec<f64> = (0..40)
            .map(|i| ((i * 2654435761_usize) % 97) as f64)
            .collect();
        let mut s = m.session(SessionNorm::Raw);
        for &x in &noise {
            assert_eq!(s.push(x), Decision::Wait);
        }
    }
}
