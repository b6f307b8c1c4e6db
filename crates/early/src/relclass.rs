//! RelClass — reliable early classification from incomplete information
//! (after Parrish et al., JMLR 2013) — and its LDG variant.
//!
//! The idea: model each class as a Gaussian over the *full-length* series.
//! A prefix is then scored under each class's **marginal** distribution over
//! the observed coordinates (for a Gaussian, simply the leading sub-vector
//! and principal submatrix). The classifier commits once the decision is
//! *reliable* — once the posterior computed from the prefix favors one class
//! by at least τ.
//!
//! **Documented substitution** (see DESIGN.md): Parrish et al. bound the
//! probability that the prefix decision will agree with the eventual
//! full-length decision by solving a quadratic program over the unseen
//! suffix ("the box method"). We operationalize reliability as the posterior
//! margin `P(best | prefix) − P(second | prefix)` of the same class-
//! conditional Gaussians, *discounted by the observed fraction* `t / L` of
//! the series — the unseen suffix carries `(L − t)` coordinates of variance
//! that could still overturn the decision, so reliability cannot approach 1
//! until most of the series has arrived. Both our proxy and Parrish's bound
//! grow as the prefix pins down the class, both reach 1 only with (near-)
//! complete observation, and the τ = 0.1 operating point of Table 1 keeps
//! the same "commit early, tolerate residual uncertainty" meaning.
//!
//! * **Rel. Class.** — per-class diagonal covariances (quadratic boundary).
//! * **LDG Rel. Class.** — pooled ("linear discriminant Gaussian")
//!   covariance, giving a linear boundary.
//!
//! ## The reliability early-out
//!
//! Sessions bound the margin before paying for the softmax. With `g` the
//! gap between the top two calibrated (`/t`-scaled) logits, the posterior
//! margin is `p₁ − p₂ ≤ tanh(g/2) ≤ g/2` for any class count (see
//! [`ScoreSession::logit_gap`]), so a push with
//! `(g/2)·observed < τ − 1e-9` returns `Wait` without the softmax. The
//! `1e-9` slack covers the softmax's rounding. A non-finite logit or fewer
//! than two classes gives no bound, and the exact path runs whenever the
//! bound cannot rule out a commit, so decisions and confidences are
//! bit-identical to the ungated evaluation.

use etsc_classifiers::gaussian::{
    softmax_of_logs_in_place, CovarianceKind, GaussianLikelihoodSession, GaussianModel,
    GaussianZnormSession,
};
use etsc_classifiers::{top_logit_gap, Classifier, ScoreSession, COMMIT_GATE_SLACK};
use etsc_core::{ClassLabel, UcrDataset};
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::{
    expect_norm, expect_session_tag, get_decision, put_decision, put_norm, session_tags, Decision,
    DecisionSession, EarlyClassifier, SessionNorm,
};

/// RelClass hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct RelClassConfig {
    /// Reliability threshold τ ∈ [0, 1]. Table 1 uses 0.1.
    pub tau: f64,
    /// Covariance structure: `Diagonal` = Rel. Class., `PooledDiagonal` =
    /// LDG Rel. Class., `Full` = QDA variant on short series.
    pub covariance: CovarianceKind,
    /// Smallest prefix length considered.
    pub min_prefix: usize,
}

impl Default for RelClassConfig {
    fn default() -> Self {
        Self {
            tau: 0.1,
            covariance: CovarianceKind::Diagonal,
            min_prefix: 3,
        }
    }
}

impl RelClassConfig {
    /// The LDG (pooled covariance) variant at the given τ.
    pub fn ldg(tau: f64) -> Self {
        Self {
            tau,
            covariance: CovarianceKind::PooledDiagonal,
            min_prefix: 3,
        }
    }
}

/// A fitted RelClass model.
///
/// Its sessions skip the softmax on pushes whose logit gap proves τ out of
/// reach, with bit-identical decisions (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct RelClass {
    model: GaussianModel,
    tau: f64,
    min_prefix: usize,
}

impl RelClass {
    /// Fit the Gaussian class models on `train`.
    pub fn fit(train: &UcrDataset, cfg: &RelClassConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.tau), "τ must be in [0, 1]");
        Self {
            model: GaussianModel::fit(train, cfg.covariance),
            tau: cfg.tau,
            min_prefix: cfg.min_prefix.max(1),
        }
    }

    /// Calibrated class posterior over a prefix.
    ///
    /// Naive-Bayes log-likelihoods *sum* per-coordinate evidence, so even a
    /// non-discriminating region drives the softmax to saturation once
    /// enough coordinates accumulate. RelClass therefore scores classes by
    /// the **mean** log-likelihood per observed coordinate — the posterior
    /// then reflects how discriminating the observed region actually is,
    /// which is what the reliability judgment needs.
    pub fn calibrated_posterior(&self, prefix: &[f64]) -> Vec<f64> {
        let t = prefix.len().min(self.model.series_len()).max(1) as f64;
        let logs: Vec<f64> = (0..self.model.n_classes())
            .map(|c| {
                (self.model.class_log_prior(c) + self.model.log_likelihood_prefix(c, prefix)) / t
            })
            .collect();
        etsc_classifiers::gaussian::softmax_of_logs(&logs)
    }

    /// Reliability proxy for a prefix: calibrated posterior margin
    /// discounted by the fraction of the series observed (the unseen suffix
    /// could still overturn the decision).
    pub fn reliability(&self, prefix: &[f64]) -> f64 {
        let p = self.calibrated_posterior(prefix);
        let (best, second) = crate::top_two(&p);
        let observed =
            prefix.len().min(self.model.series_len()) as f64 / self.model.series_len() as f64;
        (best - second) * observed
    }
}

impl EarlyClassifier for RelClass {
    fn n_classes(&self) -> usize {
        self.model.n_classes()
    }

    fn series_len(&self) -> usize {
        self.model.series_len()
    }

    fn min_prefix(&self) -> usize {
        self.min_prefix
    }

    fn decide(&self, prefix: &[f64]) -> Decision {
        if prefix.len() < self.min_prefix {
            return Decision::Wait;
        }
        let p = self.calibrated_posterior(prefix);
        let label = etsc_classifiers::argmax(&p);
        if self.reliability(prefix) >= self.tau {
            Decision::Predict {
                label,
                confidence: p[label],
            }
        } else {
            Decision::Wait
        }
    }

    fn session(&self, norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
        // Every covariance kind and both norms run incrementally.
        // * Raw: the likelihood accumulator — per-coordinate sums for
        //   diagonal kinds (O(classes) per sample), one forward-substitution
        //   row per class for Full (O(classes × prefix) per sample, vs
        //   O(classes × prefix³) for refactoring per push) — and decisions
        //   reproduce `decide` exactly.
        // * PerPrefix: the z-norm running-sums algebra (see
        //   `GaussianZnormSession`), which applies each prefix-wide
        //   mean/std change as a closed-form update instead of replaying
        //   the prefix; decisions track `decide(&znormalize(prefix))` to
        //   floating-point reassociation tolerance.
        let scorer = match norm {
            SessionNorm::Raw => LikelihoodScorer::Raw(self.model.likelihood_session()),
            SessionNorm::PerPrefix => {
                LikelihoodScorer::Znorm(self.model.znorm_likelihood_session())
            }
        };
        Box::new(RelClassSession {
            model: self,
            scorer,
            ll: vec![0.0; self.model.n_classes()],
            posterior: vec![0.0; self.model.n_classes()],
            len: 0,
            decision: Decision::Wait,
        })
    }

    fn predict_full(&self, series: &[f64]) -> ClassLabel {
        self.model.predict(series)
    }

    fn resume_session(
        &self,
        norm: SessionNorm,
        dec: &mut Decoder<'_>,
    ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
        expect_session_tag(dec, session_tags::RELCLASS)?;
        expect_norm(dec, norm)?;
        let mut scorer = match norm {
            SessionNorm::Raw => LikelihoodScorer::Raw(self.model.likelihood_session()),
            SessionNorm::PerPrefix => {
                LikelihoodScorer::Znorm(self.model.znorm_likelihood_session())
            }
        };
        {
            let mut sub = dec.section("relclass scorer")?;
            match &mut scorer {
                LikelihoodScorer::Raw(s) => s.load_state(&mut sub)?,
                LikelihoodScorer::Znorm(s) => s.load_state(&mut sub)?,
            }
            sub.finish()?;
        }
        let len = dec.get_usize("relclass len")?;
        let decision = get_decision(dec, self.model.n_classes())?;
        Ok(Box::new(RelClassSession {
            model: self,
            scorer,
            ll: vec![0.0; self.model.n_classes()],
            posterior: vec![0.0; self.model.n_classes()],
            len,
            decision,
        }))
    }
}

impl Persist for RelClass {
    const KIND: &'static str = "RelClass";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.section(|e| self.model.encode_body(e));
        enc.put_f64(self.tau);
        enc.put_usize(self.min_prefix);
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let mut sub = dec.section("relclass model")?;
        let model = GaussianModel::decode_body(&mut sub)?;
        sub.finish()?;
        let tau = dec.get_f64("relclass tau")?;
        if !(0.0..=1.0).contains(&tau) {
            return Err(PersistError::Corrupt(format!("relclass: tau {tau}")));
        }
        let min_prefix = dec.get_usize("relclass min_prefix")?.max(1);
        Ok(Self {
            model,
            tau,
            min_prefix,
        })
    }
}

/// The per-class log-likelihood accumulator behind a [`RelClassSession`]:
/// raw samples feed a [`GaussianLikelihoodSession`] (exact), per-prefix
/// z-normalized sessions feed a [`GaussianZnormSession`] (running-sums
/// algebra, documented tolerance).
enum LikelihoodScorer<'a> {
    Raw(GaussianLikelihoodSession<'a>),
    Znorm(GaussianZnormSession<'a>),
}

impl LikelihoodScorer<'_> {
    fn push(&mut self, x: f64) {
        match self {
            LikelihoodScorer::Raw(s) => s.push(x),
            LikelihoodScorer::Znorm(s) => s.push(x),
        }
    }

    fn len(&self) -> usize {
        match self {
            LikelihoodScorer::Raw(s) => s.len(),
            LikelihoodScorer::Znorm(s) => s.len(),
        }
    }

    fn log_likelihoods_into(&self, out: &mut [f64]) {
        match self {
            LikelihoodScorer::Raw(s) => out.copy_from_slice(s.log_likelihoods()),
            LikelihoodScorer::Znorm(s) => s.log_likelihoods_into(out),
        }
    }

    fn reset(&mut self) {
        match self {
            LikelihoodScorer::Raw(s) => s.reset(),
            LikelihoodScorer::Znorm(s) => s.reset(),
        }
    }
}

/// Incremental RelClass session over Gaussian class models.
///
/// The scorer accumulates each class's log-likelihood as samples arrive
/// (see [`LikelihoodScorer`]), and the calibrated posterior, reliability
/// discount, and τ-gate are evaluated on those running sums — amortized
/// O(classes) per sample for diagonal covariances versus
/// O(classes × prefix) for the stateless [`RelClass::decide`] (for the Full
/// covariance the gap is prefix² per push: one forward-substitution row
/// instead of a fresh factor-and-solve).
struct RelClassSession<'a> {
    model: &'a RelClass,
    scorer: LikelihoodScorer<'a>,
    /// Scratch: per-class log-likelihoods as of the last push.
    ll: Vec<f64>,
    posterior: Vec<f64>,
    /// Samples consumed, counted independently of the scorer so latched
    /// pushes stay O(1).
    len: usize,
    decision: Decision,
}

impl DecisionSession for RelClassSession<'_> {
    fn push(&mut self, x: f64) -> Decision {
        self.len += 1;
        if self.decision.is_predict() {
            return self.decision; // latched: count the sample, skip the work
        }
        self.scorer.push(x);
        let model = self.model;
        if self.scorer.len() < model.min_prefix {
            return Decision::Wait;
        }
        // Calibrated posterior: mean log-likelihood per observed coordinate
        // (mirrors `calibrated_posterior`).
        let series_len = model.model.series_len();
        let t = self.scorer.len().min(series_len).max(1) as f64;
        self.scorer.log_likelihoods_into(&mut self.ll);
        for (c, out) in self.posterior.iter_mut().enumerate() {
            *out = (model.model.class_log_prior(c) + self.ll[c]) / t;
        }
        let observed = self.scorer.len().min(series_len) as f64 / series_len as f64;
        // The reliability early-out (module docs): the margin is at most
        // g/2, so this push provably cannot reach τ.
        if top_logit_gap(self.posterior.iter().copied())
            .is_some_and(|g| g / 2.0 * observed < model.tau - COMMIT_GATE_SLACK)
        {
            return Decision::Wait;
        }
        softmax_of_logs_in_place(&mut self.posterior);
        let label = etsc_classifiers::argmax(&self.posterior);
        // Reliability: posterior margin discounted by observed fraction
        // (mirrors `reliability`).
        let (best, second) = crate::top_two(&self.posterior);
        if (best - second) * observed >= model.tau {
            self.decision = Decision::Predict {
                label,
                confidence: self.posterior[label],
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
        self.scorer.reset();
        self.len = 0;
        self.decision = Decision::Wait;
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u8(session_tags::RELCLASS);
        put_norm(
            enc,
            match self.scorer {
                LikelihoodScorer::Raw(_) => SessionNorm::Raw,
                LikelihoodScorer::Znorm(_) => SessionNorm::PerPrefix,
            },
        );
        enc.try_section(|e| match &self.scorer {
            LikelihoodScorer::Raw(s) => s.save_state(e),
            LikelihoodScorer::Znorm(s) => s.save_state(e),
        })?;
        enc.put_usize(self.len);
        put_decision(enc, self.decision);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate, PrefixPolicy};

    fn toy(n: usize, len: usize, gap: f64) -> UcrDataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            for i in 0..n {
                data.push(
                    (0..len)
                        .map(|j| {
                            c as f64 * gap + 0.2 * (((i * 13 + j * 7) % 10) as f64 / 10.0 - 0.5)
                        })
                        .collect(),
                );
                labels.push(c);
            }
        }
        UcrDataset::new(data, labels).unwrap()
    }

    #[test]
    fn commits_early_on_separated_classes() {
        let train = toy(10, 30, 3.0);
        let rc = RelClass::fit(&train, &RelClassConfig::default());
        let test = toy(5, 30, 3.0);
        let ev = evaluate(&rc, &test, PrefixPolicy::Oracle);
        assert!(ev.accuracy() >= 0.9, "accuracy {}", ev.accuracy());
        assert!(ev.earliness() < 0.35, "earliness {}", ev.earliness());
    }

    #[test]
    fn higher_tau_delays_commitment() {
        let train = toy(10, 30, 0.8);
        let test = toy(5, 30, 0.8);
        let lo = RelClass::fit(
            &train,
            &RelClassConfig {
                tau: 0.05,
                ..Default::default()
            },
        );
        let hi = RelClass::fit(
            &train,
            &RelClassConfig {
                tau: 0.9,
                ..Default::default()
            },
        );
        let e_lo = evaluate(&lo, &test, PrefixPolicy::Oracle).earliness();
        let e_hi = evaluate(&hi, &test, PrefixPolicy::Oracle).earliness();
        assert!(e_lo <= e_hi + 1e-9, "τ=0.05 ({e_lo}) vs τ=0.9 ({e_hi})");
    }

    #[test]
    fn ldg_variant_works() {
        let train = toy(10, 20, 2.0);
        let rc = RelClass::fit(&train, &RelClassConfig::ldg(0.1));
        let test = toy(5, 20, 2.0);
        let ev = evaluate(&rc, &test, PrefixPolicy::Oracle);
        assert!(ev.accuracy() >= 0.9);
    }

    #[test]
    fn reliability_grows_with_prefix_on_separated_data() {
        let train = toy(10, 30, 3.0);
        let rc = RelClass::fit(&train, &RelClassConfig::default());
        let probe: Vec<f64> = vec![0.0; 30];
        let r_short = rc.reliability(&probe[..4]);
        let r_long = rc.reliability(&probe[..25]);
        assert!(r_long >= r_short - 1e-9, "short {r_short} long {r_long}");
        assert!(r_long > 0.8);
    }

    #[test]
    fn waits_below_min_prefix() {
        let train = toy(6, 20, 3.0);
        let rc = RelClass::fit(&train, &RelClassConfig::default());
        assert_eq!(rc.decide(&[0.0, 0.0]), Decision::Wait);
    }

    #[test]
    fn predict_full_is_bayes_decision() {
        let train = toy(10, 20, 2.0);
        let rc = RelClass::fit(&train, &RelClassConfig::default());
        assert_eq!(rc.predict_full(&[0.0; 20]), 0);
        assert_eq!(rc.predict_full(&[2.0; 20]), 1);
    }

    #[test]
    fn diagonal_session_reproduces_decide_exactly() {
        let train = toy(10, 30, 0.8);
        for cfg in [RelClassConfig::default(), RelClassConfig::ldg(0.1)] {
            let rc = RelClass::fit(&train, &cfg);
            for probe_idx in [0, train.len() - 1] {
                let probe = train.series(probe_idx);
                let mut s = rc.session(crate::SessionNorm::Raw);
                for t in 0..probe.len() {
                    let inc = s.push(probe[t]);
                    let batch = rc.decide(&probe[..t + 1]);
                    assert_eq!(inc, batch, "probe {probe_idx} prefix {}", t + 1);
                    if inc.is_predict() {
                        break; // sessions latch at the first commit
                    }
                }
            }
        }
    }

    #[test]
    fn full_covariance_session_reproduces_decide_exactly() {
        // The Full-kind session extends one forward-substitution row per
        // push against the covariance factor computed at fit time — the
        // same arithmetic, in the same order, as the batch path, so the
        // equivalence is exact (not merely toleranced).
        let train = toy(10, 12, 2.0);
        let rc = RelClass::fit(
            &train,
            &RelClassConfig {
                covariance: CovarianceKind::Full,
                ..Default::default()
            },
        );
        for probe_idx in [0, train.len() - 1] {
            let probe = train.series(probe_idx);
            let mut s = rc.session(crate::SessionNorm::Raw);
            for t in 0..probe.len() {
                let inc = s.push(probe[t]);
                assert_eq!(inc, rc.decide(&probe[..t + 1]), "prefix {}", t + 1);
                if inc.is_predict() {
                    break;
                }
            }
        }
    }

    #[test]
    fn per_prefix_session_tracks_znormalized_decide() {
        use etsc_core::znorm::znormalize;
        let train = toy(10, 30, 0.8);
        for cfg in [
            RelClassConfig::default(),
            RelClassConfig::ldg(0.1),
            RelClassConfig {
                covariance: CovarianceKind::Full,
                ..Default::default()
            },
        ] {
            let rc = RelClass::fit(&train, &cfg);
            for probe_idx in [0, train.len() - 1] {
                let probe = train.series(probe_idx);
                let mut s = rc.session(crate::SessionNorm::PerPrefix);
                for t in 0..probe.len() {
                    let inc = s.push(probe[t]);
                    let batch = rc.decide(&znormalize(&probe[..t + 1]));
                    // Running-sums algebra: same arithmetic regrouped, so
                    // commits may shift only where the margin grazes τ
                    // within fp noise; labels and confidences must agree.
                    assert_eq!(
                        inc.is_predict(),
                        batch.is_predict(),
                        "{:?} probe {probe_idx} prefix {}",
                        cfg.covariance,
                        t + 1
                    );
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
    }

    #[test]
    #[should_panic(expected = "τ must be in")]
    fn rejects_bad_tau() {
        let train = toy(4, 10, 1.0);
        let _ = RelClass::fit(
            &train,
            &RelClassConfig {
                tau: 1.5,
                ..Default::default()
            },
        );
    }
}
