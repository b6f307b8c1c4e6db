//! Evaluation of early classifiers: accuracy, earliness, and the harmonic
//! mean used across the ETSC literature — under an explicit prefix
//! normalization policy.
//!
//! The policy is the crux of Section 4 of the paper. UCR-style evaluation
//! slices prefixes from *already z-normalized* exemplars, which implicitly
//! standardizes each prefix with statistics of points that have not arrived
//! yet ("peeking into the future"). A deployable system can only normalize
//! the prefix it has actually seen — or not normalize at all.

use etsc_core::znorm::znormalize;
use etsc_core::{ClassLabel, UcrDataset};

use crate::{Decision, EarlyClassifier, SessionNorm};

/// How prefixes handed to the classifier are normalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixPolicy {
    /// Slice prefixes from the full z-normalized series (requires the test
    /// set to be z-normalized). This is the UCR-evaluation convention — and
    /// it peeks into the future.
    Oracle,
    /// Z-normalize each prefix independently using only its own points —
    /// what an honest deployment can do (TEASER's convention, footnote 2).
    PerPrefix,
    /// Feed raw prefixes unchanged.
    Raw,
}

/// Outcome for a single test exemplar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceResult {
    /// Predicted class.
    pub predicted: ClassLabel,
    /// True class.
    pub actual: ClassLabel,
    /// Prefix length at which the classifier committed (series length if it
    /// never did and the fallback fired).
    pub length_used: usize,
    /// Whether `decide` committed before the fallback.
    pub committed_early: bool,
}

/// Aggregate evaluation of an early classifier on a test set.
#[derive(Debug, Clone)]
pub struct EarlyEvaluation {
    /// Per-exemplar outcomes, in test order.
    pub instances: Vec<InstanceResult>,
    /// Full series length (denominator of earliness).
    pub series_len: usize,
}

impl EarlyEvaluation {
    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances
            .iter()
            .filter(|r| r.predicted == r.actual)
            .count() as f64
            / self.instances.len() as f64
    }

    /// Mean fraction of the series consumed before committing (lower is
    /// earlier).
    pub fn earliness(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .instances
            .iter()
            .map(|r| r.length_used as f64 / self.series_len as f64)
            .sum();
        sum / self.instances.len() as f64
    }

    /// Harmonic mean of accuracy and (1 - earliness), the combined score
    /// used by TEASER and successors.
    ///
    /// Defined as **0.0** when accuracy and (1 − earliness) are both 0 —
    /// the worst-possible corner (every prediction wrong, every commitment
    /// at full length), where the raw formula is 0/0. This matches the
    /// ETSC-literature convention (the harmonic mean is 0 whenever either
    /// component is 0) instead of propagating NaN into score tables. The
    /// guard keys on the numerator, so a denominator driven to 0.0 by
    /// floating-point cancellation can never produce NaN or ±∞ either.
    pub fn harmonic_mean(&self) -> f64 {
        let a = self.accuracy();
        let e = 1.0 - self.earliness();
        let num = 2.0 * a * e;
        if num <= 0.0 {
            0.0
        } else {
            num / (a + e)
        }
    }

    /// Fraction of exemplars where the classifier committed before the
    /// full-length fallback.
    pub fn commit_rate(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances.iter().filter(|r| r.committed_early).count() as f64
            / self.instances.len() as f64
    }
}

/// Run `clf` over one series, growing the prefix one point at a time, and
/// return the first commitment (or the full-length fallback).
///
/// Under `Oracle`/`Raw` the series is streamed through an incremental
/// [`DecisionSession`](crate::DecisionSession) — O(series) total for
/// classifiers with incremental sessions, where the old grow-the-prefix
/// `decide` loop was O(series²). Session/decide equivalence (asserted per
/// algorithm by property tests) makes this a pure speedup. `PerPrefix`
/// keeps the explicit re-normalize-and-decide loop: its published meaning
/// is "decide on the z-normalization of each whole prefix", which is not
/// incrementally computable in general.
pub fn classify_stream<C: EarlyClassifier + ?Sized>(
    clf: &C,
    series: &[f64],
    policy: PrefixPolicy,
) -> (ClassLabel, usize, bool) {
    let n = series.len();
    match policy {
        PrefixPolicy::Oracle | PrefixPolicy::Raw => {
            let mut session = clf.session(SessionNorm::Raw);
            for (i, &x) in series.iter().enumerate() {
                if let Decision::Predict { label, .. } = session.push(x) {
                    return (label, i + 1, true);
                }
            }
            (clf.predict_full(series), n, false)
        }
        PrefixPolicy::PerPrefix => {
            let start = clf.min_prefix().clamp(1, n);
            for len in start..=n {
                let decision = clf.decide(&znormalize(&series[..len]));
                if let Decision::Predict { label, .. } = decision {
                    return (label, len, true);
                }
            }
            (clf.predict_full(&znormalize(series)), n, false)
        }
    }
}

/// Evaluate an early classifier over a test set.
///
/// Under `PrefixPolicy::Oracle` the caller should pass a z-normalized test
/// set (the UCR convention); under `PerPrefix`/`Raw` pass raw data.
pub fn evaluate<C: EarlyClassifier + ?Sized>(
    clf: &C,
    test: &UcrDataset,
    policy: PrefixPolicy,
) -> EarlyEvaluation {
    let instances = test
        .iter()
        .map(|(s, actual)| {
            let (predicted, length_used, committed_early) = classify_stream(clf, s, policy);
            InstanceResult {
                predicted,
                actual,
                length_used,
                committed_early,
            }
        })
        .collect();
    EarlyEvaluation {
        instances,
        series_len: test.series_len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::FixedCommit;

    fn toy_test() -> UcrDataset {
        UcrDataset::new(
            vec![vec![0.0; 10], vec![1.0; 10], vec![2.0; 10], vec![3.0; 10]],
            vec![0, 0, 0, 1],
        )
        .unwrap()
    }

    #[test]
    fn committing_classifier_uses_commit_length() {
        let clf = FixedCommit { commit_at: 4 };
        let ev = evaluate(&clf, &toy_test(), PrefixPolicy::Raw);
        assert_eq!(ev.instances.len(), 4);
        for r in &ev.instances {
            assert_eq!(r.length_used, 4);
            assert!(r.committed_early);
            assert_eq!(r.predicted, 0);
        }
        assert!((ev.accuracy() - 0.75).abs() < 1e-12);
        assert!((ev.earliness() - 0.4).abs() < 1e-12);
        assert!((ev.commit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn never_committing_classifier_falls_back() {
        let clf = FixedCommit { commit_at: 99 };
        let ev = evaluate(&clf, &toy_test(), PrefixPolicy::Raw);
        for r in &ev.instances {
            assert_eq!(r.length_used, 10);
            assert!(!r.committed_early);
            assert_eq!(r.predicted, 1);
        }
        assert!((ev.accuracy() - 0.25).abs() < 1e-12);
        assert!((ev.earliness() - 1.0).abs() < 1e-12);
        assert_eq!(ev.commit_rate(), 0.0);
    }

    #[test]
    fn harmonic_mean_matches_formula() {
        let clf = FixedCommit { commit_at: 5 };
        let ev = evaluate(&clf, &toy_test(), PrefixPolicy::Raw);
        let a = ev.accuracy();
        let e = 1.0 - ev.earliness();
        assert!((ev.harmonic_mean() - 2.0 * a * e / (a + e)).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_is_zero_not_nan_at_worst_corner() {
        // Every prediction wrong, every commitment at full length:
        // accuracy = 0 and (1 − earliness) = 0, the 0/0 corner.
        let ev = EarlyEvaluation {
            instances: vec![
                InstanceResult {
                    predicted: 1,
                    actual: 0,
                    length_used: 10,
                    committed_early: false,
                },
                InstanceResult {
                    predicted: 0,
                    actual: 1,
                    length_used: 10,
                    committed_early: false,
                },
            ],
            series_len: 10,
        };
        assert_eq!(ev.accuracy(), 0.0);
        assert_eq!(ev.earliness(), 1.0);
        let h = ev.harmonic_mean();
        assert!(!h.is_nan(), "harmonic mean must not be NaN");
        assert_eq!(h, 0.0, "0/0 corner is defined as 0 (ETSC convention)");
    }

    #[test]
    fn per_prefix_policy_normalizes() {
        /// Records whether incoming prefixes are z-normalized.
        struct NormProbe;
        impl EarlyClassifier for NormProbe {
            fn n_classes(&self) -> usize {
                2
            }
            fn series_len(&self) -> usize {
                8
            }
            fn min_prefix(&self) -> usize {
                4
            }
            fn decide(&self, prefix: &[f64]) -> Decision {
                // Commit with confidence 1 only if prefix is z-normalized.
                if etsc_core::znorm::is_znormalized(prefix, 1e-6) {
                    Decision::Predict {
                        label: 0,
                        confidence: 1.0,
                    }
                } else {
                    Decision::Wait
                }
            }
            fn predict_full(&self, _s: &[f64]) -> usize {
                1
            }
        }
        let test = UcrDataset::new(vec![vec![5.0, 7.0, 9.0, 11.0, 13.0]], vec![0]).unwrap();
        let raw = evaluate(&NormProbe, &test, PrefixPolicy::Raw);
        assert_eq!(
            raw.instances[0].predicted, 1,
            "raw prefixes are not normalized"
        );
        let pp = evaluate(&NormProbe, &test, PrefixPolicy::PerPrefix);
        assert_eq!(pp.instances[0].predicted, 0);
        assert_eq!(pp.instances[0].length_used, 4, "commits at min_prefix");
    }

    #[test]
    fn empty_evaluation_is_zeroes() {
        let ev = EarlyEvaluation {
            instances: vec![],
            series_len: 10,
        };
        assert_eq!(ev.accuracy(), 0.0);
        assert_eq!(ev.earliness(), 0.0);
        assert_eq!(ev.harmonic_mean(), 0.0);
        assert_eq!(ev.commit_rate(), 0.0);
    }
}
