#![warn(missing_docs)]
// Numeric kernels below index several parallel arrays per iteration; explicit
// index loops are the clearer idiom there.
#![allow(clippy::needless_range_loop)]

//! # etsc-classifiers
//!
//! Classic (whole-series) time series classification — the substrate the
//! early-classification algorithms of `etsc-early` are built from, and the
//! baseline the paper contrasts them with.
//!
//! * [`knn`] — k-nearest-neighbor classification under Euclidean distance or
//!   DTW (with an LB_Kim/LB_Keogh lower-bounding cascade), the de-facto UCR
//!   baseline.
//! * [`centroid`] — nearest-centroid classification, used as a cheap
//!   probabilistic slave.
//! * [`gaussian`] — Gaussian class-conditional models (diagonal or full
//!   covariance), the machinery behind RelClass.
//! * [`linalg`] — the minimal dense linear algebra (Cholesky) the Gaussian
//!   models need; written in-repo per the workspace's no-extra-deps rule.
//! * [`sfa`] / [`weasel`] — Symbolic Fourier Approximation and a
//!   bag-of-SFA-words classifier ("WEASEL-lite"), our from-scratch stand-in
//!   for the WEASEL slaves TEASER uses.
//! * [`logistic`] — one-vs-rest logistic regression trained by SGD.
//! * [`eval`] — accuracy, confusion matrices, cross-validation.
//!
//! ## Streaming substrate
//!
//! The early-classification layer above this crate is streaming-first: it
//! evaluates classifiers on *growing* prefixes, one sample at a time. Two
//! pieces of this crate exist to make that cheap:
//!
//! * [`Classifier::predict_proba_into`] writes probabilities into a
//!   caller-provided buffer, eliminating the per-call `Vec` allocation on
//!   hot paths.
//! * [`Classifier::score_session`] opens an incremental [`ScoreSession`]
//!   whose per-sample cost does not grow with the prefix length (for models
//!   whose scores decompose coordinate-wise — nearest-centroid and diagonal
//!   Gaussians). Models without an incremental form return `None` and
//!   callers fall back to whole-prefix rescoring.
//! * [`Classifier::score_lanes`] holds many such sessions over one stream —
//!   the candidate onsets of a stream monitor — as one [`ScoreLanes`]
//!   block advanced in one loop (nearest-centroid). Models without a lane
//!   form return `None` and callers drive one session per lane.

pub mod centroid;
pub mod eval;
pub mod gaussian;
pub mod knn;
pub mod linalg;
pub mod logistic;
pub mod sfa;
pub mod weasel;

use etsc_core::ClassLabel;
use etsc_persist::{Decoder, Encoder, PersistError};

/// A fitted whole-series classifier.
///
/// `predict_proba` returns a probability vector over `0..n_classes`;
/// implementations that are not naturally probabilistic return normalized
/// scores (documented per type).
///
/// `Sync` is a supertrait so fitted models can be shared by reference
/// across the workspace's worker threads (batch evaluation, TEASER snapshot
/// fits, the stream monitor's anchor fan-out — see `etsc_core::parallel`).
/// Fitted models are plain data, so every implementor satisfies it
/// automatically.
pub trait Classifier: Sync {
    /// Number of classes the model was fitted on.
    fn n_classes(&self) -> usize;

    /// Hard prediction for one series.
    fn predict(&self, x: &[f64]) -> ClassLabel {
        let p = self.predict_proba(x);
        argmax(&p)
    }

    /// Probability (or normalized score) per class.
    fn predict_proba(&self, x: &[f64]) -> Vec<f64>;

    /// Probability per class, written into `out` (`out.len()` must equal
    /// [`Classifier::n_classes`]). The allocation-free twin of
    /// [`Classifier::predict_proba`] for hot paths; the default delegates
    /// and copies, implementations override to skip the `Vec` entirely.
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let p = self.predict_proba(x);
        assert_eq!(
            out.len(),
            p.len(),
            "output buffer must hold one probability per class"
        );
        out.copy_from_slice(&p);
    }

    /// Open an incremental scoring session, if this model supports one.
    ///
    /// A [`ScoreSession`] consumes a series one sample at a time and can
    /// report class probabilities at any point for amortized O(classes) per
    /// sample — the substrate of the early-classification session API.
    /// Models whose scores do not decompose per coordinate (kNN, WEASEL)
    /// return `None`; callers then rescore whole prefixes instead.
    fn score_session(&self) -> Option<Box<dyn ScoreSession + '_>> {
        None
    }

    /// Open an incremental scoring session over the **per-prefix
    /// z-normalized** view of the pushed samples, if this model supports
    /// one.
    ///
    /// After pushing `x1..xt`, the session's probabilities track
    /// `predict_proba(&znormalize(&[x1..xt]))` — the honest deployment
    /// normalization, in which every arriving sample retroactively rescales
    /// the whole prefix. Implementations fold that global rescaling into
    /// closed-form updates of running sums (see
    /// [`gaussian::GaussianZnormSession`] and
    /// [`centroid::CentroidZnormScoreSession`]), so the equivalence is to
    /// floating-point reassociation tolerance (~1e-9 relative), not bit
    /// exactness; the batch path stays the reference definition. Models
    /// without a closed z-norm form return `None` and callers renormalize
    /// and rescore whole prefixes.
    fn score_session_znorm(&self) -> Option<Box<dyn ScoreSession + '_>> {
        None
    }

    /// Open an empty block of [`ScoreLanes`]: many scorers over the same
    /// stream, one per candidate onset, advanced together — the raw
    /// [`score_session`](Self::score_session) form, or the per-prefix
    /// z-normalized [`score_session_znorm`](Self::score_session_znorm) form
    /// when `znorm` is set.
    ///
    /// Each lane performs exactly the arithmetic of its session, so lanes
    /// and sessions agree bit for bit. Models without a lane form return
    /// `None` and callers drive one session per lane instead.
    fn score_lanes(&self, znorm: bool) -> Option<Box<dyn ScoreLanes + '_>> {
        let _ = znorm;
        None
    }
}

/// The top class of one lane's softmax, as [`ScoreLanes::push`] reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneTop {
    /// Lane index, in open order.
    pub lane: usize,
    /// [`argmax`] of the lane's probabilities.
    pub label: ClassLabel,
    /// The probability of `label`.
    pub probability: f64,
}

/// Many [`ScoreSession`]s over one stream, each opened at a different
/// sample (a *lane*), held as one state and advanced in one loop.
///
/// A lane is the session it replaces: pushing a sample into a lane performs
/// the scalar operations [`ScoreSession::push`] performs, and the softmax
/// and [`ScoreSession::logit_gap`] it evaluates are the session's, through
/// the same helpers. Lanes are indexed in open order;
/// [`retain`](Self::retain) keeps that order.
pub trait ScoreLanes: Send {
    /// Append a lane that has consumed nothing.
    fn open(&mut self);

    /// Keep the lanes whose flag in `keep` is set, in order. Lanes without
    /// a flag are kept.
    fn retain(&mut self, keep: &[bool]);

    /// Stop advancing `lane`: later pushes leave its state as it is, like a
    /// committed session that no longer feeds its scorer.
    fn freeze(&mut self, lane: usize);

    /// Push `x` into every lane that is not frozen. Then, for each pushed
    /// lane that has consumed at least `min_prefix` samples and whose logit
    /// gap is not below `min_gap` (a lane without a gap always qualifies),
    /// evaluate the softmax and append the lane's top class to `out`.
    ///
    /// With `min_gap = `[`min_commit_gap`]`(θ)` the lanes left out are
    /// exactly those whose session would skip the softmax at threshold θ.
    ///
    /// An implementation may rule a lane out before it computes the gap,
    /// with a cheaper bound that is sound under rounding (the
    /// nearest-centroid lanes' `PreGate`, in `centroid.rs`, which proves
    /// its own). A lane the bound cannot rule out takes the exact gap, so
    /// `out` is the same either way.
    fn push(&mut self, x: f64, min_prefix: usize, min_gap: f64, out: &mut Vec<LaneTop>);

    /// Append `lane`'s state to `enc` in the bytes
    /// [`ScoreSession::save_state`] writes for the same state.
    fn save_lane(&self, lane: usize, enc: &mut Encoder) -> Result<(), PersistError>;

    /// Append a lane rehydrated from [`ScoreSession::save_state`] bytes, with
    /// the validation [`ScoreSession::load_state`] applies. On error no lane
    /// is appended.
    fn load_lane(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError>;
}

/// An incremental per-sample scorer over one growing series.
///
/// Pushing samples `x1..xt` and then calling
/// [`ScoreSession::predict_proba_into`] must produce exactly what the owning
/// [`Classifier`]'s `predict_proba(&[x1..xt])` produces (up to the model's
/// fitted length, after which further samples are ignored — mirroring the
/// prefix-truncation every classifier in this crate applies).
///
/// `Send` is a supertrait so sessions can migrate to worker threads (the
/// parallel multi-anchor servicing paths); sessions hold owned running
/// state plus a shared reference to their `Sync` model, so every
/// implementor satisfies it automatically.
pub trait ScoreSession: Send {
    /// Consume one sample.
    fn push(&mut self, x: f64);

    /// Number of samples consumed (before any truncation).
    fn len(&self) -> usize;

    /// True before the first sample.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current class probabilities, written into `out` (length =
    /// `n_classes`).
    fn predict_proba_into(&self, out: &mut [f64]);

    /// Forget all samples, keeping allocations for reuse.
    fn reset(&mut self);

    /// The gap `g = l₁ − l₂ ≥ 0` between the largest and the second-largest
    /// logit of the softmax [`ScoreSession::predict_proba_into`] would
    /// evaluate now, computed without calling `exp`.
    ///
    /// **Why it is a bound.** For logits `l₁ ≥ l₂ ≥ … ≥ l_K` the top
    /// probability is `p₁ = e^{l₁} / Σ e^{l_c} ≤ e^{l₁} / (e^{l₁} + e^{l₂})
    /// = σ(g)`, whatever the class count `K`; likewise the top-two margin is
    /// `p₁ − p₂ ≤ tanh(g/2) ≤ g/2`. So a caller that commits only when
    /// `p₁ ≥ θ` may answer "wait" without the softmax whenever
    /// `g < logit(θ − ε)` ([`min_commit_gap`]), with `ε =`
    /// [`COMMIT_GATE_SLACK`]. The slack absorbs the softmax's own rounding
    /// (a few ulps). It also absorbs the rounding that makes the softmax
    /// return exactly `1.0` — once `e^{−g}` falls below half an ulp of 1
    /// (`g ≳ 37`), let alone once `exp` underflows (`g > 745`) — which a
    /// θ = 1 gate must still let through, and does, since
    /// `logit(1 − ε) ≈ 20.7`.
    ///
    /// Implementations compute `g` from the very values their softmax
    /// exponentiates, through one helper shared with `predict_proba_into`,
    /// so the bound holds for the probabilities the session would report.
    /// They return `None` — no bound, take the exact path — when a logit is
    /// not finite (NaN or ±∞ samples, overflowing sums) and when there are
    /// fewer than two classes (a lone class always has probability 1). The
    /// default returns `None`, so a scorer without an override is always
    /// evaluated exactly.
    fn logit_gap(&self) -> Option<f64> {
        None
    }

    /// Append this session's resumable state to `enc` (see `etsc-persist`
    /// for the codec). A session restored into the same fitted model via
    /// [`ScoreSession::load_state`] continues **bit-identically** to an
    /// uninterrupted one: every accumulator travels as its IEEE bits.
    ///
    /// The default refuses ([`PersistError::Unsupported`]); every built-in
    /// session overrides it.
    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        let _ = enc;
        Err(PersistError::Unsupported(
            "this ScoreSession type (no save_state override)",
        ))
    }

    /// Rehydrate a freshly opened session from state written by
    /// [`ScoreSession::save_state`] against the same fitted model. The
    /// session must be fresh (or is reset first); implementations validate
    /// that the state's shape matches the owning model and fail with
    /// [`PersistError::Corrupt`] otherwise.
    fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        let _ = dec;
        Err(PersistError::Unsupported(
            "this ScoreSession type (no load_state override)",
        ))
    }
}

/// Index of the maximum element, NaN-safe.
///
/// * NaN entries are never selected: a NaN is treated as "no information",
///   not as a winning or losing score. (The previous implementation let a
///   leading NaN win by never being out-compared — silently corrupting
///   downstream decisions.)
/// * Ties break toward the lower index, so class 0 wins an exact tie — the
///   deterministic convention every algorithm in the workspace relies on.
/// * An empty slice or an all-NaN slice returns 0, the conventional
///   fallback label.
pub fn argmax(xs: &[f64]) -> usize {
    let mut best: Option<usize> = None;
    for (i, &v) in xs.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some(b) if v <= xs[b] => {}
            _ => best = Some(i),
        }
    }
    best.unwrap_or(0)
}

/// Slack subtracted from a commit threshold before it is compared with a
/// softmax bound (see [`ScoreSession::logit_gap`]). The softmax's rounding
/// moves a probability by a few ulps (~1e-16), so `1e-9` leaves a wide
/// safety margin while costing nothing: a gate only skips work, and a
/// probability within the slack of θ simply takes the exact path.
pub const COMMIT_GATE_SLACK: f64 = 1e-9;

/// The smallest logit gap at which a softmax's top probability can reach
/// `theta`: `logit(θ − ε) = ln((θ − ε) / (1 − θ + ε))` with
/// `ε =` [`COMMIT_GATE_SLACK`]. A [`ScoreSession::logit_gap`] below it
/// proves `p₁ < θ`.
///
/// Returns `−∞`, which no gap is below, when `θ − ε ≤ 0.5` (or θ is NaN):
/// two tied classes already reach probability 0.5, so no gap can rule out
/// such a threshold.
pub fn min_commit_gap(theta: f64) -> f64 {
    let t = theta - COMMIT_GATE_SLACK;
    if t > 0.5 {
        (t / (1.0 - t)).ln()
    } else {
        f64::NEG_INFINITY
    }
}

/// The gap between the largest and the second-largest of `logits` — the
/// [`ScoreSession::logit_gap`] of a softmax over them, as
/// [`gaussian::softmax_of_logs_in_place`] evaluates it (it exponentiates
/// `l₂ − l₁ = −g`). `None` when any logit is not finite or there are fewer
/// than two.
pub fn top_logit_gap(logits: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut first = f64::NEG_INFINITY;
    let mut second = f64::NEG_INFINITY;
    let mut k = 0usize;
    for l in logits {
        if !l.is_finite() {
            return None;
        }
        if l > first {
            second = first;
            first = l;
        } else if l > second {
            second = l;
        }
        k += 1;
    }
    (k >= 2).then_some(first - second)
}

/// Inputs shared by the soundness tests of the softmax bounds next to the
/// two softmaxes ([`centroid`] and [`gaussian`]).
#[cfg(test)]
pub(crate) mod gate_cases {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Commit thresholds the gates are checked at; θ = 0.5 must never skip.
    pub(crate) const THETAS: [f64; 6] = [0.5, 0.5 + 1e-12, 0.65, 0.8, 0.9999, 1.0];

    /// Random score vectors of K ∈ {1, 2, 3, 7} classes: ordinary draws at
    /// three scales mixed with ties, ±∞, NaN and magnitudes near 1e±300.
    pub(crate) fn hostile_vectors(seed: u64, n: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let k = [1, 2, 3, 7][rng.random_range(0..4usize)];
                let mut v: Vec<f64> = Vec::with_capacity(k);
                while v.len() < k {
                    let x = match rng.random_range(0..24u32) {
                        0..=3 if !v.is_empty() => v[rng.random_range(0..v.len())],
                        4 => f64::INFINITY,
                        5 => f64::NEG_INFINITY,
                        6 => f64::NAN,
                        7 | 8 => rng.random_range(-1.0..1.0) * 1e300,
                        9 | 10 => rng.random_range(-1.0..1.0) * 1e-300,
                        _ => {
                            rng.random_range(-1.0..1.0)
                                * [1.0, 30.0, 1e3][rng.random_range(0..3usize)]
                        }
                    };
                    v.push(x);
                }
                v
            })
            .collect()
    }

    /// Non-negative gaps straddling every threshold's gate cutoff
    /// ([`crate::min_commit_gap`]) and its exact logit by up to 4 ulps, plus
    /// gaps where `e^{−g}` vanishes next to 1 (g ≈ 37) and where it
    /// underflows outright (g > 745).
    pub(crate) fn boundary_gaps() -> Vec<f64> {
        let mut gaps = vec![36.0, 37.0, 38.0, 745.0, 745.2, 746.0, 800.0, 1e4];
        for theta in THETAS {
            for centre in [crate::min_commit_gap(theta), (theta / (1.0 - theta)).ln()] {
                if !centre.is_finite() {
                    continue;
                }
                gaps.push(centre);
                let (mut up, mut down) = (centre, centre);
                for _ in 0..4 {
                    up = up.next_up();
                    down = down.next_down();
                    gaps.push(up);
                    gaps.push(down);
                }
            }
        }
        gaps.retain(|&g| g >= 0.0);
        gaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_commit_gap_is_the_slackened_logit() {
        for theta in [0.5, 0.5 + 1e-12, 0.5 + COMMIT_GATE_SLACK, f64::NAN] {
            assert_eq!(min_commit_gap(theta), f64::NEG_INFINITY, "θ = {theta}");
        }
        let t = 0.8 - COMMIT_GATE_SLACK;
        assert_eq!(min_commit_gap(0.8), (t / (1.0 - t)).ln());
        // θ = 1 leaves a finite cutoff, far below the ~745 gap at which the
        // softmax starts returning exactly 1.0.
        let top = min_commit_gap(1.0);
        assert!((20.0..21.0).contains(&top), "{top}");
        let mut last = f64::NEG_INFINITY;
        for theta in gate_cases::THETAS {
            assert!(min_commit_gap(theta) >= last, "monotone in θ");
            last = min_commit_gap(theta);
        }
    }

    #[test]
    fn top_logit_gap_needs_two_finite_logits() {
        assert_eq!(top_logit_gap([]), None);
        assert_eq!(top_logit_gap([3.0]), None);
        assert_eq!(top_logit_gap([3.0, 1.0]), Some(2.0));
        assert_eq!(top_logit_gap([1.0, 3.0, 2.5]), Some(0.5));
        assert_eq!(top_logit_gap([2.0, 2.0, -1.0]), Some(0.0), "ties");
        assert_eq!(top_logit_gap([1.0, f64::NAN]), None);
        assert_eq!(top_logit_gap([1.0, f64::NEG_INFINITY]), None);
        assert_eq!(top_logit_gap([f64::INFINITY, 1.0]), None);
    }

    #[test]
    fn argmax_basic_and_ties() {
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[1.0]), 0);
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[f64::NAN, 0.2, 0.7]), 2);
        assert_eq!(argmax(&[0.9, f64::NAN, 0.7]), 0);
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), 0, "all-NaN falls back to 0");
        assert_eq!(argmax(&[]), 0, "empty falls back to 0");
        assert_eq!(argmax(&[f64::NAN, 0.1, f64::NAN, 0.1]), 1, "ties low");
    }

    #[test]
    fn argmax_handles_infinities() {
        assert_eq!(argmax(&[f64::NEG_INFINITY, 0.0, f64::INFINITY]), 2);
        assert_eq!(argmax(&[f64::NEG_INFINITY, f64::NEG_INFINITY]), 0);
    }

    #[test]
    fn predict_proba_into_default_matches_vec_path() {
        struct Fixed;
        impl Classifier for Fixed {
            fn n_classes(&self) -> usize {
                3
            }
            fn predict_proba(&self, _x: &[f64]) -> Vec<f64> {
                vec![0.2, 0.5, 0.3]
            }
        }
        let mut out = [0.0; 3];
        Fixed.predict_proba_into(&[1.0], &mut out);
        assert_eq!(out, [0.2, 0.5, 0.3]);
        assert!(Fixed.score_session().is_none(), "default has no session");
    }
}
