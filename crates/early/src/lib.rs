#![warn(missing_docs)]
// Numeric kernels below index several parallel arrays per iteration; explicit
// index loops are the clearer idiom there.
#![allow(clippy::needless_range_loop)]

//! # etsc-early
//!
//! Early time series classification (ETSC) algorithms — the systems the
//! paper benchmarks in Table 1 plus TEASER (Fig 3, Appendix B), implemented
//! from scratch:
//!
//! * [`ects`] — ECTS and RelaxedECTS (Xing et al., KAIS 2012): 1NN with
//!   Minimum Prediction Lengths derived from reverse-nearest-neighbor
//!   stability.
//! * [`edsc`] — EDSC (Xing et al., SDM 2011): early distinctive shapelet
//!   features with CHE (Chebyshev) or KDE threshold learning.
//! * [`relclass`] — RelClass and its LDG variant (after Parrish et al., JMLR
//!   2013): Gaussian class models scored on prefix marginals with a
//!   reliability threshold τ.
//! * [`teaser`] — TEASER (Schäfer & Leser, DMKD 2020): per-snapshot slave
//!   classifiers, one-class master filters, and a consistency counter.
//! * [`template`] — open-world template matching with an absolute distance
//!   threshold (the Section 5 dustbathing instrument).
//! * [`threshold`] — the fixed probability-threshold framing of Fig 3
//!   (right), wrapping any probabilistic classifier.
//! * [`metrics`] — earliness/accuracy evaluation with an explicit
//!   **prefix-normalization policy**, because whether prefixes are
//!   normalized with future statistics (the UCR convention) or honestly is
//!   exactly the issue Section 4 of the paper raises.
//!
//! ## Streaming-first sessions
//!
//! The primary runtime API is the stateful [`DecisionSession`]: open one per
//! monitored stream (or per candidate anchor within a stream), feed it one
//! sample at a time with [`DecisionSession::push`], and read the
//! [`Decision`] each push returns. Sessions maintain running state —
//! Welford statistics for online z-normalization, incremental partial
//! Euclidean sums for the 1NN-based models, per-snapshot/per-checkpoint
//! caches for the ensemble models — so the amortized cost of one sample
//! does **not** grow with the prefix length, where the stateless
//! [`EarlyClassifier::decide`] recomputes the whole prefix on every call.
//!
//! [`EarlyClassifier::decide`] remains as the offline convenience (UCR-style
//! evaluation queries arbitrary prefixes). The many sessions a stream
//! monitor opens on one stream — one per candidate anchor — run as the
//! lanes of one [`DecisionLanes`] block ([`EarlyClassifier::lanes`], see
//! [`lanes`]): one state advanced in one loop where the model provides it,
//! and a [`SessionLanes`] fleet of boxed sessions otherwise.

pub mod checkpoints;
pub mod costaware;
pub mod ecdire;
pub mod ects;
pub mod edsc;
pub mod lanes;
pub mod metrics;
pub mod relclass;
pub mod stopping_rule;
pub mod teaser;
pub mod template;
pub mod threshold;

use etsc_core::znorm::znormalize_in_place;
use etsc_core::ClassLabel;
pub use etsc_persist::{Decoder, Encoder, PersistError};

pub use lanes::{DecisionLanes, LaneStatus, SessionLanes};

/// Envelope kind tag for standalone session checkpoints (see
/// [`checkpoint_session`] / [`resume_session`]).
pub const SESSION_STATE_KIND: &str = "DecisionSessionState";

/// State-schema tags written at the head of every built-in session's saved
/// state, so resuming against the wrong algorithm or the wrong
/// [`SessionNorm`] fails loudly ([`PersistError::Corrupt`]) instead of
/// misinterpreting accumulators.
pub(crate) mod session_tags {
    pub const ECTS: u8 = 1;
    pub const EDSC_RAW: u8 = 2;
    pub const EDSC_ZNORM: u8 = 3;
    pub const RELCLASS: u8 = 4;
    pub const TEASER: u8 = 5;
    pub const TEMPLATE: u8 = 6;
    pub const PROB_THRESHOLD: u8 = 7;
    pub const ECDIRE: u8 = 8;
    pub const STOPPING_RULE: u8 = 9;
    pub const COST_AWARE: u8 = 10;
}

/// Encode a [`Decision`] (persist helper shared by the session states).
pub(crate) fn put_decision(enc: &mut Encoder, d: Decision) {
    match d {
        Decision::Wait => enc.put_u8(0),
        Decision::Predict { label, confidence } => {
            enc.put_u8(1);
            enc.put_usize(label);
            enc.put_f64(confidence);
        }
    }
}

/// Decode a [`Decision`] written by [`put_decision`], validating the label
/// against `n_classes`.
pub(crate) fn get_decision(
    dec: &mut Decoder<'_>,
    n_classes: usize,
) -> Result<Decision, PersistError> {
    match dec.get_u8("decision tag")? {
        0 => Ok(Decision::Wait),
        1 => {
            let label = dec.get_usize("decision label")?;
            if label >= n_classes {
                return Err(PersistError::Corrupt(format!(
                    "decision label {label} for {n_classes} classes"
                )));
            }
            let confidence = dec.get_f64("decision confidence")?;
            Ok(Decision::Predict { label, confidence })
        }
        t => Err(PersistError::Corrupt(format!("decision tag {t}"))),
    }
}

/// Read a session-state schema tag and demand it matches `expected`.
pub(crate) fn expect_session_tag(dec: &mut Decoder<'_>, expected: u8) -> Result<(), PersistError> {
    let found = dec.get_u8("session state tag")?;
    if found != expected {
        return Err(PersistError::Corrupt(format!(
            "session state tag {found} does not match this algorithm/norm (expected {expected})"
        )));
    }
    Ok(())
}

/// Encode a [`SessionNorm`] (persist helper).
pub(crate) fn put_norm(enc: &mut Encoder, norm: SessionNorm) {
    enc.put_u8(match norm {
        SessionNorm::Raw => 0,
        SessionNorm::PerPrefix => 1,
    });
}

/// Decode a [`SessionNorm`] and demand it matches the norm the caller is
/// resuming under — accumulator layouts differ per norm.
pub(crate) fn expect_norm(
    dec: &mut Decoder<'_>,
    expected: SessionNorm,
) -> Result<(), PersistError> {
    let tag = dec.get_u8("session norm")?;
    let found = match tag {
        0 => SessionNorm::Raw,
        1 => SessionNorm::PerPrefix,
        t => return Err(PersistError::Corrupt(format!("session norm tag {t}"))),
    };
    if found != expected {
        return Err(PersistError::Corrupt(format!(
            "session was checkpointed under {found:?}, resumed under {expected:?}"
        )));
    }
    Ok(())
}

/// Serialize a session's resumable state into a self-describing,
/// checksummed envelope (kind [`SESSION_STATE_KIND`]).
///
/// The state is only meaningful to the fitted classifier (and
/// [`SessionNorm`]) that produced the session; resume it with
/// [`resume_session`] against the same model — or a [`Persist`]-restored
/// copy of it in a new process, which is behavior-identical. Built-in
/// sessions write a schema tag, so resuming against the wrong algorithm or
/// norm fails with [`PersistError::Corrupt`] rather than misdecoding.
///
/// The state is written in place, inside the envelope
/// ([`Encoder::try_envelope`]).
///
/// [`Persist`]: etsc_persist::Persist
pub fn checkpoint_session(session: &dyn DecisionSession) -> Result<Vec<u8>, PersistError> {
    let mut enc = Encoder::new();
    enc.try_envelope(SESSION_STATE_KIND, |e| session.save_state(e))?;
    Ok(enc.into_bytes())
}

/// Rehydrate a session from [`checkpoint_session`] bytes against `clf`
/// under `norm`. The restored session continues **bit-identically** to an
/// uninterrupted one for [`SessionNorm::Raw`] (and, for the built-in
/// algorithms, for [`SessionNorm::PerPrefix`] too — the z-norm running sums
/// round-trip as IEEE bits; the documented ~1e-9 tolerance applies only to
/// the comparison against batch renormalization, exactly as for
/// uninterrupted sessions).
pub fn resume_session<'a, C: EarlyClassifier + ?Sized>(
    clf: &'a C,
    norm: SessionNorm,
    bytes: &[u8],
) -> Result<Box<dyn DecisionSession + 'a>, PersistError> {
    let mut dec = etsc_persist::open_envelope(bytes, SESSION_STATE_KIND)?;
    let session = clf.resume_session(norm, &mut dec)?;
    dec.finish()?;
    Ok(session)
}

/// The two largest values of a probability vector `(best, second)`, both
/// 0.0-floored — the margin primitive RelClass, ECDIRE, and the stopping
/// rule all gate on.
pub(crate) fn top_two(p: &[f64]) -> (f64, f64) {
    let mut best = 0.0;
    let mut second = 0.0;
    for &v in p {
        if v > best {
            second = best;
            best = v;
        } else if v > second {
            second = v;
        }
    }
    (best, second)
}

/// The outcome of showing a prefix to an early classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Not confident yet; wait for more data.
    Wait,
    /// Commit to a classification now.
    Predict {
        /// Predicted class.
        label: ClassLabel,
        /// Algorithm-specific confidence in `[0, 1]`.
        confidence: f64,
    },
}

impl Decision {
    /// The predicted label, if the decision is a prediction.
    pub fn label(&self) -> Option<ClassLabel> {
        match *self {
            Decision::Wait => None,
            Decision::Predict { label, .. } => Some(label),
        }
    }

    /// The confidence of the prediction, if the decision is a prediction.
    pub fn confidence(&self) -> Option<f64> {
        match *self {
            Decision::Wait => None,
            Decision::Predict { confidence, .. } => Some(confidence),
        }
    }

    /// Label and confidence together, if the decision is a prediction —
    /// the destructuring most call sites actually want.
    pub fn label_confidence(&self) -> Option<(ClassLabel, f64)> {
        match *self {
            Decision::Wait => None,
            Decision::Predict { label, confidence } => Some((label, confidence)),
        }
    }

    /// True if the classifier committed.
    pub fn is_predict(&self) -> bool {
        matches!(self, Decision::Predict { .. })
    }

    /// Total order on decisiveness: `Wait` sorts below every `Predict`, and
    /// predictions order by confidence under [`f64::total_cmp`] (so NaN
    /// confidences are ordered deterministically instead of poisoning
    /// comparisons). Labels do not participate in the order.
    ///
    /// This is deliberately a named method rather than a `PartialOrd` impl:
    /// "more decisive" is one specific order among several reasonable ones,
    /// and call sites should say which they mean.
    pub fn decisiveness_cmp(&self, other: &Decision) -> std::cmp::Ordering {
        match (self, other) {
            (Decision::Wait, Decision::Wait) => std::cmp::Ordering::Equal,
            (Decision::Wait, Decision::Predict { .. }) => std::cmp::Ordering::Less,
            (Decision::Predict { .. }, Decision::Wait) => std::cmp::Ordering::Greater,
            (Decision::Predict { confidence: a, .. }, Decision::Predict { confidence: b, .. }) => {
                a.total_cmp(b)
            }
        }
    }

    /// The more decisive of two decisions (see
    /// [`decisiveness_cmp`](Self::decisiveness_cmp)); `self` wins exact
    /// ties, so folding a sequence keeps the earliest maximum.
    pub fn prefer(self, other: Decision) -> Decision {
        if self.decisiveness_cmp(&other) == std::cmp::Ordering::Less {
            other
        } else {
            self
        }
    }
}

/// Normalization a [`DecisionSession`] applies to its incoming raw samples.
///
/// There is deliberately no "oracle" variant: a session sees samples in
/// arrival order and cannot standardize them with statistics of data that
/// has not arrived (Section 4 of the paper). Oracle-style evaluation is an
/// offline construct — hand [`EarlyClassifier::decide`] prefixes sliced
/// from pre-normalized exemplars instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionNorm {
    /// Classify the pushed samples as-is.
    Raw,
    /// Honest per-prefix z-normalization: each decision is made on the
    /// z-normalized version of the data it consumes, computed from running
    /// (past-only) statistics. Algorithms that already normalize internally
    /// (e.g. TEASER with honest prefixes, template matching — both are
    /// invariant to affine transforms of the input) treat this identically
    /// to `Raw`.
    ///
    /// # Incremental evaluation: the running-sums algebra
    ///
    /// Per-prefix normalization looks inherently non-incremental — every
    /// arriving sample changes the prefix mean `μ_p` and deviation `σ_p`,
    /// retroactively rescaling **every** past coordinate. The sessions
    /// nevertheless run at amortized O(1)-per-push (in the prefix length)
    /// because the rescaling is *affine and global*: writing the normalized
    /// sample as `ẑᵢ = u·xᵢ − v` with `u = 1/σ_p`, `v = μ_p/σ_p`, any
    /// statistic that is quadratic in `ẑ` is a fixed quadratic polynomial
    /// in `(u, v)` whose coefficients are running sums of the *raw* data —
    /// matrix-profile-style algebra (Mueen's MASS, *Matrix Profile II*),
    /// already used by `etsc_core::nn::BatchProfile`. Concretely:
    ///
    /// * **1NN distances** (ECTS): `‖ẑ − y‖²` unfolds into prefix sums
    ///   `Σx, Σx²` plus one running dot `Σx·y` per exemplar.
    /// * **Gaussian log-likelihoods** (RelClass, ProbThreshold over a
    ///   Gaussian): the per-class Mahalanobis sum unfolds into six running
    ///   sums (`Σx²/σ²ᵢ, Σx/σ²ᵢ, Σx·mᵢ/σ²ᵢ, Σ1/σ²ᵢ, Σmᵢ/σ²ᵢ, Σmᵢ²/σ²ᵢ`)
    ///   evaluated in closed form at the current `(u, v)` — see
    ///   `etsc_classifiers::gaussian::GaussianZnormSession`. With a full
    ///   covariance the same shape survives *whitening*: six running dot
    ///   products over `L⁻¹x`, `L⁻¹𝟙`, `L⁻¹μ`.
    /// * **Centroid distances** (ProbThreshold): the same dot identity per
    ///   class — `etsc_classifiers::centroid::CentroidZnormScoreSession`.
    /// * **Shapelet window scans** (EDSC): every window's distance is a
    ///   closed form over its cached `Σx, Σx², Σx·q`; a per-feature drift
    ///   bound on `(u, v)` movement skips even the closed-form sweep on
    ///   most pushes.
    ///
    /// The closed forms regroup the batch arithmetic, so per-prefix
    /// sessions track `decide(&znormalize(prefix))` to documented
    /// floating-point tolerance (each session type states its bound) rather
    /// than bit-exactly; the normalization constants themselves are
    /// accumulated in `mean_std`'s order and match the batch path exactly.
    PerPrefix,
}

/// A stateful, incremental early-classification session over one stream.
///
/// Obtained from [`EarlyClassifier::session`]. Feed samples in arrival
/// order with [`push`](Self::push); each call returns the decision for the
/// prefix consumed so far. Under [`SessionNorm::Raw`], pushing `x1..xt`
/// yields exactly `decide(&[x1..xt])` — the session is the incremental
/// evaluation of the same function (the equivalence every algorithm's
/// property tests assert).
///
/// **Latching:** once a session commits, it stays committed — every later
/// `push` returns the same `Predict` without recomputation. The first
/// commit is *the* early classification; callers wanting a fresh judgment
/// open a new session (or [`reset`](Self::reset) this one).
///
/// `Send` is a supertrait so boxed sessions can be serviced by worker
/// threads ([`SessionLanes`] fans one sample out to hundreds of sessions
/// in parallel, and a serving runtime services streams on workers; see
/// `etsc_core::parallel`).
/// Sessions hold owned running state plus a shared reference to their
/// `Sync` model, so every implementor satisfies it automatically.
pub trait DecisionSession: Send {
    /// Consume one sample; returns the decision for the prefix so far.
    fn push(&mut self, x: f64) -> Decision;

    /// The decision as of the last push (`Wait` before any push).
    fn decision(&self) -> Decision;

    /// Number of samples consumed.
    fn len(&self) -> usize;

    /// True before the first sample.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget all samples and any commitment, keeping allocations — the
    /// cheap way to reuse one session across many anchors/streams.
    fn reset(&mut self);

    /// Append this session's resumable state to `enc` (codec:
    /// `etsc-persist`). Rehydrated into the same fitted model via
    /// [`EarlyClassifier::resume_session`], the session continues
    /// **bit-identically** to an uninterrupted one: every accumulator
    /// travels as its IEEE bits, so the next push performs exactly the
    /// arithmetic it would have performed without the interruption.
    ///
    /// The default refuses with [`PersistError::Unsupported`]; every
    /// built-in algorithm's sessions override it. Use
    /// [`checkpoint_session`] for the envelope-wrapped form.
    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        let _ = enc;
        Err(PersistError::Unsupported(
            "this DecisionSession type (no save_state override)",
        ))
    }
}

/// A fitted early classifier.
///
/// Implementations are fitted on full-length training exemplars and then
/// consume growing prefixes, either statelessly via [`decide`](Self::decide)
/// or incrementally via [`session`](Self::session).
///
/// `decide` must be monotone-safe: callers may query any prefix length in
/// any order, and the *first* `Predict` along the growing prefix is the
/// algorithm's early classification.
///
/// Implementors must provide at least one of `decide` / `session`: each has
/// a default written in terms of the other (`decide` drives a fresh raw
/// session; `session` replays `decide` on a buffered prefix). Providing
/// neither recurses; providing both — a stateless definition plus an
/// incremental one — is the fast path every algorithm in this crate takes.
///
/// `Sync` is a supertrait so one fitted model can serve many sessions from
/// many worker threads concurrently (the parallel monitor and batch-eval
/// paths). Fitted models are plain data, so every implementor satisfies it
/// automatically.
pub trait EarlyClassifier: Sync {
    /// Number of classes fitted.
    fn n_classes(&self) -> usize;

    /// Full series length the model was trained for.
    fn series_len(&self) -> usize;

    /// Smallest prefix length the model will consider (default 1).
    fn min_prefix(&self) -> usize {
        1
    }

    /// Inspect a prefix and either commit or wait.
    ///
    /// The default drives a fresh [`SessionNorm::Raw`] session over
    /// `prefix`, so session-only implementors get offline evaluation for
    /// free.
    fn decide(&self, prefix: &[f64]) -> Decision {
        let mut session = self.session(SessionNorm::Raw);
        let mut decision = Decision::Wait;
        for &x in prefix {
            decision = session.push(x);
        }
        decision
    }

    /// Open an incremental session (see [`DecisionSession`]).
    ///
    /// The default buffers samples and replays [`decide`](Self::decide) on
    /// every push — O(prefix) per sample, correct for any implementor.
    /// Algorithms override this with running-state sessions whose per-sample
    /// cost is amortized O(1) in the prefix length.
    fn session(&self, norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
        Box::new(ReplaySession::new(self, norm))
    }

    /// Unconditional prediction from the full series — the fallback when
    /// `decide` never commits (the ETSC literature always reports *some*
    /// label at full length).
    fn predict_full(&self, series: &[f64]) -> ClassLabel;

    /// Open a session under `norm` and rehydrate it from state written by
    /// [`DecisionSession::save_state`] against this same fitted model (or a
    /// snapshot-restored copy). Implementations validate that the state's
    /// schema and shape match before trusting a single byte of it.
    ///
    /// The default refuses with [`PersistError::Unsupported`]; every
    /// built-in algorithm overrides it. Use the free function
    /// [`resume_session`] for the envelope-wrapped form.
    fn resume_session(
        &self,
        norm: SessionNorm,
        dec: &mut Decoder<'_>,
    ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
        let _ = (norm, dec);
        Err(PersistError::Unsupported(
            "this EarlyClassifier type (no resume_session override)",
        ))
    }

    /// Open an empty lane block under `norm`: the live sessions of one
    /// stream, one lane each, advanced together (see [`DecisionLanes`]).
    ///
    /// The default is a [`SessionLanes`] fleet of
    /// [`session`](Self::session)s, resumed through
    /// [`resume_session`](Self::resume_session). Models that can hold all
    /// lanes as one state override it; their lanes must decide, count and
    /// checkpoint exactly as those sessions do.
    fn lanes(&self, norm: SessionNorm) -> Box<dyn DecisionLanes + '_> {
        Box::new(SessionLanes::new(self, norm))
    }
}

/// The universal fallback session: buffers the pushed samples and replays
/// [`EarlyClassifier::decide`] on the whole buffer at every push.
///
/// Correct for any classifier (it *is* the definition of session/decide
/// equivalence) but O(prefix) per sample. Every built-in algorithm now
/// ships an incremental session for **both** [`SessionNorm`] variants, so
/// this type serves as the trait default for external implementors and as
/// the reference baseline the `bench_sessions` binary measures speedups
/// against. Under [`SessionNorm::PerPrefix`] the buffered prefix is
/// z-normalized into a scratch buffer before deciding.
pub struct ReplaySession<'a, C: EarlyClassifier + ?Sized> {
    clf: &'a C,
    norm: SessionNorm,
    buf: Vec<f64>,
    scratch: Vec<f64>,
    len: usize,
    decision: Decision,
}

impl<'a, C: EarlyClassifier + ?Sized> ReplaySession<'a, C> {
    /// Wrap a classifier reference.
    pub fn new(clf: &'a C, norm: SessionNorm) -> Self {
        Self {
            clf,
            norm,
            buf: Vec::new(),
            scratch: Vec::new(),
            len: 0,
            decision: Decision::Wait,
        }
    }
}

impl<C: EarlyClassifier + ?Sized> DecisionSession for ReplaySession<'_, C> {
    fn push(&mut self, x: f64) -> Decision {
        self.len += 1;
        if self.decision.is_predict() {
            // Latched: count the sample but do no work (and in particular
            // stop growing the buffer — a latched session may be driven for
            // the rest of an unbounded stream).
            return self.decision;
        }
        self.buf.push(x);
        if self.buf.len() < self.clf.min_prefix() {
            // Below the classifier's declared minimum no decision is asked
            // for — mirroring offline evaluation, which never queries
            // prefixes shorter than `min_prefix`.
            return Decision::Wait;
        }
        self.decision = match self.norm {
            SessionNorm::Raw => self.clf.decide(&self.buf),
            SessionNorm::PerPrefix => {
                self.scratch.clear();
                self.scratch.extend_from_slice(&self.buf);
                znormalize_in_place(&mut self.scratch);
                self.clf.decide(&self.scratch)
            }
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
        self.buf.clear();
        self.scratch.clear();
        self.len = 0;
        self.decision = Decision::Wait;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_accessors() {
        assert_eq!(Decision::Wait.label(), None);
        assert_eq!(Decision::Wait.confidence(), None);
        assert_eq!(Decision::Wait.label_confidence(), None);
        assert!(!Decision::Wait.is_predict());
        let p = Decision::Predict {
            label: 3,
            confidence: 0.9,
        };
        assert_eq!(p.label(), Some(3));
        assert_eq!(p.confidence(), Some(0.9));
        assert_eq!(p.label_confidence(), Some((3, 0.9)));
        assert!(p.is_predict());
    }

    #[test]
    fn decisiveness_orders_wait_below_predict_and_by_confidence() {
        use std::cmp::Ordering;
        let lo = Decision::Predict {
            label: 0,
            confidence: 0.2,
        };
        let hi = Decision::Predict {
            label: 1,
            confidence: 0.8,
        };
        assert_eq!(
            Decision::Wait.decisiveness_cmp(&Decision::Wait),
            Ordering::Equal
        );
        assert_eq!(Decision::Wait.decisiveness_cmp(&lo), Ordering::Less);
        assert_eq!(hi.decisiveness_cmp(&Decision::Wait), Ordering::Greater);
        assert_eq!(lo.decisiveness_cmp(&hi), Ordering::Less);
        assert_eq!(hi.prefer(lo), hi);
        assert_eq!(lo.prefer(hi), hi);
        assert_eq!(Decision::Wait.prefer(lo), lo);
        // Label does not break ties; the receiver wins.
        let hi2 = Decision::Predict {
            label: 0,
            confidence: 0.8,
        };
        assert_eq!(hi.prefer(hi2), hi);
    }

    #[test]
    fn decisiveness_is_nan_safe() {
        use std::cmp::Ordering;
        let nan = Decision::Predict {
            label: 0,
            confidence: f64::NAN,
        };
        let ok = Decision::Predict {
            label: 1,
            confidence: 0.5,
        };
        // total_cmp puts NaN above every finite value — deterministic, never
        // a poisoned comparison.
        assert_eq!(nan.decisiveness_cmp(&ok), Ordering::Greater);
        assert_eq!(nan.decisiveness_cmp(&nan), Ordering::Equal);
        assert!(nan.decisiveness_cmp(&Decision::Wait) == Ordering::Greater);
    }

    /// Commits to class 0 with confidence 1 once `commit_at` samples arrive;
    /// a full series is 10 samples, at which it predicts class 1.
    pub(crate) struct FixedCommit {
        pub(crate) commit_at: usize,
    }

    impl EarlyClassifier for FixedCommit {
        fn n_classes(&self) -> usize {
            2
        }
        fn series_len(&self) -> usize {
            10
        }
        fn decide(&self, prefix: &[f64]) -> Decision {
            if prefix.len() >= self.commit_at {
                Decision::Predict {
                    label: 0,
                    confidence: 1.0,
                }
            } else {
                Decision::Wait
            }
        }
        fn predict_full(&self, _series: &[f64]) -> ClassLabel {
            1
        }
    }

    #[test]
    fn default_session_replays_decide_and_latches() {
        let clf = FixedCommit { commit_at: 3 };
        let mut s = clf.session(SessionNorm::Raw);
        assert!(s.is_empty());
        assert_eq!(s.decision(), Decision::Wait);
        assert_eq!(s.push(1.0), Decision::Wait);
        assert_eq!(s.push(1.0), Decision::Wait);
        let committed = s.push(1.0);
        assert!(committed.is_predict());
        assert_eq!(s.push(1.0), committed, "latched after commit");
        assert_eq!(s.len(), 4);
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.decision(), Decision::Wait);
    }

    /// Session-only implementor: `decide` comes from the trait default.
    struct SessionOnly;

    struct CountSession {
        len: usize,
        decision: Decision,
    }

    impl DecisionSession for CountSession {
        fn push(&mut self, _x: f64) -> Decision {
            self.len += 1;
            if self.len >= 2 {
                self.decision = Decision::Predict {
                    label: 0,
                    confidence: 0.7,
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
            self.len = 0;
            self.decision = Decision::Wait;
        }
    }

    impl EarlyClassifier for SessionOnly {
        fn n_classes(&self) -> usize {
            1
        }
        fn series_len(&self) -> usize {
            8
        }
        fn session(&self, _norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
            Box::new(CountSession {
                len: 0,
                decision: Decision::Wait,
            })
        }
        fn predict_full(&self, _series: &[f64]) -> ClassLabel {
            0
        }
    }

    #[test]
    fn default_decide_drives_a_session() {
        let clf = SessionOnly;
        assert_eq!(clf.decide(&[0.0]), Decision::Wait);
        assert!(clf.decide(&[0.0, 0.0]).is_predict());
    }
}
