//! EDSC — Early Distinctive Shapelet Classification (Xing et al., SDM 2011).
//!
//! EDSC mines **local shapelet features**: short subsequences of training
//! series that (a) match their own class tightly, (b) match other classes
//! rarely, and (c) tend to appear *early*. Each feature carries a distance
//! threshold δ learned in one of two ways:
//!
//! * **CHE** — the one-sided Chebyshev (Cantelli) bound: δ is set `k`
//!   standard deviations below the mean distance to non-target series, so
//!   the probability of a non-target match is provably ≤ 1/(1+k²).
//! * **KDE** — Gaussian kernel density estimates of the target and
//!   non-target distance distributions; δ is the largest value whose
//!   estimated precision still clears a user threshold.
//!
//! Features are ranked by an earliness-weighted utility and greedily
//! selected until they cover the training set. At classification time the
//! incoming prefix is scanned; the first feature whose best-match distance
//! drops below its δ fires a prediction.

use etsc_core::distance::squared_euclidean_early_abandon;
use etsc_core::stats::mean_std;
use etsc_core::{ClassLabel, UcrDataset};
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::{
    expect_session_tag, get_decision, put_decision, session_tags, Decision, DecisionSession,
    EarlyClassifier, SessionNorm,
};

/// Threshold-learning method for EDSC features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdMethod {
    /// One-sided Chebyshev bound, `k` standard deviations below the
    /// non-target mean (the paper's EDSC-CHE; `k = 3` is the usual setting).
    Chebyshev {
        /// Number of standard deviations.
        k: f64,
    },
    /// Kernel density estimation of both distance populations; δ maximal
    /// subject to estimated precision ≥ `precision`.
    Kde {
        /// Required estimated precision in `(0, 1]`.
        precision: f64,
    },
}

/// EDSC hyper-parameters.
#[derive(Debug, Clone)]
pub struct EdscConfig {
    /// Candidate subsequence lengths.
    pub lengths: Vec<usize>,
    /// Stride between candidate start offsets (1 = exhaustive).
    pub stride: usize,
    /// Threshold learning method.
    pub method: ThresholdMethod,
    /// Features must reach this empirical precision on the training set.
    pub min_precision: f64,
    /// Cap on selected features per class.
    pub max_features_per_class: usize,
}

impl Default for EdscConfig {
    fn default() -> Self {
        Self {
            lengths: vec![10, 20, 30],
            stride: 3,
            method: ThresholdMethod::Chebyshev { k: 3.0 },
            min_precision: 0.85,
            max_features_per_class: 20,
        }
    }
}

/// One mined shapelet feature.
#[derive(Debug, Clone)]
pub struct Feature {
    /// The subsequence pattern.
    pub pattern: Vec<f64>,
    /// Class the feature indicates.
    pub label: ClassLabel,
    /// Match threshold (Euclidean, not squared).
    pub threshold: f64,
    /// Earliness-weighted utility used for ranking.
    pub utility: f64,
    /// Empirical training precision.
    pub precision: f64,
    /// Empirical training recall.
    pub recall: f64,
}

/// A fitted EDSC model.
#[derive(Debug, Clone)]
pub struct Edsc {
    features: Vec<Feature>,
    n_classes: usize,
    series_len: usize,
    min_prefix: usize,
}

/// Descending-utility candidate order, NaN-last: a degenerate training
/// split can yield a NaN utility (e.g. all-constant distance populations),
/// and `partial_cmp().unwrap()` on such a pair panics mid-fit. NaN
/// candidates sort behind every real-valued one, so they are considered
/// last (and in practice never selected).
fn by_utility_desc(a: &Feature, b: &Feature) -> std::cmp::Ordering {
    match (a.utility.is_nan(), b.utility.is_nan()) {
        (false, false) => b.utility.total_cmp(&a.utility),
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater, // NaN last
        (false, true) => std::cmp::Ordering::Less,
    }
}

/// Best-match (minimum) Euclidean distance of `pattern` over all complete
/// windows of `series`; `None` if the series is shorter than the pattern.
fn best_match_dist(pattern: &[f64], series: &[f64]) -> Option<f64> {
    let m = pattern.len();
    if series.len() < m {
        return None;
    }
    let mut best = f64::INFINITY;
    for start in 0..=(series.len() - m) {
        if let Some(d) = squared_euclidean_early_abandon(pattern, &series[start..start + m], best) {
            best = best.min(d);
        }
    }
    Some(best.sqrt())
}

/// Earliest window end at which `pattern` matches `series` within
/// `threshold`; `None` if it never does.
fn earliest_match_end(pattern: &[f64], series: &[f64], threshold: f64) -> Option<usize> {
    let m = pattern.len();
    if series.len() < m {
        return None;
    }
    let t2 = threshold * threshold;
    for start in 0..=(series.len() - m) {
        if squared_euclidean_early_abandon(pattern, &series[start..start + m], t2).is_some() {
            return Some(start + m);
        }
    }
    None
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf approximation
/// (max abs error ≈ 1.5e-7) — accurate far beyond what KDE needs.
fn normal_cdf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * z.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-z * z).exp();
    let erf = if z >= 0.0 { erf } else { -erf };
    0.5 * (1.0 + erf)
}

/// KDE CDF (Gaussian kernels, Silverman bandwidth) of `sample` at `x`.
fn kde_cdf(sample: &[f64], x: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let (_, sd) = mean_std(sample);
    let n = sample.len() as f64;
    let bw = (1.06 * sd * n.powf(-0.2)).max(1e-6);
    sample
        .iter()
        .map(|&s| normal_cdf((x - s) / bw))
        .sum::<f64>()
        / n
}

impl Edsc {
    /// Mine and select features from `train`.
    pub fn fit(train: &UcrDataset, cfg: &EdscConfig) -> Self {
        let n = train.len();
        let len = train.series_len();
        let n_classes = train.n_classes();
        assert!(n >= 2, "EDSC needs at least two training exemplars");
        let stride = cfg.stride.max(1);

        let mut candidates: Vec<Feature> = Vec::new();
        for src in 0..n {
            let label = train.label(src);
            let series = train.series(src);
            for &m in &cfg.lengths {
                if m < 2 || m > len {
                    continue;
                }
                let mut start = 0;
                while start + m <= len {
                    let pattern = &series[start..start + m];
                    if let Some(feature) = Self::evaluate_candidate(train, pattern, label, src, cfg)
                    {
                        candidates.push(feature);
                    }
                    start += stride;
                }
            }
        }

        // Greedy utility-ranked selection with per-class coverage.
        candidates.sort_by(by_utility_desc);
        let mut covered = vec![false; n];
        let mut per_class = vec![0usize; n_classes];
        let mut selected: Vec<Feature> = Vec::new();
        for f in candidates {
            if per_class[f.label] >= cfg.max_features_per_class {
                continue;
            }
            // Which target exemplars does this feature newly cover?
            let mut newly = 0;
            let mut marks = Vec::new();
            for i in 0..n {
                if train.label(i) == f.label && !covered[i] {
                    if let Some(d) = best_match_dist(&f.pattern, train.series(i)) {
                        if d <= f.threshold {
                            newly += 1;
                            marks.push(i);
                        }
                    }
                }
            }
            if newly == 0 {
                continue;
            }
            for i in marks {
                covered[i] = true;
            }
            per_class[f.label] += 1;
            selected.push(f);
            if covered.iter().all(|&c| c) {
                break;
            }
        }

        let min_prefix = cfg
            .lengths
            .iter()
            .copied()
            .filter(|&m| m <= len)
            .min()
            .unwrap_or(1);
        Self {
            features: selected,
            n_classes,
            series_len: len,
            min_prefix,
        }
    }

    /// Score one candidate pattern; returns `None` if no valid threshold.
    fn evaluate_candidate(
        train: &UcrDataset,
        pattern: &[f64],
        label: ClassLabel,
        src: usize,
        cfg: &EdscConfig,
    ) -> Option<Feature> {
        let n = train.len();
        let len = train.series_len();
        let mut target = Vec::new();
        let mut non_target = Vec::new();
        let mut dists = vec![0.0f64; n];
        for i in 0..n {
            let d = best_match_dist(pattern, train.series(i)).expect("same-length dataset");
            dists[i] = d;
            if train.label(i) == label {
                if i != src {
                    target.push(d);
                }
            } else {
                non_target.push(d);
            }
        }
        if non_target.is_empty() || target.is_empty() {
            return None;
        }

        let threshold = match cfg.method {
            ThresholdMethod::Chebyshev { k } => {
                let (mu, sd) = mean_std(&non_target);
                mu - k * sd
            }
            ThresholdMethod::Kde { precision } => {
                // Largest δ (scanned over observed target distances) whose
                // KDE-estimated precision clears the requirement.
                let nt = target.len() as f64;
                let nn = non_target.len() as f64;
                let mut grid: Vec<f64> = target.clone();
                grid.sort_by(f64::total_cmp); // NaN-proof: never panics mid-fit
                let mut best = f64::NEG_INFINITY;
                for &delta in grid.iter().rev() {
                    let tp = kde_cdf(&target, delta) * nt;
                    let fp = kde_cdf(&non_target, delta) * nn;
                    if tp + fp > 0.0 && tp / (tp + fp) >= precision {
                        best = delta;
                        break;
                    }
                }
                best
            }
        };
        if threshold <= 0.0 || !threshold.is_finite() {
            return None;
        }

        // Empirical precision / recall / earliness at the learned threshold.
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut end_sum = 0.0;
        for i in 0..n {
            if dists[i] <= threshold {
                if train.label(i) == label {
                    tp += 1;
                    if let Some(end) = earliest_match_end(pattern, train.series(i), threshold) {
                        end_sum += end as f64;
                    }
                } else {
                    fp += 1;
                }
            }
        }
        if tp == 0 {
            return None;
        }
        let precision = tp as f64 / (tp + fp) as f64;
        if precision < cfg.min_precision {
            return None;
        }
        let class_size = train.class_counts()[label];
        let recall = tp as f64 / class_size as f64;
        let mean_end = end_sum / tp as f64;
        // Earliness-weighted utility: recall scaled by how early matches
        // complete (a feature matching at the very start of the series gets
        // weight ~1, one matching at the end ~pattern_len/len).
        let utility = recall * (1.0 - (mean_end - pattern.len() as f64) / len as f64);
        Some(Feature {
            pattern: pattern.to_vec(),
            label,
            threshold,
            utility,
            precision,
            recall,
        })
    }

    /// The selected features, ranked by utility.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Longest selected pattern — the trailing-window size sessions keep.
    fn max_pattern_len(&self) -> usize {
        self.features
            .iter()
            .map(|f| f.pattern.len())
            .max()
            .unwrap_or(1)
    }
}

impl Persist for Edsc {
    const KIND: &'static str = "Edsc";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_usize(self.n_classes);
        enc.put_usize(self.series_len);
        enc.put_usize(self.min_prefix);
        enc.put_usize(self.features.len());
        for f in &self.features {
            enc.section(|e| {
                e.put_f64_slice(&f.pattern);
                e.put_usize(f.label);
                e.put_f64(f.threshold);
                e.put_f64(f.utility);
                e.put_f64(f.precision);
                e.put_f64(f.recall);
            });
        }
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let n_classes = dec.get_usize("edsc class count")?;
        let series_len = dec.get_usize("edsc series_len")?;
        let min_prefix = dec.get_usize("edsc min_prefix")?.max(1);
        let n = dec.get_usize("edsc feature count")?;
        // Each feature is a section: at least its 8-byte length.
        dec.check_claim(n, 8, "edsc features")?;
        let mut features = Vec::with_capacity(n);
        for i in 0..n {
            let mut sub = dec.section("edsc feature")?;
            let pattern = sub.get_f64_vec("edsc pattern")?;
            if pattern.is_empty() || pattern.len() > series_len {
                return Err(PersistError::Corrupt(format!(
                    "edsc feature {i}: pattern length {} for series_len {series_len}",
                    pattern.len()
                )));
            }
            let label = sub.get_usize("edsc feature label")?;
            if label >= n_classes {
                return Err(PersistError::Corrupt(format!(
                    "edsc feature {i}: label {label} for {n_classes} classes"
                )));
            }
            let threshold = sub.get_f64("edsc feature threshold")?;
            if !(threshold.is_finite() && threshold > 0.0) {
                return Err(PersistError::Corrupt(format!(
                    "edsc feature {i}: threshold {threshold}"
                )));
            }
            let utility = sub.get_f64("edsc feature utility")?;
            let precision = sub.get_f64("edsc feature precision")?;
            let recall = sub.get_f64("edsc feature recall")?;
            sub.finish()?;
            features.push(Feature {
                pattern,
                label,
                threshold,
                utility,
                precision,
                recall,
            });
        }
        Ok(Self {
            features,
            n_classes,
            series_len,
            min_prefix,
        })
    }
}

/// Incremental EDSC session.
///
/// [`Edsc::decide`] rescans every window of the whole prefix per feature on
/// every call — O(prefix × pattern) per feature per sample. The session
/// instead keeps, per feature, the minimum distance over all windows seen
/// so far and, on each push, evaluates only the **new** windows ending at
/// the incoming sample (one per feature, O(pattern) each). The minimum over
/// identical window distances is identical, so decisions reproduce `decide`
/// exactly; per-sample cost is bounded by the feature lengths, independent
/// of how long the prefix has grown.
struct EdscSession<'a> {
    model: &'a Edsc,
    /// Trailing samples, bounded by the longest feature pattern.
    buf: Vec<f64>,
    /// Per-feature minimum window distance seen so far (Euclidean).
    best: Vec<f64>,
    /// Longest pattern length = how much history windows can need.
    window: usize,
    len: usize,
    decision: Decision,
}

impl DecisionSession for EdscSession<'_> {
    fn push(&mut self, x: f64) -> Decision {
        if self.decision.is_predict() {
            self.len += 1;
            return self.decision; // latched: count the sample, skip the work
        }
        if self.buf.len() == self.window {
            self.buf.remove(0); // tiny window; shift beats a ring buffer here
        }
        self.buf.push(x);
        self.len += 1;
        // Evaluate the one new window per feature (the window ending now).
        for (f, best) in self.model.features.iter().zip(self.best.iter_mut()) {
            let m = f.pattern.len();
            if self.len < m {
                continue;
            }
            let start = self.buf.len() - m;
            // Same serial left-to-right accumulation as `decide`'s
            // `best_match_dist` (the unrolled `squared_euclidean`
            // reassociates and would drift a ulp), with the current best as
            // the abandonment cutoff: abandoned windows satisfy d > best
            // exactly, so the best-distance evolution is bit-identical.
            if let Some(d2) =
                squared_euclidean_early_abandon(&f.pattern, &self.buf[start..], *best * *best)
            {
                let d = d2.sqrt();
                if d < *best {
                    *best = d;
                }
            }
        }
        // First feature (utility order) whose best window clears its
        // threshold fires — the same scan as `decide`.
        for (f, &best) in self.model.features.iter().zip(&self.best) {
            if best <= f.threshold {
                let confidence = (1.0 - best / f.threshold).clamp(0.0, 1.0) * f.precision;
                self.decision = Decision::Predict {
                    label: f.label,
                    confidence,
                };
                break;
            }
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
        self.buf.clear();
        self.best.fill(f64::INFINITY);
        self.len = 0;
        self.decision = Decision::Wait;
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u8(session_tags::EDSC_RAW);
        enc.put_f64_slice(&self.buf);
        enc.put_f64_slice(&self.best);
        enc.put_usize(self.len);
        put_decision(enc, self.decision);
        Ok(())
    }
}

/// Per-feature state of an [`EdscZnormSession`].
struct ZnormFeatureState {
    /// Σ xⱼ·qⱼ of every window seen so far, indexed by window start.
    dots: Vec<f64>,
    /// Running maxima over windows: Σx² (nonnegative), |Σx|, |Σx·q| — the
    /// coefficients of the drift bound.
    amax: f64,
    bmax: f64,
    cmax: f64,
    /// Normalization epoch `(u₀, v₀)`: the parameters of the last full
    /// window sweep for this feature.
    u0: f64,
    v0: f64,
    /// Minimum window distance *at the epoch parameters* (windows born
    /// since the sweep are folded in, evaluated at the epoch).
    min0: f64,
    /// Pattern length (as f64) and sums Σq, Σq².
    m: f64,
    q1: f64,
    r: f64,
}

impl ZnormFeatureState {
    /// Squared distance of a window with raw stats
    /// `(a, b, c) = (Σx², Σx, Σx·q)` to this feature's pattern, under the
    /// prefix normalization `ẑ = u·x − v`:
    ///
    /// ```text
    /// ‖ẑ_w − q‖² = u²·a − 2uv·b + m·v² − 2u·c + 2v·q1 + r
    /// ```
    #[inline]
    fn dist_sq(&self, a: f64, b: f64, c: f64, u: f64, v: f64) -> f64 {
        u * u * a - 2.0 * u * v * b + self.m * v * v - 2.0 * u * c + 2.0 * v * self.q1 + self.r
    }
}

/// Incremental EDSC session under per-prefix z-normalization.
///
/// The batch path re-normalizes the whole prefix and rescans every window
/// per push — O(prefix × pattern) per feature per sample. This session
/// exploits that per-prefix z-normalization is an *affine, global* map
/// `ẑ = u·x − v` (`u = 1/σ_p`, `v = μ_p/σ_p`): a window's distance under
/// any such map is a closed form over three cached raw statistics (its
/// Σx², Σx — both recovered from cumulative prefix sums — and its dot with
/// the pattern, cached at window birth; the same dot identity as
/// `etsc_core::nn::BatchProfile`). Each push therefore costs one O(pattern)
/// dot per feature for the newborn window, plus either:
///
/// * **an O(1) drift-bound check** — per feature, the minimum distance at
///   the current `(u, v)` is lower-bounded from the minimum at the last
///   full sweep (`(u₀, v₀)` epoch) plus the exact window-independent shift
///   and a worst-case bound on the window-dependent terms (running maxima
///   of Σx², |Σx|, |Σx·q|); if the bound clears the feature's threshold,
///   no window can match and the sweep is skipped — or
/// * **an O(windows) closed-form sweep** (3 fused multiply-adds per window)
///   when a match cannot be ruled out, which also resets the epoch.
///
/// As the prefix grows, `(u, v)` converge for stationarity-ish streams and
/// sweeps become rare, so the amortized per-push cost is bounded by the
/// pattern lengths; on adversarial (e.g. strongly trending) streams every
/// push may sweep, which still beats replay by the pattern length (3 flops
/// per window instead of a fresh O(pattern) scan, no re-normalization
/// pass). The bound is conservative (inflated by a 1e-9-relative safety
/// margin), so decisions track `decide(&znormalize(prefix))` to the same
/// reassociation tolerance as sweeping on every push.
struct EdscZnormSession<'a> {
    model: &'a Edsc,
    /// Cumulative Σx / Σx² of the raw prefix (len + 1 entries, leading 0) —
    /// window sums become two subtractions, and the prefix mean/std are
    /// recovered with `mean_std`'s exact accumulation order.
    c1: Vec<f64>,
    c2: Vec<f64>,
    /// Trailing raw samples, bounded by the longest pattern (newborn
    /// windows need their raw values once, for the pattern dot).
    tail: Vec<f64>,
    window: usize,
    features: Vec<ZnormFeatureState>,
    len: usize,
    decision: Decision,
}

impl<'a> EdscZnormSession<'a> {
    fn new(model: &'a Edsc, window: usize) -> Self {
        Self {
            model,
            c1: vec![0.0],
            c2: vec![0.0],
            tail: Vec::with_capacity(window),
            window,
            features: model
                .features
                .iter()
                .map(|f| ZnormFeatureState {
                    dots: Vec::new(),
                    amax: 0.0,
                    bmax: 0.0,
                    cmax: 0.0,
                    u0: 0.0,
                    v0: 0.0,
                    min0: f64::INFINITY,
                    m: f.pattern.len() as f64,
                    q1: f.pattern.iter().sum(),
                    r: f.pattern.iter().map(|&q| q * q).sum(),
                })
                .collect(),
            len: 0,
            decision: Decision::Wait,
        }
    }
}

impl DecisionSession for EdscZnormSession<'_> {
    fn push(&mut self, x: f64) -> Decision {
        self.len += 1;
        if self.decision.is_predict() {
            return self.decision; // latched: count the sample, skip the work
        }
        self.c1.push(self.c1[self.c1.len() - 1] + x);
        self.c2.push(self.c2[self.c2.len() - 1] + x * x);
        if self.tail.len() == self.window {
            self.tail.remove(0); // tiny window; shift beats a ring buffer
        }
        self.tail.push(x);
        let t = self.len;
        // Prefix normalization parameters. The cumulative sums accumulate
        // in the same order as `mean_std` over the buffered prefix, so the
        // constant-prefix branch (`ẑ ≡ 0`, i.e. `(u, v) = (0, 0)`) is taken
        // exactly when the batch `znormalize` takes it.
        let n = t as f64;
        let mean = self.c1[t] / n;
        let var = (self.c2[t] / n - mean * mean).max(0.0);
        let sd = var.sqrt();
        let (u, v) = if sd <= etsc_core::znorm::CONSTANT_EPS {
            (0.0, 0.0)
        } else {
            (1.0 / sd, mean / sd)
        };
        // Features in utility order; the first match fires (same scan as
        // `decide`).
        for (f, st) in self.model.features.iter().zip(self.features.iter_mut()) {
            let m = f.pattern.len();
            if t < m {
                continue;
            }
            // Birth of the window ending at the newest sample.
            let w = t - m;
            let start = self.tail.len() - m;
            let mut dot = 0.0;
            for (xv, qv) in self.tail[start..].iter().zip(&f.pattern) {
                dot += xv * qv;
            }
            let a = self.c2[t] - self.c2[w];
            let b = self.c1[t] - self.c1[w];
            st.amax = st.amax.max(a);
            st.bmax = st.bmax.max(b.abs());
            st.cmax = st.cmax.max(dot.abs());
            if st.dots.is_empty() {
                st.u0 = u;
                st.v0 = v;
                st.min0 = st.dist_sq(a, b, dot, u, v);
            } else {
                st.min0 = st.min0.min(st.dist_sq(a, b, dot, st.u0, st.v0));
            }
            st.dots.push(dot);
            let thr2 = f.threshold * f.threshold;
            // Can any window match under the *current* normalization?
            // min_w d(u,v) ≥ min0 + shift − drift, where `shift` is the
            // exact window-independent part of the parameter change and
            // `drift` bounds the window-dependent part via the running
            // maxima. Inflated by a relative safety margin so fp slop in
            // the bound itself can never hide a true match.
            let shift = st.m * (v * v - st.v0 * st.v0) + 2.0 * st.q1 * (v - st.v0);
            let drift = st.amax * (u * u - st.u0 * st.u0).abs()
                + 2.0 * st.bmax * (u * v - st.u0 * st.v0).abs()
                + 2.0 * st.cmax * (u - st.u0).abs();
            let safety = 1e-9 * (st.min0.abs() + thr2 + 1.0);
            if st.min0 + shift - drift - safety > thr2 {
                continue; // provably no match at the current normalization
            }
            // Full closed-form sweep at the current parameters; new epoch.
            let mut best = f64::INFINITY;
            for (wi, &dw) in st.dots.iter().enumerate() {
                let aw = self.c2[wi + m] - self.c2[wi];
                let bw = self.c1[wi + m] - self.c1[wi];
                let d = st.dist_sq(aw, bw, dw, u, v);
                if d < best {
                    best = d;
                }
            }
            st.u0 = u;
            st.v0 = v;
            st.min0 = best;
            if best <= thr2 {
                let d = best.max(0.0).sqrt();
                let confidence = (1.0 - d / f.threshold).clamp(0.0, 1.0) * f.precision;
                self.decision = Decision::Predict {
                    label: f.label,
                    confidence,
                };
                break;
            }
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
        self.c1.truncate(1);
        self.c2.truncate(1);
        self.tail.clear();
        for st in self.features.iter_mut() {
            st.dots.clear();
            st.amax = 0.0;
            st.bmax = 0.0;
            st.cmax = 0.0;
            st.u0 = 0.0;
            st.v0 = 0.0;
            st.min0 = f64::INFINITY;
        }
        self.len = 0;
        self.decision = Decision::Wait;
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u8(session_tags::EDSC_ZNORM);
        enc.put_f64_slice(&self.c1);
        enc.put_f64_slice(&self.c2);
        enc.put_f64_slice(&self.tail);
        enc.put_usize(self.len);
        put_decision(enc, self.decision);
        enc.put_usize(self.features.len());
        for st in &self.features {
            enc.section(|e| {
                e.put_f64_slice(&st.dots);
                e.put_f64(st.amax);
                e.put_f64(st.bmax);
                e.put_f64(st.cmax);
                e.put_f64(st.u0);
                e.put_f64(st.v0);
                e.put_f64(st.min0);
            });
        }
        Ok(())
    }
}

impl EarlyClassifier for Edsc {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn series_len(&self) -> usize {
        self.series_len
    }

    fn min_prefix(&self) -> usize {
        self.min_prefix
    }

    fn decide(&self, prefix: &[f64]) -> Decision {
        // The highest-utility feature that matches anywhere in the prefix
        // fires. (Features are stored in utility order.)
        for f in &self.features {
            if prefix.len() < f.pattern.len() {
                continue;
            }
            if let Some(d) = best_match_dist(&f.pattern, prefix) {
                if d <= f.threshold {
                    let confidence = (1.0 - d / f.threshold).clamp(0.0, 1.0) * f.precision;
                    return Decision::Predict {
                        label: f.label,
                        confidence,
                    };
                }
            }
        }
        Decision::Wait
    }

    fn resume_session(
        &self,
        norm: SessionNorm,
        dec: &mut Decoder<'_>,
    ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
        let window = self.max_pattern_len();
        match norm {
            SessionNorm::Raw => {
                expect_session_tag(dec, session_tags::EDSC_RAW)?;
                let buf = dec.get_f64_vec("edsc buf")?;
                let best = dec.get_f64_vec("edsc best")?;
                if buf.len() > window || best.len() != self.features.len() {
                    return Err(PersistError::Corrupt(format!(
                        "edsc session: buffer {} / {} minima for window {window}, {} features",
                        buf.len(),
                        best.len(),
                        self.features.len()
                    )));
                }
                let len = dec.get_usize("edsc len")?;
                let decision = get_decision(dec, self.n_classes)?;
                Ok(Box::new(EdscSession {
                    model: self,
                    buf,
                    best,
                    window,
                    len,
                    decision,
                }))
            }
            SessionNorm::PerPrefix => {
                expect_session_tag(dec, session_tags::EDSC_ZNORM)?;
                let c1 = dec.get_f64_vec("edsc c1")?;
                let c2 = dec.get_f64_vec("edsc c2")?;
                let tail = dec.get_f64_vec("edsc tail")?;
                if c1.is_empty() || c1.len() != c2.len() || tail.len() > window {
                    return Err(PersistError::Corrupt(
                        "edsc znorm session: cumulative-sum/tail shape".into(),
                    ));
                }
                let len = dec.get_usize("edsc len")?;
                if c1.len() > len + 1 {
                    return Err(PersistError::Corrupt(format!(
                        "edsc znorm session: {} cumulative entries for {len} pushes",
                        c1.len()
                    )));
                }
                let decision = get_decision(dec, self.n_classes)?;
                let n_feat = dec.get_usize("edsc feature state count")?;
                if n_feat != self.features.len() {
                    return Err(PersistError::Corrupt(format!(
                        "edsc znorm session: {n_feat} feature states for {} features",
                        self.features.len()
                    )));
                }
                let mut session = EdscZnormSession::new(self, window);
                for (i, st) in session.features.iter_mut().enumerate() {
                    let mut sub = dec.section("edsc feature state")?;
                    let dots = sub.get_f64_vec("edsc dots")?;
                    if dots.len() + 1 > c1.len() {
                        return Err(PersistError::Corrupt(format!(
                            "edsc znorm session feature {i}: {} window dots for {} prefix entries",
                            dots.len(),
                            c1.len()
                        )));
                    }
                    st.dots = dots;
                    st.amax = sub.get_f64("edsc amax")?;
                    st.bmax = sub.get_f64("edsc bmax")?;
                    st.cmax = sub.get_f64("edsc cmax")?;
                    st.u0 = sub.get_f64("edsc u0")?;
                    st.v0 = sub.get_f64("edsc v0")?;
                    st.min0 = sub.get_f64("edsc min0")?;
                    sub.finish()?;
                }
                session.c1 = c1;
                session.c2 = c2;
                session.tail = tail;
                session.len = len;
                session.decision = decision;
                Ok(Box::new(session))
            }
        }
    }

    fn session(&self, norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
        let window = self.max_pattern_len();
        match norm {
            SessionNorm::Raw => Box::new(EdscSession {
                model: self,
                buf: Vec::with_capacity(window),
                best: vec![f64::INFINITY; self.features.len()],
                window,
                len: 0,
                decision: Decision::Wait,
            }),
            // Re-normalizing a growing prefix rescales every window already
            // scanned, but the rescaling is *affine and global*: each
            // window's distance under any prefix normalization is a closed
            // form over its cached raw Σx/Σx²/Σx·q — so past windows are
            // re-evaluated from three numbers, and a per-feature drift
            // bound skips even that on most pushes.
            SessionNorm::PerPrefix => Box::new(EdscZnormSession::new(self, window)),
        }
    }

    fn predict_full(&self, series: &[f64]) -> ClassLabel {
        // Fallback: the feature with the smallest relative distance wins.
        let mut best = (0usize, f64::INFINITY);
        for f in &self.features {
            if let Some(d) = best_match_dist(&f.pattern, series) {
                let rel = d / f.threshold.max(1e-12);
                if rel < best.1 {
                    best = (f.label, rel);
                }
            }
        }
        if best.1.is_finite() {
            best.0
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate, PrefixPolicy};

    /// Class 0 carries an early bump, class 1 an early dip; both flat after.
    fn bump_data(n: usize, len: usize) -> UcrDataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            for i in 0..n {
                let sign = if c == 0 { 1.0 } else { -1.0 };
                let jitter = (i % 5) as f64 * 0.3;
                data.push(
                    (0..len)
                        .map(|j| {
                            let x = j as f64 - (8.0 + jitter);
                            sign * (-x * x / 8.0).exp()
                                + 0.01 * (((i * 7 + j * 3) % 5) as f64 - 2.0)
                        })
                        .collect(),
                );
                labels.push(c);
            }
        }
        UcrDataset::new(data, labels).unwrap()
    }

    fn quick_cfg(method: ThresholdMethod) -> EdscConfig {
        EdscConfig {
            lengths: vec![8, 12],
            stride: 4,
            method,
            min_precision: 0.8,
            max_features_per_class: 8,
        }
    }

    #[test]
    fn che_fits_and_selects_features() {
        let d = bump_data(8, 40);
        let edsc = Edsc::fit(&d, &quick_cfg(ThresholdMethod::Chebyshev { k: 2.0 }));
        assert!(!edsc.features().is_empty());
        for f in edsc.features() {
            assert!(f.threshold > 0.0);
            assert!(f.precision >= 0.8);
            assert!(f.recall > 0.0);
        }
    }

    #[test]
    fn kde_fits_and_selects_features() {
        let d = bump_data(8, 40);
        let edsc = Edsc::fit(&d, &quick_cfg(ThresholdMethod::Kde { precision: 0.9 }));
        assert!(!edsc.features().is_empty());
    }

    #[test]
    fn classifies_accurately_and_early() {
        let train = bump_data(8, 40);
        let test = bump_data(4, 40);
        for method in [
            ThresholdMethod::Chebyshev { k: 2.0 },
            ThresholdMethod::Kde { precision: 0.9 },
        ] {
            let edsc = Edsc::fit(&train, &quick_cfg(method));
            let ev = evaluate(&edsc, &test, PrefixPolicy::Oracle);
            assert!(
                ev.accuracy() >= 0.75,
                "{method:?} accuracy {}",
                ev.accuracy()
            );
            assert!(
                ev.earliness() < 0.9,
                "{method:?} bump is early; earliness {}",
                ev.earliness()
            );
        }
    }

    #[test]
    fn waits_on_featureless_prefix() {
        let train = bump_data(8, 40);
        let edsc = Edsc::fit(&train, &quick_cfg(ThresholdMethod::Chebyshev { k: 2.0 }));
        // A prefix shorter than every feature must wait.
        assert_eq!(edsc.decide(&[0.0; 4]), Decision::Wait);
        // A flat prefix (no bump) should not fire features tuned to bumps.
        assert_eq!(edsc.decide(&[0.0; 20]), Decision::Wait);
    }

    #[test]
    fn higher_chebyshev_k_tightens_thresholds() {
        let d = bump_data(8, 40);
        let loose = Edsc::fit(&d, &quick_cfg(ThresholdMethod::Chebyshev { k: 1.0 }));
        let tight = Edsc::fit(&d, &quick_cfg(ThresholdMethod::Chebyshev { k: 3.0 }));
        let max_thr = |e: &Edsc| {
            e.features()
                .iter()
                .map(|f| f.threshold)
                .fold(f64::MIN, f64::max)
        };
        if !loose.features().is_empty() && !tight.features().is_empty() {
            assert!(max_thr(&tight) <= max_thr(&loose) + 1e-9);
        }
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!(normal_cdf(3.0) > 0.998);
        assert!(normal_cdf(-3.0) < 0.002);
        // Symmetry.
        assert!((normal_cdf(1.2) + normal_cdf(-1.2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn kde_cdf_is_monotone() {
        let sample = [1.0, 2.0, 3.0, 4.0];
        let mut prev = 0.0;
        for i in 0..50 {
            let x = i as f64 / 10.0;
            let c = kde_cdf(&sample, x);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert!(kde_cdf(&sample, 10.0) > 0.99);
        assert!(kde_cdf(&[], 0.0) == 0.0);
    }

    #[test]
    fn raw_session_reproduces_decide_exactly() {
        let train = bump_data(8, 40);
        let test = bump_data(3, 40);
        for method in [
            ThresholdMethod::Chebyshev { k: 2.0 },
            ThresholdMethod::Kde { precision: 0.9 },
        ] {
            let edsc = Edsc::fit(&train, &quick_cfg(method));
            for (probe, _) in test.iter() {
                let mut s = edsc.session(crate::SessionNorm::Raw);
                for t in 0..probe.len() {
                    let inc = s.push(probe[t]);
                    let batch = edsc.decide(&probe[..t + 1]);
                    assert_eq!(inc, batch, "{method:?} prefix {}", t + 1);
                    if inc.is_predict() {
                        break; // sessions latch at the first commit
                    }
                }
            }
        }
    }

    #[test]
    fn per_prefix_session_tracks_znormalized_decide() {
        use etsc_core::znorm::znormalize;
        let train = bump_data(8, 40);
        let test = bump_data(3, 40);
        for method in [
            ThresholdMethod::Chebyshev { k: 2.0 },
            ThresholdMethod::Kde { precision: 0.9 },
        ] {
            let edsc = Edsc::fit(&train, &quick_cfg(method));
            for (probe, _) in test.iter() {
                let mut s = edsc.session(crate::SessionNorm::PerPrefix);
                for t in 0..probe.len() {
                    let inc = s.push(probe[t]);
                    let batch = edsc.decide(&znormalize(&probe[..t + 1]));
                    // Closed-form window algebra vs renormalize-and-rescan:
                    // same arithmetic regrouped, so commits can differ only
                    // where a distance grazes a threshold within fp noise.
                    assert_eq!(
                        inc.is_predict(),
                        batch.is_predict(),
                        "{method:?} prefix {}",
                        t + 1
                    );
                    if let (Some((li, ci)), Some((lb, cb))) =
                        (inc.label_confidence(), batch.label_confidence())
                    {
                        assert_eq!(li, lb, "{method:?} prefix {}", t + 1);
                        assert!((ci - cb).abs() < 1e-9, "confidence {ci} vs {cb}");
                        break; // sessions latch at the first commit
                    }
                }
            }
        }
    }

    #[test]
    fn per_prefix_session_reset_reuses_cleanly() {
        let train = bump_data(8, 40);
        let edsc = Edsc::fit(&train, &quick_cfg(ThresholdMethod::Chebyshev { k: 2.0 }));
        let probe = train.series(1);
        let mut s = edsc.session(crate::SessionNorm::PerPrefix);
        let first: Vec<Decision> = probe.iter().map(|&x| s.push(x)).collect();
        s.reset();
        assert!(s.is_empty());
        let second: Vec<Decision> = probe.iter().map(|&x| s.push(x)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn constant_series_training_split_does_not_panic() {
        // Regression: a degenerate split — one class entirely constant, the
        // other near-constant — drives the candidate distance populations
        // to zero variance. The utility sort must tolerate whatever the
        // threshold learners produce (including NaN) instead of panicking
        // in `partial_cmp().unwrap()`.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..6 {
            data.push(vec![0.0; 24]); // constant class
            labels.push(0);
            data.push(vec![1e-9 * (i as f64); 24]); // near-constant class
            labels.push(1);
        }
        let d = UcrDataset::new(data, labels).unwrap();
        for method in [
            ThresholdMethod::Chebyshev { k: 2.0 },
            ThresholdMethod::Kde { precision: 0.9 },
        ] {
            let edsc = Edsc::fit(&d, &quick_cfg(method)); // must not panic
            let _ = edsc.decide(&[0.0; 24]);
        }
    }

    #[test]
    fn utility_sort_puts_nan_last() {
        use std::cmp::Ordering;
        let f = |utility: f64| Feature {
            pattern: vec![0.0; 4],
            label: 0,
            threshold: 1.0,
            utility,
            precision: 1.0,
            recall: 1.0,
        };
        let mut v = [f(0.2), f(f64::NAN), f(0.9), f(f64::NAN), f(0.5)];
        v.sort_by(by_utility_desc);
        let u: Vec<f64> = v.iter().map(|x| x.utility).collect();
        assert_eq!(&u[..3], &[0.9, 0.5, 0.2], "descending reals first");
        assert!(u[3].is_nan() && u[4].is_nan(), "NaNs sort last");
        assert_eq!(by_utility_desc(&f(f64::NAN), &f(f64::NAN)), Ordering::Equal);
    }

    #[test]
    fn best_match_and_earliest_match_agree() {
        let pattern = [1.0, 2.0, 1.0];
        let series = [0.0, 0.0, 1.0, 2.0, 1.0, 0.0];
        let d = best_match_dist(&pattern, &series).unwrap();
        assert!(d < 1e-12);
        assert_eq!(earliest_match_end(&pattern, &series, 0.1), Some(5));
        assert_eq!(earliest_match_end(&pattern, &series[..4], 0.1), None);
        assert!(best_match_dist(&pattern, &series[..2]).is_none());
    }
}
