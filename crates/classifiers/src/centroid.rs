//! Nearest-centroid classification with distance-softmax probabilities.
//!
//! Cheap, deterministic, and probabilistic — useful both as a baseline and
//! as a slave classifier where a full WEASEL pipeline is overkill.

use std::borrow::Cow;

use etsc_core::distance::euclidean;
use etsc_core::UcrDataset;
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::{argmax, Classifier, LaneTop, ScoreLanes, ScoreSession};

/// State-schema tag for [`CentroidScoreSession`] checkpoints.
const TAG_RAW: u8 = 20;
/// State-schema tag for [`CentroidZnormScoreSession`] checkpoints.
const TAG_ZNORM: u8 = 21;

/// A fitted nearest-centroid model: one mean series per class.
#[derive(Debug, Clone)]
pub struct NearestCentroid {
    centroids: Vec<Vec<f64>>,
    /// Softmax temperature applied to negative distances when producing
    /// probabilities. Larger = sharper.
    beta: f64,
    /// Derived from the centroids at fit and decode; never persisted.
    tables: Tables,
}

/// Constants the scorers look up by prefix length `m` (the samples that
/// fall inside the centroids, `0..=len`), for `K` classes.
#[derive(Debug, Clone)]
struct Tables {
    /// Centroid length.
    len: usize,
    /// Coordinates position-major: `coords[i·K + c]` is class `c` at `i`.
    coords: Vec<f64>,
    /// `√max(m, 1)`: the distances' length normalization.
    root: Vec<f64>,
    /// `Σ_{i<m} cᵢ` per class at `sum[m·K + c]`, added from 0.0 in position
    /// order — the terms and order of the z-norm session's running sums, so
    /// entry `m` holds the value that session reaches after `m` samples.
    sum: Vec<f64>,
    /// `Σ_{i<m} cᵢ²` per class, likewise.
    sum_sq: Vec<f64>,
}

impl Tables {
    fn new(centroids: &[Vec<f64>]) -> Self {
        let k = centroids.len();
        let len = centroids.first().map_or(0, Vec::len);
        let coords: Vec<f64> = (0..len)
            .flat_map(|i| centroids.iter().map(move |c| c[i]))
            .collect();
        let mut sum = vec![0.0; (len + 1) * k];
        let mut sum_sq = vec![0.0; (len + 1) * k];
        for (i, row) in coords.chunks_exact(k).enumerate() {
            for (c, &ci) in row.iter().enumerate() {
                sum[(i + 1) * k + c] = sum[i * k + c] + ci;
                sum_sq[(i + 1) * k + c] = sum_sq[i * k + c] + ci * ci;
            }
        }
        Self {
            len,
            coords,
            root: (0..=len).map(|m| (m.max(1) as f64).sqrt()).collect(),
            sum,
            sum_sq,
        }
    }
}

impl NearestCentroid {
    /// Compute per-class centroids of `train`. Classes with no exemplars get
    /// a zero centroid (they can never win).
    pub fn fit(train: &UcrDataset) -> Self {
        Self::fit_with_beta(train, 4.0)
    }

    /// As [`fit`](Self::fit) with an explicit softmax sharpness.
    pub fn fit_with_beta(train: &UcrDataset, beta: f64) -> Self {
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
        for (c, sum) in sums.iter_mut().enumerate() {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                sum.iter_mut().for_each(|v| *v *= inv);
            }
        }
        Self::from_parts(sums, beta)
    }

    /// A model over `centroids` (equal lengths) with its derived tables.
    fn from_parts(centroids: Vec<Vec<f64>>, beta: f64) -> Self {
        let tables = Tables::new(&centroids);
        Self {
            centroids,
            beta,
            tables,
        }
    }

    /// `(n, √n)` for a scorer that has consumed `consumed` samples: `n` is
    /// the number of centroid coordinates compared, floored at 1.
    fn norm_len(&self, consumed: usize) -> (f64, f64) {
        norm_len(&self.tables.root, consumed)
    }

    /// The centroid of class `c`.
    pub fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c]
    }

    /// Distances from `x` to every class centroid, truncated to `x.len()`
    /// prefix of each centroid if `x` is shorter (prefix classification).
    pub fn distances(&self, x: &[f64]) -> Vec<f64> {
        self.centroids
            .iter()
            .map(|c| {
                let n = x.len().min(c.len());
                euclidean(&x[..n], &c[..n]) / (n as f64).sqrt()
            })
            .collect()
    }

    /// The logit the distance softmax exponentiates for a class at distance
    /// `d` when the nearest centroid sits at distance `min`.
    fn logit(&self, d: f64, min: f64) -> f64 {
        logit(self.beta, d, min)
    }

    /// Softmax over negative length-normalized distances, written into
    /// `dist` in place (`dist[c]` holds class `c`'s distance on entry).
    fn softmax_distances_in_place(&self, dist: &mut [f64]) {
        let min = dist.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut z = 0.0;
        for v in dist.iter_mut() {
            *v = self.logit(*v, min).exp();
            z += *v;
        }
        if z > 0.0 {
            dist.iter_mut().for_each(|v| *v /= z);
        }
    }

    /// [`ScoreSession::logit_gap`] of the distance softmax over `dists`:
    /// with the two smallest distances `d₁ ≤ d₂`, the softmax exponentiates
    /// `logit(d₁, d₁) = −0` for the nearest class and `logit(d₂, d₁)` for the
    /// runner-up, so the gap is `−logit(d₂, d₁) = β·(d₂ − d₁)`, bit for bit.
    /// `None` for a non-finite distance, fewer than two classes, or a β that
    /// is not positive and finite (which reverses or flattens the ranking).
    fn distance_logit_gap(&self, dists: impl Iterator<Item = f64>) -> Option<f64> {
        distance_logit_gap(self.beta, dists)
    }
}

/// [`NearestCentroid::norm_len`] from the `√max(m, 1)` table.
fn norm_len(root: &[f64], consumed: usize) -> (f64, f64) {
    let m = consumed.min(root.len() - 1);
    (m.max(1) as f64, root[m])
}

/// [`NearestCentroid::logit`] at temperature `beta`.
fn logit(beta: f64, d: f64, min: f64) -> f64 {
    -beta * (d - min)
}

/// [`NearestCentroid::distance_logit_gap`] at temperature `beta`.
fn distance_logit_gap(beta: f64, dists: impl Iterator<Item = f64>) -> Option<f64> {
    let [d1, d2] = two_smallest(dists)?;
    let ranked = beta > 0.0 && beta.is_finite();
    ranked.then(|| -logit(beta, d2, d1))
}

/// The two smallest of `xs` in order, or `None` if there are fewer than two
/// or any value is not finite.
fn two_smallest(xs: impl Iterator<Item = f64>) -> Option<[f64; 2]> {
    let mut pair = [f64::INFINITY; 2];
    let mut k = 0usize;
    let mut finite = true;
    for x in xs {
        finite &= x.is_finite();
        if x < pair[0] {
            pair = [x, pair[0]];
        } else if x < pair[1] {
            pair[1] = x;
        }
        k += 1;
    }
    (finite && k >= 2).then_some(pair)
}

/// The relative margin δ of [`PreGate`]: `2⁻²⁰`.
const PREGATE_DELTA: f64 = 1.0 / (1u64 << 20) as f64;
/// `(1 − δ)²`, exact in binary (41 significant bits).
const PREGATE_KEEP: f64 = (1.0 - PREGATE_DELTA) * (1.0 - PREGATE_DELTA);
/// The cap on `a + b`, in units of `(G·r̂/β)²`: `2⁵⁶`.
const PREGATE_CAP: f64 = (1u64 << 56) as f64;
/// The range of `(G/β)²` the pre-gate works in: `[2⁻¹⁰⁰, 2¹⁰⁰]`.
const PREGATE_RANGE: (f64, f64) = (1.0 / (1u128 << 100) as f64, (1u128 << 100) as f64);

/// The lane pre-gate: rules a lane out of committing from its two smallest
/// *squared* distances `a ≥ b` (the values [`raw_distance`] takes the root
/// of), before any root or division — the lower-bound-first idea of the UCR
/// Suite (Rakthanmanon et al., KDD 2012).
///
/// With `r̂ = √nf` the table root the distances are divided by, the gap
/// [`distance_logit_gap`] computes is, in exact arithmetic,
/// `ĝ = β(√a − √b)/r̂ = β(a − b)/(r̂(√a + √b))`, and since
/// `(√a + √b)² = a + b + 2√(ab) ≥ a + 3b`, a lane with
///
/// ```text
/// (a − b)² < w·nf·(a + 3b)   and   a + b ≤ C·w·nf,   w = (1 − δ)²·(G/β)²
/// ```
///
/// has `ĝ < (1 − δ)·G`. The bound is tight at `b = 0` and `b = a` and
/// loosest at `b = a/9`, so every gap below `√¾·(1 − δ)·G ≈ 0.87·G` is
/// ruled out; the rest take the exact path.
///
/// **Rounding.** `u = 2⁻⁵³`, `δ = 2⁻²⁰`, `C = 2⁵⁶`. The test runs only
/// for `β > 0`, `G` positive and normal and `(G/β)²` in `[2⁻¹⁰⁰, 2¹⁰⁰]`;
/// anything else gets a NaN scale, which rules nothing out. In that range
/// no product overflows once the cap holds, the cap fails for NaN, ±∞ and
/// huge values, and negative values are refused outright (their root is
/// NaN, which has no gap).
///
/// 1. *The test is computed.* Each operation adds a relative error of at
///    most `u`; `a − b`, `a + b` and `2(a + b) − |a − b|` are exact when
///    they underflow, and `|a − b|²`'s underflow is below `u` of a normal
///    right-hand side. So a computed pass gives
///    `(a − b)² < (1 − δ)²(G/β)²·nf·(a + 3b)·(1 + u)¹⁷`, and with
///    `nf ≤ r̂²(1 + u)⁴`, `ĝ < (1 − δ)(1 + u)¹¹·G`. A right-hand side that
///    underflows needs `a + 3b < 2⁻⁹²¹`: then `√a/r̂ < 2⁻⁴⁶⁰` and
///    `β ≤ 2⁵¹·G`, so the computed gap is below `2⁻⁴⁰⁸·G` plus half a
///    subnormal, far below `G`.
/// 2. *The gap is computed.* `fl(fl(√a)/r̂)` is within `(1 ± u)²` of
///    `√a/r̂` (it cannot underflow), so the computed gap is at most
///    `(1 + u)²·(ĝ + 3u·β(√a + √b)/r̂)` plus half a subnormal. The second
///    term is absolute — the difference of two rounded roots — which is
///    why `a + b` is capped: `√a + √b ≤ √(2(a + b)) ≤ √(2C)·(G/β)·r̂·(1 + u)⁶`
///    bounds it by `3√(2C)·u·G·(1 + u)⁶ ≈ 0.133·δ·G`.
/// 3. Together the computed gap is below
///    `G·(1 − δ + 0.133·δ + 2⁻⁴⁹) < G·(1 − 0.86·δ)`, which is below `G` by
///    far more than half a subnormal, since `G` is normal. The exact path
///    would rule the lane out too.
///
/// The lane passes the pair from [`smallest_pair`]. Monotone rounding keeps
/// the two smallest squared distances the two smallest distances.
#[derive(Debug, Clone, Copy)]
struct PreGate {
    /// `w = (1 − δ)²·(G/β)²`, or NaN.
    w: f64,
}

impl PreGate {
    /// The pre-gate for temperature `beta` at commit gap `min_gap` (`G`).
    fn new(beta: f64, min_gap: f64) -> Self {
        let ratio = min_gap / beta;
        let scale = ratio * ratio;
        let (lo, hi) = PREGATE_RANGE;
        let usable = beta > 0.0 && min_gap > 0.0 && min_gap.is_normal();
        Self {
            w: if usable && (lo..=hi).contains(&scale) {
                scale * PREGATE_KEEP
            } else {
                f64::NAN
            },
        }
    }

    /// True if a lane with the two squared distances `[p, q]` (either
    /// order) after `nf` samples, `nf ≥ 1`, cannot reach the gap `G`.
    fn rules_out(self, [p, q]: [f64; 2], nf: f64) -> bool {
        let k2 = self.w * nf;
        let sum = p + q;
        let spread = (p - q).abs();
        // a + 3b = 2(a + b) − (a − b).
        let t = (sum + sum) - spread;
        (p >= 0.0) & (q >= 0.0) & (sum <= PREGATE_CAP * k2) & (spread * spread < k2 * t)
    }
}

/// The two smallest of the squared distances `sq`, for [`PreGate`]: the
/// pair itself for two classes, otherwise [`two_smallest`]'s, or NaNs where
/// that has none (a lone class, a non-finite value). The pre-gate rules no
/// NaN out, and the exact gap is `None` there too.
fn smallest_pair(sq: &[f64]) -> [f64; 2] {
    if let [p, q] = *sq {
        return [p, q];
    }
    two_smallest(sq.iter().copied()).unwrap_or([f64::NAN; 2])
}

/// Incremental per-sample scorer for [`NearestCentroid`]: maintains the
/// running squared distance to each centroid, so class probabilities cost
/// O(classes) per sample instead of O(classes × prefix).
#[derive(Debug)]
pub struct CentroidScoreSession<'a> {
    model: &'a NearestCentroid,
    /// Running squared Euclidean distance per class over observed samples.
    sq: Vec<f64>,
    /// Samples consumed (uncapped).
    len: usize,
}

impl CentroidScoreSession<'_> {
    /// Length-normalized distance to every centroid: the input of both the
    /// softmax and the [`ScoreSession::logit_gap`] bound.
    fn distances(&self) -> impl Iterator<Item = f64> + '_ {
        let (_, root_n) = self.model.norm_len(self.len);
        self.sq.iter().map(move |&s| raw_distance(s, root_n))
    }
}

/// Length-normalized distance from a running squared distance `sq` —
/// shared by [`CentroidScoreSession`] and the raw [`ScoreLanes`].
fn raw_distance(sq: f64, root_n: f64) -> f64 {
    sq.sqrt() / root_n
}

/// Write a raw scorer's state (the [`CentroidScoreSession`] checkpoint).
fn encode_raw(enc: &mut Encoder, sq: &[f64], len: usize) {
    enc.put_u8(TAG_RAW);
    enc.put_f64_slice(sq);
    enc.put_usize(len);
}

/// Read a raw scorer's state for a `k`-class model: `(sq, len)`.
fn decode_raw(dec: &mut Decoder<'_>, k: usize) -> Result<(Vec<f64>, usize), PersistError> {
    if dec.get_u8("centroid session tag")? != TAG_RAW {
        return Err(PersistError::Corrupt(
            "centroid session: wrong state tag".into(),
        ));
    }
    let sq = dec.get_f64_vec("centroid session sq")?;
    if sq.len() != k {
        return Err(PersistError::Corrupt(format!(
            "centroid session: {} classes in state, model has {k}",
            sq.len()
        )));
    }
    Ok((sq, dec.get_usize("centroid session len")?))
}

impl ScoreSession for CentroidScoreSession<'_> {
    fn push(&mut self, x: f64) {
        if self.len < self.model.centroids[0].len() {
            // Still inside the centroid length: accumulate coordinate `len`.
            for (acc, c) in self.sq.iter_mut().zip(&self.model.centroids) {
                let d = x - c[self.len];
                *acc += d * d;
            }
        }
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn predict_proba_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.sq.len());
        for (o, d) in out.iter_mut().zip(self.distances()) {
            *o = d;
        }
        self.model.softmax_distances_in_place(out);
    }

    fn logit_gap(&self) -> Option<f64> {
        self.model.distance_logit_gap(self.distances())
    }

    fn reset(&mut self) {
        self.sq.fill(0.0);
        self.len = 0;
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        encode_raw(enc, &self.sq, self.len);
        Ok(())
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        (self.sq, self.len) = decode_raw(dec, self.sq.len())?;
        Ok(())
    }
}

/// Incremental per-sample scorer for the **per-prefix z-normalized** view
/// of the pushed samples (the [`Classifier::score_session_znorm`] substrate
/// for [`NearestCentroid`]).
///
/// Writing the normalized sample as `ẑᵢ = u·xᵢ − v` (`u = 1/σ_p`,
/// `v = μ_p/σ_p`, prefix statistics `μ_p, σ_p`), the squared distance to a
/// centroid prefix `c` expands through the dot identity into
///
/// ```text
/// ‖ẑ − c‖² = u²·Σx² − 2u·(v·Σx + Σx·c) + (n·v² + 2v·Σc + Σc²)
/// ```
///
/// so each arriving sample costs one running-sum update per class and a
/// *change of prefix normalization* — which rescales every past coordinate
/// — is a closed-form re-evaluation, not a replay. Probabilities track the
/// batch `predict_proba(&znormalize(prefix))` to floating-point
/// reassociation tolerance (~1e-9); the normalization constants themselves
/// are maintained with the same `Σx`/`Σx²` accumulation order as
/// `etsc_core::stats::mean_std`, so the constant-prefix branch (all-zeros
/// convention) is taken exactly when the batch path takes it.
#[derive(Debug)]
pub struct CentroidZnormScoreSession<'a> {
    model: &'a NearestCentroid,
    /// Running Σx / Σx² of the raw samples (uncapped; the batch path
    /// normalizes the whole buffer before truncating to the centroid
    /// length).
    s1: f64,
    s2: f64,
    /// Per-class Σ xᵢ·cᵢ over observed coordinates (capped at centroid
    /// length).
    sxc: Vec<f64>,
    /// Per-class Σ cᵢ and Σ cᵢ² over observed coordinates.
    sc: Vec<f64>,
    scc: Vec<f64>,
    /// Σx / Σx² capped at the centroid length (the coordinates that
    /// participate in the distance).
    s1_cap: f64,
    s2_cap: f64,
    len: usize,
}

impl CentroidZnormScoreSession<'_> {
    /// Length-normalized distance from the z-normalized prefix to every
    /// centroid: the input of both the softmax and the
    /// [`ScoreSession::logit_gap`] bound.
    fn distances(&self) -> impl Iterator<Item = f64> + '_ {
        let terms = ZnormTerms::new(
            self.model.norm_len(self.len),
            [self.s1, self.s2, self.s1_cap, self.s2_cap],
            self.len,
        );
        self.sxc
            .iter()
            .zip(&self.sc)
            .zip(&self.scc)
            .map(move |((&sxc, &sc), &scc)| terms.distance(sxc, sc, scc))
    }
}

/// The class-independent terms of the z-norm distance at one prefix —
/// shared by [`CentroidZnormScoreSession`] and the z-norm [`ScoreLanes`].
#[derive(Clone, Copy)]
struct ZnormTerms {
    u: f64,
    v: f64,
    nf: f64,
    root_n: f64,
    s1_cap: f64,
    s2_cap: f64,
}

impl ZnormTerms {
    /// Terms after `len` samples with running sums
    /// `[Σx, Σx², Σx capped, Σx² capped]`, whose length normalization
    /// [`NearestCentroid::norm_len`] is `(nf, root_n)`.
    fn new((nf, root_n): (f64, f64), [s1, s2, s1_cap, s2_cap]: [f64; 4], len: usize) -> Self {
        // Normalization parameters of the *whole* prefix (uncapped sums),
        // matching `znormalize` of the full buffer; `(0, 0)` maps a
        // constant prefix to all zeros, the batch convention.
        let (u, v) = if len == 0 {
            (0.0, 0.0)
        } else {
            let nn = len as f64;
            let mean = s1 / nn;
            let var = (s2 / nn - mean * mean).max(0.0);
            let sd = var.sqrt();
            if sd <= etsc_core::znorm::CONSTANT_EPS {
                (0.0, 0.0)
            } else {
                (1.0 / sd, mean / sd)
            }
        };
        Self {
            u,
            v,
            nf,
            root_n,
            s1_cap,
            s2_cap,
        }
    }

    /// Squared distance to the class with running `Σx·c`, `Σc` and `Σc²`
    /// (the dot identity in the type docs), floored at zero: the value
    /// [`distance`](Self::distance) takes the root of.
    fn squared(&self, sxc: f64, sc: f64, scc: f64) -> f64 {
        let Self {
            u,
            v,
            nf,
            s1_cap,
            s2_cap,
            ..
        } = *self;
        let d2 = u * u * s2_cap - 2.0 * u * (v * s1_cap + sxc) + (nf * v * v + 2.0 * v * sc + scc);
        d2.max(0.0)
    }

    /// Length-normalized distance to the class with running `Σx·c`, `Σc`
    /// and `Σc²`.
    fn distance(&self, sxc: f64, sc: f64, scc: f64) -> f64 {
        raw_distance(self.squared(sxc, sc, scc), self.root_n)
    }
}

/// A z-norm scorer's checkpoint: the fields of
/// [`CentroidZnormScoreSession`], in save order.
struct ZnormState<'s> {
    s1: f64,
    s2: f64,
    sxc: Cow<'s, [f64]>,
    sc: Cow<'s, [f64]>,
    scc: Cow<'s, [f64]>,
    s1_cap: f64,
    s2_cap: f64,
    len: usize,
}

impl ZnormState<'_> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(TAG_ZNORM);
        enc.put_f64(self.s1);
        enc.put_f64(self.s2);
        enc.put_f64_slice(&self.sxc);
        enc.put_f64_slice(&self.sc);
        enc.put_f64_slice(&self.scc);
        enc.put_f64(self.s1_cap);
        enc.put_f64(self.s2_cap);
        enc.put_usize(self.len);
    }

    /// Read a state for a `k`-class model.
    fn decode(dec: &mut Decoder<'_>, k: usize) -> Result<ZnormState<'static>, PersistError> {
        if dec.get_u8("centroid znorm session tag")? != TAG_ZNORM {
            return Err(PersistError::Corrupt(
                "centroid znorm session: wrong state tag".into(),
            ));
        }
        let s1 = dec.get_f64("centroid znorm s1")?;
        let s2 = dec.get_f64("centroid znorm s2")?;
        let sxc = dec.get_f64_vec("centroid znorm sxc")?;
        let sc = dec.get_f64_vec("centroid znorm sc")?;
        let scc = dec.get_f64_vec("centroid znorm scc")?;
        if sxc.len() != k || sc.len() != k || scc.len() != k {
            return Err(PersistError::Corrupt(format!(
                "centroid znorm session: class-sum lengths {}/{}/{} for {k} classes",
                sxc.len(),
                sc.len(),
                scc.len()
            )));
        }
        Ok(ZnormState {
            s1,
            s2,
            sxc: Cow::Owned(sxc),
            sc: Cow::Owned(sc),
            scc: Cow::Owned(scc),
            s1_cap: dec.get_f64("centroid znorm s1_cap")?,
            s2_cap: dec.get_f64("centroid znorm s2_cap")?,
            len: dec.get_usize("centroid znorm len")?,
        })
    }
}

impl ScoreSession for CentroidZnormScoreSession<'_> {
    fn push(&mut self, x: f64) {
        self.s1 += x;
        self.s2 += x * x;
        if self.len < self.model.centroids[0].len() {
            self.s1_cap += x;
            self.s2_cap += x * x;
            for (c, centroid) in self.model.centroids.iter().enumerate() {
                let ci = centroid[self.len];
                self.sxc[c] += x * ci;
                self.sc[c] += ci;
                self.scc[c] += ci * ci;
            }
        }
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn predict_proba_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.sxc.len());
        for (o, d) in out.iter_mut().zip(self.distances()) {
            *o = d;
        }
        self.model.softmax_distances_in_place(out);
    }

    fn logit_gap(&self) -> Option<f64> {
        self.model.distance_logit_gap(self.distances())
    }

    fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
        self.sxc.fill(0.0);
        self.sc.fill(0.0);
        self.scc.fill(0.0);
        self.s1_cap = 0.0;
        self.s2_cap = 0.0;
        self.len = 0;
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        ZnormState {
            s1: self.s1,
            s2: self.s2,
            sxc: Cow::Borrowed(&self.sxc),
            sc: Cow::Borrowed(&self.sc),
            scc: Cow::Borrowed(&self.scc),
            s1_cap: self.s1_cap,
            s2_cap: self.s2_cap,
            len: self.len,
        }
        .encode(enc);
        Ok(())
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        let state = ZnormState::decode(dec, self.sxc.len())?;
        self.s1 = state.s1;
        self.s2 = state.s2;
        self.sxc = state.sxc.into_owned();
        self.sc = state.sc.into_owned();
        self.scc = state.scc.into_owned();
        self.s1_cap = state.s1_cap;
        self.s2_cap = state.s2_cap;
        self.len = state.len;
        Ok(())
    }
}

/// Running sums at the head of a z-norm lane: Σx, Σx², and both capped at
/// the centroid length.
const ZNORM_HEAD: usize = 4;

/// [`ScoreLanes`] for [`NearestCentroid`], raw or per-prefix z-normalized.
///
/// Every lane's accumulators sit in one lane-major buffer: raw lanes hold
/// [`CentroidScoreSession`]'s `Σ(x − c)²` per class, z-norm lanes
/// [`CentroidZnormScoreSession`]'s four running sums then `Σx·c` per class.
/// The z-norm session's `Σc` and `Σc²` depend only on how many samples a
/// lane has consumed, so lanes read them, like `√n` and the centroid
/// coordinates, from the model's tables.
///
/// A push is one loop over the lanes, with no dynamic dispatch: each lane
/// accumulates the sample and, once old enough to score, computes its
/// squared distances once. The [`PreGate`] rules most lanes out from those
/// alone; the rest take their roots and feed the logit gap and, for the few
/// lanes the gap cannot rule out, the softmax. Every distance, gap and
/// probability is the one the lane's session computes, through the same
/// helpers, so the lanes reported are exactly the session's.
///
/// The loop is one generic body (`push_lanes`), compiled for two classes,
/// where the class loops, the lane width and the table slices are
/// constants, and for a class count read at run time, each raw and
/// z-normalized.
struct CentroidLanes<'a> {
    model: &'a NearestCentroid,
    znorm: bool,
    /// `width()` accumulators per lane, lanes in open order.
    acc: Vec<f64>,
    lanes: Vec<Lane>,
    /// One lane's squared distances, then its distances, then its
    /// probabilities.
    dist: Vec<f64>,
}

/// A lane's scorer length and whether it is frozen.
#[derive(Debug, Clone, Copy)]
struct Lane {
    len: usize,
    frozen: bool,
}

/// Accumulators per lane for `k` classes: the per-class sums, after the
/// z-norm head when `znorm` is set.
#[inline(always)]
fn lane_width(k: usize, znorm: bool) -> usize {
    k + if znorm { ZNORM_HEAD } else { 0 }
}

/// A class count the lane loop is compiled for.
trait Classes: Copy {
    fn count(self) -> usize;
}

/// Two classes, a compile-time constant.
#[derive(Clone, Copy)]
struct TwoClasses;

impl Classes for TwoClasses {
    #[inline(always)]
    fn count(self) -> usize {
        2
    }
}

/// Any class count, read at run time.
#[derive(Clone, Copy)]
struct AnyClasses(usize);

impl Classes for AnyClasses {
    #[inline(always)]
    fn count(self) -> usize {
        self.0
    }
}

impl CentroidLanes<'_> {
    fn width(&self) -> usize {
        lane_width(self.model.centroids.len(), self.znorm)
    }

    /// [`ScoreLanes::push`] for `classes` classes, z-normalized when
    /// `ZNORM` is set.
    #[inline(always)]
    fn push_lanes<K: Classes, const ZNORM: bool>(
        &mut self,
        classes: K,
        x: f64,
        min_prefix: usize,
        min_gap: f64,
        out: &mut Vec<LaneTop>,
    ) {
        let Self {
            model,
            acc,
            lanes,
            dist,
            ..
        } = self;
        let model = *model;
        let k = classes.count();
        let width = lane_width(k, ZNORM);
        let head_len = width - k;
        // The model's constants as locals, so that the stores below do not
        // make the compiler reload them for every lane.
        let (beta, t) = (model.beta, &model.tables);
        let (coords, sum, sum_sq, root, clen) =
            (&t.coords[..], &t.sum[..], &t.sum_sq[..], &t.root[..], t.len);
        let dist = &mut dist[..k];
        let pregate = PreGate::new(beta, min_gap);
        let xx = x * x;
        for (lane, (state, acc)) in lanes
            .iter_mut()
            .zip(acc.chunks_exact_mut(width))
            .enumerate()
        {
            if state.frozen {
                continue;
            }
            let (head, per_class) = acc.split_at_mut(head_len);
            let per_class = &mut per_class[..k];
            if state.len < clen {
                let coords = &coords[state.len * k..][..k];
                if ZNORM {
                    head[2] += x;
                    head[3] += xx;
                    for (s, &ci) in per_class.iter_mut().zip(coords) {
                        *s += x * ci;
                    }
                } else {
                    for (s, &ci) in per_class.iter_mut().zip(coords) {
                        let d = x - ci;
                        *s += d * d;
                    }
                }
            }
            if ZNORM {
                head[0] += x;
                head[1] += xx;
            }
            state.len += 1;
            if state.len < min_prefix {
                continue;
            }
            // The squared distances go to `dist`: a raw lane's
            // accumulators, or the z-norm expansion.
            let (nf, root_n) = norm_len(root, state.len);
            if ZNORM {
                let terms = ZnormTerms::new(
                    (nf, root_n),
                    [head[0], head[1], head[2], head[3]],
                    state.len,
                );
                let m = state.len.min(clen) * k;
                let sums = sum[m..][..k].iter().zip(&sum_sq[m..][..k]);
                for ((slot, &sxc), (&sc, &scc)) in dist.iter_mut().zip(&*per_class).zip(sums) {
                    *slot = terms.squared(sxc, sc, scc);
                }
            } else {
                dist.copy_from_slice(per_class);
            }
            // Most lanes end here, before any root or division.
            if pregate.rules_out(smallest_pair(dist), nf) {
                continue;
            }
            // The rest take the session's path: distances, the exact gap,
            // and the softmax should the gap not rule the lane out.
            for d in dist.iter_mut() {
                *d = raw_distance(*d, root_n);
            }
            if distance_logit_gap(beta, dist.iter().copied()).is_some_and(|g| g < min_gap) {
                continue;
            }
            model.softmax_distances_in_place(dist);
            let label = argmax(dist);
            out.push(LaneTop {
                lane,
                label,
                probability: dist[label],
            });
        }
    }
}

impl ScoreLanes for CentroidLanes<'_> {
    fn open(&mut self) {
        let width = self.width();
        self.acc.resize(self.acc.len() + width, 0.0);
        self.lanes.push(Lane {
            len: 0,
            frozen: false,
        });
    }

    fn retain(&mut self, keep: &[bool]) {
        let width = self.width();
        let mut flags = keep.iter();
        let mut kept = 0;
        for lane in 0..self.lanes.len() {
            if flags.next() == Some(&false) {
                continue;
            }
            if kept < lane {
                self.lanes[kept] = self.lanes[lane];
                self.acc
                    .copy_within(lane * width..(lane + 1) * width, kept * width);
            }
            kept += 1;
        }
        self.lanes.truncate(kept);
        self.acc.truncate(kept * width);
    }

    fn freeze(&mut self, lane: usize) {
        if let Some(l) = self.lanes.get_mut(lane) {
            l.frozen = true;
        }
    }

    fn push(&mut self, x: f64, min_prefix: usize, min_gap: f64, out: &mut Vec<LaneTop>) {
        match (self.model.centroids.len(), self.znorm) {
            (2, true) => self.push_lanes::<_, true>(TwoClasses, x, min_prefix, min_gap, out),
            (2, false) => self.push_lanes::<_, false>(TwoClasses, x, min_prefix, min_gap, out),
            (k, true) => self.push_lanes::<_, true>(AnyClasses(k), x, min_prefix, min_gap, out),
            (k, false) => self.push_lanes::<_, false>(AnyClasses(k), x, min_prefix, min_gap, out),
        }
    }

    fn save_lane(&self, lane: usize, enc: &mut Encoder) -> Result<(), PersistError> {
        let width = self.width();
        let len = self.lanes[lane].len;
        let acc = &self.acc[lane * width..][..width];
        if !self.znorm {
            encode_raw(enc, acc, len);
            return Ok(());
        }
        let k = self.model.centroids.len();
        let m = len.min(self.model.tables.len) * k;
        ZnormState {
            s1: acc[0],
            s2: acc[1],
            sxc: Cow::Borrowed(&acc[ZNORM_HEAD..]),
            sc: Cow::Borrowed(&self.model.tables.sum[m..][..k]),
            scc: Cow::Borrowed(&self.model.tables.sum_sq[m..][..k]),
            s1_cap: acc[2],
            s2_cap: acc[3],
            len,
        }
        .encode(enc);
        Ok(())
    }

    fn load_lane(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        let k = self.model.centroids.len();
        let len = if self.znorm {
            let state = ZnormState::decode(dec, k)?;
            // Σc and Σc² are model constants at the stored length: a state
            // that disagrees with the tables was not written by this model.
            let m = state.len.min(self.model.tables.len) * k;
            let same =
                |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            if !same(&state.sc, &self.model.tables.sum[m..][..k])
                || !same(&state.scc, &self.model.tables.sum_sq[m..][..k])
            {
                return Err(PersistError::Corrupt(format!(
                    "centroid znorm lanes: Σc/Σc² do not match the model after {} samples",
                    state.len
                )));
            }
            self.acc
                .extend_from_slice(&[state.s1, state.s2, state.s1_cap, state.s2_cap]);
            self.acc.extend_from_slice(&state.sxc);
            state.len
        } else {
            let (sq, len) = decode_raw(dec, k)?;
            self.acc.extend_from_slice(&sq);
            len
        };
        self.lanes.push(Lane { len, frozen: false });
        Ok(())
    }
}

impl Persist for NearestCentroid {
    const KIND: &'static str = "NearestCentroid";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_f64(self.beta);
        enc.put_usize(self.centroids.len());
        for c in &self.centroids {
            enc.put_f64_slice(c);
        }
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let beta = dec.get_f64("centroid beta")?;
        let n = dec.get_usize("centroid class count")?;
        if n == 0 {
            return Err(PersistError::Corrupt("centroid: zero classes".into()));
        }
        // Each centroid is at least its 8-byte length prefix.
        dec.check_claim(n, 8, "centroids")?;
        let mut centroids = Vec::with_capacity(n);
        for _ in 0..n {
            centroids.push(dec.get_f64_vec("centroid vector")?);
        }
        let len = centroids[0].len();
        if len == 0 || centroids.iter().any(|c| c.len() != len) {
            return Err(PersistError::Corrupt(
                "centroid: centroids must share a non-empty length".into(),
            ));
        }
        Ok(Self::from_parts(centroids, beta))
    }
}

impl Classifier for NearestCentroid {
    fn n_classes(&self) -> usize {
        self.centroids.len()
    }

    /// Softmax over negative (length-normalized) centroid distances.
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut p = self.distances(x);
        self.softmax_distances_in_place(&mut p);
        p
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.centroids.len());
        for (o, c) in out.iter_mut().zip(&self.centroids) {
            let n = x.len().min(c.len());
            *o = euclidean(&x[..n], &c[..n]) / (n as f64).sqrt();
        }
        self.softmax_distances_in_place(out);
    }

    fn score_session(&self) -> Option<Box<dyn ScoreSession + '_>> {
        Some(Box::new(CentroidScoreSession {
            model: self,
            sq: vec![0.0; self.centroids.len()],
            len: 0,
        }))
    }

    fn score_session_znorm(&self) -> Option<Box<dyn ScoreSession + '_>> {
        let k = self.centroids.len();
        Some(Box::new(CentroidZnormScoreSession {
            model: self,
            s1: 0.0,
            s2: 0.0,
            sxc: vec![0.0; k],
            sc: vec![0.0; k],
            scc: vec![0.0; k],
            s1_cap: 0.0,
            s2_cap: 0.0,
            len: 0,
        }))
    }

    fn score_lanes(&self, znorm: bool) -> Option<Box<dyn ScoreLanes + '_>> {
        Some(Box::new(CentroidLanes {
            model: self,
            znorm,
            acc: Vec::new(),
            lanes: Vec::new(),
            dist: vec![0.0; self.centroids.len()],
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> UcrDataset {
        UcrDataset::new(
            vec![
                vec![0.0, 0.0, 0.0, 0.0],
                vec![0.2, 0.0, -0.2, 0.0],
                vec![5.0, 5.0, 5.0, 5.0],
                vec![5.2, 4.8, 5.0, 5.0],
            ],
            vec![0, 0, 1, 1],
        )
        .unwrap()
    }

    #[test]
    fn centroids_are_class_means() {
        let m = NearestCentroid::fit(&toy());
        assert_eq!(m.centroid(0), &[0.1, 0.0, -0.1, 0.0]);
        assert_eq!(m.centroid(1), &[5.1, 4.9, 5.0, 5.0]);
    }

    #[test]
    fn predicts_by_proximity() {
        let m = NearestCentroid::fit(&toy());
        assert_eq!(m.predict(&[0.1, -0.1, 0.0, 0.1]), 0);
        assert_eq!(m.predict(&[4.0, 5.0, 6.0, 5.0]), 1);
    }

    #[test]
    fn proba_sums_to_one_and_orders_correctly() {
        let m = NearestCentroid::fit(&toy());
        let p = m.predict_proba(&[0.0, 0.0, 0.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > p[1]);
        assert!(p[0] > 0.9, "clear-cut case should be confident: {p:?}");
    }

    #[test]
    fn prefix_classification_uses_centroid_prefix() {
        let m = NearestCentroid::fit(&toy());
        // Only 2 points seen; still classifiable.
        assert_eq!(m.predict(&[5.0, 5.0]), 1);
        assert_eq!(m.predict(&[0.0, 0.0]), 0);
    }

    #[test]
    fn predict_proba_into_matches_vec_path() {
        let m = NearestCentroid::fit(&toy());
        let probe = [0.3, 1.0, 4.0];
        let mut out = [0.0; 2];
        m.predict_proba_into(&probe, &mut out);
        assert_eq!(out.to_vec(), m.predict_proba(&probe));
    }

    #[test]
    fn znorm_score_session_tracks_batch_on_normalized_prefixes() {
        use etsc_core::znorm::znormalize;
        let m = NearestCentroid::fit(&toy());
        let mut s = m.score_session_znorm().expect("centroid has a znorm form");
        // Constant head (exercises the all-zeros convention), varied tail,
        // longer than the centroids (exercises the truncation cap).
        let probe = [2.0, 2.0, 2.0, 5.0, -1.0, 7.0];
        let mut out = [0.0; 2];
        for (i, &x) in probe.iter().enumerate() {
            s.push(x);
            s.predict_proba_into(&mut out);
            let batch = m.predict_proba(&znormalize(&probe[..i + 1]));
            for c in 0..2 {
                assert!(
                    (out[c] - batch[c]).abs() <= 1e-9,
                    "prefix {}: {:?} vs {:?}",
                    i + 1,
                    out,
                    batch
                );
            }
        }
        s.reset();
        assert!(s.is_empty());
        s.push(probe[0]);
        s.predict_proba_into(&mut out);
        let batch = m.predict_proba(&znormalize(&probe[..1]));
        assert!((out[0] - batch[0]).abs() <= 1e-9, "reset session replays");
    }

    #[test]
    fn snapshot_restore_and_session_checkpoint_are_exact() {
        let m = NearestCentroid::fit(&toy());
        let back = NearestCentroid::restore(&m.snapshot()).unwrap();
        let probe = [0.3, 1.0, 4.0, 5.0, 2.0, 7.0];
        for t in 1..=probe.len() {
            assert_eq!(
                back.predict_proba(&probe[..t]),
                m.predict_proba(&probe[..t])
            );
        }
        // Session checkpoint: interrupted twin continues bit-identically,
        // for both the raw and the per-prefix z-normalized scorer.
        for znorm in [false, true] {
            let mut whole = if znorm {
                m.score_session_znorm().unwrap()
            } else {
                m.score_session().unwrap()
            };
            let mut head = if znorm {
                m.score_session_znorm().unwrap()
            } else {
                m.score_session().unwrap()
            };
            for &x in &probe[..3] {
                whole.push(x);
                head.push(x);
            }
            let mut enc = Encoder::new();
            head.save_state(&mut enc).unwrap();
            let bytes = enc.into_bytes();
            let mut resumed = if znorm {
                m.score_session_znorm().unwrap()
            } else {
                m.score_session().unwrap()
            };
            resumed.load_state(&mut Decoder::new(&bytes)).unwrap();
            let mut a = [0.0; 2];
            let mut b = [0.0; 2];
            for &x in &probe[3..] {
                whole.push(x);
                resumed.push(x);
                whole.predict_proba_into(&mut a);
                resumed.predict_proba_into(&mut b);
                assert_eq!(a, b, "znorm={znorm}: restored session diverged");
            }
        }
    }

    /// Checks the distance softmax gate on `dists` at every threshold;
    /// returns how many thresholds it skipped.
    fn assert_distance_gate_sound(beta: f64, dists: &[f64]) -> usize {
        use crate::gate_cases::THETAS;
        let m = NearestCentroid::from_parts(vec![vec![0.0]; dists.len()], beta);
        let gap = m.distance_logit_gap(dists.iter().copied());
        let mut p = dists.to_vec();
        m.softmax_distances_in_place(&mut p);
        let top = p[crate::argmax(&p)];
        let mut skipped = 0;
        for theta in THETAS {
            if gap.is_some_and(|g| g < crate::min_commit_gap(theta)) {
                assert!(
                    top < theta,
                    "β {beta}, distances {dists:?}: gap {gap:?} skipped θ = {theta} but top = {top}"
                );
                skipped += 1;
            }
        }
        skipped
    }

    #[test]
    fn distance_gate_never_skips_a_commit() {
        let mut skipped = 0;
        let mut checked = 0;
        for (i, v) in crate::gate_cases::hostile_vectors(11, 4000)
            .into_iter()
            .enumerate()
        {
            let dists: Vec<f64> = v.iter().map(|d| d.abs()).collect();
            let beta = [4.0, 1.0, 0.05, 300.0, 1e-300, -1.0, 0.0, f64::INFINITY][i % 8];
            skipped += assert_distance_gate_sound(beta, &dists);
            checked += 1;
        }
        // Gaps straddling each cutoff and the underflow point, the nearest
        // class placed first, last and in between, with far classes added.
        for g in crate::gate_cases::boundary_gaps() {
            for k in [2usize, 3, 7] {
                for slot in 0..k {
                    let mut dists = vec![g + 5.0; k];
                    dists[slot] = 0.0;
                    dists[(slot + 1) % k] = g;
                    let m = NearestCentroid::from_parts(vec![vec![0.0]; k], 1.0);
                    assert_eq!(m.distance_logit_gap(dists.iter().copied()), Some(g));
                    skipped += assert_distance_gate_sound(1.0, &dists);
                    let scaled: Vec<f64> = dists.iter().map(|d| 1.5 + d / 4.0).collect();
                    skipped += assert_distance_gate_sound(4.0, &scaled);
                    checked += 2;
                }
            }
        }
        assert!(skipped > 0 && skipped < checked * 6, "{skipped}/{checked}");
        // The underflow case θ = 1 must still see: exactly 1.0, not skipped.
        let m = NearestCentroid::from_parts(vec![vec![0.0]; 2], 1.0);
        let mut p = [0.0, 800.0];
        m.softmax_distances_in_place(&mut p);
        assert_eq!(p[0], 1.0);
        assert!(
            m.distance_logit_gap([0.0, 800.0].into_iter()).unwrap() >= crate::min_commit_gap(1.0)
        );
    }

    /// Temperatures the pre-gate is checked at: `fit`'s, two far from it,
    /// two so far that `(G/β)²` leaves the pre-gate's range, and the
    /// degenerate ones, which have no gap.
    const PREGATE_BETAS: [f64; 9] = [
        4.0,
        1e-3,
        1e3,
        1e-300,
        1e300,
        0.0,
        -1.0,
        f64::INFINITY,
        f64::NAN,
    ];

    /// Commit gaps the pre-gate is checked at: every threshold's, and raw
    /// gaps no threshold gives (infinite, NaN, zero, negative, subnormal,
    /// the smallest normal, very small and very large).
    fn pregate_gaps() -> Vec<f64> {
        let mut gaps: Vec<f64> = crate::gate_cases::THETAS
            .iter()
            .map(|&theta| crate::min_commit_gap(theta))
            .collect();
        gaps.extend([
            f64::INFINITY,
            f64::NAN,
            0.0,
            -1.0,
            1e-310,
            f64::MIN_POSITIVE,
            1e-30,
            1e30,
        ]);
        gaps
    }

    /// Checks [`PreGate`] on the squared distances `sq` after `nf` samples
    /// at every gap of [`pregate_gaps`]: whenever it rules the lane out,
    /// the exact gap — the lane's distances through [`distance_logit_gap`],
    /// as the lane would compute them — is below the cutoff. Returns how
    /// many cutoffs it ruled out.
    fn assert_pregate_sound(beta: f64, sq: &[f64], nf: f64) -> usize {
        let root_n = nf.sqrt();
        let exact = distance_logit_gap(beta, sq.iter().map(|&s| raw_distance(s, root_n)));
        let mut ruled_out = 0;
        for gap in pregate_gaps() {
            if PreGate::new(beta, gap).rules_out(smallest_pair(sq), nf) {
                assert!(
                    exact.is_some_and(|g| g < gap),
                    "β {beta}, nf {nf}, squared {sq:?}: ruled out at gap {gap}, exact {exact:?}"
                );
                ruled_out += 1;
            }
        }
        ruled_out
    }

    /// The pair `[a, x·a]` whose exact gap `β(√a − √(xa))/√nf` is `g`.
    fn pair_at_gap(g: f64, x: f64, beta: f64, nf: f64) -> [f64; 2] {
        let root_a = g * nf.sqrt() / (beta * (1.0 - x.sqrt()));
        let a = root_a * root_a;
        [a, x * a]
    }

    #[test]
    fn pregate_never_rules_out_a_lane_the_exact_gap_keeps() {
        let nfs = [1.0, 7.0, 150.0];
        let mut ruled_out = 0;
        let mut check = |sq: &[f64]| {
            for beta in PREGATE_BETAS {
                for nf in nfs {
                    ruled_out += assert_pregate_sound(beta, sq, nf);
                }
            }
        };
        // Score vectors as they come (negative values included), as
        // magnitudes and squared; whole (the smallest pair of up to seven
        // classes) and pair by pair.
        for v in crate::gate_cases::hostile_vectors(17, 1500) {
            for sq in [
                v.clone(),
                v.iter().map(|x| x.abs()).collect(),
                v.iter().map(|x| x * x).collect::<Vec<_>>(),
            ] {
                check(&sq);
                for pair in sq.windows(2) {
                    check(pair);
                }
            }
        }
        // Signed zeros, ±1e±300, NaN and ±∞, against each other and
        // ordinary values.
        let special = [
            0.0,
            -0.0,
            1e300,
            -1e300,
            1e-300,
            -1e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            0.25,
        ];
        for &p in &special {
            for &q in &special {
                check(&[p, q]);
                check(&[p, q, 2.0]);
            }
        }
        // Near-ties at every magnitude: the rounded roots of two squared
        // distances a few ulps apart can differ by far more, relative to
        // their exact difference, than δ covers — the case the cap exists
        // for.
        let mut scale = f64::from_bits(1);
        while scale.is_finite() {
            let a = scale * 1.375;
            scale *= 2.0;
            let mut b = a;
            for _ in 0..4 {
                b = b.next_down();
                check(&[a, b]);
                check(&[b, a.next_up()]);
            }
        }
        // Pairs within 4 ulps of each cutoff, both the exact gap's and the
        // pre-gate's own, at several ratios b/a (tight at 0, loosest at
        // 1/9).
        let ratios: [f64; 6] = [0.0, 1.0 / 9.0, 0.25, 0.5, 0.9, 0.999];
        for beta in PREGATE_BETAS.into_iter().filter(|b| b.is_normal()) {
            for gap in pregate_gaps().into_iter().filter(|g| g.is_normal()) {
                for nf in nfs {
                    for x in ratios {
                        let at_pregate = gap * (1.0 - PREGATE_DELTA) * ((1.0 + 3.0 * x).sqrt())
                            / (1.0 + x.sqrt());
                        for g in [gap, at_pregate] {
                            let [mut a, b] = pair_at_gap(g, x, beta, nf);
                            let (mut up, mut down) = (a, a);
                            check(&[a, b]);
                            for _ in 0..4 {
                                up = up.next_up();
                                down = down.next_down();
                                check(&[up, b]);
                                check(&[down, b]);
                                check(&[b, up]);
                            }
                            // Just inside the pre-gate's own cutoff, at
                            // magnitudes far from under- and overflow, an
                            // enabled pre-gate must rule the lane out.
                            a *= 1.0 - 1e-6;
                            let pregate = PreGate::new(beta, gap);
                            if g == at_pregate
                                && !pregate.w.is_nan()
                                && (1e-200..1e200).contains(&a)
                            {
                                assert!(pregate.rules_out([a, b], nf), "β {beta}, G {gap}, x {x}");
                            }
                        }
                    }
                }
            }
        }
        assert!(
            ruled_out > 100_000,
            "the pre-gate must rule lanes out: {ruled_out}"
        );
    }

    #[test]
    fn session_logit_gap_matches_the_reported_probabilities() {
        let m = NearestCentroid::fit(&toy());
        // NaN last: the raw distances turn NaN (no bound); the z-norm
        // session's constant-prefix convention maps it to a tie instead.
        let probe = [0.3, 1.0, 4.0, 5.0, 2.0, 7.0, f64::NAN];
        let mut p = [0.0; 2];
        for znorm in [false, true] {
            let mut s = if znorm {
                m.score_session_znorm().unwrap()
            } else {
                m.score_session().unwrap()
            };
            for (i, &x) in probe.iter().enumerate() {
                s.push(x);
                s.predict_proba_into(&mut p);
                let top = p[crate::argmax(&p)];
                match s.logit_gap() {
                    // Two classes: the top probability is exactly σ(g).
                    Some(g) => {
                        let sigma = 1.0 / (1.0 + (-g).exp());
                        assert!(
                            (top - sigma).abs() <= 1e-15,
                            "prefix {}: {top} vs σ({g})",
                            i + 1
                        );
                    }
                    None => assert!(!znorm && x.is_nan(), "prefix {}", i + 1),
                }
            }
        }
        let one = NearestCentroid::from_parts(vec![vec![1.0, 2.0]], 4.0);
        let mut s = one.score_session().unwrap();
        s.push(1.0);
        assert_eq!(s.logit_gap(), None, "a lone class has no runner-up");
    }

    #[test]
    fn lanes_score_save_and_load_as_their_sessions() {
        // β = 4 is `fit`'s; the others have no logit gap, so every lane
        // past `min_prefix` reaches the softmax.
        for beta in [4.0, -1.0, 0.0, f64::INFINITY, f64::NAN] {
            let m = NearestCentroid::fit_with_beta(&toy(), beta);
            for theta in [0.5, 0.8] {
                assert_lanes_match_sessions(&m, crate::min_commit_gap(theta));
            }
        }
        // Σc that disagrees with the model is not this model's state.
        let m = NearestCentroid::fit(&toy());
        let mut s = m.score_session_znorm().unwrap();
        s.push(1.0);
        let mut enc = Encoder::new();
        s.save_state(&mut enc).unwrap();
        let mut bytes = enc.into_bytes();
        // tag, s1, s2, sxc (len + 2), then sc's length and first value.
        let sc0 = 1 + 8 + 8 + 8 + 16 + 8;
        bytes[sc0..sc0 + 8].copy_from_slice(&123.0f64.to_le_bytes());
        let mut lanes = m.score_lanes(true).unwrap();
        assert!(matches!(
            lanes.load_lane(&mut Decoder::new(&bytes)),
            Err(PersistError::Corrupt(_))
        ));
        assert!(
            s.load_state(&mut Decoder::new(&bytes)).is_ok(),
            "sessions trust it"
        );
    }

    /// Drives `m`'s lanes and one session per lane through the same
    /// samples at commit gate `gate`, comparing every softmax the lanes
    /// report with the session's, then their checkpoints.
    fn assert_lanes_match_sessions(m: &NearestCentroid, gate: f64) {
        // Longer than the centroids, with a constant head and a NaN.
        let probe = [2.0, 2.0, 0.3, 1.0, 4.0, 5.0, f64::NAN, 2.0, 7.0, -1.0];
        let beta = m.beta;
        for znorm in [false, true] {
            let open = || {
                if znorm {
                    m.score_session_znorm().unwrap()
                } else {
                    m.score_session().unwrap()
                }
            };
            let mut lanes = m.score_lanes(znorm).unwrap();
            let mut sessions: Vec<Box<dyn ScoreSession + '_>> = Vec::new();
            let mut out = Vec::new();
            let mut p = [0.0; 2];
            for (t, &x) in probe.iter().enumerate() {
                // A lane opens every other sample; lane 1 freezes at t = 4.
                if t % 2 == 0 {
                    lanes.open();
                    sessions.push(open());
                }
                if t == 4 {
                    lanes.freeze(1);
                }
                out.clear();
                lanes.push(x, 2, gate, &mut out);
                let mut expected = Vec::new();
                for (lane, s) in sessions.iter_mut().enumerate() {
                    if lane == 1 && t >= 4 {
                        continue;
                    }
                    s.push(x);
                    if s.len() < 2 || s.logit_gap().is_some_and(|g| g < gate) {
                        continue;
                    }
                    s.predict_proba_into(&mut p);
                    let label = crate::argmax(&p);
                    expected.push((lane, label, p[label].to_bits()));
                }
                let got: Vec<_> = out
                    .iter()
                    .map(|o| (o.lane, o.label, o.probability.to_bits()))
                    .collect();
                assert_eq!(got, expected, "β {beta}, znorm={znorm}, sample {t}");
            }
            for (lane, s) in sessions.iter().enumerate() {
                let mut a = Encoder::new();
                lanes.save_lane(lane, &mut a).unwrap();
                let mut b = Encoder::new();
                s.save_state(&mut b).unwrap();
                let bytes = a.into_bytes();
                assert_eq!(
                    bytes,
                    b.into_bytes(),
                    "β {beta}, znorm={znorm}, lane {lane}"
                );
                let mut resumed = m.score_lanes(znorm).unwrap();
                resumed.load_lane(&mut Decoder::new(&bytes)).unwrap();
                let mut again = Encoder::new();
                resumed.save_lane(0, &mut again).unwrap();
                assert_eq!(
                    again.into_bytes(),
                    bytes,
                    "znorm={znorm}, lane {lane} reload"
                );
            }
            lanes.retain(&[true, false]);
            let mut kept = Encoder::new();
            lanes.save_lane(1, &mut kept).unwrap();
            let mut third = Encoder::new();
            sessions[2].save_state(&mut third).unwrap();
            assert_eq!(kept.into_bytes(), third.into_bytes(), "retain keeps order");
        }
    }

    #[test]
    fn score_session_matches_batch_on_every_prefix() {
        let m = NearestCentroid::fit(&toy());
        let mut s = m.score_session().expect("centroid is incremental");
        // Longer than the centroids to exercise the truncation cap.
        let probe = [0.3, 1.0, 4.0, 5.0, 2.0, 7.0];
        let mut out = [0.0; 2];
        for (i, &x) in probe.iter().enumerate() {
            s.push(x);
            s.predict_proba_into(&mut out);
            let batch = m.predict_proba(&probe[..i + 1]);
            assert_eq!(out.to_vec(), batch, "prefix {}", i + 1);
        }
        assert_eq!(s.len(), probe.len());
        s.reset();
        assert!(s.is_empty());
    }
}
