//! Nearest-centroid classification with distance-softmax probabilities.
//!
//! Cheap, deterministic, and probabilistic — useful both as a baseline and
//! as a slave classifier where a full WEASEL pipeline is overkill.

use etsc_core::distance::euclidean;
use etsc_core::UcrDataset;
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::{Classifier, ScoreSession};

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
        Self {
            centroids: sums,
            beta,
        }
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
        -self.beta * (d - min)
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
        if !(self.beta > 0.0 && self.beta.is_finite()) {
            return None;
        }
        let mut d1 = f64::INFINITY;
        let mut d2 = f64::INFINITY;
        let mut k = 0usize;
        for d in dists {
            if !d.is_finite() {
                return None;
            }
            if d < d1 {
                d2 = d1;
                d1 = d;
            } else if d < d2 {
                d2 = d;
            }
            k += 1;
        }
        (k >= 2).then(|| -self.logit(d2, d1))
    }
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
        let n = self.len.min(self.model.centroids[0].len()).max(1);
        let root_n = (n as f64).sqrt();
        self.sq.iter().map(move |&s| s.sqrt() / root_n)
    }
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
        enc.put_u8(TAG_RAW);
        enc.put_f64_slice(&self.sq);
        enc.put_usize(self.len);
        Ok(())
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        if dec.get_u8("centroid session tag")? != TAG_RAW {
            return Err(PersistError::Corrupt(
                "centroid session: wrong state tag".into(),
            ));
        }
        let sq = dec.get_f64_vec("centroid session sq")?;
        if sq.len() != self.sq.len() {
            return Err(PersistError::Corrupt(format!(
                "centroid session: {} classes in state, model has {}",
                sq.len(),
                self.sq.len()
            )));
        }
        self.sq = sq;
        self.len = dec.get_usize("centroid session len")?;
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
        let n = self.len.min(self.model.centroids[0].len()).max(1);
        let root_n = (n as f64).sqrt();
        // Normalization parameters of the *whole* prefix (uncapped sums),
        // matching `znormalize` of the full buffer; `(0, 0)` maps a
        // constant prefix to all zeros, the batch convention.
        let (u, v) = if self.len == 0 {
            (0.0, 0.0)
        } else {
            let nn = self.len as f64;
            let mean = self.s1 / nn;
            let var = (self.s2 / nn - mean * mean).max(0.0);
            let sd = var.sqrt();
            if sd <= etsc_core::znorm::CONSTANT_EPS {
                (0.0, 0.0)
            } else {
                (1.0 / sd, mean / sd)
            }
        };
        let nf = n as f64;
        let (s1_cap, s2_cap) = (self.s1_cap, self.s2_cap);
        self.sxc
            .iter()
            .zip(&self.sc)
            .zip(&self.scc)
            .map(move |((&sxc, &sc), &scc)| {
                let d2 = u * u * s2_cap - 2.0 * u * (v * s1_cap + sxc)
                    + (nf * v * v + 2.0 * v * sc + scc);
                d2.max(0.0).sqrt() / root_n
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
        enc.put_u8(TAG_ZNORM);
        enc.put_f64(self.s1);
        enc.put_f64(self.s2);
        enc.put_f64_slice(&self.sxc);
        enc.put_f64_slice(&self.sc);
        enc.put_f64_slice(&self.scc);
        enc.put_f64(self.s1_cap);
        enc.put_f64(self.s2_cap);
        enc.put_usize(self.len);
        Ok(())
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
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
        let k = self.sxc.len();
        if sxc.len() != k || sc.len() != k || scc.len() != k {
            return Err(PersistError::Corrupt(format!(
                "centroid znorm session: class-sum lengths {}/{}/{} for {k} classes",
                sxc.len(),
                sc.len(),
                scc.len()
            )));
        }
        self.s1 = s1;
        self.s2 = s2;
        self.sxc = sxc;
        self.sc = sc;
        self.scc = scc;
        self.s1_cap = dec.get_f64("centroid znorm s1_cap")?;
        self.s2_cap = dec.get_f64("centroid znorm s2_cap")?;
        self.len = dec.get_usize("centroid znorm len")?;
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
        Ok(Self { centroids, beta })
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
        let m = NearestCentroid {
            centroids: vec![vec![0.0]; dists.len()],
            beta,
        };
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
                    let m = NearestCentroid {
                        centroids: vec![vec![0.0]; k],
                        beta: 1.0,
                    };
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
        let m = NearestCentroid {
            centroids: vec![vec![0.0]; 2],
            beta: 1.0,
        };
        let mut p = [0.0, 800.0];
        m.softmax_distances_in_place(&mut p);
        assert_eq!(p[0], 1.0);
        assert!(
            m.distance_logit_gap([0.0, 800.0].into_iter()).unwrap() >= crate::min_commit_gap(1.0)
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
        let one = NearestCentroid {
            centroids: vec![vec![1.0, 2.0]],
            beta: 4.0,
        };
        let mut s = one.score_session().unwrap();
        s.push(1.0);
        assert_eq!(s.logit_gap(), None, "a lone class has no runner-up");
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
