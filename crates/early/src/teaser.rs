//! TEASER — Two-tier Early and Accurate Series classifiER (Schäfer & Leser,
//! DMKD 2020).
//!
//! TEASER evaluates the incoming series at `S` snapshot lengths. Each
//! snapshot has:
//!
//! 1. a probabilistic **slave** classifier trained on training prefixes of
//!    that length (the paper uses WEASEL; we use our from-scratch
//!    [`Weasel`]-lite, or a nearest-centroid slave for cheap configurations);
//! 2. a one-class **master** classifier over the slave's output
//!    `[class probabilities…, margin]` that learns what *trustworthy*
//!    slave outputs look like (fitted on the correctly-classified training
//!    prefixes; the paper uses a one-class SVM, we use a Gaussian envelope —
//!    substitution documented in DESIGN.md);
//! 3. a consistency rule: commit only after `v` consecutive snapshots
//!    produce the same master-accepted prediction, with `v` grid-searched on
//!    the training set.
//!
//! Footnote 2 of the critique paper notes TEASER z-normalizes each prefix
//! honestly (no peeking); `TeaserConfig::znorm_prefixes` reproduces that and
//! is on by default.

use etsc_classifiers::centroid::NearestCentroid;
use etsc_classifiers::weasel::{Weasel, WeaselConfig};
use etsc_classifiers::{argmax, Classifier};
use etsc_core::parallel;
use etsc_core::znorm::{znormalize, znormalize_in_place};
use etsc_core::{ClassLabel, UcrDataset};
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::{
    expect_norm, expect_session_tag, get_decision, put_decision, put_norm, session_tags, Decision,
    DecisionSession, EarlyClassifier, SessionNorm,
};

/// Which slave classifier each snapshot trains.
#[derive(Debug, Clone)]
pub enum SlaveKind {
    /// WEASEL-lite bag-of-SFA-words + logistic regression (the paper's
    /// architecture).
    Weasel(WeaselConfig),
    /// Nearest-centroid with softmax probabilities — much cheaper; useful
    /// for large sweeps and ablations.
    Centroid,
}

/// TEASER hyper-parameters.
#[derive(Debug, Clone)]
pub struct TeaserConfig {
    /// Number of snapshots `S` (the paper uses 20).
    pub n_snapshots: usize,
    /// Slave classifier family.
    pub slave: SlaveKind,
    /// Master acceptance quantile: a slave output is accepted if its
    /// envelope score is at least the `q`-quantile of correctly-classified
    /// training scores. 0.0 accepts anything as typical as the worst
    /// training example.
    pub master_quantile: f64,
    /// Largest consistency requirement tried during the grid search for `v`.
    pub max_consistency: usize,
    /// Z-normalize each prefix with its own statistics before classifying
    /// (the honest, non-peeking convention; footnote 2).
    pub znorm_prefixes: bool,
}

impl Default for TeaserConfig {
    fn default() -> Self {
        Self {
            n_snapshots: 20,
            slave: SlaveKind::Weasel(WeaselConfig {
                window_sizes: vec![8, 12, 16],
                word_len: 4,
                alphabet: 4,
                top_features: 128,
                stride: 1,
                ..WeaselConfig::default()
            }),
            master_quantile: 0.05,
            max_consistency: 5,
            znorm_prefixes: true,
        }
    }
}

impl TeaserConfig {
    /// A fast configuration with nearest-centroid slaves — used by sweeps
    /// and the streaming experiments where thousands of decisions are made.
    pub fn fast() -> Self {
        Self {
            slave: SlaveKind::Centroid,
            ..Self::default()
        }
    }
}

/// A fitted slave classifier.
#[derive(Debug, Clone)]
enum Slave {
    Weasel(Weasel),
    Centroid(NearestCentroid),
}

impl Slave {
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        match self {
            Slave::Weasel(w) => w.predict_proba(x),
            Slave::Centroid(c) => c.predict_proba(x),
        }
    }
}

/// Diagonal-Gaussian one-class envelope over slave output vectors.
#[derive(Debug, Clone)]
struct OneClassEnvelope {
    mean: Vec<f64>,
    var: Vec<f64>,
    threshold: f64,
}

impl OneClassEnvelope {
    const VAR_FLOOR: f64 = 1e-4;

    fn fit(vectors: &[Vec<f64>], quantile: f64) -> Option<Self> {
        if vectors.is_empty() {
            return None;
        }
        let d = vectors[0].len();
        let n = vectors.len() as f64;
        let mut mean = vec![0.0; d];
        for v in vectors {
            for (m, &x) in mean.iter_mut().zip(v) {
                *m += x;
            }
        }
        mean.iter_mut().for_each(|m| *m /= n);
        let mut var = vec![0.0; d];
        for v in vectors {
            for ((acc, &x), &m) in var.iter_mut().zip(v).zip(&mean) {
                let dx = x - m;
                *acc += dx * dx;
            }
        }
        var.iter_mut()
            .for_each(|v| *v = (*v / n).max(Self::VAR_FLOOR));
        let proto = Self {
            mean,
            var,
            threshold: f64::NEG_INFINITY,
        };
        let mut scores: Vec<f64> = vectors.iter().map(|v| proto.score(v)).collect();
        // total_cmp: degenerate slave outputs can score NaN; the threshold
        // quantile must not panic mid-fit on a poisoned compare.
        scores.sort_by(f64::total_cmp);
        let idx = ((quantile.clamp(0.0, 1.0)) * (scores.len() - 1) as f64).round() as usize;
        Some(Self {
            threshold: scores[idx],
            ..proto
        })
    }

    /// Unnormalized log-density (Mahalanobis score under the diagonal model).
    fn score(&self, v: &[f64]) -> f64 {
        -self
            .mean
            .iter()
            .zip(&self.var)
            .zip(v)
            .map(|((&m, &var), &x)| {
                let d = x - m;
                d * d / var
            })
            .sum::<f64>()
    }

    fn accepts(&self, v: &[f64]) -> bool {
        self.score(v) >= self.threshold
    }
}

/// One snapshot: a prefix length, its slave, and its master.
#[derive(Debug, Clone)]
struct Snapshot {
    len: usize,
    slave: Slave,
    /// `None` when no training prefix was classified correctly at this
    /// length — the snapshot then never accepts.
    master: Option<OneClassEnvelope>,
}

impl Snapshot {
    /// Master-filtered prediction on an (already normalized) prefix.
    fn accepted_prediction(&self, prefix: &[f64]) -> Option<(ClassLabel, f64)> {
        let p = self
            .slave
            .predict_proba(&prefix[..self.len.min(prefix.len())]);
        let label = argmax(&p);
        let best = p[label];
        let mut second = 0.0;
        for (c, &v) in p.iter().enumerate() {
            if c != label && v > second {
                second = v;
            }
        }
        let mut features = p.clone();
        features.push(best - second);
        match &self.master {
            Some(m) if m.accepts(&features) => Some((label, best)),
            _ => None,
        }
    }
}

/// A fitted TEASER model.
#[derive(Debug, Clone)]
pub struct Teaser {
    snapshots: Vec<Snapshot>,
    /// Consistency requirement chosen on the training set.
    v: usize,
    n_classes: usize,
    series_len: usize,
    znorm_prefixes: bool,
}

impl Teaser {
    /// Fit slaves, masters, and the consistency parameter `v` on `train`.
    pub fn fit(train: &UcrDataset, cfg: &TeaserConfig) -> Self {
        let len = train.series_len();
        let n_classes = train.n_classes();
        assert!(cfg.n_snapshots >= 1);

        // Snapshot lengths: evenly spaced, respecting the slave's minimum
        // usable length.
        let min_len = match &cfg.slave {
            SlaveKind::Weasel(w) => w.window_sizes.iter().copied().min().unwrap_or(8).max(4),
            SlaveKind::Centroid => 2,
        };
        let mut lengths: Vec<usize> = (1..=cfg.n_snapshots)
            .map(|s| (s * len).div_ceil(cfg.n_snapshots))
            .filter(|&l| l >= min_len)
            .collect();
        lengths.dedup();
        assert!(
            !lengths.is_empty(),
            "series of length {len} too short for the chosen slave"
        );

        let normalize = |s: &[f64]| -> Vec<f64> {
            if cfg.znorm_prefixes {
                znormalize(s)
            } else {
                s.to_vec()
            }
        };

        let fit_slave = |ds: &UcrDataset| -> Slave {
            match &cfg.slave {
                SlaveKind::Weasel(wc) => {
                    let mut wc = wc.clone();
                    wc.window_sizes.retain(|&w| w <= ds.series_len());
                    Slave::Weasel(Weasel::fit(ds, &wc))
                }
                SlaveKind::Centroid => Slave::Centroid(NearestCentroid::fit(ds)),
            }
        };

        // Each snapshot's slave + master fit depends only on (train, l), so
        // the fits — the dominant cost of TEASER training — run one per
        // worker thread (`etsc_core::parallel`; results are collected in
        // length order, identical to the serial loop).
        let snapshots = parallel::map(&lengths, |&l| {
            // Slave training set: honest prefixes of length l.
            let prefixes: Vec<Vec<f64>> = train.iter().map(|(s, _)| normalize(&s[..l])).collect();
            let prefix_ds = UcrDataset::new(prefixes.clone(), train.labels().to_vec())
                .expect("prefix dataset inherits validity");
            let slave = fit_slave(&prefix_ds);
            // Master: envelope over correctly classified slave outputs.
            let mut good_vectors = Vec::new();
            let mut correct = 0usize;
            for (p, (_, label)) in prefixes.iter().zip(train.iter()) {
                let proba = slave.predict_proba(p);
                let pred = argmax(&proba);
                if pred == label {
                    correct += 1;
                    let best = proba[pred];
                    let mut second = 0.0;
                    for (c, &v) in proba.iter().enumerate() {
                        if c != pred && v > second {
                            second = v;
                        }
                    }
                    let mut f = proba.clone();
                    f.push(best - second);
                    good_vectors.push(f);
                }
            }
            // A slave that cannot beat the majority-class prior at this
            // length has learned nothing (e.g. a flat lead-in region); its
            // snapshot must never gate an alarm. Resubstitution accuracy is
            // inflated by memorized noise, so the gate uses deterministic
            // 2-fold cross-validation instead.
            let _ = correct; // resubstitution count kept for debugging only
            let cv_acc = Self::cv_accuracy(&prefix_ds, &fit_slave);
            let majority_prior = train.class_priors().into_iter().fold(0.0f64, f64::max);
            let master = if cv_acc > majority_prior + 0.05 {
                OneClassEnvelope::fit(&good_vectors, cfg.master_quantile)
            } else {
                None
            };
            Snapshot {
                len: l,
                slave,
                master,
            }
        });

        let mut teaser = Self {
            snapshots,
            v: 1,
            n_classes,
            series_len: len,
            znorm_prefixes: cfg.znorm_prefixes,
        };
        teaser.v = teaser.select_v(train, cfg.max_consistency);
        teaser
    }

    /// Deterministic 2-fold (even/odd indices) cross-validated accuracy of
    /// the slave family on a prefix dataset. Falls back to 0.0 when a fold
    /// would be degenerate (a missing class), which keeps the gate closed.
    fn cv_accuracy(ds: &UcrDataset, fit_slave: &dyn Fn(&UcrDataset) -> Slave) -> f64 {
        let n = ds.len();
        let even: Vec<usize> = (0..n).step_by(2).collect();
        let odd: Vec<usize> = (1..n).step_by(2).collect();
        if even.is_empty() || odd.is_empty() {
            return 0.0;
        }
        let n_classes = ds.n_classes();
        let mut correct = 0usize;
        let mut total = 0usize;
        for (fit_idx, eval_idx) in [(&even, &odd), (&odd, &even)] {
            let fit_ds = match ds.subset(fit_idx) {
                Ok(d) if d.n_classes() == n_classes => d,
                _ => return 0.0,
            };
            let slave = fit_slave(&fit_ds);
            for &i in eval_idx.iter() {
                let p = slave.predict_proba(ds.series(i));
                if argmax(&p) == ds.label(i) {
                    correct += 1;
                }
                total += 1;
            }
        }
        correct as f64 / total.max(1) as f64
    }

    /// Grid-search the consistency requirement on the training set,
    /// maximizing the harmonic mean of accuracy and earliness.
    ///
    /// Each candidate `v` simulates every training exemplar independently;
    /// the simulations fan out across worker threads and the tallies fold
    /// serially in exemplar order, so the selection is thread-count
    /// invariant. Gated on the training size: one spawn round per `v` only
    /// pays off once there are dozens of simulations to amortize it over.
    fn select_v(&self, train: &UcrDataset, max_v: usize) -> usize {
        let threads = parallel::gate(train.len(), 32);
        let mut best = (1usize, f64::NEG_INFINITY);
        for v in 1..=max_v.max(1) {
            let outcomes: Vec<(bool, usize)> =
                parallel::map_range_with(threads, train.len(), |i| {
                    let (pred, used) = self.simulate(train.series(i), v);
                    (pred == train.label(i), used)
                });
            let mut correct = 0usize;
            let mut earliness_sum = 0.0;
            for (ok, used) in outcomes {
                if ok {
                    correct += 1;
                }
                earliness_sum += used as f64 / self.series_len as f64;
            }
            let acc = correct as f64 / train.len() as f64;
            let earl = 1.0 - earliness_sum / train.len() as f64;
            let hm = if acc + earl > 0.0 {
                2.0 * acc * earl / (acc + earl)
            } else {
                0.0
            };
            if hm > best.1 {
                best = (v, hm);
            }
        }
        best.0
    }

    /// Walk the snapshots of one full series with consistency `v`; returns
    /// (prediction, samples consumed).
    fn simulate(&self, series: &[f64], v: usize) -> (ClassLabel, usize) {
        let mut run: Option<(ClassLabel, usize)> = None;
        for snap in &self.snapshots {
            if snap.len > series.len() {
                break;
            }
            let prefix = self.normalized_prefix(series, snap.len);
            match snap.accepted_prediction(&prefix) {
                Some((label, _)) => {
                    run = match run {
                        Some((l, count)) if l == label => Some((l, count + 1)),
                        _ => Some((label, 1)),
                    };
                    if let Some((l, count)) = run {
                        if count >= v {
                            return (l, snap.len);
                        }
                    }
                }
                None => run = None,
            }
        }
        (self.predict_full(series), series.len())
    }

    fn normalized_prefix(&self, series: &[f64], len: usize) -> Vec<f64> {
        let l = len.min(series.len());
        if self.znorm_prefixes {
            znormalize(&series[..l])
        } else {
            series[..l].to_vec()
        }
    }

    /// Snapshot lengths in use.
    pub fn snapshot_lengths(&self) -> Vec<usize> {
        self.snapshots.iter().map(|s| s.len).collect()
    }

    /// The consistency requirement selected during fitting.
    pub fn consistency(&self) -> usize {
        self.v
    }
}

impl Persist for Teaser {
    const KIND: &'static str = "Teaser";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_usize(self.v);
        enc.put_usize(self.n_classes);
        enc.put_usize(self.series_len);
        enc.put_bool(self.znorm_prefixes);
        enc.put_usize(self.snapshots.len());
        for snap in &self.snapshots {
            enc.section(|e| {
                e.put_usize(snap.len);
                match &snap.slave {
                    Slave::Weasel(w) => {
                        e.put_u8(0);
                        e.section(|e2| w.encode_body(e2));
                    }
                    Slave::Centroid(c) => {
                        e.put_u8(1);
                        e.section(|e2| c.encode_body(e2));
                    }
                }
                match &snap.master {
                    Some(m) => {
                        e.put_bool(true);
                        e.put_f64_slice(&m.mean);
                        e.put_f64_slice(&m.var);
                        e.put_f64(m.threshold);
                    }
                    None => e.put_bool(false),
                }
            });
        }
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let v = dec.get_usize("teaser consistency")?.max(1);
        let n_classes = dec.get_usize("teaser class count")?;
        let series_len = dec.get_usize("teaser series_len")?;
        let znorm_prefixes = dec.get_bool("teaser znorm flag")?;
        let n = dec.get_usize("teaser snapshot count")?;
        if n == 0 {
            return Err(PersistError::Corrupt("teaser: zero snapshots".into()));
        }
        // Each snapshot is at least its 8-byte section length.
        dec.check_claim(n, 8, "teaser snapshots")?;
        let mut snapshots = Vec::with_capacity(n);
        let mut prev_len = 0usize;
        for i in 0..n {
            let mut sub = dec.section("teaser snapshot")?;
            let len = sub.get_usize("teaser snapshot length")?;
            if len <= prev_len || len > series_len {
                return Err(PersistError::Corrupt(format!(
                    "teaser snapshot {i}: length {len} breaks the ascending ladder"
                )));
            }
            prev_len = len;
            let slave = match sub.get_u8("teaser slave tag")? {
                0 => {
                    let mut s = sub.section("teaser weasel slave")?;
                    let w = Weasel::decode_body(&mut s)?;
                    s.finish()?;
                    Slave::Weasel(w)
                }
                1 => {
                    let mut s = sub.section("teaser centroid slave")?;
                    let c = NearestCentroid::decode_body(&mut s)?;
                    s.finish()?;
                    Slave::Centroid(c)
                }
                t => return Err(PersistError::Corrupt(format!("teaser: slave tag {t}"))),
            };
            // Cross-validate the header's class count against the slave: a
            // mismatch would otherwise abort mid-stream in the probability
            // buffers instead of failing the decode.
            let slave_classes = match &slave {
                Slave::Weasel(w) => w.n_classes(),
                Slave::Centroid(c) => c.n_classes(),
            };
            if slave_classes != n_classes {
                return Err(PersistError::Corrupt(format!(
                    "teaser snapshot {i}: slave has {slave_classes} classes, header says {n_classes}"
                )));
            }
            let master = if sub.get_bool("teaser master present")? {
                let mean = sub.get_f64_vec("teaser master mean")?;
                let var = sub.get_f64_vec("teaser master var")?;
                if mean.len() != var.len() || mean.is_empty() {
                    return Err(PersistError::Corrupt(format!(
                        "teaser snapshot {i}: envelope mean/var lengths {}/{}",
                        mean.len(),
                        var.len()
                    )));
                }
                if var.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
                    return Err(PersistError::Corrupt(format!(
                        "teaser snapshot {i}: non-positive envelope variance"
                    )));
                }
                let threshold = sub.get_f64("teaser master threshold")?;
                Some(OneClassEnvelope {
                    mean,
                    var,
                    threshold,
                })
            } else {
                None
            };
            sub.finish()?;
            snapshots.push(Snapshot { len, slave, master });
        }
        Ok(Self {
            snapshots,
            v,
            n_classes,
            series_len,
            znorm_prefixes,
        })
    }
}

impl EarlyClassifier for Teaser {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn series_len(&self) -> usize {
        self.series_len
    }

    fn min_prefix(&self) -> usize {
        self.snapshots.first().map_or(1, |s| s.len)
    }

    fn decide(&self, prefix: &[f64]) -> Decision {
        // Only snapshot boundaries can change the decision; check that the
        // trailing `v` complete snapshots agree and are accepted.
        let complete: Vec<&Snapshot> = self
            .snapshots
            .iter()
            .take_while(|s| s.len <= prefix.len())
            .collect();
        if complete.len() < self.v {
            return Decision::Wait;
        }
        // Recompute only the trailing v snapshots (consistency window).
        let tail = &complete[complete.len() - self.v..];
        consistency_agreement(tail.iter().map(|snap| {
            let p = self.normalized_prefix(prefix, snap.len);
            snap.accepted_prediction(&p)
        }))
    }

    fn session(&self, norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
        Box::new(TeaserSession {
            model: self,
            norm,
            buf: Vec::with_capacity(self.series_len),
            scratch: Vec::new(),
            results: Vec::with_capacity(self.snapshots.len()),
            len: 0,
            decision: Decision::Wait,
        })
    }

    fn predict_full(&self, series: &[f64]) -> ClassLabel {
        let snap = self
            .snapshots
            .iter()
            .rev()
            .find(|s| s.len <= series.len())
            .unwrap_or(&self.snapshots[0]);
        let p = self.normalized_prefix(series, snap.len);
        argmax(&snap.slave.predict_proba(&p[..snap.len.min(p.len())]))
    }

    fn resume_session(
        &self,
        norm: SessionNorm,
        dec: &mut Decoder<'_>,
    ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
        expect_session_tag(dec, session_tags::TEASER)?;
        expect_norm(dec, norm)?;
        let buf = dec.get_f64_vec("teaser buf")?;
        if buf.len() > self.series_len {
            return Err(PersistError::Corrupt(format!(
                "teaser session: buffer of {} for series_len {}",
                buf.len(),
                self.series_len
            )));
        }
        let n_results = dec.get_usize("teaser result count")?;
        if n_results > self.snapshots.len() {
            return Err(PersistError::Corrupt(format!(
                "teaser session: {n_results} snapshot results for {} snapshots",
                self.snapshots.len()
            )));
        }
        let mut results = Vec::with_capacity(n_results);
        for _ in 0..n_results {
            let r = if dec.get_bool("teaser result present")? {
                let label = dec.get_usize("teaser result label")?;
                if label >= self.n_classes {
                    return Err(PersistError::Corrupt(format!(
                        "teaser session: result label {label} for {} classes",
                        self.n_classes
                    )));
                }
                Some((label, dec.get_f64("teaser result confidence")?))
            } else {
                None
            };
            results.push(r);
        }
        let len = dec.get_usize("teaser len")?;
        let decision = get_decision(dec, self.n_classes)?;
        Ok(Box::new(TeaserSession {
            model: self,
            norm,
            buf,
            scratch: Vec::new(),
            results,
            len,
            decision,
        }))
    }
}

/// The consistency rule shared by [`Teaser::decide`] and the session: every
/// result in the trailing window must be a master-accepted prediction of
/// the same label (confidence = the window maximum); any rejection or
/// disagreement means wait. Lazy over the iterator, so `decide` stops
/// evaluating snapshots at the first rejection.
fn consistency_agreement(results: impl Iterator<Item = Option<(ClassLabel, f64)>>) -> Decision {
    let mut agreed: Option<(ClassLabel, f64)> = None;
    for r in results {
        match r {
            Some((label, conf)) => match agreed {
                None => agreed = Some((label, conf)),
                Some((l, _)) if l != label => return Decision::Wait,
                Some((l, c)) => agreed = Some((l, c.max(conf))),
            },
            None => return Decision::Wait,
        }
    }
    match agreed {
        Some((label, confidence)) => Decision::Predict { label, confidence },
        None => Decision::Wait,
    }
}

/// Incremental TEASER session.
///
/// The decision only changes at snapshot boundaries, so each snapshot's
/// slave + master are evaluated exactly once — when the prefix reaches that
/// snapshot's length — and the master-accepted predictions are cached.
/// Every non-boundary push is O(1); [`Teaser::decide`] instead re-evaluates
/// the whole trailing consistency window (normalization included) on every
/// prefix.
///
/// With `znorm_prefixes` fitted on (TEASER's honest convention, the
/// default) the snapshot windows are z-normalized internally, which also
/// makes the session invariant to affine input transforms — so
/// [`SessionNorm::PerPrefix`] and [`SessionNorm::Raw`] coincide. Without
/// it, `PerPrefix` z-normalizes each snapshot window by its own statistics.
struct TeaserSession<'a> {
    model: &'a Teaser,
    norm: SessionNorm,
    /// Raw samples, capped at the fitted series length.
    buf: Vec<f64>,
    /// Normalized snapshot window scratch.
    scratch: Vec<f64>,
    /// Master-filtered prediction of each completed snapshot.
    results: Vec<Option<(ClassLabel, f64)>>,
    len: usize,
    decision: Decision,
}

impl DecisionSession for TeaserSession<'_> {
    fn push(&mut self, x: f64) -> Decision {
        if self.decision.is_predict() {
            self.len += 1;
            return self.decision; // latched: count the sample, skip the work
        }
        let model = self.model;
        if self.buf.len() < model.series_len {
            self.buf.push(x);
        }
        self.len += 1;
        // Evaluate a snapshot exactly when the prefix reaches its length.
        let next = self.results.len();
        if next >= model.snapshots.len() || self.buf.len() < model.snapshots[next].len {
            return self.decision;
        }
        let snap = &model.snapshots[next];
        debug_assert_eq!(self.buf.len(), snap.len, "snapshot boundaries are exact");
        let normalize = model.znorm_prefixes || self.norm == SessionNorm::PerPrefix;
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.buf);
        if normalize {
            znormalize_in_place(&mut self.scratch);
        }
        self.results.push(snap.accepted_prediction(&self.scratch));

        // Consistency check over the trailing `v` snapshots — the same fold
        // as `Teaser::decide`, on the cached per-snapshot results.
        if self.results.len() < model.v {
            return self.decision;
        }
        let tail = &self.results[self.results.len() - model.v..];
        if let Decision::Predict { label, confidence } = consistency_agreement(tail.iter().copied())
        {
            self.decision = Decision::Predict { label, confidence };
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
        self.scratch.clear();
        self.results.clear();
        self.len = 0;
        self.decision = Decision::Wait;
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u8(session_tags::TEASER);
        put_norm(enc, self.norm);
        enc.put_f64_slice(&self.buf);
        enc.put_usize(self.results.len());
        for r in &self.results {
            match r {
                Some((label, conf)) => {
                    enc.put_bool(true);
                    enc.put_usize(*label);
                    enc.put_f64(*conf);
                }
                None => enc.put_bool(false),
            }
        }
        enc.put_usize(self.len);
        put_decision(enc, self.decision);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate, PrefixPolicy};

    /// Shape-distinct classes that survive per-prefix z-normalization:
    /// rising vs falling ramps with small per-instance wiggle. (Phase-shifted
    /// sines would average to a meaningless centroid.)
    fn toy(n: usize, len: usize) -> UcrDataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            let slope = if c == 0 { 1.0 } else { -1.0 };
            for i in 0..n {
                data.push(
                    (0..len)
                        .map(|j| {
                            let t = j as f64 / len as f64;
                            slope * (t - 0.5)
                                + 0.05 * (std::f64::consts::TAU * 2.0 * t + i as f64).sin()
                        })
                        .collect(),
                );
                labels.push(c);
            }
        }
        UcrDataset::new(data, labels).unwrap()
    }

    fn fast_cfg() -> TeaserConfig {
        TeaserConfig {
            n_snapshots: 8,
            ..TeaserConfig::fast()
        }
    }

    #[test]
    fn centroid_teaser_is_accurate_and_early() {
        let train = toy(8, 60);
        let test = toy(4, 60);
        let t = Teaser::fit(&train, &fast_cfg());
        let ev = evaluate(&t, &test, PrefixPolicy::Raw);
        assert!(ev.accuracy() >= 0.9, "accuracy {}", ev.accuracy());
        assert!(ev.earliness() < 1.0, "should commit before full length");
    }

    #[test]
    fn weasel_teaser_fits_and_classifies() {
        let train = toy(8, 64);
        let cfg = TeaserConfig {
            n_snapshots: 6,
            ..TeaserConfig::default()
        };
        let t = Teaser::fit(&train, &cfg);
        let test = toy(3, 64);
        let ev = evaluate(&t, &test, PrefixPolicy::Raw);
        assert!(ev.accuracy() >= 0.8, "accuracy {}", ev.accuracy());
    }

    #[test]
    fn snapshot_lengths_are_increasing_and_bounded() {
        let train = toy(6, 60);
        let t = Teaser::fit(&train, &fast_cfg());
        let lens = t.snapshot_lengths();
        assert!(!lens.is_empty());
        assert!(lens.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*lens.last().unwrap(), 60);
    }

    #[test]
    fn decide_waits_before_enough_snapshots() {
        let train = toy(6, 60);
        let t = Teaser::fit(&train, &fast_cfg());
        let probe = toy(1, 60);
        let first = t.min_prefix();
        if t.consistency() > 1 {
            assert_eq!(t.decide(&probe.series(0)[..first]), Decision::Wait);
        }
        // Shorter than any snapshot: always wait.
        assert_eq!(t.decide(&probe.series(0)[..1]), Decision::Wait);
    }

    #[test]
    fn consistency_parameter_is_in_grid() {
        let train = toy(6, 60);
        let cfg = fast_cfg();
        let t = Teaser::fit(&train, &cfg);
        assert!((1..=cfg.max_consistency).contains(&t.consistency()));
    }

    #[test]
    fn raw_session_reproduces_decide_exactly() {
        let train = toy(8, 60);
        let test = toy(3, 60);
        let t = Teaser::fit(&train, &fast_cfg());
        for (probe, _) in test.iter() {
            let mut s = t.session(crate::SessionNorm::Raw);
            for i in 0..probe.len() {
                let inc = s.push(probe[i]);
                let batch = t.decide(&probe[..i + 1]);
                assert_eq!(inc, batch, "prefix {}", i + 1);
                if inc.is_predict() {
                    break; // sessions latch at the first commit
                }
            }
        }
    }

    #[test]
    fn znorm_prefixes_makes_model_shift_invariant() {
        let train = toy(8, 60);
        let t = Teaser::fit(&train, &fast_cfg()); // znorm_prefixes = true
        let base = toy(1, 60);
        let shifted: Vec<f64> = base.series(0).iter().map(|&v| v + 50.0).collect();
        let (a, _, _) = crate::metrics::classify_stream(&t, base.series(0), PrefixPolicy::Raw);
        let (b, _, _) = crate::metrics::classify_stream(&t, &shifted, PrefixPolicy::Raw);
        assert_eq!(a, b, "honest per-prefix z-norm is shift invariant");
    }
}
