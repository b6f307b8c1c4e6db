//! Checkpoint ensembles: one probabilistic classifier per prefix length.
//!
//! Several ETSC families (ECDIRE [Mori et al. 2017], the stopping-rule
//! methods [Mori et al. 2018], cost-aware triggering [Tavenard &
//! Malinowski 2016; Achenchabe et al. 2021]) share a chassis: train a
//! separate probabilistic classifier at a ladder of prefix lengths
//! ("checkpoints"), then differ only in *when they trust* one of those
//! classifiers. This module is that chassis.

use etsc_classifiers::centroid::NearestCentroid;
use etsc_classifiers::gaussian::{CovarianceKind, GaussianModel};
use etsc_classifiers::Classifier;
use etsc_core::znorm::znormalize_in_place;
use etsc_core::{ClassLabel, UcrDataset};
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::SessionNorm;

/// Per-checkpoint held-out calibration data: for each checkpoint, the
/// `(posterior, actual label)` pairs of every training instance under
/// 2-fold cross-validation.
pub type CvPosteriors = Vec<Vec<(Vec<f64>, ClassLabel)>>;

/// The base classifier family trained at each checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseClassifier {
    /// Nearest centroid with softmax probabilities (cheap, robust).
    Centroid,
    /// Diagonal Gaussian class models (naive Bayes).
    Gaussian,
}

/// One fitted checkpoint classifier.
#[derive(Debug, Clone)]
pub enum CheckpointModel {
    /// Nearest-centroid variant.
    Centroid(NearestCentroid),
    /// Gaussian variant.
    Gaussian(GaussianModel),
}

impl CheckpointModel {
    /// Class probabilities for a prefix.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        match self {
            CheckpointModel::Centroid(c) => c.predict_proba(x),
            CheckpointModel::Gaussian(g) => g.predict_proba(x),
        }
    }

    /// Class probabilities written into `out` (allocation-free twin of
    /// [`predict_proba`](Self::predict_proba)).
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            CheckpointModel::Centroid(c) => c.predict_proba_into(x, out),
            CheckpointModel::Gaussian(g) => g.predict_proba_into(x, out),
        }
    }

    /// Hard prediction.
    pub fn predict(&self, x: &[f64]) -> ClassLabel {
        etsc_classifiers::argmax(&self.predict_proba(x))
    }
}

/// A ladder of prefix lengths with one classifier per rung.
#[derive(Debug, Clone)]
pub struct CheckpointEnsemble {
    lengths: Vec<usize>,
    models: Vec<CheckpointModel>,
    n_classes: usize,
    series_len: usize,
}

impl CheckpointEnsemble {
    /// Fit one classifier per checkpoint on prefix-truncated training data.
    ///
    /// `n_checkpoints` evenly spaced lengths ending at the full series
    /// length; lengths below `min_len` are dropped.
    pub fn fit(
        train: &UcrDataset,
        base: BaseClassifier,
        n_checkpoints: usize,
        min_len: usize,
    ) -> Self {
        assert!(n_checkpoints >= 1);
        let len = train.series_len();
        let mut lengths: Vec<usize> = (1..=n_checkpoints)
            .map(|s| (s * len).div_ceil(n_checkpoints))
            .filter(|&l| l >= min_len.max(2))
            .collect();
        lengths.dedup();
        assert!(
            !lengths.is_empty(),
            "series too short for the checkpoint ladder"
        );

        let models = lengths
            .iter()
            .map(|&l| {
                let prefix = train.prefix(l).expect("length within range");
                match base {
                    BaseClassifier::Centroid => {
                        CheckpointModel::Centroid(NearestCentroid::fit(&prefix))
                    }
                    BaseClassifier::Gaussian => CheckpointModel::Gaussian(GaussianModel::fit(
                        &prefix,
                        CovarianceKind::Diagonal,
                    )),
                }
            })
            .collect();
        Self {
            lengths,
            models,
            n_classes: train.n_classes(),
            series_len: len,
        }
    }

    /// Checkpoint lengths, ascending.
    pub fn lengths(&self) -> &[usize] {
        &self.lengths
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Full training series length.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Index of the latest checkpoint whose length fits in `prefix_len`
    /// (`None` if the prefix is shorter than the first checkpoint).
    pub fn latest_checkpoint(&self, prefix_len: usize) -> Option<usize> {
        match self.lengths.partition_point(|&l| l <= prefix_len) {
            0 => None,
            n => Some(n - 1),
        }
    }

    /// Probabilities from checkpoint `idx` on (the head of) `prefix`.
    pub fn proba_at(&self, idx: usize, prefix: &[f64]) -> Vec<f64> {
        let l = self.lengths[idx].min(prefix.len());
        self.models[idx].predict_proba(&prefix[..l])
    }

    /// Open an incremental cursor over this ladder (see
    /// [`CheckpointCursor`]).
    pub fn cursor(&self, norm: SessionNorm) -> CheckpointCursor<'_> {
        CheckpointCursor {
            ensemble: self,
            norm,
            buf: Vec::with_capacity(self.series_len),
            scratch: Vec::new(),
            proba: Vec::new(),
            completed: None,
            len: 0,
        }
    }

    /// Leave-half-out predictions for calibration: fits fold models on
    /// even/odd halves and returns, per checkpoint, the held-out
    /// `(posterior, actual)` pairs across both folds (in a deterministic
    /// order). Used by ECDIRE and the stopping rule to learn thresholds on
    /// honest (non-resubstitution) posteriors.
    pub fn cross_val_posteriors(
        train: &UcrDataset,
        base: BaseClassifier,
        n_checkpoints: usize,
        min_len: usize,
    ) -> Option<CvPosteriors> {
        let n = train.len();
        let even: Vec<usize> = (0..n).step_by(2).collect();
        let odd: Vec<usize> = (1..n).step_by(2).collect();
        if even.is_empty() || odd.is_empty() {
            return None;
        }
        let n_classes = train.n_classes();
        let proto = Self::fit(train, base, n_checkpoints, min_len);
        let mut out: Vec<Vec<(Vec<f64>, ClassLabel)>> = vec![Vec::new(); proto.lengths.len()];
        for (fit_idx, eval_idx) in [(&even, &odd), (&odd, &even)] {
            let fit_ds = train.subset(fit_idx).ok()?;
            if fit_ds.n_classes() != n_classes {
                return None;
            }
            let fold = Self::fit(&fit_ds, base, n_checkpoints, min_len);
            if fold.lengths != proto.lengths {
                return None;
            }
            for &i in eval_idx.iter() {
                let s = train.series(i);
                for (ci, _) in fold.lengths.iter().enumerate() {
                    let p = fold.proba_at(ci, s);
                    out[ci].push((p, train.label(i)));
                }
            }
        }
        Some(out)
    }
}

impl Persist for CheckpointEnsemble {
    const KIND: &'static str = "CheckpointEnsemble";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_usize(self.n_classes);
        enc.put_usize(self.series_len);
        enc.put_usize_slice(&self.lengths);
        for m in &self.models {
            match m {
                CheckpointModel::Centroid(c) => {
                    enc.put_u8(0);
                    enc.section(|e| c.encode_body(e));
                }
                CheckpointModel::Gaussian(g) => {
                    enc.put_u8(1);
                    enc.section(|e| g.encode_body(e));
                }
            }
        }
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let n_classes = dec.get_usize("ensemble class count")?;
        let series_len = dec.get_usize("ensemble series_len")?;
        let lengths = dec.get_usize_vec("ensemble lengths")?;
        // `fit` ends the ladder at the full length, and a cursor sizes its
        // buffer by `series_len`.
        if lengths.last() != Some(&series_len)
            || lengths.windows(2).any(|w| w[0] >= w[1])
            || lengths.first() == Some(&0)
        {
            return Err(PersistError::Corrupt(
                "ensemble: the checkpoint ladder must ascend from 1 up to series_len".into(),
            ));
        }
        let mut models = Vec::with_capacity(lengths.len());
        for i in 0..lengths.len() {
            let tag = dec.get_u8("ensemble model tag")?;
            let mut sub = dec.section("ensemble model")?;
            let model = match tag {
                0 => CheckpointModel::Centroid(NearestCentroid::decode_body(&mut sub)?),
                1 => CheckpointModel::Gaussian(GaussianModel::decode_body(&mut sub)?),
                t => {
                    return Err(PersistError::Corrupt(format!(
                        "ensemble: checkpoint model tag {t}"
                    )))
                }
            };
            sub.finish()?;
            // Cross-validate the header's class count against the embedded
            // model: a mismatch would otherwise surface later as a buffer
            // assertion mid-stream, not a decode error.
            let model_classes = match &model {
                CheckpointModel::Centroid(c) => c.n_classes(),
                CheckpointModel::Gaussian(g) => g.n_classes(),
            };
            if model_classes != n_classes {
                return Err(PersistError::Corrupt(format!(
                    "ensemble checkpoint {i}: model has {model_classes} classes, header says {n_classes}"
                )));
            }
            models.push(model);
        }
        Ok(Self {
            lengths,
            models,
            n_classes,
            series_len,
        })
    }
}

/// An incremental walk up a [`CheckpointEnsemble`]'s ladder.
///
/// The decision of every checkpoint-style algorithm (ECDIRE, the stopping
/// rule, the cost-aware trigger) only changes when the prefix reaches the
/// next checkpoint length; between boundaries every push is O(1). The
/// cursor buffers raw samples until the next boundary, evaluates that
/// checkpoint's classifier exactly once, and exposes the result until the
/// next boundary — the shared chassis for those algorithms' sessions.
///
/// Normalization: under [`SessionNorm::Raw`] the checkpoint model sees the
/// raw window (matching the stateless `decide` paths). Under
/// [`SessionNorm::PerPrefix`] the window is z-normalized by its own
/// statistics before classification — the honest deployment convention,
/// applied to exactly the samples the checkpoint consumes.
#[derive(Debug, Clone)]
pub struct CheckpointCursor<'a> {
    ensemble: &'a CheckpointEnsemble,
    norm: SessionNorm,
    /// Raw samples, up to the final checkpoint length.
    buf: Vec<f64>,
    /// Normalization scratch (PerPrefix only).
    scratch: Vec<f64>,
    /// Posterior of the most recently completed checkpoint.
    proba: Vec<f64>,
    /// Index of the most recently completed checkpoint.
    completed: Option<usize>,
    /// Samples consumed (uncapped).
    len: usize,
}

impl CheckpointCursor<'_> {
    /// Consume one sample. Returns `Some(checkpoint_index)` exactly when
    /// this sample completes a checkpoint (whose posterior is then
    /// available from [`latest`](Self::latest)).
    pub fn push(&mut self, x: f64) -> Option<usize> {
        let lengths = self.ensemble.lengths();
        let last_len = *lengths.last().expect("non-empty ladder");
        if self.buf.len() < last_len {
            self.buf.push(x);
        }
        self.len += 1;
        let next = self.completed.map_or(0, |ci| ci + 1);
        if next >= lengths.len() || self.buf.len() < lengths[next] {
            return None;
        }
        debug_assert_eq!(self.buf.len(), lengths[next], "boundaries are exact");
        if self.proba.is_empty() {
            self.proba = vec![0.0; self.ensemble.n_classes()];
        }
        match self.norm {
            SessionNorm::Raw => {
                self.ensemble.models[next].predict_proba_into(&self.buf, &mut self.proba);
            }
            SessionNorm::PerPrefix => {
                self.scratch.clear();
                self.scratch.extend_from_slice(&self.buf);
                znormalize_in_place(&mut self.scratch);
                self.ensemble.models[next].predict_proba_into(&self.scratch, &mut self.proba);
            }
        }
        self.completed = Some(next);
        Some(next)
    }

    /// The most recently completed checkpoint and its posterior.
    pub fn latest(&self) -> Option<(usize, &[f64])> {
        self.completed.map(|ci| (ci, self.proba.as_slice()))
    }

    /// True once the final checkpoint has been evaluated.
    pub fn exhausted(&self) -> bool {
        self.completed == Some(self.ensemble.lengths().len() - 1)
    }

    /// Samples consumed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The normalization this cursor applies to checkpoint windows.
    pub fn norm(&self) -> SessionNorm {
        self.norm
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forget everything, keeping allocations.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.scratch.clear();
        self.completed = None;
        self.len = 0;
    }

    /// Append the cursor's resumable state (buffered window, completed
    /// checkpoint, its posterior, sample count) to `enc`.
    pub fn save_state(&self, enc: &mut Encoder) {
        enc.put_f64_slice(&self.buf);
        enc.put_f64_slice(&self.proba);
        enc.put_opt_usize(self.completed);
        enc.put_usize(self.len);
    }

    /// Rehydrate a fresh cursor from [`CheckpointCursor::save_state`]
    /// output, validating shape against the owning ensemble.
    pub fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        let buf = dec.get_f64_vec("cursor buf")?;
        let proba = dec.get_f64_vec("cursor proba")?;
        let completed = dec.get_opt_usize("cursor completed")?;
        let len = dec.get_usize("cursor len")?;
        let last_len = *self.ensemble.lengths().last().expect("non-empty ladder");
        if buf.len() > last_len || buf.len() > len {
            return Err(PersistError::Corrupt(format!(
                "cursor: buffer of {} for {len} pushes (ladder top {last_len})",
                buf.len()
            )));
        }
        if !proba.is_empty() && proba.len() != self.ensemble.n_classes() {
            return Err(PersistError::Corrupt(format!(
                "cursor: posterior of {} for {} classes",
                proba.len(),
                self.ensemble.n_classes()
            )));
        }
        match completed {
            Some(ci) if ci >= self.ensemble.lengths().len() => {
                return Err(PersistError::Corrupt(format!(
                    "cursor: completed checkpoint {ci} of {}",
                    self.ensemble.lengths().len()
                )));
            }
            Some(_) if proba.is_empty() => {
                return Err(PersistError::Corrupt(
                    "cursor: completed checkpoint without a posterior".into(),
                ));
            }
            _ => {}
        }
        self.buf = buf;
        self.proba = proba;
        self.completed = completed;
        self.len = len;
        self.scratch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, len: usize) -> UcrDataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            for i in 0..n {
                data.push(
                    (0..len)
                        .map(|j| c as f64 * 2.0 + 0.05 * (((i + j) % 7) as f64 - 3.0))
                        .collect(),
                );
                labels.push(c);
            }
        }
        UcrDataset::new(data, labels).unwrap()
    }

    #[test]
    fn ladder_is_ascending_and_ends_at_full_length() {
        let d = toy(6, 40);
        let e = CheckpointEnsemble::fit(&d, BaseClassifier::Centroid, 8, 4);
        let lens = e.lengths();
        assert!(lens.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*lens.last().unwrap(), 40);
        assert!(lens[0] >= 4);
    }

    #[test]
    fn latest_checkpoint_indexing() {
        let d = toy(6, 40);
        let e = CheckpointEnsemble::fit(&d, BaseClassifier::Centroid, 4, 4);
        assert_eq!(e.latest_checkpoint(3), None);
        assert_eq!(e.latest_checkpoint(40), Some(e.lengths().len() - 1));
        let first = e.lengths()[0];
        assert_eq!(e.latest_checkpoint(first), Some(0));
    }

    #[test]
    fn checkpoint_models_classify_prefixes() {
        let d = toy(8, 40);
        for base in [BaseClassifier::Centroid, BaseClassifier::Gaussian] {
            let e = CheckpointEnsemble::fit(&d, base, 6, 4);
            let probe = d.series(0);
            for ci in 0..e.lengths().len() {
                let p = e.proba_at(ci, probe);
                assert_eq!(p.len(), 2);
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
                assert!(p[0] > p[1], "class 0 probe at checkpoint {ci}");
            }
        }
    }

    #[test]
    fn cross_val_posteriors_cover_all_instances() {
        let d = toy(8, 40);
        let cv =
            CheckpointEnsemble::cross_val_posteriors(&d, BaseClassifier::Centroid, 4, 4).unwrap();
        for per_ckpt in &cv {
            assert_eq!(per_ckpt.len(), d.len());
        }
    }

    #[test]
    fn cursor_completes_each_checkpoint_exactly_once_with_batch_posteriors() {
        let d = toy(6, 40);
        let e = CheckpointEnsemble::fit(&d, BaseClassifier::Centroid, 4, 4);
        let probe = d.series(0);
        let mut cursor = e.cursor(SessionNorm::Raw);
        assert!(cursor.is_empty());
        let mut seen = Vec::new();
        for &x in probe {
            if let Some(ci) = cursor.push(x) {
                seen.push(ci);
                let (latest, proba) = cursor.latest().unwrap();
                assert_eq!(latest, ci);
                assert_eq!(proba.to_vec(), e.proba_at(ci, probe), "checkpoint {ci}");
            }
        }
        assert_eq!(seen, (0..e.lengths().len()).collect::<Vec<_>>());
        assert!(cursor.exhausted());
        assert_eq!(cursor.len(), probe.len());
        cursor.reset();
        assert!(cursor.latest().is_none());
    }

    #[test]
    fn per_prefix_cursor_normalizes_each_window() {
        let d = toy(6, 40);
        let e = CheckpointEnsemble::fit(&d, BaseClassifier::Centroid, 4, 4);
        let probe = d.series(0);
        let mut cursor = e.cursor(SessionNorm::PerPrefix);
        for &x in probe {
            if let Some(ci) = cursor.push(x) {
                let l = e.lengths()[ci];
                let window = etsc_core::znorm::znormalize(&probe[..l]);
                let (_, proba) = cursor.latest().unwrap();
                assert_eq!(proba.to_vec(), e.models[ci].predict_proba(&window));
            }
        }
    }

    #[test]
    fn cross_val_returns_none_for_degenerate_folds() {
        // One exemplar per class: a fold misses a class.
        let d = UcrDataset::new(vec![vec![0.0; 8], vec![1.0; 8]], vec![0, 1]).unwrap();
        assert!(
            CheckpointEnsemble::cross_val_posteriors(&d, BaseClassifier::Centroid, 2, 2).is_none()
        );
    }
}
