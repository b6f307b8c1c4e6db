//! WEASEL-lite: a bag-of-SFA-words time series classifier.
//!
//! The WEASEL pipeline (Schäfer & Leser, CIKM 2017) that TEASER uses as its
//! slave classifier: slide windows of several sizes over the series, map
//! each window to an SFA word, count words into a bag-of-patterns histogram,
//! prune features by a chi² test against the class labels, and train a
//! linear (logistic) classifier on the surviving counts.
//!
//! "Lite" denotes the documented simplifications (DESIGN.md): unigram words
//! only (no bigrams), one fixed word length/alphabet across window sizes,
//! and our in-repo softmax regression instead of liblinear. The
//! architecture — probabilistic, length-agnostic, trainable per snapshot —
//! is what TEASER requires, and is preserved.

// BTreeMap, not HashMap: feature bags feed snapshot bytes and prediction
// vectors, and ordered iteration keeps both independent of hash state.
use std::collections::BTreeMap;

use etsc_core::window::sliding_windows;
use etsc_core::UcrDataset;
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::logistic::{LogisticConfig, LogisticRegression};
use crate::sfa::Sfa;
use crate::Classifier;

/// WEASEL-lite hyper-parameters.
#[derive(Debug, Clone)]
pub struct WeaselConfig {
    /// Sliding window sizes. Sizes longer than the training series are
    /// skipped at fit time.
    pub window_sizes: Vec<usize>,
    /// SFA word length (even; `word_len/2` Fourier coefficients).
    pub word_len: usize,
    /// SFA alphabet size per symbol.
    pub alphabet: usize,
    /// Keep this many features (by chi² score). `0` keeps everything.
    pub top_features: usize,
    /// Window stride when extracting words.
    pub stride: usize,
    /// Logistic regression training settings.
    pub logistic: LogisticConfig,
}

impl Default for WeaselConfig {
    fn default() -> Self {
        Self {
            window_sizes: vec![16, 24, 32],
            word_len: 4,
            alphabet: 4,
            top_features: 256,
            stride: 1,
            logistic: LogisticConfig::default(),
        }
    }
}

/// A (window-size index, SFA word) feature key.
type FeatureKey = (usize, u64);

/// A fitted WEASEL-lite classifier.
#[derive(Debug, Clone)]
pub struct Weasel {
    sfas: Vec<(usize, Sfa)>, // (window size, quantizer)
    feature_index: BTreeMap<FeatureKey, usize>,
    model: LogisticRegression,
    n_classes: usize,
    stride: usize,
}

impl Weasel {
    /// Fit the full pipeline on `train`.
    pub fn fit(train: &UcrDataset, cfg: &WeaselConfig) -> Self {
        let usable: Vec<usize> = cfg
            .window_sizes
            .iter()
            .copied()
            .filter(|&w| w >= 4 && w <= train.series_len())
            .collect();
        assert!(
            !usable.is_empty(),
            "no usable window sizes for series of length {}",
            train.series_len()
        );
        let n_classes = train.n_classes();

        // 1. Fit one SFA quantizer per window size.
        let mut sfas = Vec::with_capacity(usable.len());
        for &w in &usable {
            let windows: Vec<&[f64]> = train
                .iter()
                .flat_map(|(s, _)| sliding_windows(s, w, cfg.stride).map(|(_, win)| win))
                .collect();
            sfas.push((w, Sfa::fit(windows, cfg.word_len, cfg.alphabet)));
        }

        // 2. Bag each training series; accumulate per-class feature counts
        //    for the chi² filter.
        let mut bags: Vec<BTreeMap<FeatureKey, f64>> = Vec::with_capacity(train.len());
        let mut class_feature_counts: BTreeMap<FeatureKey, Vec<f64>> = BTreeMap::new();
        for (s, label) in train.iter() {
            let bag = Self::bag_of(&sfas, s, cfg.stride);
            for (&key, &count) in &bag {
                class_feature_counts
                    .entry(key)
                    .or_insert_with(|| vec![0.0; n_classes])[label] += count;
            }
            bags.push(bag);
        }

        // 3. Chi² feature selection: score each feature's count distribution
        //    across classes against the class-size-proportional expectation.
        let class_totals: Vec<f64> = {
            let counts = train.class_counts();
            let total: usize = counts.iter().sum();
            counts.iter().map(|&c| c as f64 / total as f64).collect()
        };
        let mut scored: Vec<(FeatureKey, f64)> = class_feature_counts
            .iter()
            .map(|(&key, per_class)| {
                let total: f64 = per_class.iter().sum();
                let chi2: f64 = per_class
                    .iter()
                    .zip(&class_totals)
                    .map(|(&obs, &frac)| {
                        let exp = total * frac;
                        if exp > 0.0 {
                            (obs - exp) * (obs - exp) / exp
                        } else {
                            0.0
                        }
                    })
                    .sum();
                (key, chi2)
            })
            .collect();
        // total_cmp: chi² scores can go NaN on degenerate class structure
        // (restore-then-refit of broken data); NaN must sort
        // deterministically instead of panicking the fit.
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let keep = if cfg.top_features == 0 {
            scored.len()
        } else {
            cfg.top_features.min(scored.len())
        };
        let feature_index: BTreeMap<FeatureKey, usize> = scored[..keep]
            .iter()
            .enumerate()
            .map(|(i, &(key, _))| (key, i))
            .collect();

        // 4. Vectorize and train the linear model.
        let x: Vec<Vec<f64>> = bags
            .iter()
            .map(|bag| Self::vectorize(bag, &feature_index))
            .collect();
        let y: Vec<usize> = train.labels().to_vec();
        let model = LogisticRegression::fit(&x, &y, n_classes, &cfg.logistic);

        Self {
            sfas,
            feature_index,
            model,
            n_classes,
            stride: cfg.stride,
        }
    }

    /// Bag-of-words histogram of one series under the fitted quantizers.
    /// Window sizes longer than the series are skipped, which is what makes
    /// WEASEL usable on prefixes.
    fn bag_of(sfas: &[(usize, Sfa)], s: &[f64], stride: usize) -> BTreeMap<FeatureKey, f64> {
        let mut bag = BTreeMap::new();
        for (wi, (w, sfa)) in sfas.iter().enumerate() {
            if s.len() < *w {
                continue;
            }
            for (_, win) in sliding_windows(s, *w, stride) {
                *bag.entry((wi, sfa.word(win))).or_insert(0.0) += 1.0;
            }
        }
        bag
    }

    /// Dense feature vector: log(1 + count) of each retained feature, which
    /// tames the count scale differences between short and long inputs.
    fn vectorize(bag: &BTreeMap<FeatureKey, f64>, index: &BTreeMap<FeatureKey, usize>) -> Vec<f64> {
        let mut v = vec![0.0; index.len()];
        for (key, &count) in bag {
            if let Some(&i) = index.get(key) {
                v[i] = (1.0 + count).ln();
            }
        }
        v
    }

    /// Number of retained features.
    pub fn n_features(&self) -> usize {
        self.feature_index.len()
    }
}

impl Persist for Weasel {
    const KIND: &'static str = "Weasel";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_usize(self.n_classes);
        enc.put_usize(self.stride);
        enc.put_usize(self.sfas.len());
        for (w, sfa) in &self.sfas {
            enc.put_usize(*w);
            enc.section(|e| sfa.encode_body(e));
        }
        // BTreeMap iterates in key order, so identical models produce
        // identical snapshots with no explicit sort.
        enc.put_usize(self.feature_index.len());
        for (&(wi, word), &idx) in &self.feature_index {
            enc.put_usize(wi);
            enc.put_u64(word);
            enc.put_usize(idx);
        }
        enc.section(|e| self.model.encode_body(e));
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let n_classes = dec.get_usize("weasel class count")?;
        let stride = dec.get_usize("weasel stride")?;
        if stride == 0 {
            return Err(PersistError::Corrupt("weasel: zero stride".into()));
        }
        let n_sfas = dec.get_usize("weasel sfa count")?;
        // Each SFA is at least its window size and its 8-byte section length.
        dec.check_claim(n_sfas, 16, "weasel sfas")?;
        let mut sfas = Vec::with_capacity(n_sfas);
        for _ in 0..n_sfas {
            let w = dec.get_usize("weasel window size")?;
            let mut sub = dec.section("weasel sfa")?;
            let sfa = Sfa::decode_body(&mut sub)?;
            sub.finish()?;
            sfas.push((w, sfa));
        }
        let n_features = dec.get_usize("weasel feature count")?;
        let mut feature_index = BTreeMap::new();
        for _ in 0..n_features {
            let wi = dec.get_usize("weasel feature window index")?;
            if wi >= n_sfas {
                return Err(PersistError::Corrupt(format!(
                    "weasel: feature references window index {wi} of {n_sfas}"
                )));
            }
            let word = dec.get_u64("weasel feature word")?;
            let idx = dec.get_usize("weasel feature slot")?;
            if idx >= n_features {
                return Err(PersistError::Corrupt(format!(
                    "weasel: feature slot {idx} of {n_features}"
                )));
            }
            if feature_index.insert((wi, word), idx).is_some() {
                return Err(PersistError::Corrupt(
                    "weasel: duplicate feature key".into(),
                ));
            }
        }
        let mut sub = dec.section("weasel model")?;
        let model = LogisticRegression::decode_body(&mut sub)?;
        sub.finish()?;
        if model.n_features() != n_features {
            return Err(PersistError::Corrupt(format!(
                "weasel: linear model expects {} features, index holds {n_features}",
                model.n_features()
            )));
        }
        if model.n_classes() != n_classes {
            return Err(PersistError::Corrupt(format!(
                "weasel: linear model has {} classes, header says {n_classes}",
                model.n_classes()
            )));
        }
        Ok(Self {
            sfas,
            feature_index,
            model,
            n_classes,
            stride,
        })
    }
}

impl Classifier for Weasel {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let bag = Self::bag_of(&self.sfas, x, self.stride);
        let v = Self::vectorize(&bag, &self.feature_index);
        self.model.predict_proba(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two classes with different dominant frequencies.
    fn tones(n_per_class: usize, len: usize) -> UcrDataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            let freq = if c == 0 { 2.0 } else { 5.0 };
            for i in 0..n_per_class {
                let phase = i as f64 * 0.7;
                data.push(
                    (0..len)
                        .map(|j| {
                            (std::f64::consts::TAU * freq * j as f64 / len as f64 + phase).sin()
                        })
                        .collect(),
                );
                labels.push(c);
            }
        }
        UcrDataset::new(data, labels).unwrap()
    }

    fn quick_cfg() -> WeaselConfig {
        WeaselConfig {
            window_sizes: vec![16, 24],
            word_len: 4,
            alphabet: 4,
            top_features: 64,
            stride: 2,
            logistic: LogisticConfig {
                epochs: 80,
                ..LogisticConfig::default()
            },
        }
    }

    #[test]
    fn separates_frequency_classes() {
        let train = tones(10, 64);
        let clf = Weasel::fit(&train, &quick_cfg());
        let test = tones(5, 64);
        let acc = crate::eval::accuracy(&clf, &test);
        assert!(acc >= 0.9, "WEASEL-lite should separate tones, acc={acc}");
    }

    #[test]
    fn works_on_prefixes() {
        let train = tones(8, 64);
        let clf = Weasel::fit(&train, &quick_cfg());
        let full: Vec<f64> = tones(1, 64).series(0).to_vec();
        // A 32-sample prefix still contains windows of size 16 and 24.
        let p = clf.predict_proba(&full[..32]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prefix_shorter_than_all_windows_gives_neutral_output() {
        let train = tones(8, 64);
        let clf = Weasel::fit(&train, &quick_cfg());
        let p = clf.predict_proba(&[0.0; 8]); // shorter than any window
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn feature_count_respects_cap() {
        let train = tones(8, 64);
        let clf = Weasel::fit(&train, &quick_cfg());
        assert!(clf.n_features() <= 64);
        assert!(clf.n_features() > 0);
    }

    #[test]
    fn snapshot_restore_preserves_probabilities_exactly() {
        let train = tones(6, 48);
        let clf = Weasel::fit(&train, &quick_cfg());
        let back = Weasel::restore(&clf.snapshot()).unwrap();
        assert_eq!(back.n_features(), clf.n_features());
        for (probe, _) in train.iter() {
            assert_eq!(back.predict_proba(probe), clf.predict_proba(probe));
            // Prefix behavior (what TEASER snapshots rely on) too.
            assert_eq!(
                back.predict_proba(&probe[..24]),
                clf.predict_proba(&probe[..24])
            );
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let train = tones(6, 48);
        let cfg = quick_cfg();
        let a = Weasel::fit(&train, &cfg);
        let b = Weasel::fit(&train, &cfg);
        let probe: Vec<f64> = train.series(0).to_vec();
        assert_eq!(a.predict_proba(&probe), b.predict_proba(&probe));
    }
}
