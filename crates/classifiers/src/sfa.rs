//! Symbolic Fourier Approximation (SFA).
//!
//! SFA maps a (z-normalized) window to a short discrete word: take the first
//! few Fourier coefficients, then quantize each real/imaginary component
//! with per-component breakpoints learned from training data (**M**ultiple
//! **C**oefficient **B**inning, equi-depth). SFA words are the vocabulary of
//! the WEASEL bag-of-patterns classifier ([`crate::weasel`]), which in turn
//! is the slave classifier inside TEASER.

use etsc_core::znorm::znormalize;
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

/// First `n_coeffs` complex DFT coefficients of `x`, skipping the DC term
/// (z-normalized inputs have zero DC anyway), interleaved as
/// `[re1, im1, re2, im2, ...]` and scaled by `1/len`.
///
/// Direct O(len · n_coeffs) evaluation: window lengths and coefficient
/// counts in this workspace are small, so an FFT would not pay for itself.
pub fn dft_features(x: &[f64], n_coeffs: usize) -> Vec<f64> {
    let n = x.len();
    assert!(n > 0, "empty window");
    let mut out = Vec::with_capacity(2 * n_coeffs);
    let inv_n = 1.0 / n as f64;
    for k in 1..=n_coeffs {
        let mut re = 0.0;
        let mut im = 0.0;
        let w = std::f64::consts::TAU * k as f64 / n as f64;
        for (i, &v) in x.iter().enumerate() {
            let (s, c) = (w * i as f64).sin_cos();
            re += v * c;
            im -= v * s;
        }
        out.push(re * inv_n);
        out.push(im * inv_n);
    }
    out
}

/// A fitted SFA quantizer.
#[derive(Debug, Clone)]
pub struct Sfa {
    /// `breakpoints[d]` holds `alphabet - 1` sorted thresholds for feature
    /// dimension `d`.
    breakpoints: Vec<Vec<f64>>,
    n_coeffs: usize,
    alphabet: usize,
}

impl Sfa {
    /// Learn equi-depth breakpoints from training windows.
    ///
    /// * `windows` — training subsequences (will be z-normalized internally).
    /// * `word_len` — number of feature dimensions (must be even: re/im
    ///   pairs), i.e. `n_coeffs = word_len / 2`.
    /// * `alphabet` — symbols per dimension (2..=16).
    pub fn fit<'a, I>(windows: I, word_len: usize, alphabet: usize) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        assert!(
            word_len >= 2 && word_len.is_multiple_of(2),
            "word_len must be even and >= 2"
        );
        assert!((2..=16).contains(&alphabet), "alphabet must be in 2..=16");
        let n_coeffs = word_len / 2;
        // Collect per-dimension values.
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); word_len];
        for w in windows {
            let f = dft_features(&znormalize(w), n_coeffs);
            for (d, &v) in f.iter().enumerate() {
                columns[d].push(v);
            }
        }
        let breakpoints = columns
            .into_iter()
            .map(|mut col| {
                if col.is_empty() {
                    return vec![0.0; alphabet - 1];
                }
                // total_cmp: a degenerate training pool can push NaN
                // features (e.g. after restoring and refitting on broken
                // data); NaN must sort deterministically, not panic the fit.
                col.sort_by(f64::total_cmp);
                (1..alphabet)
                    .map(|q| {
                        let pos = q * col.len() / alphabet;
                        col[pos.min(col.len() - 1)]
                    })
                    .collect()
            })
            .collect();
        Self {
            breakpoints,
            n_coeffs,
            alphabet,
        }
    }

    /// Number of feature dimensions (`2 * n_coeffs`).
    pub fn word_len(&self) -> usize {
        self.breakpoints.len()
    }

    /// Alphabet size per dimension.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Breakpoints for feature dimension `d` (for persistence round-trip
    /// checks and inspection).
    pub fn breakpoints(&self, d: usize) -> &[f64] {
        &self.breakpoints[d]
    }

    /// Quantize one raw window into a packed SFA word (4 bits per symbol).
    pub fn word(&self, window: &[f64]) -> u64 {
        let f = dft_features(&znormalize(window), self.n_coeffs);
        self.word_of_features(&f)
    }

    /// Quantize pre-computed DFT features.
    pub fn word_of_features(&self, features: &[f64]) -> u64 {
        debug_assert_eq!(features.len(), self.breakpoints.len());
        let mut word = 0u64;
        for (d, &v) in features.iter().enumerate() {
            let sym = self.breakpoints[d].partition_point(|&b| b <= v) as u64;
            word = (word << 4) | sym;
        }
        word
    }
}

impl Persist for Sfa {
    const KIND: &'static str = "Sfa";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_usize(self.n_coeffs);
        enc.put_usize(self.alphabet);
        enc.put_usize(self.breakpoints.len());
        for bp in &self.breakpoints {
            enc.put_f64_slice(bp);
        }
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let n_coeffs = dec.get_usize("sfa n_coeffs")?;
        let alphabet = dec.get_usize("sfa alphabet")?;
        if !(2..=16).contains(&alphabet) {
            return Err(PersistError::Corrupt(format!(
                "sfa: alphabet {alphabet} outside 2..=16"
            )));
        }
        let n_dims = dec.get_usize("sfa dim count")?;
        // Checked: twice a forged 2^63 coefficients overflows, and would
        // wrap to 0 dimensions in a release build.
        if n_coeffs.checked_mul(2) != Some(n_dims) {
            return Err(PersistError::Corrupt(format!(
                "sfa: {n_dims} dimensions for {n_coeffs} coefficients"
            )));
        }
        // Each dimension is at least its 8-byte breakpoint-count prefix.
        dec.check_claim(n_dims, 8, "sfa dimensions")?;
        let mut breakpoints = Vec::with_capacity(n_dims);
        for d in 0..n_dims {
            let bp = dec.get_f64_vec("sfa breakpoints")?;
            if bp.len() != alphabet - 1 {
                return Err(PersistError::Corrupt(format!(
                    "sfa dim {d}: {} breakpoints for alphabet {alphabet}",
                    bp.len()
                )));
            }
            breakpoints.push(bp);
        }
        Ok(Self {
            breakpoints,
            n_coeffs,
            alphabet,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(len: usize, freq: f64, phase: f64) -> Vec<f64> {
        (0..len)
            .map(|i| (std::f64::consts::TAU * freq * i as f64 / len as f64 + phase).sin())
            .collect()
    }

    #[test]
    fn dft_detects_pure_tone() {
        // A k=2 sine: energy concentrated in coefficient 2.
        let x = sine(64, 2.0, 0.0);
        let f = dft_features(&x, 4);
        let mag = |k: usize| (f[2 * k] * f[2 * k] + f[2 * k + 1] * f[2 * k + 1]).sqrt();
        assert!(mag(1) > 10.0 * mag(0), "k=2 bin should dominate k=1");
        assert!(mag(1) > 10.0 * mag(2), "k=2 bin should dominate k=3");
        // Amplitude: |X_k|/n = 1/2 for a unit sine.
        assert!((mag(1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dft_of_constant_is_zero_without_dc() {
        let f = dft_features(&[3.0; 32], 3);
        assert!(f.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn sfa_words_distinguish_frequencies() {
        let lows: Vec<Vec<f64>> = (0..20).map(|i| sine(64, 1.0, i as f64 * 0.3)).collect();
        let highs: Vec<Vec<f64>> = (0..20).map(|i| sine(64, 6.0, i as f64 * 0.3)).collect();
        let all: Vec<&[f64]> = lows.iter().chain(&highs).map(|v| v.as_slice()).collect();
        let sfa = Sfa::fit(all, 6, 4);
        // Same-frequency windows with the same phase map to the same word;
        // different frequencies must differ.
        let w_low = sfa.word(&sine(64, 1.0, 0.0));
        let w_high = sfa.word(&sine(64, 6.0, 0.0));
        assert_ne!(w_low, w_high);
    }

    #[test]
    fn sfa_word_is_shift_scale_invariant() {
        // Fit on a diverse training pool that does NOT contain the probe, so
        // the probe's features sit strictly inside bins (equi-depth
        // breakpoints are training feature values; probing with a training
        // window would sit exactly on a boundary).
        let windows: Vec<Vec<f64>> = (0..24)
            .map(|i| sine(32, 1.0 + (i % 6) as f64, 0.9 + i as f64 * 0.31))
            .collect();
        let refs: Vec<&[f64]> = windows.iter().map(|v| v.as_slice()).collect();
        let sfa = Sfa::fit(refs, 4, 4);
        // Probe at a non-integer frequency: every DFT coefficient is robustly
        // nonzero, so quantization is not deciding between ±1e-16 noise (a
        // pure integer-frequency tone has analytic zeros in all other bins).
        let base = sine(32, 1.3, 0.4);
        let moved: Vec<f64> = base.iter().map(|&v| 3.0 + 1.7 * v).collect();
        assert_eq!(sfa.word(&base), sfa.word(&moved));
        // The underlying feature-level invariance holds to float tolerance.
        let fa = dft_features(&crate::sfa::tests::zn(&base), 2);
        let fb = dft_features(&zn(&moved), 2);
        for (a, b) in fa.iter().zip(&fb) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    fn zn(x: &[f64]) -> Vec<f64> {
        etsc_core::znorm::znormalize(x)
    }

    #[test]
    fn equi_depth_breakpoints_split_training_mass() {
        // Feed values uniform in [0,1] on one conceptual dim by using len-2
        // windows; check breakpoints are interior.
        let windows: Vec<Vec<f64>> = (0..100)
            .map(|i| sine(16, 1.0 + (i % 5) as f64, i as f64 * 0.1))
            .collect();
        let refs: Vec<&[f64]> = windows.iter().map(|v| v.as_slice()).collect();
        let sfa = Sfa::fit(refs, 4, 4);
        assert_eq!(sfa.word_len(), 4);
        assert_eq!(sfa.alphabet(), 4);
        for bp in 0..4 {
            let b = &sfa.breakpoints[bp];
            assert_eq!(b.len(), 3);
            // Sorted.
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "word_len must be even")]
    fn odd_word_len_rejected() {
        let w = [0.0f64; 8];
        let _ = Sfa::fit(vec![&w[..]], 3, 4);
    }
}
