//! Gaussian class-conditional models: diagonal ("naive Bayes") and full
//! covariance, with per-class or pooled (LDA-style) covariances.
//!
//! These are the machinery behind RelClass in `etsc-early`: a prefix of an
//! incoming series is scored under the *marginal* of each class Gaussian
//! over the observed coordinates — for a Gaussian, that marginal is just the
//! leading sub-vector/sub-matrix, so prefix classification is natural.

use etsc_core::{ClassLabel, UcrDataset};
use etsc_persist::{Decoder, Encoder, Persist, PersistError};

use crate::linalg::{covariance, Cholesky};
use crate::{Classifier, ScoreSession};

const LN_2PI: f64 = 1.8378770664093453;

/// State-schema tag for [`GaussianLikelihoodSession`] checkpoints.
const TAG_LIK: u8 = 22;
/// State-schema tag for [`GaussianZnormSession`] checkpoints.
const TAG_ZNORM: u8 = 23;

/// Covariance structure for [`GaussianModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CovarianceKind {
    /// Per-class diagonal covariance (Gaussian naive Bayes).
    Diagonal,
    /// Diagonal covariance pooled across classes — the "linear discriminant
    /// Gaussian" (LDG) variant: equal covariances make the decision boundary
    /// linear.
    PooledDiagonal,
    /// Per-class full covariance (QDA). Quadratic cost in the series length;
    /// prefer for short series or snapshot evaluation.
    Full,
}

/// One class's Gaussian parameters.
#[derive(Debug, Clone)]
struct ClassGaussian {
    mean: Vec<f64>,
    /// Diagonal variances (always kept; the Full kind uses it as a fallback
    /// when the covariance fails to factor).
    var: Vec<f64>,
    /// Full kind: the covariance's Cholesky factor plus precomputed whitened
    /// vectors, factored once at fit time. `None` when the (ridge-
    /// regularized) covariance is not positive definite; the class then
    /// falls back to its diagonal marginal at every prefix length.
    full: Option<FullFactor>,
    prior: f64,
    /// `ln var[i]`, derived once at fit and decode (never persisted).
    ln_var: Vec<f64>,
    /// `ln max(prior, 1e-12)`, derived once at fit and decode (never
    /// persisted).
    ln_prior: f64,
}

impl ClassGaussian {
    /// Assemble a class from its persisted parameters, deriving the
    /// logarithms every likelihood evaluation reads.
    fn new(mean: Vec<f64>, var: Vec<f64>, full: Option<FullFactor>, prior: f64) -> Self {
        Self {
            ln_var: var.iter().map(|v| v.ln()).collect(),
            ln_prior: prior.max(1e-12).ln(),
            mean,
            var,
            full,
            prior,
        }
    }
}

/// Precomputed full-covariance machinery for one class.
///
/// The Cholesky algorithm fills `L` row by row, so the leading `t × t` block
/// of `L` is bit-identical to factoring the leading principal submatrix
/// directly (see [`Cholesky`]). One factorization therefore serves every
/// prefix length: prefix log-likelihoods become one forward substitution
/// (`‖L_t⁻¹(x − μ)‖²`), and *incremental* sessions extend that substitution
/// one row per arriving sample.
#[derive(Debug, Clone)]
struct FullFactor {
    chol: Cholesky,
    /// `L⁻¹·𝟙` — the whitened all-ones vector. Per-prefix z-normalization
    /// shifts every coordinate by the same `μ/σ`, and whitening is linear,
    /// so the whitened view of a z-normalized prefix decomposes over this
    /// vector (see [`GaussianZnormSession`]).
    white_ones: Vec<f64>,
    /// `L⁻¹·μ_c` — the whitened class mean, the constant part of the same
    /// decomposition.
    white_mean: Vec<f64>,
    /// `ln L_ii`, the per-row log-determinant terms.
    ln_l_diag: Vec<f64>,
}

impl FullFactor {
    /// Derive the whitened vectors and diagonal logarithms from the factor
    /// — the same deterministic computation at fit and at decode, so a
    /// restored model is bit-identical (only `chol` is persisted).
    fn new(chol: Cholesky, mean: &[f64]) -> Self {
        let len = chol.dim();
        let ones = vec![1.0; len];
        let mut white_ones = Vec::with_capacity(len);
        chol.forward_solve_leading(&ones, &mut white_ones);
        let mut white_mean = Vec::with_capacity(len);
        chol.forward_solve_leading(mean, &mut white_mean);
        let ln_l_diag = (0..len).map(|i| chol.l_diag(i).ln()).collect();
        Self {
            chol,
            white_ones,
            white_mean,
            ln_l_diag,
        }
    }
}

/// Gaussian class-conditional model over fixed-length series, supporting
/// prefix (marginal) likelihoods.
#[derive(Debug, Clone)]
pub struct GaussianModel {
    classes: Vec<ClassGaussian>,
    kind: CovarianceKind,
    series_len: usize,
}

/// Variance floor: keeps constant coordinates (e.g. the flat GunPoint tail)
/// from producing infinite densities.
const VAR_FLOOR: f64 = 1e-6;
/// Ridge added to full covariances before factorization.
const RIDGE: f64 = 1e-3;

impl GaussianModel {
    /// Fit per-class Gaussians of the requested kind on `train`.
    pub fn fit(train: &UcrDataset, kind: CovarianceKind) -> Self {
        let n_classes = train.n_classes();
        let len = train.series_len();
        let n_total = train.len() as f64;

        // Per class: (mean, var, full factor, prior).
        let mut fitted = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            let members: Vec<&[f64]> = train
                .iter()
                .filter(|&(_, l)| l == c)
                .map(|(s, _)| s)
                .collect();
            let count = members.len();
            let mut mean = vec![0.0; len];
            for m in &members {
                for (acc, &v) in mean.iter_mut().zip(*m) {
                    *acc += v;
                }
            }
            if count > 0 {
                mean.iter_mut().for_each(|v| *v /= count as f64);
            }
            let mut var = vec![0.0; len];
            for m in &members {
                for ((acc, &v), &mu) in var.iter_mut().zip(*m).zip(&mean) {
                    let d = v - mu;
                    *acc += d * d;
                }
            }
            if count > 0 {
                var.iter_mut().for_each(|v| *v /= count as f64);
            }
            var.iter_mut().for_each(|v| *v = v.max(VAR_FLOOR));

            let full = match kind {
                CovarianceKind::Full => Cholesky::new(&covariance(&members, &mean, RIDGE))
                    .map(|chol| FullFactor::new(chol, &mean)),
                _ => None,
            };
            fitted.push((mean, var, full, count as f64 / n_total));
        }

        if kind == CovarianceKind::PooledDiagonal {
            // Pool the diagonal variances, weighted by class priors.
            let mut pooled = vec![0.0; len];
            for (_, var, _, prior) in &fitted {
                for (p, &v) in pooled.iter_mut().zip(var) {
                    *p += prior * v;
                }
            }
            for (_, var, _, _) in &mut fitted {
                var.clone_from(&pooled);
            }
        }

        Self {
            classes: fitted
                .into_iter()
                .map(|(mean, var, full, prior)| ClassGaussian::new(mean, var, full, prior))
                .collect(),
            kind,
            series_len: len,
        }
    }

    /// Series length the model was fitted on.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Log-likelihood of the prefix `x` (length ≤ series_len) under class
    /// `c`'s marginal Gaussian.
    ///
    /// The Full kind evaluates against the covariance's Cholesky factor
    /// computed once at fit time (its leading block factors every prefix
    /// marginal), as `‖L_t⁻¹(x − μ)‖²` — the same term order the
    /// incremental [`GaussianLikelihoodSession`] accumulates, so the two
    /// paths agree bit for bit. A class whose regularized covariance failed
    /// to factor falls back to its diagonal marginal at every prefix length.
    pub fn log_likelihood_prefix(&self, c: ClassLabel, x: &[f64]) -> f64 {
        let t = x.len().min(self.series_len);
        let cg = &self.classes[c];
        match (self.kind, &cg.full) {
            (CovarianceKind::Full, Some(f)) => {
                let diff: Vec<f64> = (0..t).map(|i| x[i] - cg.mean[i]).collect();
                -0.5 * (t as f64 * LN_2PI
                    + f.chol.log_det_leading(t)
                    + f.chol.mahalanobis_sq_leading(&diff))
            }
            // Diagonal kinds, and the regularized fallback for a Full class
            // with an unfactorable covariance.
            _ => {
                let mut ll = 0.0;
                for i in 0..t {
                    let d = x[i] - cg.mean[i];
                    ll += -0.5 * (LN_2PI + cg.ln_var[i] + d * d / cg.var[i]);
                }
                ll
            }
        }
    }

    /// Class posteriors given a prefix: softmax of `log prior + log lik`.
    pub fn posterior_prefix(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.classes.len()];
        self.posterior_prefix_into(x, &mut out);
        out
    }

    /// [`posterior_prefix`](Self::posterior_prefix) into a caller buffer.
    pub fn posterior_prefix_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.classes.len());
        for (c, o) in out.iter_mut().enumerate() {
            *o = self.classes[c].ln_prior + self.log_likelihood_prefix(c, x);
        }
        softmax_of_logs_in_place(out);
    }

    /// Class mean (for inspection / conditional completion).
    pub fn class_mean(&self, c: ClassLabel) -> &[f64] {
        &self.classes[c].mean
    }

    /// Class prior.
    pub fn class_prior(&self, c: ClassLabel) -> f64 {
        self.classes[c].prior
    }

    /// The log prior every posterior adds to class `c`'s log-likelihood:
    /// `ln max(prior, 1e-12)` (the floor keeps an empty class finite),
    /// computed once when the model is fitted or restored.
    pub fn class_log_prior(&self, c: ClassLabel) -> f64 {
        self.classes[c].ln_prior
    }

    /// Open an incremental per-class log-likelihood accumulator.
    ///
    /// Every covariance kind is supported. Diagonal kinds accumulate the
    /// per-coordinate likelihood sum at O(classes) per sample. The Full
    /// kind extends each class's forward substitution `L_t⁻¹(x − μ)` by one
    /// row per sample — O(classes × prefix) per sample, against
    /// O(classes × prefix²) for rescoring the whole prefix (and
    /// O(classes × prefix³) for refactoring its covariance marginal).
    pub fn likelihood_session(&self) -> GaussianLikelihoodSession<'_> {
        GaussianLikelihoodSession {
            full: match self.kind {
                CovarianceKind::Full => self
                    .classes
                    .iter()
                    .map(|cg| {
                        cg.full.as_ref().map(|_| FullClassState {
                            diff: Vec::with_capacity(self.series_len),
                            y: Vec::with_capacity(self.series_len),
                            q: 0.0,
                            sum_ln: 0.0,
                        })
                    })
                    .collect(),
                _ => Vec::new(),
            },
            model: self,
            ll: vec![0.0; self.classes.len()],
            len: 0,
        }
    }
}

impl CovarianceKind {
    fn to_tag(self) -> u8 {
        match self {
            CovarianceKind::Diagonal => 0,
            CovarianceKind::PooledDiagonal => 1,
            CovarianceKind::Full => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, PersistError> {
        match tag {
            0 => Ok(CovarianceKind::Diagonal),
            1 => Ok(CovarianceKind::PooledDiagonal),
            2 => Ok(CovarianceKind::Full),
            t => Err(PersistError::Corrupt(format!(
                "gaussian: covariance kind tag {t}"
            ))),
        }
    }
}

impl Persist for GaussianModel {
    const KIND: &'static str = "GaussianModel";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_u8(self.kind.to_tag());
        enc.put_usize(self.series_len);
        enc.put_usize(self.classes.len());
        for cg in &self.classes {
            enc.section(|e| {
                e.put_f64_slice(&cg.mean);
                e.put_f64_slice(&cg.var);
                e.put_f64(cg.prior);
                // Only the Cholesky factor travels; the whitened vectors
                // and logarithms are recomputed at decode by the same
                // deterministic code fit time ran — bit-identical.
                match &cg.full {
                    Some(f) => {
                        e.put_bool(true);
                        f.chol.encode_body(e);
                    }
                    None => e.put_bool(false),
                }
            });
        }
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let kind = CovarianceKind::from_tag(dec.get_u8("gaussian kind")?)?;
        let series_len = dec.get_usize("gaussian series_len")?;
        let n = dec.get_usize("gaussian class count")?;
        if series_len == 0 || n == 0 {
            return Err(PersistError::Corrupt(
                "gaussian: empty model (no classes or zero length)".into(),
            ));
        }
        // Each class is a section: at least its 8-byte length.
        dec.check_claim(n, 8, "gaussian classes")?;
        let mut classes = Vec::with_capacity(n);
        for c in 0..n {
            let mut sub = dec.section("gaussian class")?;
            let mean = sub.get_f64_vec("gaussian mean")?;
            let var = sub.get_f64_vec("gaussian var")?;
            let prior = sub.get_f64("gaussian prior")?;
            if mean.len() != series_len || var.len() != series_len {
                return Err(PersistError::Corrupt(format!(
                    "gaussian class {c}: mean/var lengths {}/{} for series_len {series_len}",
                    mean.len(),
                    var.len()
                )));
            }
            if var.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
                return Err(PersistError::Corrupt(format!(
                    "gaussian class {c}: non-positive variance"
                )));
            }
            let full = if sub.get_bool("gaussian factor present")? {
                if kind != CovarianceKind::Full {
                    return Err(PersistError::Corrupt(format!(
                        "gaussian class {c}: factor stored for a diagonal kind"
                    )));
                }
                let chol = Cholesky::decode_body(&mut sub)?;
                if chol.dim() != series_len {
                    return Err(PersistError::Corrupt(format!(
                        "gaussian class {c}: factor dim {} for series_len {series_len}",
                        chol.dim()
                    )));
                }
                Some(FullFactor::new(chol, &mean))
            } else {
                None
            };
            sub.finish()?;
            classes.push(ClassGaussian::new(mean, var, full, prior));
        }
        Ok(Self {
            classes,
            kind,
            series_len,
        })
    }
}

/// Per-class whitening state of a Full-covariance likelihood session: the
/// growing residual `x − μ`, its forward substitution `y = L_t⁻¹(x − μ)`
/// (extended one row per sample — triangular solves are incremental), and
/// the running `‖y‖²` / `Σ ln L_ii` the log-density is assembled from.
#[derive(Debug, Clone)]
struct FullClassState {
    diff: Vec<f64>,
    y: Vec<f64>,
    q: f64,
    sum_ln: f64,
}

/// Running per-class log-likelihood of a growing prefix under a
/// [`GaussianModel`]. After pushing `x1..xt`,
/// [`log_likelihoods`](Self::log_likelihoods)`[c]` equals
/// [`GaussianModel::log_likelihood_prefix`]`(c, &[x1..xt])` **exactly**, for
/// every covariance kind: the diagonal likelihood is a per-coordinate sum
/// accumulated in the same order, and the full-covariance likelihood is
/// assembled from the same forward-substitution rows, squared and summed in
/// the same order, as the batch path.
#[derive(Debug, Clone)]
pub struct GaussianLikelihoodSession<'a> {
    model: &'a GaussianModel,
    ll: Vec<f64>,
    len: usize,
    /// Full kind only: one whitening state per class (`None` entries are
    /// classes whose covariance failed to factor; they use the diagonal
    /// fallback, mirroring the batch path). Empty for diagonal kinds.
    full: Vec<Option<FullClassState>>,
}

impl GaussianLikelihoodSession<'_> {
    /// Consume one sample; coordinates beyond the fitted series length are
    /// ignored (matching the prefix truncation of the batch path).
    pub fn push(&mut self, x: f64) {
        if self.len < self.model.series_len {
            let i = self.len;
            if self.model.kind == CovarianceKind::Full {
                for (c, (state, cg)) in self.full.iter_mut().zip(&self.model.classes).enumerate() {
                    match (state, &cg.full) {
                        (Some(s), Some(f)) => {
                            s.diff.push(x - cg.mean[i]);
                            f.chol.forward_solve_leading(&s.diff, &mut s.y);
                            let yi = s.y[i];
                            s.q += yi * yi;
                            s.sum_ln += f.ln_l_diag[i];
                            self.ll[c] = -0.5 * ((i + 1) as f64 * LN_2PI + s.sum_ln * 2.0 + s.q);
                        }
                        _ => {
                            // Unfactorable class: diagonal marginal, exactly
                            // as the batch fallback.
                            let d = x - cg.mean[i];
                            self.ll[c] += -0.5 * (LN_2PI + cg.ln_var[i] + d * d / cg.var[i]);
                        }
                    }
                }
            } else {
                for (acc, cg) in self.ll.iter_mut().zip(&self.model.classes) {
                    let d = x - cg.mean[i];
                    *acc += -0.5 * (LN_2PI + cg.ln_var[i] + d * d / cg.var[i]);
                }
            }
        }
        self.len += 1;
    }

    /// Samples consumed (uncapped).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-class log-likelihood of the samples pushed so far.
    pub fn log_likelihoods(&self) -> &[f64] {
        &self.ll
    }

    /// `log prior + log likelihood` per class: the logits of both the
    /// [`posterior_into`](Self::posterior_into) softmax and the
    /// [`ScoreSession::logit_gap`] bound.
    fn logits(&self) -> impl Iterator<Item = f64> + '_ {
        self.ll
            .iter()
            .zip(&self.model.classes)
            .map(|(ll, cg)| cg.ln_prior + ll)
    }

    /// Posterior over classes, written into `out`: softmax of
    /// `log prior + log likelihood`, exactly as
    /// [`GaussianModel::posterior_prefix`].
    pub fn posterior_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.ll.len());
        for (o, l) in out.iter_mut().zip(self.logits()) {
            *o = l;
        }
        softmax_of_logs_in_place(out);
    }

    /// Forget all samples, keeping allocations.
    pub fn reset(&mut self) {
        self.ll.fill(0.0);
        self.len = 0;
        for state in self.full.iter_mut().flatten() {
            state.diff.clear();
            state.y.clear();
            state.q = 0.0;
            state.sum_ln = 0.0;
        }
    }
}

impl ScoreSession for GaussianLikelihoodSession<'_> {
    fn push(&mut self, x: f64) {
        GaussianLikelihoodSession::push(self, x);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn predict_proba_into(&self, out: &mut [f64]) {
        self.posterior_into(out);
    }

    fn logit_gap(&self) -> Option<f64> {
        crate::top_logit_gap(self.logits())
    }

    fn reset(&mut self) {
        GaussianLikelihoodSession::reset(self);
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u8(TAG_LIK);
        enc.put_usize(self.len);
        enc.put_f64_slice(&self.ll);
        enc.put_usize(self.full.len());
        for state in &self.full {
            match state {
                Some(s) => {
                    enc.put_bool(true);
                    enc.put_f64_slice(&s.diff);
                    enc.put_f64_slice(&s.y);
                    enc.put_f64(s.q);
                    enc.put_f64(s.sum_ln);
                }
                None => enc.put_bool(false),
            }
        }
        Ok(())
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        if dec.get_u8("gaussian session tag")? != TAG_LIK {
            return Err(PersistError::Corrupt(
                "gaussian likelihood session: wrong state tag".into(),
            ));
        }
        let len = dec.get_usize("gaussian session len")?;
        let ll = dec.get_f64_vec("gaussian session ll")?;
        if ll.len() != self.ll.len() {
            return Err(PersistError::Corrupt(format!(
                "gaussian session: {} classes in state, model has {}",
                ll.len(),
                self.ll.len()
            )));
        }
        let n_full = dec.get_usize("gaussian session full count")?;
        if n_full != self.full.len() {
            return Err(PersistError::Corrupt(format!(
                "gaussian session: {n_full} whitening states, model expects {}",
                self.full.len()
            )));
        }
        let observed = len.min(self.model.series_len);
        let mut full = Vec::with_capacity(n_full);
        for (c, expected) in self.full.iter().enumerate() {
            if dec.get_bool("gaussian session factor present")? {
                if expected.is_none() {
                    return Err(PersistError::Corrupt(format!(
                        "gaussian session class {c}: whitening state for an unfactored class"
                    )));
                }
                let diff = dec.get_f64_vec("gaussian session diff")?;
                let y = dec.get_f64_vec("gaussian session y")?;
                if diff.len() != observed || y.len() != observed {
                    return Err(PersistError::Corrupt(format!(
                        "gaussian session class {c}: residual lengths {}/{} for prefix {observed}",
                        diff.len(),
                        y.len()
                    )));
                }
                let q = dec.get_f64("gaussian session q")?;
                let sum_ln = dec.get_f64("gaussian session sum_ln")?;
                full.push(Some(FullClassState { diff, y, q, sum_ln }));
            } else {
                if expected.is_some() {
                    return Err(PersistError::Corrupt(format!(
                        "gaussian session class {c}: missing whitening state"
                    )));
                }
                full.push(None);
            }
        }
        self.len = len;
        self.ll = ll;
        self.full = full;
        Ok(())
    }
}

impl GaussianModel {
    /// Open an incremental accumulator for the per-class log-likelihood of
    /// the **per-prefix z-normalized** view of a growing prefix: after
    /// pushing `x1..xt`, its log-likelihoods track
    /// `log_likelihood_prefix(c, &znormalize(&[x1..xt]))` (to documented
    /// floating-point tolerance — see [`GaussianZnormSession`]) at O(classes)
    /// per sample for diagonal kinds and O(classes × prefix) for Full,
    /// instead of renormalizing and rescoring the whole prefix.
    pub fn znorm_likelihood_session(&self) -> GaussianZnormSession<'_> {
        GaussianZnormSession {
            classes: self
                .classes
                .iter()
                .map(|cg| match (self.kind, &cg.full) {
                    (CovarianceKind::Full, Some(_)) => ZnormClassState::Full {
                        p: Vec::with_capacity(self.series_len),
                        pp: 0.0,
                        rr: 0.0,
                        ss: 0.0,
                        pr: 0.0,
                        ps: 0.0,
                        rs: 0.0,
                        sum_ln: 0.0,
                    },
                    _ => ZnormClassState::Diag(DiagZnormSums::default()),
                })
                .collect(),
            raw: Vec::with_capacity(match self.kind {
                CovarianceKind::Full => self.series_len,
                _ => 0,
            }),
            model: self,
            s1: 0.0,
            s2: 0.0,
            len: 0,
        }
    }
}

/// The six running sums of the per-prefix z-norm algebra for one class
/// under a diagonal covariance, all weighted by the inverse variances
/// `1/σ²_ci`, plus the (prefix-cumulative) log-determinant.
///
/// Writing the z-normalized sample as `ẑᵢ = u·xᵢ − v` with `u = 1/σ_p`,
/// `v = μ_p/σ_p` (prefix statistics `μ_p, σ_p`), the class-`c` Mahalanobis
/// sum expands to
///
/// ```text
/// Σ (ẑᵢ−mᵢ)²/σ²_ci = u²·Sxx − 2u·(v·Sx + Sxm) + v²·S1 + 2v·Sm + Smm
/// ```
///
/// so a *change of prefix normalization* — which touches every past
/// coordinate — is a closed-form re-evaluation of six scalars, not a replay
/// of the prefix.
#[derive(Debug, Clone, Copy, Default)]
struct DiagZnormSums {
    /// Σ xᵢ²/σ²_ci
    sxx: f64,
    /// Σ xᵢ/σ²_ci
    sx: f64,
    /// Σ xᵢ·mᵢ/σ²_ci
    sxm: f64,
    /// Σ 1/σ²_ci
    s1: f64,
    /// Σ mᵢ/σ²_ci
    sm: f64,
    /// Σ mᵢ²/σ²_ci
    smm: f64,
    /// Σ ln σ²_ci
    slnv: f64,
}

/// Per-class state of a [`GaussianZnormSession`].
#[derive(Debug, Clone)]
enum ZnormClassState {
    /// Diagonal covariance (or the diagonal fallback of an unfactorable
    /// Full-kind class): the six-sums algebra.
    Diag(DiagZnormSums),
    /// Full covariance: the same six-sums shape, pushed through the
    /// whitening transform. With `p = L⁻¹x` (extended one forward-
    /// substitution row per sample), `r = L⁻¹𝟙` and `s = L⁻¹μ_c`
    /// (precomputed at fit), the whitened residual of the z-normalized
    /// prefix is `y = u·p − v·r − s`, so
    /// `‖y‖² = u²·pp + v²·rr + ss − 2uv·pr − 2u·ps + 2v·rs` — six running
    /// dot products, re-evaluated in closed form as `(u, v)` drift.
    Full {
        p: Vec<f64>,
        pp: f64,
        rr: f64,
        ss: f64,
        pr: f64,
        ps: f64,
        rs: f64,
        sum_ln: f64,
    },
}

/// Incremental per-class log-likelihood of the per-prefix z-normalized view
/// of a growing prefix (the [`crate::Classifier::score_session_znorm`]
/// substrate for Gaussian models).
///
/// **Tolerance contract:** after pushing `x1..xt`, the log-likelihoods
/// track `GaussianModel::log_likelihood_prefix(c, &znormalize(&[x1..xt]))`
/// up to floating-point reassociation — the closed-form sums regroup the
/// same arithmetic the batch path performs per coordinate. The prefix mean
/// and standard deviation themselves are maintained as the same running
/// `Σx`/`Σx²` that `etsc_core::stats::mean_std` accumulates, in the same
/// order, so the normalization constants (and the constant-prefix branch
/// they select) are bit-identical to the batch `znormalize`; only the
/// likelihood assembly reassociates. Callers comparing against the batch
/// path should allow ~1e-9 relative slack.
#[derive(Debug, Clone)]
pub struct GaussianZnormSession<'a> {
    model: &'a GaussianModel,
    /// Running Σx / Σx² of the raw samples (uncapped: `znormalize` of the
    /// whole buffer uses every pushed sample, even past the fitted length).
    s1: f64,
    s2: f64,
    /// The raw prefix, capped at the fitted length — the right-hand side the
    /// Full kind's forward substitutions extend over. Left empty for
    /// diagonal kinds.
    raw: Vec<f64>,
    len: usize,
    classes: Vec<ZnormClassState>,
}

impl GaussianZnormSession<'_> {
    /// Consume one sample. Coordinate-indexed sums stop at the fitted
    /// series length (the batch path truncates the prefix there), while the
    /// normalization statistics keep absorbing every sample (the batch path
    /// normalizes the whole buffer before truncating).
    pub fn push(&mut self, x: f64) {
        self.s1 += x;
        self.s2 += x * x;
        if self.len < self.model.series_len {
            let i = self.len;
            if self.model.kind == CovarianceKind::Full {
                self.raw.push(x);
            }
            for (state, cg) in self.classes.iter_mut().zip(&self.model.classes) {
                match state {
                    ZnormClassState::Diag(s) => {
                        let m = cg.mean[i];
                        let iv = 1.0 / cg.var[i];
                        s.sxx += x * x * iv;
                        s.sx += x * iv;
                        s.sxm += x * m * iv;
                        s.s1 += iv;
                        s.sm += m * iv;
                        s.smm += m * m * iv;
                        s.slnv += cg.ln_var[i];
                    }
                    ZnormClassState::Full {
                        p,
                        pp,
                        rr,
                        ss,
                        pr,
                        ps,
                        rs,
                        sum_ln,
                    } => {
                        // Every constructor (the fit-time session opener and
                        // the snapshot-restore path) keys the Full variant
                        // off the factor's presence, so the factor is always
                        // here; a hypothetically inconsistent state must
                        // still degrade gracefully (skip the class) rather
                        // than abort the process mid-stream.
                        let Some(f) = cg.full.as_ref() else { continue };
                        // Extend p = L⁻¹x by one row — the same kernel (and
                        // therefore the same bits) as every other forward
                        // substitution in the workspace.
                        f.chol.forward_solve_leading(&self.raw, p);
                        let pi = p[i];
                        let ri = f.white_ones[i];
                        let si = f.white_mean[i];
                        *sum_ln += f.ln_l_diag[i];
                        *pp += pi * pi;
                        *rr += ri * ri;
                        *ss += si * si;
                        *pr += pi * ri;
                        *ps += pi * si;
                        *rs += ri * si;
                    }
                }
            }
        }
        self.len += 1;
    }

    /// Samples consumed (uncapped).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(u, v)` normalization parameters of the current prefix:
    /// `ẑ = u·x − v` with `u = 1/σ_p`, `v = μ_p/σ_p`, or `(0, 0)` for a
    /// (near-)constant prefix — which maps it to all zeros, exactly as the
    /// batch `znormalize` convention.
    fn norm_params(&self) -> (f64, f64) {
        if self.len == 0 {
            return (0.0, 0.0);
        }
        let n = self.len as f64;
        let mean = self.s1 / n;
        let var = (self.s2 / n - mean * mean).max(0.0);
        let sd = var.sqrt();
        if sd <= etsc_core::znorm::CONSTANT_EPS {
            (0.0, 0.0)
        } else {
            (1.0 / sd, mean / sd)
        }
    }

    /// Per-class log-likelihood of the z-normalized prefix, in closed form
    /// from the running sums.
    fn log_likelihoods(&self) -> impl Iterator<Item = f64> + '_ {
        let t = self.len.min(self.model.series_len) as f64;
        let (u, v) = self.norm_params();
        self.classes.iter().map(move |state| match state {
            ZnormClassState::Diag(s) => {
                let q = u * u * s.sxx - 2.0 * u * (v * s.sx + s.sxm)
                    + (v * v * s.s1 + 2.0 * v * s.sm + s.smm);
                -0.5 * (t * LN_2PI + s.slnv + q)
            }
            ZnormClassState::Full {
                pp,
                rr,
                ss,
                pr,
                ps,
                rs,
                sum_ln,
                ..
            } => {
                let q =
                    u * u * pp + v * v * rr + ss - 2.0 * u * v * pr - 2.0 * u * ps + 2.0 * v * rs;
                -0.5 * (t * LN_2PI + sum_ln * 2.0 + q)
            }
        })
    }

    /// Per-class log-likelihood of the z-normalized prefix, written into
    /// `out` (length = number of classes).
    pub fn log_likelihoods_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.classes.len());
        for (o, ll) in out.iter_mut().zip(self.log_likelihoods()) {
            *o = ll;
        }
    }

    /// `log likelihood + log prior` per class: the logits of both the
    /// [`posterior_into`](Self::posterior_into) softmax and the
    /// [`ScoreSession::logit_gap`] bound.
    fn logits(&self) -> impl Iterator<Item = f64> + '_ {
        self.log_likelihoods()
            .zip(&self.model.classes)
            .map(|(ll, cg)| ll + cg.ln_prior)
    }

    /// Posterior over classes for the z-normalized prefix, written into
    /// `out`: softmax of `log prior + log likelihood`, tracking
    /// [`GaussianModel::posterior_prefix`] of the normalized buffer.
    pub fn posterior_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.classes.len());
        for (o, l) in out.iter_mut().zip(self.logits()) {
            *o = l;
        }
        softmax_of_logs_in_place(out);
    }

    /// Forget all samples, keeping allocations.
    pub fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
        self.raw.clear();
        self.len = 0;
        for state in self.classes.iter_mut() {
            match state {
                ZnormClassState::Diag(s) => *s = DiagZnormSums::default(),
                ZnormClassState::Full {
                    p,
                    pp,
                    rr,
                    ss,
                    pr,
                    ps,
                    rs,
                    sum_ln,
                } => {
                    p.clear();
                    *pp = 0.0;
                    *rr = 0.0;
                    *ss = 0.0;
                    *pr = 0.0;
                    *ps = 0.0;
                    *rs = 0.0;
                    *sum_ln = 0.0;
                }
            }
        }
    }
}

impl ScoreSession for GaussianZnormSession<'_> {
    fn push(&mut self, x: f64) {
        GaussianZnormSession::push(self, x);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn predict_proba_into(&self, out: &mut [f64]) {
        self.posterior_into(out);
    }

    fn logit_gap(&self) -> Option<f64> {
        crate::top_logit_gap(self.logits())
    }

    fn reset(&mut self) {
        GaussianZnormSession::reset(self);
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u8(TAG_ZNORM);
        enc.put_f64(self.s1);
        enc.put_f64(self.s2);
        enc.put_f64_slice(&self.raw);
        enc.put_usize(self.len);
        enc.put_usize(self.classes.len());
        for state in &self.classes {
            match state {
                ZnormClassState::Diag(s) => {
                    enc.put_u8(0);
                    enc.put_f64(s.sxx);
                    enc.put_f64(s.sx);
                    enc.put_f64(s.sxm);
                    enc.put_f64(s.s1);
                    enc.put_f64(s.sm);
                    enc.put_f64(s.smm);
                    enc.put_f64(s.slnv);
                }
                ZnormClassState::Full {
                    p,
                    pp,
                    rr,
                    ss,
                    pr,
                    ps,
                    rs,
                    sum_ln,
                } => {
                    enc.put_u8(1);
                    enc.put_f64_slice(p);
                    enc.put_f64(*pp);
                    enc.put_f64(*rr);
                    enc.put_f64(*ss);
                    enc.put_f64(*pr);
                    enc.put_f64(*ps);
                    enc.put_f64(*rs);
                    enc.put_f64(*sum_ln);
                }
            }
        }
        Ok(())
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        if dec.get_u8("gaussian znorm session tag")? != TAG_ZNORM {
            return Err(PersistError::Corrupt(
                "gaussian znorm session: wrong state tag".into(),
            ));
        }
        let s1 = dec.get_f64("gaussian znorm s1")?;
        let s2 = dec.get_f64("gaussian znorm s2")?;
        let raw = dec.get_f64_vec("gaussian znorm raw")?;
        let len = dec.get_usize("gaussian znorm len")?;
        let n = dec.get_usize("gaussian znorm class count")?;
        if n != self.classes.len() {
            return Err(PersistError::Corrupt(format!(
                "gaussian znorm session: {n} classes in state, model has {}",
                self.classes.len()
            )));
        }
        let observed = len.min(self.model.series_len);
        let expect_raw = match self.model.kind {
            CovarianceKind::Full => observed,
            _ => 0,
        };
        if raw.len() != expect_raw {
            return Err(PersistError::Corrupt(format!(
                "gaussian znorm session: raw buffer length {} for prefix {observed}",
                raw.len()
            )));
        }
        let mut classes = Vec::with_capacity(n);
        for (c, expected) in self.classes.iter().enumerate() {
            let variant = dec.get_u8("gaussian znorm variant")?;
            match (variant, expected) {
                (0, ZnormClassState::Diag(_)) => {
                    classes.push(ZnormClassState::Diag(DiagZnormSums {
                        sxx: dec.get_f64("znorm sxx")?,
                        sx: dec.get_f64("znorm sx")?,
                        sxm: dec.get_f64("znorm sxm")?,
                        s1: dec.get_f64("znorm s1")?,
                        sm: dec.get_f64("znorm sm")?,
                        smm: dec.get_f64("znorm smm")?,
                        slnv: dec.get_f64("znorm slnv")?,
                    }));
                }
                (1, ZnormClassState::Full { .. }) => {
                    let p = dec.get_f64_vec("znorm p")?;
                    if p.len() != observed {
                        return Err(PersistError::Corrupt(format!(
                            "gaussian znorm session class {c}: p length {} for prefix {observed}",
                            p.len()
                        )));
                    }
                    classes.push(ZnormClassState::Full {
                        p,
                        pp: dec.get_f64("znorm pp")?,
                        rr: dec.get_f64("znorm rr")?,
                        ss: dec.get_f64("znorm ss")?,
                        pr: dec.get_f64("znorm pr")?,
                        ps: dec.get_f64("znorm ps")?,
                        rs: dec.get_f64("znorm rs")?,
                        sum_ln: dec.get_f64("znorm sum_ln")?,
                    });
                }
                _ => {
                    return Err(PersistError::Corrupt(format!(
                        "gaussian znorm session class {c}: state variant does not match model"
                    )));
                }
            }
        }
        self.s1 = s1;
        self.s2 = s2;
        self.raw = raw;
        self.len = len;
        self.classes = classes;
        Ok(())
    }
}

impl Classifier for GaussianModel {
    fn n_classes(&self) -> usize {
        self.classes.len()
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        self.posterior_prefix(x)
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        self.posterior_prefix_into(x, out);
    }

    fn score_session(&self) -> Option<Box<dyn ScoreSession + '_>> {
        Some(Box::new(self.likelihood_session()))
    }

    fn score_session_znorm(&self) -> Option<Box<dyn ScoreSession + '_>> {
        Some(Box::new(self.znorm_likelihood_session()))
    }
}

/// Numerically stable softmax of log-scores.
pub fn softmax_of_logs(logs: &[f64]) -> Vec<f64> {
    let mut p = logs.to_vec();
    softmax_of_logs_in_place(&mut p);
    p
}

/// [`softmax_of_logs`] in place: `buf` holds log-scores on entry and
/// probabilities on exit.
pub fn softmax_of_logs_in_place(buf: &mut [f64]) {
    let max = buf.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        buf.fill(1.0 / buf.len() as f64);
        return;
    }
    let mut z = 0.0;
    for v in buf.iter_mut() {
        *v = (*v - max).exp();
        z += *v;
    }
    buf.iter_mut().for_each(|v| *v /= z);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Class 0 ~ N(0, 0.1) per coordinate, class 1 ~ N(3, 0.1).
    fn toy(n: usize, len: usize) -> UcrDataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            for i in 0..n {
                let base = 3.0 * c as f64;
                data.push(
                    (0..len)
                        .map(|j| base + 0.1 * (((i * 7 + j * 13) % 10) as f64 / 10.0 - 0.5))
                        .collect(),
                );
                labels.push(c);
            }
        }
        UcrDataset::new(data, labels).unwrap()
    }

    #[test]
    fn diagonal_model_separates_classes() {
        let d = toy(10, 8);
        let m = GaussianModel::fit(&d, CovarianceKind::Diagonal);
        assert_eq!(m.predict(&[0.05; 8]), 0);
        assert_eq!(m.predict(&[2.95; 8]), 1);
    }

    #[test]
    fn posterior_sums_to_one() {
        let d = toy(10, 8);
        for kind in [
            CovarianceKind::Diagonal,
            CovarianceKind::PooledDiagonal,
            CovarianceKind::Full,
        ] {
            let m = GaussianModel::fit(&d, kind);
            let p = m.posterior_prefix(&[1.0; 8]);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{kind:?}");
        }
    }

    #[test]
    fn prefix_likelihood_handles_partial_observation() {
        let d = toy(10, 8);
        let m = GaussianModel::fit(&d, CovarianceKind::Diagonal);
        // Only 3 of 8 points seen.
        let p = m.posterior_prefix(&[0.0, 0.0, 0.1]);
        assert!(p[0] > 0.9);
        // Longer consistent prefix is at least as confident.
        let p_full = m.posterior_prefix(&[0.0; 8]);
        assert!(p_full[0] >= p[0] - 1e-9);
    }

    #[test]
    fn pooled_variant_shares_variances() {
        let d = toy(10, 4);
        let m = GaussianModel::fit(&d, CovarianceKind::PooledDiagonal);
        // Pooled: log-lik difference between classes is linear in x, so the
        // decision boundary is the midpoint 1.5.
        assert_eq!(m.predict(&[1.4; 4]), 0);
        assert_eq!(m.predict(&[1.6; 4]), 1);
    }

    #[test]
    fn full_covariance_model_works_on_prefixes() {
        let d = toy(12, 6);
        let m = GaussianModel::fit(&d, CovarianceKind::Full);
        assert_eq!(m.predict(&[0.0, 0.1]), 0);
        assert_eq!(m.predict(&[3.0, 2.9, 3.1, 3.0, 3.0, 2.95]), 1);
    }

    #[test]
    fn priors_reflect_class_imbalance() {
        let d = UcrDataset::new(
            vec![
                vec![0.0, 0.0],
                vec![0.1, 0.0],
                vec![0.0, 0.1],
                vec![5.0, 5.0],
            ],
            vec![0, 0, 0, 1],
        )
        .unwrap();
        let m = GaussianModel::fit(&d, CovarianceKind::Diagonal);
        assert!((m.class_prior(0) - 0.75).abs() < 1e-12);
        assert!((m.class_prior(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn likelihood_session_matches_batch_exactly() {
        let d = toy(10, 8);
        for kind in [
            CovarianceKind::Diagonal,
            CovarianceKind::PooledDiagonal,
            CovarianceKind::Full,
        ] {
            let m = GaussianModel::fit(&d, kind);
            let mut s = m.likelihood_session();
            // Longer than the fitted length to exercise truncation.
            let probe = [0.1, 2.0, -0.3, 1.0, 0.0, 3.0, 0.2, 0.4, 9.0, 9.0];
            let mut out = [0.0; 2];
            for (i, &x) in probe.iter().enumerate() {
                s.push(x);
                for c in 0..2 {
                    assert_eq!(
                        s.log_likelihoods()[c],
                        m.log_likelihood_prefix(c, &probe[..i + 1]),
                        "{kind:?} class {c} prefix {}",
                        i + 1
                    );
                }
                s.posterior_into(&mut out);
                assert_eq!(
                    out.to_vec(),
                    m.posterior_prefix(&probe[..i + 1]),
                    "{kind:?} prefix {}",
                    i + 1
                );
            }
            s.reset();
            assert!(s.is_empty());
            // A reset session replays identically.
            s.push(probe[0]);
            assert_eq!(
                s.log_likelihoods()[0],
                m.log_likelihood_prefix(0, &probe[..1])
            );
        }
    }

    #[test]
    fn znorm_session_tracks_batch_on_normalized_prefixes() {
        use etsc_core::znorm::znormalize;
        let d = toy(10, 8);
        for kind in [
            CovarianceKind::Diagonal,
            CovarianceKind::PooledDiagonal,
            CovarianceKind::Full,
        ] {
            let m = GaussianModel::fit(&d, kind);
            let mut s = m.znorm_likelihood_session();
            // Longer than the fitted length to exercise truncation; varied
            // scale so the normalization genuinely moves per step.
            let probe = [0.1, 2.0, -0.3, 1.0, 0.0, 3.0, 0.2, 0.4, 9.0, -5.0];
            let mut ll = [0.0; 2];
            let mut post = [0.0; 2];
            for (i, &x) in probe.iter().enumerate() {
                s.push(x);
                let z = znormalize(&probe[..i + 1]);
                s.log_likelihoods_into(&mut ll);
                for c in 0..2 {
                    let re = m.log_likelihood_prefix(c, &z);
                    assert!(
                        (ll[c] - re).abs() <= 1e-9 * (1.0 + re.abs()),
                        "{kind:?} class {c} prefix {}: {} vs {re}",
                        i + 1,
                        ll[c]
                    );
                }
                s.posterior_into(&mut post);
                let re = m.posterior_prefix(&z);
                for c in 0..2 {
                    assert!(
                        (post[c] - re[c]).abs() <= 1e-9,
                        "{kind:?} posterior class {c} prefix {}",
                        i + 1
                    );
                }
            }
            s.reset();
            assert!(s.is_empty());
        }
    }

    #[test]
    fn znorm_session_constant_prefix_matches_zeroed_batch() {
        use etsc_core::znorm::znormalize;
        let d = toy(10, 6);
        for kind in [CovarianceKind::Diagonal, CovarianceKind::Full] {
            let m = GaussianModel::fit(&d, kind);
            let mut s = m.znorm_likelihood_session();
            let mut ll = [0.0; 2];
            for i in 0..4 {
                s.push(7.5); // constant prefix z-normalizes to zeros
                let z = znormalize(&vec![7.5; i + 1]);
                assert!(z.iter().all(|&v| v == 0.0));
                s.log_likelihoods_into(&mut ll);
                for c in 0..2 {
                    let re = m.log_likelihood_prefix(c, &z);
                    assert!(
                        (ll[c] - re).abs() <= 1e-9 * (1.0 + re.abs()),
                        "{kind:?} class {c} prefix {}",
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    fn posterior_prefix_into_matches_vec_path() {
        let d = toy(10, 8);
        let m = GaussianModel::fit(&d, CovarianceKind::Diagonal);
        let mut out = [0.0; 2];
        m.posterior_prefix_into(&[0.0, 0.1, 0.2], &mut out);
        assert_eq!(out.to_vec(), m.posterior_prefix(&[0.0, 0.1, 0.2]));
    }

    #[test]
    fn snapshot_restore_is_behavior_identical_for_every_kind() {
        let d = toy(10, 8);
        let probe = [0.1, 2.0, -0.3, 1.0, 0.0, 3.0, 0.2, 0.4];
        for kind in [
            CovarianceKind::Diagonal,
            CovarianceKind::PooledDiagonal,
            CovarianceKind::Full,
        ] {
            let m = GaussianModel::fit(&d, kind);
            let back = GaussianModel::restore(&m.snapshot()).unwrap();
            for t in 1..=probe.len() {
                for c in 0..2 {
                    assert_eq!(
                        back.log_likelihood_prefix(c, &probe[..t]),
                        m.log_likelihood_prefix(c, &probe[..t]),
                        "{kind:?} class {c} prefix {t} must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn likelihood_session_checkpoint_resumes_bit_identically() {
        let d = toy(10, 8);
        let probe = [0.1, 2.0, -0.3, 1.0, 0.0, 3.0, 0.2, 0.4, 9.0];
        for kind in [CovarianceKind::Diagonal, CovarianceKind::Full] {
            let m = GaussianModel::fit(&d, kind);
            // Uninterrupted reference.
            let mut whole = m.likelihood_session();
            // Interrupted twin: checkpoint mid-prefix, restore, continue.
            let mut head = m.likelihood_session();
            let split = 5;
            for &x in &probe[..split] {
                ScoreSession::push(&mut whole, x);
                ScoreSession::push(&mut head, x);
            }
            let mut enc = Encoder::new();
            ScoreSession::save_state(&head, &mut enc).unwrap();
            let bytes = enc.into_bytes();
            let mut resumed = m.likelihood_session();
            ScoreSession::load_state(&mut resumed, &mut Decoder::new(&bytes)).unwrap();
            for &x in &probe[split..] {
                ScoreSession::push(&mut whole, x);
                ScoreSession::push(&mut resumed, x);
            }
            assert_eq!(
                resumed.log_likelihoods(),
                whole.log_likelihoods(),
                "{kind:?}: restored session must continue bit-identically"
            );
        }
    }

    #[test]
    fn znorm_session_checkpoint_resumes_bit_identically() {
        let d = toy(10, 8);
        let probe = [0.1, 2.0, -0.3, 1.0, 0.0, 3.0, 0.2, 0.4, 9.0, -5.0];
        for kind in [CovarianceKind::Diagonal, CovarianceKind::Full] {
            let m = GaussianModel::fit(&d, kind);
            let mut whole = m.znorm_likelihood_session();
            let mut head = m.znorm_likelihood_session();
            for &x in &probe[..6] {
                ScoreSession::push(&mut whole, x);
                ScoreSession::push(&mut head, x);
            }
            let mut enc = Encoder::new();
            ScoreSession::save_state(&head, &mut enc).unwrap();
            let bytes = enc.into_bytes();
            let mut resumed = m.znorm_likelihood_session();
            ScoreSession::load_state(&mut resumed, &mut Decoder::new(&bytes)).unwrap();
            let mut a = [0.0; 2];
            let mut b = [0.0; 2];
            for &x in &probe[6..] {
                ScoreSession::push(&mut whole, x);
                ScoreSession::push(&mut resumed, x);
                whole.log_likelihoods_into(&mut a);
                resumed.log_likelihoods_into(&mut b);
                assert_eq!(a, b, "{kind:?}: restored znorm session diverged");
            }
        }
    }

    #[test]
    fn session_state_rejects_wrong_model_shape() {
        let d2 = toy(10, 8);
        let d3 = {
            // Three classes: shape mismatch against a two-class state.
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for c in 0..3usize {
                for i in 0..6 {
                    data.push(vec![c as f64 + 0.1 * i as f64; 8]);
                    labels.push(c);
                }
            }
            UcrDataset::new(data, labels).unwrap()
        };
        let m2 = GaussianModel::fit(&d2, CovarianceKind::Diagonal);
        let m3 = GaussianModel::fit(&d3, CovarianceKind::Diagonal);
        let mut s = m2.likelihood_session();
        ScoreSession::push(&mut s, 1.0);
        let mut enc = Encoder::new();
        ScoreSession::save_state(&s, &mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut wrong = m3.likelihood_session();
        assert!(matches!(
            ScoreSession::load_state(&mut wrong, &mut Decoder::new(&bytes)),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn softmax_of_logs_is_stable() {
        let p = softmax_of_logs(&[-1000.0, -1001.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1]);
        let u = softmax_of_logs(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        assert_eq!(u, vec![0.5, 0.5]);
    }

    /// RelClass's thresholds and observed fractions the margin gate is
    /// checked at.
    const TAUS: [f64; 6] = [0.0, 1e-12, 0.1, 0.5, 0.95, 1.0];
    const OBSERVED: [f64; 4] = [1e-3, 0.25, 0.5, 1.0];

    /// RelClass's margin primitive: the two largest probabilities, both
    /// 0.0-floored.
    fn top_two(p: &[f64]) -> (f64, f64) {
        let (mut best, mut second) = (0.0, 0.0);
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

    /// Checks both gates on one logit vector — the probability gate at
    /// every θ and RelClass's margin gate at every τ and observed fraction
    /// — and returns how many of them skipped.
    fn assert_logit_gates_sound(logits: &[f64]) -> usize {
        let gap = crate::top_logit_gap(logits.iter().copied());
        let mut p = logits.to_vec();
        softmax_of_logs_in_place(&mut p);
        let top = p[crate::argmax(&p)];
        let mut skipped = 0;
        for theta in crate::gate_cases::THETAS {
            if gap.is_some_and(|g| g < crate::min_commit_gap(theta)) {
                assert!(
                    top < theta,
                    "logits {logits:?}: gap {gap:?} skipped θ = {theta} but top = {top}"
                );
                skipped += 1;
            }
        }
        let (best, second) = top_two(&p);
        for tau in TAUS {
            for observed in OBSERVED {
                // RelClass's form: the margin is at most tanh(g/2) ≤ g/2.
                if gap.is_some_and(|g| g / 2.0 * observed < tau - crate::COMMIT_GATE_SLACK) {
                    assert!(
                        (best - second) * observed < tau,
                        "logits {logits:?}: gap {gap:?} skipped τ = {tau} at {observed} observed"
                    );
                    skipped += 1;
                }
            }
        }
        skipped
    }

    #[test]
    fn logit_gates_never_skip_a_commit() {
        let mut skipped = 0;
        let mut checked = 0;
        for v in crate::gate_cases::hostile_vectors(7, 4000) {
            skipped += assert_logit_gates_sound(&v);
            checked += 1;
        }
        // Gaps straddling every θ cutoff, the rounding and underflow points
        // and every RelClass cutoff 2(τ − ε)/observed; the top class first,
        // last and in between, other classes far below, at three offsets.
        let mut gaps = crate::gate_cases::boundary_gaps();
        for tau in TAUS {
            for observed in OBSERVED {
                let centre = 2.0 * (tau - crate::COMMIT_GATE_SLACK) / observed;
                let (mut up, mut down) = (centre, centre);
                gaps.push(centre);
                for _ in 0..4 {
                    up = up.next_up();
                    down = down.next_down();
                    gaps.extend([up, down]);
                }
            }
        }
        gaps.retain(|&g| g >= 0.0);
        for g in gaps {
            for k in [2usize, 3, 7] {
                for slot in 0..k {
                    for offset in [0.0, -3.5, 1e3] {
                        let mut logits = vec![offset - g - 40.0; k];
                        logits[slot] = offset;
                        logits[(slot + 1) % k] = offset - g;
                        skipped += assert_logit_gates_sound(&logits);
                        checked += 1;
                    }
                }
            }
        }
        let gates = crate::gate_cases::THETAS.len() + TAUS.len() * OBSERVED.len();
        assert!(
            skipped > 0 && skipped < checked * gates,
            "{skipped}/{checked}"
        );
        // Past the underflow the softmax returns exactly 1.0, and θ = 1
        // still runs the exact path.
        let logits = [0.0, -800.0];
        let mut p = logits;
        softmax_of_logs_in_place(&mut p);
        assert_eq!(p[0], 1.0);
        assert!(crate::top_logit_gap(logits).unwrap() >= crate::min_commit_gap(1.0));
    }

    #[test]
    fn session_logit_gaps_match_the_reported_probabilities() {
        let d = toy(10, 8);
        // NaN last: the likelihoods turn NaN and no bound is offered.
        let probe = [0.1, 2.0, -0.3, 1.0, 0.0, 3.0, 0.2, 0.4, 9.0, f64::NAN];
        let mut p = [0.0; 2];
        for kind in [
            CovarianceKind::Diagonal,
            CovarianceKind::PooledDiagonal,
            CovarianceKind::Full,
        ] {
            let m = GaussianModel::fit(&d, kind);
            let mut raw = m.likelihood_session();
            let mut z = m.znorm_likelihood_session();
            for (i, &x) in probe.iter().enumerate() {
                for s in [&mut raw as &mut dyn ScoreSession, &mut z] {
                    s.push(x);
                    s.predict_proba_into(&mut p);
                    let top = p[crate::argmax(&p)];
                    match s.logit_gap() {
                        // Two classes: the top probability is exactly σ(g).
                        Some(g) => {
                            let sigma = 1.0 / (1.0 + (-g).exp());
                            assert!(
                                (top - sigma).abs() <= 1e-15,
                                "{kind:?} prefix {}: {top} vs σ({g})",
                                i + 1
                            );
                        }
                        None => assert!(x.is_nan(), "{kind:?} prefix {}", i + 1),
                    }
                }
            }
        }
    }
}
