//! The frozen oracle of the online classifiers: the `OnlineBinaryModel`
//! trait, the four model structs `ModelKind::build` boxed behind it and
//! the `UrlClassifier` that drove them, as they stood before the models
//! became one `sb_ml::Model`.
//!
//! The bodies below are that code verbatim; only the imports changed, and
//! `ModelKind::build` is the free function [`build`]. `proptest_ml.rs`
//! holds `sb_ml::UrlClassifier` to it: every score equal bit for bit, and
//! the same trainings, initial phase and observation count, after every
//! label. Keep it frozen — it is the only place the four model structs
//! still exist.

#![allow(dead_code)]

use sb_ml::features::{featurize, FeatureInput, FeatureSet, SparseVec};
use sb_ml::{Class2, ModelKind};

/// A binary classifier trainable on mini-batches (Algorithm 2's `C`).
pub trait OnlineBinaryModel: Send {
    /// Decision value; positive ⇒ Target.
    fn predict_score(&self, x: &SparseVec) -> f32;

    /// One incremental training step on a labelled batch
    /// (`true` = Target).
    fn train_batch(&mut self, batch: &[(SparseVec, bool)]);

    /// Has at least one batch been seen?
    fn trained(&self) -> bool;

    fn predict_target(&self, x: &SparseVec) -> bool {
        self.predict_score(x) > 0.0
    }
}

/// Builds a model for feature dimension `dim`.
pub fn build(kind: ModelKind, dim: usize) -> Box<dyn OnlineBinaryModel> {
    match kind {
        ModelKind::LogisticRegression => Box::new(LogReg::new(dim)),
        ModelKind::LinearSvm => Box::new(LinearSvm::new(dim)),
        ModelKind::NaiveBayes => Box::new(NaiveBayes::new(dim)),
        ModelKind::PassiveAggressive => Box::new(PassiveAggressive::new(dim)),
    }
}

// ----------------------------------------------------------------------
// Logistic regression (SGD) — Algorithm 2's default classifier
// ----------------------------------------------------------------------

/// Binary logistic regression trained by mini-batch SGD [8, 32].
pub struct LogReg {
    w: Vec<f32>,
    bias: f32,
    lr: f32,
    l2: f32,
    epochs: usize,
    batches: u64,
}

impl LogReg {
    pub fn new(dim: usize) -> Self {
        LogReg { w: vec![0.0; dim], bias: 0.0, lr: 0.5, l2: 1e-6, epochs: 2, batches: 0 }
    }
}

fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

impl OnlineBinaryModel for LogReg {
    fn predict_score(&self, x: &SparseVec) -> f32 {
        x.dot_dense(&self.w) + self.bias
    }

    fn train_batch(&mut self, batch: &[(SparseVec, bool)]) {
        for _ in 0..self.epochs {
            for (x, y) in batch {
                let p = sigmoid(x.dot_dense(&self.w) + self.bias);
                let g = p - if *y { 1.0 } else { 0.0 };
                for &(i, v) in &x.items {
                    let wi = &mut self.w[i as usize];
                    *wi -= self.lr * (g * v + self.l2 * *wi);
                }
                self.bias -= self.lr * g;
            }
        }
        self.batches += 1;
    }

    fn trained(&self) -> bool {
        self.batches > 0
    }
}

// ----------------------------------------------------------------------
// Linear SVM (hinge loss, SGD)
// ----------------------------------------------------------------------

/// Linear SVM trained with sub-gradient steps on the hinge loss.
pub struct LinearSvm {
    w: Vec<f32>,
    bias: f32,
    lr: f32,
    l2: f32,
    epochs: usize,
    batches: u64,
}

impl LinearSvm {
    pub fn new(dim: usize) -> Self {
        LinearSvm { w: vec![0.0; dim], bias: 0.0, lr: 0.5, l2: 1e-6, epochs: 2, batches: 0 }
    }
}

impl OnlineBinaryModel for LinearSvm {
    fn predict_score(&self, x: &SparseVec) -> f32 {
        x.dot_dense(&self.w) + self.bias
    }

    fn train_batch(&mut self, batch: &[(SparseVec, bool)]) {
        for _ in 0..self.epochs {
            for (x, y) in batch {
                let yy = if *y { 1.0f32 } else { -1.0 };
                let z = x.dot_dense(&self.w) + self.bias;
                if yy * z < 1.0 {
                    for &(i, v) in &x.items {
                        let wi = &mut self.w[i as usize];
                        *wi += self.lr * (yy * v - self.l2 * *wi);
                    }
                    self.bias += self.lr * yy;
                } else {
                    for &(i, _) in &x.items {
                        let wi = &mut self.w[i as usize];
                        *wi -= self.lr * self.l2 * *wi;
                    }
                }
            }
        }
        self.batches += 1;
    }

    fn trained(&self) -> bool {
        self.batches > 0
    }
}

// ----------------------------------------------------------------------
// Multinomial naive Bayes
// ----------------------------------------------------------------------

/// Multinomial NB with Laplace smoothing; incremental by construction.
pub struct NaiveBayes {
    /// Per-class feature mass.
    counts: [Vec<f64>; 2],
    totals: [f64; 2],
    docs: [f64; 2],
    alpha: f64,
    batches: u64,
}

impl NaiveBayes {
    pub fn new(dim: usize) -> Self {
        NaiveBayes {
            counts: [vec![0.0; dim], vec![0.0; dim]],
            totals: [0.0; 2],
            docs: [0.0; 2],
            alpha: 0.1,
            batches: 0,
        }
    }

    fn log_likelihood(&self, x: &SparseVec, class: usize) -> f64 {
        let dim = self.counts[class].len() as f64;
        let denom = (self.totals[class] + self.alpha * dim).ln();
        let prior = ((self.docs[class] + 1.0) / (self.docs[0] + self.docs[1] + 2.0)).ln();
        let mut ll = prior;
        for &(i, v) in &x.items {
            let p = (self.counts[class][i as usize] + self.alpha).ln() - denom;
            ll += f64::from(v) * p;
        }
        ll
    }
}

impl OnlineBinaryModel for NaiveBayes {
    fn predict_score(&self, x: &SparseVec) -> f32 {
        (self.log_likelihood(x, 1) - self.log_likelihood(x, 0)) as f32
    }

    fn train_batch(&mut self, batch: &[(SparseVec, bool)]) {
        for (x, y) in batch {
            let c = usize::from(*y);
            self.docs[c] += 1.0;
            for &(i, v) in &x.items {
                self.counts[c][i as usize] += f64::from(v);
                self.totals[c] += f64::from(v);
            }
        }
        self.batches += 1;
    }

    fn trained(&self) -> bool {
        self.batches > 0
    }
}

// ----------------------------------------------------------------------
// Passive-aggressive (PA-I) [49]
// ----------------------------------------------------------------------

/// Online passive-aggressive classifier, PA-I variant.
pub struct PassiveAggressive {
    w: Vec<f32>,
    bias: f32,
    c: f32,
    batches: u64,
}

impl PassiveAggressive {
    pub fn new(dim: usize) -> Self {
        PassiveAggressive { w: vec![0.0; dim], bias: 0.0, c: 1.0, batches: 0 }
    }
}

impl OnlineBinaryModel for PassiveAggressive {
    fn predict_score(&self, x: &SparseVec) -> f32 {
        x.dot_dense(&self.w) + self.bias
    }

    fn train_batch(&mut self, batch: &[(SparseVec, bool)]) {
        for (x, y) in batch {
            let yy = if *y { 1.0f32 } else { -1.0 };
            let z = x.dot_dense(&self.w) + self.bias;
            let loss = (1.0 - yy * z).max(0.0);
            if loss > 0.0 {
                let norm = x.norm_sq() + 1.0; // +1 for the bias feature
                let tau = (loss / norm).min(self.c);
                for &(i, v) in &x.items {
                    self.w[i as usize] += tau * yy * v;
                }
                self.bias += tau * yy;
            }
        }
        self.batches += 1;
    }

    fn trained(&self) -> bool {
        self.batches > 0
    }
}

/// Algorithm 2's classifier `C` with its batch buffer `(X, y)`.
pub struct UrlClassifier {
    model: Box<dyn OnlineBinaryModel>,
    feature_set: FeatureSet,
    batch: Vec<(SparseVec, bool)>,
    batch_size: usize,
    initial_phase: bool,
    observed: u64,
    trainings: u64,
}

impl UrlClassifier {
    /// The paper's default: logistic regression, URL-only features, `b = 10`.
    pub fn paper_default() -> Self {
        UrlClassifier::new(ModelKind::LogisticRegression, FeatureSet::UrlOnly, 10)
    }

    pub fn new(kind: ModelKind, feature_set: FeatureSet, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size b must be positive");
        UrlClassifier {
            model: build(kind, feature_set.dim()),
            feature_set,
            batch: Vec::with_capacity(batch_size),
            batch_size,
            initial_phase: true,
            observed: 0,
            trainings: 0,
        }
    }

    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// While true, the caller must obtain labels via HTTP HEAD (paying the
    /// cost `c(u)`) instead of calling [`UrlClassifier::predict`].
    pub fn in_initial_phase(&self) -> bool {
        self.initial_phase
    }

    /// Number of completed incremental trainings.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Adds an annotated (URL, class) pair to `(X, y)`; trains when the
    /// batch is full. Labels come from HEAD requests during the initial
    /// phase and from GET responses afterwards — either way at the caller's
    /// initiative, so this method is cost-free.
    pub fn observe(&mut self, input: &FeatureInput<'_>, class: Class2) {
        let x = featurize(self.feature_set, input);
        self.batch.push((x, class == Class2::Target));
        self.observed += 1;
        if self.batch.len() >= self.batch_size {
            self.model.train_batch(&self.batch);
            self.batch.clear();
            self.trainings += 1;
            self.initial_phase = false;
        }
    }

    /// Infers the class of a URL. Valid once the initial phase is over; if
    /// called before, it answers from the untrained model (callers in this
    /// repo always bootstrap first, as Algorithm 2 requires).
    pub fn predict(&self, input: &FeatureInput<'_>) -> Class2 {
        let x = featurize(self.feature_set, input);
        if self.model.predict_target(&x) {
            Class2::Target
        } else {
            Class2::Html
        }
    }

    /// The model's raw decision value for a URL (positive ⇒ Target);
    /// [`UrlClassifier::predict`] is `predict_score > 0`. Ranking
    /// strategies (the value-driven frontier) use this to order
    /// candidates by confidence rather than by hard class.
    pub fn predict_score(&self, input: &FeatureInput<'_>) -> f32 {
        self.score_features(&self.featurize(input))
    }

    /// `input` under this classifier's feature set. A URL's features never
    /// change, so a caller that ranks the same URL again and again
    /// featurises it once and keeps the vector.
    pub fn featurize(&self, input: &FeatureInput<'_>) -> SparseVec {
        featurize(self.feature_set, input)
    }

    /// [`UrlClassifier::predict_score`] over features kept from
    /// [`UrlClassifier::featurize`]: one sparse dot product. The answer
    /// changes only when [`UrlClassifier::trainings`] advances.
    pub fn score_features(&self, x: &SparseVec) -> f32 {
        self.model.predict_score(x)
    }
}
