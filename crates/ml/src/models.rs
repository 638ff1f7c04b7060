//! Online binary classifiers (Sec 4.6): logistic regression (the default),
//! linear SVM, multinomial naive Bayes, and passive-aggressive — all
//! lightweight, batch-incremental models; "deep approaches whose cost would
//! shift the bottleneck from network latency to local CPU/GPU time" are
//! deliberately out of scope, as in the paper.
//!
//! Convention: the positive class is **Target**, the negative class is
//! **HTML**. `predict_score > 0` ⇒ Target.

use crate::features::SparseVec;

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

/// Which model to instantiate (Table 5 variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    LogisticRegression,
    LinearSvm,
    NaiveBayes,
    PassiveAggressive,
}

impl ModelKind {
    pub const ALL: [ModelKind; 4] = [
        ModelKind::LogisticRegression,
        ModelKind::LinearSvm,
        ModelKind::NaiveBayes,
        ModelKind::PassiveAggressive,
    ];

    pub fn short_name(self) -> &'static str {
        match self {
            ModelKind::LogisticRegression => "LR",
            ModelKind::LinearSvm => "SVM",
            ModelKind::NaiveBayes => "NB",
            ModelKind::PassiveAggressive => "PA",
        }
    }

    /// Builds a model for feature dimension `dim`.
    pub fn build(self, dim: usize) -> Box<dyn OnlineBinaryModel> {
        match self {
            ModelKind::LogisticRegression => Box::new(LogReg::new(dim)),
            ModelKind::LinearSvm => Box::new(LinearSvm::new(dim)),
            ModelKind::NaiveBayes => Box::new(NaiveBayes::new(dim)),
            ModelKind::PassiveAggressive => Box::new(PassiveAggressive::new(dim)),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{featurize, FeatureInput, FeatureSet};

    fn vec_of(url: &str) -> SparseVec {
        featurize(FeatureSet::UrlOnly, &FeatureInput::url_only(url))
    }

    /// A tiny separable problem: target URLs end in .csv/.xlsx, HTML URLs in
    /// .html or no extension. Every model must learn it from a few batches.
    fn separable_batch(n: usize) -> Vec<(SparseVec, bool)> {
        let mut batch = Vec::new();
        for i in 0..n {
            batch.push((vec_of(&format!("https://a.com/files/data-{i}.csv")), true));
            batch.push((vec_of(&format!("https://a.com/files/report-{i}.xlsx")), true));
            batch.push((vec_of(&format!("https://a.com/pages/article-{i}.html")), false));
            batch.push((vec_of(&format!("https://a.com/sections/topic-{i}/")), false));
        }
        batch
    }

    fn accuracy(model: &dyn OnlineBinaryModel) -> f64 {
        let mut right = 0;
        let mut total = 0;
        for i in 100..140 {
            let t = model.predict_target(&vec_of(&format!("https://a.com/files/extra-{i}.csv")));
            let h = model.predict_target(&vec_of(&format!("https://a.com/pages/extra-{i}.html")));
            right += usize::from(t) + usize::from(!h);
            total += 2;
        }
        right as f64 / total as f64
    }

    #[test]
    fn all_models_learn_separable_urls() {
        for kind in ModelKind::ALL {
            let mut model = kind.build(FeatureSet::UrlOnly.dim());
            assert!(!model.trained());
            for _ in 0..4 {
                model.train_batch(&separable_batch(10));
            }
            assert!(model.trained());
            let acc = accuracy(model.as_ref());
            assert!(acc >= 0.9, "{} accuracy {acc}", kind.short_name());
        }
    }

    #[test]
    fn untrained_models_do_not_crash() {
        for kind in ModelKind::ALL {
            let model = kind.build(FeatureSet::UrlOnly.dim());
            let _ = model.predict_target(&vec_of("https://a.com/x.csv"));
        }
    }

    #[test]
    fn logreg_score_is_margin_like() {
        let mut m = LogReg::new(FeatureSet::UrlOnly.dim());
        for _ in 0..4 {
            m.train_batch(&separable_batch(10));
        }
        let st = m.predict_score(&vec_of("https://a.com/files/x.csv"));
        let sh = m.predict_score(&vec_of("https://a.com/pages/x.html"));
        assert!(st > sh);
    }

    #[test]
    fn nb_incremental_equals_cumulative() {
        // Training NB on two half-batches equals one full batch.
        let full = separable_batch(6);
        let (a, b) = full.split_at(12);
        let mut m1 = NaiveBayes::new(FeatureSet::UrlOnly.dim());
        m1.train_batch(&full);
        let mut m2 = NaiveBayes::new(FeatureSet::UrlOnly.dim());
        m2.train_batch(a);
        m2.train_batch(b);
        let x = vec_of("https://a.com/files/probe.csv");
        assert!((m1.predict_score(&x) - m2.predict_score(&x)).abs() < 1e-4);
    }

    #[test]
    fn pa_only_updates_on_margin_violation() {
        let mut m = PassiveAggressive::new(FeatureSet::UrlOnly.dim());
        let batch = separable_batch(10);
        for _ in 0..6 {
            m.train_batch(&batch);
        }
        // After convergence, the same batch produces (almost) no change.
        let x = vec_of("https://a.com/files/probe.csv");
        let before = m.predict_score(&x);
        m.train_batch(&batch);
        let after = m.predict_score(&x);
        assert!((before - after).abs() < 0.35, "before {before}, after {after}");
    }
}
