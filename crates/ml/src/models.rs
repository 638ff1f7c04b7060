//! The online binary classifier of Algorithm 2 (Sec 4.6): one learner that
//! buffers labelled feature vectors and trains on every full mini-batch of
//! `b`. Its four kinds — logistic regression (the default), linear SVM,
//! multinomial naive Bayes and passive-aggressive — differ only in the
//! update rule a batch runs and, for naive Bayes, in the per-class counts
//! it scores from. All are lightweight and batch-incremental; "deep
//! approaches whose cost would shift the bottleneck from network latency
//! to local CPU/GPU time" are deliberately out of scope, as in the paper.
//!
//! Convention: the positive class is **Target**, the negative class is
//! **HTML**. [`Model::score`] `> 0` ⇒ Target.

use crate::features::SparseVec;

/// SGD step size of LR and SVM.
const LEARNING_RATE: f32 = 0.5;
/// L2 penalty of LR and SVM.
const L2: f32 = 1e-6;
/// Passes LR and SVM make over each batch.
const EPOCHS: usize = 2;
/// PA-I's aggressiveness cap on the step `τ`.
const PA_C: f32 = 1.0;
/// NB's Laplace smoothing.
const NB_ALPHA: f64 = 0.1;

/// Which update rule a [`Model`] runs (Table 5 variants).
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
}

/// Algorithm 2's classifier `C` with its batch buffer `(X, y)`: labels
/// accumulate until `b` of them are buffered, then one incremental
/// training step runs over the batch and the buffer empties.
pub struct Model {
    kind: ModelKind,
    /// LR, SVM and PA: the weights and bias of one linear decision function
    /// (empty under NB).
    w: Vec<f32>,
    bias: f32,
    /// NB: per-class feature mass, its total and the class's label count
    /// (empty under the other kinds).
    counts: [Vec<f64>; 2],
    totals: [f64; 2],
    docs: [f64; 2],
    batch: Vec<(SparseVec, bool)>,
    batch_size: usize,
    trainings: u64,
}

fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

impl Model {
    /// An untrained `kind` model over feature dimension `dim` that trains
    /// once per `batch_size` labels.
    pub fn new(kind: ModelKind, dim: usize, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size b must be positive");
        let (w, counts) = match kind {
            ModelKind::NaiveBayes => (Vec::new(), [vec![0.0; dim], vec![0.0; dim]]),
            _ => (vec![0.0; dim], [Vec::new(), Vec::new()]),
        };
        Model {
            kind,
            w,
            bias: 0.0,
            counts,
            totals: [0.0; 2],
            docs: [0.0; 2],
            batch: Vec::with_capacity(batch_size),
            batch_size,
            trainings: 0,
        }
    }

    /// Number of completed incremental trainings.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    /// Labels observed so far: the trained batches plus the pending one.
    pub(crate) fn observed(&self) -> u64 {
        self.trainings * self.batch_size as u64 + self.batch.len() as u64
    }

    /// Decision value; positive ⇒ Target. An untrained linear model scores
    /// every vector `0.0`.
    pub fn score(&self, x: &SparseVec) -> f32 {
        match self.kind {
            ModelKind::NaiveBayes => (self.log_likelihood(x, 1) - self.log_likelihood(x, 0)) as f32,
            _ => x.dot_dense(&self.w) + self.bias,
        }
    }

    fn log_likelihood(&self, x: &SparseVec, class: usize) -> f64 {
        let dim = self.counts[class].len() as f64;
        let denom = (self.totals[class] + NB_ALPHA * dim).ln();
        let prior = ((self.docs[class] + 1.0) / (self.docs[0] + self.docs[1] + 2.0)).ln();
        let mut ll = prior;
        for &(i, v) in &x.items {
            let p = (self.counts[class][i as usize] + NB_ALPHA).ln() - denom;
            ll += f64::from(v) * p;
        }
        ll
    }

    /// Adds one labelled vector (`target` = Target) to `(X, y)` and trains
    /// when the batch is full.
    pub fn observe(&mut self, x: SparseVec, target: bool) {
        self.batch.push((x, target));
        if self.batch.len() >= self.batch_size {
            self.train_batch();
            self.batch.clear();
            self.trainings += 1;
        }
    }

    /// One incremental training step on the buffered batch.
    fn train_batch(&mut self) {
        let Model { kind, w, bias, counts, totals, docs, batch, .. } = self;
        match kind {
            // Mini-batch SGD on the log loss [8, 32].
            ModelKind::LogisticRegression => {
                for _ in 0..EPOCHS {
                    for (x, y) in batch.iter() {
                        let p = sigmoid(x.dot_dense(w) + *bias);
                        let g = p - if *y { 1.0 } else { 0.0 };
                        for &(i, v) in &x.items {
                            let wi = &mut w[i as usize];
                            *wi -= LEARNING_RATE * (g * v + L2 * *wi);
                        }
                        *bias -= LEARNING_RATE * g;
                    }
                }
            }
            // Sub-gradient steps on the hinge loss.
            ModelKind::LinearSvm => {
                for _ in 0..EPOCHS {
                    for (x, y) in batch.iter() {
                        let yy = if *y { 1.0f32 } else { -1.0 };
                        let z = x.dot_dense(w) + *bias;
                        if yy * z < 1.0 {
                            for &(i, v) in &x.items {
                                let wi = &mut w[i as usize];
                                *wi += LEARNING_RATE * (yy * v - L2 * *wi);
                            }
                            *bias += LEARNING_RATE * yy;
                        } else {
                            for &(i, _) in &x.items {
                                let wi = &mut w[i as usize];
                                *wi -= LEARNING_RATE * L2 * *wi;
                            }
                        }
                    }
                }
            }
            // Multinomial counts with Laplace smoothing; incremental by
            // construction.
            ModelKind::NaiveBayes => {
                for (x, y) in batch.iter() {
                    let c = usize::from(*y);
                    docs[c] += 1.0;
                    for &(i, v) in &x.items {
                        counts[c][i as usize] += f64::from(v);
                        totals[c] += f64::from(v);
                    }
                }
            }
            // Passive-aggressive, PA-I variant [49].
            ModelKind::PassiveAggressive => {
                for (x, y) in batch.iter() {
                    let yy = if *y { 1.0f32 } else { -1.0 };
                    let z = x.dot_dense(w) + *bias;
                    let loss = (1.0 - yy * z).max(0.0);
                    if loss > 0.0 {
                        let norm = x.norm_sq() + 1.0; // +1 for the bias feature
                        let tau = (loss / norm).min(PA_C);
                        for &(i, v) in &x.items {
                            w[i as usize] += tau * yy * v;
                        }
                        *bias += tau * yy;
                    }
                }
            }
        }
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

    /// Observes every label of `batch`: one training when `model`'s batch
    /// size is `batch.len()`.
    fn train(model: &mut Model, batch: &[(SparseVec, bool)]) {
        for (x, y) in batch {
            model.observe(x.clone(), *y);
        }
    }

    fn predict_target(model: &Model, x: &SparseVec) -> bool {
        model.score(x) > 0.0
    }

    fn accuracy(model: &Model) -> f64 {
        let mut right = 0;
        let mut total = 0;
        for i in 100..140 {
            let t = predict_target(model, &vec_of(&format!("https://a.com/files/extra-{i}.csv")));
            let h = predict_target(model, &vec_of(&format!("https://a.com/pages/extra-{i}.html")));
            right += usize::from(t) + usize::from(!h);
            total += 2;
        }
        right as f64 / total as f64
    }

    #[test]
    fn all_models_learn_separable_urls() {
        for kind in ModelKind::ALL {
            let batch = separable_batch(10);
            let mut model = Model::new(kind, FeatureSet::UrlOnly.dim(), batch.len());
            assert!(model.trainings() == 0);
            for _ in 0..4 {
                train(&mut model, &batch);
            }
            assert!(model.trainings() > 0);
            let acc = accuracy(&model);
            assert!(acc >= 0.9, "{} accuracy {acc}", kind.short_name());
        }
    }

    #[test]
    fn untrained_models_do_not_crash() {
        for kind in ModelKind::ALL {
            let model = Model::new(kind, FeatureSet::UrlOnly.dim(), 10);
            let _ = predict_target(&model, &vec_of("https://a.com/x.csv"));
        }
    }

    #[test]
    fn logreg_score_is_margin_like() {
        let batch = separable_batch(10);
        let mut m =
            Model::new(ModelKind::LogisticRegression, FeatureSet::UrlOnly.dim(), batch.len());
        for _ in 0..4 {
            train(&mut m, &batch);
        }
        let st = m.score(&vec_of("https://a.com/files/x.csv"));
        let sh = m.score(&vec_of("https://a.com/pages/x.html"));
        assert!(st > sh);
    }

    #[test]
    fn nb_incremental_equals_cumulative() {
        // Training NB on two half-batches equals one full batch.
        let full = separable_batch(6);
        let (a, b) = full.split_at(12);
        let mut m1 = Model::new(ModelKind::NaiveBayes, FeatureSet::UrlOnly.dim(), full.len());
        train(&mut m1, &full);
        let mut m2 = Model::new(ModelKind::NaiveBayes, FeatureSet::UrlOnly.dim(), a.len());
        train(&mut m2, a);
        train(&mut m2, b);
        assert_eq!((m1.trainings(), m2.trainings()), (1, 2));
        let x = vec_of("https://a.com/files/probe.csv");
        assert!((m1.score(&x) - m2.score(&x)).abs() < 1e-4);
    }

    #[test]
    fn pa_only_updates_on_margin_violation() {
        let batch = separable_batch(10);
        let mut m =
            Model::new(ModelKind::PassiveAggressive, FeatureSet::UrlOnly.dim(), batch.len());
        for _ in 0..6 {
            train(&mut m, &batch);
        }
        // After convergence, the same batch produces (almost) no change.
        let x = vec_of("https://a.com/files/probe.csv");
        let before = m.score(&x);
        train(&mut m, &batch);
        let after = m.score(&x);
        assert!((before - after).abs() < 0.35, "before {before}, after {after}");
    }
}
