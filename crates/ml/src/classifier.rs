//! The online URL classifier of Algorithm 2.
//!
//! Life cycle, exactly as the paper describes:
//!
//! 1. **Initial training phase** — the crawler labels the first `b` URLs via
//!    HTTP HEAD requests ([`UrlClassifier::in_initial_phase`] tells the
//!    caller to do so) and feeds them in with [`UrlClassifier::observe`].
//! 2. Once a full batch is collected, the model trains incrementally and the
//!    initial phase ends: classes are now inferred for free.
//! 3. **Online training** — every later HTTP GET yields an annotated
//!    (URL, class) pair, observed the same way; each full batch triggers
//!    another incremental training step, letting the classifier adapt "to
//!    potential changes in the form of the URLs".
//!
//! The classifier is deliberately **two-class** (HTML vs Target) despite
//! three true classes: predicting "Neither" would silently amputate the
//! crawl (Sec 3.3), while misclassifying a dead URL only wastes one request.

use crate::features::{featurize, FeatureInput, FeatureSet, SparseVec};
use crate::models::{ModelKind, OnlineBinaryModel};

/// The two predictable classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class2 {
    Html,
    Target,
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
            model: kind.build(feature_set.dim()),
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
    /// strategies (PR 10's value-driven frontier) use this to order
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

#[cfg(test)]
mod tests {
    use super::*;

    fn target_input(i: usize) -> String {
        format!("https://a.com/files/data-{i}.csv")
    }

    fn html_input(i: usize) -> String {
        format!("https://a.com/pages/article-{i}.html")
    }

    #[test]
    fn initial_phase_ends_after_first_batch() {
        let mut c = UrlClassifier::new(ModelKind::LogisticRegression, FeatureSet::UrlOnly, 10);
        assert!(c.in_initial_phase());
        for i in 0..9 {
            let url = if i % 2 == 0 { target_input(i) } else { html_input(i) };
            let class = if i % 2 == 0 { Class2::Target } else { Class2::Html };
            c.observe(&FeatureInput::url_only(&url), class);
            assert!(c.in_initial_phase(), "phase must persist until b observations");
        }
        let url = target_input(9);
        c.observe(&FeatureInput::url_only(&url), Class2::Target);
        assert!(!c.in_initial_phase());
        assert_eq!(c.trainings(), 1);
    }

    #[test]
    fn learns_url_shapes_online() {
        let mut c = UrlClassifier::paper_default();
        for i in 0..60 {
            let (url, class) = if i % 2 == 0 {
                (target_input(i), Class2::Target)
            } else {
                (html_input(i), Class2::Html)
            };
            c.observe(&FeatureInput::url_only(&url), class);
        }
        assert!(!c.in_initial_phase());
        let mut right = 0;
        for i in 100..120 {
            if c.predict(&FeatureInput::url_only(&target_input(i))) == Class2::Target {
                right += 1;
            }
            if c.predict(&FeatureInput::url_only(&html_input(i))) == Class2::Html {
                right += 1;
            }
        }
        assert!(right >= 36, "right = {right}/40");
    }

    /// The paper's motivating case: the crawl reaches a new part of the
    /// website where URLs are formatted differently; online training adapts.
    #[test]
    fn adapts_to_new_url_dialect() {
        let mut c = UrlClassifier::paper_default();
        for i in 0..40 {
            let (url, class) = if i % 2 == 0 {
                (target_input(i), Class2::Target)
            } else {
                (html_input(i), Class2::Html)
            };
            c.observe(&FeatureInput::url_only(&url), class);
        }
        // New dialect: extensionless download URLs.
        let new_target = |i: usize| format!("https://a.com/dlsvc/get?id={i}");
        let new_html = |i: usize| format!("https://a.com/portal/view?node={i}");
        for i in 0..60 {
            let (url, class) = if i % 2 == 0 {
                (new_target(i), Class2::Target)
            } else {
                (new_html(i), Class2::Html)
            };
            c.observe(&FeatureInput::url_only(&url), class);
        }
        let mut right = 0;
        for i in 200..220 {
            if c.predict(&FeatureInput::url_only(&new_target(i))) == Class2::Target {
                right += 1;
            }
            if c.predict(&FeatureInput::url_only(&new_html(i))) == Class2::Html {
                right += 1;
            }
        }
        assert!(right >= 32, "right = {right}/40 after dialect shift");
    }

    #[test]
    fn partial_batches_do_not_train() {
        let mut c = UrlClassifier::new(ModelKind::NaiveBayes, FeatureSet::UrlOnly, 100);
        for i in 0..50 {
            c.observe(&FeatureInput::url_only(&target_input(i)), Class2::Target);
        }
        assert_eq!(c.trainings(), 0);
        assert!(c.in_initial_phase());
    }

    #[test]
    fn all_variants_construct() {
        for kind in ModelKind::ALL {
            for fs in [FeatureSet::UrlOnly, FeatureSet::UrlContent] {
                let c = UrlClassifier::new(kind, fs, 10);
                assert!(c.in_initial_phase());
            }
        }
    }
}
