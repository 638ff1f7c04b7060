//! The online URL classifier of Algorithm 2: a feature set plus one
//! [`Model`].
//!
//! Life cycle, exactly as the paper describes:
//!
//! 1. **Initial training phase** — until the model's first training, the
//!    crawler labels URLs via HTTP HEAD requests
//!    ([`UrlClassifier::in_initial_phase`] tells the caller to do so) and
//!    feeds them in with [`UrlClassifier::observe`].
//! 2. Once `b` labels are collected, the model trains incrementally and the
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
use crate::models::{Model, ModelKind};

/// The two predictable classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class2 {
    Html,
    Target,
}

/// Algorithm 2's classifier `C` over one feature set.
pub struct UrlClassifier {
    feature_set: FeatureSet,
    model: Model,
}

impl UrlClassifier {
    /// The paper's default: logistic regression, URL-only features, `b = 10`.
    pub fn paper_default() -> Self {
        UrlClassifier::new(ModelKind::LogisticRegression, FeatureSet::UrlOnly, 10)
    }

    pub fn new(kind: ModelKind, feature_set: FeatureSet, batch_size: usize) -> Self {
        UrlClassifier { feature_set, model: Model::new(kind, feature_set.dim(), batch_size) }
    }

    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// True until the model's first training. While true, the caller must
    /// obtain labels via HTTP HEAD (paying the cost `c(u)`) instead of
    /// calling [`UrlClassifier::predict`].
    pub fn in_initial_phase(&self) -> bool {
        self.model.trainings() == 0
    }

    /// Number of completed incremental trainings.
    pub fn trainings(&self) -> u64 {
        self.model.trainings()
    }

    pub fn observed(&self) -> u64 {
        self.model.observed()
    }

    /// Adds an annotated (URL, class) pair to `(X, y)`; trains when the
    /// batch is full. Labels come from HEAD requests during the initial
    /// phase and from GET responses afterwards — either way at the caller's
    /// initiative, so this method is cost-free.
    pub fn observe(&mut self, input: &FeatureInput<'_>, class: Class2) {
        self.model.observe(featurize(self.feature_set, input), class == Class2::Target);
    }

    /// Infers the class of a URL. Valid once the initial phase is over; if
    /// called before, it answers from the untrained model (callers in this
    /// repo always bootstrap first, as Algorithm 2 requires).
    pub fn predict(&self, input: &FeatureInput<'_>) -> Class2 {
        if self.predict_score(input) > 0.0 {
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
        self.model.score(x)
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
