//! Online machine learning for URL classification (Sec 3.3, Sec 4.6).
//!
//! * [`features`] — character 2-gram features, `URL_ONLY` and `URL_CONT`,
//! * [`models`] — [`Model`], the one batch-incremental binary learner,
//!   whose [`ModelKind`] picks its update rule: LR (default), linear SVM,
//!   multinomial NB or passive-aggressive,
//! * [`classifier`] — the URL classifier of Algorithm 2: a feature set
//!   plus a [`Model`],
//! * [`metrics`] — 3×3 confusion matrices and the MR metric of Table 5.

#![forbid(unsafe_code)]

pub mod classifier;
pub mod features;
pub mod metrics;
pub mod models;

pub use classifier::{Class2, UrlClassifier};
pub use features::{featurize, FeatureInput, FeatureSet, SparseVec};
pub use metrics::{Class3, Confusion};
pub use models::{Model, ModelKind};
