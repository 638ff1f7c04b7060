//! The experiment harness: regenerates **every table and figure** of the
//! paper's evaluation (Sec 4) on the synthetic site profiles.
//!
//! Entry point: the `xp` binary (`cargo run --release -p sb-eval --bin xp --
//! all`). Each experiment module renders a markdown report and writes CSV
//! series under `results/` (a run's own report); measured numbers are
//! recorded per PR in `CHANGES.md`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod metrics;
pub mod runner;
pub mod setup;
pub mod tables;

pub use runner::{par_map, RunOpts};
pub use setup::{build_site_for, reference, CrawlerKind, EvalConfig, SiteRef};
