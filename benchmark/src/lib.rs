//! The repo benchmark: seven crawl workloads, nine end-to-end metrics and an
//! outside-in ledger of per-layer metrics. See `benchmark/README.md`.
//!
//! * [`registry`] — every workload and metric name, unit, direction, bound;
//! * [`workloads`] — the workloads and their output checks;
//! * [`runner`] — set-up, timed iterations, traced iteration, the process-
//!   per-workload driver;
//! * [`spans`], [`wrap`], [`replay`], [`layers`] — the traced run: span
//!   recorder, transparent wrappers, replays, and the per-layer arithmetic;
//! * [`compare`] — two result files, one verdict per workload × metric;
//! * [`json`], [`stats`] — the file format and the order statistics.

pub mod compare;
pub mod json;
pub mod layers;
pub mod registry;
pub mod replay;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod wrap;
