//! Benchmark support for the sbcrawl workspace.
//!
//! [`reference`] preserves the pre-interning string-keyed engine and the
//! uncached site server as an executable baseline for `benches/engine.rs`
//! and the determinism property tests. [`seed_html`] preserves the seed
//! owned-`String` HTML pipeline the same way, for `benches/html.rs` and the
//! zero-copy equivalence property tests (`tests/html_equivalence.rs`).

#![forbid(unsafe_code)]

pub mod reference;
pub mod seed_html;
