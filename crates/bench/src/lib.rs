//! Benchmark support for the sbcrawl workspace.
//!
//! [`client`] is the blocking crawl client: the serial cost model the
//! transport's window-1 pins (in `sb_httpsim`'s tests) compare against, and
//! what [`reference`] fetches through.
//!
//! [`reference`] preserves the pre-interning string-keyed engine and the
//! uncached site server as an executable baseline for `benches/engine.rs`
//! and the determinism property tests. [`seed_html`] preserves the seed
//! owned-`String` HTML pipeline the same way, for `benches/html.rs` and the
//! zero-copy equivalence property tests (`tests/html_equivalence.rs`).

#![forbid(unsafe_code)]

pub mod client;
pub mod reference;
pub mod seed_html;
