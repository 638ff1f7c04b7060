//! Frozen reference oracles for the sbcrawl workspace's differential tests.
//! Nothing here is timed: perf claims go through `benchmark/`.
//!
//! [`client`] is the blocking crawl client: the serial cost model the
//! transport's window-1 pins (in `sb_httpsim`'s tests) compare against, and
//! what [`reference`] fetches through.
//!
//! [`reference`] preserves the pre-interning string-keyed engine and the
//! uncached site server as the oracle of the determinism property tests
//! (`tests/determinism.rs`) and the fleet and batch replays in
//! `sb_crawler`'s tests. [`seed_html`] preserves the seed owned-`String`
//! HTML pipeline the same way, for the zero-copy equivalence property tests
//! (`tests/html_equivalence.rs`). [`dense`] is the dense hash projection
//! and cosine of Sec 3.2, the reference `sb_ann`'s sparse sketch kernels
//! are pinned against.

#![forbid(unsafe_code)]

pub mod client;
pub mod dense;
pub mod reference;
pub mod seed_html;
