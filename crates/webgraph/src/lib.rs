//! Website graphs, URLs, MIME policy, synthetic site generation and the
//! NP-hardness module for the `sbcrawl` focused crawler.
//!
//! This crate is the crawler's *world model*:
//!
//! * [`url`] — URL parsing and the Sec 2.2 site-boundary rule,
//! * [`interner`] — FxHash and the `Url ↔ u32` interning table behind the
//!   allocation-free crawl hot path,
//! * [`mime`] — target MIME types (Appendix A.2) and multimedia blocklists,
//! * [`WebsiteGraph`] — the formal website-graph model (Def 1; the crawl
//!   tree of Defs 2–3 lives in the tests that check the exact solver),
//! * [`complexity`] — the set-cover reduction and exact solvers behind
//!   Proposition 4,
//! * [`gen`] — deterministic synthetic websites reproducing the Table 1
//!   profiles (the offline stand-in for the paper's 18 live sites),
//! * [`content`] — target file bodies with planted statistic tables
//!   (ground truth for the Table 7 experiment).

#![forbid(unsafe_code)]

pub mod complexity;
pub mod content;
mod csr;
pub mod gen;
mod graph;
pub mod interner;
pub mod mime;
pub mod url;

pub use csr::Csr;
pub use gen::{
    build_site, build_with_store, paper_profiles, profile, Census, PageId, PageKind, PageStore,
    SiteSource, SiteSpec, Website,
};
pub use graph::{NodeIdx, WebsiteGraph};
pub use interner::{fnv1a, fnv64, FxBuildHasher, FxHashMap, UrlId, FNV1A_BASIS};
pub use mime::{MimePolicy, UrlClass};
pub use url::Url;
