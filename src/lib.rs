//! # sbcrawl — Efficient Crawling for Scalable Web Data Acquisition
//!
//! A from-scratch Rust reproduction of the EDBT 2026 paper by Gauquier,
//! Manolescu and Senellart: the **SB-CLASSIFIER** focused crawler (sleeping
//! bandits over DOM tag-path clusters with an online URL classifier), every
//! baseline it is compared against, and the full experimental harness —
//! on deterministic synthetic websites calibrated to the paper's Table 1.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`html`] — tolerant HTML parsing and tag-path extraction,
//! * [`webgraph`] — URLs, MIME policy, graph model, synthetic sites,
//!   NP-hardness (Prop 4) machinery,
//! * [`httpsim`] — simulated HTTP transport with cost accounting,
//! * [`ann`] — n-gram vocabularies, hash projection, sparse cosine,
//! * [`ml`] — online classifiers (LR/SVM/NB/PA) and Algorithm 2,
//! * [`bandit`] — AUER sleeping bandits and friends,
//! * [`crawler`] — the crawl engine and all strategies,
//! * [`revisit`] — incremental recrawl of evolving sites (the paper's
//!   Sec 6 future work): change models, revisit policies, freshness,
//! * [`serve`] — continuous crawl-and-serve: versioned snapshot store,
//!   freshness-SLA refresh scheduling, simulated read load,
//! * [`sdetect`] — statistics-table detection in retrieved files,
//! * [`eval`] — the table/figure regeneration harness.
//!
//! ## Quickstart
//!
//! ```
//! use sbcrawl::crawler::{crawl, Budget, CrawlConfig};
//! use sbcrawl::crawler::strategies::SbStrategy;
//! use sbcrawl::httpsim::SiteServer;
//! use sbcrawl::webgraph::{build_site, SiteSpec};
//!
//! let site = build_site(&SiteSpec::demo(200), 42);
//! let root = site.page(site.root()).url.clone();
//! let server = SiteServer::new(site);
//! let mut strategy = SbStrategy::classifier_default();
//! let cfg = CrawlConfig { budget: Budget::Requests(80), ..Default::default() };
//! let outcome = crawl(&server, None, &root, &mut strategy, &cfg);
//! assert!(outcome.targets_found() > 0);
//! ```
//!
//! For resumable step-driven crawls, typed event observation and
//! concurrent multi-site fleets, see [`crawler::session`],
//! [`crawler::events`] and [`crawler::fleet`] (demo:
//! `examples/fleet_crawl.rs`).

#![forbid(unsafe_code)]

pub use sb_ann as ann;
pub use sb_bandit as bandit;
pub use sb_crawler as crawler;
pub use sb_eval as eval;
pub use sb_html as html;
pub use sb_httpsim as httpsim;
pub use sb_ml as ml;
pub use sb_revisit as revisit;
pub use sb_sdetect as sdetect;
pub use sb_serve as serve;
pub use sb_webgraph as webgraph;
