//! Incremental revisiting of an evolving website.
//!
//! The paper's crawler is single-shot: it acquires a site's targets once and
//! explicitly leaves "extending our crawler with *incremental revisits* …
//! combining the knowledge acquired by our RL-agent with existing
//! re-crawling strategies" as future work (Sec 6). This crate builds that
//! extension, together with the substrate it needs:
//!
//! * [`change`] — a deterministic **change model**: how a site publishes new
//!   datasets, updates existing ones, and retires pages between crawls.
//! * [`evolve`] — [`EvolvingSite`]: a sequence of site snapshots derived from
//!   one generated [`sb_webgraph::Website`], plus an epoch-switchable
//!   [`EvolvingServer`] that serves whichever snapshot is current.
//! * [`estimate`] — change-rate estimation from sparse revisit observations
//!   (the Cho–Garcia-Molina estimator used by the revisit literature
//!   referenced in Sec 5: \[5, 16, 35, 36, 46\]).
//! * [`policy`] — revisit scheduling policies: uniform round-robin,
//!   change-rate-proportional, Thompson sampling over tag-path groups (the
//!   winning family of \[46\]), and the paper-native **sleeping-bandit**
//!   scheduler that reuses the AUER machinery of `sb-bandit` over the same
//!   tag-path groups the single-shot crawler learned.
//!
//! The crate is the pure substrate: it fetches nothing itself. Revisits run
//! on a `sb_crawler::CrawlSession` through `queue_refresh`, driven either
//! by `sb_serve::serve_site` (crawl-and-serve) or by the `xp revisit`
//! experiment (`sb_eval::experiments::revisit`, the four-policy
//! comparison).
//!
//! # Quick example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use sb_revisit::{ChangeModel, EvolvingSite, Observation, RevisitPolicy, SleepingBanditRevisit};
//! use sb_webgraph::{build_site, SiteSpec};
//!
//! let base = build_site(&SiteSpec::demo(150), 11);
//! let site = EvolvingSite::evolve(base, &ChangeModel::default(), 11);
//! assert!(site.epochs() > 1);
//!
//! // The scheduling protocol every driver follows.
//! let mut policy = SleepingBanditRevisit::default();
//! policy.register("https://a.example/data/", "html body nav ul li a");
//! policy.begin_epoch();
//! let mut rng = StdRng::seed_from_u64(11);
//! let url = policy.next(&mut rng).expect("one page is due");
//! policy.observe(&url, &Observation { changed: true, new_targets: 2, died: false });
//! assert!(policy.next(&mut rng).is_none(), "each page is due once per epoch");
//! ```

#![forbid(unsafe_code)]

pub mod change;
pub mod estimate;
pub mod evolve;
pub mod policy;

pub use change::{ChangeModel, EpochEvents};
pub use estimate::change_rate;
pub use evolve::{EvolvingServer, EvolvingSite};
pub use policy::{
    Observation, ProportionalRevisit, RevisitPolicy, RoundRobinRevisit, SleepingBanditRevisit,
    ThompsonGroupsRevisit,
};
/// 64-bit FNV-1a, the body hash: deterministic across processes and
/// platforms, which keeps whole revisit runs reproducible.
pub use sb_webgraph::fnv64;
