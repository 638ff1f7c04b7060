//! `sb-crawler` — the paper's contribution: the SB-CLASSIFIER focused
//! crawler (sleeping-bandit RL over tag-path actions with an online URL
//! classifier) plus every baseline, over one shared crawl engine.
//!
//! * [`ActionSpace`] — tag-path clustering into actions (Algorithm 1),
//! * [`strategy`] — the crawler interface (frontier policy + link routing),
//! * [`strategies`] — SB-CLASSIFIER, SB-ORACLE, BFS, DFS, RANDOM,
//!   OMNISCIENT, FOCUSED, TP-OFF, TRES-lite, and the value-driven
//!   batch frontier ([`ValueStrategy`]: whole-frontier top-k ranking
//!   per window-fill over one fixed weighted sum of four terms),
//! * [`session`] — Algorithms 3 & 4 as a resumable [`CrawlSession`]:
//!   every config validated where its session is built,
//!   `step()`/`run()`, typed [`CrawlEvent`]s,
//!   pipelined over the nonblocking `sb_httpsim::Transport`
//!   ([`CrawlConfig`]`::max_in_flight` requests in flight at once, with
//!   the politeness gate enforced at the transport),
//! * [`events`] — the [`CrawlObserver`] interface ([`CrawlTrace`] is just
//!   one observer),
//! * [`fleet`] — the multi-site [`Fleet`] scheduler: one driver loop
//!   taking waves of sites through in-flight pools, with the
//!   [`FleetMode`] choosing how many threads, how many sites per wave and
//!   whether sites share a pool's window,
//! * [`EarlyStopConfig`] — the Sec 4.8 stopping rule,
//! * [`CrawlTrace`] — per-request series and the Table 2/3 metrics.
//!
//! One-shot crawl ([`crawl`]):
//!
//! ```no_run
//! use sb_crawler::{crawl, CrawlConfig};
//! use sb_crawler::strategies::SbStrategy;
//! use sb_httpsim::SiteServer;
//! use sb_webgraph::{build_site, SiteSpec};
//!
//! let site = build_site(&SiteSpec::demo(500), 42);
//! let root = site.page(site.root()).url.clone();
//! let server = SiteServer::new(site);
//! let mut strategy = SbStrategy::classifier_default();
//! let outcome = crawl(&server, None, &root, &mut strategy, &CrawlConfig::default());
//! println!("retrieved {} targets", outcome.targets_found());
//! ```
//!
//! Step-driven crawl with validation and observation (the session API).
//! A config is a struct literal; [`CrawlSession::new`] (like every other
//! way of starting a session) rejects an invalid one with a
//! [`ConfigError`] before any request is spent:
//!
//! ```no_run
//! use sb_crawler::{Budget, CrawlConfig, CrawlSession, EventLog};
//! use sb_crawler::strategies::QueueStrategy;
//! use sb_httpsim::SiteServer;
//! use sb_webgraph::{build_site, SiteSpec};
//!
//! let site = build_site(&SiteSpec::demo(500), 42);
//! let root = site.page(site.root()).url.clone();
//! let server = SiteServer::new(site);
//! let cfg = CrawlConfig { budget: Budget::Requests(100), ..Default::default() };
//! let mut bfs = QueueStrategy::bfs();
//! let mut log = EventLog::new();
//! let mut session = CrawlSession::new(&server, None, &root, &mut bfs, &cfg)?.observe(&mut log);
//! while !session.is_finished() {
//!     let report = session.step();
//!     println!("step {}: {} targets so far", report.steps, session.targets_found());
//! }
//! let outcome = session.finish();
//! # Ok::<(), sb_crawler::ConfigError>(())
//! ```

#![forbid(unsafe_code)]

mod action;
mod early_stop;
pub mod events;
pub mod fleet;
pub mod session;
pub mod strategies;
pub mod strategy;
mod trace;

pub use action::{ActionId, ActionSpace, ActionSpaceConfig, ActionSpaceFull};
pub use early_stop::EarlyStopConfig;
pub use events::{
    AbandonCounts, AbandonReason, CrawlEvent, CrawlObserver, CrawlSnapshot, EventLog, FinishReason,
    MemGauges, OwnedEvent, RefreshStats, TraceObserver,
};
pub use fleet::{
    Fleet, FleetJob, FleetMode, FleetOutcome, ShardReport, SharedServer, SiteReport,
};
pub use session::{
    crawl, Budget, ConfigError, CrawlConfig, CrawlOutcome, CrawlSession, RefreshedPage,
    RetrievedTarget, StepReport,
};
pub use strategies::ValueStrategy;
pub use strategy::{
    ArmReport, LinkDecision, NewLink, SelUrl, Selection, Services, Strategy, StrategyReport,
};
pub use trace::{CrawlTrace, TracePoint};
