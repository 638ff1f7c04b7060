//! Simulated HTTP transport for the `sbcrawl` focused crawler.
//!
//! Everything the paper's crawlers do over the network is reproduced here
//! offline: an origin [`server`] over a generated website, the local
//! [`replay`] database of Sec 4.4 (persistable via [`archive`]), and the
//! crawler-side cost model in [`client`]: request/volume accounting
//! ([`Traffic`]), politeness-based time estimation ([`Politeness`]) and
//! mid-flight interruption of block-listed downloads ([`Fetched`]). The
//! [`transport`] module is the one way to fetch (PR 4): the [`Transport`]
//! trait — a politeness-gated in-flight request pool with deterministic
//! completion ordering, which the crawl engine pipelines on — and the
//! per-host politeness gate. The
//! [`pool`] module (PR 5) is its one implementation: a bounded in-flight
//! window multiplexed across the sites registered with it, politeness
//! sharded per site. A fleet shares one [`SharedTransportPool`]; a
//! single-site [`PipelinedTransport`] is the lone [`PoolHandle`] of a
//! private one. The blocking [`client::Client`] is kept only as the
//! *reference oracle* the transport's window-1 behaviour is pinned against
//! (conformance suite, frozen `sb_bench::reference`); no library code
//! fetches through it. Production-crawler substrates live alongside:
//! [`robots`] (RFC 9309 Robots Exclusion Protocol), [`flaky`]
//! (failure-injection and robot-trap servers for robustness testing) and
//! [`hazard`] (PR 6: composable transport-level hazards — timeouts,
//! heavy-tailed latency, bandwidth caps, 429 rate limiting — plus the
//! retry/backoff policy and per-host circuit breaker every GET is
//! dispatched through).

#![forbid(unsafe_code)]

pub mod archive;
pub mod client;
pub mod flaky;
pub mod hazard;
pub mod pool;
pub mod replay;
pub mod response;
pub mod robots;
pub mod server;
pub mod sitemap;
pub mod transport;

pub use archive::{ArchiveError, ArchiveReader, ArchiveWriter};
pub use client::{Fetched, Politeness, Traffic};
pub use flaky::{FlakyServer, TrapServer};
pub use hazard::{
    HazardPolicy, HazardState, RateLimit, RetryPolicy, TailLatency, STATUS_QUARANTINED,
    STATUS_TIMEOUT,
};
pub use pool::{PoolHandle, SharedTransportPool};
pub use replay::{Mode, ReplayStore};
pub use response::{Body, HeadResponse, Headers, Response};
pub use robots::{EnforcedRobots, RobotsTxt, WithRobots};
pub use server::{HttpServer, SiteServer};
pub use sitemap::{fetch_sitemap_urls, parse_sitemap, Sitemap, SitemapEntry, WithSitemap};
pub use transport::{PipelinedTransport, Request, RequestId, Transport};
