//! Simulated HTTP transport for the `sbcrawl` focused crawler.
//!
//! Everything the paper's crawlers do over the network is reproduced here
//! offline. The Sec 4.4 "local replica" is the origin itself: a [`server`]
//! over a deterministic generated website. The crawler-side cost model is
//! in [`client`]: request/volume accounting ([`Traffic`]),
//! politeness-based time estimation ([`Politeness`]) and mid-flight
//! interruption of block-listed downloads ([`Fetched`]). The [`transport`]
//! module is the one way to fetch (PR 4): the [`Transport`] trait — a
//! politeness-gated in-flight request pool with deterministic completion
//! ordering, which the crawl engine pipelines on — and the per-host
//! politeness gate. The [`pool`] module (PR 5) is its one implementation:
//! a bounded in-flight window multiplexed across the sites registered with
//! it, politeness sharded per site. A fleet shares one
//! [`SharedTransportPool`]; a single-site [`PipelinedTransport`] is the
//! lone [`PoolHandle`] of a private one. The blocking client the
//! transport's window-1 behaviour is pinned against lives in
//! `sb_bench::client`, beside the frozen `sb_bench::reference` engine it
//! drives: nothing in this crate fetches without the transport. Around the
//! transport: [`robots`] (RFC 9309 parsing and matching, plus
//! [`WithRobots`], the origin overlay that publishes a robots.txt —
//! fetching it is the session's job, through the transport) and [`hazard`]
//! (composable transport-level hazards — timeouts, heavy-tailed latency,
//! bandwidth caps, 429 rate limiting, a 503 outage — plus the
//! retry/backoff policy and per-host circuit breaker every GET is
//! dispatched through: failure is injected there and nowhere else in this
//! crate).

#![forbid(unsafe_code)]

pub mod client;
pub mod hazard;
pub mod pool;
pub mod response;
pub mod robots;
pub mod server;
pub mod transport;

pub use client::{Fetched, Politeness, Traffic};
pub use hazard::{
    HazardPolicy, Outage, RateLimit, RetryPolicy, TailLatency, STATUS_QUARANTINED, STATUS_TIMEOUT,
};
pub use pool::{PoolHandle, SharedTransportPool};
pub use response::{Body, HeadResponse, Headers, Response};
pub use robots::{RobotsTxt, WithRobots};
pub use server::{HttpServer, SiteServer};
pub use transport::{PipelinedTransport, Request, RequestId, Transport};
