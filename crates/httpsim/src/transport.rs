//! The nonblocking fetch boundary: a politeness-gated in-flight request
//! pool over the simulated wire (PR 4).
//!
//! A blocking client serialises a crawl on simulated latency:
//! every GET charges `delay + transfer` before the next one can even be
//! issued, so a site of `n` pages costs `n · (delay + transfer)` simulated
//! seconds no matter how many URLs the frontier holds. Production crawlers
//! (BUbiNG, and every multi-threaded design since) decouple fetch I/O from
//! page processing behind a bounded window of in-flight requests with a
//! per-host politeness gate. [`Transport`] reproduces that shape over the
//! offline simulation:
//!
//! * [`Transport::submit`] hands a [`Request`] to the pool and returns a
//!   [`RequestId`] immediately — the caller keeps at most
//!   [`Transport::max_in_flight`] requests outstanding;
//! * [`Transport::poll`] delivers finished requests in **deterministic
//!   completion order**: ascending simulated arrival time, ties broken by
//!   `RequestId` (submission order);
//! * the **politeness gate** enforces the minimum inter-request delay *at
//!   the transport*, per host: two dispatches to the same host are always
//!   at least `delay_secs` (or the host's robots `Crawl-delay` override,
//!   whichever is larger) of simulated time apart, no matter how wide the
//!   window is.
//!
//! ## Simulated-time model
//!
//! Each request occupies `delay + wire_bytes / bytes_per_sec` of connection
//! time starting at its gate-assigned dispatch instant, so
//!
//! ```text
//! start   = max(submit clock, host gate)     gate ← start + delay
//! arrival = start + delay + transfer
//! ```
//!
//! With a window of 1 this telescopes to exactly the blocking client's
//! accounting (`elapsed += delay + transfer` per request) — which is what
//! lets `CrawlSession` with `max_in_flight = 1` replay the frozen
//! `sb_bench::reference` traces byte-identically. With a wider window the
//! *transfers* overlap while the gate still spaces the *dispatches*, so the
//! crawl's simulated makespan approaches
//! `n · max(delay, (delay + transfer) / window)` instead of
//! `n · (delay + transfer)`.
//!
//! [`Traffic::elapsed_secs`] reported by the transport is the simulated
//! clock at the last delivered completion (the makespan so far), not the
//! serial sum — at window 1 the two coincide.
//!
//! ## Retries
//!
//! [`PoolHandle::with_retry_policy`] with [`crate::hazard::RetryPolicy::retries`]`(n)`
//! re-dispatches 5xx, 429 and timed-out answers through the gate up to `n`
//! extra attempts before delivering the final answer;
//! every attempt is charged (requests and wire bytes). Off by default so
//! the window-1 replay stays byte-identical; under a transient
//! [`crate::hazard::Outage`], one retry turns its 503 bursts into ordinary
//! (slower) successes.
//!
//! The full hazard-aware dispatch loop — capped exponential backoff with
//! seeded jitter ([`crate::hazard::RetryPolicy`]), timeouts, heavy-tailed
//! latency, bandwidth caps and 429 rate limiting
//! ([`crate::hazard::HazardPolicy`]), and the per-host circuit breaker —
//! lives in [`crate::hazard`] (PR 6).
//!
//! ## One backend
//!
//! This module holds the boundary — the [`Transport`] trait and the
//! per-host politeness gate. Its one implementation is
//! [`crate::pool::PoolHandle`]; [`PipelinedTransport`] is that handle as
//! the sole tenant of a private pool.

use crate::client::{Fetched, Politeness, Traffic};
use crate::pool::PoolHandle;
use crate::response::HeadResponse;
use crate::robots::RobotsTxt;
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::FxHashMap;
use std::borrow::Cow;

/// Identifies one submitted request; ascending in submission order, unique
/// per transport instance.
pub type RequestId = u64;

/// A fetch to hand to [`Transport::submit`]. Borrowed: the transport reads
/// the URL during the call and never stores it.
#[derive(Debug, Clone, Copy)]
pub struct Request<'u> {
    pub url: &'u str,
}

impl<'u> Request<'u> {
    /// A GET of `url`.
    pub fn get(url: &'u str) -> Request<'u> {
        Request { url }
    }
}

/// The nonblocking fetch boundary. See the module docs; the simulated
/// implementation is [`crate::pool::PoolHandle`], fleet-wide through a
/// [`crate::pool::SharedTransportPool`] or single-site as a
/// [`PipelinedTransport`]. Every implementation must
/// uphold the invariants of the conformance suite
/// (`tests/transport_conformance.rs`): politeness gate spacing,
/// deterministic completion order, window-1 equivalence with the blocking
/// `sb_bench::client::Client`, and charged-every-attempt retry accounting.
pub trait Transport {
    /// Enqueues a GET into the in-flight pool and returns its id. Callers
    /// must keep [`Transport::in_flight`] within
    /// [`Transport::max_in_flight`] (checked in debug builds).
    fn submit(&mut self, req: Request<'_>) -> RequestId;

    /// Delivers every request that has finished by the next completion
    /// instant, appending `(id, answer)` pairs to `out` in deterministic
    /// order (arrival time, ties by id). `out` is cleared first. Empty
    /// output means nothing is in flight.
    fn poll_into(&mut self, out: &mut Vec<(RequestId, Fetched)>);

    /// Allocating convenience over [`Transport::poll_into`].
    fn poll(&mut self) -> Vec<(RequestId, Fetched)> {
        let mut out = Vec::new();
        self.poll_into(&mut out);
        out
    }

    /// A synchronous HEAD through the same gate and clock (the classifier
    /// bootstrap probes links mid-decision and needs the answer now).
    fn head(&mut self, url: &str) -> HeadResponse;

    /// A synchronous charged GET through the gate (the engine's
    /// unparseable-selection parity path). No retries.
    fn fetch_now(&mut self, url: &str) -> Fetched;

    /// Requests submitted and not yet delivered.
    fn in_flight(&self) -> usize;

    /// Wire bytes of the requests submitted and not yet delivered. The
    /// simulated origin answers at dispatch, so the exact figure is known
    /// the moment a request enters the pool (a live transport would use
    /// `Content-Length` plus running transfer counts). Budget-aware
    /// callers add this to the delivered volume before refilling, so a
    /// wide window cannot overshoot a volume budget by a whole window of
    /// undelivered transfers.
    fn in_flight_bytes(&self) -> u64;

    /// The in-flight window size the caller should respect.
    fn max_in_flight(&self) -> usize;

    /// `in_flight() < max_in_flight()`.
    fn has_capacity(&self) -> bool {
        self.in_flight() < self.max_in_flight()
    }

    /// Cost counters for everything *delivered* so far (in-flight requests
    /// are not yet charged). `elapsed_secs` is the simulated clock.
    fn traffic(&self) -> Traffic;

    /// Re-attributes `bytes` from the non-target to the target volume
    /// bucket (same contract as `sb_bench::client::Client::tag_target`).
    fn tag_target(&mut self, bytes: u64);

    /// The MIME policy governing mid-flight interruption.
    fn policy(&self) -> &MimePolicy;

    /// Raises the politeness gate for one host (e.g. a robots
    /// `Crawl-delay`). The effective inter-dispatch delay for the host
    /// becomes `max(politeness.delay_secs, delay_secs)`; keys are
    /// case-folded, so any casing of the host shares the override.
    fn set_host_min_delay(&mut self, host: &str, delay_secs: f64);

    /// Applies the `Crawl-delay` of a parsed robots.txt (if declared for
    /// `agent`) as `host`'s gate delay.
    fn apply_crawl_delay(&mut self, robots: &RobotsTxt, agent: &str, host: &str) {
        if let Some(d) = robots.crawl_delay(agent) {
            self.set_host_min_delay(host, d);
        }
    }
}

/// Per-host politeness state.
#[derive(Default)]
struct HostGate {
    /// Earliest simulated instant the next dispatch to this host may start.
    next_start: f64,
    /// Host-specific minimum inter-dispatch delay (robots `Crawl-delay`);
    /// the effective delay is the max of this and the global politeness.
    min_delay: Option<f64>,
}

/// One site's per-host politeness gates: the key folding, the
/// `Crawl-delay` override rule and the `start/gate/arrival` arithmetic.
#[derive(Default)]
pub(crate) struct GateTable {
    gates: FxHashMap<String, HostGate>,
}

impl GateTable {
    pub(crate) fn set_host_min_delay(&mut self, host: &str, delay_secs: f64) {
        host_entry(&mut self.gates, host).min_delay = Some(delay_secs.max(0.0));
    }

    /// Passes one dispatch through the host's politeness gate starting no
    /// earlier than `ready_at`, returning its `(start, arrival)` for a
    /// transfer of `wire` bytes.
    pub(crate) fn dispatch(
        &mut self,
        politeness: &Politeness,
        url: &str,
        ready_at: f64,
        wire: u64,
    ) -> (f64, f64) {
        let gate = host_entry(&mut self.gates, host_of(url));
        let base = politeness.delay_secs;
        let delay = gate.min_delay.map_or(base, |d| d.max(base));
        let start = ready_at.max(gate.next_start);
        gate.next_start = start + delay;
        let arrival = start + delay + wire as f64 / politeness.bytes_per_sec;
        (start, arrival)
    }
}

/// The single-site [`Transport`]: the lone [`PoolHandle`] of a private
/// [`SharedTransportPool`](crate::pool::SharedTransportPool), built by
/// [`PoolHandle::new`] (window 1, no retries — the drop-in equivalent of
/// the blocking `sb_bench::client::Client`) and widened by
/// [`PoolHandle::with_window`].
pub type PipelinedTransport<'a> = PoolHandle<'a>;

/// The host component of an absolute http(s) URL, without allocating.
pub(crate) fn host_of(url: &str) -> &str {
    let rest = url.find("://").map(|i| &url[i + 3..]).unwrap_or(url);
    let end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let authority = &rest[..end];
    // Strip userinfo if present (rare; robots fetching may see it).
    authority.rsplit('@').next().unwrap_or(authority)
}

/// The case-folded key every per-host table (gates, bandwidth caps,
/// rate-limit counters, breaker) files `host` under, so any casing of a
/// host shares one entry. Canonical (interned) URLs carry lowercase hosts
/// and come back borrowed; only a mixed-case host allocates.
pub(crate) fn host_key(host: &str) -> Cow<'_, str> {
    if host.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(host.to_ascii_lowercase())
    } else {
        Cow::Borrowed(host)
    }
}

/// `host`'s entry in a per-host table, defaulted on first sight — the one
/// point where a host key is allocated.
pub(crate) fn host_entry<'m, V: Default>(
    map: &'m mut FxHashMap<String, V>,
    host: &str,
) -> &'m mut V {
    let key = host_key(host);
    if !map.contains_key(key.as_ref()) {
        map.insert(key.as_ref().to_owned(), V::default());
    }
    map.get_mut(key.as_ref()).expect("present or just inserted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SiteServer;
    use sb_webgraph::gen::{build_site, SiteSpec};

    fn server() -> SiteServer {
        SiteServer::new(build_site(&SiteSpec::demo(300), 5))
    }

    fn html_urls(s: &SiteServer, n: usize) -> Vec<String> {
        let site = s.source();
        (0..site.n_pages() as u32)
            .filter(|&id| matches!(site.kind(id), sb_webgraph::PageKind::Html(_)))
            .map(|id| site.url(id).to_owned())
            .take(n)
            .collect()
    }

    #[test]
    fn gate_spaces_dispatches_and_transfers_overlap() {
        let s = server();
        let urls = html_urls(&s, 8);
        let pol = Politeness { delay_secs: 1.0, bytes_per_sec: 1024.0 };

        let mut serial = PipelinedTransport::new(&s, MimePolicy::default(), pol);
        let mut out = Vec::new();
        for u in &urls {
            serial.submit(Request::get(u));
            serial.poll_into(&mut out);
        }
        let serial_makespan = serial.traffic().elapsed_secs;

        let mut wide =
            PipelinedTransport::new(&s, MimePolicy::default(), pol).with_window(urls.len());
        for u in &urls {
            wide.submit(Request::get(u));
        }
        let mut delivered = 0;
        while wide.in_flight() > 0 {
            wide.poll_into(&mut out);
            delivered += out.len();
        }
        assert_eq!(delivered, urls.len());
        let wide_makespan = wide.traffic().elapsed_secs;

        // The gate still spaces dispatches one politeness delay apart, so
        // the makespan cannot drop below n·delay; overlapped transfers make
        // it strictly better than serial.
        assert!(wide_makespan >= urls.len() as f64 * pol.delay_secs - 1e-9);
        assert!(
            wide_makespan < serial_makespan,
            "pipelining must beat serial: {wide_makespan} vs {serial_makespan}"
        );
        // And both ends moved the same volume.
        assert_eq!(wide.traffic().requests(), serial.traffic().requests());
        assert_eq!(wide.traffic().total_bytes(), serial.traffic().total_bytes());
    }

    #[test]
    fn completion_order_is_arrival_then_id() {
        let s = server();
        let urls = html_urls(&s, 6);
        let run = || {
            let mut t = PipelinedTransport::new(
                &s,
                MimePolicy::default(),
                Politeness { delay_secs: 0.5, bytes_per_sec: 2048.0 },
            )
            .with_window(6);
            let ids: Vec<RequestId> = urls.iter().map(|u| t.submit(Request::get(u))).collect();
            let mut order = Vec::new();
            let mut out = Vec::new();
            while t.in_flight() > 0 {
                t.poll_into(&mut out);
                order.extend(out.iter().map(|(id, _)| *id));
            }
            (ids, order)
        };
        let (ids_a, order_a) = run();
        let (ids_b, order_b) = run();
        assert_eq!(ids_a, ids_b);
        assert_eq!(order_a, order_b, "completion order must be deterministic");
        // With identical politeness per dispatch, arrivals are strictly
        // increasing in dispatch order here; ids come back ascending.
        let mut sorted = order_a.clone();
        sorted.sort_unstable();
        assert_eq!(order_a, sorted);
    }

    #[test]
    fn retries_recover_transient_503s_and_charge_every_attempt() {
        use crate::hazard::{HazardPolicy, Outage, RetryPolicy};
        let site = build_site(&SiteSpec::demo(300), 5);
        let urls: Vec<String> = site.pages().iter().map(|p| p.url.clone()).take(40).collect();
        let origin = SiteServer::new(site);
        let outage = Outage { share: 0.4, seed: 7, transient: true, exempt: None };

        let mut t = PipelinedTransport::new(
            &origin,
            MimePolicy::default(),
            Politeness { delay_secs: 0.1, bytes_per_sec: 1e6 },
        )
        .with_window(4)
        .with_retry_policy(RetryPolicy::retries(1))
        .with_hazards(HazardPolicy::default().with_outage(outage));
        let mut out = Vec::new();
        let mut failures = 0;
        let mut delivered = 0u64;
        for chunk in urls.chunks(4) {
            for u in chunk {
                t.submit(Request::get(u));
            }
            while t.in_flight() > 0 {
                t.poll_into(&mut out);
                delivered += out.len() as u64;
                failures += out.iter().filter(|(_, f)| f.status >= 500).count();
            }
        }
        assert_eq!(failures, 0, "one retry recovers every transient 503");
        assert!(t.injected_503s() > 0, "failures were really injected");
        assert_eq!(
            t.traffic().get_requests,
            delivered + t.injected_503s(),
            "every retried attempt must be charged"
        );
    }

    #[test]
    fn robots_crawl_delay_raises_the_gate() {
        let s = server();
        let urls = html_urls(&s, 5);
        let host = super::host_of(&urls[0]).to_owned();
        let pol = Politeness { delay_secs: 1.0, bytes_per_sec: 1e9 };

        let makespan = |crawl_delay: Option<f64>| {
            let mut t = PipelinedTransport::new(&s, MimePolicy::default(), pol).with_window(5);
            if let Some(d) = crawl_delay {
                let robots = RobotsTxt::parse(&format!("User-agent: *\nCrawl-delay: {d}"));
                t.apply_crawl_delay(&robots, "sbcrawl", &host);
            }
            for u in &urls {
                t.submit(Request::get(u));
            }
            let mut out = Vec::new();
            while t.in_flight() > 0 {
                t.poll_into(&mut out);
            }
            t.traffic().elapsed_secs
        };

        let plain = makespan(None);
        let delayed = makespan(Some(4.0));
        assert!(
            delayed > plain * 3.0,
            "a 4 s Crawl-delay must dominate the 1 s default: {plain} vs {delayed}"
        );
    }

    #[test]
    fn crawl_delay_applies_to_mixed_case_hosts() {
        // A min-delay registered under any casing must govern dispatches
        // to every casing of the host — gates are case-folded.
        struct Tiny;
        impl crate::server::HttpServer for Tiny {
            fn head(&self, _url: &str) -> crate::response::HeadResponse {
                self.get("").head()
            }
            fn get(&self, _url: &str) -> crate::response::Response {
                crate::response::error_response(404)
            }
        }
        let s = Tiny;
        let pol = Politeness { delay_secs: 1.0, bytes_per_sec: 1e9 };
        let mut t = PipelinedTransport::new(&s, MimePolicy::default(), pol);
        t.set_host_min_delay("Example.com", 5.0);
        t.fetch_now("http://EXAMPLE.com/a");
        t.fetch_now("http://example.com/b");
        // Two dispatches, both gated at 5 s: the second starts at t=5.
        assert!(
            t.traffic().elapsed_secs >= 10.0 - 1e-9,
            "override dropped: elapsed {}",
            t.traffic().elapsed_secs
        );
    }

    #[test]
    fn host_extraction() {
        assert_eq!(host_of("https://www.a.b.com/x/y?q=1"), "www.a.b.com");
        assert_eq!(host_of("http://a.com"), "a.com");
        assert_eq!(host_of("https://user@a.com/x"), "a.com");
        assert_eq!(host_of("not a url"), "not a url");
    }
}
