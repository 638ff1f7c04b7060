//! The in-flight pool behind every [`Transport`]: one bounded window
//! multiplexed across every site registered with it (PR 5). A single-site
//! crawl is the one-tenant case —
//! [`PipelinedTransport`](crate::transport::PipelinedTransport) is a
//! [`PoolHandle`] on a private pool ([`PoolHandle::new`]).
//!
//! A fleet of isolated per-site windows cannot lend a site's idle
//! connection slots — stalled behind its politeness gate — to anyone
//! else. Production frontiers (BUbiNG's massive-scale design, and every
//! host-sharded multi-queue crawler since) share one global fetch pool
//! and shard only the *politeness* state per host. [`SharedTransportPool`]
//! reproduces that shape over the simulation:
//!
//! * the pool owns the **global window** ([`SharedTransportPool::new`]'s
//!   `max_in_flight`) and the **shared simulated clock**; politeness
//!   state is **sharded per handle** — each site's `GateTable` (its
//!   hosts' gates plus any robots `Crawl-delay` override) is private to
//!   its handle. Two sites therefore dispatch concurrently while each
//!   site's own dispatches stay politeness-spaced. (Sharding by handle
//!   rather than by raw hostname string is deliberate: generated sites
//!   reuse synthetic hostnames, and each fleet job is a distinct origin
//!   regardless of what its URL strings say — string-matching hosts
//!   across handles would falsely couple unrelated sites.);
//! * each site gets a [`PoolHandle`] ([`SharedTransportPool::handle`]) —
//!   a full [`Transport`] a [`CrawlSession`] can own without owning the
//!   pool. The handle carries the site's server, MIME policy, politeness
//!   model, gate shard and cost counters; submissions and deliveries go
//!   through the shared core;
//! * completion order is **deterministic across the whole fleet**:
//!   ascending simulated arrival, cross-site ties by site index, ties
//!   within a site by [`RequestId`] (ids are pool-global and ascend in
//!   submission order). [`SharedTransportPool::next_completion_site`]
//!   exposes the order so a driver can drain sites exactly in it.
//!
//! ## Clock model
//!
//! There is **one clock**: the pool simulates a single crawler machine
//! whose `max_in_flight` connections serve every site at once. A
//! dispatch's `start = max(shared clock, host gate)`, so a handle's
//! [`Traffic::elapsed_secs`] reads on the shared clock — the instant its
//! last completion was delivered, fleet-wide waiting included. The
//! fleet-level makespan is therefore `max` over handles (equivalently
//! [`SharedTransportPool::clock_secs`] at the end), **not** the per-site
//! sum: with a global window of 1 the pool serialises the whole fleet
//! (the makespan telescopes to the serial sum of every site), while a
//! window ≥ the host count lets every politeness gate tick concurrently
//! and the makespan approaches the slowest single host.
//!
//! A handle's single-site behaviour does not depend on being the pool's
//! only tenant; the conformance suite (`tests/transport_conformance.rs`)
//! pins both constructors and both tenancy shapes.
//!
//! ## Threading model (PR 8)
//!
//! The core lives behind `Arc<parking_lot::Mutex<..>>`, so the pool and
//! every [`PoolHandle`] are **`Send`** ([`HttpServer`] is already
//! `Send + Sync`): a sharded fleet can build one pool per driver thread —
//! or move handles across threads outright — and still inherit the exact
//! single-pool semantics pinned by the conformance suite. One *window* is
//! still one serially-ordered resource: determinism within a pool requires
//! a single ration point, so a driver thread owns its pool's schedule
//! (`sb_crawler::fleet` runs one driver loop in every `FleetMode`: each
//! of its threads drives only pools it built itself), refilling
//! least-elapsed-host first and draining in pool completion order.
//!
//! [`CrawlSession`]: ../../sb_crawler/session/struct.CrawlSession.html

use crate::client::{settle_get, Fetched, Politeness, Traffic};
use crate::hazard::{dispatch_hazard_get, DispatchOutcome, HazardPolicy, HazardState, RetryPolicy};
use crate::response::HeadResponse;
use crate::server::HttpServer;
use crate::transport::{GateTable, Request, RequestId, Transport};
use parking_lot::Mutex;
use sb_webgraph::mime::MimePolicy;
use std::sync::Arc;

/// One in-flight request. The answer is computed eagerly at dispatch (the
/// simulated origin is synchronous); only the delivery is deferred to its
/// simulated arrival.
struct PoolEntry {
    id: RequestId,
    site: usize,
    /// The final answer, its arrival instant and what it cost.
    done: DispatchOutcome,
}

/// The shared state behind every handle of one pool.
struct PoolCore {
    window: usize,
    /// The shared simulated clock: the arrival of the last delivered
    /// completion (or last synchronous request) across the whole fleet.
    clock: f64,
    next_id: RequestId,
    inflight: Vec<PoolEntry>,
    /// Per-site: shared-clock instant of the site's last delivery (0 until
    /// the first). The fleet's least-elapsed-host refill order keys on it.
    site_elapsed: Vec<f64>,
}

impl PoolEntry {
    /// The fleet-wide completion order: arrival, cross-site ties by site
    /// index, ties within a site by submission id. The single comparator
    /// behind both the poll sort and
    /// [`SharedTransportPool::next_completion_site`] — the two must agree
    /// or the driver would drain a different site than delivery order
    /// promises.
    fn completion_order(&self, other: &PoolEntry) -> std::cmp::Ordering {
        self.done
            .arrival
            .total_cmp(&other.done.arrival)
            .then(self.site.cmp(&other.site))
            .then(self.id.cmp(&other.id))
    }
}

/// The fleet-wide transport pool. See the module docs; build one with
/// [`SharedTransportPool::new`] and hand every site a
/// [`SharedTransportPool::handle`].
pub struct SharedTransportPool {
    core: Arc<Mutex<PoolCore>>,
}

impl SharedTransportPool {
    /// A pool with a global in-flight window of `max_in_flight` (clamped
    /// to ≥ 1) shared by every handle.
    pub fn new(max_in_flight: usize) -> Self {
        SharedTransportPool {
            core: Arc::new(Mutex::new(PoolCore {
                window: max_in_flight.max(1),
                clock: 0.0,
                next_id: 0,
                inflight: Vec::new(),
                site_elapsed: Vec::new(),
            })),
        }
    }

    /// Registers one site and returns its [`Transport`] handle. The site
    /// index (also the cross-site tie-break rank) is assigned in
    /// registration order. The handle keeps the pool's core alive; the
    /// `SharedTransportPool` itself may be dropped once every handle is
    /// built.
    pub fn handle<'a>(
        &self,
        server: &'a (dyn HttpServer + 'a),
        policy: MimePolicy,
        politeness: Politeness,
    ) -> PoolHandle<'a> {
        let mut core = self.core.lock();
        let site = core.site_elapsed.len();
        core.site_elapsed.push(0.0);
        PoolHandle {
            core: Arc::clone(&self.core),
            site,
            state: SiteState {
                server,
                policy,
                politeness,
                retry: RetryPolicy::retries(0),
                hazards: HazardPolicy::default(),
                hazard_state: HazardState::default(),
                gates: GateTable::default(),
            },
            traffic: Traffic::default(),
            pending: 0,
            pending_bytes: 0,
        }
    }

    /// The global window size.
    pub fn max_in_flight(&self) -> usize {
        self.core.lock().window
    }

    /// Requests in flight across every handle.
    pub fn in_flight(&self) -> usize {
        self.core.lock().inflight.len()
    }

    /// `in_flight() < max_in_flight()` — the global capacity check a
    /// fleet driver rations across sites.
    pub fn has_capacity(&self) -> bool {
        let core = self.core.lock();
        core.inflight.len() < core.window
    }

    /// The shared simulated clock.
    pub fn clock_secs(&self) -> f64 {
        self.core.lock().clock
    }

    /// The site owning the globally next completion (arrival, then site
    /// index, then id), or `None` when nothing is in flight. Drivers poll
    /// *that* site's handle next, so deliveries advance the shared clock
    /// in true arrival order.
    pub fn next_completion_site(&self) -> Option<usize> {
        self.core.lock().inflight.iter().min_by(|a, b| a.completion_order(b)).map(|e| e.site)
    }

    /// Shared-clock instant of `site`'s last delivery (0 before the
    /// first) — the least-elapsed-host refill key.
    pub fn site_elapsed(&self, site: usize) -> f64 {
        self.core.lock().site_elapsed.get(site).copied().unwrap_or(0.0)
    }
}

/// What one site's dispatches run on that no other tenant of the pool
/// shares: the origin, the MIME and politeness models, the retry and hazard
/// policies, and the per-host tables — politeness gates plus robots
/// `Crawl-delay` overrides, rate-limit counters and the circuit breaker
/// (quarantine is an origin property). [`dispatch_hazard_get`] runs on it.
pub(crate) struct SiteState<'a> {
    pub(crate) server: &'a (dyn HttpServer + 'a),
    pub(crate) policy: MimePolicy,
    pub(crate) politeness: Politeness,
    pub(crate) retry: RetryPolicy,
    pub(crate) hazards: HazardPolicy,
    pub(crate) hazard_state: HazardState,
    pub(crate) gates: GateTable,
}

/// One site's view of a [`SharedTransportPool`]: a [`Transport`] whose
/// window and clock live in the shared core, while the origin server, MIME
/// policy, politeness model and gates, retry policy and cost counters are
/// per-site. [`Transport::in_flight`] and [`Transport::traffic`] report
/// this site only; [`Transport::has_capacity`] reports the **global**
/// window (a handle may be unable to submit because other sites hold every
/// slot).
pub struct PoolHandle<'a> {
    core: Arc<Mutex<PoolCore>>,
    site: usize,
    state: SiteState<'a>,
    traffic: Traffic,
    /// This site's undelivered requests and their wire bytes, counted here
    /// (up at `submit`, down at `poll_into`) so the per-step reads of
    /// [`Transport::in_flight`]/[`Transport::in_flight_bytes`] neither
    /// lock the core nor scan its window.
    pending: usize,
    pending_bytes: u64,
}

impl<'a> PoolHandle<'a> {
    /// A single-site transport over `server` with a window of 1 and no
    /// retries — the drop-in equivalent of the blocking `sb_bench::client::Client`:
    /// the only handle of a private pool.
    pub fn new(
        server: &'a (dyn HttpServer + 'a),
        policy: MimePolicy,
        politeness: Politeness,
    ) -> Self {
        SharedTransportPool::new(1).handle(server, policy, politeness)
    }

    /// Sets the in-flight window (clamped to ≥ 1). The window belongs to
    /// the pool, so this resizes it for every tenant: meant for a handle
    /// built by [`PoolHandle::new`], and checked in debug builds to be its
    /// pool's only one. A shared pool's window is set once, by
    /// [`SharedTransportPool::new`].
    pub fn with_window(self, window: usize) -> Self {
        let mut core = self.core.lock();
        debug_assert!(
            core.site_elapsed.len() == 1,
            "with_window resizes the whole pool, which has {} tenants",
            core.site_elapsed.len()
        );
        core.window = window.max(1);
        drop(core);
        self
    }

    /// Installs a [`RetryPolicy`]: 5xx answers re-dispatch through the
    /// gate up to `max_retries` extra attempts (with backoff, jitter and
    /// circuit breaker as configured). Every attempt is charged at
    /// delivery, so a `Budget::Requests` session over a retrying transport
    /// may finish up to one attempt per retried in-flight request past its
    /// budget (the check sees one request per submission; the sequential
    /// engine has the same one-request check-to-charge gap).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.state.retry = retry;
        self
    }

    /// Installs a [`HazardPolicy`] (timeouts, tail latency, bandwidth
    /// caps, 429 rate limiting, a 503 outage) on this handle's GET path.
    pub fn with_hazards(mut self, hazards: HazardPolicy) -> Self {
        self.state.hazards = hazards;
        self
    }

    /// Hosts of this handle quarantined by the circuit breaker so far.
    pub fn quarantined_hosts(&self) -> usize {
        self.state.hazard_state.quarantined_hosts()
    }

    /// GET attempts of this handle answered 503 by the policy's
    /// [`Outage`](crate::hazard::Outage) so far, delivered or in flight.
    pub fn injected_503s(&self) -> u64 {
        self.state.hazard_state.injected_503s
    }

    /// The pool's simulated clock (arrival of the last delivered
    /// completion of any tenant).
    pub fn clock_secs(&self) -> f64 {
        self.core.lock().clock
    }

    /// Charges one synchronous request of `wire` bytes, dispatched through
    /// this site's gate no earlier than the shared clock, and advances the
    /// clock to its arrival.
    fn charge_sync(&mut self, url: &str, wire: u64) {
        let mut core = self.core.lock();
        let (_, arrival) = self.state.gates.dispatch(&self.state.politeness, url, core.clock, wire);
        core.clock = core.clock.max(arrival);
        core.site_elapsed[self.site] = core.clock;
        self.traffic.non_target_bytes += wire;
        self.traffic.elapsed_secs = core.clock;
    }
}

impl Transport for PoolHandle<'_> {
    fn submit(&mut self, req: Request<'_>) -> RequestId {
        let mut core = self.core.lock();
        debug_assert!(
            core.inflight.len() < core.window,
            "submit beyond the in-flight window (window {})",
            core.window
        );
        let id = core.next_id;
        core.next_id += 1;
        let done = dispatch_hazard_get(&mut self.state, req.url, core.clock);
        self.pending += 1;
        self.pending_bytes += done.wire;
        core.inflight.push(PoolEntry { id, site: self.site, done });
        id
    }

    fn poll_into(&mut self, out: &mut Vec<(RequestId, Fetched)>) {
        out.clear();
        let mut core = self.core.lock();
        let core = &mut *core;
        core.inflight.sort_by(PoolEntry::completion_order);
        // The horizon is this site's next completion instant (never
        // backwards: a synchronous HEAD may already have pushed the clock
        // past several arrivals). Another site may own an earlier arrival:
        // its entries stay pooled — they are delivered with their own
        // arrival when its handle polls, so nothing is lost if this site
        // drains first (the shared clock then just jumps past them, as on
        // a machine that was busy elsewhere). Drivers that poll sites in
        // [`SharedTransportPool::next_completion_site`] order never hit
        // that case and advance the clock in true arrival order.
        let site = self.site;
        let Some(first) = core.inflight.iter().find(|e| e.site == site) else {
            return;
        };
        let horizon = core.clock.max(first.done.arrival);
        for e in core.inflight.extract_if(.., |e| e.site == site && e.done.arrival <= horizon) {
            core.clock = core.clock.max(e.done.arrival);
            self.traffic.get_requests += e.done.gets;
            self.traffic.non_target_bytes += e.done.wire;
            self.pending -= 1;
            self.pending_bytes -= e.done.wire;
            out.push((e.id, e.done.answer));
        }
        core.site_elapsed[self.site] = core.clock;
        self.traffic.elapsed_secs = core.clock;
    }

    fn head(&mut self, url: &str) -> HeadResponse {
        let r = self.state.server.head(url);
        self.traffic.head_requests += 1;
        self.charge_sync(url, r.wire_size());
        r
    }

    fn fetch_now(&mut self, url: &str) -> Fetched {
        let f = settle_get(self.state.server.get(url), &self.state.policy);
        self.traffic.get_requests += 1;
        self.charge_sync(url, f.wire_bytes);
        f
    }

    fn in_flight(&self) -> usize {
        self.pending
    }

    fn in_flight_bytes(&self) -> u64 {
        self.pending_bytes
    }

    fn max_in_flight(&self) -> usize {
        self.core.lock().window
    }

    /// Global, not per-site: a slot is free only when the *pool* has one.
    fn has_capacity(&self) -> bool {
        let core = self.core.lock();
        core.inflight.len() < core.window
    }

    fn traffic(&self) -> Traffic {
        self.traffic
    }

    fn tag_target(&mut self, bytes: u64) {
        let moved = bytes.min(self.traffic.non_target_bytes);
        self.traffic.non_target_bytes -= moved;
        self.traffic.target_bytes += moved;
    }

    fn policy(&self) -> &MimePolicy {
        &self.state.policy
    }

    fn set_host_min_delay(&mut self, host: &str, delay_secs: f64) {
        self.state.gates.set_host_min_delay(host, delay_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SiteServer;
    use sb_webgraph::gen::{build_site, SiteSpec};

    fn server(pages: usize, seed: u64) -> SiteServer {
        SiteServer::new(build_site(&SiteSpec::demo(pages), seed))
    }

    fn html_urls(s: &SiteServer, n: usize) -> Vec<String> {
        let site = s.source();
        (0..site.n_pages() as u32)
            .filter(|&id| matches!(site.kind(id), sb_webgraph::PageKind::Html(_)))
            .map(|id| site.url(id).to_owned())
            .take(n)
            .collect()
    }

    fn drain(t: &mut dyn Transport) -> Vec<RequestId> {
        let mut out = Vec::new();
        let mut order = Vec::new();
        while t.in_flight() > 0 {
            t.poll_into(&mut out);
            order.extend(out.iter().map(|(id, _)| *id));
        }
        order
    }

    #[test]
    fn window_is_shared_across_handles() {
        let (a, b) = (server(120, 1), server(120, 2));
        let (ua, ub) = (html_urls(&a, 4), html_urls(&b, 4));
        let pool = SharedTransportPool::new(3);
        let mut ha = pool.handle(&a, MimePolicy::default(), Politeness::default());
        let mut hb = pool.handle(&b, MimePolicy::default(), Politeness::default());

        ha.submit(Request::get(&ua[0]));
        hb.submit(Request::get(&ub[0]));
        ha.submit(Request::get(&ua[1]));
        assert_eq!(pool.in_flight(), 3);
        assert!(!pool.has_capacity());
        assert!(!ha.has_capacity() && !hb.has_capacity(), "capacity is global");
        assert_eq!(ha.in_flight(), 2);
        assert_eq!(hb.in_flight(), 1);
        assert!(ha.in_flight_bytes() > 0);

        drain(&mut ha);
        drain(&mut hb);
        assert_eq!(pool.in_flight(), 0);
        assert!(pool.has_capacity());
        assert_eq!(ha.traffic().get_requests, 2);
        assert_eq!(hb.traffic().get_requests, 1);
    }

    #[test]
    fn next_completion_breaks_cross_site_ties_by_site_index() {
        // Two identical sites (same spec, same seed — same root URL, same
        // sizes) submitted back to back at clock 0: each handle's own gate
        // starts cold, so both requests dispatch at t = 0 and arrive at
        // the identical instant. Submission order is deliberately reversed
        // so the tie cannot be won by id accident: the pool must rank the
        // lower *site index* first.
        let (a, b) = (server(120, 3), server(120, 3));
        let (ua, ub) = (html_urls(&a, 1), html_urls(&b, 1));
        assert_eq!(ua[0], ub[0], "same spec + seed generate the same site");
        let pool = SharedTransportPool::new(2);
        let mut ha = pool.handle(&a, MimePolicy::default(), Politeness::default());
        let mut hb = pool.handle(&b, MimePolicy::default(), Politeness::default());
        let id_b = hb.submit(Request::get(&ub[0]));
        let id_a = ha.submit(Request::get(&ua[0]));
        assert!(id_b < id_a, "ids ascend in submission order, pool-wide");
        assert_eq!(
            pool.next_completion_site(),
            Some(0),
            "equal arrivals rank by site index, not submission order"
        );
    }

    #[test]
    fn gates_shard_per_handle_and_space_within_a_site() {
        // Politeness-dominated regime: 1 s delay, negligible transfer.
        let pol = Politeness { delay_secs: 1.0, bytes_per_sec: 1e9 };
        let (a, b) = (server(200, 5), server(200, 6));
        let (ua, ub) = (html_urls(&a, 6), html_urls(&b, 6));

        // Wide window, two sites: each handle's gate ticks concurrently
        // (politeness shards per site — the synthetic hostname the two
        // generated sites share must NOT couple them), so 12 requests
        // cost ~6 s, not ~12 s.
        let pool = SharedTransportPool::new(12);
        let mut ha = pool.handle(&a, MimePolicy::default(), pol);
        let mut hb = pool.handle(&b, MimePolicy::default(), pol);
        for (x, y) in ua.iter().zip(&ub) {
            ha.submit(Request::get(x));
            hb.submit(Request::get(y));
        }
        drain(&mut ha);
        drain(&mut hb);
        let sharded = pool.clock_secs();
        assert!(
            sharded < 6.0 + 1.0,
            "distinct sites must overlap politeness waits: {sharded:.1}s"
        );
        // Within one site the gate still spaces every dispatch.
        assert!(
            ha.traffic().elapsed_secs >= 6.0 * pol.delay_secs - 1e-9,
            "a site's own dispatches must stay politeness-spaced"
        );

        // One site, wide window: its single gate spaces all 12 — ~12 s.
        let a2 = server(200, 5);
        let pool = SharedTransportPool::new(12);
        let mut h1 = pool.handle(&a2, MimePolicy::default(), pol);
        for x in ua.iter().chain(ua.iter()) {
            h1.submit(Request::get(x));
        }
        drain(&mut h1);
        let gated = pool.clock_secs();
        assert!(
            gated >= 12.0 * pol.delay_secs - 1e-9,
            "one site's gate must space every dispatch: {gated:.1}s"
        );
    }

    #[test]
    fn site_elapsed_tracks_last_delivery_per_site() {
        let (a, b) = (server(120, 9), server(120, 10));
        let (ua, ub) = (html_urls(&a, 2), html_urls(&b, 2));
        let pool = SharedTransportPool::new(4);
        let mut ha = pool.handle(&a, MimePolicy::default(), Politeness::default());
        let mut hb = pool.handle(&b, MimePolicy::default(), Politeness::default());
        assert_eq!(pool.site_elapsed(0), 0.0);
        ha.submit(Request::get(&ua[0]));
        drain(&mut ha);
        assert!(pool.site_elapsed(0) > 0.0);
        assert_eq!(pool.site_elapsed(1), 0.0, "site 1 has not delivered yet");
        hb.submit(Request::get(&ub[0]));
        drain(&mut hb);
        assert!(pool.site_elapsed(1) >= pool.site_elapsed(0), "shared clock is monotone");
    }

    #[test]
    fn pool_and_handles_are_send() {
        // The PR 8 contract: the pool core is `Arc<Mutex<..>>` and the
        // server bound is `Send + Sync`, so both ends cross threads.
        fn is_send<T: Send>() {}
        is_send::<SharedTransportPool>();
        is_send::<PoolHandle<'static>>();
    }

    #[test]
    fn crawl_delay_override_stays_in_the_handles_shard() {
        let (a, b) = (server(150, 11), server(150, 12));
        let (ua, ub) = (html_urls(&a, 3), html_urls(&b, 3));
        let host = crate::transport::host_of(&ua[0]).to_owned();
        let pol = Politeness { delay_secs: 1.0, bytes_per_sec: 1e9 };
        let pool = SharedTransportPool::new(6);
        let mut ha = pool.handle(&a, MimePolicy::default(), pol);
        let mut hb = pool.handle(&b, MimePolicy::default(), pol);
        // Site A declares a 5 s Crawl-delay; site B (same synthetic
        // hostname — the shard is the handle, not the string) keeps the
        // 1 s default.
        ha.set_host_min_delay(&host, 5.0);
        for (x, y) in ua.iter().zip(&ub) {
            ha.submit(Request::get(x));
            hb.submit(Request::get(y));
        }
        // Drain B first: its last arrival is ~3 s in, well before A's
        // gated ones (draining A first would advance the shared clock past
        // B's arrivals and mask the comparison).
        drain(&mut hb);
        drain(&mut ha);
        assert!(
            hb.traffic().elapsed_secs < 15.0,
            "B must not inherit A's Crawl-delay: {:.1}s",
            hb.traffic().elapsed_secs
        );
        assert!(
            ha.traffic().elapsed_secs >= 15.0 - 1e-9,
            "5 s Crawl-delay must gate all three of A's dispatches: {:.1}s",
            ha.traffic().elapsed_secs
        );
    }
}
