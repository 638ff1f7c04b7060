//! The `Transport` conformance suite (PR 5): every invariant the crawl
//! engine leans on, written once against the trait and macro-instantiated
//! per backend, so a new transport inherits the full pin set for free.
//!
//! Invariants checked (one `#[test]` each, per backend):
//!
//! * **window-1 ≡ blocking `Client`** — with one request in flight the
//!   transport's cost accounting telescopes to the serial client's exact
//!   `Traffic`;
//! * **gate spacing** — n dispatches to one host never complete in less
//!   than `n · delay_secs` of simulated time, no matter how wide the
//!   window, while a wide window still beats the serial makespan
//!   (transfers overlap, dispatches stay spaced);
//! * **deterministic completion order** — identical submissions produce
//!   identical `(id, answer)` streams run to run, ordered by ascending
//!   simulated arrival with ties by `RequestId`;
//! * **retry accounting** — with retries on, transient 5xx answers are
//!   recovered and *every* attempt is charged (`get_requests` counts
//!   injected failures too);
//! * **in-flight byte accounting** — `in_flight_bytes` reports the wire
//!   volume of undelivered work and exactly that volume lands in
//!   `Traffic` on delivery (the volume-budget refill guard builds on it);
//! * **robots `Crawl-delay`** — `set_host_min_delay` dominates the base
//!   politeness delay for the host's subsequent dispatches;
//! * **window bookkeeping** — `in_flight`/`has_capacity` track the pool
//!   through a fill/drain cycle, and `tag_target` moves volume between
//!   buckets without changing the total.
//!
//! There is one backend today — the pool handle — and five ways to come
//! by one, each pinned: `PipelinedTransport::new(..).with_window(w)` (a
//! private pool resized by its sole tenant), `SharedTransportPool::new(w)
//! .handle(..)`, a pool handle contending with a registered-but-idle
//! sibling site — a handle's single-site behaviour must not depend on
//! being the pool's only tenant — and (PR 8) both pool-handle shapes
//! round-tripped through a spawned thread before use: the handle is
//! `Send`, and crossing a real thread boundary must not perturb a single
//! invariant.

use sb_bench::client::Client;
use sb_httpsim::transport::{Request, RequestId, Transport};
use sb_httpsim::{
    Fetched, HazardPolicy, HttpServer, Outage, PipelinedTransport, Politeness, PoolHandle,
    RetryPolicy, SharedTransportPool, SiteServer,
};
use sb_webgraph::gen::{build_site, SiteSpec};
use sb_webgraph::mime::MimePolicy;

/// Builds the transport under test over `server`: window + retry policy
/// applied, everything else default. Every way of building one yields the
/// one backend, a [`PoolHandle`].
type Build = for<'a> fn(
    &'a (dyn HttpServer + 'a),
    MimePolicy,
    Politeness,
    usize,
    u32,
) -> PoolHandle<'a>;

fn build_pipelined<'a>(
    server: &'a (dyn HttpServer + 'a),
    policy: MimePolicy,
    politeness: Politeness,
    window: usize,
    retries: u32,
) -> PoolHandle<'a> {
    PipelinedTransport::new(server, policy, politeness)
        .with_window(window)
        .with_retry_policy(RetryPolicy::retries(retries))
}

fn build_pool_handle<'a>(
    server: &'a (dyn HttpServer + 'a),
    policy: MimePolicy,
    politeness: Politeness,
    window: usize,
    retries: u32,
) -> PoolHandle<'a> {
    let pool = SharedTransportPool::new(window);
    pool.handle(server, policy, politeness).with_retry_policy(RetryPolicy::retries(retries))
}

/// A registered second site that never submits anything: the handle under
/// test must behave identically with an idle tenant beside it.
struct DecoyServer;

impl HttpServer for DecoyServer {
    fn head(&self, _url: &str) -> sb_httpsim::HeadResponse {
        self.get("").head()
    }

    fn get(&self, _url: &str) -> sb_httpsim::Response {
        sb_httpsim::response::error_response(404)
    }
}

static DECOY: DecoyServer = DecoyServer;

fn build_pool_handle_contended<'a>(
    server: &'a (dyn HttpServer + 'a),
    policy: MimePolicy,
    politeness: Politeness,
    window: usize,
    retries: u32,
) -> PoolHandle<'a> {
    let pool = SharedTransportPool::new(window);
    let _idle_sibling = pool.handle(&DECOY, MimePolicy::default(), Politeness::default());
    pool.handle(server, policy, politeness).with_retry_policy(RetryPolicy::retries(retries))
}

/// Proves the `Send` bound the sharded fleet (PR 8) relies on by
/// construction: the handle is moved into a spawned thread and back before
/// the checks drive it. A backend that is not `Send` fails to compile
/// here; a backend whose state does not survive the move fails the pins.
fn roundtrip_through_thread<T: Send>(value: T) -> T {
    std::thread::scope(|s| s.spawn(move || value).join().expect("carrier thread"))
}

fn build_threaded_pool_handle<'a>(
    server: &'a (dyn HttpServer + 'a),
    policy: MimePolicy,
    politeness: Politeness,
    window: usize,
    retries: u32,
) -> PoolHandle<'a> {
    let pool = SharedTransportPool::new(window);
    let handle =
        pool.handle(server, policy, politeness).with_retry_policy(RetryPolicy::retries(retries));
    roundtrip_through_thread(handle)
}

fn build_threaded_pool_handle_contended<'a>(
    server: &'a (dyn HttpServer + 'a),
    policy: MimePolicy,
    politeness: Politeness,
    window: usize,
    retries: u32,
) -> PoolHandle<'a> {
    let pool = SharedTransportPool::new(window);
    let _idle_sibling = pool.handle(&DECOY, MimePolicy::default(), Politeness::default());
    let handle =
        pool.handle(server, policy, politeness).with_retry_policy(RetryPolicy::retries(retries));
    roundtrip_through_thread(handle)
}

// ----------------------------------------------------------------------
// Shared fixtures
// ----------------------------------------------------------------------

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

fn drain(t: &mut dyn Transport, sink: &mut Vec<(RequestId, Fetched)>) -> Vec<RequestId> {
    let mut order = Vec::new();
    while t.in_flight() > 0 {
        t.poll_into(sink);
        order.extend(sink.iter().map(|(id, _)| *id));
    }
    order
}

// ----------------------------------------------------------------------
// The invariant checks (generic over the builder)
// ----------------------------------------------------------------------

fn check_window_one_matches_blocking_client(build: Build) {
    let s = server(300, 5);
    let urls = html_urls(&s, 24);
    let mut client = Client::new(&s, MimePolicy::default());
    for u in &urls {
        client.get(u);
    }
    client.head(&urls[0]);

    let mut t = build(&s, MimePolicy::default(), Politeness::default(), 1, 0);
    let mut out = Vec::new();
    for u in &urls {
        t.submit(Request::get(u));
        t.poll_into(&mut out);
        assert_eq!(out.len(), 1, "window 1 delivers one completion per submit");
    }
    t.head(&urls[0]);
    assert_eq!(t.traffic(), client.traffic(), "window 1 must replay the blocking client");
}

fn check_gate_spacing(build: Build) {
    let s = server(300, 5);
    let urls = html_urls(&s, 8);
    let pol = Politeness { delay_secs: 1.0, bytes_per_sec: 1024.0 };

    let mut serial = build(&s, MimePolicy::default(), pol, 1, 0);
    let mut out = Vec::new();
    for u in &urls {
        serial.submit(Request::get(u));
        serial.poll_into(&mut out);
    }
    let serial_makespan = serial.traffic().elapsed_secs;

    let mut wide = build(&s, MimePolicy::default(), pol, urls.len(), 0);
    for u in &urls {
        wide.submit(Request::get(u));
    }
    let delivered = drain(&mut wide, &mut out).len();
    assert_eq!(delivered, urls.len());
    let wide_makespan = wide.traffic().elapsed_secs;

    // The gate spaces dispatches one politeness delay apart, so the
    // makespan cannot drop below n·delay; overlapped transfers make it
    // strictly better than serial.
    assert!(wide_makespan >= urls.len() as f64 * pol.delay_secs - 1e-9, "gate floor violated");
    assert!(
        wide_makespan < serial_makespan,
        "pipelining must beat serial: {wide_makespan} vs {serial_makespan}"
    );
    // And both ends moved the same volume.
    assert_eq!(wide.traffic().requests(), serial.traffic().requests());
    assert_eq!(wide.traffic().total_bytes(), serial.traffic().total_bytes());
}

fn check_completion_order(build: Build) {
    let s = server(300, 5);
    let urls = html_urls(&s, 6);
    let pol = Politeness { delay_secs: 0.5, bytes_per_sec: 2048.0 };
    let run = || {
        let mut t = build(&s, MimePolicy::default(), pol, urls.len(), 0);
        let ids: Vec<RequestId> = urls.iter().map(|u| t.submit(Request::get(u))).collect();
        let mut out = Vec::new();
        let order = drain(&mut t, &mut out);
        (ids, order)
    };
    let (ids_a, order_a) = run();
    let (ids_b, order_b) = run();
    assert_eq!(ids_a, ids_b, "ids must be assigned deterministically");
    assert_eq!(order_a, order_b, "completion order must be deterministic");
    // With identical politeness per dispatch, arrivals are strictly
    // increasing in dispatch order here; ids come back ascending.
    let mut sorted = order_a.clone();
    sorted.sort_unstable();
    assert_eq!(order_a, sorted, "equal-delay dispatches complete in submission order");
}

fn check_retry_accounting(build: Build) {
    let site = build_site(&SiteSpec::demo(300), 5);
    let urls: Vec<String> = site.pages().iter().map(|p| p.url.clone()).take(40).collect();
    let origin = SiteServer::new(site);
    let pol = Politeness { delay_secs: 0.1, bytes_per_sec: 1e6 };
    let outage = Outage { share: 0.4, seed: 7, transient: true, exempt: None };

    let mut t = build(&origin, MimePolicy::default(), pol, 4, 1)
        .with_hazards(HazardPolicy::default().with_outage(outage));
    let mut out = Vec::new();
    let mut failures = 0usize;
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

fn check_in_flight_bytes(build: Build) {
    let s = server(300, 5);
    let urls = html_urls(&s, 5);
    let mut t = build(&s, MimePolicy::default(), Politeness::default(), urls.len(), 0);
    assert_eq!(t.in_flight_bytes(), 0);
    for u in &urls {
        t.submit(Request::get(u));
    }
    let pending = t.in_flight_bytes();
    assert!(pending > 0, "submitted wire volume must be visible before delivery");
    assert_eq!(t.traffic().total_bytes(), 0, "nothing is charged before delivery");
    let mut out = Vec::new();
    drain(&mut t, &mut out);
    assert_eq!(t.in_flight_bytes(), 0);
    assert_eq!(
        t.traffic().total_bytes(),
        pending,
        "exactly the in-flight volume lands in Traffic at delivery"
    );
}

fn check_crawl_delay(build: Build) {
    let s = server(300, 5);
    let urls = html_urls(&s, 5);
    let host = {
        let u = &urls[0];
        let rest = &u[u.find("://").unwrap() + 3..];
        rest[..rest.find('/').unwrap()].to_owned()
    };
    let pol = Politeness { delay_secs: 1.0, bytes_per_sec: 1e9 };

    let makespan = |crawl_delay: Option<f64>| {
        let mut t = build(&s, MimePolicy::default(), pol, urls.len(), 0);
        if let Some(d) = crawl_delay {
            let robots =
                sb_httpsim::RobotsTxt::parse(&format!("User-agent: *\nCrawl-delay: {d}"));
            t.apply_crawl_delay(&robots, "sbcrawl", &host);
        }
        for u in &urls {
            t.submit(Request::get(u));
        }
        let mut out = Vec::new();
        drain(&mut t, &mut out);
        t.traffic().elapsed_secs
    };

    let plain = makespan(None);
    let delayed = makespan(Some(4.0));
    assert!(
        delayed > plain * 3.0,
        "a 4 s Crawl-delay must dominate the 1 s default: {plain} vs {delayed}"
    );
}

fn check_window_bookkeeping(build: Build) {
    let s = server(300, 5);
    let urls = html_urls(&s, 3);
    let mut t = build(&s, MimePolicy::default(), Politeness::default(), 3, 0);
    assert_eq!(t.max_in_flight(), 3);
    assert_eq!(t.in_flight(), 0);
    assert!(t.has_capacity());
    t.submit(Request::get(&urls[0]));
    t.submit(Request::get(&urls[1]));
    assert_eq!(t.in_flight(), 2);
    assert!(t.has_capacity());
    t.submit(Request::get(&urls[2]));
    assert_eq!(t.in_flight(), 3);
    assert!(!t.has_capacity(), "a full window reports no capacity");
    let mut out = Vec::new();
    drain(&mut t, &mut out);
    assert_eq!(t.in_flight(), 0);
    assert!(t.has_capacity());

    // tag_target re-attributes volume without changing the total, capped
    // at what the non-target bucket holds.
    let before = t.traffic();
    assert!(before.non_target_bytes > 0);
    t.tag_target(before.non_target_bytes + 10_000);
    let after = t.traffic();
    assert_eq!(after.total_bytes(), before.total_bytes());
    assert_eq!(after.target_bytes, before.total_bytes());
    assert_eq!(after.non_target_bytes, 0);
}

// ----------------------------------------------------------------------
// Instantiation: one module of pins per backend
// ----------------------------------------------------------------------

macro_rules! transport_conformance {
    ($backend:ident, $build:path) => {
        mod $backend {
            use super::*;

            #[test]
            fn window_one_matches_blocking_client() {
                check_window_one_matches_blocking_client($build);
            }

            #[test]
            fn gate_spacing_floors_the_makespan_and_transfers_overlap() {
                check_gate_spacing($build);
            }

            #[test]
            fn completion_order_is_deterministic_arrival_then_id() {
                check_completion_order($build);
            }

            #[test]
            fn retries_recover_transient_5xx_and_charge_every_attempt() {
                check_retry_accounting($build);
            }

            #[test]
            fn in_flight_bytes_are_charged_exactly_at_delivery() {
                check_in_flight_bytes($build);
            }

            #[test]
            fn robots_crawl_delay_raises_the_gate() {
                check_crawl_delay($build);
            }

            #[test]
            fn window_bookkeeping_and_target_tagging() {
                check_window_bookkeeping($build);
            }
        }
    };
}

transport_conformance!(pipelined_transport, super::build_pipelined);
transport_conformance!(shared_pool_handle, super::build_pool_handle);
transport_conformance!(shared_pool_handle_contended, super::build_pool_handle_contended);
transport_conformance!(threaded_pool_handle, super::build_threaded_pool_handle);
transport_conformance!(threaded_pool_handle_contended, super::build_threaded_pool_handle_contended);
