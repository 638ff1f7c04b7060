//! `PoolHandle` pins that the trait-level conformance suite has no slot
//! for.
//!
//! * The handle-local in-flight counters: a [`PoolHandle`] answers
//!   `in_flight()`/`in_flight_bytes()` from its own tally (up at `submit`,
//!   down at `poll_into`) instead of scanning the shared window under the
//!   pool lock, so the tally must never drift from the pool — over any
//!   interleaving of `submit`/`poll_into`/`head`/`fetch_now` across three
//!   handles of one pool, one of them retrying over a flaky origin so that
//!   a request's wire bytes span several attempts.
//! * `with_window` resizes the whole pool, so it refuses (in debug builds)
//!   a handle that is not its pool's only tenant.
//! * A `RateLimit::period` of 0 installed through the public field — past
//!   `with_rate_limit`'s clamp — is clamped where it is used instead of
//!   dividing by zero on the first GET.
//! * Against the blocking `sb_bench::client::Client`: a global window of 1
//!   serialises the fleet to the sum of the sites' serial costs, and
//!   handles driven from other threads account each site's volume exactly
//!   as the client does.

use proptest::prelude::*;
use sb_bench::client::Client;
use sb_httpsim::transport::{Request, RequestId, Transport};
use sb_httpsim::{
    FlakyServer, HazardPolicy, HttpServer, PipelinedTransport, Politeness, PoolHandle, RateLimit,
    RetryPolicy, SharedTransportPool, SiteServer,
};
use sb_webgraph::gen::{build_site, SiteSpec};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::Website;
use std::sync::{Arc, OnceLock};

const WINDOW: usize = 5;

fn sites() -> &'static [Arc<Website>; 3] {
    static SITES: OnceLock<[Arc<Website>; 3]> = OnceLock::new();
    SITES.get_or_init(|| [1, 2, 3].map(|seed| Arc::new(build_site(&SiteSpec::demo(80), seed))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handle_counters_never_drift_from_the_pool(
        ops in proptest::collection::vec((0usize..3, 0u8..4, 0usize..1000), 0..120)
    ) {
        let sites = sites();
        let (a, b) = (SiteServer::shared(sites[0].clone()), SiteServer::shared(sites[1].clone()));
        let flaky = FlakyServer::new(SiteServer::shared(sites[2].clone()), 0.4, 7).recoverable();
        let origins: [&dyn HttpServer; 3] = [&a, &b, &flaky];
        let pool = SharedTransportPool::new(WINDOW);
        let mut handles: Vec<PoolHandle<'_>> = origins
            .iter()
            .map(|s| {
                pool.handle(*s, MimePolicy::default(), Politeness::default())
                    .with_retry_policy(RetryPolicy::retries(1))
            })
            .collect();
        let mut out = Vec::new();

        for (h, op, pick) in ops {
            let pages = sites[h].pages();
            let url = &pages[pick % pages.len()].url;
            let t = &mut handles[h];
            let (charged, owed) = (t.traffic().total_bytes(), t.in_flight_bytes());
            match op {
                0 if pool.has_capacity() => {
                    t.submit(Request::get(url));
                    prop_assert_eq!(t.traffic().total_bytes(), charged, "submit charges nothing");
                }
                0 | 1 => {
                    t.poll_into(&mut out);
                    prop_assert_eq!(
                        t.traffic().total_bytes() - charged,
                        owed - t.in_flight_bytes(),
                        "what leaves the in-flight tally is exactly what Traffic is charged"
                    );
                }
                2 => {
                    t.head(url);
                    prop_assert_eq!(t.in_flight_bytes(), owed, "a HEAD is charged at once");
                }
                _ => {
                    t.fetch_now(url);
                    prop_assert_eq!(t.in_flight_bytes(), owed, "fetch_now is charged at once");
                }
            }
            let tallied: usize = handles.iter().map(|t| t.in_flight()).sum();
            prop_assert_eq!(tallied, pool.in_flight());
        }

        for t in &mut handles {
            let (charged, owed) = (t.traffic().total_bytes(), t.in_flight_bytes());
            while t.in_flight() > 0 {
                t.poll_into(&mut out);
            }
            prop_assert_eq!(t.in_flight_bytes(), 0, "a drained handle owes nothing");
            prop_assert_eq!(t.traffic().total_bytes() - charged, owed);
        }
        prop_assert_eq!(pool.in_flight(), 0);
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "with_window resizes the whole pool")]
fn with_window_refuses_a_handle_with_siblings() {
    let sites = sites();
    let (a, b) = (SiteServer::shared(sites[0].clone()), SiteServer::shared(sites[1].clone()));
    let pool = SharedTransportPool::new(3);
    let _sibling = pool.handle(&a, MimePolicy::default(), Politeness::default());
    let _ = pool.handle(&b, MimePolicy::default(), Politeness::default()).with_window(1);
}

#[test]
fn zero_rate_limit_period_set_through_the_field_is_clamped() {
    let server = SiteServer::shared(sites()[0].clone());
    let root = &sites()[0].pages()[0].url;
    let mut hazards = HazardPolicy::default();
    hazards.rate_limit = Some(RateLimit { period: 0, retry_after_secs: 1.0 });
    let mut t = PipelinedTransport::new(&server, MimePolicy::default(), Politeness::default())
        .with_hazards(hazards);
    let statuses: Vec<u16> = (0..2)
        .map(|_| {
            t.submit(Request::get(root));
            t.poll()[0].1.status
        })
        .collect();
    assert_eq!(statuses, [200, 429], "period 0 behaves as the builder's clamp: every 2nd attempt");
}

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
fn global_window_one_serialises_the_fleet() {
    // With window 1 the pool is one crawler visiting sites strictly in
    // turn: the shared clock telescopes to the serial sum of both
    // sites' blocking-client costs.
    let (a, b) = (server(150, 7), server(150, 8));
    let (ua, ub) = (html_urls(&a, 8), html_urls(&b, 8));
    let mut ca = Client::new(&a, MimePolicy::default());
    let mut cb = Client::new(&b, MimePolicy::default());
    for u in &ua {
        ca.get(u);
    }
    for u in &ub {
        cb.get(u);
    }
    let serial_sum = ca.traffic().elapsed_secs + cb.traffic().elapsed_secs;

    let pool = SharedTransportPool::new(1);
    let mut ha = pool.handle(&a, MimePolicy::default(), Politeness::default());
    let mut hb = pool.handle(&b, MimePolicy::default(), Politeness::default());
    let mut out = Vec::new();
    for (x, y) in ua.iter().zip(&ub) {
        ha.submit(Request::get(x));
        ha.poll_into(&mut out);
        assert_eq!(out.len(), 1);
        hb.submit(Request::get(y));
        hb.poll_into(&mut out);
        assert_eq!(out.len(), 1);
    }
    assert!(
        (pool.clock_secs() - serial_sum).abs() < 1e-6,
        "window 1 must serialise: {} vs {}",
        pool.clock_secs(),
        serial_sum
    );
    // And per-site volume matches the blocking clients exactly.
    assert_eq!(ha.traffic().total_bytes(), ca.traffic().total_bytes());
    assert_eq!(hb.traffic().total_bytes(), cb.traffic().total_bytes());
}

#[test]
fn handles_drive_their_sites_from_other_threads() {
    // Two handles of one pool, each moved to its own thread and driven
    // there concurrently. Per-site volume accounting must come out
    // exactly as a blocking client's, whatever the interleaving of the
    // two threads' submissions — only the shared clock (elapsed) is
    // schedule-dependent.
    let (a, b) = (server(150, 13), server(150, 14));
    let (ua, ub) = (html_urls(&a, 5), html_urls(&b, 5));
    let mut ca = Client::new(&a, MimePolicy::default());
    let mut cb = Client::new(&b, MimePolicy::default());
    for u in &ua {
        ca.get(u);
    }
    for u in &ub {
        cb.get(u);
    }

    // Window wide enough that racing submits cannot overfill it.
    let pool = SharedTransportPool::new(ua.len() + ub.len());
    let ha = pool.handle(&a, MimePolicy::default(), Politeness::default());
    let hb = pool.handle(&b, MimePolicy::default(), Politeness::default());
    let (ta, tb) = std::thread::scope(|s| {
        let run_a = s.spawn(|| {
            let mut h = ha;
            for u in &ua {
                h.submit(Request::get(u));
            }
            drain(&mut h);
            h.traffic()
        });
        let run_b = s.spawn(|| {
            let mut h = hb;
            for u in &ub {
                h.submit(Request::get(u));
            }
            drain(&mut h);
            h.traffic()
        });
        (run_a.join().expect("site A thread"), run_b.join().expect("site B thread"))
    });
    assert_eq!(pool.in_flight(), 0);
    assert_eq!(ta.get_requests, ca.traffic().get_requests);
    assert_eq!(ta.total_bytes(), ca.traffic().total_bytes());
    assert_eq!(tb.get_requests, cb.traffic().get_requests);
    assert_eq!(tb.total_bytes(), cb.traffic().total_bytes());
}
