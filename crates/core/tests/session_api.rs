//! The session API contract: every config validated where its session is
//! built (standalone, over a caller's transport, or as a fleet job),
//! step-driven execution equivalent to `run()`, typed event streams in
//! order, and the one-feedback-per-selection invariant — including the
//! abandoned selections (dead redirects, errors) that the pre-session
//! engine left as silent bandit pulls. The refresh section pins the refresh
//! path (`queue_refresh` / `take_refreshed` / `serve_feed`) at the session
//! level, where `sb_serve::serve_site` drives it, and the last section
//! holds each crawl statistic to the event stream it summarises.

mod batched;
mod origins;

use batched::Batched;
use sb_crawler::{
    crawl, AbandonCounts, Budget, ConfigError, CrawlConfig, CrawlSession, Fleet, FleetJob,
    FleetMode, RefreshStats, RefreshedPage, SharedServer,
};
use sb_crawler::events::{AbandonReason, FinishReason, OwnedEvent, TraceObserver};
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::strategy::{LinkDecision, NewLink, SelUrl, Selection, Services, Strategy};
use sb_crawler::EventLog;
use sb_httpsim::response::error_response;
use sb_httpsim::{
    Headers, HeadResponse, HttpServer, PipelinedTransport, Politeness, Response, SiteServer,
};
use sb_webgraph::gen::{build_site, SiteSpec};
use sb_webgraph::{MimePolicy, UrlClass, UrlId, Website};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// A small deterministic hand-built site exercising every abandon path.
// ---------------------------------------------------------------------

/// `https://t.example/` serves:
///   /            HTML linking every path below
///   /spin        301 → /spin        (self-redirect: exhausts the chain)
///   /away        301 → off-site     (abandoned off-site)
///   /back        301 → /            (abandoned: target already known)
///   /gone        404                (HTTP error)
///   /data.csv    200 text/csv       (a target)
///   /page2       200 HTML, no links
struct TrickServer;

const TRICK_ROOT: &str = "https://t.example/";

impl TrickServer {
    fn respond(&self, url: &str) -> Response {
        let path = url.strip_prefix("https://t.example").unwrap_or("<off>");
        let html = |body: &str| Response {
            status: 200,
            headers: Headers {
                content_type: Some("text/html".to_owned()),
                content_length: Some(body.len() as u64),
                location: None,
            },
            body: body.as_bytes().to_vec().into(),
        };
        let redirect = |to: &str| Response {
            status: 301,
            headers: Headers {
                content_type: None,
                content_length: Some(0),
                location: Some(to.to_owned()),
            },
            body: sb_httpsim::Body::empty(),
        };
        match path {
            "/" => html(
                "<html><body>\
                 <a href=\"/spin\">spin</a>\
                 <a href=\"/away\">away</a>\
                 <a href=\"/back\">back</a>\
                 <a href=\"/gone\">gone</a>\
                 <a href=\"/data.csv\">data</a>\
                 <a href=\"/page2\">page2</a>\
                 </body></html>",
            ),
            "/spin" => redirect("/spin"),
            "/away" => redirect("https://elsewhere.example/x"),
            "/back" => redirect("/"),
            "/gone" => error_response(404),
            "/data.csv" => Response {
                status: 200,
                headers: Headers {
                    content_type: Some("text/csv".to_owned()),
                    content_length: Some(9),
                    location: None,
                },
                body: b"a,b\n1,2\n".to_vec().into(),
            },
            "/page2" => html("<html><body>nothing here</body></html>"),
            _ => error_response(404),
        }
    }
}

impl HttpServer for TrickServer {
    fn head(&self, url: &str) -> HeadResponse {
        self.respond(url).head()
    }

    fn get(&self, url: &str) -> Response {
        self.respond(url)
    }
}

// ---------------------------------------------------------------------
// A BFS strategy that records every feedback delivery per token.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Recorder {
    frontier: VecDeque<UrlId>,
    urls: Vec<(u64, String)>,
    selected: Vec<u64>,
    rewards: Vec<u64>,
    targets: Vec<u64>,
    errors: Vec<u64>,
    /// Every `on_fetched` class observation, in order.
    observed: Vec<String>,
    /// Handed out once, as an unparseable text selection, before the
    /// first frontier pick.
    junk: Option<u64>,
}

impl Strategy for Recorder {
    fn name(&self) -> String {
        "RECORDER".to_owned()
    }

    fn next(&mut self, _rng: &mut StdRng) -> Option<Selection> {
        if let Some(token) = self.junk.take() {
            self.selected.push(token);
            return Some(Selection { url: SelUrl::Text("::junk::".to_owned()), token });
        }
        let id = self.frontier.pop_front()?;
        let token = u64::from(id);
        self.selected.push(token);
        Some(Selection { url: SelUrl::Id(id), token })
    }

    fn decide(&mut self, link: &NewLink<'_>, _services: &mut Services<'_, '_>) -> LinkDecision {
        self.frontier.push_back(link.id);
        self.urls.push((u64::from(link.id), link.url_str.to_owned()));
        LinkDecision::Enqueue
    }

    fn feedback(&mut self, token: u64, _reward: f64) {
        self.rewards.push(token);
    }

    fn feedback_target(&mut self, token: u64) {
        self.targets.push(token);
    }

    fn feedback_error(&mut self, token: u64) {
        self.errors.push(token);
    }

    fn on_fetched(&mut self, _id: UrlId, url: &str, _class: UrlClass) {
        self.observed.push(url.to_owned());
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

impl Recorder {
    fn token_of(&self, suffix: &str) -> u64 {
        self.urls
            .iter()
            .find(|(_, u)| u.ends_with(suffix))
            .map(|(t, _)| *t)
            .unwrap_or_else(|| panic!("no discovered URL ends with {suffix}"))
    }

    /// Every token fed back (rewards, targets, errors) and every token
    /// selected, each sorted.
    fn settled_and_selected(&self) -> (Vec<u64>, Vec<u64>) {
        let mut settled = [&self.rewards[..], &self.targets[..], &self.errors[..]].concat();
        settled.sort_unstable();
        let mut selected = self.selected.clone();
        selected.sort_unstable();
        (settled, selected)
    }
}

// ---------------------------------------------------------------------
// Satellite: every abandoned selection delivers feedback_error.
// ---------------------------------------------------------------------

#[test]
fn every_selection_gets_exactly_one_feedback() {
    let server = TrickServer;
    let mut rec = Recorder::default();
    let out = crawl(&server, None, TRICK_ROOT, &mut rec, &CrawlConfig::default());
    assert_eq!(out.targets_found(), 1);

    // Every outer selection fed back exactly once, even the dead ends.
    let (settled, selected) = rec.settled_and_selected();
    assert_eq!(settled, selected, "each pull must produce exactly one observation");

    // And the dead ends landed in the error bucket specifically.
    for suffix in ["/spin", "/away", "/back", "/gone"] {
        let token = rec.token_of(suffix);
        assert!(
            rec.errors.contains(&token),
            "{suffix} dead-ends must deliver feedback_error (got rewards={:?} targets={:?} errors={:?})",
            rec.rewards,
            rec.targets,
            rec.errors
        );
    }
    assert!(rec.targets.contains(&rec.token_of("/data.csv")));
    assert!(rec.rewards.contains(&rec.token_of("/page2")));
}

#[test]
fn redirect_chain_exhaustion_spends_the_chain_bound() {
    let server = TrickServer;
    let mut rec = Recorder::default();
    let out = crawl(&server, None, TRICK_ROOT, &mut rec, &CrawlConfig::default());
    // /spin burns MAX_REDIRECTS GETs: root + 5×/spin + 5 other selections.
    assert_eq!(out.pages_crawled, 1 + 5 + 5);
}

#[test]
fn unparseable_text_selection_feeds_back_even_on_2xx() {
    // A server that happily answers 200 for any string: the selection is
    // still abandoned (nothing classifiable can come back from a URL the
    // engine cannot parse) and the pull must get its error observation.
    struct YesServer;
    impl HttpServer for YesServer {
        fn head(&self, url: &str) -> HeadResponse {
            self.get(url).head()
        }
        fn get(&self, _url: &str) -> Response {
            Response {
                status: 200,
                headers: Headers {
                    content_type: Some("text/html".to_owned()),
                    content_length: Some(0),
                    location: None,
                },
                body: sb_httpsim::Body::empty(),
            }
        }
    }

    struct JunkOnce {
        sent: bool,
        errors: Vec<u64>,
    }
    impl Strategy for JunkOnce {
        fn name(&self) -> String {
            "JUNK".to_owned()
        }
        fn next(&mut self, _rng: &mut StdRng) -> Option<Selection> {
            (!std::mem::replace(&mut self.sent, true))
                .then(|| Selection { url: SelUrl::Text("::junk::".to_owned()), token: 9 })
        }
        fn decide(&mut self, _l: &NewLink<'_>, _s: &mut Services<'_, '_>) -> LinkDecision {
            LinkDecision::Skip
        }
        fn feedback_error(&mut self, token: u64) {
            self.errors.push(token);
        }
        fn frontier_len(&self) -> usize {
            usize::from(!self.sent)
        }
    }

    let mut junk = JunkOnce { sent: false, errors: Vec::new() };
    let mut log = EventLog::new();
    let cfg = CrawlConfig::default();
    let out = CrawlSession::new(&YesServer, None, "https://y.example/", &mut junk, &cfg)
        .unwrap()
        .observe(&mut log)
        .run();
    assert_eq!(junk.errors, vec![9], "2xx for junk is still a dead pull");
    assert!(log.events().iter().any(|e| matches!(
        e,
        OwnedEvent::Abandoned { reason: AbandonReason::UnparseableSelection, .. }
    )));
    assert_eq!(out.pages_crawled, 2, "root + the charged junk fetch");
}

// ---------------------------------------------------------------------
// Every abandonment source, counted once beside its event.
// ---------------------------------------------------------------------

/// The [`AbandonCounts`] bucket `reason` is tallied in, in the order
/// [`assert_abandonments_accounted`] lists the buckets.
fn bucket(reason: AbandonReason) -> usize {
    match reason {
        AbandonReason::HttpError(_) => 0,
        AbandonReason::Timeout => 1,
        AbandonReason::RetriesExhausted => 2,
        AbandonReason::HostQuarantined => 3,
        AbandonReason::RedirectChainExhausted
        | AbandonReason::RedirectMissingLocation
        | AbandonReason::RedirectUnparseable
        | AbandonReason::RedirectOffSite
        | AbandonReason::RedirectFiltered
        | AbandonReason::RedirectAlreadyKnown => 4,
        AbandonReason::SessionClosed => 5,
        AbandonReason::UnparseableSelection
        | AbandonReason::Interrupted
        | AbandonReason::MissingMime => 6,
    }
}

/// Each bucket of `counts` equals the number of `Abandoned` events with
/// its reasons, `total()` is their sum, and every token `rec` handed out
/// got exactly one terminal feedback. Returns `counts`.
fn assert_abandonments_accounted(
    log: &EventLog,
    counts: AbandonCounts,
    rec: &Recorder,
) -> AbandonCounts {
    let mut events = [0u64; 7];
    for e in log.events() {
        if let OwnedEvent::Abandoned { reason, .. } = e {
            events[bucket(*reason)] += 1;
        }
    }
    let tally = [
        counts.http_error,
        counts.timeout,
        counts.retries_exhausted,
        counts.quarantined,
        counts.redirect,
        counts.session_closed,
        counts.other,
    ];
    assert_eq!(tally, events, "each bucket counts exactly its Abandoned events");
    assert_eq!(counts.total(), events.iter().sum::<u64>());
    let mut fed: Vec<u64> =
        rec.rewards.iter().chain(&rec.targets).chain(&rec.errors).copied().collect();
    fed.sort_unstable();
    let mut selected = rec.selected.clone();
    selected.sort_unstable();
    assert_eq!(fed, selected, "every selection token gets exactly one terminal feedback");
    counts
}

#[test]
fn every_abandonment_source_is_counted_once_beside_its_event() {
    use sb_webgraph::gen::hazard::{apply_hazards, HazardSpec};

    let mut site = build_site(&SiteSpec::demo(300), 23);
    apply_hazards(&mut site, &HazardSpec::scaled(300), 99);
    let root = site_root(&site);
    let server = SiteServer::new(site);

    // Dead redirects and HTTP errors on a hazard-laced site, plus one
    // unparseable text selection, crawled to the end.
    let cfg = CrawlConfig::default();
    let mut rec = Recorder { junk: Some(u64::MAX), ..Recorder::default() };
    let mut log = EventLog::new();
    let out =
        CrawlSession::new(&server, None, &root, &mut rec, &cfg).unwrap().observe(&mut log).run();
    let c = assert_abandonments_accounted(&log, out.abandoned, &rec);
    assert!(c.redirect > 0 && c.http_error > 0 && c.other > 0, "{c:?}");

    // Requests still in flight at `finish()`, at window 16.
    let cfg = CrawlConfig { max_in_flight: 16, ..CrawlConfig::default() };
    let mut rec = Recorder::default();
    let mut log = EventLog::new();
    let mut session =
        CrawlSession::new(&server, None, &root, &mut rec, &cfg).unwrap().observe(&mut log);
    for _ in 0..4 {
        session.step();
    }
    let in_flight = session.in_flight() as u64;
    let out = session.finish();
    let c = assert_abandonments_accounted(&log, out.abandoned, &rec);
    assert!(in_flight > 0 && c.session_closed == in_flight, "{in_flight} in flight: {c:?}");

    // Batch members still buffered at `finish()`: one refill pulls a
    // window's worth through `Batched` and submits only the first.
    let mut batched = Batched(Recorder::default());
    let mut log = EventLog::new();
    let mut session =
        CrawlSession::new(&server, None, &root, &mut batched, &cfg).unwrap().observe(&mut log);
    assert!(session.refill_one(), "the root");
    session.drain_completions();
    assert!(session.refill_one(), "the first member of a batch");
    assert_eq!(session.in_flight(), 1);
    let out = session.finish();
    let c = assert_abandonments_accounted(&log, out.abandoned, &batched.0);
    assert!(c.session_closed > 1, "buffered members are closed too: {c:?}");
}

/// A 429 storm over failing pages trips the circuit breaker, and the
/// session is closed with a ranking pass half-submitted: selections in
/// flight and selections still buffered. Every token still gets one
/// terminal feedback, every bucket still matches its events, and the
/// retries cannot push the GET count past what the window could owe.
#[test]
fn a_429_storm_closed_mid_batch_settles_every_selection_once() {
    use sb_httpsim::{HazardPolicy, Outage, RateLimit, RetryPolicy};

    let (window, retries, budget) = (16usize, 2u32, 120u64);
    let site = Arc::new(build_site(&SiteSpec::demo(400), 31));
    let root = site_root(&site);
    // Hard 503s on a share of the pages; every second attempt on the host
    // is a 429 besides, so a failing page fails every retry.
    let origin = SiteServer::shared(site);
    let outage = Outage { share: 0.3, seed: 5, transient: false, exempt: Some(root.clone()) };
    let cfg = CrawlConfig {
        budget: Budget::Requests(budget),
        max_in_flight: window,
        ..CrawlConfig::default()
    };
    let rate_limit = RateLimit { period: 2, retry_after_secs: 0.5 };
    let transport = PipelinedTransport::new(&origin, cfg.policy.clone(), cfg.politeness)
        .with_window(window)
        .with_hazards(HazardPolicy::seeded(3).with_rate_limit(rate_limit).with_outage(outage))
        .with_retry_policy(RetryPolicy::retries(retries).with_quarantine_after(3));
    let mut batched = Batched(Recorder::default());
    let mut log = EventLog::new();
    let mut session =
        CrawlSession::with_transport(Box::new(transport), None, &root, &mut batched, &cfg)
            .unwrap()
            .observe(&mut log);
    // Step until the breaker answers: a quarantine refusal is the only
    // delivery that costs no GET.
    while session.step().fetched > 0 {}
    assert!(!session.is_finished(), "the storm is closed mid-crawl");
    // Free half the window, then one ranking pass for the free slots: only
    // its first member submits, the rest wait in the batch buffer.
    while session.in_flight() > window / 2 {
        session.drain_completions();
    }
    assert!(session.refill_one(), "a batch member is submitted");
    let in_flight = session.in_flight() as u64;
    let out = session.finish();

    let c = assert_abandonments_accounted(&log, out.abandoned, &batched.0);
    assert!(c.quarantined > 0, "the breaker tripped: {c:?}");
    assert!(c.retries_exhausted > 0, "failing pages burnt their retries: {c:?}");
    assert!(in_flight > 1, "selections in flight at finish: {in_flight}");
    assert!(c.session_closed > in_flight, "buffered members are closed too: {c:?}");
    let bound = budget + (window as u64) * (1 + u64::from(retries));
    assert!(out.traffic.get_requests <= bound, "{} GETs > {bound}", out.traffic.get_requests);
}

// ---------------------------------------------------------------------
// Validation: however a config was written, its session checks it.
// ---------------------------------------------------------------------

/// [`TrickServer`] that counts every request reaching it.
#[derive(Default)]
struct CountingServer(AtomicU64);

impl HttpServer for CountingServer {
    fn head(&self, url: &str) -> HeadResponse {
        self.0.fetch_add(1, Ordering::Relaxed);
        TrickServer.respond(url).head()
    }

    fn get(&self, url: &str) -> Response {
        self.0.fetch_add(1, Ordering::Relaxed);
        TrickServer.respond(url)
    }
}

/// Struct-literal configs no session can run with, and what rejects each.
fn invalid_configs() -> Vec<(CrawlConfig, ConfigError)> {
    let budget = |budget| CrawlConfig { budget, ..Default::default() };
    let politeness = |delay_secs, bytes_per_sec| CrawlConfig {
        politeness: Politeness { delay_secs, bytes_per_sec },
        ..Default::default()
    };
    vec![
        (budget(Budget::Requests(0)), ConfigError::ZeroBudget),
        (budget(Budget::VolumeBytes(0)), ConfigError::ZeroBudget),
        (politeness(-1.0, 1e6), ConfigError::InvalidPoliteness),
        (politeness(f64::NAN, 1e6), ConfigError::InvalidPoliteness),
        (politeness(f64::INFINITY, 1e6), ConfigError::InvalidPoliteness),
        (politeness(1.0, 0.0), ConfigError::InvalidPoliteness),
        (politeness(1.0, f64::NAN), ConfigError::InvalidPoliteness),
        (politeness(1.0, f64::INFINITY), ConfigError::InvalidPoliteness),
        (CrawlConfig { max_in_flight: 0, ..Default::default() }, ConfigError::ZeroMaxInFlight),
    ]
}

#[test]
fn every_way_of_building_a_session_rejects_an_invalid_config() {
    let server = CountingServer::default();
    for (cfg, want) in invalid_configs() {
        let mut bfs = QueueStrategy::bfs();
        let err = CrawlSession::new(&server, None, TRICK_ROOT, &mut bfs, &cfg).err();
        assert_eq!(err.as_ref(), Some(&want), "new, {:?}", cfg.politeness);
        // A caller-built transport with valid settings of its own: the
        // config is still checked.
        let transport = Box::new(PipelinedTransport::new(
            &server,
            cfg.policy.clone(),
            Politeness::default(),
        ));
        let err = CrawlSession::with_transport(transport, None, TRICK_ROOT, &mut bfs, &cfg).err();
        assert_eq!(err.as_ref(), Some(&want), "with_transport, {:?}", cfg.politeness);
    }
    assert_eq!(server.0.load(Ordering::Relaxed), 0, "no request reached the server");

    // A fleet job reports its error in its `SiteReport`; its siblings crawl.
    let site = Arc::new(build_site(&SiteSpec::demo(120), 5));
    let root = site_root(&site);
    let modes = [
        FleetMode::PerSite,
        FleetMode::SharedPool { max_in_flight: 4 },
        FleetMode::Sharded { shards: 2, max_in_flight: 2 },
    ];
    for mode in modes {
        for (bad, want) in invalid_configs() {
            let mut fleet = Fleet::new(2).mode(mode);
            let cfgs = [CrawlConfig::default(), bad, CrawlConfig::default()];
            for (i, cfg) in cfgs.into_iter().enumerate() {
                let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(&site)));
                let job = FleetJob::new(format!("s{i}"), server, root.clone(), || {
                    Box::new(QueueStrategy::bfs())
                });
                fleet.push(job.config(cfg));
            }
            let out = fleet.run();
            assert_eq!(out.sites[1].outcome.as_ref().err(), Some(&want), "{mode:?}");
            for sibling in [&out.sites[0], &out.sites[2]] {
                let o = sibling.expect_outcome();
                assert_eq!(o.finish_reason, FinishReason::FrontierExhausted, "{mode:?}");
                assert!(o.targets_found() > 0, "{mode:?}");
            }
        }
    }
}

#[test]
fn session_rejects_unparseable_root_without_panicking() {
    let server = TrickServer;
    let cfg = CrawlConfig::default();
    let mut bfs = QueueStrategy::bfs();
    let err = CrawlSession::new(&server, None, "ftp://nope/", &mut bfs, &cfg).err();
    assert!(
        matches!(err, Some(ConfigError::InvalidRoot { ref url, .. }) if url == "ftp://nope/"),
        "got {err:?}"
    );
    // No request was spent probing it.
}

// ---------------------------------------------------------------------
// Observer event ordering.
// ---------------------------------------------------------------------

#[test]
fn events_arrive_in_happens_after_order() {
    let server = TrickServer;
    let cfg = CrawlConfig::default();
    let mut bfs = QueueStrategy::bfs();
    let mut log = EventLog::new();
    let session = CrawlSession::new(&server, None, TRICK_ROOT, &mut bfs, &cfg)
        .unwrap()
        .observe(&mut log);
    let out = session.run();

    let events = log.events();
    assert!(matches!(events.first(), Some(OwnedEvent::SessionStarted { root }) if root == TRICK_ROOT));
    assert!(matches!(events.last(), Some(OwnedEvent::SessionFinished { reason: FinishReason::FrontierExhausted })));

    // One Fetched per GET attempt, redirect hops included.
    let fetched = events.iter().filter(|e| matches!(e, OwnedEvent::Fetched { .. })).count() as u64;
    assert_eq!(fetched, out.pages_crawled);

    // The target's TargetRetrieved directly follows its Fetched.
    let tgt = events
        .iter()
        .position(|e| matches!(e, OwnedEvent::TargetRetrieved { url, .. } if url.ends_with("/data.csv")))
        .expect("target event present");
    assert!(
        matches!(&events[tgt - 1], OwnedEvent::Fetched { url, .. } if url.ends_with("/data.csv")),
        "TargetRetrieved must immediately follow its GET, got {:?}",
        events[tgt - 1]
    );

    // Links are discovered only after their page was fetched, and the
    // page's PageProcessed comes after all its LinkDiscovered events.
    let root_fetch = events
        .iter()
        .position(|e| matches!(e, OwnedEvent::Fetched { url, .. } if url == TRICK_ROOT))
        .unwrap();
    let first_link =
        events.iter().position(|e| matches!(e, OwnedEvent::LinkDiscovered { .. })).unwrap();
    let root_processed = events
        .iter()
        .position(|e| matches!(e, OwnedEvent::PageProcessed { url, .. } if url == TRICK_ROOT))
        .unwrap();
    let last_link = events
        .iter()
        .rposition(|e| matches!(e, OwnedEvent::LinkDiscovered { .. }))
        .unwrap();
    assert!(root_fetch < first_link && last_link < root_processed);

    // Each dead end produced one Abandoned with the right reason.
    let reason_of = |suffix: &str| {
        events
            .iter()
            .find_map(|e| match e {
                OwnedEvent::Abandoned { url, reason } if url.ends_with(suffix) => Some(*reason),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no Abandoned event for {suffix}"))
    };
    assert_eq!(reason_of("/spin"), AbandonReason::RedirectChainExhausted);
    assert_eq!(reason_of("/away"), AbandonReason::RedirectOffSite);
    assert_eq!(reason_of("/back"), AbandonReason::RedirectAlreadyKnown);
    assert_eq!(reason_of("/gone"), AbandonReason::HttpError(404));
}

#[test]
fn external_trace_observer_matches_builtin_trace() {
    // CrawlTrace really is "just one observer": an externally attached
    // TraceObserver reconstructs the outcome trace bit for bit.
    let site = build_site(&SiteSpec::demo(300), 7);
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);
    let cfg = CrawlConfig::default();
    let mut bfs = QueueStrategy::bfs();
    let mut mirror = TraceObserver::new();
    let out = CrawlSession::new(&server, None, &root, &mut bfs, &cfg)
        .unwrap()
        .observe(&mut mirror)
        .run();
    assert_eq!(out.trace.points(), mirror.trace().points());
}

// ---------------------------------------------------------------------
// Step-driven execution.
// ---------------------------------------------------------------------

#[test]
fn stepping_matches_run_exactly() {
    let site = build_site(&SiteSpec::demo(400), 9);
    let root = site.page(site.root()).url.clone();
    let cfg = CrawlConfig { budget: Budget::Requests(120), ..Default::default() };

    let server = SiteServer::new(site.clone());
    let mut bfs = QueueStrategy::bfs();
    let run_out = crawl(&server, None, &root, &mut bfs, &cfg);

    let server2 = SiteServer::new(site);
    let mut bfs2 = QueueStrategy::bfs();
    let mut session = CrawlSession::new(&server2, None, &root, &mut bfs2, &cfg).unwrap();
    let mut steps = 0u64;
    while !session.is_finished() {
        let report = session.step();
        assert!(report.steps >= steps, "steps are monotone");
        steps = report.steps;
    }
    assert_eq!(session.finish_reason(), Some(FinishReason::BudgetExhausted));
    let step_out = session.finish();

    assert_eq!(step_out.pages_crawled, run_out.pages_crawled);
    assert_eq!(step_out.targets_found(), run_out.targets_found());
    assert_eq!(step_out.trace.points(), run_out.trace.points());
    assert_eq!(step_out.finish_reason, FinishReason::BudgetExhausted);
}

#[test]
fn step_on_finished_session_is_a_reporting_noop() {
    let server = TrickServer;
    let cfg = CrawlConfig::default();
    let mut bfs = QueueStrategy::bfs();
    let mut session = CrawlSession::new(&server, None, TRICK_ROOT, &mut bfs, &cfg).unwrap();
    while !session.is_finished() {
        session.step();
    }
    let before = session.traffic().requests();
    let report = session.step();
    assert_eq!(session.finish_reason(), Some(FinishReason::FrontierExhausted));
    assert_eq!(report.fetched, 0);
    assert_eq!(session.traffic().requests(), before);
}

#[test]
fn cancelling_mid_crawl_reports_cancelled() {
    let site = build_site(&SiteSpec::demo(400), 9);
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);
    let cfg = CrawlConfig::default();
    let mut bfs = QueueStrategy::bfs();
    let mut session = CrawlSession::new(&server, None, &root, &mut bfs, &cfg).unwrap();
    session.step();
    session.step();
    let out = session.finish();
    assert_eq!(out.finish_reason, FinishReason::Cancelled);
    assert!(out.pages_crawled >= 1);
}

// ---------------------------------------------------------------------
// Observer-driven early-stop / budget events.
// ---------------------------------------------------------------------

#[test]
fn budget_exhaustion_is_announced() {
    let site = build_site(&SiteSpec::demo(300), 5);
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);
    let cfg = CrawlConfig { budget: Budget::Requests(20), ..Default::default() };
    let mut bfs = QueueStrategy::bfs();
    let mut log = EventLog::new();
    let out = CrawlSession::new(&server, None, &root, &mut bfs, &cfg)
        .unwrap()
        .observe(&mut log)
        .run();
    assert_eq!(out.finish_reason, FinishReason::BudgetExhausted);
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, OwnedEvent::BudgetExhausted { requests, .. } if *requests >= 20)));
}

/// A strategy wrapper is not needed to observe: observers see the decision
/// each link got.
#[test]
fn link_decisions_are_visible_to_observers() {
    let server = TrickServer;
    let cfg = CrawlConfig::default();
    let mut bfs = QueueStrategy::bfs();
    let mut log = EventLog::new();
    CrawlSession::new(&server, None, TRICK_ROOT, &mut bfs, &cfg)
        .unwrap()
        .observe(&mut log)
        .run();
    let enqueued = log
        .events()
        .iter()
        .filter(|e| {
            matches!(e, OwnedEvent::LinkDiscovered { decision: LinkDecision::Enqueue, .. })
        })
        .count();
    assert_eq!(enqueued, 6, "the root page links six URLs, all enqueued by BFS");
}

// ---------------------------------------------------------------------
// Refresh (PR 9): `queue_refresh` re-admits known URLs through the same
// window, `take_refreshed` hands the answers to a serving layer, and
// `serve_feed` buffers discovery fetches for it.
// ---------------------------------------------------------------------

fn refresh_site() -> Arc<Website> {
    Arc::new(build_site(&SiteSpec::demo(200), 23))
}

fn site_root(site: &Website) -> String {
    site.page(site.root()).url.clone()
}

/// Steps until the session finishes (again) and returns the reason.
fn drive(session: &mut CrawlSession<'_>) -> FinishReason {
    loop {
        session.step();
        if let Some(reason) = session.finish_reason() {
            return reason;
        }
    }
}

/// What `refresh_every_page_once` saw.
struct RefreshRun {
    /// Pages the serve feed buffered during discovery.
    fed: usize,
    /// (pages_crawled, requests, targets) when discovery finished.
    discovery: (u64, u64, u64),
    /// The same three after the refresh round.
    after: (u64, u64, u64),
    ledger: RefreshStats,
    refreshed: Vec<RefreshedPage>,
    session_finished_events: usize,
    reasons: (FinishReason, FinishReason),
}

/// BFS to exhaustion over a static site with the serve feed on, then one
/// refresh of every fed page — HTML and targets — on the finished
/// session, each against the hash the feed reported.
fn refresh_every_page_once(window: usize) -> RefreshRun {
    let site = refresh_site();
    let root = site_root(&site);
    let server = SiteServer::shared(site);
    let cfg = CrawlConfig { serve_feed: true, max_in_flight: window, ..Default::default() };
    let mut bfs = QueueStrategy::bfs();
    let mut log = EventLog::new();
    let mut session =
        CrawlSession::new(&server, None, &root, &mut bfs, &cfg).unwrap().observe(&mut log);
    let first = drive(&mut session);
    let discovery =
        (session.pages_crawled(), session.traffic().requests(), session.targets_found());
    let fed = session.take_refreshed();
    assert!(fed.iter().all(|p| !p.refresh && p.changed), "discovery fetches are first versions");
    for page in &fed {
        session.queue_refresh(&page.url, page.body_hash);
    }
    assert!(!session.is_finished(), "queue_refresh reopens a drained session");
    let second = drive(&mut session);
    let after = (session.pages_crawled(), session.traffic().requests(), session.targets_found());
    let ledger = session.refresh_stats();
    let refreshed = session.take_refreshed();
    let out = session.finish();
    assert_eq!(out.refresh, ledger, "the outcome carries the session's ledger");
    let session_finished_events = log
        .events()
        .iter()
        .filter(|e| matches!(e, OwnedEvent::SessionFinished { .. }))
        .count();
    RefreshRun {
        fed: fed.len(),
        discovery,
        after,
        ledger,
        refreshed,
        session_finished_events,
        reasons: (first, second),
    }
}

#[test]
fn refreshing_a_static_site_reopens_the_session_and_reports_unchanged() {
    for window in [1usize, 4] {
        let run = refresh_every_page_once(window);
        let n = run.fed as u64;
        assert!(n > 20, "the feed buffered the discovered corpus");
        assert_eq!(run.reasons, (FinishReason::FrontierExhausted, FinishReason::FrontierExhausted));
        assert_eq!(run.session_finished_events, 2, "a reopened session finishes a second time");
        // Every queued refresh dispatched (unlimited budget), and a
        // static origin never reports a change.
        let want = RefreshStats { scheduled: n, completed: n, unchanged: n, changed: 0, failed: 0 };
        assert_eq!(run.ledger, want, "window {window}");
        assert_eq!(run.ledger.attempted(), n);
        // Each refresh is exactly one more fetched page and one more
        // request; refreshed targets are not re-counted.
        assert_eq!(run.after.0, run.discovery.0 + n, "pages_crawled");
        assert_eq!(run.after.1, run.discovery.1 + n, "requests");
        assert_eq!(run.after.2, run.discovery.2, "targets_found");
        assert!(run.discovery.2 > 0, "the refreshed set included targets");
        assert_eq!(run.refreshed.len(), run.fed);
        assert!(run.refreshed.iter().all(|p| p.refresh && !p.changed && p.status == 200));
    }
}

#[test]
fn refresh_ledger_is_deterministic_across_runs() {
    let (a, b) = (refresh_every_page_once(4), refresh_every_page_once(4));
    assert_eq!(a.ledger, b.ledger);
    assert_eq!((a.discovery, a.after), (b.discovery, b.after));
    let answers = |run: &RefreshRun| -> Vec<(String, u64)> {
        run.refreshed.iter().map(|p| (p.url.clone(), p.body_hash)).collect()
    };
    assert_eq!(answers(&a), answers(&b), "refresh answers arrive in the same order");
}

#[test]
fn serve_feed_is_a_buffer_not_a_behaviour_change() {
    let site = refresh_site();
    let root = site_root(&site);
    for budget in [Budget::Unlimited, Budget::Requests(60)] {
        let run = |serve_feed: bool| {
            let server = SiteServer::shared(Arc::clone(&site));
            let cfg = CrawlConfig { serve_feed, budget, ..Default::default() };
            let mut bfs = QueueStrategy::bfs();
            crawl(&server, None, &root, &mut bfs, &cfg)
        };
        let (off, on) = (run(false), run(true));
        let urls = |out: &sb_crawler::CrawlOutcome| -> Vec<String> {
            out.targets.iter().map(|t| t.url.clone()).collect()
        };
        assert_eq!(urls(&on), urls(&off), "targets, in retrieval order, under {budget:?}");
        assert_eq!(on.pages_crawled, off.pages_crawled, "{budget:?}");
        assert_eq!(on.traffic, off.traffic, "{budget:?}");
        assert_eq!(on.trace.points(), off.trace.points(), "{budget:?}");
        assert_eq!(on.refresh, RefreshStats::default(), "feeding is not refreshing");
    }
}

#[test]
fn wrong_prior_hash_reports_a_changed_refresh() {
    let site = refresh_site();
    let root = site_root(&site);
    let server = SiteServer::shared(site);
    let cfg = CrawlConfig { serve_feed: true, ..Default::default() };
    let mut bfs = QueueStrategy::bfs();
    let mut session = CrawlSession::new(&server, None, &root, &mut bfs, &cfg).unwrap();
    drive(&mut session);
    let page = session.take_refreshed().swap_remove(0);
    session.queue_refresh(&page.url, page.body_hash ^ 1);
    drive(&mut session);
    let want = RefreshStats { scheduled: 1, completed: 1, unchanged: 0, changed: 1, failed: 0 };
    assert_eq!(session.refresh_stats(), want);
    let answers = session.take_refreshed();
    assert_eq!(answers.len(), 1);
    assert!(answers[0].refresh && answers[0].changed);
    assert_eq!(answers[0].url, page.url);
    assert_eq!(answers[0].body_hash, page.body_hash, "the origin did not move, the prior was wrong");
}

#[test]
fn unparseable_refresh_url_fails_without_spending_a_request() {
    let server = TrickServer;
    let cfg = CrawlConfig::default();
    let mut bfs = QueueStrategy::bfs();
    let mut session = CrawlSession::new(&server, None, TRICK_ROOT, &mut bfs, &cfg).unwrap();
    drive(&mut session);
    let before = (session.pages_crawled(), session.traffic().requests());
    session.queue_refresh("::junk::", 0);
    assert_eq!(drive(&mut session), FinishReason::FrontierExhausted);
    let want = RefreshStats { scheduled: 1, completed: 0, unchanged: 0, changed: 0, failed: 1 };
    assert_eq!(session.refresh_stats(), want);
    assert_eq!((session.pages_crawled(), session.traffic().requests()), before);
    assert!(session.take_refreshed().is_empty(), "nothing was fetched, nothing is served");
}

#[test]
fn budget_exhausted_session_refinishes_and_drops_the_refresh() {
    let site = refresh_site();
    let root = site_root(&site);
    let server = SiteServer::shared(site);
    let cfg = CrawlConfig { budget: Budget::Requests(20), ..Default::default() };
    let mut bfs = QueueStrategy::bfs();
    let mut session = CrawlSession::new(&server, None, &root, &mut bfs, &cfg).unwrap();
    assert_eq!(drive(&mut session), FinishReason::BudgetExhausted);
    let requests = session.traffic().requests();
    session.queue_refresh(&root, 0);
    assert!(!session.is_finished());
    let report = session.step();
    assert_eq!(
        session.finish_reason(),
        Some(FinishReason::BudgetExhausted),
        "re-finishes immediately"
    );
    assert_eq!(report.fetched, 0);
    let refresh = session.refresh_stats();
    assert_eq!(refresh.scheduled, 1);
    assert_eq!(refresh.attempted(), 0, "scheduled > attempted: the refresh was dropped");
    assert_eq!(session.traffic().requests(), requests);
}

/// A refresh fetch is not a selection and not a first sight: the strategy
/// gets no `on_fetched` and no `feedback*` call for it — live page, target
/// or dead page alike — so one-feedback-per-selection stays intact.
#[test]
fn refresh_fetches_are_invisible_to_the_strategy() {
    let cfg = CrawlConfig::default();
    let mut plain = Recorder::default();
    let plain_out = crawl(&TrickServer, None, TRICK_ROOT, &mut plain, &cfg);

    let server = TrickServer;
    let mut rec = Recorder::default();
    let mut session = CrawlSession::new(&server, None, TRICK_ROOT, &mut rec, &cfg).unwrap();
    drive(&mut session);
    for path in ["page2", "data.csv", "gone"] {
        session.queue_refresh(&format!("{TRICK_ROOT}{path}"), 0);
    }
    drive(&mut session);
    let answers = session.take_refreshed();
    let out = session.finish();

    let want = RefreshStats { scheduled: 3, completed: 2, unchanged: 0, changed: 2, failed: 1 };
    assert_eq!(out.refresh, want);
    assert_eq!(out.pages_crawled, plain_out.pages_crawled + 3);
    assert_eq!(out.targets_found(), plain_out.targets_found(), "a refreshed target is not re-counted");
    // The dead page's death certificate reaches the serving layer too.
    let statuses: Vec<(bool, u16)> = answers.iter().map(|p| (p.refresh, p.status)).collect();
    assert_eq!(statuses, vec![(true, 200), (true, 200), (true, 404)]);

    assert_eq!(rec.selected, plain.selected);
    assert_eq!(rec.observed, plain.observed, "no on_fetched for a refresh");
    assert_eq!(rec.rewards, plain.rewards, "no feedback for a refresh");
    assert_eq!(rec.targets, plain.targets, "no feedback_target for a refresh");
    assert_eq!(rec.errors, plain.errors, "no feedback_error for a failed refresh");
}

// ---------------------------------------------------------------------
// A fetch whose MIME type is neither HTML nor a target still settles: the
// selection gets `feedback_error`, a refresh counts as failed.
// ---------------------------------------------------------------------

#[test]
fn a_fetch_that_is_neither_html_nor_a_target_settles_once() {
    let policy = MimePolicy::with_targets(["application/pdf"]);
    let site = refresh_site();
    let root = site_root(&site);
    for window in [1usize, 4, 16] {
        let server = SiteServer::shared(Arc::clone(&site));
        let cfg = CrawlConfig { policy: policy.clone(), max_in_flight: window, ..Default::default() };
        let mut rec = Recorder::default();
        let out = crawl(&server, None, &root, &mut rec, &cfg);
        let (settled, selected) = rec.settled_and_selected();
        assert_eq!(settled, selected, "window {window}: one settlement per selection");
        assert!(
            rec.errors.len() as u64 > out.abandoned.total(),
            "window {window}: the site serves data files the policy does not count"
        );
    }

    // A refresh of a URL that is neither still counts as attempted.
    let server = TrickServer;
    let cfg = CrawlConfig { policy, ..Default::default() };
    let mut rec = Recorder::default();
    let mut session = CrawlSession::new(&server, None, TRICK_ROOT, &mut rec, &cfg).unwrap();
    drive(&mut session);
    session.queue_refresh(&format!("{TRICK_ROOT}data.csv"), 0);
    drive(&mut session);
    let want = RefreshStats { scheduled: 1, completed: 0, unchanged: 0, changed: 0, failed: 1 };
    assert_eq!(session.refresh_stats(), want);
    assert_eq!(session.refresh_stats().attempted(), 1);
    assert!(session.take_refreshed().is_empty(), "nothing usable is served");
    session.finish();
    assert!(rec.errors.contains(&rec.token_of("/data.csv")), "the CSV selection settled as an error");
}

// ---------------------------------------------------------------------
// Deferred link features (PR 24): the session filters a link on its href
// and computes tag path and text windows only for a link it hands to
// `decide` — the same features eager extraction computes for it.
// ---------------------------------------------------------------------

/// What `decide` was handed of one link: href, tag path, anchor text,
/// surrounding text.
type HandedLink = [String; 4];

/// BFS that asks for every feature and records, per fetched HTML page, the
/// links it was handed from it.
#[derive(Default)]
struct FeatureProbe {
    frontier: VecDeque<UrlId>,
    pages: Vec<(String, Vec<HandedLink>)>,
}

impl Strategy for FeatureProbe {
    fn name(&self) -> String {
        "FEATURE-PROBE".to_owned()
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        sb_html::LinkNeeds::ALL
    }

    fn next(&mut self, _rng: &mut StdRng) -> Option<Selection> {
        let id = self.frontier.pop_front()?;
        Some(Selection { url: SelUrl::Id(id), token: u64::from(id) })
    }

    fn decide(&mut self, link: &NewLink<'_>, _services: &mut Services<'_, '_>) -> LinkDecision {
        let page = self.pages.last_mut().expect("links arrive after their page's on_fetched");
        page.1.push([
            link.html.href.to_string(),
            link.html.tag_path.to_string(),
            link.html.anchor_text.to_string(),
            link.html.surrounding_text.to_string(),
        ]);
        self.frontier.push_back(link.id);
        LinkDecision::Enqueue
    }

    fn on_fetched(&mut self, _id: UrlId, url: &str, class: UrlClass) {
        if class == UrlClass::Html {
            self.pages.push((url.to_owned(), Vec::new()));
        }
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

#[test]
fn deferred_link_features_equal_eager_extraction() {
    use sb_webgraph::gen::hazard::{apply_hazards, HazardSpec};

    for hazards in [false, true] {
        let mut site = build_site(&SiteSpec::demo(300), 23);
        if hazards {
            apply_hazards(&mut site, &HazardSpec::scaled(300), 99);
        }
        let root = site_root(&site);
        let server = SiteServer::new(site);
        let mut probe = FeatureProbe::default();
        crawl(&server, None, &root, &mut probe, &CrawlConfig::default());
        assert!(probe.pages.len() > 100, "{} HTML pages", probe.pages.len());

        let (mut handed, mut rejected) = (0, 0);
        for (url, got) in &probe.pages {
            let body = server.get(url).body;
            let html = sb_html::body_str(&body);
            let eager = sb_html::extract_links_with(&html, sb_html::LinkNeeds::ALL);
            // The handed-over links are a subsequence of the page's links:
            // each is the first occurrence of its href (a later one is
            // already known), so a cursor finds its position.
            let mut at = 0;
            for link in got {
                at += eager[at..]
                    .iter()
                    .position(|l| l.href == link[0])
                    .unwrap_or_else(|| panic!("{url}: {} is not a link of the page", link[0]));
                let l = &eager[at];
                let want: HandedLink = [
                    l.href.to_string(),
                    l.tag_path.to_string(),
                    l.anchor_text.to_string(),
                    l.surrounding_text.to_string(),
                ];
                assert_eq!(link, &want, "{url}, link {at}");
                assert!(!link[1].is_empty() && !link[2].is_empty(), "features were asked for");
                at += 1;
            }
            handed += got.len();
            rejected += eager.len() - got.len();
        }
        // Most links of a site point at pages the crawl already knows.
        assert!(rejected > handed, "hazards {hazards}: {handed} handed, {rejected} rejected");
    }
}

// ---------------------------------------------------------------------
// One home per statistic: each number a crawl reports is read from one
// place, and agrees with the event stream it summarises.
// ---------------------------------------------------------------------

/// Counts the events `pick` matches.
fn count(events: &[OwnedEvent], pick: impl Fn(&OwnedEvent) -> bool) -> u64 {
    events.iter().filter(|e| pick(e)).count() as u64
}

#[test]
fn each_crawl_statistic_agrees_with_the_event_stream() {
    use sb_crawler::EarlyStopConfig;
    use origins::TrapServer;
    use sb_httpsim::{HazardPolicy, Outage, RetryPolicy, WithRobots};
    use sb_webgraph::gen::hazard::{apply_hazards, HazardSpec};

    // An early stop is a finish reason, announced once, at the crawl step
    // that counts the pages fetched before it.
    let trap = TrapServer::new("https://trap.example.org");
    let cfg = CrawlConfig {
        budget: Budget::Requests(100_000),
        early_stop: Some(EarlyStopConfig { nu: 50, kappa: 4 }),
        ..Default::default()
    };
    let mut bfs = QueueStrategy::bfs();
    let mut log = EventLog::new();
    let out = CrawlSession::new(&trap, None, &trap.root_url(), &mut bfs, &cfg)
        .unwrap()
        .observe(&mut log)
        .run();
    assert_eq!(out.finish_reason, FinishReason::EarlyStopped);
    let events = log.events();
    let stops: Vec<(usize, u64)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            OwnedEvent::EarlyStopped { step } => Some((i, *step)),
            _ => None,
        })
        .collect();
    assert_eq!(stops.len(), 1, "early stopping fires once");
    let (at, step) = stops[0];
    assert_eq!(Some(step), out.early_stop_at);
    let fetched = count(&events[..at], |e| matches!(e, OwnedEvent::Fetched { .. }));
    assert_eq!(step, fetched, "the step is the number of pages fetched before it");

    // A wide window over a hazard-laced origin with a transient outage,
    // retries and a robots.txt: per-step deliveries add up to every GET charged
    // (retries and the robots fetch included), `pages_crawled` counts the
    // `Fetched` events, and the root `SessionStarted` names is the URL the
    // first `Submitted` fetches.
    let mut site = build_site(&SiteSpec::demo(300), 23);
    apply_hazards(&mut site, &HazardSpec::scaled(300), 99);
    let root = site_root(&site);
    let origin = WithRobots::new(SiteServer::new(site), &root, "User-agent: *\nCrawl-delay: 2\n");
    let outage = Outage { share: 0.1, seed: 5, transient: true, exempt: Some(root.clone()) };
    let cfg = CrawlConfig {
        max_in_flight: 16,
        robots_agent: Some("sbcrawl".to_owned()),
        ..Default::default()
    };
    let transport = PipelinedTransport::new(&origin, cfg.policy.clone(), cfg.politeness)
        .with_window(16)
        .with_retry_policy(RetryPolicy::retries(2))
        .with_hazards(HazardPolicy::default().with_outage(outage));
    let mut bfs = QueueStrategy::bfs();
    let mut log = EventLog::new();
    let mut session =
        CrawlSession::with_transport(Box::new(transport), None, &root, &mut bfs, &cfg)
            .unwrap()
            .observe(&mut log);
    let mut fetched = 0;
    while !session.is_finished() {
        fetched += session.step().fetched;
    }
    let out = session.finish();
    assert_eq!(fetched, out.traffic.get_requests, "Σ StepReport.fetched");
    let events = log.events();
    // One GET per `Submitted` dispatch and one for robots.txt; the rest
    // are retried 503s.
    let submitted = count(events, |e| matches!(e, OwnedEvent::Submitted { .. }));
    assert!(out.traffic.get_requests > submitted + 1, "503s were retried");
    assert_eq!(out.pages_crawled, count(events, |e| matches!(e, OwnedEvent::Fetched { .. })));
    assert!(out.traffic.get_requests > out.pages_crawled, "retries are GETs, not pages");
    let started = events.iter().find_map(|e| match e {
        OwnedEvent::SessionStarted { root } => Some(root),
        _ => None,
    });
    let first_submitted = events.iter().find_map(|e| match e {
        OwnedEvent::Submitted { url, .. } => Some(url),
        _ => None,
    });
    assert_eq!(started, first_submitted, "SessionStarted names the root it fetches");
    assert!(started.is_some());

    // A fleet's traffic and abandon tally are the sums of its sites'.
    let mut fleet = Fleet::new(1).sharded(2, 4);
    for i in 0..4u64 {
        let mut site = build_site(&SiteSpec::demo(150), 40 + i);
        apply_hazards(&mut site, &HazardSpec::scaled(150), i);
        let root = site_root(&site);
        let server: SharedServer = Arc::new(SiteServer::new(site));
        fleet.push(FleetJob::new(format!("s{i}"), server, root, || Box::new(QueueStrategy::bfs())));
    }
    let out = fleet.run();
    let sites = || out.sites.iter().map(|s| s.expect_outcome());
    let requests: u64 = sites().map(|o| o.traffic.requests()).sum();
    let abandoned: u64 = sites().map(|o| o.abandoned.total()).sum();
    assert_eq!(out.traffic.requests(), requests);
    assert_eq!(out.abandoned.total(), abandoned);
    assert!(abandoned > 0, "hazard-laced sites abandon work");
}
