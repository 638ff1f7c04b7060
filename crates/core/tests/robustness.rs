//! Failure injection and compliance: the engine against hostile transport.
//!
//! A production crawler must terminate on infinite URL spaces (robot
//! traps), degrade gracefully under transient 5xx bursts, and honour
//! robots.txt without spending a single request on an excluded URL. These
//! tests drive the shared engine (Algorithms 3–4) through the
//! `sb-httpsim` failure-injection servers.

use sb_crawler::{crawl, Budget, CrawlConfig, FinishReason};
use sb_crawler::strategies::{QueueStrategy, SbStrategy};
use sb_httpsim::{EnforcedRobots, FlakyServer, RobotsTxt, SiteServer, TrapServer, WithRobots};
use sb_webgraph::url::Url;
use sb_webgraph::{build_site, SiteSource, SiteSpec};

// ---------------------------------------------------------------------
// Robot trap: infinite URL space
// ---------------------------------------------------------------------

#[test]
fn dfs_in_a_trap_burns_its_whole_budget() {
    let trap = TrapServer::new("https://trap.example.org");
    let root = trap.root_url();
    let mut dfs = QueueStrategy::dfs();
    let cfg = CrawlConfig { budget: Budget::Requests(300), ..Default::default() };
    let outcome = crawl(&trap, None, &root, &mut dfs, &cfg);
    // The crawl must stop at the budget — not hang, not overflow.
    assert!(outcome.pages_crawled <= 301);
    assert!(outcome.traffic.requests() >= 300, "DFS keeps descending forever");
}

#[test]
fn bfs_in_a_trap_still_finds_the_shallow_target() {
    let trap = TrapServer::new("https://trap.example.org");
    let root = trap.root_url();
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig { budget: Budget::Requests(100), ..Default::default() };
    let outcome = crawl(&trap, None, &root, &mut bfs, &cfg);
    assert_eq!(outcome.targets_found(), 1, "the entry-page CSV is at depth 1");
}

#[test]
fn early_stopping_escapes_the_trap() {
    let trap = TrapServer::new("https://trap.example.org");
    let root = trap.root_url();
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig {
        budget: Budget::Requests(100_000),
        early_stop: Some(sb_crawler::EarlyStopConfig { nu: 50, kappa: 4 }),
        ..Default::default()
    };
    let outcome = crawl(&trap, None, &root, &mut bfs, &cfg);
    assert_eq!(
        outcome.finish_reason,
        FinishReason::EarlyStopped,
        "target discovery flatlines ⇒ the slope rule must fire"
    );
    assert!(
        outcome.traffic.requests() < 10_000,
        "stopped after {} requests",
        outcome.traffic.requests()
    );
}

#[test]
fn engine_never_fetches_a_trap_url_twice() {
    // The seen-set is what makes traps merely wasteful instead of loops.
    let trap = TrapServer::new("https://trap.example.org");
    let root = trap.root_url();
    let mut dfs = QueueStrategy::dfs();
    let cfg = CrawlConfig { budget: Budget::Requests(400), ..Default::default() };
    let outcome = crawl(&trap, None, &root, &mut dfs, &cfg);
    // /trap/n links to n+1 and 2n+3; revisits would show as pages_crawled
    // exceeding distinct URLs. Requests == pages crawled on an all-200 site.
    assert_eq!(outcome.pages_crawled, outcome.traffic.get_requests);
}

// ---------------------------------------------------------------------
// Flaky origin: transient and hard 5xx
// ---------------------------------------------------------------------

#[test]
fn crawl_survives_a_hard_5xx_outage_on_a_third_of_urls() {
    let site = build_site(&SiteSpec::demo(400), 11);
    let root = site.page(site.root()).url.clone();
    let total_targets = site.census().targets as u64;
    let flaky = FlakyServer::new(SiteServer::new(site), 0.33, 5).protecting(&root);
    let mut bfs = QueueStrategy::bfs();
    let outcome = crawl(&flaky, None, &root, &mut bfs, &CrawlConfig::default());
    assert!(flaky.injected() > 0, "failures were actually injected");
    assert!(outcome.targets_found() > 0, "the crawl still makes progress");
    assert!(
        outcome.targets_found() < total_targets,
        "a hard outage on a third of URLs must cost some targets"
    );
}

#[test]
fn sb_classifier_survives_failure_injection() {
    let site = build_site(&SiteSpec::demo(400), 11);
    let root = site.page(site.root()).url.clone();
    let flaky = FlakyServer::new(SiteServer::new(site), 0.2, 9).recoverable();
    let mut sb = SbStrategy::classifier_default();
    let cfg = CrawlConfig { budget: Budget::Requests(500), ..Default::default() };
    let outcome = crawl(&flaky, None, &root, &mut sb, &cfg);
    assert!(outcome.targets_found() > 0);
    assert!(!outcome.aborted_oom);
}

#[test]
fn deterministic_under_identical_failure_seeds() {
    let run = || {
        let site = build_site(&SiteSpec::demo(300), 11);
        let root = site.page(site.root()).url.clone();
        let flaky = FlakyServer::new(SiteServer::new(site), 0.25, 5);
        let mut bfs = QueueStrategy::bfs();
        let outcome = crawl(&flaky, None, &root, &mut bfs, &CrawlConfig::default());
        (outcome.pages_crawled, outcome.targets_found(), outcome.traffic.requests())
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------
// robots.txt compliance
// ---------------------------------------------------------------------

/// PR 6: setting `robots_agent` makes the session fetch `/robots.txt` on
/// its own, route every admission decision through the parsed rules, and
/// feed `Crawl-delay` into the transport gate — no manual admission or
/// `Politeness` plumbing. The enforcing server proves compliance: a leaked
/// request to a disallowed URL would cost a 403 there but not on the soft
/// server, so identical traffic on both means no excluded URL was fetched.
#[test]
fn robots_agent_auto_applies_disallow_and_crawl_delay() {
    let site = build_site(&SiteSpec::demo(400), 17);
    let root_url = site.page(site.root()).url.clone();
    let prefix = site
        .pages()
        .iter()
        .filter_map(|p| {
            let u = Url::parse(&p.url).ok()?;
            let seg = u.path.split('/').nth(1)?.to_owned();
            (!seg.is_empty()).then_some(format!("/{seg}/"))
        })
        .find(|pre| !root_url.ends_with(pre.as_str()))
        .expect("site has sectioned paths");
    let robots_body = format!("User-agent: *\nDisallow: {prefix}\nCrawl-delay: 5");

    // Baseline with no agent configured: robots.txt is never requested and
    // the excluded section is crawled at the default 1 s politeness.
    let plain = SiteServer::new(site.clone());
    let mut bfs = QueueStrategy::bfs();
    let blind = crawl(&plain, None, &root_url, &mut bfs, &CrawlConfig::default());

    let enforcing =
        EnforcedRobots::new(SiteServer::new(site.clone()), &root_url, robots_body.clone(), "sbcrawl");
    let mut bfs2 = QueueStrategy::bfs();
    let cfg = CrawlConfig { robots_agent: Some("sbcrawl".to_owned()), ..Default::default() };
    let auto = crawl(&enforcing, None, &root_url, &mut bfs2, &cfg);

    let soft = WithRobots::new(SiteServer::new(site), &root_url, robots_body);
    let mut bfs3 = QueueStrategy::bfs();
    let auto_soft = crawl(&soft, None, &root_url, &mut bfs3, &cfg);

    assert_eq!(
        auto.traffic.requests(),
        auto_soft.traffic.requests(),
        "enforcement changes nothing ⇒ no disallowed URL was ever requested"
    );
    assert_eq!(auto.targets_found(), auto_soft.targets_found());
    assert!(
        auto.pages_crawled < blind.pages_crawled,
        "the Disallow section must shrink coverage ({} vs {})",
        auto.pages_crawled,
        blind.pages_crawled
    );
    let per_request = auto.traffic.elapsed_secs / auto.traffic.requests() as f64;
    assert!(
        per_request > 4.0,
        "Crawl-delay 5 must reach the gate: {per_request:.2}s per request"
    );

    // An origin with no robots.txt (404) admits everything: the handshake
    // costs its one request and changes nothing else.
    let mut bfs4 = QueueStrategy::bfs();
    let no_file = crawl(&plain, None, &root_url, &mut bfs4, &cfg);
    assert_eq!(no_file.pages_crawled, blind.pages_crawled);
    assert_eq!(no_file.traffic.requests(), blind.traffic.requests() + 1);
}

#[test]
fn crawl_delay_raises_estimated_wall_clock() {
    let site = build_site(&SiteSpec::demo(200), 3);
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);

    let run_with_delay = |delay: f64| {
        let mut bfs = QueueStrategy::bfs();
        let cfg = CrawlConfig {
            budget: Budget::Requests(150),
            politeness: sb_httpsim::Politeness { delay_secs: delay, ..Default::default() },
            ..Default::default()
        };
        crawl(&server, None, &root, &mut bfs, &cfg).traffic.elapsed_secs
    };

    let t1 = run_with_delay(1.0);
    // A robots Crawl-delay of 5 feeds straight into the politeness model.
    let robots = RobotsTxt::parse("User-agent: *\nCrawl-delay: 5");
    let t5 = run_with_delay(robots.crawl_delay("sbcrawl").unwrap());
    assert!(t5 > t1 * 3.0, "5 s delay must dominate: {t1:.0}s vs {t5:.0}s");
}

/// A 200 `text/html` answer, for the hand-written origins below.
fn html_page(body: &str) -> sb_httpsim::Response {
    sb_httpsim::Response {
        status: 200,
        headers: sb_httpsim::Headers {
            content_type: Some("text/html".to_owned()),
            content_length: Some(body.len() as u64),
            location: None,
        },
        body: body.as_bytes().to_vec().into(),
    }
}

/// `https://q.example/` links `/cal?month=1` and `/r.pdf?page=2`; every
/// GET the origin sees is recorded.
struct QueryLinksServer {
    fetched: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
}

impl sb_httpsim::HttpServer for QueryLinksServer {
    fn head(&self, url: &str) -> sb_httpsim::HeadResponse {
        self.get(url).head()
    }

    fn get(&self, url: &str) -> sb_httpsim::Response {
        self.fetched.lock().expect("no panic holds the log").push(url.to_owned());
        match url.strip_prefix("https://q.example").unwrap_or("<off>") {
            "/" => html_page(
                "<html><body><a href=\"/cal?month=1\">calendar</a>\
                 <a href=\"/r.pdf?page=2\">report</a></body></html>",
            ),
            "/cal?month=1" | "/r.pdf?page=2" => html_page("<html><body>leaf</body></html>"),
            _ => sb_httpsim::response::error_response(404),
        }
    }
}

/// robots rules match the path *and* the query, as `RobotsTxt::allows` is
/// unit-tested to: the calendar-trap rule `Disallow: /*?month=` must fire,
/// and `Disallow: /*.pdf$` must not block a `.pdf` URL that carries a
/// query. The enforcing origin shares the matcher, so the request logs are
/// asserted directly on top of the enforcing-vs-soft parity.
#[test]
fn robots_rules_see_the_query_string() {
    const ROBOTS: &str = "User-agent: *\nDisallow: /*?month=\nDisallow: /*.pdf$";
    let root = "https://q.example/";
    let cfg = CrawlConfig { robots_agent: Some("sbcrawl".to_owned()), ..Default::default() };
    let run = |enforce: bool| {
        let fetched = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let origin = QueryLinksServer { fetched: std::sync::Arc::clone(&fetched) };
        let mut bfs = QueueStrategy::bfs();
        let outcome = if enforce {
            crawl(&EnforcedRobots::new(origin, root, ROBOTS, "sbcrawl"), None, root, &mut bfs, &cfg)
        } else {
            crawl(&WithRobots::new(origin, root, ROBOTS), None, root, &mut bfs, &cfg)
        };
        let log = fetched.lock().expect("no panic holds the log").clone();
        (log, outcome.traffic)
    };

    let (enforced_log, enforced_traffic) = run(true);
    let (soft_log, soft_traffic) = run(false);
    assert_eq!(enforced_traffic, soft_traffic, "enforcement changes nothing for a compliant crawl");
    assert_eq!(enforced_log, soft_log);
    assert_eq!(
        soft_log,
        ["https://q.example/", "https://q.example/r.pdf?page=2"],
        "the calendar URL is never requested, the report is"
    );
}

/// `"inf".parse::<f64>()` succeeds. A non-finite `Crawl-delay` is ignored
/// like a negative one, so the host gate (and the simulated makespan the
/// paper's time metric reads) stays finite.
#[test]
fn non_finite_crawl_delay_is_ignored() {
    let site = build_site(&SiteSpec::demo(200), 3);
    let root = site.page(site.root()).url.clone();
    let elapsed_under = |robots_body: &str| {
        let server = WithRobots::new(SiteServer::new(site.clone()), &root, robots_body);
        let mut bfs = QueueStrategy::bfs();
        let cfg = CrawlConfig {
            budget: Budget::Requests(60),
            robots_agent: Some("sbcrawl".to_owned()),
            ..Default::default()
        };
        crawl(&server, None, &root, &mut bfs, &cfg).traffic.elapsed_secs
    };
    let plain = elapsed_under("User-agent: *\n");
    let poisoned = elapsed_under("User-agent: *\nCrawl-delay: inf\n");
    assert!(poisoned.is_finite(), "Crawl-delay: inf reached the gate: {poisoned}");
    assert!((poisoned - plain).abs() < 1.0, "{plain} s without the line, {poisoned} s with it");
}

// ---------------------------------------------------------------------
// Relative references that carry a URL
// ---------------------------------------------------------------------

/// `https://t.example/` links `/login?next=https://t.example/x` and
/// `/moved`, which 301s to `/landing?from=https://t.example/moved`; every
/// GET is recorded.
#[derive(Default)]
struct EmbeddedUrlServer {
    fetched: std::sync::Mutex<Vec<String>>,
}

impl sb_httpsim::HttpServer for EmbeddedUrlServer {
    fn head(&self, url: &str) -> sb_httpsim::HeadResponse {
        self.get(url).head()
    }

    fn get(&self, url: &str) -> sb_httpsim::Response {
        use sb_httpsim::{Body, Headers, Response};
        self.fetched.lock().expect("no panic holds the log").push(url.to_owned());
        match url.strip_prefix("https://t.example").unwrap_or("<off>") {
            "/" => html_page(
                "<html><body>\
                 <a href=\"/login?next=https://t.example/x\">log in</a>\
                 <a href=\"/moved\">moved</a>\
                 </body></html>",
            ),
            "/moved" => Response {
                status: 301,
                headers: Headers {
                    content_type: None,
                    content_length: Some(0),
                    location: Some("/landing?from=https://t.example/moved".to_owned()),
                },
                body: Body::empty(),
            },
            "/login?next=https://t.example/x" | "/landing?from=https://t.example/moved" => {
                html_page("<html><body>nothing here</body></html>")
            }
            _ => sb_httpsim::response::error_response(404),
        }
    }
}

fn crawl_embedded_url_site() -> (Vec<String>, sb_crawler::CrawlOutcome) {
    let server = EmbeddedUrlServer::default();
    let mut bfs = QueueStrategy::bfs();
    let outcome = crawl(&server, None, "https://t.example/", &mut bfs, &CrawlConfig::default());
    (server.fetched.into_inner().expect("no panic holds the log"), outcome)
}

/// A relative href whose query carries a URL resolves against the page; it
/// is not mistaken for an absolute URL and dropped.
#[test]
fn href_carrying_a_url_is_fetched() {
    let (fetched, _) = crawl_embedded_url_site();
    assert!(
        fetched.iter().any(|u| u == "https://t.example/login?next=https://t.example/x"),
        "the linked login page must be fetched: {fetched:?}"
    );
}

/// Likewise a 301 whose `Location` is such a reference is followed, not
/// abandoned as unparseable.
#[test]
fn redirect_location_carrying_a_url_is_followed() {
    let (fetched, outcome) = crawl_embedded_url_site();
    assert!(
        fetched.iter().any(|u| u == "https://t.example/landing?from=https://t.example/moved"),
        "the redirect must be followed: {fetched:?}"
    );
    assert_eq!(outcome.abandoned.redirect, 0);
}

// ---------------------------------------------------------------------
// Default ports
// ---------------------------------------------------------------------

/// `https://p.example/` links `/only` solely as `https://P.example:443/only`,
/// and `/only` links both pages back through the same port; every GET is
/// recorded.
#[derive(Default)]
struct DefaultPortServer {
    fetched: std::sync::Mutex<Vec<String>>,
}

impl sb_httpsim::HttpServer for DefaultPortServer {
    fn head(&self, url: &str) -> sb_httpsim::HeadResponse {
        self.get(url).head()
    }

    fn get(&self, url: &str) -> sb_httpsim::Response {
        self.fetched.lock().expect("no panic holds the log").push(url.to_owned());
        match url.strip_prefix("https://p.example").unwrap_or("<off>") {
            "/" => html_page(
                "<html><body><a href=\"https://P.example:443/only\">only</a></body></html>",
            ),
            "/only" => html_page(
                "<html><body><a href=\"https://p.example:443/\">home</a>\
                 <a href=\"https://p.example:443/only\">self</a></body></html>",
            ),
            _ => sb_httpsim::response::error_response(404),
        }
    }
}

/// A link that spells out the scheme's default port names the same page as
/// one without it: it stays on the site, and the page is fetched once.
#[test]
fn page_linked_only_through_its_default_port_is_fetched_once() {
    let server = DefaultPortServer::default();
    let mut bfs = QueueStrategy::bfs();
    let outcome = crawl(&server, None, "https://p.example/", &mut bfs, &CrawlConfig::default());
    let fetched = server.fetched.into_inner().expect("no panic holds the log");
    assert_eq!(fetched, ["https://p.example/", "https://p.example/only"]);
    assert_eq!(outcome.finish_reason, FinishReason::FrontierExhausted);
}
