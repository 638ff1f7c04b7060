//! The hostile-web scenario pack (PR 6): hazard-laced sites, transport
//! retries, the circuit breaker, and the automatic robots flow.
//!
//! Real crawl targets are not clean demo graphs: they hide calendar traps
//! behind innocuous links, answer errors with 200-status bodies, 503 at
//! random, and stall on heavy-tailed latency. This example walks the PR 6
//! toolkit end to end:
//!
//! 1. `apply_hazards` weaves a trap, a redirect farm, soft-404s and
//!    near-duplicate clusters into a generated site — only repurposing
//!    already-dead URLs, so the clean subspace is untouched;
//! 2. a budgeted BFS crawl shows the waste those hazards extract, measured
//!    against the `HazardReport` ground truth;
//! 3. a transient 503 outage behind `RetryPolicy` (capped exponential
//!    backoff, seeded jitter) shows transient failures recovered and hard
//!    failures classified into the per-reason abandon counters;
//! 4. a blackout outage trips the per-host circuit breaker: the host is
//!    quarantined and the rest of the frontier drains at zero cost;
//! 5. `CrawlConfig::robots_agent` makes the session fetch robots.txt on
//!    its own and route `Crawl-delay` into the transport gate.
//!
//! Run with: `cargo run --release --example hostile_crawl`

use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{Budget, CrawlConfig, CrawlSession, EventLog, OwnedEvent};
use sb_httpsim::{
    HazardPolicy, Outage, PipelinedTransport, Politeness, RetryPolicy, SiteServer, TailLatency,
    WithRobots,
};
use sb_webgraph::gen::hazard::{apply_hazards, HazardSpec};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::{build_site, SiteSpec};
use std::sync::Arc;

fn politeness() -> Politeness {
    Politeness { delay_secs: 0.25, bytes_per_sec: 256_000.0 }
}

fn main() {
    // -- 1. Lace a generated site with every hazard profile. ------------
    let mut site = build_site(&SiteSpec::demo(600), 42);
    let report = apply_hazards(&mut site, &HazardSpec::scaled(600), 7);
    println!("== Hazard overlay on a 600-page site ==");
    println!(
        "  {} trap pages, {} farm redirects, {} loop URLs, {} soft-404s, {} duplicate clones",
        report.trap_ids.len(),
        report.farm_ids.len(),
        report.loop_ids.len(),
        report.soft404_ids.len(),
        report.dup_ids.len(),
    );
    let site = Arc::new(site);
    let root = site.page(site.root()).url.clone();

    // -- 2. What do the hazards cost a budgeted BFS crawl? ---------------
    let server = SiteServer::shared(Arc::clone(&site));
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig { budget: Budget::Requests(500), ..Default::default() };
    let mut log = EventLog::new();
    let out = CrawlSession::new(&server, None, &root, &mut bfs, &cfg)
        .expect("valid root")
        .observe(&mut log)
        .run();
    let wasted = log
        .events()
        .iter()
        .filter(|e| matches!(e, OwnedEvent::Fetched { url, .. } if report.is_hazard_url(url)))
        .count();
    println!("\n== Budgeted BFS on the laced site ==");
    println!(
        "  {} requests, {} targets; {wasted} requests ({:.1} %) answered inside the hazard subspace",
        out.traffic.requests(),
        out.targets_found(),
        100.0 * wasted as f64 / out.traffic.requests() as f64,
    );

    // -- 3. Retries under a transient outage, abandon reasons counted. ---
    // The outage is decided per attempt: the first attempt of every GET of
    // 30 % of URLs answers 503 and every retry passes (HEADs and the
    // robots.txt fetch never meet it). The heavy latency tail occasionally
    // blows the 10 s timeout three times in a row and is abandoned as a
    // timeout.
    let origin = SiteServer::shared(Arc::clone(&site));
    let retry = RetryPolicy::retries(2).with_backoff(0.5, 8.0).with_jitter(0.2, 9);
    let hazards = HazardPolicy::seeded(17)
        .with_tail(TailLatency { prob: 0.2, scale_secs: 4.0, alpha: 1.3 })
        .with_timeout(10.0)
        .with_outage(Outage { share: 0.3, seed: 11, transient: true, exempt: Some(root.clone()) });
    let transport = PipelinedTransport::new(&origin, MimePolicy::default(), politeness())
        .with_window(8)
        .with_retry_policy(retry)
        .with_hazards(hazards);
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig { budget: Budget::Requests(500), max_in_flight: 8, ..Default::default() };
    let out = CrawlSession::with_transport(Box::new(transport), None, &root, &mut bfs, &cfg)
        .expect("valid root")
        .run();
    println!("\n== Transient outage + heavy tail, 2 retries with jittered backoff ==");
    println!(
        "  {} requests (retries included) for {} pages crawled, {} targets",
        out.traffic.requests(),
        out.pages_crawled,
        out.targets_found(),
    );
    println!(
        "  abandons by reason: {} http, {} timeout, {} retries-exhausted ({} total)",
        out.abandoned.http_error,
        out.abandoned.timeout,
        out.abandoned.retries_exhausted,
        out.abandoned.total(),
    );

    // -- 4. The circuit breaker against a blackout host. -----------------
    let blackout = Outage { share: 1.0, seed: 3, transient: false, exempt: Some(root.clone()) };
    let transport = PipelinedTransport::new(&origin, MimePolicy::default(), politeness())
        .with_window(4)
        .with_retry_policy(RetryPolicy::retries(1).with_quarantine_after(3))
        .with_hazards(HazardPolicy::default().with_outage(blackout));
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig { budget: Budget::Requests(500), max_in_flight: 4, ..Default::default() };
    let out = CrawlSession::with_transport(Box::new(transport), None, &root, &mut bfs, &cfg)
        .expect("valid root")
        .run();
    println!("\n== Blackout host, circuit breaker after 3 consecutive failures ==");
    println!(
        "  crawl ended after only {} requests; {} URLs quarantine-abandoned at zero cost",
        out.traffic.requests(),
        out.abandoned.quarantined,
    );

    // -- 5. robots.txt honoured automatically. ---------------------------
    let robots = WithRobots::new(
        SiteServer::shared(Arc::clone(&site)),
        &root,
        "User-agent: *\nCrawl-delay: 5",
    );
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig {
        budget: Budget::Requests(60),
        robots_agent: Some("sbcrawl".to_owned()),
        ..Default::default()
    };
    let out = CrawlSession::new(&robots, None, &root, &mut bfs, &cfg)
        .expect("valid root")
        .run();
    println!("\n== robots_agent: Crawl-delay 5 flows straight into the gate ==");
    println!(
        "  {} requests took {:.0} s simulated ({:.1} s/request — the configured politeness was {} s)",
        out.traffic.requests(),
        out.traffic.elapsed_secs,
        out.traffic.elapsed_secs / out.traffic.requests() as f64,
        CrawlConfig::default().politeness.delay_secs,
    );
}
