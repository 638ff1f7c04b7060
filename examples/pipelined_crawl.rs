//! The pipelined transport: intra-site parallel fetching (PR 4).
//!
//! One `CrawlSession` used to serialise on simulated latency — every GET
//! waited out the politeness delay *and* its transfer before the next URL
//! could even be requested. The nonblocking `Transport` keeps a bounded
//! window of requests in flight instead: transfers overlap, while the
//! per-host politeness gate still spaces dispatches a full delay apart.
//!
//! This example crawls one latency-simulated site three times (in-flight
//! window 1, 4, 16) and prints the simulated makespan of each run —
//! identical coverage, shrinking clock. It then shows the transport used
//! directly: submit/poll, a robots `Crawl-delay` raising the gate, and
//! retry-through-the-pipeline over a flaky origin.
//!
//! Run with: `cargo run --release --example pipelined_crawl`

use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{CrawlConfig, CrawlSession};
use sb_httpsim::transport::{PipelinedTransport, Request, Transport};
use sb_httpsim::{FlakyServer, Politeness, RetryPolicy, SiteServer};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::{build_site, SiteSpec};
use std::sync::Arc;

fn main() {
    // A slow simulated wire: 1 s politeness delay, 600 B/s link — each
    // page costs several seconds of transfer, the regime where pipelining
    // pays (a fast link is gate-bound and windows cannot help).
    let politeness = Politeness { delay_secs: 1.0, bytes_per_sec: 600.0 };
    let site = Arc::new(build_site(&SiteSpec::demo(800), 42));
    let root = site.page(site.root()).url.clone();

    println!("== BFS exhaustion of an 800-page latency-simulated site ==");
    let mut serial = None;
    for window in [1usize, 4, 16] {
        let server = SiteServer::shared(Arc::clone(&site));
        let mut bfs = QueueStrategy::bfs();
        let cfg = CrawlConfig { politeness, max_in_flight: window, ..Default::default() };
        let out = CrawlSession::new(&server, None, &root, &mut bfs, &cfg)
            .expect("valid config and root")
            .run();
        let makespan = out.traffic.elapsed_secs;
        let serial_makespan = *serial.get_or_insert(makespan);
        println!(
            "  in-flight {window:>2}: {} requests, {} targets, {:>7.1}h simulated ({:.2}x)",
            out.traffic.requests(),
            out.targets_found(),
            makespan / 3600.0,
            serial_makespan / makespan,
        );
    }

    // The transport stands alone too: submit GETs, poll completions in
    // deterministic (arrival, id) order.
    println!("\n== Raw transport: 6 submits, polled in arrival order ==");
    let server = SiteServer::shared(Arc::clone(&site));
    let mut t = PipelinedTransport::new(&server, MimePolicy::default(), politeness).with_window(6);
    let urls: Vec<String> = site.pages().iter().map(|p| p.url.clone()).take(6).collect();
    for u in &urls {
        t.submit(Request::get(u));
    }
    while t.in_flight() > 0 {
        for (id, f) in t.poll() {
            println!(
                "  #{id} -> {} ({} wire bytes) at t={:.1}s",
                f.status,
                f.wire_bytes,
                t.traffic().elapsed_secs
            );
        }
    }

    // A robots Crawl-delay raises the per-host gate above the global
    // politeness delay; retries ride the same pipeline over flaky origins.
    println!("\n== Retry-through-pipeline over a flaky origin ==");
    let flaky = FlakyServer::new(SiteServer::shared(Arc::clone(&site)), 0.3, 7).recoverable();
    let mut t = PipelinedTransport::new(&flaky, MimePolicy::default(), politeness)
        .with_window(4)
        .with_retry_policy(RetryPolicy::retries(1));
    let robots = sb_httpsim::RobotsTxt::parse("User-agent: *\nCrawl-delay: 2");
    t.apply_crawl_delay(&robots, "sbcrawl", "www.stats.example.org");
    let mut ok = 0;
    for chunk in urls.chunks(4) {
        for u in chunk {
            t.submit(Request::get(u));
        }
        while t.in_flight() > 0 {
            ok += t.poll().iter().filter(|(_, f)| f.status == 200).count();
        }
    }
    println!(
        "  {} of {} URLs answered 200 despite 503 injection ({} GETs charged, incl. retries)",
        ok,
        urls.len(),
        t.traffic().get_requests
    );
}
