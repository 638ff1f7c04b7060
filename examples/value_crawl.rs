//! The value-driven batch frontier (PR 10): Crawl4LLM-style top-k
//! selection over one fixed weighted sum.
//!
//! Queue strategies pop one URL at a time in insertion order; the
//! `ValueStrategy` instead *ranks its whole frontier* with a weighted sum
//! of four terms — a depth/link-length prior, the online URL classifier's
//! confidence, a near-duplicate URL-shape penalty and a per-directory
//! bandit — and hands the session the top-k in one pass. With
//! `max_in_flight > 1` the session asks for exactly enough selections to
//! fill the in-flight window, so one ranking pass feeds one window-fill.
//!
//! This example pits BFS against the value frontier under a request
//! budget far too small to exhaust the site (ordering is the whole game).
//!
//! Run with: `cargo run --release --example value_crawl`

use sb_crawler::strategies::{QueueStrategy, ValueStrategy};
use sb_crawler::strategy::Strategy;
use sb_crawler::{Budget, CrawlConfig, CrawlSession};
use sb_httpsim::SiteServer;
use sb_webgraph::{build_site, SiteSpec};
use std::sync::Arc;

fn main() {
    // A 2000-page site, 400 GETs: ~1 request per 5 pages. Every wasted
    // fetch is a target not found.
    let site = Arc::new(build_site(&SiteSpec::demo(2000), 42));
    let root = site.page(site.root()).url.clone();
    let budget = Budget::Requests(400);

    let run = |strategy: &mut dyn Strategy, window: usize| {
        let server = SiteServer::shared(Arc::clone(&site));
        let cfg = CrawlConfig { budget, max_in_flight: window, ..Default::default() };
        CrawlSession::new(&server, None, &root, strategy, &cfg)
            .expect("valid config and root")
            .run()
    };

    println!("== 2000-page site, 400-request budget: targets per GET ==");
    let mut bfs = QueueStrategy::bfs();
    let out = run(&mut bfs, 1);
    let bfs_quality = out.targets_found() as f64 / out.traffic.requests().max(1) as f64;
    println!(
        "  {:<40} {:>3} targets  {:.4}/GET",
        "BFS (frontier order)",
        out.targets_found(),
        bfs_quality
    );

    // The default mix: depth prior + classifier confidence (heaviest) +
    // near-dup penalty + directory bandit. Batch = in-flight window.
    for window in [1usize, 4, 16] {
        let mut value = ValueStrategy::default_mix();
        let out = run(&mut value, window);
        let quality = out.targets_found() as f64 / out.traffic.requests().max(1) as f64;
        println!(
            "  {:<40} {:>3} targets  {:.4}/GET  ({:.2}x BFS)",
            format!("VALUE default mix, batch={window}"),
            out.targets_found(),
            quality,
            quality / bfs_quality.max(1e-12),
        );
    }
}
