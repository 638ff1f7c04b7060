//! A production-shaped crawl: robots.txt compliance, crawl-delay
//! politeness, failure tolerance, and a durable archive of everything
//! fetched (the paper's Sec 4.4 replication database, persisted).
//!
//! Pipeline: fetch robots.txt → respect Disallow + Crawl-delay → crawl a
//! flaky origin through a recording ReplayStore → export the archive →
//! rebuild a fresh store from the bytes and replay the crawl offline with
//! zero upstream traffic.
//!
//! ```sh
//! cargo run --release --example polite_archiving_crawl
//! ```

use sbcrawl::crawler::{crawl, robots_filter, Budget, CrawlConfig};
use sbcrawl::crawler::strategies::SbStrategy;
use sbcrawl::httpsim::{
    FlakyServer, Mode, Politeness, ReplayStore, RobotsTxt, SiteServer, WithRobots,
};
use sbcrawl::webgraph::{build_site, SiteSpec};

fn main() {
    let site = build_site(&SiteSpec::demo(800), 9);
    let root = site.page(site.root()).url.clone();
    let n_targets = site.census().targets;

    // The origin: a site that publishes a robots.txt with an excluded
    // area and a 2-second crawl delay, and whose CDN occasionally 503s.
    let robots_body = "User-agent: *\nDisallow: /search\nDisallow: /*.json$\nCrawl-delay: 2\n";
    let origin = WithRobots::new(
        FlakyServer::new(SiteServer::new(site), 0.05, 3).recoverable().protecting(&root),
        &root,
        robots_body,
    );

    // Everything fetched goes through a recording replay store.
    let store = ReplayStore::new(origin, Mode::OnlineToLocal);

    // Compliance: parse robots.txt, honour Disallow via the engine's URL
    // filter and Crawl-delay via the politeness model.
    let robots = RobotsTxt::fetch(&store, &root);
    let delay = robots.crawl_delay("sbcrawl").unwrap_or(1.0);
    println!("robots.txt: {} group(s), crawl-delay {delay}s", robots.n_groups());

    let mut strategy = SbStrategy::classifier_default();
    let cfg = CrawlConfig {
        budget: Budget::Requests(600),
        politeness: Politeness { delay_secs: delay, ..Default::default() },
        url_filter: Some(robots_filter(robots, "sbcrawl")),
        seed: 1,
        ..Default::default()
    };
    let outcome = crawl(&store, None, &root, &mut strategy, &cfg);
    println!(
        "online crawl: {}/{} targets, {} requests, ~{:.1} h simulated at {delay}s delay",
        outcome.targets_found(),
        n_targets,
        outcome.traffic.requests(),
        outcome.traffic.elapsed_secs / 3600.0
    );

    // Persist the replication database (WARC-lite with per-record CRCs).
    let mut archive = Vec::new();
    let records = store.export_archive(&mut archive).expect("export archive");
    println!(
        "archive: {records} records, {:.2} MB, CRC-protected",
        archive.len() as f64 / 1e6
    );

    // A colleague replays the crawl fully offline from the bytes alone.
    let offline_site = build_site(&SiteSpec::demo(800), 9);
    let offline = ReplayStore::new(SiteServer::new(offline_site), Mode::Local);
    let loaded = offline.import_archive(&archive[..]).expect("import archive");
    let mut strategy2 = SbStrategy::classifier_default();
    let replayed = crawl(&offline, None, &root, &mut strategy2, &cfg_for_replay());
    println!(
        "offline replay: {loaded} records loaded, {} targets re-derived, {} upstream fetches",
        replayed.targets_found(),
        offline.upstream_gets()
    );
}

/// The offline replay can only touch archived URLs, so it reuses the same
/// budget and robots filter as the online crawl.
fn cfg_for_replay() -> CrawlConfig {
    let robots = RobotsTxt::parse("User-agent: *\nDisallow: /search\nDisallow: /*.json$\n");
    CrawlConfig {
        budget: Budget::Requests(600),
        url_filter: Some(robots_filter(robots, "sbcrawl")),
        seed: 1,
        ..Default::default()
    }
}
