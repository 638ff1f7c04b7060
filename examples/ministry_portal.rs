//! The `ju` scenario: a deep ministry portal (mean target depth ~87 at full
//! scale) where targets hide behind long navigation chains, with early
//! stopping cutting the crawl once discovery dries up (Sec 4.8).
//!
//! ```sh
//! cargo run --release --example ministry_portal
//! ```

use sbcrawl::crawler::{crawl, CrawlConfig};
use sbcrawl::crawler::strategies::{QueueStrategy, SbStrategy};
use sbcrawl::crawler::EarlyStopConfig;
use sbcrawl::httpsim::SiteServer;
use sbcrawl::webgraph::{build_site, profile, SiteSource};

fn main() {
    // The real `ju` profile (French Ministry of Justice), scaled 1:50.
    let spec = profile("ju").expect("ju is a Table 1 profile").scaled(0.02);
    let site = build_site(&spec, 2026);
    let census = site.census();
    println!(
        "justice.gouv.fr (scaled): {} pages, {} targets, mean target depth {:.0} (±{:.0})\n",
        census.available, census.targets, census.target_depth.0, census.target_depth.1
    );

    let root = site.page(site.root()).url.clone();

    // Early stopping scaled to the site (ν=1000 at paper scale).
    let es = EarlyStopConfig::default().scaled(0.02);
    let cfg = CrawlConfig { early_stop: Some(es), seed: 1, ..Default::default() };

    let server = SiteServer::new(site.clone());
    let mut sb = SbStrategy::classifier_default();
    let out = crawl(&server, None, &root, &mut sb, &cfg);
    println!(
        "SB-CLASSIFIER: {} targets in {} requests{}",
        out.targets_found(),
        out.traffic.requests(),
        match out.early_stop_at {
            Some(t) => format!(", early-stopped at iteration {t}"),
            None => String::new(),
        }
    );

    let server = SiteServer::new(site.clone());
    let mut bfs = QueueStrategy::bfs();
    let out_bfs = crawl(&server, None, &root, &mut bfs, &cfg);
    println!(
        "BFS:           {} targets in {} requests{}",
        out_bfs.targets_found(),
        out_bfs.traffic.requests(),
        match out_bfs.early_stop_at {
            Some(t) => format!(", early-stopped at iteration {t}"),
            None => String::new(),
        }
    );

    // The paper's Sec 4.4 illustration: estimated wall-clock at 1 req/s.
    println!(
        "\nsimulated wall-clock (1 s politeness): SB {:.1} h vs BFS {:.1} h",
        out.traffic.elapsed_secs / 3600.0,
        out_bfs.traffic.elapsed_secs / 3600.0
    );
}
