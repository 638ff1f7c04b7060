//! Race all crawlers of the paper on the same site under the same budget
//! (a miniature of Figure 4 / Table 2).
//!
//! ```sh
//! cargo run --release --example compare_crawlers
//! ```

use sbcrawl::crawler::{crawl, Budget, CrawlConfig};
use sbcrawl::crawler::strategies::{
    FocusedStrategy, OmniscientStrategy, QueueStrategy, SbConfig, SbStrategy, TpOffStrategy,
};
use sbcrawl::crawler::strategy::Strategy;
use sbcrawl::httpsim::SiteServer;
use sbcrawl::webgraph::gen::SiteSource;
use sbcrawl::webgraph::{build_site, SiteSpec, Website};

fn run_one(site: &Website, name: &str, strategy: &mut dyn Strategy, budget: u64) -> (String, u64, u64) {
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site.clone());
    let oracle: Option<&dyn SiteSource> = Some(site);
    let cfg = CrawlConfig { budget: Budget::Requests(budget), seed: 3, ..Default::default() };
    let out = crawl(&server, oracle, &root, strategy, &cfg);
    (name.to_owned(), out.targets_found(), out.traffic.requests())
}

fn main() {
    let spec = SiteSpec::demo(1500);
    let site = build_site(&spec, 11);
    let census = site.census();
    let budget = (census.available / 3) as u64;
    println!(
        "site: {} pages, {} targets | budget: {} requests (~1/3 of the site)\n",
        census.available, census.targets, budget
    );

    let targets: Vec<String> =
        site.target_ids().iter().map(|&id| site.page(id).url.clone()).collect();
    let mut rows = vec![
        run_one(&site, "OMNISCIENT (bound)", &mut OmniscientStrategy::new(targets), budget),
        run_one(&site, "SB-ORACLE", &mut SbStrategy::oracle(SbConfig::default()), budget),
    ];
    rows.push(run_one(&site, "SB-CLASSIFIER", &mut SbStrategy::classifier_default(), budget));
    rows.push(run_one(&site, "FOCUSED", &mut FocusedStrategy::new(), budget));
    rows.push(run_one(&site, "TP-OFF", &mut TpOffStrategy::new(45), budget));
    rows.push(run_one(&site, "BFS", &mut QueueStrategy::bfs(), budget));
    rows.push(run_one(&site, "DFS", &mut QueueStrategy::dfs(), budget));
    rows.push(run_one(&site, "RANDOM", &mut QueueStrategy::random(), budget));

    println!("{:<20} {:>8} {:>10} {:>8}", "crawler", "targets", "requests", "recall");
    for (name, found, requests) in rows {
        println!(
            "{name:<20} {found:>8} {requests:>10} {:>7.1}%",
            100.0 * found as f64 / census.targets as f64
        );
    }
    println!("\n(Expected shape: OMNISCIENT ≥ SB-ORACLE ≥ SB-CLASSIFIER > FOCUSED/TP-OFF > BFS/DFS/RANDOM.)");
}
