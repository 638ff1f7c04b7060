//! Quickstart: generate a small statistics portal, crawl it with
//! SB-CLASSIFIER under a request budget, and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sbcrawl::crawler::{crawl, Budget, CrawlConfig};
use sbcrawl::crawler::strategies::SbStrategy;
use sbcrawl::httpsim::SiteServer;
use sbcrawl::webgraph::{build_site, SiteSource, SiteSpec};

fn main() {
    // A ~1 000-page synthetic site: hubs, catalogs, articles, dead links,
    // redirects, and 250-odd data files to find.
    let spec = SiteSpec::demo(1000);
    let site = build_site(&spec, 42);
    let census = site.census();
    println!(
        "site: {} pages ({} HTML, {} targets), {:.1}% of HTML pages link to targets",
        census.available, census.html, census.targets, census.html_to_target_pct
    );

    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);

    // The paper's crawler with default hyper-parameters:
    // LR/URL_ONLY classifier (b=10), θ=0.75, n=2, α=2√2.
    let mut strategy = SbStrategy::classifier_default();
    let cfg = CrawlConfig {
        budget: Budget::Requests(400), // crawl ≤ 400 requests of a ~1k-page site
        seed: 7,
        ..Default::default()
    };
    let outcome = crawl(&server, None, &root, &mut strategy, &cfg);

    let tr = outcome.traffic;
    println!(
        "crawl:  {} GET + {} HEAD requests, {:.1} MB down, ~{:.0} min simulated wall-clock",
        tr.get_requests,
        tr.head_requests,
        tr.total_bytes() as f64 / 1e6,
        tr.elapsed_secs / 60.0
    );
    println!(
        "found:  {} / {} targets ({:.0}%) using {:.0}% of the requests a full crawl needs",
        outcome.targets_found(),
        census.targets,
        100.0 * outcome.targets_found() as f64 / census.targets as f64,
        100.0 * tr.requests() as f64 / census.available as f64,
    );
    println!("learned {} tag-path actions; top rewarding groups:", outcome.report.n_actions);
    let mut arms = outcome.report.arms;
    arms.sort_by(|a, b| b.mean_reward.total_cmp(&a.mean_reward));
    for arm in arms.iter().take(5) {
        println!(
            "  reward {:>6.2} (pulled {:>3}×, {:>3} paths)  {}",
            arm.mean_reward, arm.pulls, arm.members, arm.exemplar
        );
    }
}
