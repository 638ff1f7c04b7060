//! End-to-end statistics-data acquisition: crawl a statistics office site,
//! keep the target bodies, and mine them for statistic tables — the paper's
//! full motivation (Sec 1) in one program, with the Table 7 measurement at
//! the end.
//!
//! ```sh
//! cargo run --release --example sd_pipeline
//! ```

use sbcrawl::crawler::{crawl, CrawlConfig};
use sbcrawl::crawler::strategies::SbStrategy;
use sbcrawl::httpsim::SiteServer;
use sbcrawl::sdetect::detect_tables;
use sbcrawl::webgraph::{build_site, profile, SiteSource};
use std::collections::BTreeMap;

fn main() {
    // INSEE-like profile: 41 % of HTML pages link to targets, CSV-heavy.
    let spec = profile("is").expect("is is a Table 1 profile").scaled(0.01);
    let site = build_site(&spec, 9);
    println!("crawling {} (scaled: {} pages)…", spec.name, site.census().available);

    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);
    let mut sb = SbStrategy::classifier_default();
    let cfg = CrawlConfig { keep_target_bodies: true, seed: 4, ..Default::default() };
    let out = crawl(&server, None, &root, &mut sb, &cfg);
    println!("retrieved {} targets in {} requests\n", out.targets_found(), out.traffic.requests());

    // Mine every retrieved file for statistic tables.
    let mut by_format: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    let mut with_sd = 0usize;
    let mut total_tables = 0usize;
    for t in &out.targets {
        let body = t.body.as_deref().unwrap_or(&[]);
        let d = detect_tables(body, &t.mime);
        let e = by_format.entry(format!("{:?}", d.format)).or_default();
        e.0 += 1;
        if d.has_sd() {
            e.1 += 1;
            e.2 += d.n_tables();
            with_sd += 1;
            total_tables += d.n_tables();
        }
    }
    println!("{:<14} {:>7} {:>9} {:>8}", "format", "files", "with SDs", "tables");
    for (fmt, (files, sd, tables)) in &by_format {
        println!("{fmt:<14} {files:>7} {sd:>9} {tables:>8}");
    }
    println!(
        "\nSD yield: {:.0}% of retrieved targets contain ≥1 statistic table; {:.1} tables per SD-bearing file",
        100.0 * with_sd as f64 / out.targets.len().max(1) as f64,
        total_tables as f64 / with_sd.max(1) as f64
    );
}
