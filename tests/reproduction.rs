//! Cross-crate reproduction tests: the paper's headline qualitative claims
//! must hold on the synthetic profiles at test scale.

use sbcrawl::crawler::{crawl, Budget, CrawlConfig};
use sbcrawl::crawler::strategies::{QueueStrategy, SbConfig, SbStrategy};
use sbcrawl::crawler::strategy::Strategy;
use sbcrawl::httpsim::SiteServer;
use sbcrawl::webgraph::{build_site, profile, SiteSource, Website};

fn scaled(code: &str, scale: f64, seed: u64) -> Website {
    build_site(&profile(code).expect("paper profile").scaled(scale), seed)
}

fn run(site: &Website, strategy: &mut dyn Strategy, budget: Budget, seed: u64) -> (u64, u64) {
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site.clone());
    let oracle: Option<&dyn SiteSource> = Some(site);
    let cfg = CrawlConfig { budget, seed, ..Default::default() };
    let out = crawl(&server, oracle, &root, strategy, &cfg);
    (out.targets_found(), out.traffic.requests())
}

/// The abstract's headline: "on some websites, in particular very large
/// ones, our crawler retrieves 90 % of the targets accessing only 20 % of
/// the webpages". We check it on the deep `in` profile.
#[test]
fn headline_90_percent_of_targets_at_a_fraction_of_requests() {
    let site = scaled("in", 0.004, 1);
    let census = site.census();
    let budget = Budget::Requests((census.available / 5) as u64); // 20 %
    let mut sb = SbStrategy::oracle(SbConfig::default());
    let (found, _) = run(&site, &mut sb, budget, 3);
    let frac = found as f64 / census.targets as f64;
    assert!(
        frac >= 0.9,
        "SB-ORACLE found only {:.0}% of targets at a 20% request budget",
        frac * 100.0
    );
}

/// Sec 4.5: SB-CLASSIFIER must beat BFS, DFS and RANDOM under the same
/// budget on a representative large profile.
#[test]
fn sb_classifier_beats_simple_baselines() {
    let site = scaled("wh", 0.004, 2);
    let census = site.census();
    let budget = Budget::Requests((census.available / 3) as u64);
    let mut sb = SbStrategy::classifier_default();
    let (sb_found, _) = run(&site, &mut sb, budget, 1);
    for (name, mut strategy) in [
        ("BFS", QueueStrategy::bfs()),
        ("DFS", QueueStrategy::dfs()),
        ("RANDOM", QueueStrategy::random()),
    ] {
        let (found, _) = run(&site, &mut strategy, budget, 1);
        assert!(
            sb_found > found,
            "{name} found {found} ≥ SB-CLASSIFIER's {sb_found} on wh"
        );
    }
}

/// SB-ORACLE is an upper bound for SB-CLASSIFIER in requests-to-exhaustion
/// (the classifier burns extra requests on dead URLs, Sec 4.5 / B.5).
#[test]
fn oracle_needs_no_more_requests_than_classifier() {
    let site = scaled("nc", 0.003, 3);
    let mut oracle = SbStrategy::oracle(SbConfig::default());
    let (o_found, o_req) = run(&site, &mut oracle, Budget::Unlimited, 2);
    let mut clf = SbStrategy::classifier_default();
    let (c_found, c_req) = run(&site, &mut clf, Budget::Unlimited, 2);
    assert!(o_found >= c_found * 99 / 100);
    assert!(
        o_req <= c_req,
        "oracle spent {o_req} requests, classifier {c_req} — oracle must be cheaper"
    );
}

/// Language independence (Sec 4.7): the same machinery works on the
/// multilingual profiles with no per-language configuration.
#[test]
fn multilingual_sites_crawl_fine() {
    for code in ["qa", "jp"] {
        let site = scaled(code, 0.004, 4);
        let census = site.census();
        let mut sb = SbStrategy::classifier_default();
        let (found, _) = run(&site, &mut sb, Budget::Unlimited, 1);
        assert!(
            found as usize >= census.targets * 9 / 10,
            "{code}: found {found} of {}",
            census.targets
        );
    }
}

/// Determinism (the paper's stability argument for AUER over Thompson):
/// identical seeds give identical crawls, end to end, across crates.
#[test]
fn full_stack_determinism() {
    let once = || {
        let site = scaled("cn", 0.004, 5);
        let mut sb = SbStrategy::classifier_default();
        run(&site, &mut sb, Budget::Requests(100), 9)
    };
    assert_eq!(once(), once());
}
