//! Property-based tests over the full stack: arbitrary site shapes must
//! never break crawl invariants.

use proptest::prelude::*;
use sbcrawl::crawler::{crawl, Budget, CrawlConfig};
use sbcrawl::crawler::strategies::{QueueStrategy, SbStrategy};
use sbcrawl::httpsim::SiteServer;
use sbcrawl::webgraph::{build_site, SiteSource, SiteSpec};

fn arb_spec() -> impl Strategy<Value = SiteSpec> {
    (
        80usize..400,          // n_pages
        0.05f64..0.6,          // target_frac
        0.02f64..0.4,          // html_to_target_frac
        0.0f64..0.6,           // extensionless
        0.0f64..0.2,           // error_frac
        proptest::bool::ANY,   // unique_ids
    )
        .prop_map(|(n, tf, lf, ext, err, uids)| {
            let mut s = SiteSpec::demo(n);
            s.target_frac = tf;
            s.html_to_target_frac = lf;
            s.extensionless = ext;
            s.error_frac = err;
            s.unique_ids = uids;
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// BFS on any generated site retrieves exactly the census targets, never
    /// fetches a URL twice, and its trace is monotone.
    #[test]
    fn bfs_exhausts_any_site((spec, seed) in (arb_spec(), 0u64..1000)) {
        let site = build_site(&spec, seed);
        let census = site.census();
        let root = site.page(site.root()).url.clone();
        let server = SiteServer::new(site.clone());
        let mut bfs = QueueStrategy::bfs();
        let out = crawl(&server, None, &root, &mut bfs, &CrawlConfig::default());
        prop_assert_eq!(out.targets_found() as usize, census.targets);
        prop_assert!(out.traffic.get_requests <= site.len() as u64);
        for w in out.trace.points().windows(2) {
            prop_assert!(w[0].requests <= w[1].requests);
            prop_assert!(w[0].targets <= w[1].targets);
        }
    }

    /// SB-CLASSIFIER under any budget respects it and never loses targets it
    /// reported (count == trace == list).
    #[test]
    fn sb_respects_any_budget((spec, seed, budget) in (arb_spec(), 0u64..1000, 20u64..200)) {
        let site = build_site(&spec, seed);
        let root = site.page(site.root()).url.clone();
        let server = SiteServer::new(site.clone());
        let mut sb = SbStrategy::classifier_default();
        let cfg = CrawlConfig { budget: Budget::Requests(budget), seed, ..Default::default() };
        let out = crawl(&server, None, &root, &mut sb, &cfg);
        // The cascade may overshoot by the page in flight.
        prop_assert!(out.traffic.requests() <= budget + 8);
        prop_assert_eq!(out.trace.final_targets(), out.targets_found());
    }
}
