//! The engine refactors must be *behaviour-preserving*: on any generated
//! site, `CrawlSession::run` (id-keyed, observer-traced) over the
//! render-cached server produces byte-identical traces and target lists to
//! the preserved string-keyed seed implementation, and same-seed runs of
//! the learning crawler replay identically.
//!
//! One **knowing** divergence: the session engine amends the post-target
//! trace point in place where the seed engine appended a duplicate, so
//! reference traces are passed through
//! [`sb_bench::reference::collapse_target_amends`] before comparison (see
//! that function's docs).

use proptest::prelude::*;
use sb_bench::reference::{collapse_target_amends, reference_queue_crawl, UncachedSiteServer};
use sb_crawler::{crawl, Budget, CrawlConfig, CrawlSession};
use sb_crawler::strategies::{Discipline, QueueStrategy, SbConfig, SbStrategy};
use sb_httpsim::SiteServer;
use sb_webgraph::gen::{build_site, SiteSpec};
use sb_webgraph::Website;
use std::sync::Arc;

fn arb_spec() -> impl Strategy<Value = SiteSpec> {
    (
        80usize..260,
        0.08f64..0.5,
        0.03f64..0.3,
        0.0f64..0.5,
        0.0f64..0.2,
        proptest::bool::ANY,
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

fn queue_for(d: Discipline) -> QueueStrategy {
    match d {
        Discipline::Fifo => QueueStrategy::bfs(),
        Discipline::Lifo => QueueStrategy::dfs(),
        Discipline::Random => QueueStrategy::random(),
    }
}

/// Runs both engines and asserts byte-identical observable behaviour.
fn assert_equivalent(
    site: &Arc<Website>,
    discipline: Discipline,
    budget: Budget,
    seed: u64,
) -> Result<(), TestCaseError> {
    let root = site.page(site.root()).url.clone();

    let reference_server = UncachedSiteServer::new(Arc::clone(site));
    let reference =
        reference_queue_crawl(&reference_server, &root, discipline, budget, seed, None);

    let server = SiteServer::shared(Arc::clone(site));
    let mut strategy = queue_for(discipline);
    let cfg = CrawlConfig { budget, seed, ..CrawlConfig::default() };
    let out = CrawlSession::new(&server, None, &root, &mut strategy, &cfg)
        .expect("generated roots are valid")
        .run();

    prop_assert_eq!(out.pages_crawled, reference.pages_crawled);
    let new_targets: Vec<(String, String)> =
        out.targets.iter().map(|t| (t.url.clone(), t.mime.clone())).collect();
    prop_assert_eq!(&new_targets, &reference.targets);
    let reference_trace = collapse_target_amends(&reference.trace);
    prop_assert_eq!(out.trace.points().len(), reference_trace.points().len());
    for (i, (a, b)) in out.trace.points().iter().zip(reference_trace.points()).enumerate() {
        prop_assert_eq!(a, b, "trace diverges at point {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-site BFS/DFS: the interned engine replays the seed engine
    /// exactly on arbitrary site shapes.
    #[test]
    fn exhaustive_crawls_are_identical((spec, seed) in (arb_spec(), 0u64..400)) {
        let site = Arc::new(build_site(&spec, seed));
        assert_equivalent(&site, Discipline::Fifo, Budget::Unlimited, seed)?;
        assert_equivalent(&site, Discipline::Lifo, Budget::Unlimited, seed)?;
    }

    /// RANDOM shares the engine RNG: identical seeds must pick identical
    /// frontier positions through the id-keyed frontier.
    #[test]
    fn random_discipline_is_identical((spec, seed) in (arb_spec(), 0u64..400)) {
        let site = Arc::new(build_site(&spec, seed));
        assert_equivalent(&site, Discipline::Random, Budget::Unlimited, seed)?;
    }

    /// Budgeted runs stop at the same request and with the same partial
    /// trace (the budget check sits on the same edges).
    #[test]
    fn budgeted_crawls_are_identical(
        (spec, seed) in (arb_spec(), 0u64..400),
        budget in 1u64..120,
    ) {
        let site = Arc::new(build_site(&spec, seed));
        assert_equivalent(&site, Discipline::Fifo, Budget::Requests(budget), seed)?;
    }

    /// The learning crawler (bandit + classifier + HEAD bootstrap) replays
    /// identically for a fixed seed: interned ids are assigned in discovery
    /// order, so they are as deterministic as the strings they replace.
    #[test]
    fn sb_classifier_replays_identically((spec, seed) in (arb_spec(), 0u64..200)) {
        let site = Arc::new(build_site(&spec, seed));
        let root = site.page(site.root()).url.clone();
        let run = || {
            let server = SiteServer::shared(Arc::clone(&site));
            let mut sb = SbStrategy::with_classifier(
                SbConfig::default(),
                sb_ml::UrlClassifier::paper_default(),
            );
            let cfg = CrawlConfig {
                budget: Budget::Requests(150),
                seed,
                ..CrawlConfig::default()
            };
            crawl(&server, Some(site.as_ref()), &root, &mut sb, &cfg)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.pages_crawled, b.pages_crawled);
        prop_assert_eq!(a.targets.len(), b.targets.len());
        for (x, y) in a.targets.iter().zip(&b.targets) {
            prop_assert_eq!(&x.url, &y.url);
        }
        prop_assert_eq!(a.trace.points().len(), b.trace.points().len());
        for (x, y) in a.trace.points().iter().zip(b.trace.points()) {
            prop_assert_eq!(x, y);
        }
    }
}
