//! Conformance pins for the memory-bounded scale subsystem (PR 7): a crawl
//! over a streaming site, over a spill-backed frontier, or over a compact
//! visited set must produce *exactly* the trace of the unbounded engine at
//! window 1 — the bounded structures change where state lives, never what
//! the crawl does.

use proptest::prelude::*;
use sb_crawler::{crawl, CrawlConfig, CrawlOutcome};
use sb_crawler::strategies::{
    OmniscientStrategy, QueueStrategy, SbConfig, SbStrategy, TpOffStrategy, TresStrategy,
};
use sb_crawler::strategy::Strategy;
use sb_httpsim::SiteServer;
use sb_scale::{stream_site, SpillBacking};
use sb_webgraph::gen::{build_site, SiteSource, SiteSpec};
use std::sync::Arc;

/// Builds a fresh strategy for each run.
type MakeStrategy<'a> = &'a dyn Fn() -> Box<dyn Strategy>;

fn spec_with(n: usize, tf: f64, err: f64, ext: f64) -> SiteSpec {
    let mut spec = SiteSpec::demo(n);
    spec.target_frac = tf;
    spec.error_frac = err;
    spec.extensionless = ext;
    spec
}

// Both runners pass the served site as the crawl's oracle: strategies
// that read no ground truth never touch it.
fn run_eager(spec: &SiteSpec, seed: u64, strategy: &mut dyn Strategy, cfg: &CrawlConfig) -> CrawlOutcome {
    let site = Arc::new(build_site(spec, seed));
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::shared(site.clone());
    crawl(&server, Some(&*site), &root, strategy, cfg)
}

fn run_streaming(spec: &SiteSpec, seed: u64, strategy: &mut dyn Strategy, cfg: &CrawlConfig) -> CrawlOutcome {
    let site = Arc::new(stream_site(spec, seed).with_render_cache_budget(64 << 10));
    let root = site.url(site.root()).to_owned();
    let server = SiteServer::from_source(site.clone());
    crawl(&server, Some(&*site), &root, strategy, cfg)
}

fn assert_same_crawl(a: &CrawlOutcome, b: &CrawlOutcome, label: &str) {
    assert_eq!(a.trace.points(), b.trace.points(), "{label}: traces diverged");
    assert_eq!(a.pages_crawled, b.pages_crawled, "{label}");
    let urls = |o: &CrawlOutcome| o.targets.iter().map(|t| t.url.clone()).collect::<Vec<_>>();
    assert_eq!(urls(a), urls(b), "{label}: target sets diverged");
    assert_eq!(a.traffic, b.traffic, "{label}: traffic diverged");
}

/// A crawl served from the streaming site is indistinguishable from one
/// served from the eager site: BFS, and the oracle strategies reading the
/// served store as their ground truth.
#[test]
fn streaming_server_crawl_is_identical() {
    let spec = spec_with(500, 0.25, 0.08, 0.3);
    let cfg = CrawlConfig::default();
    let eager = run_eager(&spec, 11, &mut QueueStrategy::bfs(), &cfg);
    let lazy = run_streaming(&spec, 11, &mut QueueStrategy::bfs(), &cfg);
    assert_same_crawl(&eager, &lazy, "streaming server");
    assert!(eager.targets_found() > 0, "vacuous site");

    let targets = build_site(&spec, 11).target_urls();
    let oracle_strategies: [(&str, MakeStrategy<'_>); 4] = [
        ("SB-ORACLE", &|| Box::new(SbStrategy::oracle(SbConfig::default()))),
        ("TP-OFF", &|| Box::new(TpOffStrategy::new(30))),
        ("TRES", &|| Box::new(TresStrategy::new())),
        ("OMNISCIENT", &|| Box::new(OmniscientStrategy::new(targets.clone()))),
    ];
    for (label, make) in oracle_strategies {
        let eager = run_eager(&spec, 11, make().as_mut(), &cfg);
        let lazy = run_streaming(&spec, 11, make().as_mut(), &cfg);
        assert_same_crawl(&eager, &lazy, label);
        assert!(eager.targets_found() > 0, "{label}: vacuous crawl");
    }
}

/// A spill-backed BFS/DFS frontier (memory and disk arenas) replays the
/// unbounded crawl exactly, while actually spilling.
#[test]
fn spilling_frontier_crawl_is_identical() {
    let spec = spec_with(600, 0.2, 0.05, 0.2);
    let cfg = CrawlConfig::default();
    let unbounded = run_eager(&spec, 3, &mut QueueStrategy::bfs(), &cfg);
    for backing in [SpillBacking::Memory, SpillBacking::Disk] {
        let mut spilling = QueueStrategy::bfs_spilling(32, backing);
        let bounded = run_eager(&spec, 3, &mut spilling, &cfg);
        assert_same_crawl(&unbounded, &bounded, "spilling bfs");
    }
    let dfs_unbounded = run_eager(&spec, 3, &mut QueueStrategy::dfs(), &cfg);
    let dfs_bounded = run_eager(&spec, 3, &mut QueueStrategy::dfs_spilling(32, SpillBacking::Memory), &cfg);
    assert_same_crawl(&dfs_unbounded, &dfs_bounded, "spilling dfs");
}

/// A compact visited set (tiny threshold, so nearly every URL is
/// fingerprinted) replays the exact-interner crawl byte-for-byte.
#[test]
fn compact_visited_crawl_is_identical() {
    let spec = spec_with(500, 0.25, 0.08, 0.3);
    let exact_cfg = CrawlConfig::default();
    let compact_cfg = CrawlConfig { compact_visited_threshold: 16, ..Default::default() };
    let exact = run_eager(&spec, 7, &mut QueueStrategy::bfs(), &exact_cfg);
    let compact = run_eager(&spec, 7, &mut QueueStrategy::bfs(), &compact_cfg);
    assert_same_crawl(&exact, &compact, "compact visited");
}

/// The step-level memory gauges report what the bounded structures do:
/// spill events show up in `frontier_spilled`, compaction bounds
/// `visited_bytes` below the exact crawl's.
#[test]
fn gauges_observe_bounded_memory() {
    use sb_crawler::session::CrawlSession;
    let spec = spec_with(600, 0.2, 0.05, 0.2);
    let site = build_site(&spec, 3);
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);

    let run_gauged = |strategy: &mut dyn Strategy, cfg: &CrawlConfig| {
        let mut session = CrawlSession::new(&server, None, &root, strategy, cfg).unwrap();
        let mut peak_spilled = 0usize;
        let mut peak_bytes = 0u64;
        while !session.is_finished() {
            let report = session.step();
            peak_spilled = peak_spilled.max(report.mem.frontier_spilled);
            peak_bytes = peak_bytes.max(report.mem.visited_bytes);
            assert_eq!(
                report.mem.frontier_len,
                session.mem_gauges().frontier_len,
                "step report and session gauges must agree"
            );
        }
        (peak_spilled, peak_bytes)
    };

    let exact_cfg = CrawlConfig::default();
    let (spilled_unbounded, bytes_exact) =
        run_gauged(&mut QueueStrategy::bfs(), &exact_cfg);
    assert_eq!(spilled_unbounded, 0, "unbounded frontier must never spill");

    let compact_cfg = CrawlConfig { compact_visited_threshold: 32, ..Default::default() };
    let (spilled, bytes_compact) =
        run_gauged(&mut QueueStrategy::bfs_spilling(32, SpillBacking::Memory), &compact_cfg);
    assert!(spilled > 0, "cap 32 on a 600-page site must spill");
    assert!(
        bytes_compact * 2 < bytes_exact,
        "compact visited ({bytes_compact} B) must be well under exact ({bytes_exact} B)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Window-1 trace identity on *arbitrary* layouts: streaming site,
    /// spilling frontier and compact visited set all at once, vs the
    /// all-unbounded engine.
    #[test]
    fn bounded_engine_trace_identical_on_arbitrary_layouts(
        n in 150usize..400,
        tf in 0.08f64..0.4,
        err in 0.0f64..0.15,
        ext in 0.0f64..0.6,
        seed in 0u64..100,
        cap in 8usize..64,
        threshold in 0usize..64,
    ) {
        let spec = spec_with(n, tf, err, ext);
        let exact_cfg = CrawlConfig::default();
        let bounded_cfg = CrawlConfig {
            compact_visited_threshold: threshold,
            ..Default::default()
        };
        let reference = run_eager(&spec, seed, &mut QueueStrategy::bfs(), &exact_cfg);
        let mut spilling = QueueStrategy::bfs_spilling(cap, SpillBacking::Memory);
        let bounded = run_streaming(&spec, seed, &mut spilling, &bounded_cfg);
        prop_assert_eq!(reference.trace.points(), bounded.trace.points());
        prop_assert_eq!(reference.pages_crawled, bounded.pages_crawled);
        prop_assert_eq!(
            reference.targets.iter().map(|t| &t.url).collect::<Vec<_>>(),
            bounded.targets.iter().map(|t| &t.url).collect::<Vec<_>>()
        );
    }
}
