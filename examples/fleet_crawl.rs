//! Step-driven sessions, event observers and the multi-site fleet in
//! every [`FleetMode`].
//!
//! Three things the one-shot `crawl()` call cannot do:
//!
//! 1. **observe** a crawl while it runs (typed `CrawlEvent`s),
//! 2. **hold and step** a crawl — pause, inspect, resume, cancel,
//! 3. **interleave many sites** concurrently.
//!
//! The fleet half crawls the same 6 sites through every transport layout
//! and asserts what each may and may not change:
//!
//! * per-site transports — every site owns its window, so a site stalled
//!   behind its politeness gate cannot lend its idle slots to anyone;
//! * the shared pool (PR 5) at global window 1 and 16 — one crawler
//!   machine's connections serve the whole fleet: politeness stays per
//!   host, capacity is global, and the simulated makespan collapses from
//!   "serial sum of sites" toward "slowest single host". Coverage is
//!   identical to per-site transports (asserted);
//! * the sharded driver (PR 8) at 1/2/4 shards — sites hash onto P
//!   shards, each with its own pool and driver thread, and a drained
//!   shard steals whole *pending* sites from the most-loaded backlog.
//!   Every site is still driven start to finish by exactly one pool, so
//!   per-site results are shard-count invariant (asserted at every rung
//!   and again with every site pinned to shard 0, where shard 1 can only
//!   help by stealing).
//!
//! Run with: `cargo run --release --example fleet_crawl`

use sb_crawler::events::{CrawlEvent, CrawlObserver, CrawlSnapshot};
use sb_crawler::fleet::{Fleet, FleetJob, FleetMode, FleetOutcome, SharedServer};
use sb_crawler::strategies::{QueueStrategy, SbStrategy};
use sb_crawler::{Budget, CrawlConfig, CrawlSession};
use sb_httpsim::SiteServer;
use sb_webgraph::{build_site, SiteSpec, Website};
use std::sync::Arc;

/// A tiny progress reporter: counts events, prints one line per target.
#[derive(Default)]
struct Progress {
    fetches: u64,
    links: u64,
}

impl CrawlObserver for Progress {
    fn on_event(&mut self, event: &CrawlEvent<'_>, snap: &CrawlSnapshot) {
        match event {
            CrawlEvent::Fetched { .. } => self.fetches += 1,
            CrawlEvent::LinkDiscovered { .. } => self.links += 1,
            CrawlEvent::TargetRetrieved { url, ordinal, .. } => {
                println!(
                    "  target #{ordinal}: {url} (after {} requests)",
                    snap.traffic.requests()
                );
            }
            CrawlEvent::SessionFinished { reason } => {
                println!("  finished: {reason:?} ({} fetches, {} links)", self.fetches, self.links);
            }
            _ => {}
        }
    }
}

/// `workers` (3) only matters to `FleetMode::PerSite`; the pool and the
/// sharded driver size their own threads.
fn build_fleet(sites: &[Arc<Website>], mode: FleetMode) -> Fleet {
    let mut fleet = Fleet::new(3).mode(mode);
    for (i, site) in sites.iter().enumerate() {
        let root = site.page(site.root()).url.clone();
        let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(site)));
        fleet.push(FleetJob::new(format!("site-{i}"), server, root, || {
            Box::new(QueueStrategy::bfs())
        }));
    }
    fleet
}

fn targets_per_site(out: &FleetOutcome) -> Vec<u64> {
    out.sites.iter().map(|r| r.expect_outcome().targets_found()).collect()
}

fn coverage(out: &FleetOutcome) -> Vec<(u64, u64)> {
    out.sites
        .iter()
        .map(|r| {
            let o = r.expect_outcome();
            (o.targets_found(), o.traffic.requests())
        })
        .collect()
}

fn main() {
    // ---- 1. One observed, step-driven session --------------------------
    println!("== step-driven session with an observer ==");
    let site = build_site(&SiteSpec::demo(400), 42);
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);
    let cfg = CrawlConfig { budget: Budget::Requests(60), ..Default::default() };
    let mut sb = SbStrategy::classifier_default();
    let mut progress = Progress::default();
    let mut session = CrawlSession::new(&server, None, &root, &mut sb, &cfg)
        .expect("valid config and root")
        .observe(&mut progress);

    // Step by hand: stop the moment five targets are in, budget unspent.
    while !session.is_finished() && session.targets_found() < 5 {
        let report = session.step();
        if report.new_targets > 0 {
            println!("  step {} landed {} target(s)", report.steps, report.new_targets);
        }
    }
    let outcome = session.finish();
    println!(
        "stepped crawl: {} targets, {} requests, reason {:?}\n",
        outcome.targets_found(),
        outcome.traffic.requests(),
        outcome.finish_reason
    );

    // ---- 2. One fleet, three transport layouts -------------------------
    let sites: Vec<Arc<Website>> =
        (0..6u64).map(|i| Arc::new(build_site(&SiteSpec::demo(300), i))).collect();

    println!("== fleet: 6 sites, per-site transports on 3 workers ==");
    let per_site = build_fleet(&sites, FleetMode::PerSite).run();
    for report in &per_site.sites {
        let o = report.expect_outcome();
        println!(
            "  {}: {} targets in {} requests ({:.1} simulated minutes)",
            report.name,
            o.targets_found(),
            o.traffic.requests(),
            o.traffic.elapsed_secs / 60.0
        );
    }
    println!(
        "fleet total: {} targets, {} requests\n",
        per_site.targets,
        per_site.traffic.requests()
    );

    let pool_1 = build_fleet(&sites, FleetMode::SharedPool { max_in_flight: 1 }).run();
    let pool_16 = build_fleet(&sites, FleetMode::SharedPool { max_in_flight: 16 }).run();

    // Coverage is transport-invariant: the pool reorders *when* fetches
    // happen across the fleet, never what an exhaustive crawl finds.
    assert_eq!(targets_per_site(&per_site), targets_per_site(&pool_1));
    assert_eq!(targets_per_site(&per_site), targets_per_site(&pool_16));

    println!("== the same 6 sites, three transport layouts ==");
    for (name, out) in [
        ("per-site transports   ", &per_site),
        ("shared pool, window 1 ", &pool_1),
        ("shared pool, window 16", &pool_16),
    ] {
        println!(
            "  {}: {} targets, {} requests, longest site {:.1} simulated min",
            name,
            out.targets,
            out.traffic.requests(),
            out.sim_makespan_secs() / 60.0
        );
    }
    println!(
        "window 16 vs window 1: {:.2}x makespan improvement, identical coverage\n",
        pool_1.sim_makespan_secs() / pool_16.sim_makespan_secs()
    );

    // ---- 3. The sharded driver: P = 1 / 2 / 4 --------------------------
    println!("== the same 6 sites through the sharded driver, P = 1 / 2 / 4 ==");
    let mut baseline: Option<Vec<(u64, u64)>> = None;
    for shards in [1usize, 2, 4] {
        let out = build_fleet(&sites, FleetMode::Sharded { shards, max_in_flight: 1 }).run();
        let cov = coverage(&out);
        let base_cov = baseline.get_or_insert_with(|| cov.clone());

        // The load-bearing property: shards may only buy wall-clock —
        // per-site coverage is identical to the single-shard run.
        assert_eq!(&cov, base_cov, "shard count changed a per-site result");

        println!(
            "  P={shards}: {} targets, {} requests, {} sites stolen",
            out.targets,
            out.traffic.requests(),
            out.stolen_sites(),
        );
        for (s, report) in out.shards.iter().enumerate() {
            println!(
                "      shard {s}: {} sites ({} stolen), pool clock {:.1} simulated min",
                report.sites,
                report.stolen,
                report.sim_makespan_secs / 60.0
            );
        }
    }

    // Work stealing on display: pin every site to shard 0 of a two-shard
    // fleet — shard 1 can only ever drive sites it stole, and results
    // still cannot move.
    println!("\n== all sites pinned to shard 0; shard 1 must steal to help ==");
    let out = build_fleet(&sites, FleetMode::Sharded { shards: 2, max_in_flight: 1 })
        .shard_assignment(vec![0; sites.len()])
        .run();
    assert_eq!(&coverage(&out), &baseline.unwrap(), "stealing changed a per-site result");
    for (s, report) in out.shards.iter().enumerate() {
        println!("  shard {s}: drove {} sites, stole {}", report.sites, report.stolen);
    }
    println!("coverage: identical to the unpinned ladder (asserted)");
}
