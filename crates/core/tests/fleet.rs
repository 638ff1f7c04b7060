//! Fleet scheduler contract: per-site outcomes are **worker-count
//! invariant** and identical to sequential single-site crawls — sessions
//! share nothing, so scheduling can only change wall-clock, never results.
//!
//! PR 5 extends the contract to [`FleetMode::SharedPool`]: multiplexing
//! every session through one global transport window must not change what
//! any site retrieves (proptested against per-site transports for
//! arbitrary worker counts and windows), at global window 1 it must
//! replay the frozen seed engine per site exactly (via
//! `sb_bench::reference`, masking only the shared clock), and shutdown
//! with selections in flight across several sites must drain every one of
//! them as `feedback_error` + `Abandoned(SessionClosed)`.
//!
//! PR 8 extends it once more to [`FleetMode::Sharded`]: per-site results
//! must be **shard-count invariant** (proptested against the single
//! shared pool for arbitrary shard counts, windows and site → shard
//! assignments), at per-shard window 1 every site must replay the frozen
//! seed engine byte for byte regardless of which shard drives it or how
//! work stealing moved it there, and shutdown of sessions on pools driven
//! from several threads must drain each in-flight selection as exactly
//! one `feedback_error` + `Abandoned(SessionClosed)`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use sb_bench::reference::{collapse_target_amends, reference_queue_crawl};
use sb_crawler::{crawl, Budget, CrawlConfig, CrawlSession};
use sb_crawler::events::OwnedEvent;
use sb_crawler::fleet::{Fleet, FleetJob, FleetMode, SharedServer};
use sb_crawler::strategies::{Discipline, QueueStrategy, SbConfig, SbStrategy};
use sb_crawler::strategy::{LinkDecision, NewLink, SelUrl, Selection, Services, Strategy};
use sb_crawler::{AbandonReason, ConfigError, CrawlTrace, EventLog};
use sb_httpsim::{Politeness, SharedTransportPool, SiteServer};
use sb_webgraph::gen::{build_site, SiteSpec};
use sb_webgraph::{UrlId, Website};
use std::collections::VecDeque;
use std::sync::Arc;

const N_SITES: usize = 9;

fn fleet_sites() -> Vec<Arc<Website>> {
    (0..N_SITES)
        .map(|i| Arc::new(build_site(&SiteSpec::demo(120 + 25 * i), 40 + i as u64)))
        .collect()
}

fn root_of(site: &Website) -> String {
    site.page(site.root()).url.clone()
}

/// The per-site observables the invariance tests compare.
#[derive(Debug, PartialEq)]
struct SiteSummary {
    name: String,
    targets: Vec<String>,
    pages_crawled: u64,
    requests: u64,
    trace_len: usize,
}

/// A fuller per-site record for the shared-pool invariance tests: the
/// summary plus the full trace (compared with the shared clock masked).
struct SiteOutcome {
    summary: SiteSummary,
    trace: CrawlTrace,
    makespan: f64,
}

/// Builds the standard BFS fleet over `sites` (seed = site index) in the
/// given mode, optionally with an explicit site → shard assignment.
fn build_fleet(
    sites: &[Arc<Website>],
    workers: usize,
    budget: Budget,
    mode: FleetMode,
    assignment: Option<Vec<usize>>,
) -> Fleet {
    let mut fleet = Fleet::new(workers).mode(mode);
    if let Some(a) = assignment {
        fleet = fleet.shard_assignment(a);
    }
    for (i, site) in sites.iter().enumerate() {
        let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(site)));
        let cfg = CrawlConfig { budget, seed: i as u64, ..Default::default() };
        fleet.push(
            FleetJob::new(format!("site{i}"), server, root_of(site), || {
                Box::new(QueueStrategy::bfs())
            })
            .config(cfg),
        );
    }
    fleet
}

fn site_outcomes(out: &sb_crawler::FleetOutcome) -> Vec<SiteOutcome> {
    out.sites
        .iter()
        .map(|r| {
            let o = r.expect_outcome();
            SiteOutcome {
                summary: SiteSummary {
                    name: r.name.clone(),
                    targets: o.targets.iter().map(|t| t.url.clone()).collect(),
                    pages_crawled: o.pages_crawled,
                    requests: o.traffic.requests(),
                    trace_len: o.trace.points().len(),
                },
                trace: o.trace.clone(),
                makespan: o.traffic.elapsed_secs,
            }
        })
        .collect()
}

fn run_fleet_mode(
    sites: &[Arc<Website>],
    workers: usize,
    budget: Budget,
    mode: FleetMode,
) -> Vec<SiteOutcome> {
    let out = build_fleet(sites, workers, budget, mode, None).run();
    assert_eq!(out.sites.len(), sites.len());
    site_outcomes(&out)
}

fn run_fleet(sites: &[Arc<Website>], workers: usize, budget: Budget) -> Vec<SiteSummary> {
    run_fleet_mode(sites, workers, budget, FleetMode::PerSite)
        .into_iter()
        .map(|o| o.summary)
        .collect()
}

/// A trace with the time axis masked: under the shared pool a site's
/// `elapsed_secs` reads on the fleet-wide clock, so cost-counter series
/// are compared and simulated time is not.
fn masked(trace: &CrawlTrace) -> Vec<(u64, u64, u64, u64, u64)> {
    trace
        .points()
        .iter()
        .map(|p| (p.requests, p.head_requests, p.target_bytes, p.non_target_bytes, p.targets))
        .collect()
}

#[test]
fn per_site_results_are_worker_count_invariant() {
    let sites = fleet_sites();
    let sequentialish = run_fleet(&sites, 1, Budget::Unlimited);
    for workers in [2, 4, N_SITES] {
        let concurrent = run_fleet(&sites, workers, Budget::Unlimited);
        assert_eq!(sequentialish, concurrent, "workers={workers} changed per-site results");
    }
}

#[test]
fn fleet_results_match_standalone_crawls() {
    let sites = fleet_sites();
    let fleet_out = run_fleet(&sites, 4, Budget::Requests(80));
    for (i, site) in sites.iter().enumerate() {
        let server = SiteServer::shared(Arc::clone(site));
        let mut bfs = QueueStrategy::bfs();
        let cfg =
            CrawlConfig { budget: Budget::Requests(80), seed: i as u64, ..Default::default() };
        let solo = crawl(&server, None, &root_of(site), &mut bfs, &cfg);
        assert_eq!(fleet_out[i].pages_crawled, solo.pages_crawled, "site{i}");
        assert_eq!(fleet_out[i].requests, solo.traffic.requests(), "site{i}");
        let solo_targets: Vec<String> = solo.targets.iter().map(|t| t.url.clone()).collect();
        assert_eq!(fleet_out[i].targets, solo_targets, "site{i}");
    }
}

#[test]
fn learning_sessions_are_worker_invariant_too() {
    // The SB crawler holds per-session RNG + bandit + classifier state;
    // concurrency must not leak between sessions.
    let sites: Vec<Arc<Website>> =
        (0..4).map(|i| Arc::new(build_site(&SiteSpec::demo(200), 7 + i))).collect();
    let run = |workers: usize| -> Vec<Vec<String>> {
        let mut fleet = Fleet::new(workers);
        for (i, site) in sites.iter().enumerate() {
            let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(site)));
            let cfg = CrawlConfig {
                budget: Budget::Requests(120),
                seed: i as u64,
                ..Default::default()
            };
            fleet.push(
                FleetJob::new(format!("s{i}"), server, root_of(site), || {
                    Box::new(SbStrategy::with_classifier(
                        SbConfig::default(),
                        sb_ml::UrlClassifier::paper_default(),
                    ))
                })
                .config(cfg),
            );
        }
        fleet
            .run()
            .sites
            .iter()
            .map(|r| r.expect_outcome().targets.iter().map(|t| t.url.clone()).collect())
            .collect()
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn invalid_roots_are_reported_not_panicked() {
    let site = Arc::new(build_site(&SiteSpec::demo(120), 3));
    let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(&site)));
    let mut fleet = Fleet::new(2);
    fleet.push(FleetJob::new("good", Arc::clone(&server), root_of(&site), || {
        Box::new(QueueStrategy::bfs())
    }));
    fleet.push(FleetJob::new("bad", server, "not-a-url", || Box::new(QueueStrategy::bfs())));
    let out = fleet.run();
    assert_eq!(out.sites.len(), 2);
    assert!(out.sites[0].outcome.is_ok());
    assert!(matches!(
        out.sites[1].outcome,
        Err(ConfigError::InvalidRoot { ref url, .. }) if url == "not-a-url"
    ));
    // Aggregates only count the sites that ran.
    assert_eq!(
        out.traffic.requests(),
        out.sites[0].expect_outcome().traffic.requests()
    );
}

#[test]
fn aggregate_traffic_sums_per_site_traffic() {
    let sites = fleet_sites();
    let mut fleet = Fleet::new(3);
    for (i, site) in sites.iter().enumerate() {
        let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(site)));
        // Vary politeness so the politeness-aware scheduler actually has
        // skew to balance.
        let cfg = CrawlConfig {
            politeness: Politeness { delay_secs: 0.2 * (i + 1) as f64, ..Default::default() },
            ..Default::default()
        };
        fleet.push(
            FleetJob::new(format!("site{i}"), server, root_of(site), || {
                Box::new(QueueStrategy::bfs())
            })
            .config(cfg),
        );
    }
    let out = fleet.run();
    let sum_requests: u64 =
        out.sites.iter().map(|r| r.expect_outcome().traffic.requests()).sum();
    let sum_targets: u64 = out.sites.iter().map(|r| r.expect_outcome().targets_found()).sum();
    assert_eq!(out.traffic.requests(), sum_requests);
    assert_eq!(out.targets, sum_targets);
    assert!(out.sim_makespan_secs() <= out.traffic.elapsed_secs);
}

/// [`FleetMode::PerSite`] lowers onto the same wave loop as every other
/// mode, but each site must still get what a standalone session gets: a
/// private pool with the job's **own window** and a **site-local clock**.
/// Jobs alternate `max_in_flight` 1 and 4 on 3 workers, so a pool kept per
/// worker (one window, one running clock) could not pass: every site must
/// equal `CrawlSession::new(..).run()` on targets, pages, the full
/// `Traffic` (`elapsed_secs` included) and the unmasked trace.
#[test]
fn per_site_mode_keeps_each_sites_own_clock_and_window() {
    let sites = fleet_sites();
    let cfg_of = |i: usize| CrawlConfig {
        seed: i as u64,
        max_in_flight: [1, 4][i % 2],
        ..Default::default()
    };
    let mut fleet = Fleet::new(3);
    for (i, site) in sites.iter().enumerate() {
        let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(site)));
        fleet.push(
            FleetJob::new(format!("site{i}"), server, root_of(site), || {
                Box::new(QueueStrategy::bfs())
            })
            .config(cfg_of(i)),
        );
    }
    let out = fleet.run();
    assert_eq!(out.sites.len(), sites.len());

    for (i, (site, report)) in sites.iter().zip(&out.sites).enumerate() {
        let server = SiteServer::shared(Arc::clone(site));
        let mut bfs = QueueStrategy::bfs();
        let cfg = cfg_of(i);
        let solo = CrawlSession::new(&server, None, &root_of(site), &mut bfs, &cfg)
            .expect("generated roots are valid")
            .run();
        let fleet = report.expect_outcome();
        let urls = |o: &sb_crawler::CrawlOutcome| -> Vec<String> {
            o.targets.iter().map(|t| t.url.clone()).collect()
        };
        assert_eq!(urls(fleet), urls(&solo), "site{i} targets");
        assert_eq!(fleet.pages_crawled, solo.pages_crawled, "site{i}");
        assert_eq!(fleet.traffic, solo.traffic, "site{i}: traffic, site-local clock included");
        assert_eq!(fleet.trace.points(), solo.trace.points(), "site{i}: unmasked trace");
    }
}

/// Every mode runs on the one driver loop, so every mode reports one
/// [`sb_crawler::ShardReport`] per driver thread, and the shard ledgers
/// partition the fleet: their site counts sum to the fleet's.
#[test]
fn every_mode_reports_one_ledger_per_driver_thread() {
    let sites = fleet_sites();
    let cases = [
        (1, FleetMode::PerSite, 1),
        (4, FleetMode::PerSite, 4),
        (4, FleetMode::SharedPool { max_in_flight: 4 }, 1),
        (4, FleetMode::Sharded { shards: 2, max_in_flight: 4 }, 2),
    ];
    for (workers, mode, threads) in cases {
        let out = build_fleet(&sites, workers, Budget::Unlimited, mode, None).run();
        assert_eq!(out.shards.len(), threads, "{mode:?} on {workers} workers");
        assert_eq!(
            out.shards.iter().map(|s| s.sites).sum::<usize>(),
            sites.len(),
            "{mode:?}: every site is driven by exactly one shard"
        );
    }
}

// ----------------------------------------------------------------------
// Shared transport pool (PR 5)
// ----------------------------------------------------------------------

fn pool_sites(seed: u64) -> Vec<Arc<Website>> {
    (0..3)
        .map(|i| Arc::new(build_site(&SiteSpec::demo(80 + 40 * i), seed.wrapping_add(i as u64))))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Per-site results are invariant between per-site transports (any
    /// worker count) and the shared pool (any global window ≥ 1): the
    /// pool reorders *when* fetches happen across the fleet, never what
    /// an exhaustive crawl finds. At global window 1 the pin is exact:
    /// the pool serialises the whole fleet, so every site replays the
    /// frozen seed engine byte for byte — targets in retrieval order,
    /// pages crawled, and the full per-request trace (seed duplicates
    /// collapsed via `reference::collapse_target_amends`, the shared
    /// clock masked).
    #[test]
    fn shared_pool_results_match_per_site_transports(
        (seed, workers, window) in (0u64..500, 1usize..5, 1usize..17),
    ) {
        let sites = pool_sites(seed);
        let per_site = run_fleet_mode(&sites, workers, Budget::Unlimited, FleetMode::PerSite);
        let shared = run_fleet_mode(
            &sites,
            1,
            Budget::Unlimited,
            FleetMode::SharedPool { max_in_flight: window },
        );
        for (i, (p, s)) in per_site.iter().zip(&shared).enumerate() {
            let mut p_targets = p.summary.targets.clone();
            let mut s_targets = s.summary.targets.clone();
            p_targets.sort();
            s_targets.sort();
            prop_assert_eq!(
                p_targets, s_targets,
                "site{} target coverage changed under the shared pool (window {})", i, window
            );
        }

        let shared_serial = run_fleet_mode(
            &sites,
            1,
            Budget::Unlimited,
            FleetMode::SharedPool { max_in_flight: 1 },
        );
        for (i, (site, s)) in sites.iter().zip(&shared_serial).enumerate() {
            let server = SiteServer::shared(Arc::clone(site));
            let reference = reference_queue_crawl(
                &server,
                &root_of(site),
                Discipline::Fifo,
                Budget::Unlimited,
                i as u64,
                None,
            );
            let ref_targets: Vec<String> =
                reference.targets.iter().map(|(u, _)| u.clone()).collect();
            prop_assert_eq!(
                &s.summary.targets, &ref_targets,
                "site{} window-1 pool must replay the seed engine's target order", i
            );
            prop_assert_eq!(s.summary.pages_crawled, reference.pages_crawled, "site{}", i);
            prop_assert_eq!(
                masked(&s.trace),
                masked(&collapse_target_amends(&reference.trace)),
                "site{} window-1 pool trace must replay the seed engine", i
            );
        }
    }
}

/// The ISSUE 5 acceptance shape on the bench workload: the 8×500 fleet's
/// shared-pool coverage is byte-identical to per-site transports site for
/// site, and the global window buys simulated makespan (≥ 2× from window
/// 1 to window 16 — every handle's politeness gate ticks concurrently
/// instead of the pool serialising the whole fleet).
#[test]
fn shared_pool_eight_by_500_coverage_and_makespan() {
    let sites: Vec<Arc<Website>> =
        (0..8).map(|i| Arc::new(build_site(&SiteSpec::demo(500), 100 + i))).collect();
    let per_site = run_fleet_mode(&sites, 4, Budget::Unlimited, FleetMode::PerSite);
    let shared1 =
        run_fleet_mode(&sites, 1, Budget::Unlimited, FleetMode::SharedPool { max_in_flight: 1 });
    let shared16 =
        run_fleet_mode(&sites, 1, Budget::Unlimited, FleetMode::SharedPool { max_in_flight: 16 });

    for (i, p) in per_site.iter().enumerate() {
        // Window 1 serialises per site: identical replay, order included.
        assert_eq!(p.summary, shared1[i].summary, "site{i} (window 1)");
        // Wider windows reorder within a site; coverage must not move.
        let mut a = p.summary.targets.clone();
        let mut b = shared16[i].summary.targets.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "site{i} coverage changed at window 16");
        assert_eq!(p.summary.requests, shared16[i].summary.requests, "site{i} request count");
    }

    let makespan = |outcomes: &[SiteOutcome]| -> f64 {
        outcomes.iter().map(|o| o.makespan).fold(0.0, f64::max)
    };
    let m1 = makespan(&shared1);
    let m16 = makespan(&shared16);
    assert!(
        m16 * 2.0 <= m1,
        "global window 16 must at least halve the shared-pool makespan: {m1:.0}s vs {m16:.0}s"
    );
}

/// A BFS recorder that counts feedback per token (as in the pipeline
/// tests, reused here to pin the invariant across a *shared* pool).
#[derive(Default)]
struct Recorder {
    frontier: VecDeque<UrlId>,
    selected: Vec<u64>,
    observations: Vec<u64>,
}

impl Strategy for Recorder {
    fn name(&self) -> String {
        "RECORDER".to_owned()
    }

    fn next(&mut self, _rng: &mut StdRng) -> Option<Selection> {
        let id = self.frontier.pop_front()?;
        let token = u64::from(id);
        self.selected.push(token);
        Some(Selection { url: SelUrl::Id(id), token })
    }

    fn decide(&mut self, link: &NewLink<'_>, _services: &mut Services<'_, '_>) -> LinkDecision {
        self.frontier.push_back(link.id);
        LinkDecision::Enqueue
    }

    fn feedback(&mut self, token: u64, _reward: f64) {
        self.observations.push(token);
    }

    fn feedback_target(&mut self, token: u64) {
        self.observations.push(token);
    }

    fn feedback_error(&mut self, token: u64) {
        self.observations.push(token);
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

/// Shutdown with selections in flight across *multiple* sites of one
/// shared pool: every outstanding selection must drain as
/// `feedback_error` + `Abandoned(SessionClosed)`, preserving exactly one
/// feedback per selection per site.
#[test]
fn shared_pool_shutdown_drains_in_flight_selections_across_sites() {
    let sites = pool_sites(77);
    let servers: Vec<SiteServer> =
        sites.iter().map(|s| SiteServer::shared(Arc::clone(s))).collect();
    let roots: Vec<String> = sites.iter().map(|s| root_of(s)).collect();
    let cfgs: Vec<CrawlConfig> = (0..sites.len())
        .map(|i| CrawlConfig { seed: i as u64, ..CrawlConfig::default() })
        .collect();
    let mut recorders: Vec<Recorder> = (0..sites.len()).map(|_| Recorder::default()).collect();
    let mut logs: Vec<EventLog> = (0..sites.len()).map(|_| EventLog::new()).collect();

    let pool = SharedTransportPool::new(9);
    let mut sessions: Vec<CrawlSession<'_>> = servers
        .iter()
        .zip(recorders.iter_mut())
        .zip(logs.iter_mut())
        .zip(cfgs.iter())
        .enumerate()
        .map(|(i, (((server, rec), log), cfg))| {
            let handle =
                pool.handle(server, cfg.policy.clone(), cfg.politeness);
            CrawlSession::with_transport(Box::new(handle), None, &roots[i], rec, cfg)
                .expect("generated roots are valid")
                .observe(log)
        })
        .collect();

    // Seed each frontier: submit + drain the root, then one more round so
    // links are discovered.
    for _ in 0..2 {
        for s in &mut sessions {
            s.refill_one();
        }
        for s in &mut sessions {
            s.drain_completions();
        }
    }
    // Fill the global window with outer selections across every site and
    // stop without draining: 3 slots each.
    for _ in 0..3 {
        for s in &mut sessions {
            assert!(s.refill_one(), "frontiers must still offer selections");
        }
    }
    let in_flight: Vec<usize> = sessions.iter().map(|s| s.in_flight()).collect();
    assert!(
        in_flight.iter().filter(|&&n| n > 0).count() >= 2,
        "the scenario needs selections in flight across several sites: {in_flight:?}"
    );
    assert_eq!(pool.in_flight(), in_flight.iter().sum::<usize>());

    // Kill every session mid-flight.
    let outcomes: Vec<_> = sessions.into_iter().map(|s| s.finish()).collect();
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.finish_reason, sb_crawler::FinishReason::Cancelled, "site{i}");
    }
    assert_eq!(pool.in_flight(), 0, "shutdown must drain the pool (wire cost stays honest)");

    for (i, (rec, log)) in recorders.iter().zip(&logs).enumerate() {
        let mut selected = rec.selected.clone();
        let mut observed = rec.observations.clone();
        selected.sort_unstable();
        observed.sort_unstable();
        assert_eq!(
            selected, observed,
            "site{i}: every pull must produce exactly one observation across shutdown"
        );
        let closed = log
            .events()
            .iter()
            .filter(|e| {
                matches!(e, OwnedEvent::Abandoned { reason: AbandonReason::SessionClosed, .. })
            })
            .count();
        assert_eq!(
            closed, in_flight[i],
            "site{i}: each in-flight job must end as Abandoned(SessionClosed)"
        );
    }
}

/// PR 6 extension of the shutdown-drain contract: the same mid-flight
/// kill, but with every handle running a retry policy with real backoff
/// under a full transient outage — so at shutdown the outstanding selections
/// are not idle transfers but requests *mid-retry*, their re-dispatches
/// scheduled seconds into the simulated future. The drain must still
/// deliver exactly one `feedback_error` per selection, one
/// `Abandoned(SessionClosed)` per in-flight job, tally them in the PR 6
/// per-reason counters, and leave the pool empty with every attempt
/// (failures included) charged.
#[test]
fn shared_pool_shutdown_drains_selections_mid_retry_backoff() {
    use sb_httpsim::{HazardPolicy, Outage, RetryPolicy};

    let sites = pool_sites(78);
    // Every URL 503s on its first attempt and recovers on retry: each
    // submission is guaranteed to spend at least two attempts, with the
    // second gated behind a long exponential backoff.
    let servers: Vec<SiteServer> =
        sites.iter().map(|s| SiteServer::shared(Arc::clone(s))).collect();
    let outage = Outage { share: 1.0, seed: 5, transient: true, exempt: None };
    let roots: Vec<String> = sites.iter().map(|s| root_of(s)).collect();
    let cfgs: Vec<CrawlConfig> = (0..sites.len())
        .map(|i| CrawlConfig { seed: i as u64, ..CrawlConfig::default() })
        .collect();
    let mut recorders: Vec<Recorder> = (0..sites.len()).map(|_| Recorder::default()).collect();
    let mut logs: Vec<EventLog> = (0..sites.len()).map(|_| EventLog::new()).collect();

    let pool = SharedTransportPool::new(9);
    let mut sessions: Vec<CrawlSession<'_>> = servers
        .iter()
        .zip(recorders.iter_mut())
        .zip(logs.iter_mut())
        .zip(cfgs.iter())
        .enumerate()
        .map(|(i, (((server, rec), log), cfg))| {
            let handle = pool
                .handle(server, cfg.policy.clone(), cfg.politeness)
                .with_retry_policy(RetryPolicy::retries(2).with_backoff(5.0, 40.0).with_jitter(0.2, i as u64))
                .with_hazards(HazardPolicy::default().with_outage(outage.clone()));
            CrawlSession::with_transport(Box::new(handle), None, &roots[i], rec, cfg)
                .expect("generated roots are valid")
                .observe(log)
        })
        .collect();

    // Seed each frontier through the failing root (two attempts each).
    for _ in 0..2 {
        for s in &mut sessions {
            s.refill_one();
        }
        for s in &mut sessions {
            s.drain_completions();
        }
    }
    // Fill the global window with selections that will all hit a 503 and
    // re-enter the gate behind a multi-second backoff, then stop without
    // draining.
    for _ in 0..3 {
        for s in &mut sessions {
            assert!(s.refill_one(), "frontiers must still offer selections");
        }
    }
    let in_flight: Vec<usize> = sessions.iter().map(|s| s.in_flight()).collect();
    assert!(
        in_flight.iter().filter(|&&n| n > 0).count() >= 2,
        "the scenario needs mid-retry selections across several sites: {in_flight:?}"
    );
    let before_gets: Vec<u64> = sessions.iter().map(|s| s.traffic().get_requests).collect();

    let outcomes: Vec<_> = sessions.into_iter().map(|s| s.finish()).collect();
    assert_eq!(pool.in_flight(), 0, "shutdown must drain mid-backoff work too");

    for (i, (rec, log)) in recorders.iter().zip(&logs).enumerate() {
        let mut selected = rec.selected.clone();
        let mut observed = rec.observations.clone();
        selected.sort_unstable();
        observed.sort_unstable();
        assert_eq!(
            selected, observed,
            "site{i}: exactly one observation per selection across a mid-retry shutdown"
        );
        let closed = log
            .events()
            .iter()
            .filter(|e| {
                matches!(e, OwnedEvent::Abandoned { reason: AbandonReason::SessionClosed, .. })
            })
            .count();
        assert_eq!(closed, in_flight[i], "site{i}: every mid-retry job ends as SessionClosed");
        assert_eq!(
            outcomes[i].abandoned.session_closed as usize, closed,
            "site{i}: the per-reason counter must agree with the event stream"
        );
        // The drain delivers the final answers of outstanding work: with
        // 100% first-attempt failure every delivered request spent ≥ 2
        // attempts, and all of them are charged.
        assert!(
            outcomes[i].traffic.get_requests >= before_gets[i] + 2 * in_flight[i] as u64,
            "site{i}: drained retries must be charged ({} < {} + 2·{})",
            outcomes[i].traffic.get_requests,
            before_gets[i],
            in_flight[i]
        );
    }
}

// ----------------------------------------------------------------------
// Sharded parallel fleet (PR 8)
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Per-site results are **shard-count invariant**: for any shard
    /// count, per-shard window and site → shard assignment (hashed or
    /// arbitrary), the sharded fleet's coverage matches the single shared
    /// pool site for site. And at per-shard window 1 every site replays
    /// the frozen seed engine byte for byte — targets in retrieval order,
    /// pages crawled, full masked trace — no matter which shard's pool
    /// ends up driving it or whether it got there by stealing.
    #[test]
    fn sharded_results_are_shard_count_invariant(
        (seed, shards, window) in (0u64..500, 1usize..5, 1usize..9),
        assignment in proptest::option::of(proptest::collection::vec(0usize..8, 0..4)),
    ) {
        let sites = pool_sites(seed);
        let baseline = run_fleet_mode(
            &sites,
            1,
            Budget::Unlimited,
            FleetMode::SharedPool { max_in_flight: window },
        );

        let out = build_fleet(
            &sites,
            1,
            Budget::Unlimited,
            FleetMode::Sharded { shards, max_in_flight: window },
            assignment.clone(),
        )
        .run();
        let sharded = site_outcomes(&out);

        prop_assert_eq!(out.shards.len(), shards);
        prop_assert_eq!(
            out.shards.iter().map(|s| s.sites).sum::<usize>(),
            sites.len(),
            "every site is driven by exactly one shard"
        );
        for (i, (b, s)) in baseline.iter().zip(&sharded).enumerate() {
            let mut b_targets = b.summary.targets.clone();
            let mut s_targets = s.summary.targets.clone();
            b_targets.sort();
            s_targets.sort();
            prop_assert_eq!(
                b_targets, s_targets,
                "site{} coverage changed under sharding (shards {}, window {})",
                i, shards, window
            );
            prop_assert_eq!(b.summary.pages_crawled, s.summary.pages_crawled, "site{}", i);
            prop_assert_eq!(b.summary.requests, s.summary.requests, "site{}", i);
        }

        // Per-shard window 1: byte-identical replay of the frozen seed
        // engine for every shard count.
        let serial = build_fleet(
            &sites,
            1,
            Budget::Unlimited,
            FleetMode::Sharded { shards, max_in_flight: 1 },
            assignment,
        )
        .run();
        let serial = site_outcomes(&serial);
        for (i, (site, s)) in sites.iter().zip(&serial).enumerate() {
            let server = SiteServer::shared(Arc::clone(site));
            let reference = reference_queue_crawl(
                &server,
                &root_of(site),
                Discipline::Fifo,
                Budget::Unlimited,
                i as u64,
                None,
            );
            let ref_targets: Vec<String> =
                reference.targets.iter().map(|(u, _)| u.clone()).collect();
            prop_assert_eq!(
                &s.summary.targets, &ref_targets,
                "site{} window-1 shard must replay the seed engine's target order (shards {})",
                i, shards
            );
            prop_assert_eq!(s.summary.pages_crawled, reference.pages_crawled, "site{}", i);
            prop_assert_eq!(
                masked(&s.trace),
                masked(&collapse_target_amends(&reference.trace)),
                "site{} window-1 shard trace must replay the seed engine (shards {})", i, shards
            );
        }
    }
}

/// The ISSUE 8 acceptance shape on the bench workload: the 8×500 fleet at
/// per-shard window 1 is byte-identical — summary *and* target order —
/// across shard counts 1, 2 and 4 and to the single shared pool, the
/// fleet-level abandon tally is the per-site sum, and the per-shard
/// reports partition the sites.
#[test]
fn sharded_eight_by_500_is_byte_identical_across_shard_counts() {
    let sites: Vec<Arc<Website>> =
        (0..8).map(|i| Arc::new(build_site(&SiteSpec::demo(500), 100 + i))).collect();
    let baseline =
        run_fleet_mode(&sites, 1, Budget::Unlimited, FleetMode::SharedPool { max_in_flight: 1 });

    for shards in [1usize, 2, 4] {
        let out = build_fleet(
            &sites,
            1,
            Budget::Unlimited,
            FleetMode::Sharded { shards, max_in_flight: 1 },
            None,
        )
        .run();
        let sharded = site_outcomes(&out);
        for (i, (b, s)) in baseline.iter().zip(&sharded).enumerate() {
            assert_eq!(b.summary, s.summary, "site{i} (shards {shards})");
        }

        // Satellite: fleet-level abandon counts aggregate per site, and the
        // shard ledgers partition the sites.
        let site_abandoned: u64 =
            out.sites.iter().map(|r| r.expect_outcome().abandoned.total()).sum();
        assert_eq!(out.abandoned.total(), site_abandoned);
        assert_eq!(out.shards.len(), shards);
        assert_eq!(out.shards.iter().map(|s| s.sites).sum::<usize>(), sites.len());
        for (s, report) in out.shards.iter().enumerate() {
            assert!(
                report.sites == 0 || report.sim_makespan_secs > 0.0,
                "shard {s} drove {} sites but its clock never moved",
                report.sites
            );
        }
    }
}

/// Work stealing: pin every site to shard 0 of a two-shard fleet. Shard 1
/// starts with an empty backlog, so any site it drives *must* have been
/// stolen — and stealing must not change any result. (Whether shard 1
/// wins a steal is the one wall-clock-dependent outcome; with shard 0
/// grinding 300-page crawls one wave at a time it effectively always
/// does, and the bookkeeping identity holds either way.)
#[test]
fn stealing_shards_keep_results_identical() {
    let sites: Vec<Arc<Website>> =
        (0..6).map(|i| Arc::new(build_site(&SiteSpec::demo(300), 900 + i))).collect();
    let pinned = Some(vec![0usize; sites.len()]);

    let solo = build_fleet(
        &sites,
        1,
        Budget::Unlimited,
        FleetMode::Sharded { shards: 1, max_in_flight: 1 },
        None,
    )
    .run();
    let out = build_fleet(
        &sites,
        1,
        Budget::Unlimited,
        FleetMode::Sharded { shards: 2, max_in_flight: 1 },
        pinned,
    )
    .run();

    let solo_sites = site_outcomes(&solo);
    let stolen_sites = site_outcomes(&out);
    for (i, (a, b)) in solo_sites.iter().zip(&stolen_sites).enumerate() {
        assert_eq!(a.summary, b.summary, "site{i}: stealing changed a per-site result");
    }

    assert_eq!(out.shards.len(), 2);
    assert_eq!(out.shards[0].sites + out.shards[1].sites, sites.len());
    // Everything was assigned to shard 0, so shard 1's driven count IS its
    // steal count — the bookkeeping identity that holds regardless of
    // scheduling luck.
    assert_eq!(
        out.shards[1].sites as u64, out.shards[1].stolen,
        "a shard with an empty assignment only drives stolen sites"
    );
    assert_eq!(out.stolen_sites(), out.shards[0].stolen + out.shards[1].stolen);
}

/// Per site of one shard: tokens selected, tokens observed, selections in
/// flight at the kill, and `Abandoned(SessionClosed)` events.
type ShardShutdown = (Vec<Vec<u64>>, Vec<Vec<u64>>, Vec<usize>, Vec<usize>);

/// Multi-shard shutdown: two threads each drive their own pool (the
/// PR 8 `Send` backend), seed a few sites, fill both windows with
/// selections and kill every session mid-flight. Each in-flight selection
/// must drain as exactly one `feedback_error` + `Abandoned(SessionClosed)`
/// on its own shard, exactly as in the single-pool contract.
#[test]
fn multi_shard_shutdown_drains_in_flight_selections_per_shard() {
    let sites = pool_sites(79);
    let site_refs: Vec<Arc<Website>> = sites.clone();

    // Shard 0 gets sites 0..2, shard 1 gets site 2.. — both pools hold
    // several selections in flight at kill time.
    let split = 2usize;
    let shards: Vec<Vec<Arc<Website>>> =
        vec![site_refs[..split].to_vec(), site_refs[split..].to_vec()];

    let results: Vec<ShardShutdown> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard_sites| {
                    scope.spawn(move || {
                        let servers: Vec<SiteServer> = shard_sites
                            .iter()
                            .map(|s| SiteServer::shared(Arc::clone(s)))
                            .collect();
                        let roots: Vec<String> =
                            shard_sites.iter().map(|s| root_of(s)).collect();
                        let cfgs: Vec<CrawlConfig> = (0..shard_sites.len())
                            .map(|i| CrawlConfig { seed: i as u64, ..CrawlConfig::default() })
                            .collect();
                        let mut recorders: Vec<Recorder> =
                            (0..shard_sites.len()).map(|_| Recorder::default()).collect();
                        let mut logs: Vec<EventLog> =
                            (0..shard_sites.len()).map(|_| EventLog::new()).collect();

                        let pool = SharedTransportPool::new(6);
                        let mut sessions: Vec<CrawlSession<'_>> = servers
                            .iter()
                            .zip(recorders.iter_mut())
                            .zip(logs.iter_mut())
                            .zip(cfgs.iter())
                            .enumerate()
                            .map(|(i, (((server, rec), log), cfg))| {
                                let handle =
                                    pool.handle(server, cfg.policy.clone(), cfg.politeness);
                                CrawlSession::with_transport(
                                    Box::new(handle),
                                    None,
                                    &roots[i],
                                    rec,
                                    cfg,
                                )
                                .expect("generated roots are valid")
                                .observe(log)
                            })
                            .collect();

                        for _ in 0..2 {
                            for s in &mut sessions {
                                s.refill_one();
                            }
                            for s in &mut sessions {
                                s.drain_completions();
                            }
                        }
                        for _ in 0..3 {
                            for s in &mut sessions {
                                assert!(s.refill_one(), "frontiers must still offer selections");
                            }
                        }
                        let in_flight: Vec<usize> =
                            sessions.iter().map(|s| s.in_flight()).collect();
                        assert!(in_flight.iter().sum::<usize>() > 0, "need mid-flight work");

                        let closed_counts: Vec<usize> = {
                            let outcomes: Vec<_> =
                                sessions.into_iter().map(|s| s.finish()).collect();
                            assert_eq!(pool.in_flight(), 0, "shutdown must drain the pool");
                            outcomes
                                .iter()
                                .map(|o| o.abandoned.session_closed as usize)
                                .collect()
                        };
                        let selected: Vec<Vec<u64>> =
                            recorders.iter().map(|r| r.selected.clone()).collect();
                        let observed: Vec<Vec<u64>> =
                            recorders.iter().map(|r| r.observations.clone()).collect();
                        let event_closed: Vec<usize> = logs
                            .iter()
                            .map(|log| {
                                log.events()
                                    .iter()
                                    .filter(|e| {
                                        matches!(
                                            e,
                                            OwnedEvent::Abandoned {
                                                reason: AbandonReason::SessionClosed,
                                                ..
                                            }
                                        )
                                    })
                                    .count()
                            })
                            .collect();
                        assert_eq!(event_closed, closed_counts, "counters agree with events");
                        (selected, observed, in_flight, event_closed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
        });

    for (shard, (selected, observed, in_flight, closed)) in results.iter().enumerate() {
        for i in 0..selected.len() {
            let mut sel = selected[i].clone();
            let mut obs = observed[i].clone();
            sel.sort_unstable();
            obs.sort_unstable();
            assert_eq!(
                sel, obs,
                "shard{shard}/site{i}: exactly one observation per selection across shutdown"
            );
            assert_eq!(
                closed[i], in_flight[i],
                "shard{shard}/site{i}: each in-flight job ends as Abandoned(SessionClosed)"
            );
        }
    }
}
