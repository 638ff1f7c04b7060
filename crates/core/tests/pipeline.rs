//! The pipelined-session contract (PR 4): widening the in-flight window
//! changes *when* pages are fetched, never *what* an exhaustive crawl
//! finds; the politeness gate keeps makespans honest; and the
//! one-feedback-per-selection invariant survives both pipelining and
//! mid-flight shutdown.

use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use sb_crawler::{Budget, CrawlConfig, CrawlSession};
use sb_crawler::events::OwnedEvent;
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::strategy::{LinkDecision, NewLink, SelUrl, Selection, Services, Strategy};
use sb_crawler::EventLog;
use sb_httpsim::transport::{PipelinedTransport, Transport};
use sb_httpsim::{HazardPolicy, Outage, Politeness, RetryPolicy, SiteServer};
use sb_webgraph::gen::{build_site, SiteSource, SiteSpec};
use sb_webgraph::{UrlId, Website};
use rand::rngs::StdRng;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

fn arb_spec() -> impl PropStrategy<Value = SiteSpec> {
    (60usize..200, 0.08f64..0.5, 0.03f64..0.3, 0.0f64..0.4, 0.0f64..0.15).prop_map(
        |(n, tf, lf, ext, err)| {
            let mut s = SiteSpec::demo(n);
            s.target_frac = tf;
            s.html_to_target_frac = lf;
            s.extensionless = ext;
            s.error_frac = err;
            s
        },
    )
}

/// Exhaustive BFS crawl at a given window; returns (fetched URL set,
/// target URL set, simulated makespan).
fn exhaust(site: &Arc<Website>, window: usize) -> (BTreeSet<String>, BTreeSet<String>, f64) {
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::shared(Arc::clone(site));
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig { max_in_flight: window, ..CrawlConfig::default() };
    let mut log = EventLog::new();
    let out = CrawlSession::new(&server, None, &root, &mut bfs, &cfg)
        .expect("generated roots are valid")
        .observe(&mut log)
        .run();
    let fetched: BTreeSet<String> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Fetched { url, .. } => Some(url.clone()),
            _ => None,
        })
        .collect();
    let targets: BTreeSet<String> = out.targets.iter().map(|t| t.url.clone()).collect();
    (fetched, targets, out.traffic.elapsed_secs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any `max_in_flight ≥ 1` visits the same URL set and retrieves the
    /// same targets as the sequential engine on an exhaustive crawl —
    /// pipelining reorders fetches, it never changes coverage.
    #[test]
    fn window_width_never_changes_exhaustive_coverage(
        (spec, seed) in (arb_spec(), 0u64..200),
    ) {
        let site = Arc::new(build_site(&spec, seed));
        let (seq_fetched, seq_targets, seq_makespan) = exhaust(&site, 1);
        for window in [2usize, 7, 16] {
            let (fetched, targets, makespan) = exhaust(&site, window);
            prop_assert_eq!(&fetched, &seq_fetched, "window {} changed the visited set", window);
            prop_assert_eq!(&targets, &seq_targets, "window {} changed the targets", window);
            // Overlapping transfers can only shrink simulated time.
            prop_assert!(
                makespan <= seq_makespan + 1e-6,
                "window {} made the crawl slower: {} vs {}", window, makespan, seq_makespan
            );
        }
    }
}

/// On a transfer-dominated site the makespan improves monotonically with
/// the window and by ≥ 2× at 16 — the acceptance shape of the `pipeline`
/// bench, pinned at test scale.
#[test]
fn latency_simulated_makespan_scales_with_window() {
    let site = Arc::new(build_site(&SiteSpec::demo(400), 42));
    let root = site.page(site.root()).url.clone();
    let politeness = Politeness { delay_secs: 1.0, bytes_per_sec: 600.0 };
    let makespan = |window: usize| {
        let server = SiteServer::shared(Arc::clone(&site));
        let mut bfs = QueueStrategy::bfs();
        let cfg = CrawlConfig { max_in_flight: window, politeness, ..CrawlConfig::default() };
        let out = CrawlSession::new(&server, None, &root, &mut bfs, &cfg).unwrap().run();
        (out.traffic.elapsed_secs, out.traffic.requests())
    };
    let (m1, _) = makespan(1);
    let (m4, _) = makespan(4);
    let (m16, requests) = makespan(16);
    assert!(m4 < m1 && m16 <= m4, "monotone: {m1:.0}s → {m4:.0}s → {m16:.0}s");
    assert!(m16 * 2.0 <= m1, "window 16 must at least halve the makespan: {m1:.0}s vs {m16:.0}s");
    // The politeness gate bounds the improvement through the session too:
    // dispatches to the one host sit ≥ delay_secs apart, so n GETs cost at
    // least n·delay of simulated time no matter how wide the window is.
    assert!(
        m16 >= requests as f64 * politeness.delay_secs - 1e-6,
        "gate floor violated: {requests} requests finished in {m16:.1}s"
    );
}

/// A BFS recorder that counts feedback per token (as in session_api.rs,
/// reused here to pin the invariant *under pipelining*).
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

/// Every selection pulled under a wide window gets exactly one feedback —
/// including the ones still in flight when the budget kills the session
/// mid-pipeline (they drain as `SessionClosed` error observations).
#[test]
fn one_feedback_per_selection_survives_pipelining_and_shutdown() {
    let site = Arc::new(build_site(&SiteSpec::demo(300), 9));
    let root = site.page(site.root()).url.clone();
    for budget in [Budget::Unlimited, Budget::Requests(37)] {
        let server = SiteServer::shared(Arc::clone(&site));
        let mut rec = Recorder::default();
        let cfg = CrawlConfig { max_in_flight: 8, budget, ..CrawlConfig::default() };
        let _ = CrawlSession::new(&server, None, &root, &mut rec, &cfg).unwrap().run();
        let mut selected = rec.selected.clone();
        let mut observed = rec.observations.clone();
        selected.sort_unstable();
        observed.sort_unstable();
        assert_eq!(
            selected, observed,
            "every pull must produce exactly one observation under {budget:?}"
        );
    }
}

/// Transient 503 bursts: a retrying transport threaded through the session
/// recovers pages the plain pipeline abandons, on identical failure seeds.
#[test]
fn flaky_retry_through_the_pipeline_recovers_targets() {
    let site = build_site(&SiteSpec::demo(400), 11);
    let root = site.page(site.root()).url.clone();
    let cfg = CrawlConfig { max_in_flight: 6, ..CrawlConfig::default() };

    let run = |retries: u32| {
        let origin = SiteServer::new(site.clone());
        let outage = Outage { share: 0.3, seed: 5, transient: true, exempt: Some(root.clone()) };
        let transport: Box<dyn Transport + '_> = Box::new(
            PipelinedTransport::new(&origin, cfg.policy.clone(), cfg.politeness)
                .with_window(cfg.max_in_flight)
                .with_retry_policy(RetryPolicy::retries(retries))
                .with_hazards(HazardPolicy::default().with_outage(outage)),
        );
        let mut bfs = QueueStrategy::bfs();
        let out = CrawlSession::with_transport(transport, None, &root, &mut bfs, &cfg)
            .unwrap()
            .run();
        (out.targets_found(), out.pages_crawled)
    };

    let (plain_targets, _) = run(0);
    let (retry_targets, _) = run(1);
    let total = site.census().targets as u64;
    assert!(retry_targets > plain_targets, "{retry_targets} vs {plain_targets}");
    assert_eq!(retry_targets, total, "one retry recovers every transiently failing target");
}

/// A wide window must not overshoot `Budget::VolumeBytes` (ROADMAP open
/// item, fixed in PR 5): in-flight wire bytes count against the remaining
/// volume at refill, so exhaustion lands at the same budget point at
/// `max_in_flight` 1 and 16 — within the one-request check-to-charge gap
/// the sequential engine has always had, never a whole window of
/// undelivered transfers past the limit.
#[test]
fn volume_budget_is_not_overshot_by_wide_windows() {
    // Near-uniform transfer sizes, so "one transfer past the line" is a
    // *sharp* bound: a whole window of undelivered transfers (the pre-fix
    // failure mode — ~15 extra pages at window 16) dwarfs the largest
    // single page, where a default demo site's multi-MB outlier targets
    // would mask it.
    let mut spec = SiteSpec::demo(300);
    spec.target_frac = 0.5;
    spec.target_size_mb = (0.05, 0.005);
    let site = Arc::new(build_site(&spec, 13));
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::shared(Arc::clone(&site));

    // The largest single transfer the site can answer: the only legal
    // overshoot is one request past the line (budget checks run before
    // the charge lands, exactly like the sequential engine).
    let max_wire: u64 = site
        .pages()
        .iter()
        .map(|p| sb_httpsim::HttpServer::get(&server, &p.url).wire_size())
        .max()
        .unwrap();

    // A budget deep enough that the window is full when it exhausts.
    let exhaustive = {
        let mut bfs = QueueStrategy::bfs();
        CrawlSession::new(&server, None, &root, &mut bfs, &CrawlConfig::default())
            .unwrap()
            .run()
            .traffic
            .total_bytes()
    };
    let budget_bytes = exhaustive / 3;

    let run = |window: usize| {
        let mut bfs = QueueStrategy::bfs();
        let cfg = CrawlConfig {
            budget: Budget::VolumeBytes(budget_bytes),
            max_in_flight: window,
            ..CrawlConfig::default()
        };
        CrawlSession::new(&server, None, &root, &mut bfs, &cfg).unwrap().run()
    };
    let w1 = run(1);
    let w16 = run(16);

    use sb_crawler::events::FinishReason;
    assert_eq!(w1.finish_reason, FinishReason::BudgetExhausted);
    assert_eq!(w16.finish_reason, FinishReason::BudgetExhausted, "window 16 must exhaust too");
    for (window, out) in [(1usize, &w1), (16, &w16)] {
        let total = out.traffic.total_bytes();
        assert!(total >= budget_bytes, "window {window} stopped short of the budget");
        assert!(
            total < budget_bytes + max_wire,
            "window {window} overshot the volume budget by more than one transfer: \
             {total} vs budget {budget_bytes} (max single transfer {max_wire})"
        );
    }
}

/// Pipelined runs are deterministic: same site, same seed, same window ⇒
/// identical traces and targets, run to run.
#[test]
fn pipelined_runs_replay_themselves() {
    let site = Arc::new(build_site(&SiteSpec::demo(350), 21));
    let root = site.page(site.root()).url.clone();
    let run = || {
        let server = SiteServer::shared(Arc::clone(&site));
        let mut bfs = QueueStrategy::bfs();
        let cfg = CrawlConfig { max_in_flight: 9, seed: 3, ..CrawlConfig::default() };
        let out = CrawlSession::new(&server, None, &root, &mut bfs, &cfg).unwrap().run();
        let targets: Vec<String> = out.targets.iter().map(|t| t.url.clone()).collect();
        (out.pages_crawled, targets, out.trace.points().to_vec())
    };
    let (pages_a, targets_a, trace_a) = run();
    let (pages_b, targets_b, trace_b) = run();
    assert_eq!(pages_a, pages_b);
    assert_eq!(targets_a, targets_b);
    assert_eq!(trace_a, trace_b);
}

