//! The batched-selection contract (PR 10): filling the in-flight window
//! through one `Strategy::select_batch` ranking pass changes *when*
//! selections are pulled, never what an exhaustive crawl finds; at batch
//! 1 / window 1 it replays the frozen seed engine byte for byte; and the
//! one-feedback-per-selection invariant holds for every batch member —
//! including members still buffered (pulled but unsubmitted) when the
//! session shuts down mid-batch.

mod batched;
mod oracle;

use batched::Batched;
use oracle::OracleValueStrategy;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use rand::rngs::StdRng;
use sb_bench::reference::{collapse_target_amends, reference_queue_crawl};
use sb_crawler::{Budget, CrawlConfig, CrawlSession};
use sb_crawler::events::{AbandonReason, OwnedEvent};
use sb_crawler::strategies::{Discipline, QueueStrategy, ValueStrategy};
use sb_crawler::strategy::{LinkDecision, NewLink, SelUrl, Selection, Services, Strategy};
use sb_crawler::{CrawlTrace, EventLog};
use sb_httpsim::SiteServer;
use sb_webgraph::gen::{build_site, SiteSpec};
use sb_webgraph::{UrlId, Website};
use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

fn arb_spec() -> impl PropStrategy<Value = SiteSpec> {
    (60usize..180, 0.08f64..0.5, 0.03f64..0.3, 0.0f64..0.3, 0.0f64..0.15).prop_map(
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

fn root_of(site: &Website) -> String {
    site.page(site.root()).url.clone()
}

/// The time axis masked out of a trace (batching reorders concurrent
/// transfers; cost-counter series are what must replay).
fn masked(trace: &CrawlTrace) -> Vec<(u64, u64, u64, u64, u64)> {
    trace
        .points()
        .iter()
        .map(|p| (p.requests, p.head_requests, p.target_bytes, p.non_target_bytes, p.targets))
        .collect()
}

/// Exhaustive crawl with a queue strategy, optionally forced through the
/// batched refill path; returns (fetched set, target set, batch events).
fn exhaust(
    site: &Arc<Website>,
    discipline: Discipline,
    window: usize,
    batched: bool,
) -> (BTreeSet<String>, BTreeSet<String>, usize) {
    let root = root_of(site);
    let server = SiteServer::shared(Arc::clone(site));
    let cfg = CrawlConfig { max_in_flight: window, ..CrawlConfig::default() };
    let make = || match discipline {
        Discipline::Fifo => QueueStrategy::bfs(),
        Discipline::Lifo => QueueStrategy::dfs(),
        Discipline::Random => QueueStrategy::random(),
    };
    let mut log = EventLog::new();
    let out = if batched {
        let mut strat = Batched(make());
        CrawlSession::new(&server, None, &root, &mut strat, &cfg)
            .expect("generated roots are valid")
            .observe(&mut log)
            .run()
    } else {
        let mut strat = make();
        CrawlSession::new(&server, None, &root, &mut strat, &cfg)
            .expect("generated roots are valid")
            .observe(&mut log)
            .run()
    };
    let fetched: BTreeSet<String> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Fetched { url, .. } => Some(url.clone()),
            _ => None,
        })
        .collect();
    let batch_events = log
        .events()
        .iter()
        .filter(|e| matches!(e, OwnedEvent::BatchSelected { .. }))
        .count();
    let targets: BTreeSet<String> = out.targets.iter().map(|t| t.url.clone()).collect();
    (fetched, targets, batch_events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batch-size invariance: forcing any queue strategy through the
    /// batched refill path, at any window (= batch size), visits the same
    /// URL set and retrieves the same targets as the classic per-pull
    /// path at window 1 — batching reorders pulls, it never changes
    /// coverage. (RANDOM is excluded: its pop consumes RNG draws, so the
    /// *set* is seed-dependent by design, not a batching artifact.)
    #[test]
    fn batch_size_never_changes_exhaustive_coverage(
        (spec, seed) in (arb_spec(), 0u64..200),
    ) {
        let site = Arc::new(build_site(&spec, seed));
        for discipline in [Discipline::Fifo, Discipline::Lifo] {
            let (seq_fetched, seq_targets, seq_batches) =
                exhaust(&site, discipline, 1, false);
            prop_assert_eq!(seq_batches, 0, "per-pull path must emit no batch events");
            for window in [1usize, 4, 16] {
                let (fetched, targets, batches) = exhaust(&site, discipline, window, true);
                prop_assert!(batches > 0, "batched path must emit BatchSelected events");
                prop_assert_eq!(
                    &fetched, &seq_fetched,
                    "{:?} batch={} changed the visited set", discipline, window
                );
                prop_assert_eq!(
                    &targets, &seq_targets,
                    "{:?} batch={} changed the targets", discipline, window
                );
            }
        }
    }
}

/// Batch 1 at window 1 replays the frozen seed engine byte for byte:
/// same targets in retrieval order, same page count, same per-request
/// trace — under an unlimited budget and at a budget stop. The batched
/// path degenerates to exactly one stop check + one pull + one
/// submission per refill, which is the sequential engine's loop.
#[test]
fn batch_one_window_one_replays_frozen_reference() {
    let site = Arc::new(build_site(&SiteSpec::demo(250), 17));
    let root = root_of(&site);
    for budget in [Budget::Unlimited, Budget::Requests(40)] {
        let server = SiteServer::shared(Arc::clone(&site));
        let mut strat = Batched(QueueStrategy::bfs());
        let cfg = CrawlConfig { budget, seed: 5, max_in_flight: 1, ..CrawlConfig::default() };
        let out = CrawlSession::new(&server, None, &root, &mut strat, &cfg).unwrap().run();

        let reference =
            reference_queue_crawl(&server, &root, Discipline::Fifo, budget, 5, None);
        let ref_targets: Vec<String> =
            reference.targets.iter().map(|(u, _)| u.clone()).collect();
        let targets: Vec<String> = out.targets.iter().map(|t| t.url.clone()).collect();
        assert_eq!(targets, ref_targets, "target order diverged under {budget:?}");
        assert_eq!(out.pages_crawled, reference.pages_crawled, "{budget:?}");
        assert_eq!(
            masked(&out.trace),
            masked(&collapse_target_amends(&reference.trace)),
            "batch-1/window-1 trace must replay the seed engine under {budget:?}"
        );
    }
}

/// ValueStrategy itself — ranked batches, learned scorers — still visits
/// every page of an exhaustive crawl: scoring changes order, never
/// admission (every link is enqueued).
#[test]
fn value_strategy_exhaustive_coverage_matches_bfs() {
    let site = Arc::new(build_site(&SiteSpec::demo(200), 23));
    let root = root_of(&site);
    let (bfs_fetched, bfs_targets, _) = exhaust(&site, Discipline::Fifo, 1, false);
    for window in [1usize, 8] {
        let server = SiteServer::shared(Arc::clone(&site));
        let mut strat = ValueStrategy::default_mix();
        let cfg = CrawlConfig { max_in_flight: window, ..CrawlConfig::default() };
        let mut log = EventLog::new();
        let out = CrawlSession::new(&server, None, &root, &mut strat, &cfg)
            .unwrap()
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
        assert_eq!(fetched, bfs_fetched, "window {window} changed the visited set");
        assert_eq!(targets, bfs_targets, "window {window} changed the targets");
    }
}

/// Whole crawls, memoised vs re-score-everything (PR 22): the frozen
/// pre-memo strategy in `oracle/` and `ValueStrategy::default_mix()` drive
/// `CrawlSession` over the same site with the same budget, and must produce
/// the same crawl — every trace point (simulated clock included), every
/// fetch in order, every target in order — at windows 1, 4 and 16. The
/// second site is hazard-laced, so calendar traps and near-dup clusters put
/// the near-dup verdicts to work. (The oracle also still asks for anchor
/// text, as `ValueStrategy` did for a field no scorer read: the extracted
/// link set does not depend on it.)
#[test]
fn value_strategy_replays_the_rescoring_oracle_through_whole_crawls() {
    use sb_webgraph::gen::{apply_hazards, HazardSpec};

    let clean = build_site(&SiteSpec::demo(400), 41);
    let mut hostile = build_site(&SiteSpec::demo(300), 43);
    apply_hazards(&mut hostile, &HazardSpec::scaled(300), 43);

    fn crawl(
        site: &Arc<Website>,
        window: usize,
        strategy: &mut dyn Strategy,
    ) -> (Vec<sb_crawler::TracePoint>, Vec<String>, Vec<String>) {
        let server = SiteServer::shared(Arc::clone(site));
        let cfg = CrawlConfig {
            max_in_flight: window,
            budget: Budget::Requests(150),
            ..CrawlConfig::default()
        };
        let mut log = EventLog::new();
        let out = CrawlSession::new(&server, None, &root_of(site), strategy, &cfg)
            .expect("generated roots are valid")
            .observe(&mut log)
            .run();
        let fetched = log
            .events()
            .iter()
            .filter_map(|e| match e {
                OwnedEvent::Fetched { url, .. } => Some(url.clone()),
                _ => None,
            })
            .collect();
        let targets = out.targets.iter().map(|t| t.url.clone()).collect();
        (out.trace.points().to_vec(), fetched, targets)
    }

    for (name, site) in [("clean", Arc::new(clean)), ("hostile", Arc::new(hostile))] {
        for window in [1usize, 4, 16] {
            let want = crawl(&site, window, &mut OracleValueStrategy::default_mix());
            let got = crawl(&site, window, &mut ValueStrategy::default_mix());
            assert!(want.1.len() > 100, "{name}/{window}: the budget must bind, not the site");
            assert_eq!(got.0, want.0, "{name} site, window {window}: trace diverged");
            assert_eq!(got.1, want.1, "{name} site, window {window}: fetch order diverged");
            assert_eq!(got.2, want.2, "{name} site, window {window}: targets diverged");
        }
    }
}

/// A recorder forced through the batch path: tracks every pulled token
/// and every observation, so the one-observation-per-pull invariant can
/// be asserted exactly.
#[derive(Default)]
struct Recorder {
    frontier: VecDeque<UrlId>,
    selected: Vec<u64>,
    observations: Vec<u64>,
    errors: Vec<u64>,
}

impl Strategy for Recorder {
    fn name(&self) -> String {
        "BATCH-RECORDER".to_owned()
    }

    fn next(&mut self, _rng: &mut StdRng) -> Option<Selection> {
        let id = self.frontier.pop_front()?;
        let token = u64::from(id);
        self.selected.push(token);
        Some(Selection { url: SelUrl::Id(id), token })
    }

    fn batch_selection(&self) -> bool {
        true
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
        self.errors.push(token);
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

/// Every batch member gets exactly one observation — under natural
/// exhaustion, a request-budget stop, and a volume-budget stop (the case
/// that leaves ranked members *buffered but unsubmitted*: they must drain
/// as `feedback_error`, never silently).
#[test]
fn one_feedback_per_batch_member_survives_shutdown() {
    let site = Arc::new(build_site(&SiteSpec::demo(300), 9));
    let root = root_of(&site);
    for budget in [Budget::Unlimited, Budget::Requests(37), Budget::VolumeBytes(200_000)] {
        let server = SiteServer::shared(Arc::clone(&site));
        let mut rec = Recorder::default();
        let mut log = EventLog::new();
        let cfg = CrawlConfig { max_in_flight: 8, budget, ..CrawlConfig::default() };
        let out = CrawlSession::new(&server, None, &root, &mut rec, &cfg)
            .unwrap()
            .observe(&mut log)
            .run();
        let mut selected = rec.selected.clone();
        let mut observed = rec.observations.clone();
        selected.sort_unstable();
        observed.sort_unstable();
        assert_eq!(
            selected, observed,
            "every batch member must produce exactly one observation under {budget:?}"
        );
        // The waste ledger moves only with an `Abandoned` emission.
        let abandoned_events =
            log.events().iter().filter(|e| matches!(e, OwnedEvent::Abandoned { .. })).count();
        assert_eq!(
            out.abandoned.total(),
            abandoned_events as u64,
            "abandon tally out of lockstep with its events under {budget:?}"
        );
    }
}

/// A buffered batch member carrying an id the session never issued is
/// feedback-only at shutdown, exactly as `resolve_selection` treats it
/// mid-crawl: one `feedback_error`, no `Abandoned` event (there is no URL
/// to name) and therefore no count — the tally stays in lockstep with the
/// events.
#[test]
fn bogus_buffered_member_keeps_abandon_tally_in_lockstep_with_events() {
    const BOGUS_TOKEN: u64 = u64::MAX;

    /// Over-returns its first full batch by one bogus id: the real members
    /// fill the window's free slots, so the bogus one stays buffered.
    #[derive(Default)]
    struct OverReturner {
        inner: Recorder,
        planted: Rc<Cell<bool>>,
    }
    impl Strategy for OverReturner {
        fn name(&self) -> String {
            "OVER-RETURNER".to_owned()
        }
        fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
            self.inner.next(rng)
        }
        fn select_batch(&mut self, k: usize, rng: &mut StdRng) -> Vec<Selection> {
            let mut batch: Vec<Selection> = (0..k).filter_map(|_| self.inner.next(rng)).collect();
            if batch.len() == k && !self.planted.replace(true) {
                batch.push(Selection { url: SelUrl::Id(UrlId::MAX), token: BOGUS_TOKEN });
            }
            batch
        }
        fn batch_selection(&self) -> bool {
            true
        }
        fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision {
            self.inner.decide(link, services)
        }
        fn feedback(&mut self, token: u64, reward: f64) {
            self.inner.feedback(token, reward);
        }
        fn feedback_target(&mut self, token: u64) {
            self.inner.feedback_target(token);
        }
        fn feedback_error(&mut self, token: u64) {
            self.inner.feedback_error(token);
        }
        fn frontier_len(&self) -> usize {
            self.inner.frontier_len()
        }
    }

    let site = Arc::new(build_site(&SiteSpec::demo(300), 9));
    let root = root_of(&site);
    let server = SiteServer::shared(Arc::clone(&site));
    let mut strat = OverReturner::default();
    let planted = Rc::clone(&strat.planted);
    let mut log = EventLog::new();
    let cfg = CrawlConfig { max_in_flight: 2, ..CrawlConfig::default() };
    let mut session =
        CrawlSession::new(&server, None, &root, &mut strat, &cfg).unwrap().observe(&mut log);
    // Fill the window, drain, repeat — until the refill that pulled the
    // over-returned batch: its real members are in flight, the bogus id is
    // buffered behind a full window. Cancel right there.
    loop {
        while session.refill_one() {}
        if planted.get() {
            break;
        }
        assert!(session.drain_completions() > 0, "the crawl ended before a full batch");
    }
    let in_flight = session.in_flight();
    assert!(in_flight > 0);
    let out = session.finish();

    let closed_events = log
        .events()
        .iter()
        .filter(|e| {
            matches!(e, OwnedEvent::Abandoned { reason: AbandonReason::SessionClosed, .. })
        })
        .count();
    assert_eq!(closed_events, in_flight, "in-flight members are named; the bogus id cannot be");
    assert_eq!(out.abandoned.session_closed, closed_events as u64);
    assert_eq!(
        strat.inner.errors.iter().filter(|&&t| t == BOGUS_TOKEN).count(),
        1,
        "the bogus member is still owed exactly one error observation"
    );
}

/// Cancelling a session mid-batch (the external-shutdown path) drains
/// exactly one `feedback_error` per member still owed an answer — both
/// the in-flight ones and the ranked-but-unsubmitted tail of the batch.
#[test]
fn mid_batch_cancel_drains_exactly_one_error_per_member() {
    let site = Arc::new(build_site(&SiteSpec::demo(300), 31));
    let root = root_of(&site);
    let server = SiteServer::shared(Arc::clone(&site));
    let mut rec = Recorder::default();
    let cfg = CrawlConfig { max_in_flight: 8, ..CrawlConfig::default() };
    let mut session = CrawlSession::new(&server, None, &root, &mut rec, &cfg).unwrap();
    // Step far enough that steady-state batches are being pulled, then
    // cancel with work in flight.
    for _ in 0..6 {
        session.step();
    }
    let _ = session.finish();
    let mut selected = rec.selected.clone();
    let mut observed = rec.observations.clone();
    selected.sort_unstable();
    observed.sort_unstable();
    assert_eq!(selected, observed, "cancel must settle every pulled member exactly once");
    // The cancel happened mid-crawl: at least one member was settled by
    // the shutdown drain itself (an error observation).
    assert!(!rec.errors.is_empty(), "mid-batch cancel must drain members as feedback_error");
    let mut errors = rec.errors.clone();
    errors.sort_unstable();
    errors.dedup();
    assert_eq!(errors.len(), rec.errors.len(), "no member may be drained twice");
}
