//! Integration: the four revisit policies against the same evolving site,
//! through the `xp revisit` driver (`experiments::revisit::recrawl`) — one
//! `CrawlSession` whose refresh queue the policies feed.
//!
//! The headline shape this must reproduce (mirroring the single-shot
//! result of the paper, transplanted to recrawling): under a *tight* budget
//! on a site whose change is concentrated, the structure-learning policies
//! (Thompson over tag-path groups, sleeping bandit) discover more of the
//! newly published targets than uniform cycling, and every policy reaches
//! full recall once the budget is generous.

use rand::rngs::StdRng;
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{CrawlConfig, CrawlSession, EventLog, OwnedEvent};
use sb_eval::experiments::revisit::{recrawl, RecrawlConfig};
use sb_httpsim::SiteServer;
use sb_revisit::{
    ChangeModel, EvolvingSite, Observation, ProportionalRevisit, RevisitPolicy, RoundRobinRevisit,
    SleepingBanditRevisit, ThompsonGroupsRevisit,
};
use sb_webgraph::gen::{PageKind, SiteSource};
use sb_webgraph::{build_site, SiteSpec};
use std::collections::HashSet;

fn evolving(pages: usize, seed: u64, model: &ChangeModel) -> EvolvingSite {
    EvolvingSite::evolve(build_site(&SiteSpec::demo(pages), seed), model, seed)
}

fn four_policies() -> Vec<Box<dyn RevisitPolicy>> {
    vec![
        Box::new(RoundRobinRevisit::default()),
        Box::new(ProportionalRevisit::default()),
        Box::new(ThompsonGroupsRevisit::default()),
        Box::new(SleepingBanditRevisit::default()),
    ]
}

/// Uniform cycling that also records every `(url, in_path)` registration,
/// in order — the driver's view of the corpus, observed from outside.
#[derive(Default)]
struct Recording {
    inner: RoundRobinRevisit,
    registered: Vec<(String, String)>,
}

impl RevisitPolicy for Recording {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn register(&mut self, url: &str, in_path: &str) {
        self.registered.push((url.to_owned(), in_path.to_owned()));
        self.inner.register(url, in_path);
    }
    fn begin_epoch(&mut self) {
        self.inner.begin_epoch();
    }
    fn next(&mut self, rng: &mut StdRng) -> Option<String> {
        self.inner.next(rng)
    }
    fn observe(&mut self, url: &str, obs: &Observation) {
        self.inner.observe(url, obs);
    }
}

fn concentrated_site(seed: u64) -> EvolvingSite {
    // Publication-only change in one hot section, many epochs: the setting
    // where knowing *where* to look pays the most.
    evolving(400, seed, &ChangeModel { epochs: 8, ..ChangeModel::publication_only(8, 10.0) })
}

fn run(site: &EvolvingSite, policy: &mut dyn RevisitPolicy, budget: u64, seed: u64) -> f64 {
    let cfg = RecrawlConfig { per_epoch_requests: budget, seed };
    recrawl(site, policy, &cfg).final_recall()
}

#[test]
fn every_policy_finds_something_under_tight_budget() {
    let site = concentrated_site(31);
    for mut p in four_policies() {
        let name = p.name();
        let cfg = RecrawlConfig { per_epoch_requests: 60, seed: 5 };
        let out = recrawl(&site, p.as_mut(), &cfg);
        assert!(
            out.new_targets_found() > 0,
            "{name} found no new targets over {} epochs",
            out.epochs.len()
        );
        assert!(out.final_recall() <= 1.0);
    }
}

#[test]
fn learners_beat_uniform_on_concentrated_change() {
    for site_seed in [31, 7, 99, 3, 12] {
        let site = concentrated_site(site_seed);
        let budget = 60;
        let uniform = run(&site, &mut RoundRobinRevisit::default(), budget, 5);
        let thompson = run(&site, &mut ThompsonGroupsRevisit::default(), budget, 5);
        let sleeping = run(&site, &mut SleepingBanditRevisit::default(), budget, 5);
        assert!(
            thompson >= uniform,
            "site {site_seed}: Thompson-groups recall {thompson:.3} below uniform {uniform:.3}"
        );
        assert!(
            sleeping >= uniform,
            "site {site_seed}: sleeping-bandit recall {sleeping:.3} below uniform {uniform:.3}"
        );
        // At least one learner must be strictly better: all change lives in one
        // hot section, so cycling the whole corpus wastes most of the budget.
        assert!(
            thompson.max(sleeping) > uniform,
            "site {site_seed}: no learner improved on uniform: thompson {thompson:.3}, sleeping {sleeping:.3}, uniform {uniform:.3}"
        );
    }
}

#[test]
fn generous_budget_equalises_policies_at_full_recall() {
    let model = ChangeModel::publication_only(4, 6.0);
    let site = EvolvingSite::evolve(build_site(&SiteSpec::demo(200), 17), &model, 17);
    for mut p in four_policies() {
        let recall = run(&site, p.as_mut(), 100_000, 3);
        assert!(
            (recall - 1.0).abs() < f64::EPSILON,
            "{} should reach full recall unbudgeted, got {recall}",
            p.name()
        );
    }
}

#[test]
fn churn_only_site_keeps_recall_trivially_and_degrades_freshness_without_revisits() {
    // With a zero budget the stored copy must go stale as targets update.
    let model = ChangeModel::churn_only(5, 0.3, 0.0);
    let site = EvolvingSite::evolve(build_site(&SiteSpec::demo(250), 23), &model, 23);
    let cfg = RecrawlConfig { per_epoch_requests: 0, seed: 1 };
    let mut policy = RoundRobinRevisit::default();
    let out = recrawl(&site, &mut policy, &cfg);
    let last = out.epochs.last().expect("epochs recorded");
    assert!(
        last.target_freshness < 1.0,
        "30 % target updates per epoch over 4 epochs must stale something, freshness = {}",
        last.target_freshness
    );
    assert!((last.recall() - 1.0).abs() < f64::EPSILON, "nothing published ⇒ recall stays 1");
}

#[test]
fn revisits_restore_freshness() {
    let model = ChangeModel::churn_only(5, 0.3, 0.0);
    let site = EvolvingSite::evolve(build_site(&SiteSpec::demo(250), 23), &model, 23);
    // HTML freshness: list pages never change under churn_only (no new
    // links), so HTML freshness stays 1 even unbudgeted; target freshness
    // is restored only by re-fetching targets, which the HTML-revisit
    // policies do not do — it must therefore *decay* monotonically.
    let cfg = RecrawlConfig { per_epoch_requests: 100_000, seed: 1 };
    let mut policy = RoundRobinRevisit::default();
    let out = recrawl(&site, &mut policy, &cfg);
    for e in &out.epochs {
        assert!((e.html_freshness - 1.0).abs() < f64::EPSILON, "static HTML stays fresh");
    }
    let tf: Vec<f64> = out.epochs.iter().map(|e| e.target_freshness).collect();
    for w in tf.windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "target freshness decays without target revisits: {tf:?}");
    }
}

// ---- moved from `sb_revisit::harness::tests` ----

#[test]
fn static_site_stays_fresh_and_quiet() {
    let model = ChangeModel::churn_only(3, 0.0, 0.0);
    let site = evolving(150, 4, &model);
    let mut policy = RoundRobinRevisit::default();
    let out = recrawl(&site, &mut policy, &RecrawlConfig::default());
    assert_eq!(out.epochs.len(), 2);
    for e in &out.epochs {
        assert_eq!(e.changes_detected, 0);
        assert_eq!(e.new_targets_found, 0);
        assert_eq!(e.deaths_detected, 0);
        assert!((e.html_freshness - 1.0).abs() < f64::EPSILON);
        assert!((e.target_freshness - 1.0).abs() < f64::EPSILON);
        assert!((e.recall() - 1.0).abs() < f64::EPSILON, "nothing published ⇒ recall 1");
    }
}

#[test]
fn per_epoch_budget_is_respected() {
    let model = ChangeModel { new_targets_per_epoch: 10.0, ..ChangeModel::default() };
    let site = evolving(300, 9, &model);
    let mut policy = RoundRobinRevisit::default();
    let cfg = RecrawlConfig { per_epoch_requests: 40, ..RecrawlConfig::default() };
    let out = recrawl(&site, &mut policy, &cfg);
    for e in &out.epochs {
        // The allowance is checked before every session step, and a
        // window-1 step spends one request: no overshoot at all.
        assert!(e.requests <= cfg.per_epoch_requests, "epoch {} spent {}", e.epoch, e.requests);
    }
}

#[test]
fn generous_budget_reaches_full_recall() {
    let model = ChangeModel::publication_only(4, 8.0);
    let site = evolving(200, 3, &model);
    let mut policy = RoundRobinRevisit::default();
    let cfg = RecrawlConfig { per_epoch_requests: 100_000, ..RecrawlConfig::default() };
    let out = recrawl(&site, &mut policy, &cfg);
    let last = out.epochs.last().expect("has epochs");
    assert!(last.cumulative_new_targets_available > 0, "the model published targets");
    assert!(
        (out.final_recall() - 1.0).abs() < f64::EPSILON,
        "an unbudgeted uniform recrawl finds everything; recall = {}",
        out.final_recall()
    );
}

#[test]
fn deaths_are_detected_and_forgotten() {
    let model = ChangeModel { death_frac: 0.25, ..ChangeModel::default() };
    let site = evolving(300, 13, &model);
    let mut policy = RoundRobinRevisit::default();
    let cfg = RecrawlConfig { per_epoch_requests: 100_000, ..RecrawlConfig::default() };
    let out = recrawl(&site, &mut policy, &cfg);
    let total_deaths: u64 = out.epochs.iter().map(|e| e.deaths_detected).sum();
    assert!(total_deaths > 0, "a quarter of articles die per epoch");
}

#[test]
fn deterministic_across_runs() {
    let model = ChangeModel::default();
    let site = evolving(250, 21, &model);
    let cfg = RecrawlConfig { per_epoch_requests: 80, seed: 7 };
    let mut p1 = SleepingBanditRevisit::default();
    let mut p2 = SleepingBanditRevisit::default();
    let a = recrawl(&site, &mut p1, &cfg);
    let b = recrawl(&site, &mut p2, &cfg);
    assert_eq!(a.revisit_requests(), b.revisit_requests());
    assert_eq!(a.new_targets_found(), b.new_targets_found());
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(x.changes_detected, y.changes_detected);
        assert_eq!(x.cumulative_new_targets_found, y.cumulative_new_targets_found);
    }
}

#[test]
fn initial_crawl_is_accounted_separately() {
    let model = ChangeModel::default();
    let site = evolving(150, 2, &model);
    let mut policy = RoundRobinRevisit::default();
    let out = recrawl(&site, &mut policy, &RecrawlConfig::default());
    assert!(out.initial_pages > 0);
    assert!(out.initial_traffic.get_requests >= out.initial_pages as u64);
    assert_eq!(out.policy_name, "uniform");
}

// ---- new with the port onto `CrawlSession` ----

/// Replaces `snapshot::tests::in_paths_are_tag_paths`: the policies' groups
/// are the DOM tag paths of the discovering links (the paper's "paths
/// leading to the links"), for the initial corpus and for pages found
/// mid-run alike. Only pages no link named keep the `(root)` label: the
/// start page, and the pages reached solely through a redirect.
#[test]
fn pages_register_under_their_in_link_tag_path() {
    let site = evolving(400, 12, &ChangeModel::default());
    let root = site.snapshot(0).page(site.snapshot(0).root()).url.clone();
    let redirect_destinations: HashSet<&str> = (0..site.epochs())
        .map(|e| site.snapshot(e))
        .flat_map(|snap| {
            snap.pages().iter().filter_map(move |p| match p.kind {
                PageKind::Redirect { to } => Some(snap.page(to).url.as_str()),
                _ => None,
            })
        })
        .collect();

    let mut policy = Recording::default();
    let out = recrawl(&site, &mut policy, &RecrawlConfig::default());
    let found_later: u64 = out.epochs.iter().map(|e| e.new_pages_found).sum();
    assert!(found_later > 0, "the run must cover pages discovered by a refresh");
    assert_eq!(policy.registered.len() as u64, out.initial_pages as u64 + found_later);
    assert_eq!(policy.registered[0], (root.clone(), "(root)".to_owned()));

    let mut under_tag_paths = 0;
    for (url, in_path) in &policy.registered[1..] {
        assert_ne!(url, &root, "the root registers once");
        if in_path == "(root)" {
            assert!(redirect_destinations.contains(url.as_str()), "{url} has an in-link");
            continue;
        }
        under_tag_paths += 1;
        assert!(in_path.starts_with("html"), "tag path starts at the root: {url} under {in_path}");
        assert!(
            in_path.split(' ').count() >= 2,
            "tag path has several segments: {url} under {in_path}"
        );
    }
    assert!(under_tag_paths * 100 >= policy.registered.len() * 98, "redirect-only pages are rare");
}

/// Replaces `snapshot::tests::{exhaustive_crawl_matches_census,
/// traffic_accounts_every_get, determinism_same_seed_same_corpus}`: the
/// initial acquisition is not *like* a BFS crawl of the epoch-0 snapshot,
/// it is one — same pages in the same order, same targets, same traffic
/// down to the simulated clock.
#[test]
fn initial_acquisition_is_the_standard_engine() {
    let site = evolving(300, 9, &ChangeModel::default());
    let base = site.snapshot(0);
    let root = base.page(base.root()).url.clone();

    let mut policy = Recording::default();
    let cfg = RecrawlConfig { per_epoch_requests: 0, ..RecrawlConfig::default() };
    let out = recrawl(&site, &mut policy, &cfg);

    // `sb_crawler::crawl()` with an event log attached.
    let server = SiteServer::new((**base).clone());
    let mut bfs = QueueStrategy::bfs();
    let mut log = EventLog::new();
    let crawl_cfg = CrawlConfig::default();
    let reference = CrawlSession::new(&server, None, &root, &mut bfs, &crawl_cfg)
        .expect("generated root URL is absolute")
        .observe(&mut log)
        .run();
    let reference_pages: Vec<&str> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::PageProcessed { url, .. } => Some(url.as_str()),
            _ => None,
        })
        .collect();

    assert_eq!(out.initial_traffic, reference.traffic, "every counter and the clock");
    assert!(out.initial_traffic.target_bytes > 0, "target volume is tagged");
    assert!(out.initial_traffic.elapsed_secs > 0.0);
    let registered: Vec<&str> = policy.registered.iter().map(|(u, _)| u.as_str()).collect();
    assert_eq!(registered, reference_pages, "pages, in fetch order");
    assert_eq!(out.initial_targets, reference.targets.len());

    let census = base.census();
    assert_eq!(out.initial_pages, census.html, "every reachable HTML page is known");
    assert_eq!(out.initial_targets, census.targets, "every reachable target is stored");
}

/// Replaces `snapshot::tests::corpus_remove_page_forgets`: a page seen dead
/// is forgotten, so it cannot count as stale forever. With every live page
/// revisited each epoch the stored HTML is exactly the live HTML.
#[test]
fn dead_pages_leave_the_freshness_denominator() {
    let model = ChangeModel { death_frac: 0.25, ..ChangeModel::default() };
    let site = evolving(300, 13, &model);
    let mut policy = RoundRobinRevisit::default();
    let cfg = RecrawlConfig { per_epoch_requests: 100_000, ..RecrawlConfig::default() };
    let out = recrawl(&site, &mut policy, &cfg);
    assert!(out.epochs.iter().map(|e| e.deaths_detected).sum::<u64>() > 0);
    for e in &out.epochs {
        assert!(
            (e.html_freshness - 1.0).abs() < f64::EPSILON,
            "epoch {}: a forgotten page still weighs on HTML freshness ({})",
            e.epoch,
            e.html_freshness
        );
    }
}
