//! The incremental-recrawl extension (paper Sec 6 future work): four
//! revisit policies on evolving versions of two Table 1 profiles.
//!
//! Expected shape (mirroring the single-shot result transplanted to
//! recrawling, and \[46\]'s finding that bandit schedulers beat uniform
//! revisiting): under a tight per-epoch budget on sites whose change
//! concentrates in hot sections, the tag-path group learners
//! (`thompson-groups`, `sleeping-bandit`) reach at least the new-target
//! recall of `uniform` cycling — [`run`] asserts it — and usually far more.
//! Per-page `proportional` mostly lands in between, but can dip below.
//!
//! [`recrawl`] owns no crawl loop: one [`CrawlSession`] acquires the site at
//! epoch 0 and serves every revisit through [`CrawlSession::queue_refresh`].
//! What is left here is policy plumbing: pick → refresh → [`Observation`],
//! the per-epoch request allowance and the oracle-side freshness check.

use crate::setup::EvalConfig;
use crate::tables::{markdown, write_csv, write_text};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{
    CrawlConfig, CrawlSession, LinkDecision, NewLink, RefreshedPage, Selection, Services, Strategy,
};
use sb_httpsim::{HttpServer, Traffic};
use sb_revisit::{
    fnv64, ChangeModel, EvolvingServer, EvolvingSite, Observation, ProportionalRevisit,
    RevisitPolicy, RoundRobinRevisit, SleepingBanditRevisit, ThompsonGroupsRevisit,
};
use sb_webgraph::build_site;
use sb_webgraph::mime::MimePolicy;
use std::cell::RefCell;
use std::collections::HashMap;

/// Recrawl driver configuration. The session crawls under the default
/// politeness model and MIME policy.
#[derive(Debug, Clone)]
pub struct RecrawlConfig {
    /// Request budget (GET + HEAD) per revisit epoch.
    pub per_epoch_requests: u64,
    /// Seed for the policies' stochastic choices.
    pub seed: u64,
}

impl Default for RecrawlConfig {
    fn default() -> Self {
        RecrawlConfig { per_epoch_requests: 250, seed: 0 }
    }
}

/// Measurements of one revisit epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochStats {
    pub epoch: usize,
    /// Requests spent this epoch (may undershoot the budget when the
    /// policy's schedule drains first).
    pub requests: u64,
    /// Pages re-fetched on the policy's order.
    pub revisits: u64,
    /// Revisits whose body differed from the stored copy.
    pub changes_detected: u64,
    /// Revisits that hit a dead page.
    pub deaths_detected: u64,
    /// New HTML pages discovered and added to the corpus.
    pub new_pages_found: u64,
    /// New targets retrieved this epoch.
    pub new_targets_found: u64,
    /// Running total of published-and-found targets (vs. ground truth).
    pub cumulative_new_targets_found: u64,
    /// Running total of targets the site has published since epoch 0.
    pub cumulative_new_targets_available: u64,
    /// Fraction of stored HTML pages that still match the live site.
    pub html_freshness: f64,
    /// Fraction of stored targets that still match the live site.
    pub target_freshness: f64,
    /// Estimated wall-clock seconds (politeness + transfer).
    pub elapsed_secs: f64,
}

impl EpochStats {
    /// Recall of published targets as of this epoch's end.
    pub fn recall(&self) -> f64 {
        if self.cumulative_new_targets_available == 0 {
            1.0
        } else {
            self.cumulative_new_targets_found as f64 / self.cumulative_new_targets_available as f64
        }
    }
}

/// Result of a whole recrawl run.
#[derive(Debug, Clone)]
pub struct RecrawlOutcome {
    pub policy_name: String,
    pub initial_pages: usize,
    pub initial_targets: usize,
    /// Traffic of the initial acquisition crawl.
    pub initial_traffic: Traffic,
    /// One entry per revisit epoch (epochs 1 ..).
    pub epochs: Vec<EpochStats>,
}

impl RecrawlOutcome {
    /// Requests across all revisit epochs (initial crawl excluded).
    pub fn revisit_requests(&self) -> u64 {
        self.epochs.iter().map(|e| e.requests).sum()
    }

    /// Recall of published targets at the end of the run.
    pub fn final_recall(&self) -> f64 {
        self.epochs.last().map_or(1.0, EpochStats::recall)
    }

    /// Total new targets retrieved across epochs.
    pub fn new_targets_found(&self) -> u64 {
        self.epochs.iter().map(|e| e.new_targets_found).sum()
    }
}

/// URL → tag path of the link that discovered it, until the URL is fetched.
type InPaths = RefCell<HashMap<String, String>>;

/// BFS that records the in-link tag path of every URL it enqueues — the
/// paper's "paths leading to the links", the groups the revisit policies
/// learn over (URL sections instead cost the learners their edge on uniform).
struct InLinkBfs<'p>(QueueStrategy, &'p InPaths);

impl Strategy for InLinkBfs<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn link_needs(&self) -> sb_html::LinkNeeds {
        sb_html::LinkNeeds::TAG_PATH
    }
    fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
        self.0.next(rng)
    }
    fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision {
        self.1.borrow_mut().insert(link.url_str.to_owned(), link.html.tag_path.to_string());
        self.0.decide(link, services)
    }
    fn frontier_len(&self) -> usize {
        self.0.frontier_len()
    }
}

/// What the crawler remembers between epochs: the body hash of every live
/// HTML page and of every target, as of its last retrieval.
struct Stored<'a> {
    pages: HashMap<String, u64>,
    targets: HashMap<String, u64>,
    in_paths: &'a InPaths,
    mime: &'a MimePolicy,
}

impl Stored<'_> {
    /// Folds one batch of the session's serve feed into the stored copy,
    /// the policy's schedule and the epoch's counters; returns what the
    /// batch means to the pick that caused it.
    fn absorb(
        &mut self,
        fed: Vec<RefreshedPage>,
        policy: &mut dyn RevisitPolicy,
        stats: &mut EpochStats,
    ) -> Observation {
        let mut obs = Observation::default();
        for p in fed {
            let is_html = p.mime.as_deref().is_some_and(|m| self.mime.is_html_mime(m));
            let in_path = self.in_paths.borrow_mut().remove(&p.url);
            if p.refresh && p.status >= 400 {
                obs.died = true;
                stats.deaths_detected += 1;
                self.pages.remove(&p.url);
            } else if p.refresh {
                if is_html {
                    obs.changed = p.changed;
                    stats.changes_detected += u64::from(p.changed);
                    self.pages.insert(p.url, p.body_hash);
                }
            } else if is_html {
                // No link named the start page or a redirect's destination.
                policy.register(&p.url, in_path.as_deref().unwrap_or("(root)"));
                stats.new_pages_found += 1;
                self.pages.insert(p.url, p.body_hash);
            } else {
                obs.new_targets += 1;
                stats.new_targets_found += 1;
                self.targets.insert(p.url, p.body_hash);
            }
        }
        obs
    }

    /// Oracle-side freshness measurement (free: bypasses the session's
    /// transport). Returns (HTML freshness, target freshness).
    fn freshness(&self, server: &EvolvingServer) -> (f64, f64) {
        let share = |stored: &HashMap<String, u64>, html: bool| {
            let fresh = stored.iter().filter(|(url, hash)| {
                let r = server.get(url);
                let live_mime = r.headers.content_type.as_deref();
                let mime_ok = !html || live_mime.is_some_and(|m| self.mime.is_html_mime(m));
                r.status == 200 && mime_ok && fnv64(&r.body) == **hash
            });
            if stored.is_empty() { 1.0 } else { fresh.count() as f64 / stored.len() as f64 }
        };
        (share(&self.pages, true), share(&self.targets, false))
    }
}

/// Runs `policy` against `site`: full acquisition at epoch 0, then one
/// budgeted revisit round per later epoch, all on one session. A harvest
/// the allowance cuts short resumes from the frontier under the next pick.
pub fn recrawl(
    site: &EvolvingSite,
    policy: &mut dyn RevisitPolicy,
    cfg: &RecrawlConfig,
) -> RecrawlOutcome {
    let server = EvolvingServer::new(site);
    let base = site.snapshot(0);
    let crawl_cfg = CrawlConfig { serve_feed: true, ..Default::default() };
    let in_paths = InPaths::default();
    let mut strategy = InLinkBfs(QueueStrategy::bfs(), &in_paths);
    let root_url = &base.page(base.root()).url;
    let mut session = CrawlSession::new(&server, None, root_url, &mut strategy, &crawl_cfg)
        .expect("recrawl config and generated root URL are valid");

    // The initial acquisition *is* the standard crawl, run to completion.
    while !session.is_finished() {
        session.step();
    }
    let initial_traffic = session.traffic();
    let (pages, targets) = (HashMap::new(), HashMap::new());
    let mut stored = Stored { pages, targets, in_paths: &in_paths, mime: &crawl_cfg.policy };
    stored.absorb(session.take_refreshed(), policy, &mut EpochStats::default());
    let (initial_pages, initial_targets) = (stored.pages.len(), stored.targets.len());

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x517c_c1b7_2722_0a95);
    let mut epochs = Vec::new();
    for e in 1..site.epochs() {
        server.set_epoch(e);
        policy.begin_epoch();
        let before = session.traffic();
        let spent = |s: &CrawlSession<'_>| s.traffic().requests() - before.requests();
        let mut stats = EpochStats { epoch: e, ..EpochStats::default() };
        while spent(&session) < cfg.per_epoch_requests {
            let Some(url) = policy.next(&mut rng) else { break };
            stats.revisits += 1;
            // Refreshes pre-empt discovery, so the pick's own page is the
            // next fetch; whatever its new links lead to follows, BFS.
            session.queue_refresh(&url, stored.pages.get(&url).copied().unwrap_or(0));
            while !session.is_finished() && spent(&session) < cfg.per_epoch_requests {
                session.step();
            }
            let obs = stored.absorb(session.take_refreshed(), policy, &mut stats);
            policy.observe(&url, &obs);
        }

        let published = site.new_target_urls_through(e);
        stats.cumulative_new_targets_available = published.len() as u64;
        stats.cumulative_new_targets_found =
            published.iter().filter(|u| stored.targets.contains_key(*u)).count() as u64;
        stats.requests = spent(&session);
        stats.elapsed_secs = session.traffic().elapsed_secs - before.elapsed_secs;
        (stats.html_freshness, stats.target_freshness) = stored.freshness(&server);
        epochs.push(stats);
    }

    RecrawlOutcome {
        policy_name: policy.name(),
        initial_pages,
        initial_targets,
        initial_traffic,
        epochs,
    }
}

/// Profiles used: one small data portal, one medium ministry site.
pub const REVISIT_SITES: [&str; 2] = ["cl", "ed"];

fn policies() -> Vec<Box<dyn RevisitPolicy>> {
    vec![
        Box::new(RoundRobinRevisit::default()),
        Box::new(ProportionalRevisit::default()),
        Box::new(ThompsonGroupsRevisit::default()),
        Box::new(SleepingBanditRevisit::default()),
    ]
}

/// One policy's run on one evolved site.
pub struct RevisitRun {
    pub site: String,
    pub outcome: RecrawlOutcome,
}

/// Evolves `code`'s site and runs all four policies under the same budget.
pub fn run_site(cfg: &EvalConfig, code: &str) -> Vec<RevisitRun> {
    let base = build_site(&cfg.site_spec(code), cfg.site_seed(code));
    let model = ChangeModel {
        epochs: 6,
        new_targets_per_epoch: 10.0,
        new_articles_per_epoch: 2.0,
        target_update_frac: 0.02,
        death_frac: 0.004,
        hot_sections: 2,
    };
    let seed = 0x5eed ^ code.bytes().fold(0u64, |a, b| a.wrapping_mul(31) + u64::from(b));
    let site = EvolvingSite::evolve(base, &model, seed);
    // Tight budget: a tenth of the site per epoch, floored for tiny sites.
    let budget = ((site.snapshot(0).len() as f64) * 0.1).round().max(30.0) as u64;
    policies()
        .into_iter()
        .map(|mut p| {
            let rc = RecrawlConfig { per_epoch_requests: budget, seed: 11 };
            RevisitRun { site: code.to_owned(), outcome: recrawl(&site, p.as_mut(), &rc) }
        })
        .collect()
}

pub fn run(cfg: &EvalConfig) -> String {
    let mut md = String::from(
        "## Incremental recrawl (Sec 6 future work) — new-target recall per policy\n\n\
         Change model: 6 epochs, ~10 new targets + 2 articles per epoch in 2 hot\n\
         sections, 2 % target refresh, 0.4 % page deaths; per-epoch budget = 10 %\n\
         of the site.\n\n",
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for code in REVISIT_SITES {
        if cfg.sites.as_ref().is_some_and(|s| !s.iter().any(|x| x == code)) {
            continue;
        }
        let runs = run_site(cfg, code);
        // `policies()` order: uniform, proportional, then the two group learners.
        let recalls: Vec<f64> = runs.iter().map(|r| r.outcome.final_recall()).collect();
        let learners_hold = recalls[2..].iter().all(|r| *r >= recalls[0]);
        assert!(learners_hold, "{code}: a group learner fell below uniform cycling: {recalls:?}");
        for run in &runs {
            let o = &run.outcome;
            let last = o.epochs.last();
            rows.push(vec![
                run.site.clone(),
                o.policy_name.clone(),
                o.revisit_requests().to_string(),
                o.new_targets_found().to_string(),
                format!("{:.1}", 100.0 * o.final_recall()),
                last.map_or("—".into(), |e| format!("{:.1}", 100.0 * e.html_freshness)),
                last.map_or("—".into(), |e| format!("{:.1}", 100.0 * e.target_freshness)),
            ]);
            for e in &o.epochs {
                csv.push(vec![
                    run.site.clone(),
                    o.policy_name.clone(),
                    e.epoch.to_string(),
                    e.requests.to_string(),
                    e.changes_detected.to_string(),
                    e.new_targets_found.to_string(),
                    format!("{:.4}", e.recall()),
                    format!("{:.4}", e.html_freshness),
                    format!("{:.4}", e.target_freshness),
                ]);
            }
        }
    }
    let headers: Vec<String> = [
        "site",
        "policy",
        "revisit req.",
        "new targets",
        "recall (%)",
        "HTML fresh (%)",
        "target fresh (%)",
    ]
    .map(String::from)
    .to_vec();
    md.push_str(&markdown(&headers, &rows));
    write_csv(
        &cfg.out_dir.join("revisit.csv"),
        &[
            "site", "policy", "epoch", "requests", "changes", "new_targets", "recall",
            "html_freshness", "target_freshness",
        ]
        .map(String::from),
        &csv,
    )
    .expect("write revisit csv");
    write_text(&cfg.out_dir.join("revisit.md"), &md).expect("write revisit.md");
    md
}
