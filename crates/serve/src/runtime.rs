//! The continuous crawl-and-serve loop: one crawl session, one snapshot
//! store, many origin epochs.
//!
//! [`serve_site`] wires the pieces together the way the paper's
//! data-acquisition pipeline runs in production: a single
//! [`CrawlSession`] first *discovers* the site (BFS under the shared
//! politeness gates and budget), every fetched page is committed to the
//! versioned [`SnapshotStore`], and then, as the origin evolves
//! epoch by epoch, a [`RevisitPolicy`]-driven planner picks which known
//! URLs to refetch. Refreshes ride the **same** session — same
//! transport window, same politeness, same budget accounting — so
//! discovery of newly-linked pages interleaves with refresh traffic
//! instead of competing from a separate harness. Meanwhile an optional
//! read load hammers the store from reader threads, and a truth
//! oracle marks per-slot divergence on the stale board so every read
//! samples its age-at-read; the aggregate p50/p99 are the freshness-SLA
//! metric, reported as [`ServeOutcome::staleness_p50`]/`staleness_p99`.
//!
//! Determinism: with readers off and `window == 1` the whole refresh
//! schedule is a pure function of the seed (pinned by a test). Reader
//! threads deliberately break that — read popularity feeds the refresh
//! priority, which is the point of the subsystem.

use crate::read::{percentile_of, ReadLoad, ReadLoadConfig, ReadReport, StaleBoard};
use crate::sched::plan_epoch;
use crate::store::{PageVersion, SnapshotStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{Budget, CrawlConfig, CrawlOutcome, CrawlSession, RefreshedPage};
use sb_httpsim::{HttpServer, Response};
use sb_revisit::{ChangeModel, EvolvingServer, EvolvingSite, Observation, RevisitPolicy};

/// Knobs of the crawl-and-serve loop.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How the origin evolves underneath the store.
    pub change: ChangeModel,
    /// Seed for the crawl, the planner pool and the read workload.
    pub seed: u64,
    /// Transport window (in-flight requests) of the single session.
    pub window: usize,
    /// GET quota of the initial discovery phase. The frontier left over
    /// (and every URL a refresh harvests) drains only while an epoch's
    /// refreshes are still in flight: refresh picks pre-empt discovery and
    /// the epoch loop exits when the last one resolves, so at window 1 it
    /// never drains at all (ROADMAP, "Found in PR 16").
    pub discovery_requests: u64,
    /// Refreshes planned per origin epoch.
    pub refresh_per_epoch: usize,
    /// Replaced versions retained per URL in the store.
    pub retain: usize,
    /// Whole-run request budget shared by discovery and refresh.
    pub budget: Budget,
    /// Simulated read workload; `None` = serve nobody (the deterministic
    /// scheduling rung).
    pub read: Option<ReadLoadConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            change: ChangeModel::default(),
            seed: 0,
            window: 2,
            discovery_requests: 300,
            refresh_per_epoch: 16,
            retain: 2,
            budget: Budget::Unlimited,
            read: None,
        }
    }
}

/// What a crawl-and-serve run produced.
pub struct ServeOutcome {
    /// The underlying session's outcome; `outcome.refresh` carries the
    /// refresh counters.
    pub outcome: CrawlOutcome,
    /// The store as it stands after the final epoch, still serving.
    pub store: SnapshotStore,
    /// Every refresh in the order it was queued, across all epochs.
    pub schedule: Vec<String>,
    /// Aggregate read-workload report (zeroed when `read` was `None`).
    pub read: ReadReport,
    /// Median / 99th-percentile age-at-read in origin epochs. With
    /// readers off these come from a per-epoch sweep of the stale board
    /// instead of the (empty) read stream.
    pub staleness_p50: f64,
    pub staleness_p99: f64,
}

/// The crawler's view of a page's section, derived from the URL path the
/// way the recrawl corpus derives in-link DOM paths: pages of one
/// section share one policy group.
pub(crate) fn in_path_of(url: &str) -> String {
    let path = url.splitn(4, '/').nth(3).unwrap_or("");
    let seg = path.split('/').next().unwrap_or("");
    if seg.is_empty() {
        "html body main a".to_owned()
    } else {
        format!("html body section.{seg} ul a")
    }
}

/// The truth oracle's verdict on one slot: the live origin answers without
/// error and with the stored bytes. `Body` equality compares lengths, then
/// contents: no body is hashed, and no hash collision can pass a stale
/// body as fresh.
fn serves_live(stored: &PageVersion, live: &Response) -> bool {
    live.status < 400 && stored.body == live.body
}

/// Runs the continuous crawl-and-serve loop over an already-evolved
/// site. See the module docs for the phase structure.
pub fn serve_site(
    site: &EvolvingSite,
    policy: &mut dyn RevisitPolicy,
    cfg: &ServeConfig,
) -> ServeOutcome {
    let server = EvolvingServer::new(site);
    let base = site.snapshot(0);
    let root_url = base.page(base.root()).url.clone();
    server.set_epoch(0);

    let crawl_cfg = CrawlConfig {
        budget: cfg.budget,
        seed: cfg.seed,
        max_in_flight: cfg.window.max(1),
        serve_feed: true,
        ..Default::default()
    };
    let mut strategy = QueueStrategy::bfs();
    let mut session = CrawlSession::new(&server, None, &root_url, &mut strategy, &crawl_cfg)
        .expect("serve crawl config and generated root URL are valid");

    let store = SnapshotStore::new(cfg.retain);
    let mut board = StaleBoard::new(0);
    let mut schedule: Vec<String> = Vec::new();
    let mut read_total = ReadReport::default();
    let mut sweep_hist: Vec<u64> = Vec::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA076_1D64_78BD_642F);

    // Phase 0: discovery up to the quota (or frontier exhaustion). The
    // remaining frontier keeps draining inside later refresh epochs.
    while !session.is_finished() && session.traffic().get_requests < cfg.discovery_requests {
        session.step();
    }
    let new_pages = drain_feed(&mut session, &store, &board, policy);
    admit_new(&store, &mut board, policy, new_pages);

    for e in 1..site.epochs() {
        let epoch = e as u64;
        server.set_epoch(e);

        // Truth oracle: compare the bytes the store serves with the live
        // origin's (`serves_live`; no body is hashed) and time-stamp
        // divergence. Bypasses the session's transport, so it spends no
        // crawl budget, and peeks, so it counts no reads.
        let urls = store.urls();
        for (slot, url) in urls.iter().enumerate() {
            let live = server.get(url);
            if store.peek(url).is_some_and(|stored| serves_live(&stored, &live)) {
                board.mark_fresh(slot);
            } else {
                board.mark_stale(slot, epoch);
            }
        }

        // Plan and queue this epoch's refreshes.
        policy.begin_epoch();
        let plan = plan_epoch(&store, policy, &mut rng, cfg.refresh_per_epoch);
        let target_attempts = session.refresh_stats().attempted() + plan.len() as u64;
        for entry in &plan {
            schedule.push(entry.url.clone());
            session.queue_refresh(&entry.url, entry.prior_hash);
        }

        // Drive the session until the queued refreshes resolve, with the
        // read workload (if any) hammering the store concurrently.
        let mut pending_new: Vec<RefreshedPage> = Vec::new();
        let report = std::thread::scope(|s| {
            let reader = cfg.read.clone().map(|rc| {
                let store = &store;
                let board = &board;
                s.spawn(move || ReadLoad::new(rc).run(store, board, epoch))
            });
            while !session.is_finished() && session.refresh_stats().attempted() < target_attempts {
                session.step();
                pending_new.extend(drain_feed(&mut session, &store, &board, policy));
            }
            pending_new.extend(drain_feed(&mut session, &store, &board, policy));
            reader
                .map(|h| h.join().expect("reader thread panicked"))
                .unwrap_or_default()
        });
        read_total.merge(&report);
        admit_new(&store, &mut board, policy, pending_new);

        // End-of-epoch staleness sweep: what the store would serve right
        // now, over every slot. This is the freshness signal at the
        // zero-reader rung and a cross-check otherwise.
        for slot in 0..board.len() {
            let age = board.age(slot, epoch) as usize;
            if sweep_hist.len() <= age {
                sweep_hist.resize(age + 1, 0);
            }
            sweep_hist[age] += 1;
        }
    }

    let (p50, p99) = if read_total.reads > 0 {
        (
            read_total.age_percentile(0.5),
            read_total.age_percentile(0.99),
        )
    } else {
        (
            percentile_of(&sweep_hist, 0.5),
            percentile_of(&sweep_hist, 0.99),
        )
    };
    let outcome = session.finish();

    ServeOutcome {
        outcome,
        store,
        schedule,
        read: read_total,
        staleness_p50: p50,
        staleness_p99: p99,
    }
}

/// Applies everything the session's serve feed buffered since the last
/// drain: refreshes of known URLs are committed (or observed as dead —
/// the store keeps serving the last good version), their slots marked
/// fresh and their outcome fed back to the policy; pages the store has
/// never seen are returned for [`admit_new`] (the stale board needs
/// `&mut` to grow, which the concurrent read phase forbids).
fn drain_feed(
    session: &mut CrawlSession<'_>,
    store: &SnapshotStore,
    board: &StaleBoard,
    policy: &mut dyn RevisitPolicy,
) -> Vec<RefreshedPage> {
    let mut pending_new = Vec::new();
    for page in session.take_refreshed() {
        match store.slot(&page.url) {
            Some(slot) => {
                if page.status < 400 {
                    if page.refresh {
                        policy.observe(
                            &page.url,
                            &Observation {
                                changed: page.changed,
                                new_targets: u64::from(page.changed),
                                died: false,
                            },
                        );
                    }
                    if page.changed {
                        store.commit(&page.url, page.status, page.body, page.body_hash);
                    }
                    if slot < board.len() {
                        board.mark_fresh(slot);
                    }
                } else if page.refresh {
                    // Dead on refetch: tell the policy, keep serving the
                    // last good version.
                    policy.observe(
                        &page.url,
                        &Observation {
                            changed: false,
                            new_targets: 0,
                            died: true,
                        },
                    );
                }
            }
            None if page.status < 400 => pending_new.push(page),
            None => {}
        }
    }
    pending_new
}

/// Commits newly-discovered pages, grows the stale board to match and
/// registers each page with the policy under its section group.
fn admit_new(
    store: &SnapshotStore,
    board: &mut StaleBoard,
    policy: &mut dyn RevisitPolicy,
    pages: Vec<RefreshedPage>,
) {
    for page in pages {
        if store.slot(&page.url).is_none() {
            policy.register(&page.url, &in_path_of(&page.url));
        }
        store.commit(&page.url, page.status, page.body, page.body_hash);
    }
    board.ensure(store.len());
}

#[cfg(test)]
mod tests;
