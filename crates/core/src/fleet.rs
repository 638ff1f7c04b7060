//! Multi-site crawl scheduling: N independent [`CrawlSession`]s driven
//! concurrently by **one loop**.
//!
//! The paper crawls one website at a time; production acquisition runs
//! thousands of per-site crawls side by side (BUbiNG-style massive
//! crawling: one uniform fetch loop, scaled by thread count). A [`Fleet`]
//! owns a set of [`FleetJob`]s (server + root + strategy factory + config
//! per site); [`Fleet::run`] deals them onto a ledger of per-shard
//! backlogs and spawns one driver thread per shard. Every thread, in every
//! [`FleetMode`], runs the same loop until the ledger is empty:
//!
//! 1. **take a wave** of pending sites — the front of its own backlog, or,
//!    once that is empty, up to half of the most-loaded shard's backlog,
//!    from the back. Only whole *pending* sites move: a pending job has no
//!    session and nothing in flight, so a steal can never split a crawl
//!    across pools, and the wave boundary is the only place a steal
//!    happens;
//! 2. **build one session per site**, each on its own handle of the
//!    wave's [`SharedTransportPool`];
//! 3. **drive the wave to completion** under the two-move schedule:
//!    * *refill, least-elapsed-host first* — while the pool has a free
//!      slot, the unfinished session whose host has waited longest for a
//!      delivery ([`SharedTransportPool::site_elapsed`], ties by site
//!      index) is offered one submission ([`CrawlSession::refill_one`]),
//!      so no site starves and a politeness-stalled site lends its
//!      capacity onward;
//!    * *drain, in pool completion order* — the site owning the globally
//!      next completion ([`SharedTransportPool::next_completion_site`]:
//!      ascending arrival, cross-site ties by site index) drains one batch
//!      ([`CrawlSession::drain_completions`]), so the pool's clock
//!      advances in true arrival order;
//! 4. **collect** the wave's [`SiteReport`]s; the thread's [`ShardReport`]
//!    counts them, its steals and its pool's clock.
//!
//! Crawl statistics live on each site's [`CrawlOutcome`];
//! [`FleetOutcome`] sums the three that add up across sites — traffic,
//! targets and abandonments — in one pass over the sites. A shard's
//! ledger holds only what no site knows: how many sites it drove, how many
//! it stole and its pool's makespan.
//!
//! A mode is that loop with three numbers plugged in:
//!
//! | mode | shards (threads) | initial placement | wave | pool |
//! |---|---|---|---|---|
//! | [`PerSite`](FleetMode::PerSite) | `workers`, at most one per site | round-robin | 1 site | a fresh private pool per site, window = the job's `max_in_flight` |
//! | [`SharedPool`](FleetMode::SharedPool) | 1 | shard 0 | every site | one pool, window `max_in_flight` |
//! | [`Sharded`](FleetMode::Sharded) | `shards` | hash of (name, index), or [`Fleet::shard_assignment`] | `max_in_flight` sites | one pool per shard, window `max_in_flight`, kept across waves |
//!
//! A **private pool** makes the session exactly what
//! [`CrawlSession::new`] builds standalone — its own window (a job's
//! `max_in_flight` pipelines *within* the site) and a site-local clock —
//! so fleet and solo runs cannot diverge. (Jobs needing a custom
//! transport — retry policies, robots `Crawl-delay` gates — run their own
//! session through [`CrawlSession::with_transport`].) A pool **shared by
//! several sites** is one in-flight window, politeness still sharded per
//! host; one window is one serially-ordered resource, so its single
//! ration point is the thread that owns it. Per-site `elapsed_secs` then
//! reads on the **shared clock**: [`FleetOutcome::sim_makespan_secs`] is
//! the pool's makespan, and [`FleetOutcome::traffic`]'s `elapsed_secs`
//! sum is not a serial-visit estimate. **Several shards** buy real
//! wall-clock parallelism.
//!
//! Every site is driven start to finish by exactly one pool under one
//! deterministic schedule, and sessions share nothing else (each has its
//! own RNG, interner, strategy and gates). So per-site coverage is
//! **invariant** under worker count, shard count, placement and stealing,
//! and at window 1 every site replays the sequential engine byte for byte
//! whatever its tenancy (the shared clock aside) — the properties the
//! fleet tests pin. Steal timing is the one wall-clock-dependent input,
//! and it only decides *which thread's pool* a pending site later joins.
//!
//! [`SharedTransportPool`]: sb_httpsim::SharedTransportPool

use crate::events::{AbandonCounts, FinishReason};
use crate::session::{ConfigError, CrawlConfig, CrawlOutcome, CrawlSession};
use crate::strategy::Strategy;
use parking_lot::Mutex;
use sb_httpsim::{HttpServer, SharedTransportPool, Traffic};
use std::collections::VecDeque;
use std::sync::Arc;

/// Shareable server handle: fleets move jobs across threads.
pub type SharedServer = Arc<dyn HttpServer + Send + Sync>;

/// Builds the strategy on the worker thread that will drive the session —
/// strategies themselves never cross threads.
type StrategyFactory = Box<dyn FnOnce() -> Box<dyn Strategy> + Send>;

/// One site's crawl: everything a worker needs to build and drive a
/// session.
pub struct FleetJob {
    pub name: String,
    pub root: String,
    server: SharedServer,
    strategy: StrategyFactory,
    cfg: CrawlConfig,
}

impl FleetJob {
    pub fn new(
        name: impl Into<String>,
        server: SharedServer,
        root: impl Into<String>,
        strategy: impl FnOnce() -> Box<dyn Strategy> + Send + 'static,
    ) -> Self {
        FleetJob {
            name: name.into(),
            root: root.into(),
            server,
            strategy: Box::new(strategy),
            cfg: CrawlConfig::default(),
        }
    }

    /// Per-site crawl configuration (budget, politeness, window, …),
    /// validated when the site's session is built.
    pub fn config(mut self, cfg: CrawlConfig) -> Self {
        self.cfg = cfg;
        self
    }
}

/// One site's result. Construction errors (an unparseable root, an
/// invalid [`CrawlConfig`]) are reported here instead of panicking the
/// worker.
pub struct SiteReport {
    pub name: String,
    pub outcome: Result<CrawlOutcome, ConfigError>,
}

impl SiteReport {
    /// Convenience: the outcome, or a panic naming the site.
    pub fn expect_outcome(&self) -> &CrawlOutcome {
        match &self.outcome {
            Ok(o) => o,
            Err(e) => panic!("fleet site {:?} failed to start: {e}", self.name),
        }
    }
}

/// What a finished fleet reports: per-site outcomes (in submission order)
/// plus the sums of what adds up across them.
pub struct FleetOutcome {
    pub sites: Vec<SiteReport>,
    /// Sum of every site's cost counters. In [`FleetMode::PerSite`] its
    /// `elapsed_secs` is the serial simulated time — what one crawler
    /// visiting the sites back to back would have waited; in the pooled
    /// modes each site reads its pool's shared clock, so the sum is not a
    /// serial-visit estimate (see the module docs).
    pub traffic: Traffic,
    /// Targets retrieved across the fleet.
    pub targets: u64,
    /// Fleet-wide per-reason abandonment tally (PR 6) — the sum of every
    /// site's [`CrawlOutcome::abandoned`].
    pub abandoned: AbandonCounts,
    /// One ledger per driver thread, in every mode (thread counts: the
    /// module docs' table). Their `sites` sum to `sites.len()`.
    pub shards: Vec<ShardReport>,
}

/// One driver thread's ledger: what it did that no site's outcome
/// records. See the module docs for the loop it ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardReport {
    /// Sites this shard drove to completion, steals included.
    pub sites: usize,
    /// Sites this shard stole from other shards' pending backlogs.
    pub stolen: u64,
    /// The shard's own makespan on its own clock: its pool's simulated
    /// clock when its last wave drained. In [`FleetMode::PerSite`], where
    /// every site has a private pool, the sum of those pools' clocks —
    /// what this worker visiting its sites back to back would have waited.
    pub sim_makespan_secs: f64,
}

impl FleetOutcome {
    /// Longest simulated per-site duration — the longest single site. It
    /// is the fleet's simulated makespan only on a shared clock (the
    /// pooled modes) or when every site has its own worker; a
    /// [`FleetMode::PerSite`] worker crawling several sites back to back
    /// waits their sum ([`ShardReport::sim_makespan_secs`]).
    pub fn sim_makespan_secs(&self) -> f64 {
        self.sites
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok())
            .map(|o| o.traffic.elapsed_secs)
            .fold(0.0, f64::max)
    }

    /// Total sites stolen across shards (0 when one thread drives the
    /// whole fleet) — the work-stealing activity of the run.
    pub fn stolen_sites(&self) -> u64 {
        self.shards.iter().map(|s| s.stolen).sum()
    }
}

/// How many threads, pools and sites per wave the fleet's one driver loop
/// runs with. See the table in the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMode {
    /// One site at a time per worker thread, each on a private pool sized
    /// by its own [`CrawlConfig::max_in_flight`] — the session
    /// [`CrawlSession::new`] builds standalone, site-local clock included.
    /// Sites never share in-flight capacity; a worker that runs out of
    /// sites steals pending ones from the fullest backlog.
    PerSite,
    /// Every site in one wave through one pool: a global window of
    /// `max_in_flight` requests (clamped to ≥ 1) multiplexed across the
    /// whole fleet on a single thread ([`Fleet::new`]'s `workers` is
    /// ignored).
    SharedPool { max_in_flight: usize },
    /// `shards` driver threads ([`Fleet::new`]'s `workers` is ignored;
    /// both values clamped to ≥ 1), each keeping its own pool of window
    /// `max_in_flight` and taking waves of at most `max_in_flight` sites
    /// from its hashed share of the fleet, then stealing whole pending
    /// sites from the most-loaded backlog (PR 8).
    Sharded { shards: usize, max_in_flight: usize },
}

/// The multi-site scheduler. See the module docs.
pub struct Fleet {
    jobs: Vec<FleetJob>,
    workers: usize,
    mode: FleetMode,
    assignment: Option<Vec<usize>>,
}

impl Fleet {
    /// A fleet in [`FleetMode::PerSite`] — the one mode that reads
    /// `workers`: up to that many driver threads (clamped to the number
    /// of jobs at run time; 0 means one). [`Fleet::mode`] selects another.
    pub fn new(workers: usize) -> Self {
        Fleet { jobs: Vec::new(), workers: workers.max(1), mode: FleetMode::PerSite, assignment: None }
    }

    /// Selects the transport mode (fluent).
    pub fn mode(mut self, mode: FleetMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for [`FleetMode::Sharded`].
    pub fn sharded(self, shards: usize, max_in_flight: usize) -> Self {
        self.mode(FleetMode::Sharded { shards, max_in_flight })
    }

    /// Overrides the hash-based site→shard assignment of
    /// [`FleetMode::Sharded`]: `assignment[i] % shards` is site `i`'s
    /// initial shard (sites past the end go to shard 0). The invariance
    /// tests and load-skew drills use this to force arbitrary — including
    /// pathologically imbalanced — placements; results must not depend on
    /// it.
    pub fn shard_assignment(mut self, assignment: Vec<usize>) -> Self {
        self.assignment = Some(assignment);
        self
    }

    pub fn push(&mut self, job: FleetJob) {
        self.jobs.push(job);
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Crawls every site to completion and reports: lowers the mode to its
    /// row of the module docs' table, deals the jobs onto one backlog per
    /// shard and runs the driver loop on one thread per shard.
    pub fn run(self) -> FleetOutcome {
        let n = self.jobs.len();
        let plan = match self.mode {
            FleetMode::PerSite => Plan {
                shards: self.workers.clamp(1, n.max(1)),
                wave: 1,
                window: None,
            },
            FleetMode::SharedPool { max_in_flight } => {
                Plan { shards: 1, wave: n, window: Some(max_in_flight) }
            }
            FleetMode::Sharded { shards, max_in_flight } => Plan {
                shards: shards.max(1),
                // A wave wider than the in-flight window could never add
                // concurrency, so cap it there: smaller waves mean more
                // (steal-safe) boundaries.
                wave: max_in_flight.max(1),
                window: Some(max_in_flight),
            },
        };

        let mut backlogs: Vec<VecDeque<(usize, FleetJob)>> =
            (0..plan.shards).map(|_| VecDeque::new()).collect();
        for (i, job) in self.jobs.into_iter().enumerate() {
            let s = match (self.mode, &self.assignment) {
                (FleetMode::PerSite, _) => i % plan.shards,
                (_, Some(a)) => a.get(i).copied().unwrap_or(0) % plan.shards,
                (_, None) => shard_of(i, &job.name, plan.shards),
            };
            backlogs[s].push_back((i, job));
        }
        let ledger = &Mutex::new(backlogs);

        let mut indexed: Vec<(usize, SiteReport)> = Vec::with_capacity(n);
        let mut shards: Vec<ShardReport> = Vec::with_capacity(plan.shards);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.shards)
                .map(|shard| scope.spawn(move || drive_shard(shard, ledger, plan)))
                .collect();
            for h in handles {
                let (reports, shard_report) = h.join().expect("fleet shard panicked");
                indexed.extend(reports);
                shards.push(shard_report);
            }
        });
        indexed.sort_by_key(|(i, _)| *i);
        let sites: Vec<SiteReport> = indexed.into_iter().map(|(_, r)| r).collect();

        let mut traffic = Traffic::default();
        let mut targets = 0u64;
        let mut abandoned = AbandonCounts::default();
        for report in &sites {
            if let Ok(o) = &report.outcome {
                traffic.absorb(&o.traffic);
                targets += o.targets_found();
                abandoned.merge(&o.abandoned);
            }
        }
        FleetOutcome { sites, traffic, targets, abandoned, shards }
    }
}

/// Everything a session borrows (server, strategy, config, root),
/// materialised so sessions can borrow from the driver's frame.
struct Prepared {
    index: usize,
    name: String,
    root: String,
    server: SharedServer,
    strategy: Box<dyn Strategy>,
    cfg: CrawlConfig,
}

/// Builds one pool-handle session per prepared site. The pool numbers
/// its handles in issue order, so a wave's pool site indexes run on from
/// the number of handles the pool had issued before it.
fn pool_sessions<'a>(
    pool: &'a SharedTransportPool,
    prepared: &'a mut [Prepared],
) -> Vec<Result<CrawlSession<'a>, ConfigError>> {
    prepared
        .iter_mut()
        .map(|p| {
            // One pool handle per site: the handle owns the site's
            // politeness shard and cost counters, the pool owns the global
            // window and clock. The handle's window (the pool's) wins over
            // the job's `max_in_flight`, as documented on
            // `CrawlSession::with_transport`.
            let handle = pool.handle(p.server.as_ref(), p.cfg.policy.clone(), p.cfg.politeness);
            CrawlSession::with_transport(
                Box::new(handle),
                None,
                &p.root,
                p.strategy.as_mut(),
                &p.cfg,
            )
        })
        .collect()
}

/// The two-move pool schedule (see the module docs), over sessions whose
/// pool site indexes are `base + k` for session `k`. Runs every session
/// to completion.
fn drive_pool_schedule(
    pool: &SharedTransportPool,
    sessions: &mut [Result<CrawlSession<'_>, ConfigError>],
    base: usize,
) {
    // `declined[k]`: session k was offered a slot and could not use it
    // (budget-blocked, or frontier dry pending its in-flight answers).
    // Only k's own completions can change that, so k stays out of the
    // refill rotation until its next drain.
    let mut declined = vec![false; sessions.len()];
    loop {
        // Refill: one slot at a time to the least-elapsed host (ties by
        // site index), so the site that has waited longest for a delivery
        // gets capacity first and no session can swallow the whole window.
        // Each candidate's key is read once — `site_elapsed` locks the
        // pool.
        while pool.has_capacity() {
            let pick = sessions
                .iter_mut()
                .enumerate()
                .filter_map(|(k, s)| match s {
                    Ok(session) if !declined[k] && !session.is_finished() => {
                        Some(((pool.site_elapsed(base + k), k), session))
                    }
                    _ => None,
                })
                .min_by(|((a, i), _), ((b, j), _)| a.total_cmp(b).then(i.cmp(j)));
            let Some(((_, k), session)) = pick else { break };
            if !session.refill_one() && !session.is_finished() {
                declined[k] = true;
            }
        }
        // Drain: exactly the site owning the globally next completion, so
        // cross-site delivery order is the pool's deterministic order
        // (arrival, ties by site index) and the shared clock never jumps
        // past a pending arrival.
        let Some(site) = pool.next_completion_site() else {
            // Nothing in flight and nobody could submit: every live
            // session has finished (a session with an empty window either
            // submits or finishes during its refill offer).
            break;
        };
        let k = site - base;
        if let Ok(session) = &mut sessions[k] {
            session.drain_completions();
        }
        declined[k] = false;
    }
    debug_assert!(
        sessions.iter().all(|s| s.as_ref().map_or(true, |sess| sess.is_finished())),
        "pool schedule exited with live sessions"
    );
}

/// Stable site → shard hash (FxHash over name then submission index):
/// deterministic across runs and shard counts, so drills and benches see
/// the same placement every time.
fn shard_of(index: usize, name: &str, shards: usize) -> usize {
    use std::hash::{BuildHasher, Hash, Hasher};
    let mut h = sb_webgraph::FxBuildHasher::default().build_hasher();
    name.hash(&mut h);
    index.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// The fleet's shared work ledger: one backlog of pending (submission
/// index, job) pairs per shard. Shards pop their own backlog from the
/// front and steal from the *back* of the most-loaded backlog, so a
/// victim's imminent work is disturbed last.
type Ledger = Mutex<Vec<VecDeque<(usize, FleetJob)>>>;

/// What a [`FleetMode`] lowers to: the three numbers the driver loop reads.
/// See the table in the module docs.
#[derive(Clone, Copy)]
struct Plan {
    /// Driver threads, one backlog each.
    shards: usize,
    /// Most sites a thread takes off the ledger at once.
    wave: usize,
    /// `Some(w)`: one pool of window `w` per thread, kept across its
    /// waves. `None`: a fresh private pool per site, sized by the job's
    /// own `max_in_flight` (waves are single sites).
    window: Option<usize>,
}

/// The fleet driver, one call per shard thread: waves of at most
/// `plan.wave` sites through a pool under the two-move schedule, stealing
/// whole pending sites from the most-loaded backlog when its own runs
/// dry. See the module docs.
fn drive_shard(
    shard: usize,
    ledger: &Ledger,
    plan: Plan,
) -> (Vec<(usize, SiteReport)>, ShardReport) {
    let shard_pool = plan.window.map(SharedTransportPool::new);
    let mut reports: Vec<(usize, SiteReport)> = Vec::new();
    let mut shard_report = ShardReport::default();

    loop {
        // Take the next wave under the ledger lock: own backlog first,
        // else steal up to half the most-loaded backlog (whole sites only
        // — pending jobs have no session and nothing in flight, so a
        // steal cannot split a crawl across pools).
        let wave: Vec<(usize, FleetJob)> = {
            let mut backlogs = ledger.lock();
            if !backlogs[shard].is_empty() {
                let take = plan.wave.min(backlogs[shard].len());
                backlogs[shard].drain(..take).collect()
            } else {
                let Some(v) = (0..backlogs.len())
                    .filter(|&s| !backlogs[s].is_empty())
                    .max_by_key(|&s| (backlogs[s].len(), std::cmp::Reverse(s)))
                else {
                    break;
                };
                let take = plan.wave.min(backlogs[v].len().div_ceil(2));
                let at = backlogs[v].len() - take;
                shard_report.stolen += take as u64;
                backlogs[v].split_off(at).into()
            }
        };

        let mut prepared: Vec<Prepared> = wave
            .into_iter()
            .map(|(index, job)| Prepared {
                index,
                name: job.name,
                root: job.root,
                server: job.server,
                strategy: (job.strategy)(),
                cfg: job.cfg,
            })
            .collect();

        // A kept pool numbers its handles across waves (one per driven
        // site) and its clock runs on through them, so this wave's
        // sessions start at the running site total and the clock started
        // at 0. A private pool — a single site being the whole wave, it
        // takes that site's own window — starts both over, so the clocks
        // of a shard's private pools add up back to back.
        let private;
        let (pool, base, clock_before) = match &shard_pool {
            Some(pool) => (pool, shard_report.sites, 0.0),
            None => {
                debug_assert_eq!(prepared.len(), 1, "a private pool serves one site");
                private = SharedTransportPool::new(prepared[0].cfg.max_in_flight);
                (&private, 0, shard_report.sim_makespan_secs)
            }
        };
        let mut sessions = pool_sessions(pool, &mut prepared);
        drive_pool_schedule(pool, &mut sessions, base);
        shard_report.sim_makespan_secs = clock_before + pool.clock_secs();

        // Finishing the sessions releases their borrows of `prepared`.
        let outcomes: Vec<Result<CrawlOutcome, ConfigError>> = sessions
            .into_iter()
            .map(|s| {
                s.map(|session| {
                    debug_assert!(
                        session.finish_reason() != Some(FinishReason::Cancelled),
                        "fleet sessions run to natural completion"
                    );
                    session.finish()
                })
            })
            .collect();
        shard_report.sites += outcomes.len();
        for (p, outcome) in prepared.into_iter().zip(outcomes) {
            reports.push((p.index, SiteReport { name: p.name, outcome }));
        }
    }

    (reports, shard_report)
}
