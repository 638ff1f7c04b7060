//! The resumable crawl session: Algorithms 3 and 4 as a step-driven,
//! **pipelined** API.
//!
//! [`CrawlSession`] holds every piece of crawl state the old one-shot
//! `crawl()` call buried inside its engine — the visited set `T ∪ F`
//! (interned), the budget counters, the redirect handler, early stopping —
//! and exposes it behind three verbs:
//!
//! * [`CrawlSession::step`] pumps the crawl once — drain transport
//!   completions, process each page (strategy feedback included), refill
//!   the in-flight window with cascade work and fresh selections — and
//!   returns a [`StepReport`];
//! * [`CrawlSession::run`] loops `step()` to completion and returns the
//!   classic [`CrawlOutcome`];
//! * [`CrawlSession::observe`] attaches [`CrawlObserver`]s that receive
//!   every typed [`CrawlEvent`] as it happens — tracing, progress bars and
//!   archivers all hang off this hook ([`TraceObserver`] is built in, so
//!   [`CrawlOutcome::trace`] keeps existing).
//!
//! ## The pipelined fetch boundary (PR 4)
//!
//! Fetching goes through the nonblocking [`Transport`]
//! (`sb_httpsim::transport`): the session submits GETs into a bounded
//! in-flight pool ([`CrawlConfig::max_in_flight`]) and processes
//! completions in the transport's deterministic arrival order, so
//! simulated transfer latency overlaps across requests while the
//! per-host politeness gate — enforced *at the transport*, not here —
//! keeps dispatches properly spaced. Refilling prioritises cascade work
//! (redirect continuations first, then immediately-fetch children) over
//! new strategy selections, which preserves Algorithm 4's processing
//! order. The one-feedback-per-selection invariant survives the window:
//! every pulled selection delivers exactly one of
//! `feedback`/`feedback_target`/`feedback_error`, with selections still in
//! flight when the session stops receiving `feedback_error`
//! ([`AbandonReason::SessionClosed`]).
//!
//! With `max_in_flight = 1` (the default) the pipeline degenerates to the
//! exact sequential engine: behaviour is frozen — `CrawlSession::run`
//! replays the seed engine byte-for-byte on the determinism property tests
//! (`crates/bench/tests/determinism.rs`), with one *knowing* exception —
//! the post-target trace point is amended in place instead of appended as
//! a duplicate (see [`TraceObserver`]).
//!
//! Holding a session between steps is what makes multi-site scheduling
//! possible: [`crate::fleet::Fleet`] interleaves many sessions on worker
//! threads, something the blocking call could never do. A session can
//! even run over a transport window it does not own (PR 5): built via
//! [`CrawlSession::with_transport`] on a shared-pool handle
//! (`sb_httpsim::SharedTransportPool`), the public
//! [`CrawlSession::refill_one`]/[`CrawlSession::drain_completions`] pair
//! lets an external driver ration the pool's global window across many
//! sessions and drain them in the pool's deterministic completion order.
//! Construction is validated ([`ConfigError`]): both constructors check
//! the config and the root before any request is spent, so an unparseable
//! root, a zero budget or a zero-bandwidth politeness is rejected however
//! the [`CrawlConfig`] was written.
//!
//! A session also re-fetches what it already knows (PR 9):
//! [`CrawlSession::queue_refresh`] admits a refresh through the same
//! window, gates and budget as discovery, and
//! [`CrawlSession::take_refreshed`] hands the answers to a serving layer.
//! The session never decides *what* to refresh — `sb_serve::serve_site`
//! is the one refresh driver, planning each epoch from a revisit policy
//! and read popularity.

use crate::early_stop::{EarlyStop, EarlyStopConfig};
use crate::events::{
    AbandonCounts, AbandonReason, CrawlEvent, CrawlObserver, CrawlSnapshot, FinishReason,
    MemGauges, RefreshStats, TraceObserver,
};
use crate::strategy::{LinkDecision, NewLink, SelUrl, Selection, Services, Strategy};
use crate::trace::CrawlTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_httpsim::transport::{PipelinedTransport, Request, RequestId, Transport};
use sb_httpsim::{Fetched, HttpServer, Politeness};
use sb_scale::VisitedSet;
use sb_webgraph::fnv64;
use sb_webgraph::interner::UrlId;
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::url::{Url, UrlError};
use std::collections::VecDeque;

/// The crawl budget `B` of Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Stop after this many requests (GET + HEAD): the `ω ≡ 1` cost model.
    Requests(u64),
    /// Stop after this much received volume (bytes): the size cost model.
    VolumeBytes(u64),
    /// Crawl until the frontier is exhausted.
    Unlimited,
}

/// Ground-truth URL classes, for oracle strategies (Sec 4.3's `SB-ORACLE`,
/// `TP-OFF`'s first phase and `TRES`'s URL oracle).
pub trait Oracle: Sync {
    fn class_of(&self, url: &str) -> sb_webgraph::UrlClass;
}

impl<S: sb_webgraph::gen::SiteSource + ?Sized> Oracle for S {
    fn class_of(&self, url: &str) -> sb_webgraph::UrlClass {
        match self.lookup(url) {
            Some(id) => self.true_class(id),
            None => sb_webgraph::UrlClass::Neither,
        }
    }
}

/// Session configuration: a struct literal over `..Default::default()`.
/// Every session validates its config before any request is spent
/// ([`ConfigError`]), however the config was written.
pub struct CrawlConfig {
    pub budget: Budget,
    pub policy: MimePolicy,
    pub politeness: Politeness,
    /// RNG seed shared by the engine and the strategy's frontier draws.
    pub seed: u64,
    pub early_stop: Option<EarlyStopConfig>,
    /// Keep the bodies of retrieved targets (Table 7 needs them).
    pub keep_target_bodies: bool,
    /// Requests the session may keep in flight at once (PR 4). `1` (the
    /// default) is the exact sequential engine; wider windows overlap
    /// simulated transfer latency within the politeness gate's spacing.
    /// `0` is rejected with [`ConfigError::ZeroMaxInFlight`].
    pub max_in_flight: usize,
    /// Crawl as this user agent under the site's robots.txt (PR 6). When
    /// set, the session's very first request fetches `/robots.txt` through
    /// the transport (charged against the budget like any other GET); a
    /// 200 answer is parsed and from then on disallowed URLs are dropped
    /// at link admission and a declared `Crawl-delay` is applied to the
    /// transport's politeness gate automatically — no manual
    /// [`sb_httpsim::transport::Transport::apply_crawl_delay`] call
    /// needed. `None` (the default) changes nothing.
    pub robots_agent: Option<String>,
    /// Visited-set compaction threshold (PR 7): the first this many
    /// discovered URLs keep their parsed form beside the canonical text;
    /// URLs past the threshold keep the text alone
    /// (`sb_scale::VisitedSet`), cutting per-URL memory several-fold on
    /// large crawls. `usize::MAX` (the default) never compacts and is
    /// bit-identical to the plain interner.
    pub compact_visited_threshold: usize,
    /// Feed a serving layer (PR 9): buffer every successfully fetched
    /// HTML page and target as a [`RefreshedPage`] (body shared, FNV-1a
    /// body hash precomputed) for [`CrawlSession::take_refreshed`] to
    /// drain into a snapshot store — `sb_serve::serve_site`, the refresh
    /// driver, turns it on and queues every refresh from what it drains.
    /// The driver must drain periodically or the buffer grows with the
    /// crawl. Off (the default) buffers only explicit refresh fetches and
    /// changes nothing else.
    pub serve_feed: bool,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            budget: Budget::Unlimited,
            policy: MimePolicy::default(),
            politeness: Politeness::default(),
            seed: 0,
            early_stop: None,
            keep_target_bodies: false,
            max_in_flight: 1,
            robots_agent: None,
            compact_visited_threshold: usize::MAX,
            serve_feed: false,
        }
    }
}

impl CrawlConfig {
    /// The values no session can run with. The root is checked separately,
    /// by [`CrawlSession::with_transport`], which runs this first.
    fn validate(&self) -> Result<(), ConfigError> {
        if let Budget::Requests(0) | Budget::VolumeBytes(0) = self.budget {
            return Err(ConfigError::ZeroBudget);
        }
        if self.max_in_flight == 0 {
            return Err(ConfigError::ZeroMaxInFlight);
        }
        let p = self.politeness;
        if !p.delay_secs.is_finite()
            || p.delay_secs < 0.0
            || !p.bytes_per_sec.is_finite()
            || p.bytes_per_sec <= 0.0
        {
            return Err(ConfigError::InvalidPoliteness);
        }
        Ok(())
    }
}

/// What [`CrawlSession::new`] and [`CrawlSession::with_transport`] — and so
/// every [`crate::fleet::Fleet`] job, whose `SiteReport` carries it —
/// reject before any request is spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The crawl root is not an absolute http(s) URL.
    InvalidRoot { url: String, error: UrlError },
    /// A zero budget can never admit the root fetch.
    ZeroBudget,
    /// Politeness delay must be finite and ≥ 0; bandwidth must be finite
    /// and > 0.
    InvalidPoliteness,
    /// `max_in_flight == 0` can never admit any fetch.
    ZeroMaxInFlight,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidRoot { url, error } => {
                write!(f, "crawl root {url:?} is not an absolute http(s) URL: {error}")
            }
            ConfigError::ZeroBudget => f.write_str("crawl budget is zero"),
            ConfigError::InvalidPoliteness => {
                f.write_str("politeness delay must be finite and ≥ 0, bandwidth finite and > 0")
            }
            ConfigError::ZeroMaxInFlight => f.write_str("max_in_flight is zero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A target retrieved during the crawl.
#[derive(Debug, Clone)]
pub struct RetrievedTarget {
    pub url: String,
    pub mime: String,
    /// Present only when [`CrawlConfig::keep_target_bodies`] is set.
    /// Shared bytes — cloning an outcome does not copy target payloads.
    pub body: Option<sb_httpsim::Body>,
}

/// One page delivered to the serving layer (PR 9): an explicit refresh
/// fetch, or — with [`CrawlConfig::serve_feed`] on — any successfully
/// fetched HTML page or target. The body is shared ([`sb_httpsim::Body`]
/// is an `Arc<[u8]>`), so buffering and committing into a snapshot store
/// never copies page bytes.
#[derive(Debug, Clone)]
pub struct RefreshedPage {
    pub url: String,
    pub status: u16,
    /// Normalised MIME type; `None` on failed refreshes.
    pub mime: Option<String>,
    /// Shared body bytes; empty on failed refreshes.
    pub body: sb_httpsim::Body,
    /// FNV-1a hash of the body — the change-detection currency, the same
    /// [`sb_webgraph::fnv64`] that `sb_revisit` re-exports, so hashes from
    /// the recrawl harness and from sessions are interchangeable.
    pub body_hash: u64,
    /// True for an explicit [`CrawlSession::queue_refresh`] fetch; false
    /// for a discovery fetch buffered because `serve_feed` is on.
    pub refresh: bool,
    /// Refresh fetches only: the body hash differs from the prior hash
    /// handed to `queue_refresh`. Always true for discovery fetches (the
    /// first version of a page is news by definition).
    pub changed: bool,
}


/// Everything a finished crawl reports.
pub struct CrawlOutcome {
    pub trace: CrawlTrace,
    pub targets: Vec<RetrievedTarget>,
    pub pages_crawled: u64,
    /// True when Sec 4.8 early stopping fired.
    pub stopped_early: bool,
    /// Step at which early stopping fired.
    pub early_stop_at: Option<u64>,
    /// True when the action space exploded (the θ = 0.95 OOM of Table 4).
    pub aborted_oom: bool,
    pub traffic: sb_httpsim::Traffic,
    /// Strategy-specific report (action statistics for the SB crawlers).
    pub report: crate::strategy::StrategyReport,
    /// Why the session stopped.
    pub finish_reason: FinishReason,
    /// Per-reason tally of abandoned fetches (PR 6) — the crawl's waste
    /// ledger: timeouts, exhausted retries, quarantined hosts, dead
    /// redirects.
    pub abandoned: AbandonCounts,
    /// Final memory gauges (PR 7/8): the visited-set and frontier
    /// footprint at the instant the session ended, so fleet drivers can
    /// aggregate a run's memory profile without observing every step.
    pub mem: MemGauges,
    /// Refresh ledger (PR 9): all zero unless the session re-admitted
    /// known URLs via [`CrawlSession::queue_refresh`].
    pub refresh: RefreshStats,
}

impl CrawlOutcome {
    pub fn targets_found(&self) -> u64 {
        self.targets.len() as u64
    }
}

/// What one [`CrawlSession::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Outer selections begun so far, this step included (the root counts
    /// as one).
    pub steps: u64,
    /// GET requests delivered during this step.
    pub fetched: u64,
    /// Targets retrieved during this step.
    pub new_targets: u64,
    /// Cumulative requests (GET + HEAD) after this step.
    pub requests: u64,
    /// Requests still in the transport's pool after this step.
    pub in_flight: usize,
    /// `None` while the session can still advance; the finish reason once
    /// it cannot. A finishing step does no crawl work.
    pub finished: Option<FinishReason>,
    /// Cumulative per-reason abandonment tally after this step (PR 6).
    pub abandoned: AbandonCounts,
    /// Memory gauges after this step (PR 7): visited-set size and byte
    /// estimate, frontier length and spilled portion.
    pub mem: MemGauges,
    /// Cumulative refresh ledger after this step (PR 9).
    pub refresh: RefreshStats,
}

/// Phase of the session's outer loop (Algorithm 3's shape, unrolled so it
/// can pause between selections).
#[derive(Clone, Copy)]
enum Phase {
    /// The root fetch has not happened yet.
    Root,
    /// The strategy drives selections.
    Steady,
    Done(FinishReason),
}

/// One unit of fetch work: an interned page plus whether its reward feeds
/// back into an outer selection, plus the redirect-chain budget left.
struct Job {
    id: UrlId,
    depth: u32,
    /// Feedback token of the outer selection; inner (immediately-retrieved)
    /// pages carry `None` — their rewards have no owning action.
    token: Option<u64>,
    /// Redirect hops this chain may still follow (`MAX_REDIRECTS` GETs
    /// total, exactly like the sequential chain loop).
    hops_left: u8,
    /// `Some(prior_body_hash)` marks a refresh fetch (PR 9): the answer
    /// is buffered for the serving layer and hash-compared against the
    /// prior version instead of re-counting targets or feeding the
    /// strategy a second observation for an already-counted page.
    refresh: Option<u64>,
}

impl Job {
    fn fresh(id: UrlId, depth: u32, token: Option<u64>) -> Job {
        Job { id, depth, token, hops_left: (MAX_REDIRECTS - 1) as u8, refresh: None }
    }
}

pub(crate) const MAX_REDIRECTS: usize = 5;

/// Fans one event out to the built-in trace observer plus every registered
/// observer. Lives outside `CrawlSession` so emission can borrow the
/// session's interner strings immutably while the observers are mutated.
struct ObserverHub<'a> {
    trace: TraceObserver,
    user: Vec<&'a mut dyn CrawlObserver>,
}

impl ObserverHub<'_> {
    #[inline]
    fn emit(&mut self, snap: &CrawlSnapshot, event: &CrawlEvent<'_>) {
        self.trace.on_event(event, snap);
        for obs in &mut self.user {
            obs.on_event(event, snap);
        }
    }
}

/// A paused, resumable crawl of one site. See the module docs.
pub struct CrawlSession<'a> {
    transport: Box<dyn Transport + 'a>,
    oracle: Option<&'a dyn Oracle>,
    cfg: &'a CrawlConfig,
    strategy: &'a mut dyn Strategy,
    hub: ObserverHub<'a>,
    root: Url,
    /// Canonical root string, kept for the `SessionStarted` event (the
    /// root is not interned until the first step).
    root_text: String,
    /// `T ∪ F` membership: every discovered URL is interned exactly once
    /// (one fingerprint of the parsed `Url`, no string round-trips); the id
    /// keys everything downstream. Parsed forms kept up to
    /// [`CrawlConfig::compact_visited_threshold`], text only past it.
    visited: VisitedSet,
    /// The one `Url` every href of every page resolves into
    /// ([`Url::join_into`]): once warm, a link the visited set rejects
    /// costs no allocation. `process_html` takes it for its loop and puts
    /// it back on every exit.
    link_scratch: Option<Url>,
    /// Discovery depth per interned id (parallel to the interner).
    depths: Vec<u32>,
    targets: Vec<RetrievedTarget>,
    pages_crawled: u64,
    /// Crawl step `t` (pages entered into `T`), as in Algorithm 4.
    t: u64,
    /// Outer selections begun.
    steps: u64,
    early: Option<EarlyStop>,
    aborted_oom: bool,
    rng: StdRng,
    phase: Phase,
    /// Cascade work discovered but not yet submitted (FetchNow children, in
    /// Algorithm 4's FIFO order). Redirect continuations never queue here —
    /// they re-submit immediately, keeping their freed window slot.
    pending: VecDeque<Job>,
    /// Selections pulled from the strategy and not yet submitted: a
    /// batching strategy's ranking pass (PR 10) can fill the whole window,
    /// but each member still goes through the per-submission budget gates,
    /// so the tail of a batch waits here. Drained ahead of new pulls; members
    /// still buffered at shutdown drain as `feedback_error` — a pulled
    /// selection is owed exactly one observation whether or not it ever
    /// reached the wire.
    batch_buf: VecDeque<Selection>,
    /// Submitted work, parallel to the transport's pool (submission order).
    inflight: Vec<(RequestId, Job)>,
    /// Reused completion buffer (no per-poll allocation).
    poll_buf: Vec<(RequestId, Fetched)>,
    /// Per-reason abandonment tally (PR 6), kept in lockstep with every
    /// `CrawlEvent::Abandoned` emission.
    abandoned: AbandonCounts,
    /// Parsed robots.txt, when [`CrawlConfig::robots_agent`] is set and
    /// the fetch answered 200. Checked at every link admission.
    robots: Option<sb_httpsim::RobotsTxt>,
    /// Refresh selections awaiting a window slot (PR 9): (url, prior body
    /// hash), drained ahead of fresh discovery picks during refill.
    refresh_queue: VecDeque<(String, u64)>,
    /// Pages buffered for the serving layer, drained by
    /// [`CrawlSession::take_refreshed`].
    refreshed: Vec<RefreshedPage>,
    /// Cumulative refresh ledger (PR 9).
    refresh_stats: RefreshStats,
}

impl<'a> CrawlSession<'a> {
    /// Validates `cfg` and the root and builds a session over a fresh
    /// [`PipelinedTransport`] for `server` — the sole handle of a private
    /// in-flight pool, window and politeness from `cfg`. No request is
    /// spent until the first [`CrawlSession::step`].
    pub fn new(
        server: &'a dyn HttpServer,
        oracle: Option<&'a dyn Oracle>,
        root_url: &str,
        strategy: &'a mut dyn Strategy,
        cfg: &'a CrawlConfig,
    ) -> Result<Self, ConfigError> {
        let transport: Box<dyn Transport + 'a> = Box::new(
            PipelinedTransport::new(server, cfg.policy.clone(), cfg.politeness)
                .with_window(cfg.max_in_flight),
        );
        Self::with_transport(transport, oracle, root_url, strategy, cfg)
    }

    /// As [`CrawlSession::new`] over a caller-built [`Transport`] — a
    /// [`PipelinedTransport`] with custom retry or hazard policies, or a
    /// [`sb_httpsim::PoolHandle`] on a pool shared with other sessions
    /// ([`crate::fleet::Fleet`] uses this). Both are the same backend; the
    /// transport's own window wins over [`CrawlConfig::max_in_flight`]
    /// (which is validated all the same).
    pub fn with_transport(
        transport: Box<dyn Transport + 'a>,
        oracle: Option<&'a dyn Oracle>,
        root_url: &str,
        strategy: &'a mut dyn Strategy,
        cfg: &'a CrawlConfig,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let root = Url::parse(root_url)
            .map_err(|error| ConfigError::InvalidRoot { url: root_url.to_owned(), error })?;
        let root_text = root.as_string();
        Ok(CrawlSession {
            transport,
            oracle,
            cfg,
            strategy,
            hub: ObserverHub { trace: TraceObserver::new(), user: Vec::new() },
            root,
            root_text,
            visited: VisitedSet::with_threshold(cfg.compact_visited_threshold),
            link_scratch: None,
            depths: Vec::new(),
            targets: Vec::new(),
            pages_crawled: 0,
            t: 0,
            steps: 0,
            early: cfg.early_stop.map(EarlyStop::new),
            aborted_oom: false,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xc3a5_c85c_97cb_3127),
            phase: Phase::Root,
            pending: VecDeque::new(),
            batch_buf: VecDeque::new(),
            inflight: Vec::new(),
            poll_buf: Vec::new(),
            abandoned: AbandonCounts::default(),
            robots: None,
            refresh_queue: VecDeque::new(),
            refreshed: Vec::new(),
            refresh_stats: RefreshStats::default(),
        })
    }

    /// Registers an observer (fluent). Observers attached before the first
    /// step see the whole event stream, `SessionStarted` included.
    pub fn observe(mut self, observer: &'a mut dyn CrawlObserver) -> Self {
        self.hub.user.push(observer);
        self
    }

    /// The canonical root URL.
    pub fn root(&self) -> &Url {
        &self.root
    }

    /// Cost counters so far (delivered requests; in-flight work is charged
    /// at completion).
    pub fn traffic(&self) -> sb_httpsim::Traffic {
        self.transport.traffic()
    }

    /// Targets retrieved so far.
    pub fn targets_found(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Pages fetched so far (GET attempts, redirect hops included).
    pub fn pages_crawled(&self) -> u64 {
        self.pages_crawled
    }

    /// Requests currently in the transport's pool.
    pub fn in_flight(&self) -> usize {
        self.transport.in_flight()
    }

    /// The per-request trace recorded so far.
    pub fn trace(&self) -> &CrawlTrace {
        self.hub.trace.trace()
    }

    pub fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Done(_))
    }

    /// The finish reason, once the session stopped.
    pub fn finish_reason(&self) -> Option<FinishReason> {
        match self.phase {
            Phase::Done(reason) => Some(reason),
            _ => None,
        }
    }

    fn snapshot(&self) -> CrawlSnapshot {
        CrawlSnapshot {
            traffic: self.transport.traffic(),
            targets: self.targets.len() as u64,
            steps: self.steps,
            mem: self.mem_gauges(),
        }
    }

    /// Memory gauges right now (PR 7): visited-set size and footprint
    /// estimate, frontier length and spilled portion.
    pub fn mem_gauges(&self) -> MemGauges {
        MemGauges {
            visited_urls: self.visited.len(),
            visited_bytes: self.visited.bytes_estimate(),
            visited_collisions: self.visited.collisions(),
            frontier_len: self.strategy.frontier_len(),
            frontier_spilled: self.strategy.frontier_spilled(),
        }
    }

    /// Pumps the crawl once: refill the in-flight window (cascade work
    /// first, then fresh selections — the root counts as a selection),
    /// then drain and process the next batch of completions.
    /// With `max_in_flight = 1` one submission completes per pump, which
    /// reproduces the sequential engine's operation order exactly. On an
    /// already-finished (or just-finishing) session this is a no-op that
    /// reports the reason. When the transport is a shared-pool handle
    /// whose window is currently held by *other* sites, a step is a
    /// harmless no-op too — but prefer driving shared sessions through
    /// [`CrawlSession::refill_one`]/[`CrawlSession::drain_completions`]
    /// (as [`crate::fleet::FleetMode::SharedPool`] does) so the global
    /// window is rationed fairly.
    pub fn step(&mut self) -> StepReport {
        let before_gets = self.transport.traffic().get_requests;
        let before_targets = self.targets.len() as u64;
        if !self.is_finished() {
            self.pump();
        }
        StepReport {
            steps: self.steps,
            fetched: self.transport.traffic().get_requests - before_gets,
            new_targets: self.targets.len() as u64 - before_targets,
            requests: self.transport.traffic().requests(),
            in_flight: self.transport.in_flight(),
            finished: self.finish_reason(),
            abandoned: self.abandoned,
            mem: self.mem_gauges(),
            refresh: self.refresh_stats,
        }
    }

    /// Per-reason abandonment tally so far (PR 6).
    pub fn abandoned(&self) -> AbandonCounts {
        self.abandoned
    }

    /// Queues a known URL for a refresh fetch (PR 9). The fetch rides the
    /// normal window — politeness-gated, budget-charged, redirect-capped
    /// like any crawl fetch — but its answer goes to the serving layer
    /// ([`CrawlSession::take_refreshed`]) instead of re-counting targets
    /// or feeding the strategy: the page was already observed once at
    /// discovery, and one-feedback-per-selection stays intact.
    /// `prior_hash` is the FNV-1a hash of the version being served;
    /// change detection compares the refetched body against it.
    ///
    /// A session that already finished for a benign reason (frontier
    /// exhausted, early stop) is *reopened*: continuous serving re-admits
    /// work into a drained crawl. It finishes again — emitting a second
    /// `SessionFinished` — once the refresh queue and frontier drain; a
    /// budget-exhausted session re-finishes immediately and the queued
    /// refresh is dropped (visible as `scheduled > completed + failed`).
    pub fn queue_refresh(&mut self, url: &str, prior_hash: u64) {
        self.refresh_stats.scheduled += 1;
        self.refresh_queue.push_back((url.to_owned(), prior_hash));
        if let Phase::Done(_) = self.phase {
            self.phase = Phase::Steady;
        }
    }

    /// Drains the pages buffered for the serving layer: refresh answers,
    /// plus every fetched page when [`CrawlConfig::serve_feed`] is on.
    /// Bodies are shared — draining moves `Arc`s, not bytes.
    pub fn take_refreshed(&mut self) -> Vec<RefreshedPage> {
        std::mem::take(&mut self.refreshed)
    }

    /// Cumulative refresh ledger so far (PR 9).
    pub fn refresh_stats(&self) -> RefreshStats {
        self.refresh_stats
    }

    fn pump(&mut self) {
        self.refill();
        if self.is_finished() {
            return;
        }
        if self.drain_completions() == 0 {
            if !self.transport.has_capacity() && self.transport.in_flight() == 0 {
                // A shared-pool handle whose global window is entirely held
                // by other sites: nothing to submit, nothing of ours to
                // drain. Yield — the pool's driver frees capacity by
                // draining the site that owns the next completion.
                return;
            }
            // Refill neither submitted nor finished while the window was
            // open and idle: unreachable by construction, but never spin.
            debug_assert!(false, "pump stalled with an idle transport");
            let snap = self.snapshot();
            self.hub.emit(&snap, &CrawlEvent::FrontierExhausted);
            self.finish_with(FinishReason::FrontierExhausted);
        }
    }

    /// Drains one transport poll batch and processes every delivered
    /// completion (redirect continuations re-submit, FetchNow children
    /// queue, feedback fires). Returns the number of completions
    /// processed — 0 when this session has nothing deliverable. Public as
    /// shared-pool plumbing: an external driver alternates
    /// [`CrawlSession::refill_one`] and this, in the pool's completion
    /// order ([`sb_httpsim::SharedTransportPool::next_completion_site`]).
    pub fn drain_completions(&mut self) -> usize {
        if self.is_finished() {
            return 0;
        }
        let mut batch = std::mem::take(&mut self.poll_buf);
        self.transport.poll_into(&mut batch);
        let delivered = batch.len();
        for (rid, f) in batch.drain(..) {
            let job = self.take_job(rid);
            self.process_completion(job, f);
        }
        self.poll_buf = batch;
        delivered
    }

    /// Removes the job matching a delivered request (submission order is
    /// preserved for the outstanding-feedback drain).
    fn take_job(&mut self, rid: RequestId) -> Job {
        let pos = self
            .inflight
            .iter()
            .position(|(id, _)| *id == rid)
            .expect("transport delivered an unknown request id");
        self.inflight.remove(pos).1
    }

    /// Fills the transport window: pending cascade work first (Algorithm
    /// 4's FIFO), then — once the cascade is drained — the next selection
    /// source: root fetch, then strategy picks. Mirrors the
    /// sequential engine's check order exactly: the stop checks run before
    /// every selection pull, while cascade submissions re-check only
    /// budget/OOM (as the cascade loop did).
    fn refill(&mut self) {
        self.refill_limit(usize::MAX);
    }

    /// Submits at most one request, respecting every refill rule (cascade
    /// priority, stop checks, budget blocking). Returns whether a fetch
    /// was dispatched. This is the shared-pool plumbing: an external
    /// driver ([`crate::fleet::FleetMode::SharedPool`]) rations the pool's
    /// *global* window one slot at a time across many sessions —
    /// least-elapsed-host first — instead of letting one session's
    /// [`CrawlSession::step`] swallow every free slot. A `false` return
    /// means this session cannot use a slot right now (finished, window
    /// full, budget-blocked, or frontier dry pending in-flight answers) —
    /// its state can change only after its own next
    /// [`CrawlSession::drain_completions`].
    pub fn refill_one(&mut self) -> bool {
        self.refill_limit(1) > 0
    }

    /// The refill loop behind [`CrawlSession::refill`] (no limit) and
    /// [`CrawlSession::refill_one`] (limit 1). Returns dispatched fetches
    /// (synchronous unparseable-selection fetches count — they consume
    /// budget like any dispatch, just not a window slot).
    fn refill_limit(&mut self, limit: usize) -> usize {
        let mut dispatched = 0usize;
        loop {
            if dispatched >= limit || self.is_finished() || !self.transport.has_capacity() {
                return dispatched;
            }
            if let Phase::Root = self.phase {
                let snap = self.snapshot();
                self.hub.emit(&snap, &CrawlEvent::SessionStarted { root: &self.root_text });
                self.fetch_robots();
                let root = self.root.clone();
                let root_id = self.intern_at_depth(&root, 0);
                self.phase = Phase::Steady;
                self.steps += 1;
                if !(self.budget_exhausted() || self.aborted_oom) {
                    self.submit(Job::fresh(root_id, 0, None));
                    dispatched += 1;
                }
                continue;
            }
            if self.budget_exhausted() || self.aborted_oom {
                // Mid-cascade exhaustion drops the remaining queue, exactly
                // as the sequential cascade loop did. The stop reason fires
                // once the pipeline drains.
                self.pending.clear();
                if self.transport.in_flight() == 0 {
                    if let Some(reason) = self.stop_check() {
                        self.finish_with(reason);
                    }
                }
                return dispatched;
            }
            if self.budget_blocked() {
                // In-flight work already covers the remaining request or
                // volume budget; wait for delivery instead of overshooting.
                return dispatched;
            }
            if let Some(job) = self.pending.pop_front() {
                self.submit(job);
                dispatched += 1;
                continue;
            }
            if let Some((url, prior)) = self.refresh_queue.pop_front() {
                // Refresh selections go ahead of fresh discovery picks:
                // staleness is paid for in reader-visible age, discovery
                // only in coverage. An unparseable queued URL (caller bug)
                // is dropped as a failed refresh rather than fetched.
                let Ok(u) = Url::parse(&url) else {
                    self.refresh_stats.failed += 1;
                    continue;
                };
                let id = self.intern_at_depth(&u, 0);
                let depth = self.depths[id as usize];
                self.steps += 1;
                self.submit(Job {
                    id,
                    depth,
                    token: None,
                    hops_left: (MAX_REDIRECTS - 1) as u8,
                    refresh: Some(prior),
                });
                dispatched += 1;
                continue;
            }
            if let Some(sel) = self.batch_buf.pop_front() {
                // Already pulled from the strategy: submitted here one per
                // iteration so the budget gates above run between the
                // members of a batch exactly as they do between single
                // pulls.
                if self.resolve_selection(sel) {
                    dispatched += 1;
                }
                continue;
            }
            if !self.pull_selections() {
                return dispatched;
            }
        }
    }

    /// The [`CrawlConfig::robots_agent`] handshake (PR 6), run once before
    /// the root fetch: GET `/robots.txt` through the transport (a real,
    /// budget-charged request), parse a 200 answer, apply any declared
    /// `Crawl-delay` to the transport's politeness gate for the root host,
    /// and keep the rules for link admission. Any non-200 answer means no
    /// robots.txt: everything stays admitted, nothing is slowed.
    fn fetch_robots(&mut self) {
        let Some(agent) = self.cfg.robots_agent.clone() else { return };
        let robots_url = format!("{}://{}/robots.txt", self.root.scheme, self.root.host);
        let f = self.transport.fetch_now(&robots_url);
        if f.status != 200 {
            return;
        }
        let robots = sb_httpsim::RobotsTxt::parse(&String::from_utf8_lossy(&f.body));
        self.transport.apply_crawl_delay(&robots, &agent, &self.root.host);
        self.robots = Some(robots);
    }

    /// Link/redirect admission beyond the structural checks: the session's
    /// robots rules, when [`CrawlConfig::robots_agent`] fetched any.
    fn admits(&self, url: &Url) -> bool {
        match (&self.robots, &self.cfg.robots_agent) {
            // Rules match the path *and* query (`Disallow: /*?month=`).
            (Some(robots), Some(agent)) if url.query.is_empty() => robots.allows(agent, &url.path),
            (Some(robots), Some(agent)) => {
                robots.allows(agent, &format!("{}?{}", url.path, url.query))
            }
            _ => true,
        }
    }

    /// One strategy pull: stop checks, then the strategy is asked once and
    /// whatever it hands back lands in [`CrawlSession::batch_buf`]; the
    /// refill loop submits from there one member per iteration, re-checking
    /// the budget gates between members. [`Strategy::batch_selection`] only
    /// picks the trait method that supplies the selections: one
    /// [`Strategy::select_batch`] ranking pass (PR 10) sized to the
    /// window's free slots — capped by the remaining request budget, so a
    /// batch never pulls selections a [`Budget::Requests`] crawl could not
    /// submit — or a single [`Strategy::next`]. Never dispatches itself;
    /// `false` means refilling must stop (the session finished, or the
    /// frontier is dry while completions are still outstanding).
    fn pull_selections(&mut self) -> bool {
        if let Some(reason) = self.stop_check() {
            self.finish_with(reason);
            return false;
        }
        if self.strategy.batch_selection() {
            let free = self
                .transport
                .max_in_flight()
                .saturating_sub(self.transport.in_flight())
                .max(1);
            let k = match self.cfg.budget {
                Budget::Requests(b) => {
                    let headroom = b
                        .saturating_sub(self.transport.traffic().requests())
                        .saturating_sub(self.transport.in_flight() as u64);
                    // `budget_blocked()` was false, so headroom ≥ 1.
                    free.min(headroom.max(1).min(usize::MAX as u64) as usize)
                }
                _ => free,
            };
            let batch = self.strategy.select_batch(k, &mut self.rng);
            let snap = self.snapshot();
            self.hub
                .emit(&snap, &CrawlEvent::BatchSelected { requested: k, selected: batch.len() });
            self.batch_buf.extend(batch);
        } else {
            self.batch_buf.extend(self.strategy.next(&mut self.rng));
        }
        if self.batch_buf.is_empty() {
            if self.transport.in_flight() == 0 {
                let snap = self.snapshot();
                self.hub.emit(&snap, &CrawlEvent::FrontierExhausted);
                self.finish_with(FinishReason::FrontierExhausted);
            }
            // Otherwise in-flight pages may still discover links: the
            // strategy is asked again after the next drain.
            return false;
        }
        true
    }

    /// Submits one already-pulled selection, delivering the error
    /// observation itself when the selection cannot be fetched. Returns
    /// whether a fetch was dispatched (into the window, or synchronously
    /// for an unparseable selection — either way budget was consumed); a
    /// degenerate strategy answer dispatches nothing.
    fn resolve_selection(&mut self, Selection { url, token }: Selection) -> bool {
        self.steps += 1;
        let id = match url {
            // Hot path: the id resolves without parsing or hashing.
            SelUrl::Id(id) if (id as usize) < self.depths.len() => id,
            SelUrl::Id(_) => {
                // An id the engine never handed out — a strategy bug.
                // Degrade like an error answer instead of panicking.
                debug_assert!(false, "strategy returned an unknown UrlId");
                self.strategy.feedback_error(token);
                return false;
            }
            // Boundary path (oracle answer keys): parse + intern once.
            SelUrl::Text(s) => {
                let Ok(u) = Url::parse(&s) else {
                    // Seed parity: an unparseable selection still costs
                    // a (404-answered) fetch, so budgets advance and a
                    // re-offering strategy cannot spin the loop. Whatever
                    // the server answers, nothing classifiable can come
                    // back from a URL the engine cannot even parse — the
                    // selection is abandoned, and like every abandoned
                    // selection it delivers the error feedback (one
                    // observation per pull, no exceptions).
                    self.t += 1;
                    self.pages_crawled += 1;
                    let f = self.transport.fetch_now(&s);
                    let snap = self.snapshot();
                    self.hub.emit(
                        &snap,
                        &CrawlEvent::Fetched {
                            url: &s,
                            status: f.status,
                            mime: f.mime.as_deref(),
                            depth: 0,
                        },
                    );
                    self.strategy.feedback_error(token);
                    self.abandoned.record(AbandonReason::UnparseableSelection);
                    self.hub.emit(
                        &snap,
                        &CrawlEvent::Abandoned {
                            url: &s,
                            reason: AbandonReason::UnparseableSelection,
                        },
                    );
                    // A synchronous charged fetch: counts as a dispatch for
                    // the refill limit even though no window slot is held.
                    return true;
                };
                self.intern_at_depth(&u, 0)
            }
        };
        let depth = self.depths[id as usize];
        self.submit(Job::fresh(id, depth, Some(token)));
        true
    }

    /// Hands one job to the transport and records it as in flight.
    fn submit(&mut self, job: Job) {
        let rid = self.transport.submit(Request::get(self.visited.text(job.id)));
        let snap = self.snapshot();
        self.hub.emit(
            &snap,
            &CrawlEvent::Submitted {
                url: self.visited.text(job.id),
                in_flight: self.transport.in_flight(),
            },
        );
        self.inflight.push((rid, job));
    }

    /// The ordered stop checks of the outer loop. Order matters for replay
    /// fidelity: budget, OOM, then the early-stop observation
    /// (which mutates the detector and must not run when an earlier check
    /// already fired).
    fn stop_check(&mut self) -> Option<FinishReason> {
        if self.budget_exhausted() {
            let tr = self.transport.traffic();
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::BudgetExhausted {
                    requests: tr.requests(),
                    total_bytes: tr.total_bytes(),
                },
            );
            return Some(FinishReason::BudgetExhausted);
        }
        if self.aborted_oom {
            return Some(FinishReason::ActionSpaceOverflow);
        }
        if let Some(es) = &mut self.early {
            if es.observe(self.t, self.targets.len() as f64) {
                let snap = self.snapshot();
                self.hub.emit(&snap, &CrawlEvent::EarlyStopped { step: self.t });
                return Some(FinishReason::EarlyStopped);
            }
        }
        None
    }

    fn finish_with(&mut self, reason: FinishReason) {
        // Work already dispatched is wire cost spent whether or not the
        // session reads the answers: drain the pool so the final traffic
        // (the paper's request/volume metrics) and clock stay honest. The
        // answers themselves are discarded — the jobs are abandoned below.
        // No-op when `max_in_flight == 1` (nothing in flight here).
        let mut buf = std::mem::take(&mut self.poll_buf);
        while self.transport.in_flight() > 0 {
            self.transport.poll_into(&mut buf);
            if buf.is_empty() {
                break;
            }
        }
        buf.clear();
        self.poll_buf = buf;
        // Work still in flight must not end silently: every outstanding
        // job gets a terminal `Abandoned` event (so observers can pair it
        // with its `Submitted`), and selections additionally deliver the
        // error observation — never a silent pull. Empty by construction
        // when `max_in_flight == 1`.
        let outstanding = std::mem::take(&mut self.inflight);
        for (_, job) in &outstanding {
            if let Some(token) = job.token {
                self.strategy.feedback_error(token);
            }
            if job.refresh.is_some() {
                self.refresh_stats.failed += 1;
            }
            self.abandoned.record(AbandonReason::SessionClosed);
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::Abandoned {
                    url: self.visited.text(job.id),
                    reason: AbandonReason::SessionClosed,
                },
            );
        }
        // Batch members pulled but never submitted (PR 10): same contract
        // as in-flight work — one error observation per pulled selection,
        // one terminal `Abandoned` each, never a silent pull.
        while let Some(sel) = self.batch_buf.pop_front() {
            self.strategy.feedback_error(sel.token);
            let url = match &sel.url {
                SelUrl::Id(id) if (*id as usize) < self.depths.len() => self.visited.text(*id),
                // An id the session never issued: feedback only, as in
                // `resolve_selection` — no URL to name, so no event, so no
                // count (the tally moves only with an `Abandoned`).
                SelUrl::Id(_) => continue,
                SelUrl::Text(s) => s,
            };
            self.abandoned.record(AbandonReason::SessionClosed);
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::Abandoned { url, reason: AbandonReason::SessionClosed },
            );
        }
        self.pending.clear();
        let snap = self.snapshot();
        self.hub.emit(&snap, &CrawlEvent::SessionFinished { reason });
        self.phase = Phase::Done(reason);
    }

    /// Loops [`CrawlSession::step`] to completion, then reports.
    pub fn run(mut self) -> CrawlOutcome {
        while !self.is_finished() {
            self.step();
        }
        self.finish()
    }

    /// Ends the session (cancelling it when it has not finished naturally)
    /// and assembles the [`CrawlOutcome`].
    pub fn finish(mut self) -> CrawlOutcome {
        if !self.is_finished() {
            self.finish_with(FinishReason::Cancelled);
        }
        let reason = self.finish_reason().expect("session finished");
        let mem = self.mem_gauges();
        CrawlOutcome {
            trace: self.hub.trace.into_trace(),
            targets: self.targets,
            pages_crawled: self.pages_crawled,
            stopped_early: reason == FinishReason::EarlyStopped,
            early_stop_at: self.early.as_ref().and_then(|e| e.triggered_at()),
            aborted_oom: self.aborted_oom,
            traffic: self.transport.traffic(),
            report: self.strategy.report(),
            finish_reason: reason,
            abandoned: self.abandoned,
            mem,
            refresh: self.refresh_stats,
        }
    }

    fn budget_exhausted(&self) -> bool {
        let traffic = self.transport.traffic();
        match self.cfg.budget {
            Budget::Requests(b) => traffic.requests() >= b,
            Budget::VolumeBytes(b) => traffic.total_bytes() >= b,
            Budget::Unlimited => false,
        }
    }

    /// In-flight work already counts against the remaining allowance (it
    /// will be charged on delivery), so the window must not overfill past
    /// the budget: under a request budget each outstanding request covers
    /// one remaining slot, and under a volume budget the outstanding wire
    /// bytes ([`Transport::in_flight_bytes`]) cover the remaining volume —
    /// without the latter, a 16-wide window could overshoot
    /// [`Budget::VolumeBytes`] by fifteen whole transfers the sequential
    /// engine would never have started. Always false at
    /// `max_in_flight = 1`, where nothing is in flight when this runs (the
    /// frozen replay is untouched).
    fn budget_blocked(&self) -> bool {
        match self.cfg.budget {
            Budget::Requests(b) => {
                self.transport.traffic().requests() + self.transport.in_flight() as u64 >= b
            }
            Budget::VolumeBytes(b) => {
                self.transport.traffic().total_bytes() + self.transport.in_flight_bytes() >= b
            }
            Budget::Unlimited => false,
        }
    }

    /// Interns `url`, recording `depth` if it is new. Existing ids keep
    /// their original discovery depth.
    fn intern_at_depth(&mut self, url: &Url, depth: u32) -> UrlId {
        let id = self.visited.intern(url);
        if id as usize == self.depths.len() {
            self.depths.push(depth);
        }
        id
    }

    /// A job ended without a class observation: the pull happened but
    /// nothing came back. Deliver the error feedback for outer selections —
    /// a selection must never be a silent pull (satellite of ISSUE 2) —
    /// and announce the abandonment.
    fn abandon(&mut self, job: &Job, id: UrlId, reason: AbandonReason) {
        if let Some(token) = job.token {
            self.strategy.feedback_error(token);
        }
        if job.refresh.is_some() {
            // A refresh that ends without a body bought no freshness.
            self.refresh_stats.failed += 1;
        }
        self.abandoned.record(reason);
        let snap = self.snapshot();
        self.hub.emit(&snap, &CrawlEvent::Abandoned { url: self.visited.text(id), reason });
    }

    /// Algorithm 4 for one delivered answer. Redirect chains continue by
    /// re-submitting immediately (the delivered request just freed a
    /// window slot, and the sequential chain loop ran without budget
    /// checks between hops); FetchNow children queue on `pending`.
    fn process_completion(&mut self, job: Job, f: Fetched) {
        let id = job.id;
        let snap = self.snapshot();
        self.hub.emit(
            &snap,
            &CrawlEvent::Completed {
                url: self.visited.text(id),
                status: f.status,
                in_flight: self.transport.in_flight(),
            },
        );
        self.t += 1;
        self.pages_crawled += 1;
        let snap = self.snapshot();
        self.hub.emit(
            &snap,
            &CrawlEvent::Fetched {
                url: self.visited.text(id),
                status: f.status,
                mime: f.mime.as_deref(),
                depth: job.depth,
            },
        );
        if f.status.is_redirect_status() {
            // 3xx: follow the Location if it is new, on-site and admitted.
            let Some(loc) = f.location.clone() else {
                return self.abandon(&job, id, AbandonReason::RedirectMissingLocation);
            };
            let Ok(next) = self.visited.base(id).join(&loc) else {
                return self.abandon(&job, id, AbandonReason::RedirectUnparseable);
            };
            if !next.same_site_as(&self.root) {
                return self.abandon(&job, id, AbandonReason::RedirectOffSite);
            }
            if !self.admits(&next) {
                return self.abandon(&job, id, AbandonReason::RedirectFiltered);
            }
            let next_id = match self.visited.get(&next) {
                // Already known elsewhere; don't crawl twice.
                Some(known) if known != id => {
                    return self.abandon(&job, id, AbandonReason::RedirectAlreadyKnown);
                }
                // Self-redirect: keep following until the chain bound.
                Some(known) => known,
                None => self.intern_at_depth(&next, job.depth),
            };
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::Redirected {
                    from: self.visited.text(id),
                    to: self.visited.text(next_id),
                },
            );
            if job.hops_left == 0 {
                return self.abandon(&job, next_id, AbandonReason::RedirectChainExhausted);
            }
            return self.submit(Job {
                id: next_id,
                depth: job.depth,
                token: job.token,
                hops_left: job.hops_left - 1,
                refresh: job.refresh,
            });
        }

        // Errors (4xx/5xx) yield nothing; the selection still consumed a
        // pull. Hazard-layer answers (synthetic timeout/quarantine
        // statuses, retried-then-failed 5xx) get their own reasons.
        if f.status >= 400 {
            if job.refresh.is_some() {
                // The serving layer needs the death certificate (404/410
                // feed the recrawl policies' `died` observations); the
                // `failed` tally is charged by `abandon` below.
                self.refreshed.push(RefreshedPage {
                    url: self.visited.text(id).to_owned(),
                    status: f.status,
                    mime: f.mime.clone(),
                    body: f.body.clone(),
                    body_hash: fnv64(&f.body),
                    refresh: true,
                    changed: false,
                });
            }
            return self.abandon(&job, id, AbandonReason::for_http_failure(f.status, f.attempts));
        }
        if f.interrupted {
            // Banned MIME type: transfer aborted (Algorithm 3).
            return self.abandon(&job, id, AbandonReason::Interrupted);
        }
        let Some(mime) = f.mime.clone() else {
            return self.abandon(&job, id, AbandonReason::MissingMime);
        };

        if self.cfg.policy.is_html_mime(&mime) {
            if let Some(prior) = job.refresh {
                // A refreshed page still harvests links — an evolved
                // origin's new URLs enter the frontier here, which is how
                // refresh and discovery interleave — but the strategy gets
                // no second class observation for an already-counted page.
                self.note_refreshed(id, f.status, &mime, f.body.clone(), prior);
                self.process_html(id, job.depth, &f.body);
                return;
            }
            self.strategy.on_fetched(id, self.visited.text(id), sb_webgraph::UrlClass::Html);
            let reward = self.process_html(id, job.depth, &f.body);
            if let Some(token) = job.token {
                self.strategy.feedback(token, reward);
            }
            if self.cfg.serve_feed {
                self.note_served(id, f.status, &mime, f.body);
            }
        } else if self.cfg.policy.is_target_mime(&mime) {
            // A target: tag its volume and keep it.
            self.transport.tag_target(f.wire_bytes);
            if let Some(prior) = job.refresh {
                // Refreshed target: tagged wire volume (it is target
                // payload), but not re-counted in `targets`.
                self.note_refreshed(id, f.status, &mime, f.body, prior);
                return;
            }
            self.strategy.on_fetched(id, self.visited.text(id), sb_webgraph::UrlClass::Target);
            if self.cfg.serve_feed {
                // Cheap: `Body` is an `Arc<[u8]>` pointer clone.
                self.note_served(id, f.status, &mime, f.body.clone());
            }
            self.targets.push(RetrievedTarget {
                url: self.visited.text(id).to_owned(),
                mime: mime.clone(),
                body: self.cfg.keep_target_bodies.then_some(f.body),
            });
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::TargetRetrieved {
                    url: self.visited.text(id),
                    mime: &mime,
                    ordinal: self.targets.len() as u64,
                },
            );
            if let Some(token) = job.token {
                // Algorithm 4 returns before the R_mean update for targets:
                // the pull happened but no reward observation follows.
                self.strategy.feedback_target(token);
            }
        }
        // Any other MIME type: "Neither", nothing to do.
    }

    /// Buffers a completed refresh fetch for the serving layer and settles
    /// its changed/unchanged verdict against the prior body hash.
    fn note_refreshed(
        &mut self,
        id: UrlId,
        status: u16,
        mime: &str,
        body: sb_httpsim::Body,
        prior: u64,
    ) {
        let hash = fnv64(&body);
        let changed = hash != prior;
        self.refresh_stats.completed += 1;
        if changed {
            self.refresh_stats.changed += 1;
        } else {
            self.refresh_stats.unchanged += 1;
        }
        self.refreshed.push(RefreshedPage {
            url: self.visited.text(id).to_owned(),
            status,
            mime: Some(mime.to_owned()),
            body,
            body_hash: hash,
            refresh: true,
            changed,
        });
    }

    /// Buffers a discovery fetch for the serving layer
    /// ([`CrawlConfig::serve_feed`]): the page's first served version.
    fn note_served(&mut self, id: UrlId, status: u16, mime: &str, body: sb_httpsim::Body) {
        let hash = fnv64(&body);
        self.refreshed.push(RefreshedPage {
            url: self.visited.text(id).to_owned(),
            status,
            mime: Some(mime.to_owned()),
            body,
            body_hash: hash,
            refresh: false,
            changed: true,
        });
    }

    /// Link extraction + per-link decisions; returns the page's reward
    /// (the number of new links to predicted targets, queued for fetch).
    fn process_html(&mut self, page_id: UrlId, page_depth: u32, body: &[u8]) -> f64 {
        // Zero-copy parse path (PR 3): the body is borrowed when it is
        // valid UTF-8 (the render cache guarantees it), and every extracted
        // link borrows `html` in turn — owned conversion happens only below,
        // at the interner boundary, for URLs that outlive the page.
        let html = sb_html::body_str(body);
        let doc = sb_html::parse(&html);
        // A link is filtered on its href alone; its features (tag path,
        // text windows) are computed once it is about to reach `decide`, so
        // a link the visited set rejects never pays for them.
        let needs = self.strategy.link_needs();
        let mut text_scratch = String::new();
        // One clone of the parsed base per page (instead of a re-parse);
        // per link, the href resolves into the session's scratch `Url` and
        // membership is checked on it, so known links cost one fingerprint
        // and zero allocations.
        let base = self.visited.base(page_id);
        let mut resolved = self.link_scratch.take().unwrap_or_else(|| base.clone());
        let mut reward = 0.0;
        let mut new_links = 0u32;
        for site in sb_html::link_sites(&doc) {
            if base.join_into(&site.href, &mut resolved).is_err() {
                continue;
            }
            // Only in-website links enter the graph (Sec 2.2).
            if !resolved.same_site_as(&self.root) {
                continue;
            }
            // u_new ∉ T ∪ F
            if self.visited.get(&resolved).is_some() {
                continue;
            }
            // Extension blocklist: skipped without any bookkeeping.
            if self.cfg.policy.has_blocked_extension(&resolved) {
                continue;
            }
            // robots.txt admission: dropped unrequested.
            if !self.admits(&resolved) {
                continue;
            }
            let id = self.intern_at_depth(&resolved, page_depth + 1);
            new_links += 1;
            let link = site.into_link(&doc, needs, &mut text_scratch);
            let new_link = NewLink {
                id,
                url: &resolved,
                url_str: self.visited.text(id),
                html: &link,
                source_depth: page_depth,
            };
            let mut services = Services {
                transport: &mut *self.transport,
                oracle: self.oracle,
                policy: &self.cfg.policy,
            };
            let decision = self.strategy.decide(&new_link, &mut services);
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::LinkDiscovered {
                    url: self.visited.text(id),
                    depth: page_depth + 1,
                    decision,
                },
            );
            match decision {
                // Enqueue/Skip need no bookkeeping: interning above already
                // recorded membership and depth.
                LinkDecision::Enqueue | LinkDecision::Skip => {}
                LinkDecision::FetchNow => {
                    reward += 1.0;
                    self.pending.push_back(Job::fresh(id, page_depth + 1, None));
                }
                LinkDecision::ActionSpaceFull => {
                    self.aborted_oom = true;
                    self.link_scratch = Some(resolved);
                    return reward;
                }
            }
        }
        self.link_scratch = Some(resolved);
        let snap = self.snapshot();
        self.hub.emit(
            &snap,
            &CrawlEvent::PageProcessed { url: self.visited.text(page_id), new_links, reward },
        );
        reward
    }
}

/// Crawls `root_url` on `server` driving `strategy` to completion — the
/// one-shot convenience over [`CrawlSession`].
///
/// Panics on an invalid config or root; callers that want the
/// [`ConfigError`] instead use [`CrawlSession::new`].
pub fn crawl(
    server: &dyn HttpServer,
    oracle: Option<&dyn Oracle>,
    root_url: &str,
    strategy: &mut dyn Strategy,
    cfg: &CrawlConfig,
) -> CrawlOutcome {
    CrawlSession::new(server, oracle, root_url, strategy, cfg)
        .unwrap_or_else(|e| panic!("invalid crawl: {e}"))
        .run()
}

trait StatusExt {
    fn is_redirect_status(&self) -> bool;
}

impl StatusExt for u16 {
    fn is_redirect_status(&self) -> bool {
        (300..400).contains(self)
    }
}
