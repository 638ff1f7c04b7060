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
//! The session is split along the stages of one pump: `config` (what a
//! session runs with, and what it rejects), `refill` (filling the window
//! behind the stop checks and budget gates), `completion` (Algorithm 4 per
//! delivered answer, link extraction, and the one abandonment path) and
//! `refresh` (re-fetching known pages, and the buffer that feeds a serving
//! layer). This file holds the state and the verbs.
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
//! ([`crate::events::AbandonReason::SessionClosed`]). Debug builds check
//! it: every issued token waits in a pending multiset until its one
//! settlement, and [`CrawlSession::finish`] asserts none is left.
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

mod completion;
mod config;
mod refill;
mod refresh;

pub use config::{Budget, ConfigError, CrawlConfig};
pub use refresh::RefreshedPage;

use crate::early_stop::EarlyStop;
use crate::events::{
    AbandonCounts, CrawlEvent, CrawlObserver, CrawlSnapshot, FinishReason, MemGauges,
    RefreshStats, TraceObserver,
};
use crate::strategy::{Selection, Strategy};
use crate::trace::CrawlTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_httpsim::transport::{PipelinedTransport, RequestId, Transport};
use sb_httpsim::{Fetched, HttpServer};
use sb_scale::VisitedSet;
use sb_webgraph::gen::SiteSource;
use sb_webgraph::interner::UrlId;
use sb_webgraph::url::Url;
#[cfg(debug_assertions)]
use std::collections::HashMap;
use std::collections::VecDeque;

/// A target retrieved during the crawl.
#[derive(Debug, Clone)]
pub struct RetrievedTarget {
    pub url: String,
    pub mime: String,
    /// Present only when [`CrawlConfig::keep_target_bodies`] is set.
    /// Shared bytes — cloning an outcome does not copy target payloads. A
    /// `SiteServer` body is generated by its first read and pins its site
    /// (see `sb_httpsim::response`).
    pub body: Option<sb_httpsim::Body>,
}

/// Everything a finished crawl reports.
pub struct CrawlOutcome {
    pub trace: CrawlTrace,
    pub targets: Vec<RetrievedTarget>,
    pub pages_crawled: u64,
    /// Step at which Sec 4.8 early stopping fired (the finish reason is
    /// then [`FinishReason::EarlyStopped`]).
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
    /// Final memory gauges: the visited-set and frontier footprint
    /// at the instant the session ended.
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

/// What one [`CrawlSession::step`] did: only what a step alone knows.
/// Running totals are read from the session itself —
/// [`CrawlSession::traffic`], [`CrawlSession::in_flight`],
/// [`CrawlSession::finish_reason`], [`CrawlSession::refresh_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Outer selections begun so far, this step included (the root counts
    /// as one).
    pub steps: u64,
    /// GET requests delivered during this step.
    pub fetched: u64,
    /// Targets retrieved during this step.
    pub new_targets: u64,
    /// Memory gauges after this step (PR 7): visited-set size and byte
    /// estimate, frontier length and spilled portion.
    pub mem: MemGauges,
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
#[derive(Clone, Copy)]
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

const MAX_REDIRECTS: usize = 5;

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
    /// The served site as ground truth, for oracle strategies (Sec 4.3's
    /// `SB-ORACLE`, `TP-OFF`'s first phase and `TRES`'s URL oracle).
    oracle: Option<&'a dyn SiteSource>,
    cfg: &'a CrawlConfig,
    strategy: &'a mut dyn Strategy,
    hub: ObserverHub<'a>,
    root: Url,
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
    /// Pages fetched (entered into `T`): Algorithm 4's crawl step `t`,
    /// the iteration count early stopping observes.
    pages_crawled: u64,
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
    /// Per-reason abandonment tally (PR 6), moved only by
    /// `CrawlSession::abandon`, beside its `CrawlEvent::Abandoned`.
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
    /// Debug builds only: tokens of selections pulled and not yet settled,
    /// with multiplicity (strategies reuse token values).
    #[cfg(debug_assertions)]
    unsettled: HashMap<u64, u32>,
}

impl<'a> CrawlSession<'a> {
    /// Validates `cfg` and the root and builds a session over a fresh
    /// [`PipelinedTransport`] for `server` — the sole handle of a private
    /// in-flight pool, window and politeness from `cfg`. No request is
    /// spent until the first [`CrawlSession::step`].
    pub fn new(
        server: &'a dyn HttpServer,
        oracle: Option<&'a dyn SiteSource>,
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
        oracle: Option<&'a dyn SiteSource>,
        root_url: &str,
        strategy: &'a mut dyn Strategy,
        cfg: &'a CrawlConfig,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let root = Url::parse(root_url)
            .map_err(|error| ConfigError::InvalidRoot { url: root_url.to_owned(), error })?;
        Ok(CrawlSession {
            transport,
            oracle,
            cfg,
            strategy,
            hub: ObserverHub { trace: TraceObserver::new(), user: Vec::new() },
            root,
            visited: VisitedSet::with_threshold(cfg.compact_visited_threshold),
            link_scratch: None,
            depths: Vec::new(),
            targets: Vec::new(),
            pages_crawled: 0,
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
            #[cfg(debug_assertions)]
            unsettled: HashMap::new(),
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

    /// The cost counters every event is dispatched with.
    fn snapshot(&self) -> CrawlSnapshot {
        CrawlSnapshot { traffic: self.transport.traffic(), targets: self.targets.len() as u64 }
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
            mem: self.mem_gauges(),
        }
    }

    fn pump(&mut self) {
        self.refill_limit(usize::MAX);
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
        #[cfg(debug_assertions)]
        assert!(self.unsettled.is_empty(), "selections never settled: {:?}", self.unsettled);
        let mem = self.mem_gauges();
        CrawlOutcome {
            trace: self.hub.trace.into_trace(),
            targets: self.targets,
            pages_crawled: self.pages_crawled,
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

    /// Interns `url`, recording `depth` if it is new. Existing ids keep
    /// their original discovery depth.
    fn intern_at_depth(&mut self, url: &Url, depth: u32) -> UrlId {
        let id = self.visited.intern(url);
        if id as usize == self.depths.len() {
            self.depths.push(depth);
        }
        id
    }
}

/// Crawls `root_url` on `server` driving `strategy` to completion — the
/// one-shot convenience over [`CrawlSession`].
///
/// Panics on an invalid config or root; callers that want the
/// [`ConfigError`] instead use [`CrawlSession::new`].
pub fn crawl(
    server: &dyn HttpServer,
    oracle: Option<&dyn SiteSource>,
    root_url: &str,
    strategy: &mut dyn Strategy,
    cfg: &CrawlConfig,
) -> CrawlOutcome {
    CrawlSession::new(server, oracle, root_url, strategy, cfg)
        .unwrap_or_else(|e| panic!("invalid crawl: {e}"))
        .run()
}
