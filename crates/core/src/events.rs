//! Typed crawl events and the observer interface.
//!
//! A [`crate::session::CrawlSession`] narrates its progress as a stream of
//! [`CrawlEvent`]s: every GET, redirect hop, link decision, retrieved
//! target and termination cause is announced to every registered
//! [`CrawlObserver`] the moment it happens, together with a
//! [`CrawlSnapshot`] of the cost counters at that instant. Nothing in the
//! engine is hardwired to a particular consumer any more: the per-request
//! [`CrawlTrace`] that every table and figure of Sec 4 is derived from is
//! itself just one observer ([`TraceObserver`]), and callers can attach
//! progress bars, loggers, archivers or live dashboards without touching
//! the engine.
//!
//! Events borrow their URL strings from the session's interner — observing
//! a crawl allocates nothing on the hot path. Observers that need to keep
//! an event's data beyond the callback must copy it out.

use crate::strategy::LinkDecision;
use crate::trace::{CrawlTrace, TracePoint};
use sb_httpsim::Traffic;

/// Why a selected (or immediately-fetched) page was abandoned without a
/// class observation: the request budget was spent but nothing came back
/// that the strategy could learn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbandonReason {
    /// The redirect chain was still redirecting after `MAX_REDIRECTS` hops.
    RedirectChainExhausted,
    /// A 3xx answer carried no `Location` header.
    RedirectMissingLocation,
    /// The `Location` did not resolve to an absolute http(s) URL.
    RedirectUnparseable,
    /// The redirect target left the website boundary (Sec 2.2).
    RedirectOffSite,
    /// The redirect target is disallowed by the site's robots.txt
    /// ([`crate::session::CrawlConfig::robots_agent`]).
    RedirectFiltered,
    /// The redirect target was already in `T ∪ F` under another id.
    RedirectAlreadyKnown,
    /// The server answered 4xx/5xx.
    HttpError(u16),
    /// The strategy selected a string that is not an absolute http(s) URL;
    /// the fetch was still charged (seed parity) but nothing can come back.
    UnparseableSelection,
    /// The transfer was aborted on a block-listed MIME type (Algorithm 3).
    Interrupted,
    /// The 2xx answer carried no Content-Type to classify.
    MissingMime,
    /// The session finished (budget, early stop, cancellation) while the
    /// request was still in flight; its selection received
    /// [`crate::strategy::Strategy::feedback_error`] so the pull is not
    /// silent. Only reachable with `max_in_flight > 1`.
    SessionClosed,
    /// The transport's simulated request timeout elapsed before the
    /// transfer finished (PR 6, synthetic status
    /// [`sb_httpsim::STATUS_TIMEOUT`]). The partial transfer was charged.
    Timeout,
    /// Every retry the transport's [`sb_httpsim::RetryPolicy`] allowed was
    /// spent and the last answer was still a retryable failure (5xx/429).
    /// Each attempt was charged.
    RetriesExhausted,
    /// The transport's per-host circuit breaker had quarantined the host
    /// (PR 6, synthetic status [`sb_httpsim::STATUS_QUARANTINED`]); the
    /// request never reached the origin and cost nothing.
    HostQuarantined,
}

impl AbandonReason {
    /// Maps a final transport answer to its abandon reason. Synthetic
    /// hazard statuses ([`sb_httpsim::STATUS_TIMEOUT`],
    /// [`sb_httpsim::STATUS_QUARANTINED`]) take precedence; a retryable
    /// failure that the transport re-dispatched at least once is
    /// [`AbandonReason::RetriesExhausted`]; anything else is a plain
    /// [`AbandonReason::HttpError`].
    pub(crate) fn for_http_failure(status: u16, attempts: u32) -> AbandonReason {
        match status {
            sb_httpsim::STATUS_TIMEOUT => AbandonReason::Timeout,
            sb_httpsim::STATUS_QUARANTINED => AbandonReason::HostQuarantined,
            s if attempts > 1 && ((500..600).contains(&s) || s == 429) => {
                AbandonReason::RetriesExhausted
            }
            s => AbandonReason::HttpError(s),
        }
    }
}

/// Per-reason tally of [`CrawlEvent::Abandoned`] emissions (PR 6). A small
/// `Copy` struct rather than a map so it can ride inside the crawl and
/// fleet outcomes without allocation; rare structural reasons share the
/// `other` bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbandonCounts {
    /// [`AbandonReason::HttpError`] — plain 4xx/5xx with no retry story.
    pub http_error: u64,
    /// [`AbandonReason::Timeout`].
    pub timeout: u64,
    /// [`AbandonReason::RetriesExhausted`].
    pub retries_exhausted: u64,
    /// [`AbandonReason::HostQuarantined`].
    pub quarantined: u64,
    /// Any `Redirect*` reason (exhausted chains, loops, bad `Location`s).
    pub redirect: u64,
    /// [`AbandonReason::SessionClosed`] — in-flight work drained at finish.
    pub session_closed: u64,
    /// Everything else (interrupted transfers, missing MIME, unparseable
    /// selections).
    pub other: u64,
}

impl AbandonCounts {
    /// Tallies one abandonment.
    pub(crate) fn record(&mut self, reason: AbandonReason) {
        match reason {
            AbandonReason::HttpError(_) => self.http_error += 1,
            AbandonReason::Timeout => self.timeout += 1,
            AbandonReason::RetriesExhausted => self.retries_exhausted += 1,
            AbandonReason::HostQuarantined => self.quarantined += 1,
            AbandonReason::RedirectChainExhausted
            | AbandonReason::RedirectMissingLocation
            | AbandonReason::RedirectUnparseable
            | AbandonReason::RedirectOffSite
            | AbandonReason::RedirectFiltered
            | AbandonReason::RedirectAlreadyKnown => self.redirect += 1,
            AbandonReason::SessionClosed => self.session_closed += 1,
            AbandonReason::UnparseableSelection
            | AbandonReason::Interrupted
            | AbandonReason::MissingMime => self.other += 1,
        }
    }

    /// Total abandonments across every bucket.
    pub fn total(&self) -> u64 {
        self.http_error
            + self.timeout
            + self.retries_exhausted
            + self.quarantined
            + self.redirect
            + self.session_closed
            + self.other
    }

    /// Element-wise sum, for fleet-level aggregation.
    pub fn merge(&mut self, other: &AbandonCounts) {
        self.http_error += other.http_error;
        self.timeout += other.timeout;
        self.retries_exhausted += other.retries_exhausted;
        self.quarantined += other.quarantined;
        self.redirect += other.redirect;
        self.session_closed += other.session_closed;
        self.other += other.other;
    }
}

/// Why a session stopped stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The strategy's frontier ran dry: the site is fully crawled.
    FrontierExhausted,
    /// The crawl budget `B` of Algorithm 3 is spent.
    BudgetExhausted,
    /// Sec 4.8 early stopping fired.
    EarlyStopped,
    /// The action space exploded (Table 4's θ = 0.95 OOM).
    ActionSpaceOverflow,
    /// The caller finished the session before any natural end.
    Cancelled,
}

/// What one crawl announces while it runs. Emitted in strict happens-after
/// order: an event is dispatched only after the work it describes is done
/// and charged, so the accompanying [`CrawlSnapshot`] already includes it.
#[derive(Debug, Clone, PartialEq)]
pub enum CrawlEvent<'e> {
    /// First event of every session, before any request.
    SessionStarted { root: &'e str },
    /// A GET entered the transport's in-flight pool (PR 4). `in_flight`
    /// counts outstanding requests, this one included — the session's own
    /// requests only, even when the transport is a shared-pool handle
    /// whose window spans the whole fleet (PR 5).
    Submitted { url: &'e str, in_flight: usize },
    /// A batching strategy ranked its frontier and handed back a batch
    /// (PR 10): `requested` is the window the session asked to fill,
    /// `selected` how many selections came back (fewer means the frontier
    /// ran dry mid-batch; 0 is the batched [`FrontierExhausted`] probe).
    /// Each selection's `Submitted` follows as budget gates allow.
    ///
    /// [`FrontierExhausted`]: CrawlEvent::FrontierExhausted
    BatchSelected { requested: usize, selected: usize },
    /// The transport delivered a finished GET; the matching [`Fetched`]
    /// (and its processing) follow immediately. `in_flight` counts the
    /// requests still outstanding.
    ///
    /// [`Fetched`]: CrawlEvent::Fetched
    Completed { url: &'e str, status: u16, in_flight: usize },
    /// A GET completed (any status — redirect hops and errors included).
    Fetched { url: &'e str, status: u16, mime: Option<&'e str>, depth: u32 },
    /// A 3xx `Location` was admitted and will be followed.
    Redirected { from: &'e str, to: &'e str },
    /// A fetch cascade entry ended without a class observation; when the
    /// page was the outer selection, its token received
    /// [`crate::strategy::Strategy::feedback_error`].
    Abandoned { url: &'e str, reason: AbandonReason },
    /// A new on-site, unseen, unblocked link was routed by the strategy.
    LinkDiscovered { url: &'e str, depth: u32, decision: LinkDecision },
    /// Link extraction + routing finished for a fetched HTML page.
    /// `reward` is the page's Algorithm 4 reward (immediately-fetched
    /// predicted targets).
    PageProcessed { url: &'e str, new_links: u32, reward: f64 },
    /// A target was retrieved and its volume tagged. `ordinal` counts
    /// targets from 1.
    TargetRetrieved { url: &'e str, mime: &'e str, ordinal: u64 },
    /// Sec 4.8 early stopping fired at crawl step `step`.
    EarlyStopped { step: u64 },
    /// The budget check failed; no further selection will run.
    BudgetExhausted { requests: u64, total_bytes: u64 },
    /// The strategy returned `None`: nothing left to crawl.
    FrontierExhausted,
    /// Last event of every finished session.
    SessionFinished { reason: FinishReason },
}

/// Cost counters at the instant an event is dispatched (the event's work
/// already included) — what the trace records. Selection counts and
/// memory gauges ride [`crate::session::StepReport`] instead, so an event
/// costs no gauge reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrawlSnapshot {
    pub traffic: Traffic,
    /// Targets retrieved so far.
    pub targets: u64,
}

/// Memory-footprint gauges of the session's growing structures, reported
/// on every [`crate::session::StepReport`] and
/// [`crate::session::CrawlOutcome`] so bounded-memory crawls can *observe*
/// that they are bounded instead of trusting it. A gauge is one session's
/// at one instant: gauges of sessions that finished at different times do
/// not add up to a footprint anything held, so nothing sums them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemGauges {
    /// Distinct URLs in the visited set (`T ∪ F` membership).
    pub visited_urls: usize,
    /// Estimated heap bytes held by the visited set (exact interner
    /// entries + compact fingerprint entries).
    pub visited_bytes: u64,
    /// Fingerprint collisions absorbed by the visited set's exact escape
    /// hatch (0 in pure-exact mode).
    pub visited_collisions: u64,
    /// Frontier length, spilled portion included.
    pub frontier_len: usize,
    /// URLs of the frontier currently parked in the spill arena (0 for
    /// unbounded frontiers).
    pub frontier_spilled: usize,
}

/// Refresh ledger of a continuous crawl-and-serve session (PR 9): how
/// many already-fetched URLs were re-admitted through the window
/// ([`crate::session::CrawlSession::queue_refresh`]) and what came back.
/// Five additive counters, read mid-crawl through
/// [`crate::session::CrawlSession::refresh_stats`] and at the end from
/// [`crate::session::CrawlOutcome::refresh`]; all zero when no refresh was
/// ever queued, so one-shot crawls report exactly what they did before. The
/// staleness readers saw while the crawl ran is not a session quantity —
/// the layer serving the reads measures it (`sb_serve::ServeOutcome`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Refresh selections queued (whether or not they dispatched — a
    /// budget-exhausted session drops queued refreshes, and the gap
    /// between `scheduled` and `completed + failed` is that drop count).
    pub scheduled: u64,
    /// Refresh fetches that delivered a usable body.
    pub completed: u64,
    /// Completed refreshes whose body hash matched the prior version.
    pub unchanged: u64,
    /// Completed refreshes whose body hash differed from the prior
    /// version (the fetch bought actual freshness).
    pub changed: u64,
    /// Refresh fetches that ended without a body: HTTP errors (the page
    /// died, or the host misbehaved), dead redirect chains, interrupted
    /// transfers, session shutdown.
    pub failed: u64,
}

impl RefreshStats {
    /// Refreshes that went through the window, successful or not.
    pub fn attempted(&self) -> u64 {
        self.completed + self.failed
    }
}

/// A crawl progress consumer. Registered with
/// [`crate::session::CrawlSession::observe`]; every event of the session is
/// delivered in order, on the thread driving the session.
pub trait CrawlObserver {
    fn on_event(&mut self, event: &CrawlEvent<'_>, snap: &CrawlSnapshot);
}

/// [`CrawlTrace`] recording, reimplemented as an observer: one
/// [`TracePoint`] after every GET and every processed HTML page, with the
/// point *amended in place* (not duplicated) when target-volume tagging
/// re-attributes the bytes of the request it describes.
#[derive(Debug, Default)]
pub struct TraceObserver {
    trace: CrawlTrace,
}

impl TraceObserver {
    pub fn new() -> Self {
        TraceObserver::default()
    }

    pub fn trace(&self) -> &CrawlTrace {
        &self.trace
    }

    pub(crate) fn into_trace(self) -> CrawlTrace {
        self.trace
    }

    fn point(snap: &CrawlSnapshot) -> TracePoint {
        TracePoint {
            requests: snap.traffic.requests(),
            head_requests: snap.traffic.head_requests,
            target_bytes: snap.traffic.target_bytes,
            non_target_bytes: snap.traffic.non_target_bytes,
            targets: snap.targets,
            elapsed_secs: snap.traffic.elapsed_secs,
        }
    }
}

impl CrawlObserver for TraceObserver {
    fn on_event(&mut self, event: &CrawlEvent<'_>, snap: &CrawlSnapshot) {
        match event {
            CrawlEvent::Fetched { .. } | CrawlEvent::PageProcessed { .. } => {
                self.trace.push(Self::point(snap));
            }
            // The GET that fetched the target already pushed a point at this
            // request count; re-record it with the re-attributed volume
            // instead of appending a duplicate.
            CrawlEvent::TargetRetrieved { .. } => {
                self.trace.amend_last(Self::point(snap));
            }
            _ => {}
        }
    }
}

/// An observer that collects owned copies of every event — handy for tests
/// and debugging (event ordering assertions), too allocation-happy for
/// production observation.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<OwnedEvent>,
}

/// An owned, lifetime-free copy of a [`CrawlEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedEvent {
    SessionStarted { root: String },
    Submitted { url: String, in_flight: usize },
    BatchSelected { requested: usize, selected: usize },
    Completed { url: String, status: u16, in_flight: usize },
    Fetched { url: String, status: u16, mime: Option<String>, depth: u32 },
    Redirected { from: String, to: String },
    Abandoned { url: String, reason: AbandonReason },
    LinkDiscovered { url: String, depth: u32, decision: LinkDecision },
    PageProcessed { url: String, new_links: u32, reward: f64 },
    TargetRetrieved { url: String, mime: String, ordinal: u64 },
    EarlyStopped { step: u64 },
    BudgetExhausted { requests: u64, total_bytes: u64 },
    FrontierExhausted,
    SessionFinished { reason: FinishReason },
}

impl From<&CrawlEvent<'_>> for OwnedEvent {
    fn from(e: &CrawlEvent<'_>) -> OwnedEvent {
        match *e {
            CrawlEvent::SessionStarted { root } => {
                OwnedEvent::SessionStarted { root: root.to_owned() }
            }
            CrawlEvent::Submitted { url, in_flight } => {
                OwnedEvent::Submitted { url: url.to_owned(), in_flight }
            }
            CrawlEvent::BatchSelected { requested, selected } => {
                OwnedEvent::BatchSelected { requested, selected }
            }
            CrawlEvent::Completed { url, status, in_flight } => {
                OwnedEvent::Completed { url: url.to_owned(), status, in_flight }
            }
            CrawlEvent::Fetched { url, status, mime, depth } => OwnedEvent::Fetched {
                url: url.to_owned(),
                status,
                mime: mime.map(str::to_owned),
                depth,
            },
            CrawlEvent::Redirected { from, to } => {
                OwnedEvent::Redirected { from: from.to_owned(), to: to.to_owned() }
            }
            CrawlEvent::Abandoned { url, reason } => {
                OwnedEvent::Abandoned { url: url.to_owned(), reason }
            }
            CrawlEvent::LinkDiscovered { url, depth, decision } => {
                OwnedEvent::LinkDiscovered { url: url.to_owned(), depth, decision }
            }
            CrawlEvent::PageProcessed { url, new_links, reward } => {
                OwnedEvent::PageProcessed { url: url.to_owned(), new_links, reward }
            }
            CrawlEvent::TargetRetrieved { url, mime, ordinal } => {
                OwnedEvent::TargetRetrieved { url: url.to_owned(), mime: mime.to_owned(), ordinal }
            }
            CrawlEvent::EarlyStopped { step } => OwnedEvent::EarlyStopped { step },
            CrawlEvent::BudgetExhausted { requests, total_bytes } => {
                OwnedEvent::BudgetExhausted { requests, total_bytes }
            }
            CrawlEvent::FrontierExhausted => OwnedEvent::FrontierExhausted,
            CrawlEvent::SessionFinished { reason } => OwnedEvent::SessionFinished { reason },
        }
    }
}

impl EventLog {
    pub fn new() -> Self {
        EventLog::default()
    }

    pub fn events(&self) -> &[OwnedEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl CrawlObserver for EventLog {
    fn on_event(&mut self, event: &CrawlEvent<'_>, _snap: &CrawlSnapshot) {
        self.events.push(OwnedEvent::from(event));
    }
}
