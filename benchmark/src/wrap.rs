//! The layers, measured from outside: transparent wrappers around the public
//! traits (`HttpServer`, `Transport`, `Strategy`, `CrawlObserver`) that open a
//! span around every call and count at the same boundary. A wrapped crawl
//! must produce the outcome of the unwrapped one — the tests below and the
//! traced iteration of every workload check it.
//!
//! What the wrappers record besides spans are the *inputs* the replays need
//! (`crate::replay`): delivered HTML bodies, the (url, class) stream, decided
//! URLs, enqueued tag paths and the frontier's push/pop sequence. Recording
//! happens after the span has closed, so it lands in the session's residual,
//! never in the wrapped layer's time.

use crate::spans::span;
use rand::rngs::StdRng;
use sb_crawler::{
    CrawlEvent, CrawlObserver, CrawlSnapshot, LinkDecision, NewLink, Selection, Services, Strategy,
    StrategyReport,
};
use sb_html::{LinkNeeds, TagPath};
use sb_httpsim::transport::{Request, RequestId, Transport};
use sb_httpsim::{Body, Fetched, HeadResponse, HttpServer, Response, RobotsTxt, Traffic};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::{UrlClass, UrlId};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Strings appended to one buffer: recording a URL never allocates per call
/// once the buffer has grown.
#[derive(Debug, Default, Clone)]
pub struct StrList {
    text: String,
    ends: Vec<usize>,
}

impl StrList {
    pub fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let s = &self.text[start..end];
            start = end;
            s
        })
    }
}

/// `httpsim.server`: spans around `get`/`head`, bytes served.
pub struct TracedServer {
    inner: Arc<dyn HttpServer + Send + Sync>,
    body_bytes: AtomicU64,
}

impl TracedServer {
    pub fn new(inner: Arc<dyn HttpServer + Send + Sync>) -> Self {
        TracedServer {
            inner,
            body_bytes: AtomicU64::new(0),
        }
    }

    /// Body bytes handed out by `get` so far.
    pub fn body_bytes(&self) -> u64 {
        self.body_bytes.load(Ordering::Relaxed)
    }
}

impl HttpServer for TracedServer {
    fn head(&self, url: &str) -> HeadResponse {
        let _span = span("httpsim.server.head");
        self.inner.head(url)
    }

    fn get(&self, url: &str) -> Response {
        let response = {
            let _span = span("httpsim.server.get");
            self.inner.get(url)
        };
        self.body_bytes
            .fetch_add(response.body.len() as u64, Ordering::Relaxed);
        response
    }
}

/// Span names of one transport backend.
pub struct TransportNames {
    pub submit: &'static str,
    pub poll: &'static str,
    pub head: &'static str,
    pub fetch_now: &'static str,
}

/// `PipelinedTransport` behind a session.
pub const TRANSPORT: TransportNames = TransportNames {
    submit: "httpsim.transport.submit",
    poll: "httpsim.transport.poll",
    head: "httpsim.transport.head",
    fetch_now: "httpsim.transport.fetch_now",
};

/// A lone `PoolHandle` behind a session.
pub const POOL: TransportNames = TransportNames {
    submit: "httpsim.pool.submit",
    poll: "httpsim.pool.poll",
    head: "httpsim.pool.head",
    fetch_now: "httpsim.pool.fetch_now",
};

/// What a [`TracedTransport`] counted and kept.
#[derive(Debug, Default)]
pub struct TransportRec {
    pub submits: u64,
    /// Sum over submits of the window occupancy right after the submit.
    pub in_flight_sum: u64,
    pub deliveries: u64,
    /// Sum of `Fetched::attempts` over deliveries.
    pub attempts: u64,
    /// Delivered 200 HTML answers — the pages the session parses.
    pub html_pages: u64,
    /// Every `html_stride`-th of them, for the HTML replay.
    pub html_sample: Vec<Body>,
}

/// `httpsim.transport` (or `httpsim.pool`): spans around the calls that do
/// work; the accessors the session polls many times per step pass through.
pub struct TracedTransport<'a> {
    inner: Box<dyn Transport + 'a>,
    names: &'static TransportNames,
    html_stride: u64,
    rec: Rc<RefCell<TransportRec>>,
}

impl<'a> TracedTransport<'a> {
    /// Keeps every `html_stride`-th delivered HTML body (clamped to ≥ 1).
    pub fn new(
        inner: Box<dyn Transport + 'a>,
        names: &'static TransportNames,
        html_stride: u64,
    ) -> Self {
        TracedTransport {
            inner,
            names,
            html_stride: html_stride.max(1),
            rec: Rc::new(RefCell::new(TransportRec::default())),
        }
    }

    /// Shared handle on the record: the session owns the transport, so the
    /// caller keeps this to read the counts back after the crawl.
    pub fn rec(&self) -> Rc<RefCell<TransportRec>> {
        Rc::clone(&self.rec)
    }
}

impl Transport for TracedTransport<'_> {
    fn submit(&mut self, req: Request<'_>) -> RequestId {
        let id = {
            let _span = span(self.names.submit);
            self.inner.submit(req)
        };
        let mut rec = self.rec.borrow_mut();
        rec.submits += 1;
        rec.in_flight_sum += self.inner.in_flight() as u64;
        id
    }

    fn poll_into(&mut self, out: &mut Vec<(RequestId, Fetched)>) {
        {
            let _span = span(self.names.poll);
            self.inner.poll_into(out);
        }
        let mut rec = self.rec.borrow_mut();
        for (_, f) in out.iter() {
            rec.deliveries += 1;
            rec.attempts += u64::from(f.attempts);
            if f.status == 200 && !f.interrupted && f.is_html() {
                if rec.html_pages.is_multiple_of(self.html_stride) {
                    rec.html_sample.push(f.body.clone());
                }
                rec.html_pages += 1;
            }
        }
    }

    fn head(&mut self, url: &str) -> HeadResponse {
        let _span = span(self.names.head);
        self.inner.head(url)
    }

    fn fetch_now(&mut self, url: &str) -> Fetched {
        let _span = span(self.names.fetch_now);
        self.inner.fetch_now(url)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn in_flight_bytes(&self) -> u64 {
        self.inner.in_flight_bytes()
    }

    fn max_in_flight(&self) -> usize {
        self.inner.max_in_flight()
    }

    fn has_capacity(&self) -> bool {
        self.inner.has_capacity()
    }

    fn traffic(&self) -> Traffic {
        self.inner.traffic()
    }

    fn tag_target(&mut self, bytes: u64) {
        self.inner.tag_target(bytes);
    }

    fn policy(&self) -> &MimePolicy {
        self.inner.policy()
    }

    fn set_host_min_delay(&mut self, host: &str, delay_secs: f64) {
        self.inner.set_host_min_delay(host, delay_secs);
    }

    fn apply_crawl_delay(&mut self, robots: &RobotsTxt, agent: &str, host: &str) {
        self.inner.apply_crawl_delay(robots, agent, host);
    }
}

/// One frontier operation, as the strategy saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierOp {
    Push(UrlId),
    Pop,
}

/// What a [`TracedStrategy`] counted and kept.
#[derive(Debug, Default)]
pub struct StrategyRec {
    pub frontier_peak: usize,
    pub fetch_now: u64,
    /// `FetchNow` links whose fetch turned out to be a target.
    pub fetch_now_hits: u64,
    /// URL of every link routed through `decide`.
    pub decided: StrList,
    /// The free training stream of Algorithm 2: (url, true class) per fetch.
    pub fetched: StrList,
    pub fetched_class: Vec<UrlClass>,
    /// Tag paths of the links `decide` enqueued (empty paths are skipped:
    /// href-only strategies never compute them).
    pub enqueued_paths: Vec<TagPath>,
    /// `Enqueue` decisions and selections, in order.
    pub frontier_ops: Vec<FrontierOp>,
}

/// `core.strategy`: spans around every call that does work.
pub struct TracedStrategy {
    inner: Box<dyn Strategy>,
    rec: StrategyRec,
    fetch_now_ids: HashSet<UrlId>,
}

impl TracedStrategy {
    pub fn new(inner: Box<dyn Strategy>) -> Self {
        TracedStrategy {
            inner,
            rec: StrategyRec::default(),
            fetch_now_ids: HashSet::new(),
        }
    }

    pub fn take_rec(&mut self) -> StrategyRec {
        std::mem::take(&mut self.rec)
    }

    fn note_selections(&mut self, n: usize) {
        self.rec
            .frontier_ops
            .extend(std::iter::repeat_n(FrontierOp::Pop, n));
    }
}

impl Strategy for TracedStrategy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn link_needs(&self) -> LinkNeeds {
        self.inner.link_needs()
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
        let sel = {
            let _span = span("core.strategy.next");
            self.inner.next(rng)
        };
        self.note_selections(usize::from(sel.is_some()));
        sel
    }

    /// Forwarded, not defaulted: the inner strategy's own batch ranking (or
    /// its own default of repeated `next`) must run, under one span.
    fn select_batch(&mut self, k: usize, rng: &mut StdRng) -> Vec<Selection> {
        let batch = {
            let _span = span("core.strategy.select_batch");
            self.inner.select_batch(k, rng)
        };
        self.note_selections(batch.len());
        batch
    }

    fn batch_selection(&self) -> bool {
        self.inner.batch_selection()
    }

    fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision {
        let decision = {
            let _span = span("core.strategy.decide");
            self.inner.decide(link, services)
        };
        self.rec.decided.push(link.url_str);
        match decision {
            LinkDecision::Enqueue => {
                self.rec.frontier_ops.push(FrontierOp::Push(link.id));
                if !link.html.tag_path.is_empty() {
                    self.rec.enqueued_paths.push(link.html.tag_path.clone());
                }
                self.rec.frontier_peak = self.rec.frontier_peak.max(self.inner.frontier_len());
            }
            LinkDecision::FetchNow => {
                self.rec.fetch_now += 1;
                self.fetch_now_ids.insert(link.id);
            }
            LinkDecision::Skip | LinkDecision::ActionSpaceFull => {}
        }
        decision
    }

    fn feedback(&mut self, token: u64, reward: f64) {
        let _span = span("core.strategy.feedback");
        self.inner.feedback(token, reward);
    }

    fn feedback_target(&mut self, token: u64) {
        let _span = span("core.strategy.feedback");
        self.inner.feedback_target(token);
    }

    fn feedback_error(&mut self, token: u64) {
        let _span = span("core.strategy.feedback");
        self.inner.feedback_error(token);
    }

    fn on_fetched(&mut self, id: UrlId, url: &str, class: UrlClass) {
        {
            let _span = span("core.strategy.on_fetched");
            self.inner.on_fetched(id, url, class);
        }
        self.rec.fetched.push(url);
        self.rec.fetched_class.push(class);
        if class == UrlClass::Target && self.fetch_now_ids.remove(&id) {
            self.rec.fetch_now_hits += 1;
        }
    }

    fn frontier_len(&self) -> usize {
        self.inner.frontier_len()
    }

    fn frontier_spilled(&self) -> usize {
        self.inner.frontier_spilled()
    }

    fn report(&self) -> StrategyReport {
        self.inner.report()
    }
}

/// Counts what the session announced.
#[derive(Debug, Default)]
pub struct CountingObserver {
    pub events: u64,
    /// Links that passed the session's filters and reached `decide`.
    pub links_admitted: u64,
}

impl CrawlObserver for CountingObserver {
    fn on_event(&mut self, event: &CrawlEvent<'_>, _snap: &CrawlSnapshot) {
        self.events += 1;
        if let CrawlEvent::LinkDiscovered { .. } = event {
            self.links_admitted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Digest;
    use sb_crawler::strategies::{QueueStrategy, SbStrategy};
    use sb_crawler::{Budget, CrawlConfig, CrawlSession, ValueStrategy};
    use sb_httpsim::{PipelinedTransport, SiteServer};
    use sb_webgraph::{build_site, SiteSpec};

    fn crawl(make: fn() -> Box<dyn Strategy>, cfg: &CrawlConfig, wrapped: bool) -> Digest {
        let site = build_site(&SiteSpec::demo(300), 11);
        let root = site.page(site.root()).url.clone();
        let server = SiteServer::new(site);
        if !wrapped {
            let mut strategy = make();
            let session = CrawlSession::new(&server, None, &root, strategy.as_mut(), cfg);
            return Digest::of(&session.expect("valid root").run());
        }
        let server = TracedServer::new(Arc::new(server));
        let transport = PipelinedTransport::new(&server, cfg.policy.clone(), cfg.politeness)
            .with_window(cfg.max_in_flight);
        let transport = TracedTransport::new(Box::new(transport), &TRANSPORT, 1);
        let rec = transport.rec();
        let mut strategy = TracedStrategy::new(make());
        let mut observer = CountingObserver::default();
        let outcome =
            CrawlSession::with_transport(Box::new(transport), None, &root, &mut strategy, cfg)
                .expect("valid root")
                .observe(&mut observer)
                .run();
        assert!(observer.events > 0 && rec.borrow().submits > 0);
        assert_eq!(rec.borrow().deliveries, outcome.traffic.get_requests);
        Digest::of(&outcome)
    }

    /// Wrapped ≡ unwrapped, with recording on so the guards really run.
    #[test]
    fn wrappers_are_transparent_for_bfs_sb_and_value() {
        let _recorder = crate::spans::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::spans::start();
        type Case = (fn() -> Box<dyn Strategy>, CrawlConfig);
        let cases: [Case; 3] = [
            (|| Box::new(QueueStrategy::bfs()), CrawlConfig::default()),
            (
                || Box::new(SbStrategy::classifier_default()),
                CrawlConfig {
                    budget: Budget::Requests(150),
                    seed: 5,
                    ..Default::default()
                },
            ),
            (
                || Box::new(ValueStrategy::default_mix()),
                CrawlConfig {
                    budget: Budget::Requests(120),
                    max_in_flight: 8,
                    ..Default::default()
                },
            ),
        ];
        for (make, cfg) in cases {
            let plain = crawl(make, &cfg, false);
            assert!(plain.targets > 0 && plain.pages > 0, "{}", make().name());
            assert_eq!(crawl(make, &cfg, true), plain, "{}", make().name());
        }
        assert!(!crate::spans::finish().is_empty());
    }

    #[test]
    fn strlist_round_trips() {
        let mut a = StrList::default();
        a.push("https://a/x");
        a.push("");
        a.push("é");
        assert_eq!(a.iter().collect::<Vec<_>>(), ["https://a/x", "", "é"]);
        assert_eq!((a.len(), a.is_empty()), (3, false));
    }
}
