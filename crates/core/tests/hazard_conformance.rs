//! The hostile-web conformance suite (PR 6), mirroring the `Transport`
//! conformance suite's shape: every bounded-waste invariant is written
//! once against (strategy kind × hazard profile × transport builder) and
//! macro-instantiated over the full cross product, so a new strategy or
//! backend inherits the whole hostile scenario pack for free. The two
//! builders are the two tenancy shapes of the one pool backend: the sole
//! tenant of a private pool (`_pipelined`) and a handle beside a
//! registered-but-idle sibling (`_pool`).
//!
//! For every combination the scenario run asserts:
//!
//! * **termination** — the crawl ends (budget or frontier), never hangs in
//!   a trap, a redirect loop or a retry storm;
//! * **budget honesty** — `requests ≤ budget + window·(1 + retries)`: a
//!   pipelined window may finish work already in flight (one attempt per
//!   retried request, as documented on `with_retry_policy`), never more;
//! * **bounded waste** — requests spent inside the hazard subspace (the
//!   `HazardReport` ground truth) stay under the profile's waste ceiling;
//! * **clean-subset parity at window 1** — an exhaustive hazard-free run
//!   and an exhaustive hazard run cover the *same clean URL set*, retrieve
//!   the same targets and the same target bytes. The hazard overlay only
//!   repurposes error URLs, so clean pages render byte-identically (pinned
//!   in `sb-webgraph`); equal coverage over byte-identical pages is
//!   byte-identical coverage.
//!
//! Alongside the cross product: retry/backoff never violates the
//! politeness gate, hazard statuses map to their `AbandonReason`s (and the
//! PR 6 per-reason counters), the circuit breaker quarantines hosts, and
//! near-duplicate clusters are detectable with the `sb-ann` n-gram
//! sketches.

use sb_crawler::{Budget, CrawlConfig, CrawlOutcome, CrawlSession};
use sb_crawler::strategies::{QueueStrategy, SbConfig, SbStrategy, TresStrategy};
use sb_crawler::{EventLog, OwnedEvent, Strategy};
use sb_httpsim::transport::Transport;
use sb_httpsim::{
    HazardPolicy, HttpServer, Outage, PipelinedTransport, Politeness, RetryPolicy,
    SharedTransportPool, SiteServer, TailLatency,
};
use sb_webgraph::gen::hazard::{apply_hazards, HazardReport, HazardSpec};
use sb_webgraph::gen::{build_site, SiteSource, SiteSpec};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::Website;
use std::collections::BTreeSet;
use std::sync::Arc;

// ----------------------------------------------------------------------
// Axes of the cross product
// ----------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Strat {
    Bfs,
    Sb,
    Tres,
}

impl Strat {
    fn build(self) -> (Box<dyn Strategy>, bool) {
        match self {
            Strat::Bfs => (Box::new(QueueStrategy::bfs()), false),
            Strat::Sb => (Box::new(SbStrategy::oracle(SbConfig::default())), true),
            Strat::Tres => (Box::new(TresStrategy::new()), true),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Hazard {
    /// Calendar pagination trap behind a redirect entrance.
    Trap,
    /// Redirect farm + redirect 2-cycles behind a directory entrance.
    Redirects,
    /// 200-status error bodies at former 404/500 URLs.
    Soft404,
    /// Transport-level transient 503 outage, recovered by retries.
    Flaky,
    /// Transport-level heavy-tailed latency + bandwidth cap + timeout.
    SlowHost,
}

impl Hazard {
    /// Site overlay for this profile (`None` = transport-level only).
    fn spec(self) -> Option<HazardSpec> {
        match self {
            Hazard::Trap => Some(HazardSpec::trap_only(80)),
            Hazard::Redirects => Some(HazardSpec::redirects_only(18, 2)),
            Hazard::Soft404 => Some(HazardSpec::soft_404s_only(12)),
            Hazard::Flaky | Hazard::SlowHost => None,
        }
    }

    /// Waste ceiling: share of fetches allowed inside the hazard subspace.
    /// The trap is the biggest subspace (81 of ~430 URLs) and the only one
    /// that actively baits (Pagination-slot links); the others are small.
    fn waste_ceiling_pct(self) -> u64 {
        match self {
            Hazard::Trap => 40,
            Hazard::Redirects => 35,
            Hazard::Soft404 => 25,
            Hazard::Flaky | Hazard::SlowHost => 100,
        }
    }

    fn retry_policy(self) -> RetryPolicy {
        match self {
            // Recover the transient 503s; jittered exponential backoff.
            Hazard::Flaky => RetryPolicy::retries(2).with_backoff(0.5, 4.0).with_jitter(0.1, 9),
            _ => RetryPolicy::retries(1).with_backoff(0.25, 2.0),
        }
    }

    fn hazard_policy(self, root: &str, host: &str) -> HazardPolicy {
        match self {
            Hazard::Flaky => HazardPolicy::default().with_outage(Outage {
                share: 0.25,
                seed: 13,
                transient: true,
                exempt: Some(root.to_owned()),
            }),
            Hazard::SlowHost => HazardPolicy::seeded(7)
                .with_tail(TailLatency { prob: 0.3, scale_secs: 2.0, alpha: 1.5 })
                .cap_host_bandwidth(host, 64_000.0)
                .with_timeout(30.0),
            _ => HazardPolicy::default(),
        }
    }
}

/// Builds the transport backend under test.
type Build = for<'a> fn(
    &'a (dyn HttpServer + 'a),
    Politeness,
    usize,
    RetryPolicy,
    HazardPolicy,
) -> Box<dyn Transport + 'a>;

fn build_pipelined<'a>(
    server: &'a (dyn HttpServer + 'a),
    politeness: Politeness,
    window: usize,
    retry: RetryPolicy,
    hazards: HazardPolicy,
) -> Box<dyn Transport + 'a> {
    Box::new(
        PipelinedTransport::new(server, MimePolicy::default(), politeness)
            .with_window(window)
            .with_retry_policy(retry)
            .with_hazards(hazards),
    )
}

/// `build_pipelined` is already the sole-tenant pool handle, so the `_pool`
/// column covers the other tenancy shape: a second handle is registered
/// beside the one under test and never submits anything. Hazard dispatch,
/// retries and the breaker must not depend on being the pool's only tenant.
fn build_pool_handle<'a>(
    server: &'a (dyn HttpServer + 'a),
    politeness: Politeness,
    window: usize,
    retry: RetryPolicy,
    hazards: HazardPolicy,
) -> Box<dyn Transport + 'a> {
    let pool = SharedTransportPool::new(window);
    let _idle_sibling = pool.handle(server, MimePolicy::default(), Politeness::default());
    Box::new(
        pool.handle(server, MimePolicy::default(), politeness)
            .with_retry_policy(retry)
            .with_hazards(hazards),
    )
}

// ----------------------------------------------------------------------
// Scenario fixtures
// ----------------------------------------------------------------------

const PAGES: usize = 300;
const SITE_SEED: u64 = 5;
const BUDGET: u64 = 600;
const WINDOW: usize = 4;
const RETRIES_MAX: u64 = 2; // max over Hazard::retry_policy()

fn clean_site() -> Arc<Website> {
    Arc::new(build_site(&SiteSpec::demo(PAGES), SITE_SEED))
}

fn hazard_site(h: Hazard) -> (Arc<Website>, HazardReport) {
    let mut site = build_site(&SiteSpec::demo(PAGES), SITE_SEED);
    let report = match h.spec() {
        Some(spec) => apply_hazards(&mut site, &spec, 99),
        None => HazardReport::default(),
    };
    (Arc::new(site), report)
}

/// Low-latency politeness so exhaustive runs stay fast while the gate is
/// still a real constraint.
fn politeness() -> Politeness {
    Politeness { delay_secs: 0.01, bytes_per_sec: 4_000_000.0 }
}

struct RunResult {
    outcome: CrawlOutcome,
    fetched: Vec<(String, u16)>,
}

/// One crawl of `site` under the given budget/window/backend, with the
/// hazard profile's transport policies applied and every `Fetched` event
/// collected.
fn run(
    h: Hazard,
    s: Strat,
    build: Build,
    site: &Arc<Website>,
    budget: Budget,
    window: usize,
) -> RunResult {
    let origin = SiteServer::shared(site.clone());
    let root = site.page(site.root()).url.clone();
    let host = root.split('/').nth(2).unwrap_or_default().to_owned();
    let hazards = h.hazard_policy(&root, &host);
    let transport = build(&origin, politeness(), window, h.retry_policy(), hazards);
    let (mut strategy, needs_oracle) = s.build();
    let oracle = needs_oracle.then_some(site.as_ref() as &dyn SiteSource);
    let cfg = CrawlConfig { budget, max_in_flight: window, ..Default::default() };
    let mut log = EventLog::new();
    let session =
        CrawlSession::with_transport(transport, oracle, &root, strategy.as_mut(), &cfg)
            .expect("valid root")
            .observe(&mut log);
    let outcome = session.run();
    let fetched = log
        .events()
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Fetched { url, status, .. } => Some((url.clone(), *status)),
            _ => None,
        })
        .collect();
    RunResult { outcome, fetched }
}

/// The full invariant check for one (strategy, hazard, backend) cell.
fn check_scenario(s: Strat, h: Hazard, build: Build) {
    let (site, report) = hazard_site(h);

    // --- Budgeted run: termination, budget honesty, bounded waste. ---
    let r = run(h, s, build, &site, Budget::Requests(BUDGET), WINDOW);
    // Termination is implied by `run` returning; the reason must be a
    // natural one.
    let reason = r.outcome.finish_reason;
    assert!(
        matches!(
            reason,
            sb_crawler::FinishReason::BudgetExhausted
                | sb_crawler::FinishReason::FrontierExhausted
        ),
        "crawl must end on budget or frontier, got {reason:?}"
    );
    let slack = (WINDOW as u64) * (1 + RETRIES_MAX);
    assert!(
        r.outcome.traffic.requests() <= BUDGET + slack,
        "budget overshoot: {} > {BUDGET} + {slack}",
        r.outcome.traffic.requests()
    );
    if !report.is_empty() {
        let total = r.fetched.len() as u64;
        let waste =
            r.fetched.iter().filter(|(url, _)| report.is_hazard_url(url)).count() as u64;
        let ceiling = h.waste_ceiling_pct();
        assert!(
            waste * 100 <= total * ceiling,
            "trap waste {waste}/{total} fetches exceeds {ceiling}%"
        );
    }

    // --- Window-1 exhaustive runs: clean-subset parity. ---
    if report.is_empty() {
        return; // transport-level hazards leave no subspace to compare
    }
    let clean = clean_site();
    let base = run(h, s, build, &clean, Budget::Unlimited, 1);
    let hazy = run(h, s, build, &site, Budget::Unlimited, 1);
    let clean_urls = |rr: &RunResult| -> BTreeSet<String> {
        rr.fetched
            .iter()
            .filter(|(url, _)| !report.is_hazard_url(url))
            .map(|(url, _)| url.clone())
            .collect()
    };
    assert_eq!(
        clean_urls(&base),
        clean_urls(&hazy),
        "hazards must not change which clean URLs get crawled"
    );
    let targets = |o: &CrawlOutcome| -> BTreeSet<String> {
        o.targets.iter().map(|t| t.url.clone()).collect()
    };
    assert_eq!(targets(&base.outcome), targets(&hazy.outcome), "same targets retrieved");
    assert_eq!(
        base.outcome.traffic.target_bytes, hazy.outcome.traffic.target_bytes,
        "same target bytes — clean coverage is byte-identical"
    );
}

macro_rules! scenario_tests {
    ($($name:ident: ($s:expr, $h:expr, $b:expr),)+) => {
        $(
            #[test]
            fn $name() {
                check_scenario($s, $h, $b);
            }
        )+
    };
}

scenario_tests! {
    bfs_trap_pipelined: (Strat::Bfs, Hazard::Trap, build_pipelined),
    bfs_trap_pool: (Strat::Bfs, Hazard::Trap, build_pool_handle),
    bfs_redirects_pipelined: (Strat::Bfs, Hazard::Redirects, build_pipelined),
    bfs_redirects_pool: (Strat::Bfs, Hazard::Redirects, build_pool_handle),
    bfs_soft404_pipelined: (Strat::Bfs, Hazard::Soft404, build_pipelined),
    bfs_soft404_pool: (Strat::Bfs, Hazard::Soft404, build_pool_handle),
    bfs_flaky_pipelined: (Strat::Bfs, Hazard::Flaky, build_pipelined),
    bfs_flaky_pool: (Strat::Bfs, Hazard::Flaky, build_pool_handle),
    bfs_slow_pipelined: (Strat::Bfs, Hazard::SlowHost, build_pipelined),
    bfs_slow_pool: (Strat::Bfs, Hazard::SlowHost, build_pool_handle),
    sb_trap_pipelined: (Strat::Sb, Hazard::Trap, build_pipelined),
    sb_trap_pool: (Strat::Sb, Hazard::Trap, build_pool_handle),
    sb_redirects_pipelined: (Strat::Sb, Hazard::Redirects, build_pipelined),
    sb_redirects_pool: (Strat::Sb, Hazard::Redirects, build_pool_handle),
    sb_soft404_pipelined: (Strat::Sb, Hazard::Soft404, build_pipelined),
    sb_soft404_pool: (Strat::Sb, Hazard::Soft404, build_pool_handle),
    sb_flaky_pipelined: (Strat::Sb, Hazard::Flaky, build_pipelined),
    sb_flaky_pool: (Strat::Sb, Hazard::Flaky, build_pool_handle),
    sb_slow_pipelined: (Strat::Sb, Hazard::SlowHost, build_pipelined),
    sb_slow_pool: (Strat::Sb, Hazard::SlowHost, build_pool_handle),
    tres_trap_pipelined: (Strat::Tres, Hazard::Trap, build_pipelined),
    tres_trap_pool: (Strat::Tres, Hazard::Trap, build_pool_handle),
    tres_redirects_pipelined: (Strat::Tres, Hazard::Redirects, build_pipelined),
    tres_redirects_pool: (Strat::Tres, Hazard::Redirects, build_pool_handle),
    tres_soft404_pipelined: (Strat::Tres, Hazard::Soft404, build_pipelined),
    tres_soft404_pool: (Strat::Tres, Hazard::Soft404, build_pool_handle),
    tres_flaky_pipelined: (Strat::Tres, Hazard::Flaky, build_pipelined),
    tres_flaky_pool: (Strat::Tres, Hazard::Flaky, build_pool_handle),
    tres_slow_pipelined: (Strat::Tres, Hazard::SlowHost, build_pipelined),
    tres_slow_pool: (Strat::Tres, Hazard::SlowHost, build_pool_handle),
}

// ----------------------------------------------------------------------
// Retry/backoff vs the politeness gate
// ----------------------------------------------------------------------

/// Retries re-enter the politeness gate like any dispatch: n charged GETs
/// to one host can never complete in less than (n-1)·delay of simulated
/// time, backoff or not.
fn check_backoff_respects_gate(build: Build) {
    let site = clean_site();
    let root = site.page(site.root()).url.clone();
    let origin = SiteServer::shared(site.clone());
    let outage = Outage { share: 0.4, seed: 21, transient: true, exempt: Some(root.clone()) };
    let politeness = Politeness { delay_secs: 1.0, bytes_per_sec: 4_000_000.0 };
    let transport = build(
        &origin,
        politeness,
        WINDOW,
        RetryPolicy::retries(2).with_backoff(0.05, 0.4).with_jitter(0.2, 3),
        HazardPolicy::default().with_outage(outage),
    );
    let mut bfs = QueueStrategy::bfs();
    let cfg =
        CrawlConfig { budget: Budget::Requests(120), max_in_flight: WINDOW, ..Default::default() };
    let outcome = CrawlSession::with_transport(transport, None, &root, &mut bfs, &cfg)
        .expect("valid root")
        .run();
    let gets = outcome.traffic.get_requests;
    assert!(gets > 50, "scenario must exercise the gate, got {gets} GETs");
    assert!(
        outcome.traffic.elapsed_secs >= (gets - 1) as f64 * 1.0,
        "{} gated GETs finished in {:.2}s < {}s — retries jumped the politeness gate",
        gets,
        outcome.traffic.elapsed_secs,
        gets - 1
    );
}

#[test]
fn backoff_respects_gate_pipelined() {
    check_backoff_respects_gate(build_pipelined);
}

#[test]
fn backoff_respects_gate_pool() {
    check_backoff_respects_gate(build_pool_handle);
}

// ----------------------------------------------------------------------
// Hazard statuses → AbandonReason → per-reason counters
// ----------------------------------------------------------------------

#[test]
fn exhausted_retries_are_counted_as_retries_exhausted() {
    // Hard 503s everywhere but the root: every child URL burns its retries
    // and lands as RetriesExhausted, never plain HttpError(503).
    let site = clean_site();
    let root = site.page(site.root()).url.clone();
    let origin = SiteServer::shared(site.clone());
    let outage = Outage { share: 1.0, seed: 17, transient: false, exempt: Some(root.clone()) };
    let transport = build_pipelined(
        &origin,
        politeness(),
        1,
        RetryPolicy::retries(2).with_backoff(0.1, 1.0),
        HazardPolicy::default().with_outage(outage),
    );
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig { budget: Budget::Requests(60), ..Default::default() };
    let outcome = CrawlSession::with_transport(transport, None, &root, &mut bfs, &cfg)
        .expect("valid root")
        .run();
    assert!(outcome.abandoned.retries_exhausted > 0, "retried 503s must be tallied");
    assert_eq!(
        outcome.abandoned.http_error, 0,
        "with retries on, no 5xx should surface as a plain HttpError"
    );
}

#[test]
fn circuit_breaker_quarantines_and_is_counted() {
    // A host of hard failures: after the breaker threshold every further
    // fetch answers the synthetic quarantine status without touching the
    // origin, and the session tallies HostQuarantined abandonments.
    let site = clean_site();
    let root = site.page(site.root()).url.clone();
    let origin = SiteServer::shared(site.clone());
    let outage = Outage { share: 1.0, seed: 17, transient: false, exempt: Some(root.clone()) };
    let transport = build_pipelined(
        &origin,
        politeness(),
        1,
        RetryPolicy::retries(1).with_quarantine_after(3),
        HazardPolicy::default().with_outage(outage),
    );
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig { budget: Budget::Requests(80), ..Default::default() };
    let outcome = CrawlSession::with_transport(transport, None, &root, &mut bfs, &cfg)
        .expect("valid root")
        .run();
    assert!(
        outcome.abandoned.quarantined > 0,
        "the breaker must trip and its drains must be tallied: {:?}",
        outcome.abandoned
    );
}

#[test]
fn transport_timeouts_are_counted_as_timeouts() {
    // A timeout shorter than any transfer: every GET (but nothing is
    // retryable about it — 598 is terminal) lands as Timeout.
    let site = clean_site();
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::shared(site.clone());
    let transport = build_pipelined(
        &server,
        Politeness { delay_secs: 0.01, bytes_per_sec: 100.0 },
        1,
        RetryPolicy::retries(0),
        HazardPolicy::seeded(1).with_timeout(1e-6),
    );
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig { budget: Budget::Requests(10), ..Default::default() };
    let outcome = CrawlSession::with_transport(transport, None, &root, &mut bfs, &cfg)
        .expect("valid root")
        .run();
    assert!(outcome.abandoned.timeout > 0, "timeouts must be tallied: {:?}", outcome.abandoned);
    assert_eq!(outcome.targets_found(), 0, "nothing survives a sub-microsecond timeout");
}

// ----------------------------------------------------------------------
// Near-duplicate clusters vs the sb-ann n-gram sketches
// ----------------------------------------------------------------------

#[test]
fn dup_clusters_sketch_closer_than_unrelated_pages() {
    use sb_ann::NgramVocab;
    use sb_bench::dense::cosine;

    let mut site = build_site(&SiteSpec::demo(PAGES), SITE_SEED);
    let report = apply_hazards(&mut site, &HazardSpec::dups_only(1, 3), 99);
    let clones: Vec<u32> = report.dup_ids[1..].to_vec(); // [0] is the index page
    assert!(clones.len() >= 2);
    let site = Arc::new(site);
    let server = SiteServer::shared(Arc::clone(&site));
    let tokens = |url: &str| -> Vec<String> {
        let body = server.get(url).body.to_vec();
        String::from_utf8_lossy(&body)
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let a = tokens(&site.page(clones[0]).url.clone());
    let b = tokens(&site.page(clones[1]).url.clone());
    // An unrelated page: the root (a different role entirely).
    let other = tokens(&site.page(site.root()).url.clone());

    // Freeze one bigram vocabulary over all three pages, then sketch.
    let mut vocab = NgramVocab::new(2);
    for t in [&a, &b, &other] {
        vocab.vectorize_mut(t);
    }
    let dense = |t: &[String]| vocab.vectorize(t).to_dense();
    let (va, vb, vo) = (dense(&a), dense(&b), dense(&other));
    let clone_sim = cosine(&va, &vb);
    let unrelated_sim = cosine(&va, &vo);
    assert!(
        clone_sim > 0.8,
        "clones share structure, links and title — sketches must be close: {clone_sim:.3}"
    );
    assert!(
        clone_sim > unrelated_sim + 0.1,
        "clone similarity {clone_sim:.3} must clearly beat unrelated {unrelated_sim:.3}"
    );
}
