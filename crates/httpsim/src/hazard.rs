//! Transport-level hazards and recovery (PR 6): a composable
//! [`HazardPolicy`] (timeouts, heavy-tailed latency, per-host bandwidth
//! caps, synthetic 429 rate limiting with `Retry-After`, a seeded 503
//! [`Outage`] of a share of URLs), a [`RetryPolicy`] with capped
//! exponential backoff and seed-deterministic jitter, and a per-host
//! circuit breaker that quarantines hosts after K consecutive hard failures.
//!
//! [`crate::PoolHandle`] executes every GET through the
//! [`dispatch_hazard_get`] loop in this module: hazard semantics,
//! retry/backoff arithmetic and breaker bookkeeping live here, the
//! politeness arithmetic in [`GateTable`](crate::transport).
//!
//! ## Simulated-time semantics
//!
//! The simulated origin answers synchronously at dispatch, so hazards are
//! applied as *arrival arithmetic*:
//!
//! * a **bandwidth cap** lowers the effective `bytes_per_sec` for the
//!   host's transfers (politeness delay unchanged);
//! * **tail latency** adds Pareto-distributed extra service seconds to a
//!   deterministic subset of attempts (keyed by seed, URL and attempt);
//! * a **timeout** truncates an attempt whose service time (transfer +
//!   tail) exceeds the limit: the answer becomes a synthetic
//!   [`STATUS_TIMEOUT`] failure, only the bytes that fit the timeout
//!   window are charged, and the arrival is the abort instant;
//! * **rate limiting** turns every `period`-th attempt on a host into a
//!   synthetic 429 whose `Retry-After` the retry policy honours as a
//!   backoff floor;
//! * an **outage** answers an unlucky URL's attempt with the origin's
//!   `503 Service Unavailable` instead of contacting the origin, gated,
//!   tail-delayed, timed out and retried like any 503 (the 429 check comes
//!   first). The rule is per attempt: a *hard* outage fails every attempt
//!   of an unlucky URL, a *transient* one fails attempt 1 of each
//!   dispatched GET and passes every retry. Like every hazard here it
//!   applies to dispatched GETs only: the synchronous
//!   [`Transport::head`](crate::Transport::head) and
//!   [`Transport::fetch_now`](crate::Transport::fetch_now) (the classifier's
//!   HEAD probe, the robots.txt fetch) never meet it;
//! * a **retry** re-enters the politeness gate no earlier than
//!   `arrival + backoff` — backoff can therefore only *add* spacing on
//!   top of the gate, never bypass it;
//! * once a host trips the **circuit breaker**, every later GET to it is
//!   answered [`STATUS_QUARANTINED`] immediately at zero wire cost
//!   (no origin contact, no gate time) so pending selections drain fast.
//!
//! All defaults are inert: `HazardPolicy::default()` plus
//! `RetryPolicy::retries(n)` reproduce the pre-hazard transport
//! byte-for-byte (zero backoff, retry-at-arrival), which is what keeps
//! the window-1 blocking-client replay and the frozen
//! `sb_bench::reference` traces intact.

use crate::client::{settle_get, Fetched, Politeness};
use crate::pool::SiteState;
use crate::response::{error_response, Body};
use crate::transport::{host_entry, host_key, host_of};
use sb_webgraph::{fnv1a, FxHashMap, FNV1A_BASIS};

/// Synthetic status of an attempt aborted by the transport read timeout
/// (the de-facto "network read timeout" code).
pub const STATUS_TIMEOUT: u16 = 598;

/// Synthetic status of a request refused because its host is quarantined
/// by the circuit breaker (no origin contact was made).
pub const STATUS_QUARANTINED: u16 = 599;

/// Wire bytes charged for a synthetic 429 answer (status line + headers).
const RATE_LIMIT_WIRE: u64 = 256;

/// Heavy-tailed extra service latency: with probability `prob` an attempt
/// draws `scale_secs / u^(1/alpha)` extra seconds (`u` uniform in (0,1]),
/// i.e. a Pareto tail with minimum `scale_secs` and shape `alpha`.
#[derive(Debug, Clone, Copy)]
pub struct TailLatency {
    /// Fraction of attempts that draw extra latency, in [0, 1].
    pub prob: f64,
    /// Tail minimum (seconds) when drawn.
    pub scale_secs: f64,
    /// Pareto shape; smaller is heavier. Clamped to ≥ 0.5 when sampling.
    pub alpha: f64,
}

/// Synthetic per-host rate limiting: every `period`-th attempt on a host
/// is answered `429 Too Many Requests` carrying
/// `Retry-After: retry_after_secs`.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Every how many attempts a 429 is injected (≥ 2 to be non-total).
    pub period: u64,
    /// The `Retry-After` the retry policy must honour as a backoff floor.
    pub retry_after_secs: f64,
}

/// Composable transport-level hazard model. Inert by default; every knob
/// is independent. Honored through [`dispatch_hazard_get`].
#[derive(Debug, Clone, Default)]
pub struct HazardPolicy {
    /// Seed for the deterministic latency draws (xor-folded with URL and
    /// attempt number, so runs replay exactly).
    pub seed: u64,
    /// Abort attempts whose service time (transfer + tail latency,
    /// politeness delay excluded) exceeds this many seconds.
    pub timeout_secs: Option<f64>,
    /// Heavy-tailed extra service latency.
    pub tail: Option<TailLatency>,
    /// Synthetic 429 rate limiting.
    pub rate_limit: Option<RateLimit>,
    /// Per-host bandwidth caps (bytes/sec), case-folded host keys; the
    /// effective rate is `min(politeness.bytes_per_sec, cap)`.
    caps: FxHashMap<String, f64>,
    /// A 503 outage of a share of URLs, share clamped to [0, 1].
    outage: Option<Outage>,
}

/// A seeded 503 outage: the URLs whose draw falls below `share` answer
/// `503 Service Unavailable` (see the module docs for the per-attempt
/// rule).
#[derive(Debug, Clone)]
pub struct Outage {
    /// Share of URLs that are unlucky, in [0, 1].
    pub share: f64,
    /// Seed of the per-URL draw, independent of [`HazardPolicy::seed`].
    pub seed: u64,
    /// Fail only attempt 1 of each GET (a transient blip) instead of every
    /// attempt (a hard outage of the URL).
    pub transient: bool,
    /// One URL that never fails (typically the crawl root — entry points
    /// are monitored and fixed fast in practice).
    pub exempt: Option<String>,
}

impl Outage {
    /// Does attempt `attempt` (1-based) of `url` fail? The draw is uniform
    /// in [0, 1] and stable per (seed, URL).
    fn fails(&self, url: &str, attempt: u64) -> bool {
        !(self.transient && attempt > 1)
            && self.exempt.as_deref() != Some(url)
            && (mix(self.seed, url) as f64 / u64::MAX as f64) < self.share
    }
}

impl HazardPolicy {
    /// An inert policy with the given jitter/latency seed.
    pub fn seeded(seed: u64) -> Self {
        HazardPolicy { seed, ..HazardPolicy::default() }
    }

    /// Aborts attempts whose service time exceeds `secs`.
    pub fn with_timeout(mut self, secs: f64) -> Self {
        self.timeout_secs = Some(secs.max(0.0));
        self
    }

    /// Adds heavy-tailed service latency.
    pub fn with_tail(mut self, tail: TailLatency) -> Self {
        self.tail = Some(tail);
        self
    }

    /// Adds synthetic 429 rate limiting.
    pub fn with_rate_limit(mut self, limit: RateLimit) -> Self {
        self.rate_limit = Some(RateLimit { period: limit.period.max(2), ..limit });
        self
    }

    /// Adds a 503 outage (share clamped to [0, 1]).
    pub fn with_outage(mut self, outage: Outage) -> Self {
        self.outage = Some(Outage { share: outage.share.clamp(0.0, 1.0), ..outage });
        self
    }

    /// Caps `host`'s simulated bandwidth at `bytes_per_sec`.
    pub fn cap_host_bandwidth(mut self, host: &str, bytes_per_sec: f64) -> Self {
        self.caps.insert(host_key(host).into_owned(), bytes_per_sec.max(1.0));
        self
    }

    /// The politeness model effective for one host: the global delay with
    /// the host's capped bandwidth, if any.
    fn effective_politeness(&self, politeness: &Politeness, host: &str) -> Politeness {
        if self.caps.is_empty() {
            return *politeness;
        }
        match self.caps.get(host_key(host).as_ref()) {
            Some(&cap) => Politeness {
                delay_secs: politeness.delay_secs,
                bytes_per_sec: politeness.bytes_per_sec.min(cap),
            },
            None => *politeness,
        }
    }

    /// Deterministic tail-latency draw for one attempt (0.0 when the
    /// attempt is not in the unlucky subset or no tail is configured).
    fn tail_latency(&self, url: &str, attempt: u64) -> f64 {
        let Some(tail) = self.tail else { return 0.0 };
        let h = mix(self.seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15), url);
        if unit(h) >= tail.prob {
            return 0.0;
        }
        // Pareto(scale, alpha) via inverse CDF on a second independent draw.
        let u = unit(mix(h, "tail")).max(1e-12);
        tail.scale_secs / u.powf(1.0 / tail.alpha.max(0.5))
    }
}

/// Retry/backoff/circuit-breaker policy for hazard-aware dispatch.
///
/// `RetryPolicy::retries(n)` (zero backoff, no breaker) is the plain retry
/// knob: a 5xx answer re-enters the gate at its own arrival instant, every
/// attempt is charged.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = deliver failures as-is).
    pub max_retries: u32,
    /// First backoff step (seconds); doubles per extra attempt. 0 retries
    /// at the failed attempt's arrival instant.
    pub base_backoff_secs: f64,
    /// Cap on the exponential backoff.
    pub max_backoff_secs: f64,
    /// Jitter fraction in [0, 1]: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]` drawn from
    /// (seed, URL, attempt).
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
    /// Consecutive hard failures (after retries) before a host is
    /// quarantined; 0 disables the breaker.
    pub quarantine_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::retries(0)
    }
}

impl RetryPolicy {
    /// The plain policy: `n` zero-backoff retries, no breaker.
    pub fn retries(n: u32) -> Self {
        RetryPolicy {
            max_retries: n,
            base_backoff_secs: 0.0,
            max_backoff_secs: 0.0,
            jitter: 0.0,
            seed: 0,
            quarantine_after: 0,
        }
    }

    /// Capped exponential backoff: `base · 2^(attempt-1)`, at most `max`.
    pub fn with_backoff(mut self, base_secs: f64, max_secs: f64) -> Self {
        self.base_backoff_secs = base_secs.max(0.0);
        self.max_backoff_secs = max_secs.max(self.base_backoff_secs);
        self
    }

    /// Seed-deterministic multiplicative jitter on every backoff.
    pub fn with_jitter(mut self, fraction: f64, seed: u64) -> Self {
        self.jitter = fraction.clamp(0.0, 1.0);
        self.seed = seed;
        self
    }

    /// Quarantines a host after `k` consecutive hard failures.
    pub fn with_quarantine_after(mut self, k: u32) -> Self {
        self.quarantine_after = k;
        self
    }

    /// The backoff before retry number `attempt` (1-based count of
    /// attempts already made) of `url`, honouring `retry_after` as a
    /// floor when the failed answer carried one.
    fn backoff(&self, url: &str, attempt: u64, retry_after: Option<f64>) -> f64 {
        let mut b = if self.base_backoff_secs > 0.0 {
            let exp = (attempt.saturating_sub(1)).min(32) as i32;
            (self.base_backoff_secs * f64::powi(2.0, exp)).min(self.max_backoff_secs)
        } else {
            0.0
        };
        if self.jitter > 0.0 && b > 0.0 {
            let u = unit(mix(self.seed ^ attempt.wrapping_mul(0x2545_f491_4f6c_dd1d), url));
            b *= 1.0 + self.jitter * (2.0 * u - 1.0);
        }
        match retry_after {
            Some(ra) => b.max(ra),
            None => b,
        }
    }
}

/// Per-host circuit-breaker record.
#[derive(Debug, Default, Clone, Copy)]
struct HostHealth {
    /// Consecutive hard failures (reset on any delivered success).
    fails: u32,
    quarantined: bool,
}

/// Per-site mutable hazard state: rate-limit attempt counters, the
/// circuit breaker and the count of injected 503s. One per pool handle —
/// quarantine is an origin property, sharded like the gates.
#[derive(Debug, Default)]
pub(crate) struct HazardState {
    /// Attempts per host (rate-limit counter), case-folded keys.
    attempts: FxHashMap<String, u64>,
    health: FxHashMap<String, HostHealth>,
    /// Attempts answered 503 by the [`Outage`].
    pub(crate) injected_503s: u64,
}

impl HazardState {
    /// Is `host` currently quarantined?
    fn is_quarantined(&self, host: &str) -> bool {
        self.health.get(host_key(host).as_ref()).is_some_and(|h| h.quarantined)
    }

    /// Number of quarantined hosts.
    pub(crate) fn quarantined_hosts(&self) -> usize {
        self.health.values().filter(|h| h.quarantined).count()
    }

    /// Counts one attempt on `host`; true when the rate limiter fires.
    fn rate_limited(&mut self, limit: Option<RateLimit>, host: &str) -> bool {
        let Some(limit) = limit else { return false };
        let n = host_entry(&mut self.attempts, host);
        *n += 1;
        // `period` is a public field, so the builder's clamp can be bypassed.
        n.is_multiple_of(limit.period.max(2))
    }

    /// Records the delivered outcome for the breaker; returns true when
    /// this outcome newly quarantined the host.
    fn record(&mut self, host: &str, hard_failure: bool, threshold: u32) -> bool {
        if threshold == 0 {
            return false;
        }
        let h = host_entry(&mut self.health, host);
        if hard_failure {
            h.fails += 1;
            if !h.quarantined && h.fails >= threshold {
                h.quarantined = true;
                return true;
            }
        } else {
            h.fails = 0;
        }
        false
    }
}

/// The final answer of one hazard-aware GET with its cumulative cost.
pub(crate) struct DispatchOutcome {
    pub answer: Fetched,
    /// GET attempts charged (0 for a quarantine refusal — no origin
    /// contact happened).
    pub gets: u64,
    /// Wire bytes across all attempts (timeout-truncated attempts charge
    /// only what fit the window).
    pub wire: u64,
    /// Simulated delivery instant.
    pub arrival: f64,
}

/// Executes one GET under the hazard and retry policies: dispatches
/// through the politeness gate starting no earlier than `ready_at`,
/// retries retryable answers (5xx, 429, timeout) with capped jittered
/// backoff *behind* the gate, and maintains the circuit breaker. See the
/// module docs for the simulated-time semantics.
pub(crate) fn dispatch_hazard_get(
    site: &mut SiteState<'_>,
    url: &str,
    ready_at: f64,
) -> DispatchOutcome {
    let host = host_of(url);
    if site.hazard_state.is_quarantined(host) {
        return DispatchOutcome {
            answer: synthetic(STATUS_QUARANTINED, 0),
            gets: 0,
            wire: 0,
            arrival: ready_at,
        };
    }
    let mut gets = 0u64;
    let mut wire = 0u64;
    let mut ready_at = ready_at;
    loop {
        gets += 1;
        let rate_limited = site.hazard_state.rate_limited(site.hazards.rate_limit, host);
        let mut f = if rate_limited {
            synthetic(429, RATE_LIMIT_WIRE)
        } else if site.hazards.outage.as_ref().is_some_and(|o| o.fails(url, gets)) {
            site.hazard_state.injected_503s += 1;
            settle_get(error_response(503), &site.policy)
        } else {
            settle_get(site.server.get(url), &site.policy)
        };
        let eff = site.hazards.effective_politeness(&site.politeness, host);
        let (start, base_arrival) = site.gates.dispatch(&eff, url, ready_at, f.wire_bytes);
        let tail = site.hazards.tail_latency(url, gets);
        let mut arrival = base_arrival + tail;
        // Timeout: service time is transfer + tail (the gate delay is
        // spacing, not connection time). Truncate the attempt at the
        // abort instant and charge only the bytes that fit.
        if let Some(to) = site.hazards.timeout_secs {
            let service = arrival - start - eff.delay_secs;
            if service > to {
                let got = ((to - tail).max(0.0) * eff.bytes_per_sec) as u64;
                let got = got.min(f.wire_bytes);
                f = synthetic(STATUS_TIMEOUT, got);
                arrival = start + eff.delay_secs + to;
            }
        }
        wire += f.wire_bytes;
        let retryable = (500..600).contains(&f.status) || f.status == 429;
        if retryable && gets <= u64::from(site.retry.max_retries) {
            // The failure is observed at its arrival; the retry queues
            // behind the gate no earlier than arrival + backoff.
            let retry_after = (f.status == 429)
                .then(|| site.hazards.rate_limit.map(|l| l.retry_after_secs))
                .flatten();
            ready_at = arrival + site.retry.backoff(url, gets, retry_after);
            continue;
        }
        site.hazard_state.record(host, retryable, site.retry.quarantine_after);
        f.attempts = gets as u32;
        return DispatchOutcome { answer: f, gets, wire, arrival };
    }
}

/// A transport-synthesised answer (429 / timeout / quarantine): no body,
/// no MIME, `wire` bytes charged.
fn synthetic(status: u16, wire: u64) -> Fetched {
    Fetched {
        status,
        mime: None,
        location: None,
        body: Body::empty(),
        interrupted: false,
        wire_bytes: wire,
        attempts: 1,
    }
}

/// Seeded FNV-1a over `text`, finished with splitmix64.
fn mix(seed: u64, text: &str) -> u64 {
    let h = fnv1a(FNV1A_BASIS ^ seed, text.as_bytes());
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Traffic;
    use crate::response::{HeadResponse, Response};
    use crate::server::{HttpServer, SiteServer};
    use crate::transport::{PipelinedTransport, Request, Transport};
    use sb_webgraph::gen::{build_site, SiteSpec};
    use sb_webgraph::mime::MimePolicy;

    /// An origin that answers 200 to every URL (`error_response` is the
    /// stock page of any status).
    struct Ok200;

    impl HttpServer for Ok200 {
        fn head(&self, _url: &str) -> HeadResponse {
            error_response(200).head()
        }

        fn get(&self, _url: &str) -> Response {
            error_response(200)
        }
    }

    /// `n` distinct URLs on one host.
    fn urls(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("https://big.example.org/page/{i}")).collect()
    }

    /// GETs every URL through a window-4 transport with one retry under
    /// `hazards`: the answers in URL order, the traffic charged and the
    /// 503s the outage injected.
    fn get_all(
        origin: &dyn HttpServer,
        urls: &[String],
        hazards: HazardPolicy,
    ) -> (Vec<Fetched>, Traffic, u64) {
        let mut t = PipelinedTransport::new(origin, MimePolicy::default(), Politeness::default())
            .with_window(4)
            .with_retry_policy(RetryPolicy::retries(1))
            .with_hazards(hazards);
        let (mut answers, mut out) = (Vec::new(), Vec::new());
        for chunk in urls.chunks(4) {
            chunk.iter().for_each(|u| _ = t.submit(Request::get(u)));
            while t.in_flight() > 0 {
                t.poll_into(&mut out);
                answers.append(&mut out);
            }
        }
        answers.sort_by_key(|(id, _)| *id);
        (answers.into_iter().map(|(_, f)| f).collect(), t.traffic(), t.injected_503s())
    }

    fn outage(share: f64, transient: bool, exempt: Option<&str>) -> HazardPolicy {
        let exempt = exempt.map(str::to_owned);
        HazardPolicy::default().with_outage(Outage { share, seed: 7, transient, exempt })
    }

    /// The attempt count is the transport's own, so a transient outage
    /// keeps nothing per URL: every one of 5 000 distinct URLs fails
    /// exactly its first attempt and passes its retry. (5 000 is past a
    /// 4 096-slot table: a bounded per-URL record would evict URLs and
    /// re-fail their retries.)
    #[test]
    fn transient_outage_fails_exactly_attempt_one_beyond_4096_urls() {
        let urls = urls(5000);
        let (answers, traffic, injected) = get_all(&Ok200, &urls, outage(1.0, true, None));
        for (u, f) in urls.iter().zip(&answers) {
            assert_eq!((f.status, f.attempts), (200, 2), "attempt 1 fails, attempt 2 passes: {u}");
        }
        assert_eq!(injected, 5000, "exactly one injection per URL");
        assert_eq!(traffic.get_requests, 10_000);
    }

    /// A hard outage fails every attempt of an unlucky URL: its answer is
    /// a 503 that spent every retry — what the session counts as
    /// `RetriesExhausted` (`hazard_conformance.rs` pins that half). The
    /// unlucky set is stable per (seed, URL), share 1 takes out every URL
    /// and the exempt URL never fails.
    #[test]
    fn hard_outage_fails_every_attempt_of_a_stable_url_set() {
        let urls = urls(50);
        for share in [0.3, 1.0] {
            let hazards = outage(share, false, Some(&urls[0]));
            let (answers, traffic, injected) = get_all(&Ok200, &urls, hazards.clone());
            let (again, _, _) = get_all(&Ok200, &urls, hazards);
            let statuses: Vec<(u16, u32)> = answers.iter().map(|f| (f.status, f.attempts)).collect();
            let replay: Vec<(u16, u32)> = again.iter().map(|f| (f.status, f.attempts)).collect();
            assert_eq!(statuses, replay, "hard failures are stable per URL");
            assert_eq!(statuses[0], (200, 1), "the exempt URL passes");
            let failed = statuses.iter().filter(|&&s| s == (503, 2)).count() as u64;
            let passed = statuses.iter().filter(|&&s| s == (200, 1)).count() as u64;
            assert_eq!(failed + passed, urls.len() as u64, "no other answer: {statuses:?}");
            assert_eq!(injected, 2 * failed, "every attempt of an unlucky URL fails");
            assert_eq!(traffic.get_requests, passed + injected);
            if share == 1.0 {
                assert_eq!(passed, 1, "share 1 takes out every URL but the exempt one");
            } else {
                assert!(failed > 0 && passed > 1, "30 % of 50 URLs: {failed} failed");
            }
        }
    }

    /// An outage of share 0, hard or transient, answers a generated site
    /// byte for byte as the default policy does.
    #[test]
    fn a_zero_share_outage_is_inert() {
        let site = build_site(&SiteSpec::demo(300), 3);
        let urls: Vec<String> = site.pages().iter().map(|p| p.url.clone()).take(40).collect();
        let origin = SiteServer::new(site);
        let (plain, plain_traffic, _) = get_all(&origin, &urls, HazardPolicy::default());
        for transient in [false, true] {
            let (answers, traffic, injected) = get_all(&origin, &urls, outage(0.0, transient, None));
            assert_eq!(format!("{answers:?}"), format!("{plain:?}"));
            assert_eq!(traffic, plain_traffic);
            assert_eq!(injected, 0);
        }
    }

    /// The outage is a dispatch hazard: the synchronous HEAD and
    /// `fetch_now` reach the origin whatever the share.
    #[test]
    fn head_and_fetch_now_never_see_an_outage() {
        let mut t = PipelinedTransport::new(&Ok200, MimePolicy::default(), Politeness::default())
            .with_hazards(outage(1.0, false, None));
        for u in &urls(10) {
            assert_eq!(t.head(u).status, 200, "HEAD {u}");
            assert_eq!(t.fetch_now(u).status, 200, "fetch_now {u}");
        }
        assert_eq!(t.injected_503s(), 0);
    }

    #[test]
    fn default_policy_is_inert() {
        let hz = HazardPolicy::default();
        let pol = Politeness::default();
        let eff = hz.effective_politeness(&pol, "a.example");
        assert_eq!(eff.bytes_per_sec, pol.bytes_per_sec);
        assert_eq!(hz.tail_latency("https://a.example/x", 1), 0.0);
        assert!(hz.timeout_secs.is_none() && hz.rate_limit.is_none());
    }

    #[test]
    fn legacy_retry_policy_has_zero_backoff() {
        let r = RetryPolicy::retries(3);
        for attempt in 1..=3 {
            assert_eq!(r.backoff("https://a.example/x", attempt, None), 0.0);
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy::retries(8).with_backoff(1.0, 5.0);
        let b: Vec<f64> = (1..=5).map(|a| r.backoff("u", a, None)).collect();
        assert_eq!(b, vec![1.0, 2.0, 4.0, 5.0, 5.0]);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let r = RetryPolicy::retries(4).with_backoff(2.0, 60.0).with_jitter(0.5, 99);
        let a = r.backoff("https://a.example/x", 2, None);
        let b = r.backoff("https://a.example/x", 2, None);
        assert_eq!(a, b, "jitter must replay");
        assert!((2.0..=6.0).contains(&a), "jittered 4 s step within ±50 %: {a}");
        let other = r.backoff("https://a.example/y", 2, None);
        assert_ne!(a, other, "distinct URLs draw distinct jitter");
    }

    #[test]
    fn retry_after_floors_the_backoff() {
        let r = RetryPolicy::retries(2).with_backoff(0.5, 4.0);
        assert_eq!(r.backoff("u", 1, Some(30.0)), 30.0);
        assert_eq!(r.backoff("u", 1, None), 0.5);
    }

    #[test]
    fn breaker_trips_after_threshold_and_resets_on_success() {
        let mut s = HazardState::default();
        assert!(!s.record("h.example", true, 3));
        assert!(!s.record("h.example", true, 3));
        s.record("h.example", false, 3); // success resets
        assert!(!s.record("h.example", true, 3));
        assert!(!s.record("h.example", true, 3));
        assert!(s.record("h.example", true, 3), "third consecutive failure trips");
        assert!(s.is_quarantined("h.example"));
        assert!(s.is_quarantined("H.Example"), "breaker keys are case-folded");
        assert_eq!(s.quarantined_hosts(), 1);
    }

    #[test]
    fn tail_latency_is_pareto_with_minimum_scale() {
        let hz = HazardPolicy::seeded(7)
            .with_tail(TailLatency { prob: 1.0, scale_secs: 2.0, alpha: 1.5 });
        for i in 1..50u64 {
            let t = hz.tail_latency(&format!("https://a.example/p{i}"), 1);
            assert!(t >= 2.0, "Pareto draws never undershoot the scale: {t}");
        }
        let a = hz.tail_latency("https://a.example/p1", 1);
        assert_eq!(a, hz.tail_latency("https://a.example/p1", 1), "draws replay");
    }

    #[test]
    fn bandwidth_caps_fold_host_case() {
        let hz = HazardPolicy::default().cap_host_bandwidth("Slow.Example", 100.0);
        let pol = Politeness { delay_secs: 1.0, bytes_per_sec: 1e6 };
        assert_eq!(hz.effective_politeness(&pol, "slow.example").bytes_per_sec, 100.0);
        assert_eq!(hz.effective_politeness(&pol, "SLOW.example").bytes_per_sec, 100.0);
        assert_eq!(hz.effective_politeness(&pol, "fast.example").bytes_per_sec, 1e6);
    }
}
