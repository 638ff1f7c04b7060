//! Failure injection: flaky origins and robot traps.
//!
//! Real crawls meet transient 5xx bursts and infinitely deep URL spaces
//! (calendars, session ids — the "robot traps" the paper mentions when
//! dismissing DFS for exhaustive crawling, Sec 4.3). These wrappers
//! reproduce both, deterministically, so engine robustness is testable:
//! the crawler must terminate, never refetch, and degrade gracefully.

use crate::response::{error_response, HeadResponse, Headers, Response};
use crate::server::HttpServer;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Wraps a server so that a deterministic, URL-and-attempt-dependent subset
/// of requests fails with HTTP 503. With `recoverable` set, only the first
/// attempt on an unlucky URL fails (a transient blip); otherwise every
/// attempt fails (a hard outage of that URL).
pub struct FlakyServer<S> {
    inner: S,
    /// Probability that a URL is unlucky, in [0, 1].
    fail_prob: f64,
    seed: u64,
    recoverable: bool,
    protected: Option<String>,
    injected: AtomicU64,
    /// URLs already contacted, for `recoverable` mode (see
    /// [`FlakyServer::seen_before`]).
    seen: Mutex<HashSet<String>>,
}

impl<S: HttpServer> FlakyServer<S> {
    pub fn new(inner: S, fail_prob: f64, seed: u64) -> Self {
        FlakyServer {
            inner,
            fail_prob: fail_prob.clamp(0.0, 1.0),
            seed,
            recoverable: false,
            protected: None,
            injected: AtomicU64::new(0),
            seen: Mutex::new(HashSet::new()),
        }
    }

    /// Makes failures transient: retrying the same URL succeeds.
    pub fn recoverable(mut self) -> Self {
        self.recoverable = true;
        self
    }

    /// Exempts one URL from injection (typically the crawl root — entry
    /// points are monitored and fixed fast in practice).
    pub fn protecting(mut self, url: &str) -> Self {
        self.protected = Some(url.to_owned());
        self
    }

    /// How many 503s were injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn unlucky(&self, url: &str) -> bool {
        // Uniform in [0, 1], stable per (seed, URL).
        (crate::hazard::mix(self.seed, url) as f64 / u64::MAX as f64) < self.fail_prob
    }

    fn inject(&self, url: &str, first_attempt: bool) -> bool {
        if self.protected.as_deref() == Some(url) || !self.unlucky(url) {
            return false;
        }
        if self.recoverable && !first_attempt {
            return false;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        true
    }
}

impl<S: HttpServer> HttpServer for FlakyServer<S> {
    fn head(&self, url: &str) -> HeadResponse {
        if self.inject(url, !self.seen_before(url)) {
            error_response(503).head()
        } else {
            self.inner.head(url)
        }
    }

    fn get(&self, url: &str) -> Response {
        if self.inject(url, !self.seen_before(url)) {
            error_response(503)
        } else {
            self.inner.get(url)
        }
    }
}

impl<S: HttpServer> FlakyServer<S> {
    /// Tracks first-contact per URL, exactly. This used to be a fixed
    /// 4096-slot fingerprint table whose slot evictions could misclassify
    /// a first contact as a retry (and vice versa) on crawls with more
    /// than 4096 distinct URLs — turning `recoverable` blips back into
    /// repeat 503s. Injection decisions must be collision-safe or the
    /// retry-accounting invariants pinned by the conformance suites
    /// (`get_requests == delivered + injected()`) silently break at
    /// scale, so the full URL set is stored.
    fn seen_before(&self, url: &str) -> bool {
        let mut seen = self.seen.lock().expect("seen set is never poisoned");
        !seen.insert(url.to_owned())
    }
}

/// An infinite "calendar" trap: every URL under `/trap/` is a valid HTML
/// page linking to two deeper trap pages — a URL space with no bottom, the
/// canonical DFS robot trap. The root serves one entry page linking into
/// the trap and to one real-looking target, so crawlers have something to
/// find before falling in.
pub struct TrapServer {
    origin: String,
}

impl TrapServer {
    /// `origin` like `https://trap.example.org` (no trailing slash).
    pub fn new(origin: impl Into<String>) -> Self {
        let mut origin = origin.into();
        while origin.ends_with('/') {
            origin.pop();
        }
        TrapServer { origin }
    }

    pub fn root_url(&self) -> String {
        format!("{}/", self.origin)
    }

    fn html(&self, body_inner: String) -> Response {
        let body = format!(
            "<!DOCTYPE html><html><head><title>calendar</title></head><body>{body_inner}</body></html>"
        )
        .into_bytes();
        Response {
            status: 200,
            headers: Headers {
                content_type: Some("text/html; charset=utf-8".to_owned()),
                content_length: Some(body.len() as u64),
                location: None,
            },
            body: body.into(),
        }
    }

    fn respond(&self, url: &str) -> Response {
        let Some(path) = url.strip_prefix(&self.origin) else {
            return error_response(404);
        };
        let path = path.split(['?', '#']).next().unwrap_or("");
        if path.is_empty() || path == "/" {
            return self.html(format!(
                "<div id=\"cal\"><a href=\"{o}/trap/1\">next month</a></div>\
                 <div class=\"downloads\"><a href=\"{o}/report.csv\">report</a></div>",
                o = self.origin
            ));
        }
        if path == "/report.csv" {
            let body = b"year,value\n2026,1\n".to_vec();
            return Response {
                status: 200,
                headers: Headers {
                    content_type: Some("text/csv".to_owned()),
                    content_length: Some(body.len() as u64),
                    location: None,
                },
                body: body.into(),
            };
        }
        if let Some(rest) = path.strip_prefix("/trap/") {
            // Any numeric-ish tail is a valid page pointing deeper.
            let n: u64 = rest
                .split('/')
                .next_back()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            return self.html(format!(
                "<ul class=\"cal\">\
                 <li><a href=\"{o}/trap/{a}\">next</a></li>\
                 <li><a href=\"{o}/trap/{b}\">skip ahead</a></li>\
                 </ul>",
                o = self.origin,
                a = n.wrapping_add(1),
                // Wrapping keeps the URL space effectively bottomless even
                // for crawlers that always take the doubling branch.
                b = n.wrapping_mul(2).wrapping_add(3),
            ));
        }
        error_response(404)
    }
}

impl HttpServer for TrapServer {
    fn head(&self, url: &str) -> HeadResponse {
        self.respond(url).head()
    }

    fn get(&self, url: &str) -> Response {
        self.respond(url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SiteServer;
    use sb_webgraph::gen::{build_site, SiteSpec};

    #[test]
    fn flaky_is_deterministic_per_url() {
        let site = build_site(&SiteSpec::demo(100), 3);
        let urls: Vec<String> = site.pages().iter().map(|p| p.url.clone()).take(50).collect();
        let flaky = FlakyServer::new(SiteServer::new(site), 0.3, 7);
        let first: Vec<u16> = urls.iter().map(|u| flaky.get(u).status).collect();
        let second: Vec<u16> = urls.iter().map(|u| flaky.get(u).status).collect();
        assert_eq!(first, second, "hard failures are stable per URL");
        assert!(flaky.injected() > 0, "30 % of 50 URLs should include failures");
        assert!(first.contains(&200), "and some successes");
    }

    #[test]
    fn fail_prob_zero_is_transparent() {
        let site = build_site(&SiteSpec::demo(60), 3);
        let url = site.page(site.root()).url.clone();
        let flaky = FlakyServer::new(SiteServer::new(site), 0.0, 7);
        assert_eq!(flaky.get(&url).status, 200);
        assert_eq!(flaky.injected(), 0);
    }

    #[test]
    fn fail_prob_one_kills_everything() {
        let site = build_site(&SiteSpec::demo(60), 3);
        let url = site.page(site.root()).url.clone();
        let flaky = FlakyServer::new(SiteServer::new(site), 1.0, 7);
        assert_eq!(flaky.get(&url).status, 503);
        assert_eq!(flaky.head(&url).status, 503);
    }

    #[test]
    fn recoverable_first_contact_is_exact_beyond_4096_urls() {
        // Regression: the old 4096-slot fingerprint table evicted entries
        // on large URL sets, so a revisited URL could look like a first
        // contact again (re-injecting a 503 a retry should have cleared).
        // Every URL must fail exactly its first attempt and recover on
        // the second, no matter how many distinct URLs came between.
        struct Ok200;
        impl HttpServer for Ok200 {
            fn head(&self, _url: &str) -> HeadResponse {
                self.get("").head()
            }
            fn get(&self, _url: &str) -> Response {
                let body = b"ok".to_vec();
                Response {
                    status: 200,
                    headers: Headers {
                        content_type: Some("text/html".to_owned()),
                        content_length: Some(body.len() as u64),
                        location: None,
                    },
                    body: body.into(),
                }
            }
        }
        let flaky = FlakyServer::new(Ok200, 1.0, 11).recoverable();
        let urls: Vec<String> =
            (0..5000).map(|i| format!("https://big.example.org/page/{i}")).collect();
        for u in &urls {
            assert_eq!(flaky.get(u).status, 503, "first contact fails: {u}");
        }
        for u in &urls {
            assert_eq!(flaky.get(u).status, 200, "retry after 5000 URLs recovers: {u}");
        }
        assert_eq!(flaky.injected(), 5000, "exactly one injection per URL");
    }

    #[test]
    fn trap_pages_always_link_deeper() {
        let trap = TrapServer::new("https://trap.example.org");
        let r = trap.get("https://trap.example.org/trap/41");
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body.to_vec()).unwrap();
        assert!(body.contains("/trap/42"));
        assert!(body.contains("/trap/85"));
    }

    #[test]
    fn trap_root_offers_one_target() {
        let trap = TrapServer::new("https://trap.example.org/");
        let r = trap.get(&trap.root_url());
        assert_eq!(r.status, 200);
        let csv = trap.get("https://trap.example.org/report.csv");
        assert_eq!(csv.headers.content_type.as_deref(), Some("text/csv"));
    }

    #[test]
    fn trap_foreign_urls_404() {
        let trap = TrapServer::new("https://trap.example.org");
        assert_eq!(trap.get("https://elsewhere.example/x").status, 404);
        assert_eq!(trap.get("https://trap.example.org/unknown").status, 404);
    }
}
