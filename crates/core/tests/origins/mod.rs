//! Hostile origins for the robustness tests: an infinite calendar trap
//! (the "robot traps" the paper mentions when dismissing DFS for
//! exhaustive crawling, Sec 4.3) and an origin that enforces its own
//! robots.txt. Shared by
//! `robustness.rs` (which also runs their own tests) and `session_api.rs`
//! (a `mod origins;`, not a test target of its own).

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use sb_httpsim::response::error_response;
use sb_httpsim::{HeadResponse, Headers, HttpServer, Response, RobotsTxt, WithRobots};
use sb_webgraph::url::Url;

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

/// A server enforcing its own robots.txt: disallowed paths answer
/// 403 Forbidden instead of content. Useful to *test* that a crawler never
/// even tries (with enforcement off, a compliant crawler's traffic must be
/// identical).
pub struct EnforcedRobots<S> {
    inner: WithRobots<S>,
    robots: RobotsTxt,
    agent: String,
}

impl<S: HttpServer> EnforcedRobots<S> {
    pub fn new(inner: S, root_url: &str, body: impl Into<String>, agent: &str) -> Self {
        let body = body.into();
        let robots = RobotsTxt::parse(&body);
        EnforcedRobots {
            inner: WithRobots::new(inner, root_url, body),
            robots,
            agent: agent.to_owned(),
        }
    }

    fn blocked(&self, url: &str) -> bool {
        match Url::parse(url) {
            Ok(u) if u.path == "/robots.txt" => false,
            // Rules match the path *and* query (`Disallow: /*?month=`).
            Ok(u) if u.query.is_empty() => !self.robots.allows(&self.agent, &u.path),
            Ok(u) => !self.robots.allows(&self.agent, &format!("{}?{}", u.path, u.query)),
            Err(_) => false,
        }
    }
}

impl<S: HttpServer> HttpServer for EnforcedRobots<S> {
    fn head(&self, url: &str) -> HeadResponse {
        if self.blocked(url) {
            error_response(403).head()
        } else {
            self.inner.head(url)
        }
    }

    fn get(&self, url: &str) -> Response {
        if self.blocked(url) {
            error_response(403)
        } else {
            self.inner.get(url)
        }
    }
}
