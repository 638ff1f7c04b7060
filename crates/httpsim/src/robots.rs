//! robots.txt: parsing, path matching and an origin-side overlay.
//!
//! The paper's crawler respects *crawling ethics* (the 1-second politeness
//! wait of Sec 1); a production deployment also honours the Robots
//! Exclusion Protocol. This module implements the REP as specified by
//! RFC 9309: user-agent groups, `Allow`/`Disallow` with `*` wildcards and
//! the `$` end anchor, longest-match precedence with `Allow` winning ties,
//! and the de-facto `Crawl-delay` extension (which feeds the
//! [`crate::Politeness`] model).
//!
//! [`WithRobots`] wraps any [`HttpServer`] so generated sites can publish a
//! `/robots.txt` without touching the site generator.

use crate::response::{error_response, HeadResponse, Headers, Response};
use crate::server::HttpServer;
use sb_webgraph::url::Url;

/// One `Allow`/`Disallow` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// True for `Allow`, false for `Disallow`.
    pub allow: bool,
    /// Path pattern; may contain `*` wildcards and a trailing `$` anchor.
    pub pattern: String,
}

#[derive(Debug, Clone, Default)]
struct Group {
    /// Lowercased product tokens of the `User-agent` lines; `*` matches all.
    agents: Vec<String>,
    rules: Vec<Rule>,
    crawl_delay: Option<f64>,
}

/// A parsed robots.txt file.
#[derive(Debug, Clone, Default)]
pub struct RobotsTxt {
    groups: Vec<Group>,
}

impl RobotsTxt {
    /// Parses robots.txt text. Unknown directives are ignored; parsing
    /// never fails (a malformed file simply yields fewer rules, per the
    /// RFC's error-tolerance requirement).
    pub fn parse(text: &str) -> RobotsTxt {
        let mut groups: Vec<Group> = Vec::new();
        let mut current = Group::default();
        // True while we are still collecting consecutive User-agent lines
        // for the group being opened.
        let mut collecting_agents = false;

        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once(':') else { continue };
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            match key.as_str() {
                "user-agent" => {
                    if !collecting_agents {
                        if !current.agents.is_empty() {
                            groups.push(std::mem::take(&mut current));
                        }
                        collecting_agents = true;
                    }
                    current.agents.push(value.to_ascii_lowercase());
                }
                "allow" | "disallow" => {
                    collecting_agents = false;
                    if current.agents.is_empty() {
                        // Rules before any User-agent line are ignored.
                        continue;
                    }
                    // An empty Disallow means "allow everything": no rule.
                    if value.is_empty() {
                        continue;
                    }
                    current.rules.push(Rule { allow: key == "allow", pattern: value.to_owned() });
                }
                "crawl-delay" => {
                    collecting_agents = false;
                    if let Ok(d) = value.parse::<f64>() {
                        // "inf" and "1e999" parse to +∞, which would park
                        // the host gate forever.
                        if d.is_finite() && d >= 0.0 && current.crawl_delay.is_none() {
                            current.crawl_delay = Some(d);
                        }
                    }
                }
                _ => {
                    collecting_agents = false;
                }
            }
        }
        if !current.agents.is_empty() {
            groups.push(current);
        }
        RobotsTxt { groups }
    }

    /// The group that governs `agent`: the one whose matched `User-agent`
    /// token is longest; the `*` group is the fallback.
    fn group_for(&self, agent: &str) -> Option<&Group> {
        let agent = agent.to_ascii_lowercase();
        let mut best: Option<(usize, &Group)> = None;
        let mut wildcard: Option<&Group> = None;
        for g in &self.groups {
            for a in &g.agents {
                if a == "*" {
                    wildcard = wildcard.or(Some(g));
                } else if agent.contains(a.as_str()) {
                    match best {
                        Some((len, _)) if a.len() <= len => {}
                        _ => best = Some((a.len(), g)),
                    }
                }
            }
        }
        best.map(|(_, g)| g).or(wildcard)
    }

    /// May `agent` fetch `path`? Longest-pattern match decides; `Allow`
    /// wins ties; no matching rule (or no matching group) means allowed.
    pub fn allows(&self, agent: &str, path: &str) -> bool {
        let Some(group) = self.group_for(agent) else { return true };
        let mut best: Option<(usize, bool)> = None;
        for rule in &group.rules {
            if !pattern_matches(&rule.pattern, path) {
                continue;
            }
            let len = rule.pattern.len();
            match best {
                Some((blen, ballow)) => {
                    if len > blen || (len == blen && rule.allow && !ballow) {
                        best = Some((len, rule.allow));
                    }
                }
                None => best = Some((len, rule.allow)),
            }
        }
        best.is_none_or(|(_, allow)| allow)
    }

    /// The `Crawl-delay` (seconds) governing `agent`, if declared.
    pub fn crawl_delay(&self, agent: &str) -> Option<f64> {
        self.group_for(agent).and_then(|g| g.crawl_delay)
    }

    /// Number of parsed groups (diagnostics).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }
}

/// REP path matching: the pattern is anchored at the start of the path,
/// `*` matches any (possibly empty) run of characters, a trailing `$`
/// anchors at the end. Without `$` the pattern is a prefix pattern, which
/// is the same as appending a final `*` and requiring a full match.
pub fn pattern_matches(pattern: &str, path: &str) -> bool {
    let (stripped, anchored) = match pattern.strip_suffix('$') {
        Some(p) => (p, true),
        None => (pattern, false),
    };
    let mut pat = stripped.as_bytes().to_vec();
    if !anchored {
        pat.push(b'*');
    }
    glob_match(&pat, path.as_bytes())
}

/// Full-text `*`-glob match with backtracking (no other metacharacters).
fn glob_match(pat: &[u8], text: &[u8]) -> bool {
    let (mut p, mut t) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut mark = 0usize;
    while t < text.len() {
        if p < pat.len() && pat[p] != b'*' && pat[p] == text[t] {
            p += 1;
            t += 1;
        } else if p < pat.len() && pat[p] == b'*' {
            star = Some(p);
            mark = t;
            p += 1;
        } else if let Some(s) = star {
            // Backtrack: let the last star absorb one more byte.
            p = s + 1;
            mark += 1;
            t = mark;
        } else {
            return false;
        }
    }
    while p < pat.len() && pat[p] == b'*' {
        p += 1;
    }
    p == pat.len()
}

/// Serves `body` at `{origin}/robots.txt`, delegating every other URL to
/// the wrapped server.
pub struct WithRobots<S> {
    inner: S,
    robots_url: String,
    body: String,
}

impl<S: HttpServer> WithRobots<S> {
    /// `root_url` fixes the origin; `body` is the robots.txt text.
    pub fn new(inner: S, root_url: &str, body: impl Into<String>) -> WithRobots<S> {
        let robots_url = Url::parse(root_url)
            .and_then(|u| u.join("/robots.txt"))
            .map(|u| u.as_string())
            .unwrap_or_else(|_| "/robots.txt".to_owned());
        WithRobots { inner, robots_url, body: body.into() }
    }

    fn robots_response(&self) -> Response {
        let body = self.body.clone().into_bytes();
        Response {
            status: 200,
            headers: Headers {
                content_type: Some("text/plain; charset=utf-8".to_owned()),
                content_length: Some(body.len() as u64),
                location: None,
            },
            body: body.into(),
        }
    }
}

impl<S: HttpServer> HttpServer for WithRobots<S> {
    fn head(&self, url: &str) -> HeadResponse {
        if url == self.robots_url {
            self.robots_response().head()
        } else {
            self.inner.head(url)
        }
    }

    fn get(&self, url: &str) -> Response {
        if url == self.robots_url {
            self.robots_response()
        } else {
            self.inner.get(url)
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# stats portal robots
User-agent: *
Disallow: /private/
Disallow: /search
Allow: /private/open/
Crawl-delay: 2

User-agent: sbcrawl
Disallow: /api/
Allow: /

User-agent: greedybot
Disallow: /
";

    #[test]
    fn groups_and_delay_parse() {
        let r = RobotsTxt::parse(SAMPLE);
        assert_eq!(r.n_groups(), 3);
        assert_eq!(r.crawl_delay("anybot"), Some(2.0));
        assert_eq!(r.crawl_delay("sbcrawl"), None);
    }

    #[test]
    fn wildcard_group_applies_to_unknown_agents() {
        let r = RobotsTxt::parse(SAMPLE);
        assert!(!r.allows("somebot", "/private/data.csv"));
        assert!(r.allows("somebot", "/public/data.csv"));
        assert!(r.allows("somebot", "/private/open/data.csv"), "longest match is Allow");
    }

    #[test]
    fn specific_group_overrides_wildcard() {
        let r = RobotsTxt::parse(SAMPLE);
        // sbcrawl's own group allows /private/ (no rule ⇒ its Allow: /).
        assert!(r.allows("sbcrawl/0.1", "/private/data.csv"));
        assert!(!r.allows("sbcrawl/0.1", "/api/v1/data"));
        assert!(!r.allows("greedybot", "/anything"));
    }

    #[test]
    fn prefix_matching_without_trailing_slash() {
        let r = RobotsTxt::parse("User-agent: *\nDisallow: /search");
        assert!(!r.allows("x", "/search"));
        assert!(!r.allows("x", "/search/results"));
        assert!(!r.allows("x", "/searchable")); // prefix semantics, per RFC
        assert!(r.allows("x", "/sea"));
    }

    #[test]
    fn wildcards_and_anchor() {
        let r = RobotsTxt::parse("User-agent: *\nDisallow: /*.pdf$\nDisallow: /tmp/*/draft");
        assert!(!r.allows("x", "/docs/report.pdf"));
        assert!(r.allows("x", "/docs/report.pdf?page=2"), "$ anchors the end");
        assert!(!r.allows("x", "/tmp/2026/draft"));
        assert!(!r.allows("x", "/tmp/a/b/draft-v2"));
        assert!(r.allows("x", "/tmp/draft"), "the * must span a middle segment");
    }

    #[test]
    fn allow_wins_ties_and_longest_wins_overall() {
        let r = RobotsTxt::parse("User-agent: *\nDisallow: /data\nAllow: /data");
        assert!(r.allows("x", "/data/x.csv"), "equal length: Allow wins");
        let r2 = RobotsTxt::parse("User-agent: *\nAllow: /data\nDisallow: /data/private");
        assert!(!r2.allows("x", "/data/private/x.csv"), "longer Disallow wins");
    }

    #[test]
    fn empty_disallow_allows_everything() {
        let r = RobotsTxt::parse("User-agent: *\nDisallow:");
        assert!(r.allows("x", "/anything"));
    }

    #[test]
    fn garbage_never_panics_and_allows() {
        for garbage in ["", ":::", "Disallow: /x", "User-agent *\nDisallow /x", "\u{0}\u{1}"] {
            let r = RobotsTxt::parse(garbage);
            assert!(r.allows("x", "/x"), "rules without a preceding agent line are dropped");
        }
        for delay in ["inf", "Infinity", "1e999", "NaN", "-1", "soon"] {
            let r = RobotsTxt::parse(&format!("User-agent: *\nCrawl-delay: {delay}"));
            assert_eq!(r.crawl_delay("x"), None, "Crawl-delay: {delay} must be ignored");
        }
    }

    #[test]
    fn pattern_matcher_edge_cases() {
        assert!(pattern_matches("/", "/anything"));
        assert!(pattern_matches("/*", "/anything"));
        assert!(pattern_matches("/a*b$", "/axxb"));
        assert!(!pattern_matches("/a*b$", "/axxbc"));
        assert!(pattern_matches("/a**b", "/ab"));
        assert!(pattern_matches("/x*$", "/x/anything"));
        assert!(!pattern_matches("/y", "/x"));
        // Anchored patterns must backtrack past earlier piece occurrences.
        assert!(pattern_matches("/a*b$", "/axbyb"), "the * must stretch to the final b");
        assert!(!pattern_matches("/ab$", "/abxab/ab "), "single-piece anchor is exact");
        assert!(pattern_matches("/ab$", "/ab"));
    }

    #[test]
    fn enforced_robots_blocks_with_403() {
        use crate::server::SiteServer;
        use sb_webgraph::gen::{build_site, SiteSpec};
        let site = build_site(&SiteSpec::demo(80), 3);
        let root = site.page(site.root()).url.clone();
        let some_page = site
            .pages()
            .iter()
            .find(|p| p.url != root && matches!(p.kind, sb_webgraph::PageKind::Html(_)))
            .expect("site has a second page")
            .url
            .clone();
        let path = Url::parse(&some_page).unwrap().path;
        let body = format!("User-agent: *\nDisallow: {path}");
        let server = EnforcedRobots::new(SiteServer::new(site), &root, body, "sbcrawl");
        assert_eq!(server.get(&some_page).status, 403);
        assert_eq!(server.get(&root).status, 200);
        assert_eq!(server.head(&some_page).status, 403);
    }
}
