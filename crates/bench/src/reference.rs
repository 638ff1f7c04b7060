//! The pre-interning reference implementation, kept as an executable
//! baseline: a string-keyed crawl engine (every step re-parses,
//! re-stringifies and re-hashes full URL strings, exactly like the seed
//! `Engine::seen: HashMap<String, u32>`) over an **uncached** site server
//! that re-renders each page's HTML on every GET *and* HEAD (the seed
//! `SiteServer::respond` behaviour).
//!
//! Its consumers are differential tests:
//!
//! * `tests/determinism.rs` — property tests assert the interned engine
//!   produces byte-identical `CrawlTrace`s and target lists;
//! * `sb_crawler`'s `tests/fleet.rs` and `tests/batch.rs` — window-1
//!   fleet sites and batched crawls are held to this engine's traces.

use sb_crawler::Budget;
use sb_crawler::strategies::Discipline;
use sb_crawler::{CrawlTrace, TracePoint};
use crate::client::Client;
use sb_httpsim::{HeadResponse, Headers, HttpServer, Response};
use sb_webgraph::content::target_body;
use sb_webgraph::gen::render::render_page;
use sb_webgraph::gen::{PageKind, SiteSource, Website};
use sb_webgraph::url::Url;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Serves a [`Website`] by re-rendering HTML on every request — including
/// HEAD, which renders a full body just to compute Content-Length. This is
/// the seed server behaviour the render cache replaced.
pub struct UncachedSiteServer {
    site: Arc<Website>,
}

impl UncachedSiteServer {
    pub fn new(site: Arc<Website>) -> Self {
        UncachedSiteServer { site }
    }

    pub fn site(&self) -> &Website {
        &self.site
    }

    fn respond(&self, url: &str, with_body: bool) -> Response {
        let Some(id) = self.site.lookup(url) else {
            return sb_httpsim::response::error_response(404);
        };
        let page = self.site.page(id);
        match &page.kind {
            PageKind::Html(_) => {
                // Seed behaviour: render unconditionally (HEAD included).
                let body = render_page(&*self.site, id).into_bytes();
                Response {
                    status: 200,
                    headers: Headers {
                        content_type: Some("text/html; charset=utf-8".to_owned()),
                        content_length: Some(body.len() as u64),
                        location: None,
                    },
                    body: if with_body { body.into() } else { sb_httpsim::Body::empty() },
                }
            }
            PageKind::Target { ext, mime, declared_size, planted_tables } => {
                let style = self.site.section_style(0);
                let body = if with_body {
                    target_body(
                        self.site.seed() ^ u64::from(id),
                        ext,
                        *planted_tables,
                        *declared_size,
                        style.lang,
                    )
                    .into()
                } else {
                    sb_httpsim::Body::empty()
                };
                Response {
                    status: 200,
                    headers: Headers {
                        content_type: Some((*mime).to_owned()),
                        content_length: Some(*declared_size),
                        location: None,
                    },
                    body,
                }
            }
            PageKind::Error { status } => sb_httpsim::response::error_response(*status),
            PageKind::Redirect { to } => Response {
                status: 301,
                headers: Headers {
                    content_type: None,
                    content_length: Some(0),
                    location: Some(self.site.page(*to).url.clone()),
                },
                body: sb_httpsim::Body::empty(),
            },
        }
    }
}

impl HttpServer for UncachedSiteServer {
    fn head(&self, url: &str) -> HeadResponse {
        self.respond(url, false).head()
    }

    fn get(&self, url: &str) -> Response {
        self.respond(url, true)
    }
}

/// Seed `Url::join` + `normalize_path`: `format!` scratch strings and a
/// segment `Vec` + `join` per resolution. Behaviour-identical to today's
/// single-allocation `Url::join`; kept verbatim so the baseline pays the
/// seed's allocation bill.
pub fn seed_url_join(base: &Url, reference: &str) -> Result<Url, sb_webgraph::url::UrlError> {
    let r = reference.trim();
    let r = r.split('#').next().unwrap_or("");
    if r.is_empty() {
        return Ok(base.clone());
    }
    if r.contains("://") {
        return Url::parse(r);
    }
    if let Some(rest) = r.strip_prefix("//") {
        return Url::parse(&format!("{}://{}", base.scheme, rest));
    }
    if let Some(q) = r.strip_prefix('?') {
        let mut u = base.clone();
        u.query = q.to_owned();
        return Ok(u);
    }
    let (ref_path, query) = match r.split_once('?') {
        Some((p, q)) => (p, q.to_owned()),
        None => (r, String::new()),
    };
    let path = if ref_path.starts_with('/') {
        seed_normalize_path(ref_path)
    } else {
        let dir = match base.path.rfind('/') {
            Some(pos) => &base.path[..=pos],
            None => "/",
        };
        seed_normalize_path(&format!("{dir}{ref_path}"))
    };
    Ok(Url { scheme: base.scheme.clone(), host: base.host.clone(), path, query })
}

fn seed_normalize_path(path: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    let trailing_slash = path.ends_with('/');
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            s => out.push(s),
        }
    }
    let mut p = String::with_capacity(path.len());
    p.push('/');
    p.push_str(&out.join("/"));
    if trailing_slash && !p.ends_with('/') {
        p.push('/');
    }
    p
}

/// Collapses the seed engine's post-target trace duplicates.
///
/// The seed `amend_trace` *appended* a second point at the same request
/// count after target-volume tagging (pre-tag point kept, post-tag point
/// added); the session engine amends the point in place, recording only
/// the post-tag tallies. This helper drops the superseded pre-tag points
/// from a reference trace so the two series compare point for point — a
/// **knowing** divergence from the frozen seed behaviour (ISSUE 2
/// satellite: "make amend_trace replace the last point"); the reference
/// implementation itself stays verbatim.
///
/// Both metrics of Sec 4.5 are unaffected: the dropped point's tallies are
/// dominated by its same-request successor, so `requests_to_*` and
/// `non_target_volume_*` scans resolve identically on either series.
pub fn collapse_target_amends(trace: &CrawlTrace) -> CrawlTrace {
    let mut out = CrawlTrace::new();
    let pts = trace.points();
    for (i, p) in pts.iter().enumerate() {
        let superseded = pts
            .get(i + 1)
            .is_some_and(|next| next.requests == p.requests && next.targets > p.targets);
        if !superseded {
            out.push(*p);
        }
    }
    out
}

/// What the reference crawl reports — the subset the differential tests
/// compare against [`sb_crawler::CrawlOutcome`].
pub struct ReferenceOutcome {
    pub trace: CrawlTrace,
    /// `(url, mime)` of every retrieved target, in retrieval order.
    pub targets: Vec<(String, String)>,
    pub pages_crawled: u64,
}

const MAX_REDIRECTS: usize = 5;

/// The seed crawl loop for the queue strategies (BFS/DFS/RANDOM):
/// string-keyed `seen`, URL re-parse per fetched page, owned-string
/// frontier. Mirrors the seed `Engine` + `QueueStrategy` step for step so
/// traces are comparable byte for byte.
pub fn reference_queue_crawl(
    server: &dyn HttpServer,
    root_url: &str,
    discipline: Discipline,
    budget: Budget,
    seed: u64,
    max_steps: Option<u64>,
) -> ReferenceOutcome {
    let policy = sb_webgraph::MimePolicy::default();
    let mut client: Client<'_, dyn HttpServer + '_> = Client::new(server, policy.clone());
    let root = Url::parse(root_url).expect("crawl root must be absolute http(s)");
    let mut seen: HashMap<String, u32> = HashMap::new();
    let mut frontier: VecDeque<String> = VecDeque::new();
    let mut trace = CrawlTrace::new();
    let mut targets: Vec<(String, String)> = Vec::new();
    let mut pages_crawled = 0u64;
    let mut t = 0u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc3a5_c85c_97cb_3127);

    let budget_exhausted = |client: &Client<'_, dyn HttpServer + '_>| {
        let tr = client.traffic();
        match budget {
            Budget::Requests(b) => tr.requests() >= b,
            Budget::VolumeBytes(b) => tr.total_bytes() >= b,
            Budget::Unlimited => false,
        }
    };
    let push_trace =
        |client: &Client<'_, dyn HttpServer + '_>, targets: &Vec<(String, String)>, trace: &mut CrawlTrace| {
            let tr = client.traffic();
            trace.push(TracePoint {
                requests: tr.requests(),
                head_requests: tr.head_requests,
                target_bytes: tr.target_bytes,
                non_target_bytes: tr.non_target_bytes,
                targets: targets.len() as u64,
                elapsed_secs: tr.elapsed_secs,
            });
        };

    // One work item at a time: queue strategies never FetchNow, so the
    // seed cascade degenerates to single-item processing.
    let process_one = |url: String,
                           depth: u32,
                           client: &mut Client<'_, dyn HttpServer + '_>,
                           seen: &mut HashMap<String, u32>,
                           frontier: &mut VecDeque<String>,
                           trace: &mut CrawlTrace,
                           targets: &mut Vec<(String, String)>,
                           t: &mut u64,
                           pages_crawled: &mut u64| {
        let mut url = url;
        let mut fetched = None;
        for _ in 0..MAX_REDIRECTS {
            *t += 1;
            *pages_crawled += 1;
            let f = client.get(&url);
            push_trace(client, targets, trace);
            if !(300..400).contains(&f.status) {
                fetched = Some((url.clone(), f));
                break;
            }
            let Some(loc) = f.location.clone() else { return };
            let Ok(base) = Url::parse(&url) else { return };
            let Ok(next) = seed_url_join(&base, &loc) else { return };
            if !next.same_site_as(&root) {
                return;
            }
            let next_str = next.as_string();
            if seen.contains_key(&next_str) && next_str != url {
                return;
            }
            seen.insert(next_str.clone(), depth);
            url = next_str;
        }
        let Some((url, f)) = fetched else { return };
        if f.status >= 400 || f.interrupted {
            return;
        }
        let Some(mime) = f.mime.clone() else { return };
        if policy.is_html_mime(&mime) {
            let html = String::from_utf8_lossy(&f.body);
            let links = crate::seed_html::seed_extract_links(&html);
            let Ok(base) = Url::parse(&url) else { return };
            for link in &links {
                let Ok(resolved) = seed_url_join(&base, &link.href) else { continue };
                if !resolved.same_site_as(&root) {
                    continue;
                }
                let url_str = resolved.as_string();
                if seen.contains_key(&url_str) {
                    continue;
                }
                if policy.has_blocked_extension(&resolved) {
                    continue;
                }
                frontier.push_back(url_str.clone());
                seen.insert(url_str, depth + 1);
            }
            push_trace(client, targets, trace);
        } else if policy.is_target_mime(&mime) {
            client.tag_target(f.wire_bytes);
            targets.push((url, mime));
            push_trace(client, targets, trace);
        }
    };

    let root_str = root.as_string();
    seen.insert(root_str.clone(), 0);
    if budget_exhausted(&client) {
        return ReferenceOutcome { trace, targets, pages_crawled };
    }
    process_one(
        root_str,
        0,
        &mut client,
        &mut seen,
        &mut frontier,
        &mut trace,
        &mut targets,
        &mut t,
        &mut pages_crawled,
    );

    while !budget_exhausted(&client) {
        if let Some(max) = max_steps {
            if t >= max {
                break;
            }
        }
        let Some(url) = (match discipline {
            Discipline::Fifo => frontier.pop_front(),
            Discipline::Lifo => frontier.pop_back(),
            Discipline::Random => {
                if frontier.is_empty() {
                    None
                } else {
                    let i = rng.gen_range(0..frontier.len());
                    frontier.swap_remove_back(i)
                }
            }
        }) else {
            break;
        };
        let depth = seen.get(&url).copied().unwrap_or(0);
        process_one(
            url,
            depth,
            &mut client,
            &mut seen,
            &mut frontier,
            &mut trace,
            &mut targets,
            &mut t,
            &mut pages_crawled,
        );
    }

    ReferenceOutcome { trace, targets, pages_crawled }
}
