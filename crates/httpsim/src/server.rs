//! The origin server: serves a generated [`Website`] over the simulated
//! transport, exactly as the paper's crawlers would see it — HTML pages with
//! links, target files with their MIME types and sizes, 4xx/5xx dead URLs,
//! and 3xx redirects with `Location` headers.
//!
//! HTML bodies are served ready: every crawl parses them. A target GET
//! answers with its headers and a deferred [`Body`] (see
//! [`crate::response`]) that generates the payload through the site's body
//! cache when first read, so a crawl that only records a target's URL,
//! MIME type and declared size never generates one. The body holds the
//! site: a kept target body pins the site it came from.

use crate::response::{error_response, Body, HeadResponse, Headers, Response};
use sb_webgraph::gen::{PageKind, SiteSource, Website};
use sb_webgraph::PageId;
use std::sync::Arc;

/// Anything that answers HEAD and GET for absolute URLs.
pub trait HttpServer: Send + Sync {
    fn head(&self, url: &str) -> HeadResponse;
    fn get(&self, url: &str) -> Response;
}

/// Serves one synthetic website — any [`SiteSource`], eager or streaming.
/// The site is shared (`Arc`) so many concurrent experiment runs can serve
/// the same generated site cheaply; callers that want an omniscient view
/// keep their own handle on it (or read [`SiteServer::source`]).
pub struct SiteServer {
    source: Arc<dyn SiteSource>,
}

impl SiteServer {
    pub fn new(site: Website) -> Self {
        Self::shared(Arc::new(site))
    }

    pub fn shared(site: Arc<Website>) -> Self {
        Self::from_source(site)
    }

    /// Serves any [`SiteSource`] — e.g. a streaming `sb_scale` site whose
    /// pages are rendered on demand through a bounded cache.
    pub fn from_source(source: Arc<dyn SiteSource>) -> Self {
        SiteServer { source }
    }

    /// The site behind this server, eager or streaming.
    pub fn source(&self) -> &Arc<dyn SiteSource> {
        &self.source
    }

    /// String-keyed boundary: resolves the URL (one FxHash lookup) and
    /// serves by page id.
    fn respond(&self, url: &str, with_body: bool) -> Response {
        let Some(id) = self.source.lookup(url) else {
            return error_response(404);
        };
        self.respond_id(id, with_body)
    }

    /// Id-keyed fast path. Bodies and sizes come from the source's shared
    /// body cache (eager: unbounded HTML; streaming: bounded), so a page is
    /// rendered by its first HEAD or GET and a HEAD of a page already sized
    /// serves its length without touching a body. A target's payload is
    /// generated by the first read of its deferred body, not here.
    fn respond_id(&self, id: PageId, with_body: bool) -> Response {
        // An `Arc` is not a `SiteSource`: every accessor below reads the
        // store it holds, through one vtable.
        let source: &dyn SiteSource = &*self.source;
        match source.kind(id) {
            PageKind::Html(_) => {
                let (body, content_length) = if with_body {
                    let cached = source.rendered(id);
                    let len = cached.len() as u64;
                    (Body::from(cached), len)
                } else {
                    // HEAD: the cached size, or one render to learn it.
                    (Body::empty(), source.content_length(id))
                };
                Response {
                    status: 200,
                    headers: Headers {
                        content_type: Some("text/html; charset=utf-8".to_owned()),
                        content_length: Some(content_length),
                        location: None,
                    },
                    body,
                }
            }
            PageKind::Target { mime, declared_size, .. } => {
                let body = if with_body {
                    // Deferred: no crawl decision reads a target's bytes,
                    // so the payload is generated (through the source's
                    // budget-bounded cache) only if the body is read.
                    let site = Arc::clone(&self.source);
                    Body::deferred(move || (*site).target_payload(id))
                } else {
                    Body::empty()
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
            PageKind::Error { status } => error_response(*status),
            PageKind::Redirect { to } => Response {
                status: 301,
                headers: Headers {
                    content_type: None,
                    content_length: Some(0),
                    location: Some(source.url(*to).to_owned()),
                },
                body: Body::empty(),
            },
        }
    }
}

impl HttpServer for SiteServer {
    fn head(&self, url: &str) -> HeadResponse {
        self.respond(url, false).head()
    }

    fn get(&self, url: &str) -> Response {
        self.respond(url, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_webgraph::gen::{build_site, SiteSpec};
    use sb_webgraph::PageKind;

    fn server() -> (Arc<Website>, SiteServer) {
        let site = Arc::new(build_site(&SiteSpec::demo(300), 5));
        (Arc::clone(&site), SiteServer::shared(site))
    }

    #[test]
    fn serves_root_html() {
        let (site, s) = server();
        let root_url = site.page(site.root()).url.clone();
        let r = s.get(&root_url);
        assert_eq!(r.status, 200);
        assert_eq!(r.headers.content_type.as_deref(), Some("text/html; charset=utf-8"));
        assert!(!r.body.is_empty());
        assert_eq!(r.headers.content_length, Some(r.body.len() as u64));
    }

    #[test]
    fn serves_targets_with_declared_size() {
        let (site, s) = server();
        let tid = site.target_ids()[0];
        let page = site.page(tid).clone();
        let PageKind::Target { mime, declared_size, .. } = page.kind else { unreachable!() };
        let r = s.get(&page.url);
        assert_eq!(r.status, 200);
        assert_eq!(r.headers.content_type.as_deref(), Some(mime));
        assert_eq!(r.headers.content_length, Some(declared_size));
    }

    /// Building a site renders nothing; a cold HEAD renders its page once,
    /// and the GET that follows is served from the cache.
    #[test]
    fn a_cold_head_renders_once_and_the_get_after_it_none() {
        let (site, s) = server();
        assert_eq!(site.render_count(), 0, "building the site rendered a page");
        let html_urls: Vec<String> = site
            .pages()
            .iter()
            .filter(|p| matches!(p.kind, PageKind::Html(_)))
            .map(|p| p.url.clone())
            .collect();
        let mut heads = Vec::new();
        for url in &html_urls {
            heads.push(s.head(url));
        }
        assert_eq!(site.render_count(), html_urls.len() as u64, "one render per cold HEAD");
        // And the lengths it reported are the real rendered lengths.
        for (url, h) in html_urls.iter().zip(&heads) {
            let g = s.get(url);
            assert_eq!(h.headers.content_length, g.headers.content_length, "{url}");
        }
        assert_eq!(site.render_count(), html_urls.len() as u64, "a GET after a HEAD rendered");
    }

    /// GETs hit the shared render cache: one render per page per site
    /// instance, across repeated fetches and across servers sharing the
    /// same `Arc<Website>`.
    #[test]
    fn render_cache_renders_each_page_once() {
        let site = std::sync::Arc::new(build_site(&SiteSpec::demo(300), 5));
        let s1 = SiteServer::shared(std::sync::Arc::clone(&site));
        let root_url = site.page(site.root()).url.clone();
        let before = site.render_count();
        let a = s1.get(&root_url);
        let b = s1.get(&root_url);
        assert_eq!(a, b);
        assert_eq!(site.render_count(), before + 1, "second GET must be served from cache");
        // A second server over the same site shares the cache.
        let s2 = SiteServer::shared(std::sync::Arc::clone(&site));
        let c = s2.get(&root_url);
        assert_eq!(a, c);
        assert_eq!(site.render_count(), before + 1, "sibling server re-rendered");
    }

    #[test]
    fn head_matches_get_headers() {
        let (site, s) = server();
        for id in [site.root(), site.target_ids()[0]] {
            let url = &site.page(id).url;
            let h = s.head(url);
            let g = s.get(url);
            assert_eq!(h.status, g.status);
            assert_eq!(h.headers.content_type, g.headers.content_type);
            assert_eq!(h.headers.content_length, g.headers.content_length);
        }
    }

    #[test]
    fn unknown_url_is_404() {
        let (_, s) = server();
        assert_eq!(s.get("https://www.stats.example.org/definitely/not/here").status, 404);
    }

    #[test]
    fn error_pages_serve_their_status() {
        let (site, s) = server();
        let err = site
            .pages()
            .iter()
            .find(|p| matches!(p.kind, PageKind::Error { .. }))
            .expect("demo site has error pages");
        let PageKind::Error { status } = err.kind else { unreachable!() };
        assert_eq!(s.get(&err.url).status, status);
    }

    #[test]
    fn redirects_carry_location() {
        let (site, s) = server();
        let red = site
            .pages()
            .iter()
            .find(|p| matches!(p.kind, PageKind::Redirect { .. }))
            .expect("demo site has redirects");
        let r = s.get(&red.url);
        assert_eq!(r.status, 301);
        let PageKind::Redirect { to } = red.kind else { unreachable!() };
        assert_eq!(r.headers.location.as_deref(), Some(site.page(to).url.as_str()));
    }
}
