//! The initial acquisition crawl and the crawler-side [`Corpus`].
//!
//! An incremental crawler is defined by what it *remembers*: for every page
//! of the initial crawl we keep the body hash (change detection), the DOM
//! tag path of the link that led there (the structural group revisit
//! policies learn over — the same edge labels the paper's single-shot
//! agent clusters), the discovery depth and the per-page revisit history.

use sb_html::extract_links;
use sb_httpsim::{Client, HttpServer, Politeness, Traffic};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::url::Url;
use std::collections::{HashMap, HashSet, VecDeque};

/// 64-bit FNV-1a, the body hash: deterministic across processes and
/// platforms, which keeps whole recrawl runs reproducible.
pub use sb_webgraph::fnv64;

/// Everything the incremental crawler remembers about one HTML page.
#[derive(Debug, Clone)]
pub struct KnownPage {
    pub url: String,
    /// FNV-1a of the body at the last retrieval.
    pub body_hash: u64,
    /// Tag path of the first in-link; `"(root)"` for the start page.
    pub in_path: String,
    /// Discovery depth (BFS from the root).
    pub depth: u32,
    /// Revisit observations (excluding the initial retrieval).
    pub visits: u64,
    /// How many of those revisits detected a change.
    pub changes: u64,
}

impl KnownPage {
    /// Bias-corrected change-rate estimate for this page.
    pub fn change_rate(&self) -> f64 {
        crate::estimate::change_rate(self.visits, self.changes)
    }
}

/// The crawler's persistent state across epochs: known HTML pages (with
/// history) and known targets (with their retrieval-time body hash).
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    pages: HashMap<String, KnownPage>,
    /// Discovery order — stable iteration for deterministic policies.
    order: Vec<String>,
    targets: HashMap<String, u64>,
}

impl Corpus {
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    pub fn n_targets(&self) -> usize {
        self.targets.len()
    }

    pub fn page(&self, url: &str) -> Option<&KnownPage> {
        self.pages.get(url)
    }

    pub fn page_mut(&mut self, url: &str) -> Option<&mut KnownPage> {
        self.pages.get_mut(url)
    }

    pub fn knows(&self, url: &str) -> bool {
        self.pages.contains_key(url) || self.targets.contains_key(url)
    }

    /// Pages in discovery order.
    pub fn pages_in_order(&self) -> impl Iterator<Item = &KnownPage> {
        self.order.iter().filter_map(|u| self.pages.get(u))
    }

    /// Known target URLs with their stored body hashes.
    pub fn targets(&self) -> &HashMap<String, u64> {
        &self.targets
    }

    pub fn insert_page(&mut self, page: KnownPage) {
        if !self.pages.contains_key(&page.url) {
            self.order.push(page.url.clone());
        }
        self.pages.insert(page.url.clone(), page);
    }

    pub fn insert_target(&mut self, url: String, body_hash: u64) {
        self.targets.insert(url, body_hash);
    }

    /// Forgets a page that died (410/404 on revisit).
    pub fn remove_page(&mut self, url: &str) {
        self.pages.remove(url);
        // `order` keeps the tombstone; iteration filters through `pages`.
    }
}

/// Breadth-first initial acquisition of the site at the server's current
/// epoch. Every reachable HTML page and target is retrieved once; costs are
/// accounted on the returned [`Traffic`]. `max_pages` caps retrieval for
/// partial initial crawls (`None` = exhaustive).
pub fn snapshot_crawl(
    server: &dyn HttpServer,
    root_url: &str,
    mime: &MimePolicy,
    politeness: Politeness,
    max_pages: Option<usize>,
) -> (Corpus, Traffic) {
    let mut client = Client::new(server, mime.clone()).with_politeness(politeness);
    let root = Url::parse(root_url).expect("snapshot crawl root must be absolute");
    let mut corpus = Corpus::default();
    let mut enqueued: HashSet<String> = HashSet::new();
    let mut queue: VecDeque<(String, String, u32)> = VecDeque::new();

    let root_str = root.as_string();
    enqueued.insert(root_str.clone());
    queue.push_back((root_str, "(root)".to_owned(), 0));

    while let Some((url, in_path, depth)) = queue.pop_front() {
        if let Some(cap) = max_pages {
            if corpus.n_pages() + corpus.n_targets() >= cap {
                break;
            }
        }
        let f = client.get(&url);
        if f.status >= 400 || f.interrupted {
            continue;
        }
        if (300..400).contains(&f.status) {
            // Follow one hop; redirect chains re-enter through the queue.
            if let (Ok(base), Some(loc)) = (Url::parse(&url), f.location.as_deref()) {
                if let Ok(next) = base.join(loc) {
                    let next_str = next.as_string();
                    if next.same_site_as(&root) && enqueued.insert(next_str.clone()) {
                        queue.push_back((next_str, in_path, depth));
                    }
                }
            }
            continue;
        }
        let Some(mime_type) = f.mime.as_deref() else { continue };
        if mime.is_html_mime(mime_type) {
            let hash = fnv64(&f.body);
            corpus.insert_page(KnownPage {
                url: url.clone(),
                body_hash: hash,
                in_path,
                depth,
                visits: 0,
                changes: 0,
            });
            let html = sb_html::body_str(&f.body);
            let Ok(base) = Url::parse(&url) else { continue };
            for link in extract_links(&html) {
                let Ok(resolved) = base.join(&link.href) else { continue };
                if !resolved.same_site_as(&root) || mime.has_blocked_extension(&resolved) {
                    continue;
                }
                let s = resolved.as_string();
                if enqueued.insert(s.clone()) {
                    queue.push_back((s, link.tag_path.to_string(), depth + 1));
                }
            }
        } else if mime.is_target_mime(mime_type) {
            client.tag_target(f.wire_bytes);
            corpus.insert_target(url, fnv64(&f.body));
        }
    }
    (corpus, client.traffic())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_httpsim::SiteServer;
    use sb_webgraph::{build_site, SiteSpec};

    fn crawl_demo(pages: usize, seed: u64) -> (Corpus, Traffic, SiteServer) {
        let site = build_site(&SiteSpec::demo(pages), seed);
        let root = site.page(site.root()).url.clone();
        let server = SiteServer::new(site);
        let (corpus, traffic) =
            snapshot_crawl(&server, &root, &MimePolicy::default(), Politeness::default(), None);
        (corpus, traffic, server)
    }

    #[test]
    fn fnv64_distinguishes_and_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(fnv64(b"hello"), fnv64(b"hello"));
    }

    #[test]
    fn exhaustive_crawl_matches_census() {
        let (corpus, _, server) = crawl_demo(200, 5);
        let census = server.site().census();
        assert_eq!(corpus.n_pages(), census.html, "every reachable HTML page is known");
        assert_eq!(corpus.n_targets(), census.targets, "every reachable target is stored");
    }

    #[test]
    fn in_paths_are_tag_paths() {
        let (corpus, _, _) = crawl_demo(200, 5);
        let mut non_root = 0;
        for p in corpus.pages_in_order() {
            if p.in_path == "(root)" {
                continue;
            }
            non_root += 1;
            assert!(p.in_path.starts_with("html"), "tag path starts at the root: {}", p.in_path);
            assert!(p.in_path.contains(' '), "tag path has several segments: {}", p.in_path);
        }
        assert!(non_root > 0);
    }

    #[test]
    fn max_pages_caps_retrieval() {
        let site = build_site(&SiteSpec::demo(300), 6);
        let root = site.page(site.root()).url.clone();
        let server = SiteServer::new(site);
        let (corpus, _) = snapshot_crawl(
            &server,
            &root,
            &MimePolicy::default(),
            Politeness::default(),
            Some(25),
        );
        assert!(corpus.n_pages() + corpus.n_targets() <= 25);
        assert!(corpus.n_pages() > 0);
    }

    #[test]
    fn traffic_accounts_every_get() {
        let (corpus, traffic, _) = crawl_demo(150, 8);
        // At least one GET per known resource (errors and redirects add more).
        assert!(traffic.get_requests >= (corpus.n_pages() + corpus.n_targets()) as u64);
        assert!(traffic.target_bytes > 0, "target volume is tagged");
        assert!(traffic.elapsed_secs > 0.0);
    }

    #[test]
    fn corpus_remove_page_forgets() {
        let (mut corpus, _, _) = crawl_demo(150, 8);
        let url = corpus.pages_in_order().next().unwrap().url.clone();
        assert!(corpus.knows(&url));
        corpus.remove_page(&url);
        assert!(!corpus.knows(&url));
        assert!(corpus.pages_in_order().all(|p| p.url != url));
    }

    #[test]
    fn determinism_same_seed_same_corpus() {
        let (a, _, _) = crawl_demo(200, 5);
        let (b, _, _) = crawl_demo(200, 5);
        let urls_a: Vec<_> = a.pages_in_order().map(|p| p.url.clone()).collect();
        let urls_b: Vec<_> = b.pages_in_order().map(|p| p.url.clone()).collect();
        assert_eq!(urls_a, urls_b);
    }
}
