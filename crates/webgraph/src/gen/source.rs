//! [`SiteSource`] — the narrow read surface a site has to expose to be
//! served and crawled.
//!
//! The eager [`Website`] materialises every [`super::SitePage`] up front;
//! `sb-scale`'s streaming site packs the same graph into dense arenas. Both
//! implement this trait, and everything downstream — the origin server, the
//! renderer, the omniscient strategy's target enumeration, BFS depth
//! computation — consumes the trait rather than the concrete `Website`, so
//! swapping the representation can never change crawler-observable
//! behaviour. An implementation supplies the graph and one
//! [`BodyCache`]; serving (`rendered`, `content_length`, `target_payload`)
//! is written once, here, over that cache. Rendering byte-identity between
//! the two implementations is pinned by proptest in `sb-scale`.

use super::{mean_std, BodyCache, Census, OutLink, PageId, PageKind, SectionStyle, SiteSpec, Website};
use crate::mime::UrlClass;
use std::sync::Arc;

/// Read-only view of a generated website, and the only way anything reads
/// one: the data surface needed by [`super::render::render_page`] and the
/// origin server, plus the omniscient views (classes, targets, depths, the
/// census) written once over it.
///
/// All methods take `&self` and must be callable concurrently — servers
/// share one site instance across every in-flight request.
pub trait SiteSource: Send + Sync {
    /// The spec the site was generated from.
    fn spec(&self) -> &SiteSpec;

    /// The generation seed (per-page render RNGs derive from it).
    fn seed(&self) -> u64;

    /// Id of the start page.
    fn root(&self) -> PageId;

    /// Total number of pages (ids are `0..n_pages()`).
    fn n_pages(&self) -> usize;

    /// What page `id` resolves to.
    fn kind(&self, id: PageId) -> &PageKind;

    /// Absolute URL of page `id`.
    fn url(&self, id: PageId) -> &str;

    /// Anchor title used by pages linking to `id`.
    fn title(&self, id: PageId) -> &str;

    /// Outgoing links of page `id` (empty for non-HTML pages).
    fn out_links(&self, id: PageId) -> &[OutLink];

    /// Rendering style of `section` (implementations index modulo the
    /// style count, so any `u16` is valid).
    fn section_style(&self, section: u16) -> &SectionStyle;

    /// Resolves a URL string to a page id, if it belongs to the site.
    /// This is the origin server's per-request hot path.
    fn lookup(&self, url: &str) -> Option<PageId>;

    /// The cache this site's bodies and sizes are served through.
    fn body_cache(&self) -> &BodyCache;

    /// The rendered HTML body of page `id`, deterministic per (seed, id):
    /// rendered on a cache miss, an `Arc` clone on a hit. Panics if `id` is
    /// not an HTML page.
    fn rendered(&self, id: PageId) -> Arc<[u8]> {
        self.body_cache().rendered(self, id)
    }

    /// The Content-Length the origin server declares for page `id`. An HTML
    /// page is sized by its first render and never rendered for its size
    /// again; a target declares its size.
    fn content_length(&self, id: PageId) -> u64 {
        self.body_cache().content_length(self, id)
    }

    /// The payload bytes of target page `id`. Panics if `id` is not a
    /// target page.
    fn target_payload(&self, id: PageId) -> Arc<[u8]> {
        self.body_cache().target_payload(self, id)
    }

    /// HTML render passes performed through [`Self::body_cache`] (tests pin
    /// that a page is rendered at most once while it stays cached).
    fn render_count(&self) -> u64 {
        self.body_cache().renders()
    }

    fn is_empty(&self) -> bool {
        self.n_pages() == 0
    }

    /// Ground-truth class of a page (what a perfect oracle would say).
    /// Redirects classify as their destination, followed for a bounded
    /// number of hops — a redirect cycle (a [`super::hazard`] loop
    /// profile) is `Neither`, matching what a crawler with a
    /// redirect-chain budget can ever retrieve from it.
    fn true_class(&self, id: PageId) -> UrlClass {
        let mut id = id;
        for _ in 0..8 {
            match self.kind(id) {
                PageKind::Html(_) => return UrlClass::Html,
                PageKind::Target { .. } => return UrlClass::Target,
                PageKind::Error { .. } => return UrlClass::Neither,
                PageKind::Redirect { to } => id = *to,
            }
        }
        UrlClass::Neither
    }

    /// Ids of all target pages.
    fn target_ids(&self) -> Vec<PageId> {
        (0..self.n_pages() as PageId)
            .filter(|&id| matches!(self.kind(id), PageKind::Target { .. }))
            .collect()
    }

    /// URLs of all target pages — what the omniscient crawler is seeded
    /// with. Enumerates through the trait so streaming sites never have to
    /// materialise a page table for the omniscient baselines.
    fn target_urls(&self) -> Vec<String> {
        self.target_ids().into_iter().map(|id| self.url(id).to_owned()).collect()
    }

    /// BFS depths over the page graph (following redirects at no depth
    /// cost); `None` for unreachable pages.
    fn source_depths(&self) -> Vec<Option<u32>> {
        let n = self.n_pages();
        let mut depth: Vec<Option<u32>> = vec![None; n];
        let mut q = std::collections::VecDeque::new();
        depth[self.root() as usize] = Some(0);
        q.push_back(self.root());
        while let Some(u) = q.pop_front() {
            let d = depth[u as usize].expect("queued pages have depths");
            if let PageKind::Redirect { to } = *self.kind(u) {
                if depth[to as usize].is_none() {
                    depth[to as usize] = Some(d);
                    q.push_back(to);
                }
                continue;
            }
            for l in self.out_links(u) {
                if depth[l.to as usize].is_none() {
                    depth[l.to as usize] = Some(d + 1);
                    q.push_back(l.to);
                }
            }
        }
        depth
    }

    /// The Table 1 census of this site; see [`Census`]. An HTML page links
    /// to a target if one of its links is a target or a redirect to one.
    fn census(&self) -> Census {
        let mut available = 0usize;
        let mut targets = 0usize;
        let mut html = 0usize;
        let mut linkers = 0usize;
        let mut sizes_mb: Vec<f64> = Vec::new();
        let mut target_depths: Vec<f64> = Vec::new();
        for (id, depth) in self.source_depths().into_iter().enumerate() {
            let Some(depth) = depth else { continue };
            let id = id as PageId;
            match self.kind(id) {
                PageKind::Html(_) => {
                    available += 1;
                    html += 1;
                    if self.out_links(id).iter().any(|l| match *self.kind(l.to) {
                        PageKind::Target { .. } => true,
                        PageKind::Redirect { to } => matches!(self.kind(to), PageKind::Target { .. }),
                        _ => false,
                    }) {
                        linkers += 1;
                    }
                }
                PageKind::Target { declared_size, .. } => {
                    available += 1;
                    targets += 1;
                    sizes_mb.push(*declared_size as f64 / 1_048_576.0);
                    target_depths.push(f64::from(depth));
                }
                PageKind::Error { .. } | PageKind::Redirect { .. } => {}
            }
        }
        Census {
            available,
            targets,
            html,
            html_to_target_pct: if html > 0 { 100.0 * linkers as f64 / html as f64 } else { 0.0 },
            target_size_mb: mean_std(&sizes_mb),
            target_depth: mean_std(&target_depths),
        }
    }
}

impl SiteSource for Website {
    fn spec(&self) -> &SiteSpec {
        &self.spec
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn root(&self) -> PageId {
        self.root
    }

    fn n_pages(&self) -> usize {
        self.pages.len()
    }

    fn kind(&self, id: PageId) -> &PageKind {
        &self.page(id).kind
    }

    fn url(&self, id: PageId) -> &str {
        &self.page(id).url
    }

    fn title(&self, id: PageId) -> &str {
        &self.page(id).title
    }

    fn out_links(&self, id: PageId) -> &[OutLink] {
        &self.page(id).out
    }

    fn section_style(&self, section: u16) -> &SectionStyle {
        &self.section_styles[section as usize % self.section_styles.len()]
    }

    /// Single FxHash lookup — this is the server's per-request hot path.
    fn lookup(&self, url: &str) -> Option<PageId> {
        self.url_index.get(url).copied()
    }

    fn body_cache(&self) -> &BodyCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{build_site, SiteSpec};

    #[test]
    fn website_trait_view_matches_inherent_accessors() {
        let site = build_site(&SiteSpec::demo(200), 13);
        let src: &dyn SiteSource = &site;
        assert_eq!(src.n_pages(), site.len());
        assert_eq!(src.root(), site.root());
        for id in 0..site.len() as PageId {
            assert_eq!(src.url(id), site.page(id).url);
            assert_eq!(src.title(id), site.page(id).title);
            assert_eq!(src.kind(id), &site.page(id).kind);
            assert_eq!(src.out_links(id), site.page(id).out.as_slice());
        }
    }

    #[test]
    fn target_urls_enumerate_in_id_order() {
        let site = build_site(&SiteSpec::demo(150), 4);
        let urls = SiteSource::target_urls(&site);
        let expect: Vec<String> =
            site.target_ids().iter().map(|&id| site.page(id).url.clone()).collect();
        assert_eq!(urls, expect);
    }
}
