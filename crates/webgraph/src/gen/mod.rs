//! Synthetic website generation.
//!
//! The paper evaluates on 18 live websites totalling 22.2 M pages; those are
//! not reproducible offline, so this module builds **synthetic websites**
//! whose crawler-observable behaviour matches the published site statistics
//! (Table 1): page counts, target density, the share of HTML pages linking to
//! targets, target size and depth distributions, multilingual sections,
//! extensionless URLs, dead links and redirects. Most importantly it
//! reproduces the *structural regularity* that the whole method rests on:
//! links on the same DOM tag path lead to the same kind of content.
//!
//! A [`Website`] is a fully materialised page graph; HTML bodies are rendered
//! on demand (deterministically) and re-parsed by the crawler through
//! `sb-html`, so the tag paths the crawler sees are produced by a real
//! parse, not injected. Building a site renders nothing: bodies and sizes
//! are served through the [`BodyCache`] every [`SiteSource`] shares, and a
//! mutation empties it.

pub mod build;
pub mod cache;
pub mod hazard;
pub mod lexicon;
pub mod profiles;
pub mod render;
mod source;
mod spec;

pub use build::{build_site, build_with_store, PageStore};
pub use cache::BodyCache;
pub use hazard::{apply_hazards, HazardReport, HazardSpec};
pub use lexicon::Lang;
pub use profiles::{paper_profiles, profile};
pub use source::SiteSource;
pub use spec::{MimePalette, SiteSpec, StructureSpec};

use crate::interner::FxHashMap;

/// Index of a page within its [`Website`].
pub type PageId = u32;

/// Where in the page template a link lives; each slot renders at a distinct
/// DOM tag path, which is what the bandit's action clustering learns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Header navigation — to the root and section hubs.
    Nav,
    /// Breadcrumb — to the enclosing section hub.
    Breadcrumb,
    /// Section hub topic list — to chains/catalogs/articles.
    TopicItem,
    /// Catalog list entry — to an article page.
    ListItem,
    /// Catalog dataset entry — **to a target**.
    DatasetItem,
    /// Article download box — **to a target**.
    Download,
    /// Catalog pagination — to the next catalog page (target-rich!).
    Pagination,
    /// Article cross-reference.
    Related,
    /// Footer links — misc pages, occasionally dead.
    Footer,
    /// Embedded iframe.
    Embed,
}

impl Slot {
    pub const ALL: [Slot; 10] = [
        Slot::Nav,
        Slot::Breadcrumb,
        Slot::TopicItem,
        Slot::ListItem,
        Slot::DatasetItem,
        Slot::Download,
        Slot::Pagination,
        Slot::Related,
        Slot::Footer,
        Slot::Embed,
    ];
}

/// Role of an HTML page in the site structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtmlRole {
    /// The start page.
    Root,
    /// A section hub.
    SectionHub { section: u16 },
    /// A navigation-chain page (`pos` steps below the hub).
    Chain { section: u16, pos: u16 },
    /// A catalog (list) page; `page_no` within its pagination run.
    List { section: u16, page_no: u16 },
    /// A content/article page.
    Article { section: u16 },
}

impl HtmlRole {
    pub fn section(&self) -> u16 {
        match *self {
            HtmlRole::Root => 0,
            HtmlRole::SectionHub { section }
            | HtmlRole::Chain { section, .. }
            | HtmlRole::List { section, .. }
            | HtmlRole::Article { section } => section,
        }
    }
}

/// What a URL resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageKind {
    Html(HtmlRole),
    Target {
        /// File extension used for URL/MIME synthesis (may be hidden by an
        /// extensionless URL).
        ext: &'static str,
        mime: &'static str,
        /// Content-Length the server declares (bodies are truncated to a cap;
        /// cost accounting uses this declared size).
        declared_size: u64,
        /// Ground truth for Table 7: statistic tables planted in the body.
        planted_tables: u16,
    },
    Error { status: u16 },
    Redirect { to: PageId },
}

/// A link from one page to another, placed at a template slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutLink {
    pub to: PageId,
    pub slot: Slot,
}

/// One URL of the site.
#[derive(Debug, Clone)]
pub struct SitePage {
    /// Absolute URL.
    pub url: String,
    pub kind: PageKind,
    /// Anchor title used by pages linking here.
    pub title: String,
    /// Outgoing links (HTML pages only).
    pub out: Vec<OutLink>,
}

/// Per-section rendering style: the DOM dialect of that part of the site.
#[derive(Debug, Clone)]
pub struct SectionStyle {
    pub lang: Lang,
    /// Class on the main content container, e.g. `content content--justice`.
    pub content_classes: Vec<String>,
    /// Class on the dataset list (`datasets`, `downloads`, …).
    pub list_class: String,
    /// Class on the target link anchors.
    pub link_class: String,
    /// Extra wrapper `<div class="wrap">`s around the main content.
    pub wrapper_divs: u8,
}

/// A fully generated website. A clone starts with a cold cache under the
/// same budgets.
#[derive(Debug, Clone)]
pub struct Website {
    spec: SiteSpec,
    seed: u64,
    root: PageId,
    pages: Vec<SitePage>,
    url_index: FxHashMap<String, PageId>,
    section_styles: Vec<SectionStyle>,
    /// Shared by everything holding this instance (notably every
    /// `SiteServer` over an `Arc<Website>`) and emptied by every mutation:
    /// HTML bodies unbounded ([`cache::UNBOUNDED`]), so each page renders
    /// at most once between mutations; target payloads under
    /// [`TARGET_CACHE_BUDGET`].
    cache: BodyCache,
}

/// Default per-site budget for cached target payloads (target bodies can
/// reach `content::BODY_CAP` each, so caching them is bounded).
pub(crate) const TARGET_CACHE_BUDGET: u64 = 256 << 20;

impl Website {
    pub fn root(&self) -> PageId {
        self.root
    }

    // No `is_empty` (a site holds its root); goes with the eager store (ROADMAP 21(c)).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn page(&self, id: PageId) -> &SitePage {
        &self.pages[id as usize]
    }

    pub fn pages(&self) -> &[SitePage] {
        &self.pages
    }

    /// Replaces the target-payload cache budget (builder knob; set before
    /// serving). The default is 256 MiB.
    pub fn with_target_cache_budget(self, bytes: u64) -> Self {
        Website { cache: self.cache.with_target_budget(bytes), ..self }
    }

    /// Total number of target pages.
    pub fn n_targets(&self) -> usize {
        self.pages.iter().filter(|p| matches!(p.kind, PageKind::Target { .. })).count()
    }

    /// Appends a page to the site, registering its URL.
    ///
    /// Used by the incremental-recrawl substrate (`sb-revisit`) to model a
    /// site publishing new content between crawls. Returns an error if the
    /// URL is already taken — every URL resolves to exactly one page.
    pub fn push_page(&mut self, page: SitePage) -> Result<PageId, DuplicateUrl> {
        if self.url_index.contains_key(&page.url) {
            return Err(DuplicateUrl(page.url.clone()));
        }
        let id = self.pages.len() as PageId;
        self.url_index.insert(page.url.clone(), id);
        self.pages.push(page);
        self.cache.clear(self.pages.len());
        Ok(id)
    }

    /// Adds an outgoing link to an existing HTML page (a catalog gaining a
    /// new dataset entry, say). The rendered body of `from` changes
    /// accordingly, which is exactly what revisit policies detect. Panics if
    /// `from` is not an HTML page or either id is out of range.
    pub fn add_out_link(&mut self, from: PageId, link: OutLink) {
        assert!((link.to as usize) < self.pages.len(), "link target out of range");
        let page = &mut self.pages[from as usize];
        assert!(
            matches!(page.kind, PageKind::Html(_)),
            "out-links can only be added to HTML pages"
        );
        page.out.push(link);
        self.cache.clear(self.pages.len());
    }

    /// Replaces the kind of a page in place (a target growing a revision, a
    /// page dying with `Error { status: 410 }`, …). The URL is unchanged.
    /// Pages linking here may render differently too (nav and anchor
    /// wording read the linked page's kind), so the whole cache is emptied.
    pub fn set_kind(&mut self, id: PageId, kind: PageKind) {
        self.pages[id as usize].kind = kind;
        self.cache.clear(self.pages.len());
    }
}

/// Error returned by [`Website::push_page`] when the URL is already taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateUrl(pub String);

impl std::fmt::Display for DuplicateUrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "URL already present in site: {}", self.0)
    }
}

impl std::error::Error for DuplicateUrl {}

/// Site statistics in the shape of a Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Census {
    /// Reachable non-error pages.
    pub available: usize,
    pub targets: usize,
    pub html: usize,
    /// % of HTML pages linking to ≥ 1 target.
    pub html_to_target_pct: f64,
    /// (mean, std) of target sizes in MB.
    pub target_size_mb: (f64, f64),
    /// (mean, std) of target BFS depths.
    pub target_depth: (f64, f64),
}

pub(crate) fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod mutation_tests {
    use super::*;
    use crate::gen::build::build_site;
    use crate::gen::spec::SiteSpec;
    use crate::mime::UrlClass;

    fn small_site() -> Website {
        build_site(&SiteSpec::demo(80), 7)
    }

    #[test]
    fn push_page_registers_url() {
        let mut site = small_site();
        let n = site.len();
        let id = site
            .push_page(SitePage {
                url: "https://www.demo.example/updates/new-dataset.csv".to_owned(),
                kind: PageKind::Target {
                    ext: "csv",
                    mime: "text/csv",
                    declared_size: 4096,
                    planted_tables: 1,
                },
                title: "New dataset".to_owned(),
                out: Vec::new(),
            })
            .expect("fresh URL");
        assert_eq!(id as usize, n);
        assert_eq!(site.lookup("https://www.demo.example/updates/new-dataset.csv"), Some(id));
        assert_eq!(site.true_class(id), UrlClass::Target);
    }

    #[test]
    fn push_page_rejects_duplicate_url() {
        let mut site = small_site();
        let existing = site.page(site.root()).url.clone();
        let err = site
            .push_page(SitePage {
                url: existing.clone(),
                kind: PageKind::Error { status: 404 },
                title: String::new(),
                out: Vec::new(),
            })
            .unwrap_err();
        assert_eq!(err, DuplicateUrl(existing));
    }

    #[test]
    fn add_out_link_changes_rendered_body() {
        let mut site = small_site();
        let root = site.root();
        let before = render::render_page(&site, root);
        let id = site
            .push_page(SitePage {
                url: "https://www.demo.example/updates/e1/d0.csv".to_owned(),
                kind: PageKind::Target {
                    ext: "csv",
                    mime: "text/csv",
                    declared_size: 1024,
                    planted_tables: 0,
                },
                title: "Quarterly counts".to_owned(),
                out: Vec::new(),
            })
            .unwrap();
        site.add_out_link(root, OutLink { to: id, slot: Slot::DatasetItem });
        let after = render::render_page(&site, root);
        assert_ne!(before, after, "a new dataset link must change the page body");
        assert!(after.contains("d0.csv"));
    }

    #[test]
    #[should_panic(expected = "out-links can only be added to HTML pages")]
    fn add_out_link_rejects_non_html_source() {
        let mut site = small_site();
        let target = site.target_ids()[0];
        let root = site.root();
        site.add_out_link(target, OutLink { to: root, slot: Slot::Related });
    }

    #[test]
    fn set_kind_kills_a_page() {
        let mut site = small_site();
        // Find an article to kill: any non-root HTML page.
        let victim = (0..site.len() as PageId)
            .find(|&id| id != site.root() && matches!(site.page(id).kind, PageKind::Html(_)))
            .expect("site has more than one HTML page");
        site.set_kind(victim, PageKind::Error { status: 410 });
        assert_eq!(site.true_class(victim), UrlClass::Neither);
        // The URL still resolves (to the tombstone).
        assert_eq!(site.lookup(&site.page(victim).url.clone()), Some(victim));
    }

    #[test]
    fn set_kind_empties_the_cache() {
        let mut site = small_site();
        let target = site.target_ids()[0];
        let body = site.target_payload(target);
        assert_eq!(site.body_cache().cached_body_bytes(), body.len() as u64);
        site.set_kind(target, PageKind::Error { status: 410 });
        assert_eq!(site.body_cache().cached_body_bytes(), 0, "a mutation must empty the cache");
    }

    #[test]
    fn set_kind_invalidates_pages_linking_to_the_mutated_page() {
        let mut site = small_site();
        let root = site.root();
        let victim = site.page(root).out[0].to;
        let before = site.rendered(root);
        let renders = site.render_count();
        site.set_kind(victim, PageKind::Error { status: 410 });
        // The root links to the victim, so its cached body must have been
        // dropped; the fresh render reflects the new site state.
        let after = site.rendered(root);
        assert_eq!(site.render_count(), renders + 1, "root body must re-render");
        let fresh = crate::gen::render::render_page(&site, root);
        assert_eq!(&after[..], fresh.as_bytes());
        let _ = before;
    }

    #[test]
    fn small_target_budget_bounds_cached_payloads() {
        let site = small_site().with_target_cache_budget(1);
        let target = site.target_ids()[0];
        let a = site.target_payload(target);
        let b = site.target_payload(target);
        assert_eq!(&a[..], &b[..]);
        assert_eq!(site.body_cache().cached_body_bytes(), 0, "payload larger than budget: not cached");
    }

    #[test]
    fn census_counts_pushed_targets_only_when_reachable() {
        let mut site = small_site();
        let before = site.census();
        let id = site
            .push_page(SitePage {
                url: "https://www.demo.example/orphan.csv".to_owned(),
                kind: PageKind::Target {
                    ext: "csv",
                    mime: "text/csv",
                    declared_size: 2048,
                    planted_tables: 0,
                },
                title: "Orphan".to_owned(),
                out: Vec::new(),
            })
            .unwrap();
        // Unreachable: census unchanged.
        assert_eq!(site.census().targets, before.targets);
        site.add_out_link(site.root(), OutLink { to: id, slot: Slot::DatasetItem });
        assert_eq!(site.census().targets, before.targets + 1);
    }
}
