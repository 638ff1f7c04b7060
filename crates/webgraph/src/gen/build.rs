//! Website construction: turns a [`SiteSpec`] into a concrete page graph.
//!
//! The layout mirrors how the paper describes its sites (Sec 4.1, App B.1):
//! a root links to **section hubs**; hubs open onto optional **navigation
//! chains** (the `ju`/`in` multi-step navigation pathology); chains end in
//! paginated **catalogs** whose pages carry the links to targets; **articles**
//! fill the rest; dead URLs and redirects are sprinkled on top. Every link is
//! placed at a template [`Slot`], and each slot renders at a distinct DOM tag
//! path — the regularity the sleeping bandit learns.
//!
//! Construction is generic over a [`PageStore`]: the builder drives one
//! sequential RNG and calls the store only to record pages and links, so the
//! draw sequence — and therefore the generated graph — is identical for
//! every store. The eager store materialises [`SitePage`]s into a
//! [`Website`]; `sb-scale`'s packed store writes the same graph into dense
//! arenas for memory-bounded million-page sites.

use super::lexicon::{self, Lang};
use super::spec::SiteSpec;
use super::cache::{BodyCache, UNBOUNDED};
use super::{
    HtmlRole, OutLink, PageId, PageKind, SectionStyle, SitePage, Slot, Website,
    TARGET_CACHE_BUDGET,
};
use crate::mime::mime_for_extension;
use crate::interner::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sink the generic builder records pages and links into.
///
/// Implementations must assign ids densely in insertion order (`insert`
/// returning `len() - 1` afterwards) and must not consume randomness —
/// determinism of the generated graph rests on the builder owning the only
/// RNG. Read-backs (`url`, `kind`) are required because later construction
/// stages read earlier pages (pagination URLs, section inheritance).
// No `is_empty`: nothing asks; the trait goes with the eager store (ROADMAP 21(c)).
#[allow(clippy::len_without_is_empty)]
pub trait PageStore {
    /// Number of pages recorded so far.
    fn len(&self) -> usize;

    /// Whether `url` is already taken (the builder deduplicates URLs).
    fn contains_url(&self, url: &str) -> bool;

    /// Records a page, returning its dense id. `url` is unique by the time
    /// the builder calls this.
    fn insert(&mut self, url: String, kind: PageKind, title: String) -> PageId;

    /// Records a link out of `from` at template slot `slot`.
    fn add_link(&mut self, from: PageId, to: PageId, slot: Slot);

    /// URL of an already-recorded page.
    fn url(&self, id: PageId) -> &str;

    /// Kind of an already-recorded page.
    fn kind(&self, id: PageId) -> &PageKind;
}

/// The eager store behind [`build_site`]: materialised pages + URL index,
/// handed straight to [`Website`].
#[derive(Default)]
struct EagerStore {
    pages: Vec<SitePage>,
    url_index: FxHashMap<String, PageId>,
}

impl PageStore for EagerStore {
    fn len(&self) -> usize {
        self.pages.len()
    }

    fn contains_url(&self, url: &str) -> bool {
        self.url_index.contains_key(url)
    }

    fn insert(&mut self, url: String, kind: PageKind, title: String) -> PageId {
        let id = self.pages.len() as PageId;
        self.url_index.insert(url.clone(), id);
        self.pages.push(SitePage { url, kind, title, out: Vec::new() });
        id
    }

    fn add_link(&mut self, from: PageId, to: PageId, slot: Slot) {
        self.pages[from as usize].out.push(OutLink { to, slot });
    }

    fn url(&self, id: PageId) -> &str {
        &self.pages[id as usize].url
    }

    fn kind(&self, id: PageId) -> &PageKind {
        &self.pages[id as usize].kind
    }
}

/// Builds the website for `spec`, deterministically from `seed`.
pub fn build_site(spec: &SiteSpec, seed: u64) -> Website {
    let (store, root, styles) = build_with_store(spec, seed, EagerStore::default());
    Website {
        spec: spec.clone(),
        seed,
        root,
        cache: BodyCache::new(store.pages.len(), UNBOUNDED, TARGET_CACHE_BUDGET),
        pages: store.pages,
        url_index: store.url_index,
        section_styles: styles,
    }
}

/// Runs the deterministic site construction against an arbitrary
/// [`PageStore`], returning the filled store, the root page id and the
/// per-section styles. The recorded graph is identical for every store.
pub fn build_with_store<S: PageStore>(
    spec: &SiteSpec,
    seed: u64,
    store: S,
) -> (S, PageId, Vec<SectionStyle>) {
    Builder::new(spec.clone(), seed, store).build()
}

struct Builder<S: PageStore> {
    spec: SiteSpec,
    rng: StdRng,
    store: S,
    styles: Vec<SectionStyle>,
    base: String,
    /// HTML pages that will carry target links, in creation order.
    linkers: Vec<(PageId, Slot)>,
    section_slugs: Vec<String>,
}

impl<S: PageStore> Builder<S> {
    fn new(spec: SiteSpec, seed: u64, store: S) -> Self {
        let h = crate::fnv64(spec.code.as_bytes());
        let base = spec.start_url.trim_end_matches('/').to_owned();
        Builder {
            spec,
            rng: StdRng::seed_from_u64(seed ^ h),
            store,
            styles: Vec::new(),
            base,
            linkers: Vec::new(),
            section_slugs: Vec::new(),
        }
    }

    fn build(mut self) -> (S, PageId, Vec<SectionStyle>) {
        let n_targets = self.spec.n_targets();
        let n_html = self.spec.n_html();
        let sections = self.spec.structure.sections.clamp(1, (n_html / 6).max(1));
        // Fixed HTML overhead: root + hubs.
        let overhead = 1 + sections;
        let n_linkers = self.spec.n_linkers().min(n_html.saturating_sub(overhead).max(1));
        let mut filler_budget = n_html.saturating_sub(overhead + n_linkers);

        self.make_styles(sections);
        let root = self.push_root();
        let hubs: Vec<PageId> = (0..sections).map(|s| self.push_hub(s as u16)).collect();
        for &h in &hubs {
            self.link(root, h, Slot::TopicItem);
        }

        // Navigation chains below each hub, consuming filler.
        let mut tails: Vec<PageId> = Vec::with_capacity(sections);
        for (s, &hub) in hubs.iter().enumerate() {
            let want = self.sample_chain_len();
            let len = want.min(filler_budget);
            filler_budget -= len;
            tails.push(self.push_chain(s as u16, hub, len));
        }

        // Catalogs: distribute the linker pages over sections in runs.
        let run_len = self.spec.structure.catalog_run.max(1);
        let mut remaining = n_linkers;
        let mut section_cursor = 0usize;
        while remaining > 0 {
            let s = section_cursor % sections;
            section_cursor += 1;
            let this_run = run_len.min(remaining);
            remaining -= this_run;
            let attach = tails[s];
            self.push_catalog_run(s as u16, attach, this_run);
        }

        // Articles fill the remaining HTML budget.
        let article_ids = self.push_articles(filler_budget);

        // A slice of linkers become article-style (Download slot) linkers:
        // re-slot roughly one in five.
        let n = self.linkers.len();
        for i in 0..n {
            if i % 5 == 4 {
                self.linkers[i].1 = Slot::Download;
            }
        }

        // Targets.
        self.push_targets(n_targets);

        // Dead URLs and redirects.
        let n_err = ((self.spec.n_pages as f64) * self.spec.error_frac).round() as usize;
        self.push_errors(n_err);
        let n_red = ((self.spec.n_pages as f64) * self.spec.redirect_frac).round() as usize;
        self.push_redirects(n_red);

        // Chrome: nav, breadcrumbs, footers on all HTML pages.
        self.add_chrome(&hubs, &article_ids);

        (self.store, root, self.styles)
    }

    // ------------------------------------------------------------------
    // Styles and URLs
    // ------------------------------------------------------------------

    fn make_styles(&mut self, sections: usize) {
        let list_classes = ["datasets", "downloads", "resources", "items files", "documents"];
        let link_classes = ["download", "dataset", "fr-link fr-link--download", "doc-link", "file"];
        for s in 0..sections {
            let lang = if self.spec.multilingual {
                self.spec.languages[s % self.spec.languages.len()]
            } else {
                self.spec.languages[0]
            };
            let theme = lexicon::pick(&mut self.rng, lexicon::nouns(lang)).to_owned();
            self.styles.push(SectionStyle {
                lang,
                content_classes: vec!["content".to_owned(), format!("content--{theme}")],
                list_class: list_classes[s % list_classes.len()].to_owned(),
                link_class: link_classes[s % link_classes.len()].to_owned(),
                wrapper_divs: (s % 3) as u8,
            });
        }
    }

    fn lang_of(&self, section: u16) -> Lang {
        self.styles[section as usize % self.styles.len()].lang
    }

    fn push_page(&mut self, mut url: String, kind: PageKind, title: String) -> PageId {
        // Deduplicate URLs deterministically.
        if self.store.contains_url(&url) {
            let mut n = 2;
            let (stem, ext) = match url.rsplit_once('.') {
                Some((s, e)) if e.len() <= 5 && !e.contains('/') => (s.to_owned(), format!(".{e}")),
                _ => (url.clone(), String::new()),
            };
            loop {
                let cand = format!("{stem}-{n}{ext}");
                if !self.store.contains_url(&cand) {
                    url = cand;
                    break;
                }
                n += 1;
            }
        }
        self.store.insert(url, kind, title)
    }

    fn link(&mut self, from: PageId, to: PageId, slot: Slot) {
        self.store.add_link(from, to, slot);
    }

    fn html_url(&mut self, section: u16, role: &str) -> String {
        let lang = self.lang_of(section);
        let slug = lexicon::slug(&mut self.rng, lang);
        if self.rng.gen_bool(self.spec.extensionless) {
            let id: u32 = self.rng.gen_range(1000..10_000_000);
            format!("{}/node/{}", self.base, id)
        } else {
            let sec = self
                .section_slugs
                .get(section as usize)
                .cloned()
                .unwrap_or_else(|| "site".to_owned());
            match role {
                "list" => format!("{}/{}/{}", self.base, sec, slug),
                _ => format!("{}/{}/{}.html", self.base, sec, slug),
            }
        }
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    fn push_root(&mut self) -> PageId {
        let url = format!("{}/", self.base);
        self.push_page(url, PageKind::Html(HtmlRole::Root), self.spec.name.to_owned())
    }

    fn push_hub(&mut self, section: u16) -> PageId {
        let lang = self.lang_of(section);
        let slug = lexicon::slug(&mut self.rng, lang);
        self.section_slugs.push(slug.clone());
        let url = format!("{}/{}/", self.base, slug);
        let title = lexicon::title(&mut self.rng, lang);
        self.push_page(url, PageKind::Html(HtmlRole::SectionHub { section }), title)
    }

    /// A chain hub → c1 → … → ck; returns the tail (the hub if `len == 0`).
    fn push_chain(&mut self, section: u16, hub: PageId, len: usize) -> PageId {
        let mut prev = hub;
        for pos in 0..len {
            let lang = self.lang_of(section);
            let url = self.html_url(section, "chain");
            let title = lexicon::title(&mut self.rng, lang);
            let id = self.push_page(
                url,
                PageKind::Html(HtmlRole::Chain { section, pos: pos as u16 }),
                title,
            );
            let slot = if prev == hub { Slot::TopicItem } else { Slot::Related };
            self.link(prev, id, slot);
            prev = id;
        }
        prev
    }

    fn push_catalog_run(&mut self, section: u16, attach: PageId, len: usize) {
        let lang = self.lang_of(section);
        let mut prev = attach;
        for page_no in 0..len {
            let url = if page_no == 0 {
                self.html_url(section, "list")
            } else {
                // Pagination: either a /page/N path or a ?page=N query.
                let first = self.store.url(prev);
                if self.rng.gen_bool(0.5) && !first.contains('?') {
                    format!("{}/page/{}", first.trim_end_matches('/'), page_no + 1)
                } else {
                    format!("{}?page={}", first.split('?').next().unwrap_or(first), page_no + 1)
                }
            };
            let title = lexicon::title(&mut self.rng, lang);
            let id = self.push_page(
                url,
                PageKind::Html(HtmlRole::List { section, page_no: page_no as u16 }),
                title,
            );
            let slot = if page_no == 0 { Slot::TopicItem } else { Slot::Pagination };
            self.link(prev, id, slot);
            self.linkers.push((id, Slot::DatasetItem));
            prev = id;
        }
    }

    fn push_articles(&mut self, n: usize) -> Vec<PageId> {
        // Articles attach to list pages (preferred) or hubs, and cross-link.
        let attach_points: Vec<PageId> = (0..self.store.len() as PageId)
            .filter(|&id| {
                matches!(
                    self.store.kind(id),
                    PageKind::Html(HtmlRole::List { .. })
                        | PageKind::Html(HtmlRole::SectionHub { .. })
                )
            })
            .collect();
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let parent = if attach_points.is_empty() {
                0
            } else {
                attach_points[self.rng.gen_range(0..attach_points.len())]
            };
            let section = match self.store.kind(parent) {
                PageKind::Html(role) => role.section(),
                _ => 0,
            };
            let lang = self.lang_of(section);
            let url = self.html_url(section, "article");
            let title = lexicon::title(&mut self.rng, lang);
            let id = self.push_page(url, PageKind::Html(HtmlRole::Article { section }), title);
            self.link(parent, id, Slot::ListItem);
            // Cross links among already-created articles.
            let n_rel = poisson_ish(&mut self.rng, self.spec.structure.related_per_article);
            for _ in 0..n_rel {
                if let Some(&other) = pick_opt(&mut self.rng, &ids) {
                    if other != id {
                        self.link(id, other, Slot::Related);
                    }
                }
            }
            ids.push(id);
        }
        ids
    }

    fn push_targets(&mut self, n_targets: usize) {
        assert!(!self.linkers.is_empty(), "catalog construction must precede targets");
        // Zipf-ish allocation of targets to linker pages: heavy tail, every
        // linker gets at least one (this is what makes Table 6 rewards
        // "more closely resemble a power law").
        let k = self.linkers.len();
        let weights: Vec<f64> = (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(0.85)).collect();
        let wsum: f64 = weights.iter().sum();
        let mut alloc: Vec<usize> = vec![1; k];
        let left = n_targets.saturating_sub(k) as f64;
        for i in 0..k {
            let extra = (left * weights[i] / wsum).floor();
            alloc[i] += extra as usize;
        }
        let assigned: usize = alloc.iter().sum();
        for _ in assigned..n_targets {
            let i = self.rng.gen_range(0..k.clamp(1, 3));
            alloc[i] += 1;
        }
        // Shuffle which linker is "big" so the first catalogs aren't always
        // the rich ones.
        for i in (1..k).rev() {
            let j = self.rng.gen_range(0..=i);
            alloc.swap(i, j);
        }

        let (size_mu, size_sigma) = lognormal_params(self.spec.target_size_mb);
        let mut created = 0usize;
        let mut all_targets: Vec<PageId> = Vec::with_capacity(n_targets);
        for (li, &(linker, slot)) in self.linkers.clone().iter().enumerate() {
            for _ in 0..alloc[li] {
                if created >= n_targets {
                    break;
                }
                let id = self.push_one_target(linker, slot, size_mu, size_sigma);
                all_targets.push(id);
                created += 1;
            }
        }
        // ~8 % duplicate links: a second page links to an existing target
        // (exercises the novelty reward).
        let dup = (n_targets as f64 * 0.08).round() as usize;
        for _ in 0..dup {
            let t = all_targets[self.rng.gen_range(0..all_targets.len())];
            let (linker, slot) = self.linkers[self.rng.gen_range(0..self.linkers.len())];
            self.link(linker, t, slot);
        }
    }

    fn push_one_target(&mut self, linker: PageId, slot: Slot, mu: f64, sigma: f64) -> PageId {
        let section = match self.store.kind(linker) {
            PageKind::Html(role) => role.section(),
            _ => 0,
        };
        let lang = self.lang_of(section);
        let ext = self.sample_ext();
        let mime = mime_for_extension(ext).unwrap_or("application/octet-stream");
        let size_mb = sample_lognormal(&mut self.rng, mu, sigma);
        let declared_size = (size_mb * 1_048_576.0).max(256.0) as u64;
        let planted_tables = if self.rng.gen_bool(self.spec.sd_yield) {
            1 + poisson_ish(&mut self.rng, (self.spec.sd_per_target - 1.0).max(0.0)) as u16
        } else {
            0
        };
        let slugv = lexicon::slug(&mut self.rng, lang);
        let url = if self.rng.gen_bool(self.spec.extensionless) {
            let id: u32 = self.rng.gen_range(1000..10_000_000);
            format!("{}/download/{}", self.base, id)
        } else {
            format!("{}/files/{}.{}", self.base, slugv, ext)
        };
        let dl = lexicon::pick(&mut self.rng, lexicon::download_words(lang));
        let title = format!("{dl} ({})", ext.to_ascii_uppercase());
        let id = self.push_page(
            url,
            PageKind::Target { ext, mime, declared_size, planted_tables },
            title,
        );
        self.link(linker, id, slot);
        id
    }

    fn sample_ext(&mut self) -> &'static str {
        let r: f64 = self.rng.gen();
        let mut acc = 0.0;
        for &(ext, w) in self.spec.palette {
            acc += w;
            if r <= acc {
                return ext;
            }
        }
        self.spec.palette.last().map(|&(e, _)| e).unwrap_or("pdf")
    }

    fn push_errors(&mut self, n: usize) {
        let html_pages: Vec<PageId> = self.html_ids();
        for _ in 0..n {
            let target_like = self.rng.gen_bool(0.4);
            let section = self.rng.gen_range(0..self.styles.len()) as u16;
            let lang = self.lang_of(section);
            let url = if target_like {
                let slugv = lexicon::slug(&mut self.rng, lang);
                let ext = self.sample_ext();
                format!("{}/files/{}.{}", self.base, slugv, ext)
            } else {
                self.html_url(section, "article")
            };
            let status = if self.rng.gen_bool(0.8) { 404 } else { 500 };
            let title = lexicon::title(&mut self.rng, lang);
            let id = self.push_page(url, PageKind::Error { status }, title);
            // Link from 1–3 pages, in slots matching the URL's disguise.
            let n_links = self.rng.gen_range(1..=3);
            for _ in 0..n_links {
                if let Some(&from) = pick_opt(&mut self.rng, &html_pages) {
                    let slot = if target_like { Slot::DatasetItem } else { Slot::Footer };
                    self.link(from, id, slot);
                }
            }
        }
    }

    fn push_redirects(&mut self, n: usize) {
        let html_pages: Vec<PageId> = self.html_ids();
        let destinations: Vec<PageId> = (0..self.store.len() as PageId)
            .filter(|&id| {
                matches!(self.store.kind(id), PageKind::Html(_) | PageKind::Target { .. })
            })
            .collect();
        let mut prev_redirect: Option<PageId> = None;
        for i in 0..n {
            let to = if i % 7 == 6 {
                // Occasional redirect → redirect chain.
                prev_redirect.unwrap_or(destinations[self.rng.gen_range(0..destinations.len())])
            } else {
                destinations[self.rng.gen_range(0..destinations.len())]
            };
            let section = self.rng.gen_range(0..self.styles.len()) as u16;
            let lang = self.lang_of(section);
            let slugv = lexicon::slug(&mut self.rng, lang);
            let url = format!("{}/go/{}", self.base, slugv);
            let title = lexicon::title(&mut self.rng, lang);
            let id = self.push_page(url, PageKind::Redirect { to }, title);
            prev_redirect = Some(id);
            if let Some(&from) = pick_opt(&mut self.rng, &html_pages) {
                self.link(from, id, Slot::Footer);
            }
        }
    }

    fn add_chrome(&mut self, hubs: &[PageId], articles: &[PageId]) {
        let root = 0 as PageId;
        let html_ids = self.html_ids();
        for &id in &html_ids {
            let role = match self.store.kind(id) {
                PageKind::Html(r) => *r,
                _ => continue,
            };
            // Nav: root + up to 4 hubs.
            self.link(id, root, Slot::Nav);
            for &h in hubs.iter().take(4) {
                if h != id {
                    self.link(id, h, Slot::Nav);
                }
            }
            // Breadcrumb to the own section hub.
            let sec = role.section() as usize;
            if sec < hubs.len() && hubs[sec] != id && !matches!(role, HtmlRole::Root) {
                self.link(id, hubs[sec], Slot::Breadcrumb);
            }
            // Footer: a couple of random articles.
            for _ in 0..2 {
                if let Some(&a) = pick_opt(&mut self.rng, articles) {
                    if a != id {
                        self.link(id, a, Slot::Footer);
                    }
                }
            }
        }
    }

    fn html_ids(&self) -> Vec<PageId> {
        (0..self.store.len() as PageId)
            .filter(|&id| matches!(self.store.kind(id), PageKind::Html(_)))
            .collect()
    }

    fn sample_chain_len(&mut self) -> usize {
        let st = &self.spec.structure;
        if st.chain_mean <= 0.0 {
            return 0;
        }
        let x = sample_normal(&mut self.rng, st.chain_mean, st.chain_std);
        x.max(0.0).round() as usize
    }
}

// ----------------------------------------------------------------------
// Sampling helpers (hand-rolled: `rand_distr` is out of the dependency set)
// ----------------------------------------------------------------------

/// Standard normal via Box–Muller.
fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std * z
}

/// Log-normal parameterised by the mean/std of the *resulting* distribution.
pub fn lognormal_params((mean, std): (f64, f64)) -> (f64, f64) {
    let mean = mean.max(1e-6);
    let sigma2 = (1.0 + (std * std) / (mean * mean)).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu, sigma2.sqrt())
}

pub fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    sample_normal(rng, mu, sigma).exp()
}

/// Small-λ Poisson by inversion; good enough for link counts.
pub fn poisson_ish<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 1000 {
            return k;
        }
        k += 1;
    }
}

fn pick_opt<'a, R: Rng + ?Sized, T>(rng: &mut R, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{SiteSource, SiteSpec};

    #[test]
    fn builds_and_counts_match_spec() {
        let spec = SiteSpec::demo(800);
        let site = build_site(&spec, 1);
        let c = site.census();
        // All structural pages reachable; counts within a few % of the spec.
        let want_targets = spec.n_targets();
        assert!(
            (c.targets as f64 - want_targets as f64).abs() / (want_targets as f64) < 0.05,
            "targets {} vs spec {}",
            c.targets,
            want_targets
        );
        assert!(
            (c.available as f64 - spec.n_pages as f64).abs() / (spec.n_pages as f64) < 0.05,
            "available {} vs spec {}",
            c.available,
            spec.n_pages
        );
    }

    #[test]
    fn deterministic() {
        let spec = SiteSpec::demo(300);
        let a = build_site(&spec, 7);
        let b = build_site(&spec, 7);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.pages().iter().zip(b.pages().iter()) {
            assert_eq!(pa.url, pb.url);
            assert_eq!(pa.out.len(), pb.out.len());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = SiteSpec::demo(300);
        let a = build_site(&spec, 1);
        let b = build_site(&spec, 2);
        let same = a
            .pages()
            .iter()
            .zip(b.pages().iter())
            .filter(|(x, y)| x.url == y.url)
            .count();
        assert!(same < a.len(), "seeds should produce different URL sets");
    }

    #[test]
    fn all_targets_reachable() {
        let spec = SiteSpec::demo(500);
        let site = build_site(&spec, 3);
        let depths = site.source_depths();
        for id in site.target_ids() {
            assert!(depths[id as usize].is_some(), "target {id} unreachable");
        }
    }

    #[test]
    fn urls_unique_and_on_site() {
        let spec = SiteSpec::demo(400);
        let site = build_site(&spec, 4);
        let mut seen = std::collections::HashSet::new();
        let root = crate::url::Url::parse(spec.start_url).unwrap();
        for p in site.pages() {
            assert!(seen.insert(p.url.clone()), "duplicate URL {}", p.url);
            let u = crate::url::Url::parse(&p.url).unwrap();
            assert!(u.same_site_as(&root), "off-site URL {}", p.url);
        }
    }

    #[test]
    fn deep_profile_has_deep_targets() {
        let mut spec = SiteSpec::demo(900);
        spec.structure.chain_mean = 30.0;
        spec.structure.chain_std = 10.0;
        let site = build_site(&spec, 5);
        let c = site.census();
        assert!(c.target_depth.0 > 15.0, "mean target depth {}", c.target_depth.0);
    }

    #[test]
    fn lognormal_params_roundtrip() {
        use rand::{rngs::StdRng, SeedableRng};
        let (mu, sigma) = lognormal_params((2.0, 6.0));
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| sample_lognormal(&mut rng, mu, sigma)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.15, "empirical mean {mean}");
    }

    #[test]
    fn errors_present_but_unavailable() {
        let spec = SiteSpec::demo(500);
        let site = build_site(&spec, 6);
        let n_err = site
            .pages()
            .iter()
            .filter(|p| matches!(p.kind, PageKind::Error { .. }))
            .count();
        assert!(n_err > 0);
        let c = site.census();
        assert_eq!(c.available, c.html + c.targets);
    }

    #[test]
    fn html_to_target_fraction_close() {
        let spec = SiteSpec::demo(2000);
        let site = build_site(&spec, 8);
        let c = site.census();
        let want = spec.html_to_target_frac * 100.0;
        assert!(
            (c.html_to_target_pct - want).abs() < want * 0.5 + 2.0,
            "HTML-to-target {}% vs spec {}%",
            c.html_to_target_pct,
            want
        );
    }

    /// A store that only records counts — proves the builder never reads
    /// more than the [`PageStore`] surface and that ids are store-agnostic.
    struct CountingStore {
        inner: EagerStore,
        inserts: usize,
        links: usize,
    }

    impl PageStore for CountingStore {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn contains_url(&self, url: &str) -> bool {
            self.inner.contains_url(url)
        }
        fn insert(&mut self, url: String, kind: PageKind, title: String) -> PageId {
            self.inserts += 1;
            self.inner.insert(url, kind, title)
        }
        fn add_link(&mut self, from: PageId, to: PageId, slot: Slot) {
            self.links += 1;
            self.inner.add_link(from, to, slot)
        }
        fn url(&self, id: PageId) -> &str {
            self.inner.url(id)
        }
        fn kind(&self, id: PageId) -> &PageKind {
            self.inner.kind(id)
        }
    }

    #[test]
    fn build_is_store_agnostic() {
        let spec = SiteSpec::demo(300);
        let site = build_site(&spec, 21);
        let store = CountingStore { inner: EagerStore::default(), inserts: 0, links: 0 };
        let (store, root, styles) = build_with_store(&spec, 21, store);
        assert_eq!(root, site.root());
        assert!(!styles.is_empty());
        assert_eq!(store.inserts, site.len());
        assert_eq!(store.links, site.pages().iter().map(|p| p.out.len()).sum::<usize>());
        for (id, p) in site.pages().iter().enumerate() {
            assert_eq!(store.inner.url(id as PageId), p.url);
            assert_eq!(store.inner.kind(id as PageId), &p.kind);
            assert_eq!(store.inner.pages[id].out, p.out);
            assert_eq!(store.inner.pages[id].title, p.title);
        }
    }
}
