//! Streaming site representation: the eager `Website`'s graph, packed.
//!
//! [`PackedStore`] is a [`PageStore`] that records the deterministic build
//! into dense structures — one concatenated text arena each for URLs and
//! titles (two `u32` offsets per page instead of two `String` headers +
//! heap blocks), a flat edge list, and a 64-bit-fingerprint URL index.
//! [`stream_site`] runs the *same* generic builder as
//! `sb_webgraph::build_site` against it; because stores consume no
//! randomness, the recorded graph is identical page-for-page, link-for-link
//! to the eager site's.
//!
//! The finalised [`StreamingSite`] implements `SiteSource` and serves
//! through the same `sb_webgraph::gen::BodyCache` as the eager site —
//! bodies rendered on demand by the one renderer, generic over the trait —
//! under budgets far below the site instead of unbounded ones. Rendered
//! output is byte-identical to the eager site's, pinned by proptest; what
//! changes is only the resident footprint, which stays
//! `O(arena + cache budgets)` instead of `O(pages × body)`.
//!
//! A BFS fetches each page once, so at streaming scale the cache mostly
//! misses and **a miss is the per-request cost of the origin**. The
//! contract of a miss (guarded by `tests/alloc_guard_stream.rs`): the page
//! is streamed by the one emitter, `render::render_page_into`, in RNG draw
//! order into the *thread's* reused buffer — owned by
//! `render::with_rendered`, one page-sized `String` per serving thread,
//! never by the site — and copied once into an exact-sized `Arc<[u8]>`;
//! URLs and titles are sliced out of the arenas, not copied or
//! re-validated. The cache stays because HEAD-then-GET strategies do hit
//! it: the first HEAD of a page renders to size it and the GET that
//! follows is an `Arc` clone.

use sb_webgraph::gen::{build_with_store, BodyCache, PageStore, SiteSource, SiteSpec};
use sb_webgraph::interner::FxHashMap;
use sb_webgraph::{fnv64, Csr, PageId, PageKind};
use sb_webgraph::gen::{OutLink, SectionStyle, Slot};
use std::collections::hash_map::Entry;

/// Default render-body cache budget for streaming sites: 16 MiB — a few
/// thousand typical pages, far below `O(site)`.
pub const STREAM_RENDER_CACHE_BUDGET: u64 = 16 << 20;

/// Default target-payload cache budget for streaming sites.
pub const STREAM_TARGET_CACHE_BUDGET: u64 = 64 << 20;

/// Concatenated strings: one shared text buffer + an offset per entry.
#[derive(Debug)]
struct StrArena {
    text: String,
    /// `offsets[i]..offsets[i + 1]` is entry `i`; length `len + 1`.
    offsets: Vec<u32>,
}

impl StrArena {
    fn new() -> Self {
        StrArena { text: String::new(), offsets: vec![0] }
    }

    fn push(&mut self, s: &str) {
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("arena under 4 GiB");
        self.offsets.push(end);
    }

    fn get(&self, i: usize) -> &str {
        // Entries are pushed as whole `&str`s, so both offsets are char
        // boundaries: slicing checks that in O(1), not the bytes between.
        &self.text[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn heap_bytes(&self) -> u64 {
        (self.text.len() + self.offsets.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// URL → id index keyed by 64-bit fingerprint. The rare fingerprint
/// collisions go to a side list; lookups always confirm against the arena
/// text, so collisions cost a scan, never a wrong answer.
#[derive(Debug, Default)]
struct UrlIndex {
    map: FxHashMap<u64, PageId>,
    collided: Vec<(u64, PageId)>,
}

impl UrlIndex {
    fn insert(&mut self, fp: u64, id: PageId) {
        match self.map.entry(fp) {
            Entry::Occupied(_) => self.collided.push((fp, id)),
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
        }
    }

    fn lookup(&self, url: &str, urls: &StrArena) -> Option<PageId> {
        let fp = fnv64(url.as_bytes());
        if let Some(&id) = self.map.get(&fp) {
            if urls.get(id as usize) == url {
                return Some(id);
            }
        }
        self.collided
            .iter()
            .find(|&&(f, id)| f == fp && urls.get(id as usize) == url)
            .map(|&(_, id)| id)
    }
}

/// A [`PageStore`] that packs the build into arenas; see module docs.
pub struct PackedStore {
    kinds: Vec<PageKind>,
    urls: StrArena,
    titles: StrArena,
    /// Flat `(from, link)` list in insertion order; CSR-packed at finish.
    edges: Vec<(PageId, OutLink)>,
    index: UrlIndex,
}

impl PackedStore {
    pub fn new() -> Self {
        PackedStore {
            kinds: Vec::new(),
            urls: StrArena::new(),
            titles: StrArena::new(),
            edges: Vec::new(),
            index: UrlIndex::default(),
        }
    }
}

impl Default for PackedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for PackedStore {
    fn len(&self) -> usize {
        self.kinds.len()
    }

    fn contains_url(&self, url: &str) -> bool {
        self.index.lookup(url, &self.urls).is_some()
    }

    fn insert(&mut self, url: String, kind: PageKind, title: String) -> PageId {
        let id = self.kinds.len() as PageId;
        self.index.insert(fnv64(url.as_bytes()), id);
        self.urls.push(&url);
        self.titles.push(&title);
        self.kinds.push(kind);
        id
    }

    fn add_link(&mut self, from: PageId, to: PageId, slot: Slot) {
        self.edges.push((from, OutLink { to, slot }));
    }

    fn url(&self, id: PageId) -> &str {
        self.urls.get(id as usize)
    }

    fn kind(&self, id: PageId) -> &PageKind {
        &self.kinds[id as usize]
    }
}

/// Builds the streaming representation of `spec` — same graph as
/// `build_site(spec, seed)`, packed (see module docs). Budgets default to
/// [`STREAM_RENDER_CACHE_BUDGET`] / [`STREAM_TARGET_CACHE_BUDGET`] and can
/// be adjusted with the builder knobs before serving.
pub fn stream_site(spec: &SiteSpec, seed: u64) -> StreamingSite {
    let (store, root, styles) = build_with_store(spec, seed, PackedStore::new());
    let n = store.kinds.len();
    StreamingSite {
        spec: spec.clone(),
        seed,
        root,
        kinds: store.kinds,
        urls: store.urls,
        titles: store.titles,
        out: Csr::from_pairs(n, store.edges),
        index: store.index,
        styles,
        cache: BodyCache::new(n, STREAM_RENDER_CACHE_BUDGET, STREAM_TARGET_CACHE_BUDGET),
    }
}

/// The packed, bounded-cache `SiteSource`; see module docs.
pub struct StreamingSite {
    spec: SiteSpec,
    seed: u64,
    root: PageId,
    kinds: Vec<PageKind>,
    urls: StrArena,
    titles: StrArena,
    out: Csr<OutLink>,
    index: UrlIndex,
    styles: Vec<SectionStyle>,
    cache: BodyCache,
}

impl StreamingSite {
    /// Replaces the rendered-HTML cache budget (builder knob; set before
    /// serving).
    pub fn with_render_cache_budget(self, bytes: u64) -> Self {
        StreamingSite { cache: self.cache.with_html_budget(bytes), ..self }
    }

    /// Replaces the target-payload cache budget (builder knob; set before
    /// serving).
    pub fn with_target_cache_budget(self, bytes: u64) -> Self {
        StreamingSite { cache: self.cache.with_target_budget(bytes), ..self }
    }

    /// Bytes currently held by the two body caches.
    pub fn cached_body_bytes(&self) -> u64 {
        self.cache.cached_body_bytes()
    }

    /// Approximate heap footprint of the static site structures (arenas,
    /// kinds, CSR, index, the cache's per-page size slots) — the part that
    /// scales with page count. Excludes the bounded bodies; see
    /// [`Self::cached_body_bytes`].
    pub fn static_bytes(&self) -> u64 {
        self.urls.heap_bytes()
            + self.titles.heap_bytes()
            + (self.kinds.len() * std::mem::size_of::<PageKind>()) as u64
            + self.out.bytes() as u64
            + (self.index.map.len() * 12 + self.index.collided.len() * 12) as u64
            + (self.kinds.len() * 8) as u64
    }
}

impl SiteSource for StreamingSite {
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
        self.kinds.len()
    }

    fn kind(&self, id: PageId) -> &PageKind {
        &self.kinds[id as usize]
    }

    fn url(&self, id: PageId) -> &str {
        self.urls.get(id as usize)
    }

    fn title(&self, id: PageId) -> &str {
        self.titles.get(id as usize)
    }

    fn out_links(&self, id: PageId) -> &[OutLink] {
        self.out.row(id)
    }

    fn section_style(&self, section: u16) -> &SectionStyle {
        &self.styles[section as usize % self.styles.len()]
    }

    fn lookup(&self, url: &str) -> Option<PageId> {
        self.index.lookup(url, &self.urls)
    }

    fn body_cache(&self) -> &BodyCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_webgraph::gen::build_site;
    use std::sync::Arc;

    #[test]
    fn packed_graph_matches_eager_site() {
        let spec = SiteSpec::demo(400);
        let eager = build_site(&spec, 17);
        let lazy = stream_site(&spec, 17);
        assert_eq!(lazy.n_pages(), eager.len());
        assert_eq!(lazy.root(), eager.root());
        for id in 0..eager.len() as PageId {
            let p = eager.page(id);
            assert_eq!(lazy.url(id), p.url, "page {id}");
            assert_eq!(lazy.title(id), p.title, "page {id}");
            assert_eq!(lazy.kind(id), &p.kind, "page {id}");
            assert_eq!(lazy.out_links(id), p.out.as_slice(), "page {id}");
            assert_eq!(lazy.lookup(&p.url), Some(id));
        }
        assert_eq!(lazy.target_ids(), eager.target_ids());
        assert_eq!(lazy.source_depths(), eager.source_depths());
    }

    #[test]
    fn rendering_is_byte_identical_to_eager() {
        let spec = SiteSpec::demo(250);
        let eager = build_site(&spec, 5);
        let lazy = stream_site(&spec, 5);
        for id in 0..eager.len() as PageId {
            if !matches!(eager.page(id).kind, PageKind::Html(_)) {
                continue;
            }
            assert_eq!(
                &lazy.rendered(id)[..],
                &eager.rendered(id)[..],
                "page {id} bodies must be byte-identical"
            );
            assert_eq!(lazy.content_length(id), eager.content_length(id));
        }
    }

    #[test]
    fn target_payloads_match_eager() {
        let spec = SiteSpec::demo(200);
        let eager = build_site(&spec, 9);
        let lazy = stream_site(&spec, 9);
        for id in SiteSource::target_ids(&lazy) {
            assert_eq!(&lazy.target_payload(id)[..], &eager.target_payload(id)[..]);
        }
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let spec = SiteSpec::demo(300);
        let lazy = stream_site(&spec, 3).with_render_cache_budget(8 << 10);
        let html: Vec<PageId> = (0..lazy.n_pages() as PageId)
            .filter(|&id| matches!(lazy.kind(id), PageKind::Html(_)))
            .collect();
        let first: Vec<Arc<[u8]>> = html.iter().map(|&id| lazy.rendered(id)).collect();
        assert!(
            lazy.cached_body_bytes() <= 8 << 10,
            "cache {} exceeds budget",
            lazy.cached_body_bytes()
        );
        // Re-render after eviction: still byte-identical.
        for (&id, body) in html.iter().zip(&first).take(5) {
            assert_eq!(&lazy.rendered(id)[..], &body[..]);
        }
        assert!(lazy.render_count() >= html.len() as u64);
    }

    #[test]
    fn static_footprint_is_reported() {
        let spec = SiteSpec::demo(500);
        let lazy = stream_site(&spec, 8);
        let b = lazy.static_bytes();
        assert!(b > 0);
        // Sanity: packed structures should stay well under 1 KiB per page.
        assert!(b < (lazy.n_pages() as u64) * 1024, "static bytes {b}");
    }
}
