//! [`BodyCache`] — the one cache every [`SiteSource`] serves bodies and
//! sizes through.
//!
//! The eager [`super::Website`] and `sb-scale`'s streaming site serve
//! through the same type and differ only in its budgets. HTML bodies and
//! target payloads live in two bounded FIFO byte caches; beside them, one
//! size slot per page keeps an HTML page's Content-Length after its body is
//! evicted. Nothing is rendered ahead of demand: the first
//! [`SiteSource::content_length`] of an HTML page renders it once and caches
//! both body and size, so the GET that usually follows is an `Arc` clone and
//! a later HEAD never renders again. Renders and payloads are deterministic
//! per (seed, id), so a cached body is indistinguishable from a fresh one.
//!
//! The target side fills only when something reads a payload: the origin
//! server answers a target GET with a deferred body that calls
//! [`SiteSource::target_payload`] on its first read, and a crawl that only
//! records a target's URL, MIME type and declared size reads none. Readers
//! that do (structure detection, a serving store and its truth oracle, kept
//! target bodies) generate a payload once and hit this cache after.

use super::source::SiteSource;
use super::{render, PageId, PageKind};
use crate::interner::FxHashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A budget that never evicts.
pub const UNBOUNDED: u64 = u64::MAX;

/// A size slot no render has filled yet.
const UNSIZED: u64 = u64::MAX;

/// Bounded FIFO byte cache: evicts oldest entries once the byte budget is
/// exceeded; entries larger than the whole budget are simply not cached.
#[derive(Debug)]
struct ByteCache {
    map: FxHashMap<PageId, Arc<[u8]>>,
    order: VecDeque<PageId>,
    bytes: u64,
    budget: u64,
}

impl ByteCache {
    fn new(budget: u64) -> Self {
        ByteCache { map: FxHashMap::default(), order: VecDeque::new(), bytes: 0, budget }
    }

    fn get(&self, id: PageId) -> Option<Arc<[u8]>> {
        self.map.get(&id).cloned()
    }

    fn put(&mut self, id: PageId, body: Arc<[u8]>) {
        let cost = body.len() as u64;
        if cost > self.budget || self.map.contains_key(&id) {
            return;
        }
        while self.bytes + cost > self.budget {
            let Some(old) = self.order.pop_front() else { break };
            if let Some(b) = self.map.remove(&old) {
                self.bytes -= b.len() as u64;
            }
        }
        self.map.insert(id, body);
        self.order.push_back(id);
        self.bytes += cost;
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

/// Rendered HTML bodies, target payloads and HTML sizes of one site, shared
/// by every server holding the site; see the module docs.
#[derive(Debug)]
pub struct BodyCache {
    html: Mutex<ByteCache>,
    targets: Mutex<ByteCache>,
    /// Rendered Content-Length per page, [`UNSIZED`] until its first render.
    lens: Vec<AtomicU64>,
    /// HTML render passes performed through this cache.
    renders: AtomicU64,
    /// `renders` at the last [`BodyCache::clear`]: while the two are equal,
    /// no size slot has been filled since, and clearing skips the slots.
    renders_at_clear: u64,
}

impl BodyCache {
    /// An empty cache for `n_pages` pages under the two byte budgets.
    pub fn new(n_pages: usize, html_budget: u64, target_budget: u64) -> Self {
        BodyCache {
            html: Mutex::new(ByteCache::new(html_budget)),
            targets: Mutex::new(ByteCache::new(target_budget)),
            lens: (0..n_pages).map(|_| AtomicU64::new(UNSIZED)).collect(),
            renders: AtomicU64::new(0),
            renders_at_clear: 0,
        }
    }

    /// Replaces the HTML body budget, emptying that cache.
    pub fn with_html_budget(mut self, bytes: u64) -> Self {
        self.html = Mutex::new(ByteCache::new(bytes));
        self
    }

    /// Replaces the target payload budget, emptying that cache.
    pub fn with_target_budget(mut self, bytes: u64) -> Self {
        self.targets = Mutex::new(ByteCache::new(bytes));
        self
    }

    /// Bytes currently held by the two byte caches.
    pub fn cached_body_bytes(&self) -> u64 {
        self.html.lock().expect("cache lock").bytes + self.targets.lock().expect("cache lock").bytes
    }

    /// Drops every body and size and resizes the slots to `n_pages`: what a
    /// mutation of the site calls, since rendering a page reads the kinds
    /// and titles of the pages it links to. O(1) while nothing has been
    /// served.
    pub(crate) fn clear(&mut self, n_pages: usize) {
        self.html.get_mut().expect("cache lock").clear();
        self.targets.get_mut().expect("cache lock").clear();
        let renders = *self.renders.get_mut();
        if renders != self.renders_at_clear {
            for len in &mut self.lens {
                *len.get_mut() = UNSIZED;
            }
            self.renders_at_clear = renders;
        }
        self.lens.resize_with(n_pages, || AtomicU64::new(UNSIZED));
    }

    /// See [`SiteSource::rendered`].
    pub(crate) fn rendered<S: SiteSource + ?Sized>(&self, site: &S, id: PageId) -> Arc<[u8]> {
        debug_assert!(matches!(site.kind(id), PageKind::Html(_)));
        if let Some(cached) = self.html.lock().expect("cache lock").get(id) {
            return cached;
        }
        self.renders.fetch_add(1, Ordering::Relaxed);
        let bytes = render::with_rendered(site, id, |page| Arc::<[u8]>::from(page));
        self.lens[id as usize].store(bytes.len() as u64, Ordering::Relaxed);
        self.html.lock().expect("cache lock").put(id, Arc::clone(&bytes));
        bytes
    }

    /// See [`SiteSource::content_length`].
    pub(crate) fn content_length<S: SiteSource + ?Sized>(&self, site: &S, id: PageId) -> u64 {
        match site.kind(id) {
            PageKind::Html(_) => match self.lens[id as usize].load(Ordering::Relaxed) {
                UNSIZED => self.rendered(site, id).len() as u64,
                len => len,
            },
            PageKind::Target { declared_size, .. } => *declared_size,
            PageKind::Error { .. } | PageKind::Redirect { .. } => 0,
        }
    }

    /// See [`SiteSource::target_payload`].
    pub(crate) fn target_payload<S: SiteSource + ?Sized>(&self, site: &S, id: PageId) -> Arc<[u8]> {
        if let Some(cached) = self.targets.lock().expect("cache lock").get(id) {
            return cached;
        }
        let PageKind::Target { ext, declared_size, planted_tables, .. } = site.kind(id) else {
            panic!("target_payload called on a non-target page");
        };
        let bytes: Arc<[u8]> = Arc::from(crate::content::target_body(
            site.seed() ^ u64::from(id),
            ext,
            *planted_tables,
            *declared_size,
            site.section_style(0).lang,
        ));
        self.targets.lock().expect("cache lock").put(id, Arc::clone(&bytes));
        bytes
    }

    /// See [`SiteSource::render_count`].
    pub(crate) fn renders(&self) -> u64 {
        self.renders.load(Ordering::Relaxed)
    }
}

/// A clone is a cold cache under the same budgets: bodies are a function of
/// the site, so a cloned site re-renders them on demand, and the render
/// counter counts the clone's own renders.
impl Clone for BodyCache {
    fn clone(&self) -> Self {
        let budget = |cache: &Mutex<ByteCache>| cache.lock().expect("cache lock").budget;
        BodyCache::new(self.lens.len(), budget(&self.html), budget(&self.targets))
    }
}
