//! Compact visited-URL structure: exact entries up to a threshold, 64-bit
//! fingerprints past it.
//!
//! The engine's `UrlInterner` keeps, per URL, the canonical string *plus
//! two* parsed [`Url`] copies (the map key and the id-indexed entry) —
//! roughly 3× the text bytes and eight `String` headers. That is the right
//! trade at 4k URLs and the wrong one at 10⁶. [`VisitedSet`] wraps the
//! interner: the first `threshold` URLs intern exactly (bit-identical
//! behaviour — the engine default threshold is `usize::MAX`, so the frozen
//! replay suites pin this path), and every URL past the threshold is keyed
//! by a 64-bit FNV-1a fingerprint of its canonical string, storing only the
//! text itself.
//!
//! Fingerprinting is *accounted, never trusted*: a fingerprint hit is
//! confirmed against the stored text (allocation-free, component-wise), and
//! a true collision — same fingerprint, different URL — bumps a visible
//! counter and falls back to an exact text-keyed side map. Two distinct
//! URLs can therefore never merge; the BUbiNG-style failure mode of
//! fingerprint-only visited sets (silently dropping colliding URLs) is
//! traded for a measurable, escape-hatched slow path.

use sb_webgraph::interner::FxHashMap;
use sb_webgraph::url::Url;
use sb_webgraph::{fnv1a, UrlId, UrlInterner, FNV1A_BASIS};
use std::sync::Arc;

/// Fingerprint of a URL's canonical form, computed component-wise without
/// materialising the string ([`fnv1a`] is chunk-split insensitive — the
/// property the allocation-free `get` rests on). Must mirror
/// `Url::as_string` byte-for-byte.
fn fp_of_url(u: &Url) -> u64 {
    let mut h = fnv1a(FNV1A_BASIS, u.scheme.as_bytes());
    h = fnv1a(h, b"://");
    h = fnv1a(h, u.host.as_bytes());
    h = fnv1a(h, u.path.as_bytes());
    if !u.query.is_empty() {
        h = fnv1a(h, b"?");
        h = fnv1a(h, u.query.as_bytes());
    }
    h
}

/// Allocation-free `u.as_string() == s`, mirroring `Url::as_string`.
fn url_eq_canonical(u: &Url, s: &str) -> bool {
    let Some(rest) = s
        .strip_prefix(u.scheme.as_str())
        .and_then(|r| r.strip_prefix("://"))
        .and_then(|r| r.strip_prefix(u.host.as_str()))
        .and_then(|r| r.strip_prefix(u.path.as_str()))
    else {
        return false;
    };
    if u.query.is_empty() {
        rest.is_empty()
    } else {
        rest.strip_prefix('?').is_some_and(|q| q == u.query)
    }
}

/// Rough per-entry overheads for the byte-footprint gauge (headers, map
/// slots, allocator slack).
const EXACT_ENTRY_OVERHEAD: u64 = 256;
const COMPACT_ENTRY_OVERHEAD: u64 = 64;

/// Visited-URL set with a configurable exact/compact threshold; see module
/// docs. Drop-in for the engine's `UrlInterner` (dense ids, same text/url
/// accessors) — at `threshold == usize::MAX` it *is* the interner.
#[derive(Debug, Clone, Default)]
pub struct VisitedSet {
    exact: UrlInterner,
    threshold: usize,
    /// fingerprint → compact id, for ids `>= exact.len()`.
    fp_ids: FxHashMap<u64, UrlId>,
    /// Canonical text of compact id `exact.len() + i`.
    texts: Vec<Arc<str>>,
    /// Escape hatch: URLs whose fingerprint collided with a *different*
    /// URL, keyed by exact canonical text.
    collided: FxHashMap<Arc<str>, UrlId>,
    collisions: u64,
    bytes: u64,
}

impl VisitedSet {
    /// Pure-exact set (`threshold = usize::MAX`): bit-identical to the
    /// plain `UrlInterner`. The engine default.
    pub fn exact() -> Self {
        Self::with_threshold(usize::MAX)
    }

    /// Exact entries for the first `threshold` URLs, fingerprints past it.
    pub fn with_threshold(threshold: usize) -> Self {
        VisitedSet { threshold, ..Default::default() }
    }

    /// Number of distinct URLs in the set.
    pub fn len(&self) -> usize {
        self.exact.len() + self.texts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// URLs held as full interner entries.
    pub fn exact_len(&self) -> usize {
        self.exact.len()
    }

    /// URLs held as fingerprint + text.
    pub fn compact_len(&self) -> usize {
        self.texts.len()
    }

    /// Fingerprint collisions observed (each cost one side-map entry, none
    /// cost correctness).
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Rough heap footprint of the set, in bytes (string content + per-entry
    /// overhead estimates; maintained incrementally, O(1) to read).
    pub fn bytes_estimate(&self) -> u64 {
        self.bytes
    }

    /// Id of an already-present URL, without inserting. Allocation-free on
    /// the exact path and on compact fingerprint hits; a collided
    /// fingerprint (counted, astronomically rare) pays one string build.
    #[inline]
    pub fn get(&self, url: &Url) -> Option<UrlId> {
        if let Some(id) = self.exact.get(url) {
            return Some(id);
        }
        if self.texts.is_empty() {
            return None;
        }
        let fp = fp_of_url(url);
        let &id = self.fp_ids.get(&fp)?;
        if url_eq_canonical(url, self.compact_text(id)) {
            return Some(id);
        }
        let s: Arc<str> = Arc::from(url.as_string());
        self.collided.get(&s).copied()
    }

    /// Inserts `url` if absent, returning its dense id.
    pub fn intern(&mut self, url: &Url) -> UrlId {
        if let Some(id) = self.exact.get(url) {
            return id;
        }
        if self.texts.is_empty() && self.exact.len() < self.threshold {
            let id = self.exact.intern(url);
            self.bytes += self.exact.text(id).len() as u64 * 3 + EXACT_ENTRY_OVERHEAD;
            return id;
        }
        // Compact path: exact is frozen from here on, so `exact.len()` is a
        // stable id base.
        let fp = fp_of_url(url);
        if let Some(&id) = self.fp_ids.get(&fp) {
            if url_eq_canonical(url, self.compact_text(id)) {
                return id;
            }
            // True collision: count it and store the URL exactly.
            let s: Arc<str> = Arc::from(url.as_string());
            if let Some(&id) = self.collided.get(&s) {
                return id;
            }
            self.collisions += 1;
            let id = self.push_text(Arc::clone(&s));
            self.collided.insert(s, id);
            return id;
        }
        let s: Arc<str> = Arc::from(url.as_string());
        let id = self.push_text(s);
        self.fp_ids.insert(fp, id);
        id
    }

    fn push_text(&mut self, s: Arc<str>) -> UrlId {
        let id = (self.exact.len() + self.texts.len()) as UrlId;
        self.bytes += s.len() as u64 + COMPACT_ENTRY_OVERHEAD;
        self.texts.push(s);
        id
    }

    fn compact_text(&self, id: UrlId) -> &str {
        &self.texts[id as usize - self.exact.len()]
    }

    /// Canonical string of URL `id`.
    #[inline]
    pub fn text(&self, id: UrlId) -> &str {
        if (id as usize) < self.exact.len() {
            self.exact.text(id)
        } else {
            self.compact_text(id)
        }
    }

    /// Shared handle to the canonical string.
    #[inline]
    pub fn text_arc(&self, id: UrlId) -> Arc<str> {
        if (id as usize) < self.exact.len() {
            self.exact.text_arc(id)
        } else {
            Arc::clone(&self.texts[id as usize - self.exact.len()])
        }
    }

    /// Parsed form of URL `id`, for joins and same-site checks. Exact
    /// entries clone the stored parse; compact entries re-parse the
    /// canonical text (always valid — it round-tripped once).
    pub fn base(&self, id: UrlId) -> Url {
        if (id as usize) < self.exact.len() {
            self.exact.url(id).clone()
        } else {
            Url::parse(self.compact_text(id)).expect("canonical text reparses")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn fp_of_url_matches_string_fnv() {
        for s in [
            "https://www.example.org/a/b.html",
            "http://h.example/x?page=2",
            "https://h.example/",
        ] {
            let url = u(s);
            assert_eq!(fp_of_url(&url), sb_webgraph::fnv64(url.as_string().as_bytes()), "{s}");
        }
    }

    #[test]
    fn exact_mode_matches_interner() {
        let mut set = VisitedSet::exact();
        let mut interner = UrlInterner::new();
        let urls: Vec<Url> = (0..50)
            .map(|i| u(&format!("https://www.example.org/page/{i}?s={}", i % 7)))
            .collect();
        for url in &urls {
            assert_eq!(set.intern(url), interner.intern(url));
        }
        for url in &urls {
            assert_eq!(set.get(url), interner.get(url));
        }
        assert_eq!(set.len(), interner.len());
        assert_eq!(set.compact_len(), 0);
        for id in 0..set.len() as UrlId {
            assert_eq!(set.text(id), interner.text(id));
            assert_eq!(set.base(id), *interner.url(id));
        }
    }

    #[test]
    fn compact_mode_keeps_dense_ids_and_texts() {
        let mut set = VisitedSet::with_threshold(10);
        let urls: Vec<Url> =
            (0..100).map(|i| u(&format!("https://www.example.org/d/{i}.pdf"))).collect();
        let ids: Vec<UrlId> = urls.iter().map(|url| set.intern(url)).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>(), "ids stay dense across the switch");
        assert_eq!(set.exact_len(), 10);
        assert_eq!(set.compact_len(), 90);
        for (i, url) in urls.iter().enumerate() {
            assert_eq!(set.get(url), Some(i as UrlId));
            assert_eq!(set.intern(url), i as UrlId, "re-intern is idempotent");
            assert_eq!(set.text(i as UrlId), url.as_string());
            assert_eq!(set.base(i as UrlId), *url);
        }
        assert_eq!(set.collisions(), 0);
    }

    #[test]
    fn compact_mode_is_much_smaller() {
        let mut exact = VisitedSet::exact();
        let mut compact = VisitedSet::with_threshold(0);
        for i in 0..1000 {
            let url = u(&format!("https://www.example.org/files/report-{i}.pdf"));
            exact.intern(&url);
            compact.intern(&url);
        }
        assert!(
            compact.bytes_estimate() * 2 < exact.bytes_estimate(),
            "compact {} vs exact {}",
            compact.bytes_estimate(),
            exact.bytes_estimate()
        );
    }

    #[test]
    fn query_and_queryless_urls_do_not_confuse_fingerprints() {
        let mut set = VisitedSet::with_threshold(0);
        let a = u("https://h.example/x?page=2");
        let b = u("https://h.example/x");
        let ia = set.intern(&a);
        let ib = set.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(set.get(&a), Some(ia));
        assert_eq!(set.get(&b), Some(ib));
    }

    #[test]
    fn threshold_boundary_freezes_exact_side() {
        let mut set = VisitedSet::with_threshold(3);
        for i in 0..10 {
            set.intern(&u(&format!("https://h.example/{i}")));
        }
        assert_eq!(set.exact_len(), 3);
        assert_eq!(set.compact_len(), 7);
        // Early (exact) URLs still resolve.
        assert_eq!(set.get(&u("https://h.example/0")), Some(0));
        assert_eq!(set.get(&u("https://h.example/9")), Some(9));
    }
}
