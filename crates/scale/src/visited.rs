//! Compact visited-URL structure: exact entries up to a threshold, text-only
//! entries past it, one fingerprint probe over both.
//!
//! Every URL is keyed by the 64-bit FNV-1a fingerprint of its canonical
//! form ([`fp_of_url`], computed once per `get`/`intern`, component-wise,
//! no string built) and stores its canonical text once. The two tiers
//! differ only in whether the parsed [`Url`] is kept beside it: the first
//! `threshold` URLs keep it — the engine default threshold is
//! `usize::MAX`, every URL exact, which the frozen replay suites pin — and
//! every URL past the threshold stores the text alone and re-parses on
//! demand. A parsed copy is the right trade at 4k URLs and the wrong one at
//! 10⁶.
//!
//! Fingerprinting is *accounted, never trusted*: a fingerprint hit is
//! confirmed against the stored text (allocation-free, component-wise), and
//! a true collision — same fingerprint, different URL — is counted and
//! falls back to an exact text-keyed side map. Two distinct URLs can
//! therefore never merge; the BUbiNG-style failure mode of
//! fingerprint-only visited sets (silently dropping colliding URLs) is
//! traded for a measurable, escape-hatched slow path.

use sb_webgraph::interner::{fp_of_url, url_eq_canonical, FxHashMap};
use sb_webgraph::url::Url;
use sb_webgraph::UrlId;
use std::sync::Arc;

/// Rough per-entry overheads for the byte-footprint gauge. Exact: the
/// text's `Arc` header and slot, the parsed form's four `String` headers,
/// a 16-byte map slot and allocator slack on five heap blocks. Compact:
/// the `Arc`, its slot and the map slot.
const EXACT_ENTRY_OVERHEAD: u64 = 224;
const COMPACT_ENTRY_OVERHEAD: u64 = 64;

/// Visited-URL set with a configurable exact/compact threshold; see module
/// docs. The crawl's one `Url ↔ UrlId` table: ids are dense, in discovery
/// order.
#[derive(Debug, Clone, Default)]
pub struct VisitedSet {
    threshold: usize,
    /// fingerprint → id of the first URL seen with it, either tier.
    ids: FxHashMap<u64, UrlId>,
    /// Escape hatch: URLs whose fingerprint belongs to a *different* URL,
    /// keyed by exact canonical text. Its length is the collision count.
    collided: FxHashMap<Arc<str>, UrlId>,
    /// Canonical text of every id.
    texts: Vec<Arc<str>>,
    /// Parsed form of the exact tier: ids `< parsed.len() <= threshold`.
    parsed: Vec<Url>,
    bytes: u64,
    /// Fingerprint bits dropped before keying: 0 outside the tests that
    /// force collisions.
    fp_shift: u32,
}

impl VisitedSet {
    /// Pure-exact set (`threshold = usize::MAX`): every URL keeps its parsed
    /// form. The engine default.
    pub fn exact() -> Self {
        Self::with_threshold(usize::MAX)
    }

    /// Exact entries for the first `threshold` URLs, text-only past it.
    pub fn with_threshold(threshold: usize) -> Self {
        VisitedSet { threshold, ..Default::default() }
    }

    /// Keys on the top 8 fingerprint bits only, so a few hundred URLs
    /// exercise the collision side map.
    #[cfg(test)]
    fn with_narrow_fingerprint(threshold: usize) -> Self {
        VisitedSet { threshold, fp_shift: 56, ..Default::default() }
    }

    /// Number of distinct URLs in the set.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// URLs held with their parsed form.
    pub fn exact_len(&self) -> usize {
        self.parsed.len()
    }

    /// URLs held as fingerprint + text.
    pub fn compact_len(&self) -> usize {
        self.texts.len() - self.parsed.len()
    }

    /// Fingerprint collisions observed, in either tier (each cost one
    /// side-map entry, none cost correctness).
    pub fn collisions(&self) -> u64 {
        self.collided.len() as u64
    }

    /// Rough heap footprint of the set, in bytes (string content + per-entry
    /// overhead estimates; maintained incrementally, O(1) to read).
    pub fn bytes_estimate(&self) -> u64 {
        self.bytes
    }

    /// Id of an already-present URL, without inserting: one fingerprint,
    /// one probe, one confirming compare against the stored text.
    /// Allocation-free in both tiers; a collided fingerprint (counted,
    /// astronomically rare) pays one string build.
    #[inline]
    pub fn get(&self, url: &Url) -> Option<UrlId> {
        let &id = self.ids.get(&(fp_of_url(url) >> self.fp_shift))?;
        if url_eq_canonical(url, self.text(id)) {
            return Some(id);
        }
        self.collided.get(url.as_string().as_str()).copied()
    }

    /// Inserts `url` if absent, returning its dense id.
    pub fn intern(&mut self, url: &Url) -> UrlId {
        let fp = fp_of_url(url) >> self.fp_shift;
        let fresh = self.texts.len() as UrlId;
        let text: Arc<str> = match self.ids.get(&fp) {
            Some(&id) if url_eq_canonical(url, self.text(id)) => return id,
            Some(_) => {
                // True collision: count it and store the URL exactly.
                let text: Arc<str> = Arc::from(url.as_string());
                if let Some(&id) = self.collided.get(&text) {
                    return id;
                }
                self.collided.insert(Arc::clone(&text), fresh);
                text
            }
            None => {
                self.ids.insert(fp, fresh);
                Arc::from(url.as_string())
            }
        };
        // The exact tier fills first and freezes at the threshold.
        if self.parsed.len() < self.threshold {
            self.bytes += text.len() as u64 * 2 + EXACT_ENTRY_OVERHEAD;
            self.parsed.push(url.clone());
        } else {
            self.bytes += text.len() as u64 + COMPACT_ENTRY_OVERHEAD;
        }
        self.texts.push(text);
        fresh
    }

    /// Canonical string of URL `id`.
    #[inline]
    pub fn text(&self, id: UrlId) -> &str {
        &self.texts[id as usize]
    }

    /// Parsed form of URL `id`, for joins and same-site checks. Exact
    /// entries clone the stored parse; compact entries re-parse the
    /// canonical text (always valid — it round-tripped once).
    pub fn base(&self, id: UrlId) -> Url {
        match self.parsed.get(id as usize) {
            Some(url) => url.clone(),
            None => Url::parse(self.text(id)).expect("canonical text reparses"),
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// With the fingerprint narrowed to 8 bits both tiers lean on the
        /// collision side map, and the set still agrees with an exact
        /// string-keyed model on every id, across the threshold.
        #[test]
        fn narrow_fingerprint_matches_string_model(
            picks in proptest::collection::vec(0usize..400, 0..500),
            threshold in 0usize..350,
        ) {
            let mut set = VisitedSet::with_narrow_fingerprint(threshold);
            let mut model: std::collections::HashMap<String, UrlId> = Default::default();
            // Random picks (with duplicates), then a sweep of 300 distinct
            // URLs: more than the 256 keys, so collisions are certain.
            for i in picks.into_iter().chain(0..300) {
                // Three hosts; every odd `i` is the query twin of a
                // query-less URL.
                let query = if i % 2 == 1 { "?page=2" } else { "" };
                let url = u(&format!("https://h{}.example/d/{}{query}", i % 3, i / 6));
                let text = url.as_string();
                proptest::prop_assert_eq!(set.get(&url), model.get(&text).copied());
                let fresh = model.len() as UrlId;
                let want = *model.entry(text.clone()).or_insert(fresh);
                proptest::prop_assert_eq!(set.intern(&url), want);
                proptest::prop_assert_eq!(set.get(&url), Some(want));
                proptest::prop_assert_eq!(set.text(want), text.as_str());
                proptest::prop_assert_eq!(set.base(want), url);
            }
            proptest::prop_assert_eq!(set.len(), model.len());
            proptest::prop_assert_eq!(set.exact_len(), threshold.min(model.len()));
            proptest::prop_assert!(set.collisions() > 0, "the rare path must have fired");
        }
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
