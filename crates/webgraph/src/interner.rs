//! URL interning: the hot-path identity layer of the crawl engine.
//!
//! BUbiNG-style crawlers get their throughput from compact URL
//! representations — a URL is hashed and compared **once**, when it is
//! discovered, and every later data structure (visited set, frontiers,
//! bandit pools, trace bookkeeping) works with a dense `u32` id instead of
//! re-hashing and re-allocating strings. This module provides:
//!
//! * [`FxHasher`] / [`FxBuildHasher`] — the Firefox/rustc multiply-rotate
//!   hash, several times faster than SipHash on short keys like URLs and
//!   tag paths (DoS resistance is irrelevant for a simulator keyed by its
//!   own generated strings),
//! * [`FxHashMap`] / [`FxHashSet`] — std collections with that hasher,
//! * [`fp_of_url`] / [`url_eq_canonical`] — the 64-bit fingerprint of a
//!   URL's canonical form and its allocation-free confirmation, the one
//!   probe every visited structure shares,
//! * [`UrlInterner`] — a bidirectional `Url ↔ UrlId` table keyed by that
//!   fingerprint, storing each URL's parsed form *and* canonical string
//!   once, so the engine never re-parses or re-stringifies a known URL.

use crate::url::{Url, UrlError};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Dense identifier of an interned URL. Ids are assigned in discovery
/// order, so they double as an index into engine-side parallel vectors.
pub type UrlId = u32;

/// The FxHash function (Firefox / rustc): one multiply and one rotate per
/// word. Not DoS-resistant — use only on trusted keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with FxHash — single fast hash per lookup.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with FxHash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// The 64-bit FNV-1a offset basis: the state an unseeded [`fnv1a`] stream
/// starts from. Xor a seed into it for a keyed stream.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a: folds `bytes` into `state` and returns the new state.
/// Deterministic across processes and platforms (unlike `DefaultHasher`'s
/// per-process keys), so everything a run must reproduce hashes through
/// here: body hashes, site seeds, hazard draws, visited fingerprints.
/// Feeding the result back in continues the stream, so hashing chunks in
/// turn equals hashing their concatenation.
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Unseeded one-shot [`fnv1a`].
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv1a(FNV1A_BASIS, bytes)
}

/// Fingerprint of a URL's canonical form, computed component-wise without
/// materialising the string ([`fnv1a`] is chunk-split insensitive — the
/// property the allocation-free `get` rests on). Must mirror
/// `Url::as_string` byte-for-byte.
#[inline]
pub fn fp_of_url(u: &Url) -> u64 {
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
#[inline]
pub fn url_eq_canonical(u: &Url, s: &str) -> bool {
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

/// Bidirectional `Url ↔ UrlId` table.
///
/// Lookups key on the [`fp_of_url`] fingerprint of the **parsed** [`Url`]
/// (one pass over its components in place) and confirm a hit against the
/// entry's one contiguous canonical string, so membership tests on freshly
/// resolved links allocate nothing and touch one heap string. The
/// fingerprint is accounted, never trusted: a URL whose fingerprint is
/// taken by a *different* URL lives in a text-keyed side map, so two
/// distinct URLs never share an id. The canonical string is materialised
/// exactly once per distinct URL, when it is first interned. `text()`
/// hands out `Arc<str>` so strategies can keep cheap owned copies.
#[derive(Debug, Clone, Default)]
pub struct UrlInterner {
    /// fingerprint → id of the first URL interned with it.
    ids: FxHashMap<u64, UrlId>,
    /// Escape hatch: URLs whose fingerprint belongs to a different URL,
    /// keyed by canonical text (its length is the collision count).
    collided: FxHashMap<Arc<str>, UrlId>,
    /// id → (canonical string, parsed form), in id order.
    entries: Vec<(Arc<str>, Url)>,
    /// Fingerprint bits dropped before keying: 0 outside the tests that
    /// force collisions.
    fp_shift: u32,
}

impl UrlInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Keys on the top 8 fingerprint bits only, so a few hundred URLs
    /// exercise the collision side map.
    #[cfg(test)]
    fn with_narrow_fingerprint() -> Self {
        UrlInterner { fp_shift: 56, ..Self::default() }
    }

    /// Number of distinct URLs interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Id of an already-interned URL, without interning. Allocation-free
    /// unless the fingerprint is held by a different URL (one string build
    /// for the side-map lookup).
    #[inline]
    pub fn get(&self, url: &Url) -> Option<UrlId> {
        let &id = self.ids.get(&(fp_of_url(url) >> self.fp_shift))?;
        if url_eq_canonical(url, self.text(id)) {
            return Some(id);
        }
        self.collided.get(url.as_string().as_str()).copied()
    }

    /// Interns `url`, returning its id (existing or fresh). The canonical
    /// string form is built only for URLs seen for the first time.
    pub fn intern(&mut self, url: &Url) -> UrlId {
        let fp = fp_of_url(url) >> self.fp_shift;
        let fresh = self.entries.len() as UrlId;
        match self.ids.get(&fp) {
            Some(&id) if url_eq_canonical(url, self.text(id)) => return id,
            Some(_) => {
                // True collision: the URL is stored exactly, by text.
                let text: Arc<str> = Arc::from(url.as_string());
                if let Some(&id) = self.collided.get(&text) {
                    return id;
                }
                self.collided.insert(Arc::clone(&text), fresh);
                self.entries.push((text, url.clone()));
            }
            None => {
                self.ids.insert(fp, fresh);
                self.entries.push((Arc::from(url.as_string()), url.clone()));
            }
        }
        fresh
    }

    /// Boundary helper: interns from a string (parsing it first).
    pub fn intern_str(&mut self, s: &str) -> Result<UrlId, UrlError> {
        let url = Url::parse(s)?;
        Ok(self.intern(&url))
    }

    /// Canonical string of an interned URL.
    #[inline]
    pub fn text(&self, id: UrlId) -> &str {
        &self.entries[id as usize].0
    }

    /// Shared handle to the canonical string (cheap to clone and store).
    #[inline]
    pub fn text_arc(&self, id: UrlId) -> Arc<str> {
        Arc::clone(&self.entries[id as usize].0)
    }

    /// Parsed form of an interned URL — the engine's no-reparse path.
    #[inline]
    pub fn url(&self, id: UrlId) -> &Url {
        &self.entries[id as usize].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut it = UrlInterner::new();
        let a = it.intern(&u("https://a.com/x"));
        let b = it.intern(&u("https://a.com/y"));
        let a2 = it.intern(&u("https://a.com/x"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a, b), (0, 1));
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn text_and_url_roundtrip() {
        let mut it = UrlInterner::new();
        let url = u("https://www.a.com/dir/file.csv?x=1");
        let id = it.intern(&url);
        assert_eq!(it.text(id), "https://www.a.com/dir/file.csv?x=1");
        assert_eq!(it.url(id), &url);
        assert_eq!(it.get(&url), Some(id));
        assert_eq!(it.get(&u("https://www.a.com/other")), None);
    }

    #[test]
    fn intern_str_parses_at_the_boundary() {
        let mut it = UrlInterner::new();
        let id = it.intern_str("https://a.com/x").unwrap();
        assert_eq!(it.text(id), "https://a.com/x");
        assert!(it.intern_str("not a url").is_err());
        // Canonicalisation happens through parsing: same resource, same id.
        let id2 = it.intern_str("HTTPS://a.com/x#frag").unwrap();
        assert_eq!(id, id2);
    }

    #[test]
    fn fx_hash_distinguishes_and_is_stable() {
        use std::hash::{BuildHasher, Hash};
        let bh = FxBuildHasher::default();
        let h = |s: &str| {
            let mut hasher = bh.build_hasher();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h("https://a.com/x"), h("https://a.com/x"));
        assert_ne!(h("https://a.com/x"), h("https://a.com/y"));
        assert_ne!(h("abc"), h("abcd"));
    }

    #[test]
    fn url_eq_canonical_mirrors_as_string() {
        for s in ["https://www.example.org/a/b.html", "http://h.example/x?page=2", "https://h.example/"] {
            assert!(url_eq_canonical(&u(s), s), "{s}");
        }
        // A query-less URL is not a prefix match of its query twin, nor the reverse.
        assert!(!url_eq_canonical(&u("https://h.example/x"), "https://h.example/x?page=2"));
        assert!(!url_eq_canonical(&u("https://h.example/x?page=2"), "https://h.example/x"));
    }

    /// URL `i` of the collision fixtures: three hosts, and every odd `i` is
    /// the query twin of a query-less URL.
    fn fixture_url(i: usize) -> Url {
        let query = if i % 2 == 1 { "?page=2" } else { "" };
        u(&format!("https://h{}.example/d/{}{query}", i % 3, i / 6))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// With the fingerprint narrowed to 8 bits the side map carries
        /// most of the table, and the interner still agrees with an exact
        /// string-keyed model on every id.
        #[test]
        fn narrow_fingerprint_matches_string_model(
            picks in proptest::collection::vec(0usize..400, 0..500),
        ) {
            let mut it = UrlInterner::with_narrow_fingerprint();
            let mut model: HashMap<String, UrlId> = HashMap::new();
            // Random picks (with duplicates), then a sweep of 300 distinct
            // URLs: more than the 256 keys, so collisions are certain.
            for i in picks.into_iter().chain(0..300) {
                let url = fixture_url(i);
                let text = url.as_string();
                proptest::prop_assert_eq!(it.get(&url), model.get(&text).copied());
                let fresh = model.len() as UrlId;
                let want = *model.entry(text.clone()).or_insert(fresh);
                proptest::prop_assert_eq!(it.intern(&url), want);
                proptest::prop_assert_eq!(it.get(&url), Some(want));
                proptest::prop_assert_eq!(it.text(want), text.as_str());
                proptest::prop_assert_eq!(it.url(want), &url);
            }
            proptest::prop_assert_eq!(it.len(), model.len());
            proptest::prop_assert!(!it.collided.is_empty(), "the rare path must have fired");
            proptest::prop_assert_eq!(it.ids.len() + it.collided.len(), it.len());
        }
    }

    #[test]
    fn text_arc_shares_storage() {
        let mut it = UrlInterner::new();
        let id = it.intern(&u("https://a.com/x"));
        let t1 = it.text_arc(id);
        let t2 = it.text_arc(id);
        assert!(Arc::ptr_eq(&t1, &t2));
    }
}
