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
//! * [`UrlInterner`] — a bidirectional `Url ↔ UrlId` table that stores each
//!   URL's parsed form *and* canonical string once, so the engine never
//!   re-parses or re-stringifies a known URL.

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

/// Bidirectional `Url ↔ UrlId` table.
///
/// Lookups key on the **parsed** [`Url`] (hashing its components in place),
/// so membership tests on freshly resolved links allocate nothing; the
/// canonical string is materialised exactly once per distinct URL, when it
/// is first interned. `text()` hands out `Arc<str>` so strategies can keep
/// cheap owned copies.
#[derive(Debug, Clone, Default)]
pub struct UrlInterner {
    ids: FxHashMap<Url, UrlId>,
    /// id → (canonical string, parsed form), in id order.
    entries: Vec<(Arc<str>, Url)>,
}

impl UrlInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct URLs interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Id of an already-interned URL, without interning. Allocation-free.
    #[inline]
    pub fn get(&self, url: &Url) -> Option<UrlId> {
        self.ids.get(url).copied()
    }

    /// Interns `url`, returning its id (existing or fresh). The canonical
    /// string form is built only for URLs seen for the first time.
    pub fn intern(&mut self, url: &Url) -> UrlId {
        if let Some(id) = self.ids.get(url) {
            return *id;
        }
        let id = self.entries.len() as UrlId;
        self.entries.push((Arc::from(url.as_string()), url.clone()));
        self.ids.insert(url.clone(), id);
        id
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
    fn text_arc_shares_storage() {
        let mut it = UrlInterner::new();
        let id = it.intern(&u("https://a.com/x"));
        let t1 = it.text_arc(id);
        let t2 = it.text_arc(id);
        assert!(Arc::ptr_eq(&t1, &t2));
    }
}
