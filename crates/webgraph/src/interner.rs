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
//! * [`FxHashMap`] — the std map with that hasher,
//! * [`fp_of_url`] / [`url_eq_canonical`] — the 64-bit fingerprint of a
//!   URL's canonical form and its allocation-free confirmation, the one
//!   probe of the crawl's `Url ↔ UrlId` table (`sb_scale::VisitedSet`).

use crate::url::Url;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

#[cfg(test)]
mod tests {
    use super::*;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
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
}
