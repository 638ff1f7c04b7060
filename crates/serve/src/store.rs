//! [`SnapshotStore`]: the versioned page store that the read workload
//! hits while the crawler refreshes it.
//!
//! Layout: a *shelf* behind one `RwLock` maps URL → slot; each slot is a
//! `VersionCell` whose current [`PageVersion`] is an [`ArcCell`]. The
//! shelf's write lock is taken only to insert a **new URL** (one index
//! insert and one push, in place); committing a fresh version of a
//! *known* URL swaps only that slot's pointer. A reader therefore waits
//! at most for one index insert or one pointer swap — never for a fetch,
//! a body copy or a shelf clone — never sees a torn page, and a read
//! costs one FxHash of the URL (the hasher `VisitedSet` keys the same
//! crawl's URLs with; the index is never iterated, so the hasher decides
//! nothing but speed), two read-lock acquisitions and one relaxed counter
//! bump (the popularity signal the refresh scheduler consumes).
//!
//! Per-URL **generations** are monotonic: commit *k* for a URL carries
//! generation *k*. Commits to one URL serialise on that slot's `history`
//! mutex, which is taken *before* the current generation is read, so
//! generations are assigned and version pointers published in the same
//! order — two successive reads of one URL can never observe generations
//! going backwards. Commits to different URLs do not serialise.
//! The per-slot history is that commit lock plus a bounded count of
//! replaced versions (the retained-version budget); nothing reads the
//! versions back. It does not keep a version a reader holds alive — the
//! reader's own `Arc` does that — so truncating it only drops `Arc`s.

use crate::cell::ArcCell;
use parking_lot::{Mutex, RwLock};
use sb_httpsim::Body;
use sb_webgraph::FxHashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// One committed, immutable version of one page.
#[derive(Debug)]
pub struct PageVersion {
    pub url: Arc<str>,
    pub status: u16,
    /// Shared body bytes — committing and serving never copy them.
    pub body: Body,
    /// FNV-1a of the body (matches `sb_revisit::fnv64` and the core
    /// session's refresh hashing, pinned by a test).
    pub body_hash: u64,
    /// 1-based per-URL commit counter; strictly monotonic per URL.
    pub generation: u64,
}

struct VersionCell {
    url: Arc<str>,
    current: ArcCell<PageVersion>,
    /// Reads served from this slot — the popularity signal.
    reads: AtomicU64,
    /// The slot's commit lock, guarding the replaced versions, newest
    /// first, capped at the retain budget. Only [`SnapshotStore::retained`]
    /// reads them, and only their count; a reader's own `Arc` keeps the
    /// version it holds alive.
    history: Mutex<VecDeque<Arc<PageVersion>>>,
}

#[derive(Default)]
struct Shelf {
    index: FxHashMap<Arc<str>, usize>,
    cells: Vec<Arc<VersionCell>>,
}

/// The versioned page store. See the module docs.
pub struct SnapshotStore {
    shelf: RwLock<Shelf>,
    retain: usize,
}

impl SnapshotStore {
    /// An empty store retaining at most `retain` replaced versions per
    /// URL (0 = current version only).
    pub fn new(retain: usize) -> Self {
        SnapshotStore {
            shelf: RwLock::default(),
            retain,
        }
    }

    /// Runs `f` on `url`'s slot under the shelf's read lock.
    fn with_cell<R>(&self, url: &str, f: impl FnOnce(&Arc<VersionCell>) -> R) -> Option<R> {
        let shelf = self.shelf.read();
        shelf.index.get(url).map(|&i| f(&shelf.cells[i]))
    }

    /// Serves the current version of `url` and counts the read. This is
    /// the reader hot path: two read locks, one counter bump, no
    /// allocation beyond the returned `Arc`.
    pub fn read(&self, url: &str) -> Option<Arc<PageVersion>> {
        self.with_cell(url, |cell| {
            cell.reads.fetch_add(1, Relaxed);
            cell.current.load()
        })
    }

    /// The current version without counting a read — for schedulers and
    /// oracles that must not pollute the popularity signal.
    pub fn peek(&self, url: &str) -> Option<Arc<PageVersion>> {
        self.with_cell(url, |cell| cell.current.load())
    }

    /// Commits a new version of `url`, inserting the URL on first sight.
    /// Returns the version's generation (1 for a brand-new URL).
    pub fn commit(&self, url: &str, status: u16, body: Body, body_hash: u64) -> u64 {
        let cell = match self.with_cell(url, Arc::clone) {
            Some(cell) => cell,
            None => {
                let mut shelf = self.shelf.write();
                // Re-check under the write lock: committers may race to
                // introduce one URL, and the losers commit generations 2...
                match shelf.index.get(url) {
                    Some(&i) => Arc::clone(&shelf.cells[i]),
                    None => {
                        let url: Arc<str> = Arc::from(url);
                        let slot = shelf.cells.len();
                        shelf.index.insert(Arc::clone(&url), slot);
                        shelf.cells.push(Arc::new(VersionCell {
                            url: Arc::clone(&url),
                            current: ArcCell::new(Arc::new(PageVersion {
                                url,
                                status,
                                body,
                                body_hash,
                                generation: 1,
                            })),
                            reads: AtomicU64::new(0),
                            history: Mutex::new(VecDeque::new()),
                        }));
                        return 1;
                    }
                }
            }
        };
        let mut history = cell.history.lock();
        let generation = cell.current.load().generation + 1;
        let next = Arc::new(PageVersion {
            url: Arc::clone(&cell.url),
            status,
            body,
            body_hash,
            generation,
        });
        history.push_front(cell.current.store(next));
        history.truncate(self.retain);
        generation
    }

    /// Slot of `url` in insertion order, if known. Slot indexes are
    /// stable for the life of the store (the shelf only grows).
    pub fn slot(&self, url: &str) -> Option<usize> {
        self.shelf.read().index.get(url).copied()
    }

    pub fn len(&self) -> usize {
        self.shelf.read().cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every known URL, in insertion (slot) order.
    pub fn urls(&self) -> Vec<Arc<str>> {
        let shelf = self.shelf.read();
        shelf.cells.iter().map(|c| Arc::clone(&c.url)).collect()
    }

    /// Reads served for `url` so far (the popularity signal).
    pub fn reads(&self, url: &str) -> u64 {
        self.with_cell(url, |cell| cell.reads.load(Relaxed))
            .unwrap_or(0)
    }

    /// Current generation of `url` (0 if unknown).
    pub fn generation(&self, url: &str) -> u64 {
        self.with_cell(url, |cell| cell.current.load().generation)
            .unwrap_or(0)
    }

    /// Replaced versions currently retained for `url`.
    pub fn retained(&self, url: &str) -> usize {
        self.with_cell(url, |cell| cell.history.lock().len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body_of(tag: u64) -> (Body, u64) {
        let bytes: Vec<u8> = tag.to_le_bytes().repeat(16);
        let hash = sb_revisit::fnv64(&bytes);
        (Body::from(bytes), hash)
    }

    #[test]
    fn commit_then_read_roundtrips() {
        let store = SnapshotStore::new(2);
        let (body, hash) = body_of(1);
        assert_eq!(store.commit("https://s/a", 200, body, hash), 1);
        let v = store.read("https://s/a").expect("known");
        assert_eq!(v.status, 200);
        assert_eq!(v.body_hash, hash);
        assert_eq!(v.generation, 1);
        assert_eq!(store.reads("https://s/a"), 1);
        assert_eq!(store.peek("https://s/a").expect("known").generation, 1);
        assert_eq!(store.reads("https://s/a"), 1, "peek does not count");
        assert!(store.read("https://s/b").is_none());
    }

    #[test]
    fn generations_are_monotonic_and_history_is_bounded() {
        let store = SnapshotStore::new(2);
        for k in 1..=5u64 {
            let (body, hash) = body_of(k);
            assert_eq!(store.commit("https://s/a", 200, body, hash), k);
        }
        assert_eq!(store.generation("https://s/a"), 5);
        assert_eq!(
            store.retained("https://s/a"),
            2,
            "retain budget caps history"
        );
        assert_eq!(store.read("https://s/a").expect("known").generation, 5);
    }

    #[test]
    fn insertion_order_is_slot_order() {
        let store = SnapshotStore::new(0);
        for (k, url) in ["https://s/c", "https://s/a", "https://s/b"]
            .iter()
            .enumerate()
        {
            let (body, hash) = body_of(k as u64);
            store.commit(url, 200, body, hash);
            assert_eq!(store.slot(url), Some(k));
        }
        let urls = store.urls();
        assert_eq!(urls.len(), 3);
        assert_eq!(&*urls[0], "https://s/c");
        assert_eq!(&*urls[2], "https://s/b");
    }

    #[test]
    fn reader_holding_old_version_is_unaffected_by_commits() {
        let store = SnapshotStore::new(0);
        let (b1, h1) = body_of(10);
        store.commit("https://s/a", 200, b1, h1);
        let held = store.read("https://s/a").expect("known");
        let (b2, h2) = body_of(20);
        store.commit("https://s/a", 200, b2, h2);
        assert_eq!(held.body_hash, h1, "held version is immutable");
        assert_eq!(store.peek("https://s/a").expect("known").body_hash, h2);
    }

    /// `threads` committers released together on `url`; every generation
    /// they were handed, sorted.
    fn racing_commits(store: &SnapshotStore, url: &str, threads: u64, each: u64) -> Vec<u64> {
        let barrier = std::sync::Barrier::new(threads as usize);
        let mut generations: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        (0..each)
                            .map(|k| {
                                let (body, hash) = body_of(t * each + k);
                                store.commit(url, 200, body, hash)
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("committer panicked"))
                .collect()
        });
        generations.sort_unstable();
        generations
    }

    /// The slot's `history` mutex alone serialises commits to a known URL.
    #[test]
    fn concurrent_commits_to_one_url_get_distinct_consecutive_generations() {
        let store = SnapshotStore::new(3);
        let (body, hash) = body_of(0);
        store.commit("https://s/a", 200, body, hash);
        let generations = racing_commits(&store, "https://s/a", 4, 250);
        assert_eq!(generations, (2..=1001).collect::<Vec<u64>>());
        assert_eq!(store.generation("https://s/a"), 1001);
        assert_eq!(store.retained("https://s/a"), 3);
        assert_eq!(store.len(), 1);
    }

    /// The index is re-checked under the shelf's write lock.
    #[test]
    fn racing_inserts_of_one_new_url_share_one_slot() {
        let store = SnapshotStore::new(0);
        let generations = racing_commits(&store, "https://s/new", 4, 1);
        assert_eq!(generations, vec![1, 2, 3, 4]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.slot("https://s/new"), Some(0));
        assert_eq!(store.urls().len(), 1);
    }

    /// Every one of many similar URLs resolves to its own slot, through
    /// each of the index's three readers.
    #[test]
    fn ten_thousand_urls_each_resolve_to_their_own_slot() {
        let store = SnapshotStore::new(0);
        let url = |k: u64| format!("https://s/p{k}");
        for k in 0..10_000u64 {
            let (body, hash) = body_of(k);
            assert_eq!(store.commit(&url(k), 200, body, hash), 1);
        }
        assert_eq!(store.len(), 10_000);
        for k in 0..10_000u64 {
            let url = url(k);
            assert_eq!(store.slot(&url), Some(k as usize));
            let (_, hash) = body_of(k);
            let read = store.read(&url).expect("known");
            assert_eq!((&*read.url, read.body_hash), (url.as_str(), hash));
            let peeked = store.peek(&url).expect("known");
            assert!(Arc::ptr_eq(&read, &peeked));
        }
        assert!(store.slot("https://s/p10000").is_none());
    }

    /// Compile-time: both are `Send + Sync` by auto-derivation.
    const _: fn() = || {
        fn shared<T: Send + Sync>() {}
        shared::<ArcCell<Vec<u8>>>();
        shared::<SnapshotStore>();
    };
}
