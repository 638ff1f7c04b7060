//! Allocation-regression guard for the sparse sketch kernel (PR 14).
//!
//! `ActionSpace::assign` runs once per enqueued link. Before PR 14 every
//! call zero-filled two `D`-sized arrays in the projection, cloned `D`-sized
//! centroids through the HNSW relink and ran ~30 cosines over all
//! `D = 4096` coordinates to combine ~10 non-zeros — ~130 µs per link on
//! the `sb_budget` workload. The sparse kernel touches only non-zeros, and
//! since the path memo a repeat path is neither tokenised nor sketched, nor
//! its cosines recomputed, and the centroid moves into a reused scratch
//! vector. This guard pins what `assign` on a warmed 15-action space may
//! allocate. A **repeat path that joins allocates nothing** (measured 0 bytes
//! on all 60 fixture paths, down from 872 before the memo). A **first
//! sighting** that joins makes no single allocation as large as one dense
//! vector (`D × 4` bytes) and stays within 1 744 bytes (measured 1 111 to
//! 1 124). If a `D`-sized temporary creeps back in, the dense-vector ceiling
//! fails; if per-coordinate work does, the byte budgets; if a repeat stops
//! hitting the memo, the zero.
//!
//! The counting allocator is process-global, so this file holds exactly one
//! `#[test]` — a second concurrent test would corrupt the counts.

use sb_crawler::{ActionSpace, ActionSpaceConfig};
use sb_html::TagPath;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    ALLOCATED_BYTES.fetch_add(size, Ordering::Relaxed);
    LARGEST_ALLOCATION.fetch_max(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Link context `k` ending in link class `a`. Each context is ten segments
/// deep, so its variants share 12 of 14 bigrams (cos ≈ 0.86) and cluster
/// into one action at the paper's θ = 0.75. Like a real site's templates,
/// contexts share their outer layout segments in varying amounts and differ
/// in the inner five — far below θ, so each context founds its own action.
fn tag_path(k: usize, a: &str) -> TagPath {
    TagPath::parse(&format!(
        "html body div#l{} div.w{} main.m{} section.s{} article.p{} \
         div.d{k} div.e{k} div.f{k} ul.u{k} li.l{k} {a}",
        k % 2,
        k % 3,
        k % 2,
        k % 3,
        k % 5
    ))
}

/// 15 link contexts × 4 link-class variants.
fn tag_paths() -> Vec<TagPath> {
    let classes = ["a.download", "a.file", "a.dataset", "a.doc-link"];
    (0..15).flat_map(|k| classes.iter().map(move |a| tag_path(k, a))).collect()
}

/// What `f` allocated: `(its result, total bytes, largest single allocation)`.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    LARGEST_ALLOCATION.store(0, Ordering::Relaxed);
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let out = f();
    let total = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    (out, total, LARGEST_ALLOCATION.load(Ordering::Relaxed))
}

#[test]
fn joining_assign_never_allocates_a_dense_vector() {
    let cfg = ActionSpaceConfig::default();
    let dense_vector_bytes = (1usize << cfg.m) * std::mem::size_of::<f32>();
    let mut space = ActionSpace::new(cfg);
    let paths = tag_paths();

    // Warm: three passes, so every centroid has absorbed every variant, the
    // vocabulary and hit table have stopped growing and every path is in
    // the memo.
    for _ in 0..3 {
        for p in &paths {
            space.assign(p).expect("no cap");
        }
    }
    assert_eq!(space.len(), 15, "the fixture must build exactly 15 actions");

    for (i, p) in paths.iter().enumerate() {
        let members_before = space.members(i / 4);
        let (action, total, _) = measure(|| space.assign(p).expect("no cap"));
        assert_eq!(action, i / 4, "path {i} must join its context's action");
        assert_eq!(space.members(action), members_before + 1, "path {i} must join, not found");
        // A repeat path reads its sketch and cosines from the memo and
        // moves the centroid into the scratch vector: measured 0 bytes on
        // every path of this fixture, against 872 while every link was
        // sketched afresh and every move built a new centroid.
        assert_eq!(
            total, 0,
            "the repeat assign of path {i} allocated {total} bytes: it must take its \
             sketch and cosines from the memo and move the centroid in place"
        );
    }

    // First sightings: a fifth link class per context, new to the memo and
    // to the vocabulary, joins its context's action.
    for k in 0..15 {
        let p = tag_path(k, "a.extra");
        let members_before = space.members(k);
        let (action, total, largest) = measure(|| space.assign(&p).expect("no cap"));
        assert_eq!(action, k, "context {k}'s new class must join its action");
        assert_eq!(space.members(action), members_before + 1);
        assert!(
            largest < dense_vector_bytes,
            "the first assign of context {k}'s new class made a {largest}-byte allocation \
             (a dense vector is {dense_vector_bytes}): a D-sized temporary has crept back in"
        );
        // The token slices, the gram buffer and the two new grams, the sums,
        // the sketch, the memo's key and its cosine row, and the scratch
        // vector's growth to the moved centroid's new support — measured
        // 1 111 to 1 124 bytes (largest single allocation 240). The budget is
        // the one a joining `assign` had before the memo: twice its 872.
        assert!(
            total <= 1744,
            "the first assign of context {k}'s new class allocated {total} bytes \
             (budget 1744): per-token, per-gram or per-coordinate work has crept back in"
        );
    }
    assert_eq!(space.len(), 15, "measured assigns must not found new actions");
}
