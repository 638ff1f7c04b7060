//! Allocation-regression guard for the sparse sketch kernel (PR 14).
//!
//! `ActionSpace::assign` runs once per enqueued link. Before PR 14 every
//! call zero-filled two `D`-sized arrays in the projection, cloned `D`-sized
//! centroids through the HNSW relink and ran ~30 cosines over all
//! `D = 4096` coordinates to combine ~10 non-zeros — ~130 µs per link on
//! the `sb_budget` workload. The sparse kernel touches only non-zeros; this
//! guard keeps it that way by pinning what a joining `assign` on a warmed
//! 15-action space may allocate: **no single allocation as large as one
//! dense vector** (`D × 4` bytes) and a small total. If a `D`-sized
//! temporary creeps back in, the first ceiling fails; if per-coordinate
//! work does, the second.
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

/// 15 link contexts × 4 link-class variants. Each context is ten segments
/// deep, so its variants share 12 of 14 bigrams (cos ≈ 0.86) and cluster
/// into one action at the paper's θ = 0.75. Like a real site's templates,
/// contexts share their outer layout segments in varying amounts and differ
/// in the inner five — far below θ, so each context founds its own action.
fn tag_paths() -> Vec<TagPath> {
    let classes = ["a.download", "a.file", "a.dataset", "a.doc-link"];
    (0..15)
        .flat_map(|k| {
            classes.iter().map(move |a| {
                TagPath::parse(&format!(
                    "html body div#l{} div.w{} main.m{} section.s{} article.p{} \
                     div.d{k} div.e{k} div.f{k} ul.u{k} li.l{k} {a}",
                    k % 2,
                    k % 3,
                    k % 2,
                    k % 3,
                    k % 5
                ))
            })
        })
        .collect()
}

#[test]
fn joining_assign_never_allocates_a_dense_vector() {
    let cfg = ActionSpaceConfig::default();
    let dense_vector_bytes = (1usize << cfg.m) * std::mem::size_of::<f32>();
    let mut space = ActionSpace::new(cfg);
    let paths = tag_paths();

    // Warm: three passes, so every centroid has absorbed every variant and
    // the vocabulary and hit table have stopped growing.
    for _ in 0..3 {
        for p in &paths {
            space.assign(p).expect("no cap");
        }
    }
    assert_eq!(space.len(), 15, "the fixture must build exactly 15 actions");

    for (i, p) in paths.iter().enumerate() {
        let members_before = space.members(i / 4);
        LARGEST_ALLOCATION.store(0, Ordering::Relaxed);
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        let action = space.assign(p).expect("no cap");
        let total = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
        let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);

        assert_eq!(action, i / 4, "path {i} must join its context's action");
        assert_eq!(
            space.members(action),
            members_before + 1,
            "path {i} must join, not found"
        );
        assert!(
            largest < dense_vector_bytes,
            "assign of path {i} made a {largest}-byte allocation (a dense vector is \
             {dense_vector_bytes}): a D-sized temporary has crept back in"
        );
        // The token slices, the one gram buffer, one sketch and the moved
        // centroid — measured 872 bytes on every path of this fixture
        // (largest single allocation 272), against 1.8 KiB while every
        // token and every gram was its own `String`; the budget is twice
        // the measurement. The dense path allocated a dozen-plus 16 KiB
        // vectors per call.
        assert!(
            total <= 1744,
            "assign of path {i} allocated {total} bytes (budget 1744): per-token, \
             per-gram or per-coordinate work has crept back in"
        );
    }
    assert_eq!(
        space.len(),
        15,
        "measured assigns must not found new actions"
    );
}
