//! Allocation-regression guard for the streaming origin (PR 23).
//!
//! `StreamingSite` renders on demand through a bounded cache that a BFS
//! never hits (each page is fetched once), so a cache miss is the
//! per-request cost of the paper-scale crawl. A miss renders into the
//! thread's reused buffer (`sb_webgraph::gen::render::with_rendered`) and
//! copies the bytes once into an exact-sized `Arc<[u8]>`; the URL and title
//! arenas are sliced, never copied. Pinned here, over eight consecutive
//! misses on a warmed site:
//!
//! * requested bytes **< 2×** the bodies' bytes (the tree renderer
//!   requested ~20×), and **≤ 3 allocations per miss** — the emitter's tag
//!   stack, the `Arc`, and the cache's amortised table growth — so one
//!   `to_owned()` per href (≥ 10 per page here) fails it;
//! * `content_length` of an already-sized page — even one the cache has
//!   evicted — renders nothing and allocates nothing.
//!
//! Only the measuring thread is counted (the test harness allocates on its
//! own threads), and this file holds exactly one `#[test]`.

use sb_scale::stream_site;
use sb_webgraph::gen::{PageKind, SiteSource, SiteSpec};
use sb_webgraph::PageId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn record(size: usize) {
    if MEASURING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(size, Ordering::Relaxed);
    }
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

/// `(allocations, bytes requested)` by `f` on this thread.
fn allocated_in(f: impl FnOnce()) -> (usize, usize) {
    let before = (ALLOCATIONS.load(Ordering::Relaxed), ALLOCATED_BYTES.load(Ordering::Relaxed));
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        ALLOCATED_BYTES.load(Ordering::Relaxed) - before.1,
    )
}

#[test]
fn a_render_miss_costs_its_body_once() {
    // A cache of ~8 pages: every render below is a miss, and early pages
    // are evicted by the time they are asked for their length again.
    let site = stream_site(&SiteSpec::demo(800), 7).with_render_cache_budget(12 << 10);
    let html: Vec<PageId> = (0..site.n_pages() as PageId)
        .filter(|&id| matches!(site.kind(id), PageKind::Html(_)) && site.out_links(id).len() >= 10)
        .collect();
    assert!(html.len() >= 40, "only {} pages with 10+ links", html.len());
    let (warm, measured) = html[..40].split_at(32);

    // Warm-up: grows the thread's page buffer and the cache's tables.
    for &id in warm {
        site.rendered(id);
    }

    let renders = site.render_count();
    let mut body_bytes = 0;
    let (allocs, bytes) = allocated_in(|| {
        for &id in measured {
            body_bytes += site.rendered(id).len();
        }
    });
    assert_eq!(site.render_count(), renders + measured.len() as u64, "every fetch must miss");
    assert!(
        allocs <= 3 * measured.len() && bytes < 2 * body_bytes,
        "{} misses of {body_bytes} body bytes allocated {allocs} times / {bytes} B \
         (budget 3 per miss, 2x the bodies): the renderer copies what it should borrow",
        measured.len()
    );

    // Sized by the renders above, evicted since: HEAD needs no body.
    let renders = site.render_count();
    let (allocs, _) = allocated_in(|| {
        for &id in warm {
            assert!(site.content_length(id) > 0);
        }
    });
    assert_eq!(site.render_count(), renders, "HEAD of a sized page re-rendered it");
    assert_eq!(allocs, 0, "HEAD of a sized page allocated {allocs} times");
}
