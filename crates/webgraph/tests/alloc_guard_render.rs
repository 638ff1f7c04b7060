//! Allocation-regression guard for the origin's page renderer (PR 23).
//!
//! At streaming scale the origin renders a page per request, so what a
//! render allocates is paid 75 000 times on `scale_stream` — the tree
//! renderer's 172 allocations / 28.6 KB per 1.4 KB page were a third of
//! that crawl's wall time. The streaming emitter writes into a reused
//! thread-local buffer, borrows every href and title from the site and
//! formats nothing on the side; pinned here on a warmed thread:
//!
//! * `with_rendered` of a ~12-link page performs **≤ 2** heap allocations
//!   and requests **< 512 B** (measured 1 / 256 B: the writer's tag stack);
//! * a `Website::rendered` miss adds exactly the one exact-sized
//!   `Arc<[u8]>` — no intermediate `String`, no regrowth (measured 2 / 1 544 B
//!   for a 1 267-byte page, the render included).
//!
//! One `href(..).to_owned()`, `title.to_owned()` or `format!` per link puts
//! the first over budget at once (12 links → 13 allocations).
//!
//! Only the measuring thread is counted (the test harness allocates on its
//! own threads), and this file holds exactly one `#[test]`.

use sb_webgraph::gen::render::with_rendered;
use sb_webgraph::gen::{build_site, PageKind, SiteSource, SiteSpec};
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
fn rendering_a_page_allocates_its_tag_stack_and_nothing_else() {
    let site = build_site(&SiteSpec::demo(600), 7);
    // The two HTML pages closest to 12 out-links: one to measure the
    // emitter on, one still unrendered for the cache-miss measurement.
    let mut html: Vec<PageId> = (0..site.len() as PageId)
        .filter(|&id| matches!(site.page(id).kind, PageKind::Html(_)))
        .collect();
    html.sort_by_key(|&id| (site.page(id).out.len().abs_diff(12), id));
    let (page, other) = (html[0], html[1]);
    let n_links = site.page(page).out.len();
    assert!((10..=14).contains(&n_links), "no ~12-link page: closest has {n_links}");

    // Warm the thread's buffer on the larger of the two pages.
    let warm = with_rendered(&site, page, <[u8]>::len).max(with_rendered(&site, other, <[u8]>::len));
    assert!(warm > 1000, "page should be non-trivial, got {warm} bytes");

    let mut len = 0;
    let (allocs, bytes) = allocated_in(|| len = with_rendered(&site, page, <[u8]>::len));
    // A cold HEAD renders the page once and caches it, which also grows the
    // cache's tables before the miss below is measured.
    assert_eq!(len as u64, site.content_length(page));
    assert!(
        allocs <= 2 && bytes < 512,
        "rendering a {n_links}-link, {len}-byte page allocated {allocs} times / {bytes} B \
         (budget 2 / 512 B): per-link or per-node allocation has crept back in"
    );

    let renders = site.render_count();
    let mut body = None;
    let (miss_allocs, miss_bytes) = allocated_in(|| body = Some(site.rendered(other)));
    let body = body.expect("rendered");
    assert_eq!(site.render_count(), renders + 1, "the page must not have been cached yet");
    assert!(
        miss_allocs <= allocs + 1 && miss_bytes < bytes + body.len() + 64,
        "a render-cache miss of a {}-byte page allocated {miss_allocs} times / {miss_bytes} B: \
         expected the render ({allocs} / {bytes} B) plus one exact-sized Arc",
        body.len()
    );
}
