//! Allocation-regression guard for link admission (PR 19).
//!
//! Algorithm 4 tests `u_new ∉ T ∪ F` for every hyperlink of every page,
//! and ~88 % of those tests answer "already known", so the per-link cost of
//! a crawl is the cost of *rejecting* a link. Two things keep that cost
//! allocation-free, and this guard licenses both: the session resolves
//! every href into one reused scratch `Url` (`Url::join_into`), and
//! `VisitedSet::get` keys on the canonical-form fingerprint and confirms
//! against the stored text without building a string. Pinned here, per
//! tier: **zero** allocations over 10 000 resolve-and-reject rounds on a
//! warmed scratch, and at most six per admitted URL (canonical string, its
//! `Arc`, the parsed copy's components; table growth amortised) — if a
//! per-href `Url`, a `format!` or a key clone creeps back in, the first
//! fails; if an entry grows a second stored copy, the second.
//!
//! Only the measuring thread is counted (the test harness allocates on its
//! own threads), and this file holds exactly one `#[test]`.

use sb_scale::VisitedSet;
use sb_webgraph::url::Url;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn record() {
    if MEASURING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` performs on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Href `i` of generation `gen`, cycling through every branch of the
/// resolver: root-relative, relative with `..`, query-only, absolute and
/// protocol-relative.
fn href(gen: &str, i: usize) -> String {
    match i % 5 {
        0 => format!("/files/{gen}/report-{i}.pdf"),
        1 => format!("../{gen}/up/{i}.html#top"),
        2 => format!("?{gen}={i}"),
        3 => format!("https://www.example.org/{gen}/abs/{i}?v=2"),
        _ => format!("//www.example.org/{gen}/pr/{i}"),
    }
}

#[test]
fn rejecting_a_known_link_never_allocates() {
    let base = Url::parse("https://www.example.org/section/page.html").unwrap();
    let known: Vec<String> = (0..1000).map(|i| href("known", i)).collect();
    let fresh: Vec<String> = (0..1000).map(|i| href("fresh", i)).collect();

    // Pure exact, and a set that crosses into the compact tier early.
    for threshold in [usize::MAX, 100] {
        let mut set = VisitedSet::with_threshold(threshold);
        let mut scratch = base.clone();
        // Intern the known links; this also warms the scratch.
        for h in &known {
            base.join_into(h, &mut scratch).unwrap();
            set.intern(&scratch);
        }
        assert_eq!(set.len(), 1000);

        let rejected = allocations_in(|| {
            for _ in 0..10 {
                for h in &known {
                    base.join_into(h, &mut scratch).unwrap();
                    assert!(set.get(&scratch).is_some());
                }
            }
        });
        assert_eq!(
            rejected, 0,
            "threshold {threshold}: 10 000 resolve-and-reject rounds allocated {rejected} times"
        );

        let admitted = allocations_in(|| {
            for h in &fresh {
                base.join_into(h, &mut scratch).unwrap();
                assert!(set.get(&scratch).is_none());
                set.intern(&scratch);
            }
        });
        assert_eq!(set.len(), 2000);
        assert!(
            admitted <= 6000,
            "threshold {threshold}: admitting 1 000 URLs allocated {admitted} times (budget 6 000)"
        );
    }
}
