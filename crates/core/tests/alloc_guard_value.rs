//! Allocation-regression guard for the memoised value frontier (PR 22).
//!
//! Before PR 22 a `ValueStrategy` ranking pass re-tokenised, re-sketched
//! and re-featurised every frontier candidate: six or more heap
//! allocations **per candidate per pass** (a token `Vec<String>`, the
//! n-gram strings, a bag of words, a sketch, a bigram `HashMap`, a feature
//! vector), ~2.5 ms of CPU per request on the `value_window16` workload.
//! Its learning terms now keep one memo per candidate and a pass redoes
//! only what a term's state change invalidated. This guard pins a pass with
//! no new candidate and no training since the last one — but one fetch,
//! which overwrites a near-dup ring slot and moves some kept projections —
//! to a small number of allocations that **does not depend on the
//! frontier's size** (a moved projection is refilled in place). That memos
//! are released with their candidates is checked by `select_batch` itself
//! in debug builds, after every pass.
//!
//! The counting allocator is process-global, so this file holds exactly one
//! `#[test]` — a second concurrent test would corrupt the counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_crawler::strategy::Strategy;
use sb_crawler::ValueStrategy;
use sb_webgraph::UrlClass;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Sibling-directory URLs: shared bigrams, so near-dup and classifier
/// memos all hold real content.
fn url(i: usize) -> String {
    let dir = ["data", "docs", "files", "about"][i % 4];
    let ext = ["csv", "html", "pdf"][i % 3];
    format!("https://s.example/{dir}/sub{}/item-{}.{ext}", i % 7, i / 4)
}

/// Heap allocations of one steady-state `select_batch(1)` on a warmed
/// default-mix frontier of `candidates` URLs.
fn steady_pass_allocations(candidates: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(0);
    let mut strategy = ValueStrategy::default_mix();
    for i in 0..candidates {
        strategy.enqueue(i as u32, &url(i), 1 + (i % 4) as u32);
    }
    // 40 labelled fetches: the near-dup ring wraps, the classifier trains
    // four times and leaves its initial phase.
    for i in 0..40 {
        let fetched = url(10_000 + i);
        let class = if fetched.ends_with("html") { UrlClass::Html } else { UrlClass::Target };
        strategy.on_fetched(0, &fetched, class);
    }
    // Two warming passes: the first admits and scores every candidate, and
    // both leave the ranking scratch at capacity. Wide and narrow batches,
    // so release runs through both shapes.
    for k in [5, 1] {
        let batch = strategy.select_batch(k, &mut rng);
        assert_eq!(batch.len(), k);
        for sel in batch {
            strategy.feedback(sel.token, 0.5);
        }
    }
    // One fetch between the warming passes and the measured one: it
    // overwrites a near-dup ring slot, and its 33 new bigrams grow the hit
    // table under some candidates' buckets, so the measured pass
    // re-projects those into the projections their memos keep — in place.
    let novel: Vec<String> = (0..32).map(|t| format!("t{t}")).collect();
    strategy.on_fetched(0, &format!("https://s.example/{}", novel.join("/")), UrlClass::Html);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let batch = strategy.select_batch(1, &mut rng);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(batch.len(), 1);
    assert_eq!(strategy.frontier_len(), candidates - 7);
    allocations
}

#[test]
fn steady_state_pass_allocates_a_constant_not_per_candidate() {
    let small = steady_pass_allocations(50);
    let large = steady_pass_allocations(500);
    assert_eq!(
        small, large,
        "a steady-state pass allocated {small} times over 50 candidates and {large} over 500: \
         per-candidate work is back in the ranking loop"
    );
    // Measured 1: the returned batch. The budget leaves room for the
    // ledger's amortised growth, which this fixture's pass does not hit.
    assert!(small <= 2, "a steady-state pass allocated {small} times (budget 2)");
}
