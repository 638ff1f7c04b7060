//! Allocation guard for deferred target bodies: a target nobody reads is
//! never generated.
//!
//! The crawler decides on URL, tag path and MIME type and accounts a
//! target's declared `Content-Length`; it never reads the payload. So
//! `SiteServer` answers a target GET with a deferred `Body` that generates
//! the payload through the site's body cache on its first read. Pinned
//! here, on the eager and the streaming store:
//!
//! * a GET of a ≥ 30 kB target, then `declared_len`, `wire_size` and
//!   `settle_get` — everything the wire path does with it — makes no
//!   allocation of payload size and allocates < 1 kB in total;
//! * the first read generates the payload once (at least its length, under
//!   3× it: the generator's buffer and the shared copy);
//! * a second read, and a read through a clone, allocate nothing;
//! * a BFS crawl without `keep_target_bodies` leaves the target cache
//!   empty, and one with it reads every kept body back equal to
//!   `target_payload`.
//!
//! This guard lives in `sb-crawler` because it is the crate that reaches
//! the server, the streaming site and the crawl at once. Only the
//! measuring thread is counted, so the tests here may run concurrently.

use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{crawl, CrawlConfig};
use sb_httpsim::client::settle_get;
use sb_httpsim::{HttpServer, SiteServer};
use sb_scale::stream_site;
use sb_webgraph::gen::{build_site, cache, PageKind, SiteSource, SiteSpec};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::PageId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED_BYTES: Cell<usize> = const { Cell::new(0) };
    static LARGEST_ALLOCATION: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    if MEASURING.with(Cell::get) {
        ALLOCATED_BYTES.with(|b| b.set(b.get() + size));
        LARGEST_ALLOCATION.with(|l| l.set(l.get().max(size)));
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

/// `(f's result, bytes requested, largest single request)` by `f` on this
/// thread.
fn allocated_in<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    ALLOCATED_BYTES.with(|b| b.set(0));
    LARGEST_ALLOCATION.with(|l| l.set(0));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, ALLOCATED_BYTES.with(Cell::get), LARGEST_ALLOCATION.with(Cell::get))
}

/// Target pages declaring at least 30 kB, in id order.
fn big_targets(site: &dyn SiteSource) -> Vec<PageId> {
    (0..site.n_pages() as PageId)
        .filter(|&id| matches!(site.kind(id), PageKind::Target { declared_size, .. } if *declared_size >= 30_000))
        .collect()
}

fn an_unread_target_is_never_generated(site: Arc<dyn SiteSource>, store: &str) {
    let server = SiteServer::from_source(Arc::clone(&site));
    let policy = MimePolicy::default();
    let targets = big_targets(&*site);
    assert!(targets.len() >= 2, "{store}: only {} targets of 30 kB or more", targets.len());

    // Warm-up on another target: the lookup tables and MIME normalisation.
    let warm = settle_get(server.get(site.url(targets[1])), &policy);
    assert!(warm.body.len() >= 30_000);

    let cached = site.body_cache().cached_body_bytes();
    let (fetched, bytes, largest) = allocated_in(|| {
        let r = server.get(site.url(targets[0]));
        assert!(r.declared_len() >= 30_000);
        assert!(r.wire_size() > r.declared_len());
        settle_get(r, &policy)
    });
    assert!(!fetched.interrupted && fetched.wire_bytes > 30_000, "{store}: not a full transfer");
    assert_eq!(site.body_cache().cached_body_bytes(), cached, "{store}: the GET cached a payload");
    assert!(
        bytes < 1024 && largest < 1024,
        "{store}: an unread target GET allocated {bytes} B (largest block {largest} B)"
    );

    let (len, bytes, largest) = allocated_in(|| fetched.body.len());
    assert_eq!(&*fetched.body, &*site.target_payload(targets[0]), "{store}: bytes differ");
    assert!(
        largest >= len && bytes < 3 * len,
        "{store}: the first read of a {len} B payload allocated {bytes} B (largest block {largest} B)"
    );

    let copy = fetched.body.clone();
    let (_, bytes, _) = allocated_in(|| {
        assert_eq!(fetched.body.len(), len);
        assert_eq!(copy.as_slice(), &*fetched.body);
    });
    assert_eq!(bytes, 0, "{store}: a repeat read allocated {bytes} B");
}

#[test]
fn an_unread_target_is_never_generated_on_the_eager_store() {
    let site = build_site(&SiteSpec::demo(600), 3).with_target_cache_budget(cache::UNBOUNDED);
    an_unread_target_is_never_generated(Arc::new(site), "eager");
}

#[test]
fn an_unread_target_is_never_generated_on_the_streaming_store() {
    an_unread_target_is_never_generated(Arc::new(stream_site(&SiteSpec::demo(600), 3)), "streaming");
}

/// A crawl that keeps no target bodies generates none: afterwards, reading
/// every target's payload adds exactly all of their bytes to the (unbounded)
/// cache. One that keeps them reads each back equal to `target_payload`.
#[test]
fn a_bfs_crawl_generates_only_the_targets_it_keeps() {
    let site = Arc::new(build_site(&SiteSpec::demo(600), 5).with_target_cache_budget(cache::UNBOUNDED));
    let root = site.url(site.root()).to_owned();
    let server = SiteServer::shared(Arc::clone(&site));

    let out = crawl(&server, Some(&*site), &root, &mut QueueStrategy::bfs(), &CrawlConfig::default());
    assert!(out.targets_found() > 10, "the crawl found {} targets", out.targets_found());
    assert!(out.targets.iter().all(|t| t.body.is_none()));
    let after_crawl = site.body_cache().cached_body_bytes();
    let payload_bytes: u64 = site.target_ids().iter().map(|&id| site.target_payload(id).len() as u64).sum();
    assert_eq!(
        site.body_cache().cached_body_bytes() - after_crawl,
        payload_bytes,
        "the crawl left target payloads in the cache"
    );

    let fresh = Arc::new(build_site(&SiteSpec::demo(600), 5).with_target_cache_budget(cache::UNBOUNDED));
    let server = SiteServer::shared(Arc::clone(&fresh));
    let cfg = CrawlConfig { keep_target_bodies: true, ..Default::default() };
    let kept = crawl(&server, Some(&*fresh), &root, &mut QueueStrategy::bfs(), &cfg);
    assert_eq!(kept.targets_found(), out.targets_found());
    for t in &kept.targets {
        let id = fresh.lookup(&t.url).expect("a crawled target belongs to the site");
        let body = t.body.as_ref().expect("kept");
        assert_eq!(&**body, &*fresh.target_payload(id), "{}", t.url);
    }
}
