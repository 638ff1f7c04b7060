//! Allocation-regression guard for the zero-copy HTML pipeline (PR 3).
//!
//! Tokenizing + DOM-building an entity-free, lowercase page must cost a
//! *bounded handful* of heap allocations — the arena vectors and their
//! geometric growth, nothing per token or per node. Before PR 3 the same
//! parse allocated one `String` per tag name, attribute value and text run
//! plus one `Vec` per element (hundreds of allocations on the page below);
//! if a change reintroduces per-token/per-node allocation, the pinned
//! ceilings here fail tier-1 verify.
//!
//! PR 24 adds the two guards of the deferred link features: walking a
//! page's link sites allocates nothing, and a tag path costs two
//! allocations whatever its depth. The last block bounds the byte-hostile
//! inputs `crates/bench/tests/html_equivalence.rs` holds to the seed: a
//! megabyte attribute and 10 000 levels of nesting. The final block bounds
//! what `parse` allocates in bytes: its arenas are sized by the page's
//! markup, once, whatever the length of its text.
//!
//! The counting allocator is process-global, so this file holds exactly one
//! `#[test]` — a second concurrent test would corrupt the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth realloc is an allocator round-trip too; count it so
        // arena doubling stays visible in the budget.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn count_alloc_bytes(f: impl FnOnce()) -> usize {
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    f();
    ALLOCATED_BYTES.load(Ordering::Relaxed) - before
}

/// An entity-free, lowercase page in the shape the generator produces:
/// ~100 elements, most carrying attributes, every anchor a single text node.
fn entity_free_page() -> String {
    let mut page = String::with_capacity(8 * 1024);
    page.push_str("<!DOCTYPE html><html><head><title>datasets</title></head><body>");
    page.push_str("<div id=\"main\" class=\"content wide\">");
    for section in 0..4 {
        page.push_str(&format!("<section class=\"sec-{section}\"><h2>section {section}</h2>"));
        page.push_str("<ul class=\"datasets\">");
        for item in 0..8 {
            page.push_str(&format!(
                "<li class=\"row\"><a class=\"dataset\" href=\"/data/s{section}/d{item}.csv\">dataset {item}</a> updated daily</li>"
            ));
        }
        page.push_str("</ul></section>");
    }
    page.push_str("</div></body></html>");
    page
}

#[test]
fn parse_of_entity_free_page_is_allocation_bounded() {
    let page = entity_free_page();

    // Warm up once outside the counted region (lazy runtime init, etc.).
    let warm = sb_html::parse(&page);
    assert!(warm.len() > 100, "page should be non-trivial, got {} nodes", warm.len());

    // Tokenize + DOM build. Budget: the node arena, the attr arena, the
    // roots/open stacks and the tokenizer's reused attr buffer, each with
    // O(log n) geometric growth — measured 17 on this page; 32 leaves
    // headroom without letting per-node allocation (hundreds here) sneak
    // back.
    let doc_allocs = count_allocs(|| {
        let doc = sb_html::parse(&page);
        assert!(doc.len() > 100);
        std::mem::forget(doc); // keep dealloc out of the counted region
    });
    assert!(
        doc_allocs <= 32,
        "tokenize+parse allocated {doc_allocs} times (budget 32): \
         per-token/per-node allocation has crept back in"
    );

    // Href-only link extraction on top of a parsed document — the BFS/DFS
    // hot path — adds only the output vector's growth: borrowed hrefs, no
    // tag paths, no text windows. Measured 4; budget 8.
    let doc = sb_html::parse(&page);
    let link_allocs = count_allocs(|| {
        let links = sb_html::extract_links_from_with(&doc, sb_html::LinkNeeds::HREF_ONLY);
        assert_eq!(links.len(), 32);
        std::mem::forget(links);
    });
    assert!(
        link_allocs <= 8,
        "href-only extraction allocated {link_allocs} times (budget 8): \
         per-link allocation has crept back in"
    );

    // Finding the links is free: walking the page's link sites without
    // asking for a feature — all a crawl does for a link its visited set
    // already knows — touches the allocator not once.
    let site_allocs = count_allocs(|| {
        assert_eq!(sb_html::link_sites(&doc).count(), 32);
    });
    assert_eq!(site_allocs, 0, "walking link sites allocated {site_allocs} times");

    // A tag path is one string: its text and its token offsets, whatever
    // its depth and however decorated. The nested representation paid one
    // allocation per id, per class, per class list and for the segment
    // vector (9+ here); a `to_owned()` per class brings three of them back.
    let deep = sb_html::parse(
        "<html><body><div id=\"layout\"><div class=\"wrap wide\"><main><section id=\"s1\">\
         <ul class=\"datasets\"><li><span><a href=\"/d.csv\">d</a></span></li></ul>\
         </section></main></div></div></body></html>",
    );
    let anchor = deep.elements_named("a")[0];
    let path_allocs = count_allocs(|| {
        let path = sb_html::TagPath::of(&deep, anchor);
        assert_eq!(path.len(), 10);
        std::mem::forget(path);
    });
    assert_eq!(
        sb_html::TagPath::of(&deep, anchor).as_str(),
        "html body div#layout div.wrap.wide main section#s1 ul.datasets li span a"
    );
    assert!(
        path_allocs <= 2,
        "TagPath::of allocated {path_allocs} times (budget 2): per-segment allocation has crept back in"
    );

    // The zero-copy contract behind those numbers: every borrowable piece
    // of this page is actually borrowed.
    let borrowed_hrefs = sb_html::extract_links(&page)
        .iter()
        .filter(|l| matches!(l.href, std::borrow::Cow::Borrowed(_)))
        .count();
    assert_eq!(borrowed_hrefs, 32, "entity-free hrefs must all borrow the input");

    // Surrounding-text cap (PR 4 satellite): the window is capped *before*
    // whitespace normalisation, so ALL-features extraction from a block
    // with a huge text mass allocates O(window), not O(block). The block
    // text is spread over many nodes (<b> runs) so the borrowed
    // single-text-node fast path cannot hide the cost.
    let mut huge = String::with_capacity(300 * 1024);
    huge.push_str("<html><body><p>");
    huge.push_str("<a href=\"/data/needle.csv\">needle</a>");
    for _ in 0..4096 {
        huge.push_str("filler words here <b>and more</b>\n  ");
    }
    huge.push_str("</p></body></html>");
    let doc = sb_html::parse(&huge);
    let link_bytes = count_alloc_bytes(|| {
        let links = sb_html::extract_links_from_with(&doc, sb_html::LinkNeeds::ALL);
        assert_eq!(links.len(), 1);
        assert!(links[0].surrounding_text.starts_with("filler words"));
        std::mem::forget(links);
    });
    // The uncapped path normalised the ~150 KB block into a fresh String
    // per pass (plus the raw scratch fill); the capped path touches a few
    // hundred chars. 16 KB leaves generous headroom without letting
    // O(block) normalisation sneak back.
    assert!(
        link_bytes <= 16 * 1024,
        "ALL-features extraction allocated {link_bytes} bytes on a huge block \
         (budget 16384): the pre-normalisation window cap has regressed"
    );

    // Byte-hostile inputs cost what their shape costs, not what their size
    // does: a megabyte attribute value is borrowed whole, quoted or not,
    // and 10 000 nested elements grow the arenas and the open-element
    // stack geometrically. Each budget is twice the count measured (6, 6
    // and 30): tokenize + parse + href-only extraction, as a crawl runs it.
    let big: String = "ab0/c-1.d_".chars().cycle().take(1 << 20).collect();
    let mut deep = String::from("<div>outer <a href='/outer'>up</a>");
    deep.push_str(&"<div>".repeat(9_999));
    deep.push_str("<a href='/inner'>deep</a>");
    deep.push_str(&"</div>".repeat(10_000));
    for (name, input, budget) in [
        ("quoted megabyte href", format!("<a href=\"/{big}\">q</a><a href='/next'>n</a>"), 12),
        ("unquoted megabyte href", format!("<a href=/{big}>u</a><a href='/next'>n</a>"), 12),
        ("10 000 nested divs", deep, 60),
    ] {
        let allocs = count_allocs(|| {
            let doc = sb_html::parse(&input);
            let links = sb_html::extract_links_from_with(&doc, sb_html::LinkNeeds::HREF_ONLY);
            assert_eq!(links.len(), 2);
            std::mem::forget((doc, links));
        });
        assert!(allocs <= budget, "{name}: {allocs} allocations (budget {budget})");
    }

    // Parse memory in bytes, not only in calls: `parse` reserves its node
    // and attribute arenas once, from the input's count of `<` and `=`, so
    // what it allocates follows the markup, not the text. Doubling arenas
    // allocated 61 184 B (17 calls) on the page above, 448 B (3) on 100 kB
    // of prose in one `<p>` and 3 538 688 B (28) on a 3 000-item link
    // list; each budget but the prose page's is that figure. A reservation
    // from the input's length alone (one node per 16 bytes) costs the prose
    // page hundreds of kilobytes, which its 4 KB budget refuses.
    let prose = format!("<html><body><p>{}</p></body></html>", "plain prose words. ".repeat(5_263));
    let mut list = String::from("<html><body><ul>");
    for item in 0..3_000 {
        list.push_str(&format!("<li><a href=\"/d/{item}.csv\">dataset {item}</a></li>"));
    }
    list.push_str("</ul></body></html>");
    for (name, input, budget) in [
        ("the entity-free page", page, 61_184),
        ("100 kB of prose", prose, 4 * 1024),
        ("a 3 000-item link list", list, 3_538_688),
    ] {
        let bytes = count_alloc_bytes(|| std::mem::forget(sb_html::parse(&input)));
        assert!(bytes <= budget, "parsing {name} allocated {bytes} B (budget {budget} B)");
    }
}
