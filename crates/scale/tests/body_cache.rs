//! One behaviour suite for both site stores: the eager `Website` and the
//! streaming `StreamingSite` serve through the same `BodyCache`, so the same
//! assertions hold for both, instantiated once per store below. HEAD is
//! `content_length`, GET is `rendered` / `target_payload` — what the origin
//! server calls.
//!
//! * The first HEAD of an HTML page renders it once; the GET after it and
//!   any later HEAD or GET of the page render nothing.
//! * Every page of a 300-page site serves what the generator makes: bodies
//!   equal `render_page`, sizes equal the body length, payloads equal
//!   `content::target_body`; and the cached bytes never exceed the budgets.
//!
//! Then one test per store for what only it does: a streaming page whose
//! body was evicted still answers HEAD without rendering, and a `Website`
//! mutated after serving serves fresh bytes for the mutated page and for a
//! page linking to it.

use sb_scale::stream_site;
use sb_webgraph::content::target_body;
use sb_webgraph::gen::cache::UNBOUNDED;
use sb_webgraph::gen::render::render_page;
use sb_webgraph::gen::{build_site, HtmlRole, Lang, OutLink, PageKind, SiteSource, SiteSpec, Slot};
use sb_webgraph::PageId;

const SEED: u64 = 11;
/// A few pages' worth: the streaming site evicts from the first pass on.
const RENDER_BUDGET: u64 = 8 << 10;
/// A few targets' worth, on both stores.
const TARGET_BUDGET: u64 = 64 << 10;

/// Multilingual, so a page's nav bar depends on the kinds of the pages it
/// links to; small targets, so every payload is generated quickly.
fn spec() -> SiteSpec {
    SiteSpec {
        multilingual: true,
        languages: &[Lang::En, Lang::Fr, Lang::De],
        target_size_mb: (0.01, 0.02),
        ..SiteSpec::demo(300)
    }
}

fn html_pages(site: &dyn SiteSource) -> Vec<PageId> {
    (0..site.n_pages() as PageId).filter(|&id| matches!(site.kind(id), PageKind::Html(_))).collect()
}

macro_rules! body_cache_suite {
    ($store:ident, $site:expr, html_budget = $html_budget:expr) => {
        mod $store {
            use super::*;

            #[test]
            fn a_cold_head_renders_once_and_nothing_after_it() {
                let site = $site;
                for id in html_pages(&site) {
                    let renders = site.render_count();
                    let len = site.content_length(id);
                    assert_eq!(site.render_count(), renders + 1, "cold HEAD of page {id}");
                    assert_eq!(site.rendered(id).len() as u64, len, "page {id}");
                    assert_eq!(site.content_length(id), len, "page {id}");
                    assert_eq!(site.rendered(id).len() as u64, len, "page {id}");
                    assert_eq!(site.render_count(), renders + 1, "page {id} rendered twice");
                }
            }

            #[test]
            fn every_page_serves_what_the_generator_makes() {
                let site = $site;
                let (mut html_bytes, mut target_bytes) = (0u64, 0u64);
                for id in 0..site.n_pages() as PageId {
                    match site.kind(id) {
                        PageKind::Html(_) => {
                            let len = site.content_length(id);
                            let body = site.rendered(id);
                            assert_eq!(&body[..], render_page(&site, id).as_bytes(), "page {id}");
                            assert_eq!(len, body.len() as u64, "page {id}");
                            html_bytes += len;
                        }
                        PageKind::Target { ext, declared_size, planted_tables, .. } => {
                            let payload = site.target_payload(id);
                            let want = target_body(
                                SEED ^ u64::from(id),
                                ext,
                                *planted_tables,
                                *declared_size,
                                site.section_style(0).lang,
                            );
                            assert_eq!(&payload[..], &want[..], "target {id}");
                            assert_eq!(site.content_length(id), *declared_size, "target {id}");
                            target_bytes += payload.len() as u64;
                        }
                        PageKind::Error { .. } | PageKind::Redirect { .. } => {
                            assert_eq!(site.content_length(id), 0, "page {id}");
                        }
                    }
                    let cached = site.body_cache().cached_body_bytes();
                    let bound = html_bytes.min($html_budget) + target_bytes.min(TARGET_BUDGET);
                    assert!(cached <= bound, "{cached} B cached after page {id}, bound {bound} B");
                }
                assert!(target_bytes > TARGET_BUDGET, "the target budget was never tested");
            }
        }
    };
}

body_cache_suite!(
    website,
    build_site(&spec(), SEED).with_target_cache_budget(TARGET_BUDGET),
    html_budget = UNBOUNDED
);
body_cache_suite!(
    streaming,
    stream_site(&spec(), SEED)
        .with_render_cache_budget(RENDER_BUDGET)
        .with_target_cache_budget(TARGET_BUDGET),
    html_budget = RENDER_BUDGET
);

#[test]
fn an_evicted_streaming_page_answers_head_without_rendering() {
    let site = stream_site(&spec(), SEED).with_render_cache_budget(RENDER_BUDGET);
    let html = html_pages(&site);
    let lens: Vec<u64> = html.iter().map(|&id| site.content_length(id)).collect();
    assert!(lens.iter().sum::<u64>() > 4 * RENDER_BUDGET, "nothing was evicted");
    let renders = site.render_count();
    for (&id, &len) in html.iter().zip(&lens) {
        assert_eq!(site.content_length(id), len, "page {id}");
    }
    assert_eq!(site.render_count(), renders, "HEAD of a sized page rendered it");
    // The first page's body is gone: a GET renders it again, identically.
    assert_eq!(&site.rendered(html[0])[..], render_page(&site, html[0]).as_bytes());
    assert_eq!(site.render_count(), renders + 1, "the first page was never evicted");
}

#[test]
fn a_website_mutated_after_serving_serves_fresh_bytes() {
    let mut site = build_site(&spec(), SEED);
    let html = html_pages(&site);
    for &id in &html {
        site.content_length(id);
        site.rendered(id);
    }
    // HEAD, then GET: a stale size would be served before the render that
    // overwrites it.
    let assert_fresh = |site: &sb_webgraph::Website, id: PageId, before: &[u8]| {
        let len = site.content_length(id);
        let body = site.rendered(id);
        assert_eq!(&body[..], render_page(site, id).as_bytes(), "page {id} served stale bytes");
        assert_eq!(len, body.len() as u64, "page {id} kept a stale size");
        &body[..] != before
    };

    // `add_out_link`: a catalog gains a dataset entry.
    let from = html.iter().copied().find(|&id| id != site.root()).expect("a second HTML page");
    let linker = html
        .iter()
        .copied()
        .find(|&l| site.out_links(l).iter().any(|o| o.to == from))
        .expect("a page linking to the mutated one");
    let (from_before, linker_before) = (site.rendered(from), site.rendered(linker));
    site.add_out_link(from, OutLink { to: site.target_ids()[0], slot: Slot::DatasetItem });
    assert!(assert_fresh(&site, from, &from_before), "the new link is not in the body");
    assert_fresh(&site, linker, &linker_before);

    // `set_kind`: a page in another language than section 0's moves into
    // section 0, which rewords the nav bar of every page linking to it.
    let lang_of = |site: &sb_webgraph::Website, id: PageId| match site.kind(id) {
        PageKind::Html(role) => site.section_style(role.section()).lang,
        _ => site.section_style(0).lang,
    };
    let (linker, moved) = html
        .iter()
        .flat_map(|&l| {
            site.out_links(l).iter().filter(|o| o.slot == Slot::Nav).map(move |o| (l, o.to))
        })
        .find(|&(l, x)| l != x && lang_of(&site, x) != site.section_style(0).lang)
        .expect("a nav link into a section in another language");
    let (moved_before, linker_before) = (site.rendered(moved), site.rendered(linker));
    site.set_kind(moved, PageKind::Html(HtmlRole::Article { section: 0 }));
    assert!(assert_fresh(&site, moved, &moved_before), "the moved page did not change");
    assert!(assert_fresh(&site, linker, &linker_before), "the linking page's nav did not change");
}
