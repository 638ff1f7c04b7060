//! Deterministic HTML rendering of generated pages.
//!
//! Pages are streamed through `sb-html`'s [`HtmlWriter`] and re-parsed by the
//! crawler with the same crate's parser, so tag paths travel through a
//! genuine parse. Every [`Slot`] renders at a distinct, section-styled DOM
//! location; the per-section style variations (extra wrappers, different
//! list classes, `div#frame-…` unique ids on `unique_ids` sites) produce the
//! near-duplicate tag paths the θ-threshold clustering has to cope with.
//!
//! The contract, pinned against the frozen tree renderer by
//! `tests/proptest_render.rs`:
//!
//! * **Output order = RNG draw order.** [`render_page_into`] is the one
//!   emitter. It walks the template top to bottom — nav, breadcrumb,
//!   wrappers, content, footer, embeds — drawing from the per-page RNG
//!   exactly where the markup that needs the draw is written (a nav word
//!   before its href, an href before its anchor). Moving a section moves
//!   its draws and changes every later byte of the page.
//! * **Nothing is built to be walked later.** Links are filtered from
//!   `out_links(id)` per slot; hrefs and titles are borrowed from the site.
//! * **The buffer belongs to the caller.** [`with_rendered`] owns the only
//!   reused one — a thread-local page-sized `String` — and lends the bytes
//!   to a closure, so a cache miss ([`super::BodyCache`]) copies them once
//!   into an exact-sized `Arc<[u8]>`, which also sizes the page.
//!   [`render_page`] `-> String` is the same emitter over a fresh
//!   buffer: it stays for the frozen `sb_bench::reference` engine and for
//!   tests, which want an owned page and are not on a hot path.

use super::source::SiteSource;
use super::{HtmlRole, OutLink, PageId, PageKind, SectionStyle, Slot};
use crate::gen::lexicon;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_html::HtmlWriter;
use std::cell::RefCell;

/// Renders the HTML body of page `id`. Panics if the page is not HTML.
///
/// Generic over [`SiteSource`], so the eager `Website` and `sb-scale`'s
/// streaming site render through the same code path. The RNG draw sequence
/// depends only on (seed, id) and the page's links, never on the concrete
/// representation — that is what keeps the two byte-identical.
pub fn render_page<S: SiteSource + ?Sized>(site: &S, id: PageId) -> String {
    let mut out = String::with_capacity(2048);
    render_page_into(site, id, &mut out);
    out
}

/// Renders page `id` into this thread's reused buffer and lends the bytes to
/// `f`: the serving path of every [`SiteSource`] (see the module docs).
pub fn with_rendered<S: SiteSource + ?Sized, R>(
    site: &S,
    id: PageId,
    f: impl FnOnce(&[u8]) -> R,
) -> R {
    thread_local! {
        static PAGE: RefCell<String> = const { RefCell::new(String::new()) };
    }
    // Taken out of the cell while in use, so a re-entrant call renders into
    // a fresh buffer instead of panicking on the borrow.
    let mut page = PAGE.take();
    render_page_into(site, id, &mut page);
    let r = f(page.as_bytes());
    PAGE.set(page);
    r
}

/// [`render_page`] into `out`, whose previous contents are replaced.
pub fn render_page_into<S: SiteSource + ?Sized>(site: &S, id: PageId, out: &mut String) {
    let PageKind::Html(role) = *site.kind(id) else {
        panic!("render_page on non-HTML page {id}");
    };
    let style = site.section_style(role.section());
    let links = site.out_links(id);
    let rng = &mut StdRng::seed_from_u64(site.seed() ^ (u64::from(id) << 17) ^ 0x9e37_79b9);

    out.clear();
    let w = &mut HtmlWriter::document(out);
    w.open("html");
    w.open("head").open("meta").attr("charset", "utf-8").close();
    w.open("title").text(site.title(id)).close().close();

    w.open("body");
    w.open("header").open("nav").open("ul").classes(["menu"]);
    for l in links.iter().filter(|l| l.slot == Slot::Nav) {
        let lang = match *site.kind(l.to) {
            PageKind::Html(r) => site.section_style(r.section()).lang,
            _ => site.section_style(0).lang,
        };
        let word = lexicon::pick(rng, lexicon::nav_words(lang));
        w.open("li").open("a").attr("href", href(site, l.to, rng)).text(word).close().close();
    }
    w.close().close().close();

    w.open("div").id("layout");
    if let Some(crumbs) = in_slot(links, Slot::Breadcrumb) {
        w.open("div").classes(["breadcrumb"]);
        for l in crumbs {
            anchor(w, site, l.to, "", rng);
        }
        w.close();
    }
    for _ in 0..style.wrapper_divs {
        w.open("div").classes(["wrap"]);
    }
    w.open("main").open("div").classes(style.content_classes.iter().map(String::as_str));
    if site.spec().unique_ids {
        // The `ed` pathology: a unique id in the path of every content link.
        w.open("div").id_fmt(format_args!("frame-{id}")).classes(["frame"]);
        w.open("div").classes(["frame-standard"]);
        content(w, site, role, style, links, rng);
        w.close().close();
    } else {
        content(w, site, role, style, links, rng);
    }
    w.close().close();
    for _ in 0..style.wrapper_divs {
        w.close();
    }
    w.close(); // div#layout

    if let Some(footer) = in_slot(links, Slot::Footer) {
        w.open("footer").open("div").classes(["links"]);
        for l in footer {
            anchor(w, site, l.to, "", rng);
        }
        w.close().close();
    }
    for l in links.iter().filter(|l| l.slot == Slot::Embed) {
        w.open("iframe").attr("src", href(site, l.to, rng)).close();
    }
    w.close().close();
}

/// The links of `slot` in graph order, or `None` when the page has none (so
/// the section's container is not emitted at all).
fn in_slot(links: &[OutLink], slot: Slot) -> Option<impl Iterator<Item = &OutLink>> {
    let mut it = links.iter().filter(move |l| l.slot == slot).peekable();
    it.peek().is_some().then_some(it)
}

/// The children of the content container: heading, filler, then one list
/// per populated content slot.
fn content<S: SiteSource + ?Sized>(
    w: &mut HtmlWriter<'_>,
    site: &S,
    role: HtmlRole,
    style: &SectionStyle,
    links: &[OutLink],
    rng: &mut StdRng,
) {
    w.open("h1");
    match role {
        HtmlRole::Root => w.text(site.spec().name),
        // Titles are stored on the page itself; the heading is a
        // section-ish one derived from the role alone.
        _ => w.text_fmt(format_args!(
            "Section {} — {}",
            role.section(),
            style.content_classes.last().map_or("", String::as_str)
        )),
    };
    w.close();
    // Filler paragraphs.
    for _ in 0..rng.gen_range(1..4) {
        w.open("p").text(lexicon::pick(rng, lexicon::filler(style.lang))).close();
    }

    // Topic lists (hub → chains/catalog heads).
    if let Some(topics) = in_slot(links, Slot::TopicItem) {
        w.open("ul").classes(["topics"]);
        for l in topics {
            w.open("li");
            anchor(w, site, l.to, "", rng);
            w.close();
        }
        w.close();
    }

    // Article listings.
    if let Some(items) = in_slot(links, Slot::ListItem) {
        w.open("ul").classes(["items"]);
        for l in items {
            w.open("li").classes(["item"]);
            anchor(w, site, l.to, "", rng);
            w.close();
        }
        w.close();
    }

    // Dataset listings — the target-rich slot.
    if let Some(datasets) = in_slot(links, Slot::DatasetItem) {
        w.open("ul").classes([style.list_class.as_str()]);
        for l in datasets {
            w.open("li");
            anchor(w, site, l.to, &style.link_class, rng);
            w.close();
        }
        w.close();
    }

    // Article download boxes.
    if let Some(downloads) = in_slot(links, Slot::Download) {
        w.open("article").open("div").classes(["downloads"]).open("ul");
        for l in downloads {
            w.open("li");
            anchor(w, site, l.to, &style.link_class, rng);
            w.close();
        }
        w.close().close().close();
    }

    // Related links.
    if let Some(related) = in_slot(links, Slot::Related) {
        w.open("div").classes(["related"]).open("ul");
        for l in related {
            w.open("li");
            anchor(w, site, l.to, "", rng);
            w.close();
        }
        w.close().close();
    }

    // Pagination.
    if let Some(pages) = in_slot(links, Slot::Pagination) {
        w.open("div").classes(["pagination"]);
        for l in pages {
            w.open("a").classes(["page"]).attr("href", href(site, l.to, rng)).text("Next").close();
        }
        w.close();
    }
}

/// `<a class=".." href="..">title of `to`</a>`; `class` is a
/// whitespace-separated list, empty for a bare anchor.
fn anchor<S: SiteSource + ?Sized>(
    w: &mut HtmlWriter<'_>,
    site: &S,
    to: PageId,
    class: &str,
    rng: &mut StdRng,
) {
    let href = href(site, to, rng);
    w.open("a").classes(class.split_ascii_whitespace()).attr("href", href);
    w.text(site.title(to)).close();
}

/// Mostly root-relative hrefs, occasionally absolute — both forms occur in
/// the wild and both must resolve to the same page.
fn href<'s, S: SiteSource + ?Sized>(site: &'s S, to: PageId, rng: &mut StdRng) -> &'s str {
    let url = site.url(to);
    if rng.gen_bool(0.1) {
        return url;
    }
    match url.find("://").and_then(|p| url[p + 3..].find('/').map(|q| p + 3 + q)) {
        Some(slash) => &url[slash..],
        None => url,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{build_site, SiteSpec};
    use sb_html::extract_links;

    #[test]
    fn rendered_links_match_graph() {
        let spec = SiteSpec::demo(300);
        let site = build_site(&spec, 11);
        let root_url = crate::url::Url::parse(&site.page(site.root()).url).unwrap();
        for id in 0..site.len() as PageId {
            if !matches!(site.page(id).kind, PageKind::Html(_)) {
                continue;
            }
            let html = render_page(&site, id);
            let links = extract_links(&html);
            // Every graph out-link appears exactly once in the rendered page
            // (order differs: the template groups links by slot).
            assert_eq!(links.len(), site.page(id).out.len(), "page {id}");
            let mut rendered: Vec<String> = links
                .iter()
                .map(|l| root_url.join(&l.href).unwrap().as_string())
                .collect();
            let mut expected: Vec<String> =
                site.page(id).out.iter().map(|o| site.page(o.to).url.clone()).collect();
            rendered.sort();
            expected.sort();
            assert_eq!(rendered, expected, "page {id}");
        }
    }

    #[test]
    fn deterministic_rendering() {
        let spec = SiteSpec::demo(120);
        let site = build_site(&spec, 3);
        for id in [0u32, 1, 5] {
            if matches!(site.page(id).kind, PageKind::Html(_)) {
                assert_eq!(render_page(&site, id), render_page(&site, id));
            }
        }
    }

    #[test]
    fn dataset_links_share_tag_path_within_section() {
        let spec = SiteSpec::demo(600);
        let site = build_site(&spec, 9);
        // Find a list page with ≥ 2 dataset links.
        for id in 0..site.len() as PageId {
            let page = site.page(id);
            if !matches!(page.kind, PageKind::Html(HtmlRole::List { .. })) {
                continue;
            }
            let n_ds = page.out.iter().filter(|l| l.slot == Slot::DatasetItem).count();
            if n_ds < 2 {
                continue;
            }
            let html = render_page(&site, id);
            let links = extract_links(&html);
            let ds_paths: Vec<String> = links
                .iter()
                .filter(|l| l.tag_path.to_string().contains("li a."))
                .map(|l| l.tag_path.to_string())
                .collect();
            assert!(ds_paths.len() >= 2);
            assert!(ds_paths.windows(2).all(|w| w[0] == w[1]), "{ds_paths:?}");
            return;
        }
        panic!("no list page with 2+ dataset links found");
    }

    #[test]
    fn unique_ids_change_paths_per_page() {
        let mut spec = SiteSpec::demo(300);
        spec.unique_ids = true;
        let site = build_site(&spec, 2);
        let mut seen = std::collections::HashSet::new();
        let mut pages_with_frame = 0;
        for id in 0..site.len() as PageId {
            if !matches!(site.page(id).kind, PageKind::Html(_)) {
                continue;
            }
            let html = render_page(&site, id);
            if let Some(pos) = html.find("id=\"frame-") {
                let end = html[pos + 10..].find('"').unwrap();
                seen.insert(html[pos + 10..pos + 10 + end].to_owned());
                pages_with_frame += 1;
            }
        }
        assert!(pages_with_frame > 10);
        assert_eq!(seen.len(), pages_with_frame, "frame ids must be unique");
    }
}
