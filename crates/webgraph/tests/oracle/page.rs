//! The frozen page renderer: `sb_webgraph::gen::render::render_page` as it
//! stood before PR 23, verbatim over the frozen tree builder ([`super::html`]).
//! Only the `use` lines changed (the crate is seen from outside here).

use super::html::{el, render as render_doc, text, HtmlBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_webgraph::gen::{lexicon, HtmlRole, PageKind, SectionStyle, SiteSource, Slot};
use sb_webgraph::PageId;

/// Renders the HTML body of page `id`. Panics if the page is not HTML.
///
/// Generic over [`SiteSource`], so the eager `Website` and `sb-scale`'s
/// streaming site render through the same code path. The RNG draw sequence
/// depends only on (seed, id) and the page's links, never on the concrete
/// representation — that is what keeps the two byte-identical.
pub fn render_page<S: SiteSource + ?Sized>(site: &S, id: PageId) -> String {
    let PageKind::Html(role) = *site.kind(id) else {
        panic!("render_page on non-HTML page {id}");
    };
    let style = site.section_style(role.section());
    let mut rng = StdRng::seed_from_u64(site.seed() ^ (u64::from(id) << 17) ^ 0x9e37_79b9);

    let mut by_slot: Vec<Vec<&sb_webgraph::gen::OutLink>> = vec![Vec::new(); Slot::ALL.len()];
    for l in site.out_links(id) {
        by_slot[slot_index(l.slot)].push(l);
    }

    let head = el("head")
        .child(el("meta").attr("charset", "utf-8"))
        .child(el("title").child(text(site.title(id).to_owned())));

    let mut body = el("body");
    body = body.child(nav_bar(site, &by_slot[slot_index(Slot::Nav)], &mut rng));

    let mut layout = el("div").id("layout");
    if !by_slot[slot_index(Slot::Breadcrumb)].is_empty() {
        let mut bc = el("div").class("breadcrumb");
        for l in &by_slot[slot_index(Slot::Breadcrumb)] {
            bc = bc.child(anchor(site, l.to, None, &mut rng));
        }
        layout = layout.child(bc);
    }

    let mut content = el("div");
    for c in &style.content_classes {
        content = content.class(c.clone());
    }
    if site.spec().unique_ids {
        // The `ed` pathology: a unique id in the path of every content link.
        content = content.child(frame_content(site, id, role, style, &by_slot, &mut rng));
    } else {
        content = content_children(content, site, role, style, &by_slot, &mut rng);
    }

    let mut main = el("main").child(content);
    for _ in 0..style.wrapper_divs {
        main = el("div").class("wrap").child(main);
    }
    layout = layout.child(main);
    body = body.child(layout);

    // Footer links.
    let footer_links = &by_slot[slot_index(Slot::Footer)];
    if !footer_links.is_empty() {
        let mut links = el("div").class("links");
        for l in footer_links.iter() {
            links = links.child(anchor(site, l.to, None, &mut rng));
        }
        body = body.child(el("footer").child(links));
    }
    // Embeds.
    for l in &by_slot[slot_index(Slot::Embed)] {
        body = body.child(el("iframe").attr("src", href(site, l.to, &mut rng)));
    }

    render_doc(&el("html").child(head).child(body))
}

fn frame_content<S: SiteSource + ?Sized>(
    site: &S,
    id: PageId,
    role: HtmlRole,
    style: &SectionStyle,
    by_slot: &[Vec<&sb_webgraph::gen::OutLink>],
    rng: &mut StdRng,
) -> HtmlBuilder {
    let inner = content_children(el("div").class("frame-standard"), site, role, style, by_slot, rng);
    el("div").id(format!("frame-{id}")).class("frame").child(inner)
}

fn content_children<S: SiteSource + ?Sized>(
    mut content: HtmlBuilder,
    site: &S,
    role: HtmlRole,
    style: &SectionStyle,
    by_slot: &[Vec<&sb_webgraph::gen::OutLink>],
    rng: &mut StdRng,
) -> HtmlBuilder {
    let lang = style.lang;
    content = content.child(el("h1").child(text(title_of(site, role))));
    // Filler paragraphs.
    for _ in 0..rng.gen_range(1..4) {
        content = content.child(el("p").child(text(lexicon::pick(rng, lexicon::filler(lang)).to_owned())));
    }

    // Topic lists (hub → chains/catalog heads).
    let topics = &by_slot[slot_index(Slot::TopicItem)];
    if !topics.is_empty() {
        let mut ul = el("ul").class("topics");
        for l in topics.iter() {
            ul = ul.child(el("li").child(anchor(site, l.to, None, rng)));
        }
        content = content.child(ul);
    }

    // Article listings.
    let items = &by_slot[slot_index(Slot::ListItem)];
    if !items.is_empty() {
        let mut ul = el("ul").class("items");
        for l in items.iter() {
            ul = ul.child(el("li").class("item").child(anchor(site, l.to, None, rng)));
        }
        content = content.child(ul);
    }

    // Dataset listings — the target-rich slot.
    let datasets = &by_slot[slot_index(Slot::DatasetItem)];
    if !datasets.is_empty() {
        let mut ul = el("ul").class(style.list_class.clone());
        for l in datasets.iter() {
            ul = ul.child(el("li").child(anchor(site, l.to, Some(&style.link_class), rng)));
        }
        content = content.child(ul);
    }

    // Article download boxes.
    let downloads = &by_slot[slot_index(Slot::Download)];
    if !downloads.is_empty() {
        let mut ul = el("ul");
        for l in downloads.iter() {
            ul = ul.child(el("li").child(anchor(site, l.to, Some(&style.link_class), rng)));
        }
        content = content
            .child(el("article").child(el("div").class("downloads").child(ul)));
    }

    // Related links.
    let related = &by_slot[slot_index(Slot::Related)];
    if !related.is_empty() {
        let mut ul = el("ul");
        for l in related.iter() {
            ul = ul.child(el("li").child(anchor(site, l.to, None, rng)));
        }
        content = content.child(el("div").class("related").child(ul));
    }

    // Pagination.
    let pag = &by_slot[slot_index(Slot::Pagination)];
    if !pag.is_empty() {
        let mut div = el("div").class("pagination");
        for l in pag.iter() {
            div = div.child(
                el("a").class("page").attr("href", href(site, l.to, rng)).child(text("Next")),
            );
        }
        content = content.child(div);
    }
    content
}

fn nav_bar<S: SiteSource + ?Sized>(
    site: &S,
    links: &[&sb_webgraph::gen::OutLink],
    rng: &mut StdRng,
) -> HtmlBuilder {
    let mut ul = el("ul").class("menu");
    for l in links.iter() {
        let lang = match *site.kind(l.to) {
            PageKind::Html(r) => site.section_style(r.section()).lang,
            _ => site.section_style(0).lang,
        };
        let word = lexicon::pick(rng, lexicon::nav_words(lang)).to_owned();
        ul = ul.child(el("li").child(el("a").attr("href", href(site, l.to, rng)).child(text(word))));
    }
    el("header").child(el("nav").child(ul))
}

fn anchor<S: SiteSource + ?Sized>(
    site: &S,
    to: PageId,
    class: Option<&str>,
    rng: &mut StdRng,
) -> HtmlBuilder {
    let mut a = el("a").attr("href", href(site, to, rng));
    if let Some(c) = class {
        for part in c.split_ascii_whitespace() {
            a = a.class(part);
        }
    }
    a.child(text(site.title(to).to_owned()))
}

/// Mostly root-relative hrefs, occasionally absolute — both forms occur in
/// the wild and both must resolve to the same page.
fn href<S: SiteSource + ?Sized>(site: &S, to: PageId, rng: &mut StdRng) -> String {
    let url = site.url(to);
    if rng.gen_bool(0.1) {
        return url.to_owned();
    }
    match url.find("://").and_then(|p| url[p + 3..].find('/').map(|q| p + 3 + q)) {
        Some(slash) => url[slash..].to_owned(),
        None => url.to_owned(),
    }
}

fn title_of<S: SiteSource + ?Sized>(site: &S, role: HtmlRole) -> String {
    match role {
        HtmlRole::Root => site.spec().name.to_owned(),
        _ => {
            // Titles are stored on the page itself; the caller passes role
            // only, so regenerate a section-ish heading.
            let style = site.section_style(role.section());
            format!("Section {} — {}", role.section(), style.content_classes.last().cloned().unwrap_or_default())
        }
    }
}

fn slot_index(s: Slot) -> usize {
    Slot::ALL.iter().position(|&x| x == s).expect("slot in ALL")
}
