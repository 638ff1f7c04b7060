//! The origin writes the bytes the tree renderer wrote (PR 23).
//!
//! `render_page_into` streams a page through `sb_html::HtmlWriter` and
//! `content::target_body` writes cells straight into the body; both claim
//! **every byte is unchanged**, which holds only while every RNG draw keeps
//! its position. The frozen pre-PR-23 code lives in `tests/oracle/`; this
//! file holds production to it on every HTML page of arbitrary sites, on
//! arbitrary hand-driven element trees, and on every target format.

mod oracle;

use proptest::prelude::*;
use sb_html::HtmlWriter;
use sb_webgraph::content::{target_body, BODY_CAP};
use sb_webgraph::gen::lexicon::ALL_LANGS;
use sb_webgraph::gen::render::{render_page, render_page_into, with_rendered};
use sb_webgraph::gen::{
    apply_hazards, build_site, HazardSpec, HtmlRole, Lang, OutLink, PageKind, SitePage,
    SiteSource, SiteSpec, Slot, Website,
};
use sb_webgraph::PageId;
use std::collections::HashSet;

fn html_ids(site: &Website) -> Vec<PageId> {
    (0..site.len() as PageId).filter(|&id| matches!(site.page(id).kind, PageKind::Html(_))).collect()
}

/// One epoch of change through the `Website` mutation API, shaped like
/// `sb_revisit::EvolvingSite`'s (a published article with a download, a
/// catalog gaining entries, a death that nav and anchors now point at) plus
/// the one slot the builder never emits, `Embed`, and markup-hostile titles.
fn mutate(site: &mut Website) {
    let html = html_ids(site);
    let (first, last) = (html[0], html[html.len() - 1]);
    let target = site.target_ids()[0];
    let article = site
        .push_page(SitePage {
            url: format!("{}updates/e1/note-0.html?a=1&b=\"2\"", site.page(site.root()).url),
            kind: PageKind::Html(HtmlRole::Article { section: 1 }),
            title: "R&D <release> 'é日本' \"1.0\"".to_owned(),
            out: Vec::new(),
        })
        .expect("fresh url");
    site.add_out_link(article, OutLink { to: target, slot: Slot::Download });
    site.add_out_link(article, OutLink { to: first, slot: Slot::Embed });
    site.add_out_link(last, OutLink { to: article, slot: Slot::ListItem });
    site.add_out_link(last, OutLink { to: target, slot: Slot::DatasetItem });
    site.add_out_link(first, OutLink { to: article, slot: Slot::Embed });
    // A death: every page linking here (nav included, when it is a hub)
    // now takes the non-HTML arm of the nav-language lookup.
    site.set_kind(html[html.len() / 2], PageKind::Error { status: 410 });
}

/// Asserts production ≡ oracle on every HTML page of `site`, through all
/// three entry points and into one deliberately dirty reused buffer.
fn assert_site_matches_oracle(site: &Website) -> Result<(), TestCaseError> {
    let mut reused = String::from("stale bytes from the previous page");
    for id in html_ids(site) {
        let want = oracle::page::render_page(site, id);
        render_page_into(site, id, &mut reused);
        prop_assert_eq!(&reused, &want, "render_page_into, page {}", id);
        prop_assert_eq!(&render_page(site, id), &want, "render_page, page {}", id);
        prop_assert!(with_rendered(site, id, |b| b == want.as_bytes()), "with_rendered, page {}", id);
        prop_assert_eq!(&site.rendered(id)[..], want.as_bytes(), "Website::rendered, page {}", id);
        prop_assert_eq!(site.content_length(id), want.len() as u64);
    }
    Ok(())
}

/// The fixed sweep behind the proptest: sites chosen so that, between them,
/// every `Slot`, all three `wrapper_divs` values, a multi-class `link_class`
/// and the `unique_ids` frame are all rendered — and asserted to be.
#[test]
fn oracle_sweep_covers_every_slot_and_style() {
    let mut slots = HashSet::new();
    let mut wrappers = HashSet::new();
    let mut multi_class = false;
    for (unique_ids, sections, seed) in [(false, 6, 11), (true, 4, 5), (false, 1, 2)] {
        let mut spec = SiteSpec::demo(400);
        spec.unique_ids = unique_ids;
        spec.structure.sections = sections;
        spec.multilingual = true;
        spec.languages = &[Lang::Fr, Lang::Ja, Lang::Ar];
        let mut site = build_site(&spec, seed);
        apply_hazards(&mut site, &HazardSpec::scaled(400), seed);
        mutate(&mut site);
        for id in html_ids(&site) {
            let PageKind::Html(role) = site.page(id).kind else { unreachable!() };
            let style = site.section_style(role.section());
            wrappers.insert(style.wrapper_divs);
            multi_class |= style.link_class.contains(' ')
                && site.page(id).out.iter().any(|l| l.slot == Slot::DatasetItem);
            slots.extend(site.page(id).out.iter().map(|l| l.slot));
        }
        assert_site_matches_oracle(&site).unwrap_or_else(|e| panic!("{e:?}"));
    }
    assert_eq!(slots.len(), Slot::ALL.len(), "slots rendered: {slots:?}");
    assert_eq!(wrappers, HashSet::from([0, 1, 2]));
    assert!(multi_class, "no dataset list under a multi-class link_class was rendered");
}

/// A hand-driven element tree, built once as the oracle's `HtmlBuilder` and
/// replayed into an `HtmlWriter`.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    id: Option<String>,
    classes: Vec<String>,
    attrs: Vec<(String, String)>,
    text: Option<String>,
    children: Vec<Node>,
}

const NAMES: [&str; 8] = ["div", "ul", "li", "a", "p", "span", "br", "meta"];
const VOID: [&str; 2] = ["br", "meta"];
/// The five escaped characters, quoting noise and non-ASCII of 2–4 bytes.
const VALUE: &str = "[a-z &<>\"'/=éß日本😀-]{0,12}";

type Shape = (usize, Option<String>, Vec<String>, Vec<(String, String)>, Option<String>, usize);

fn shape() -> impl Strategy<Value = Shape> {
    (
        0..NAMES.len(),
        proptest::option::of(VALUE),
        proptest::collection::vec(VALUE, 0..3),
        proptest::collection::vec(("[a-z]{1,6}", VALUE), 0..3),
        proptest::option::of(VALUE),
        0usize..4,
    )
}

/// Folds a flat list of shapes into a tree: each node adopts up to its
/// drawn number of the nodes that follow it. Void elements stay empty.
fn build_tree(shapes: &mut std::vec::IntoIter<Shape>) -> Option<Node> {
    let (name, id, classes, attrs, text, n_children) = shapes.next()?;
    let name = NAMES[name];
    let mut node = Node { name, id, classes, attrs, text, children: Vec::new() };
    if VOID.contains(&name) {
        node.text = None;
        return Some(node);
    }
    for _ in 0..n_children {
        node.children.extend(build_tree(shapes));
    }
    Some(node)
}

fn to_builder(n: &Node) -> oracle::html::HtmlBuilder {
    use oracle::html::{el, text};
    let mut b = el(n.name);
    // Deliberately scrambled: the tree emitted id → class → others whatever
    // the call order, and the writer's call order must reproduce that.
    for (k, v) in &n.attrs {
        b = b.attr(k.clone(), v.clone());
    }
    for c in &n.classes {
        b = b.class(c.clone());
    }
    if let Some(id) = &n.id {
        b = b.id(id.clone());
    }
    if let Some(t) = &n.text {
        b = b.child(text(t.clone()));
    }
    b.children(n.children.iter().map(to_builder))
}

fn write_node(w: &mut HtmlWriter<'_>, n: &Node) {
    w.open(n.name);
    if let Some(id) = &n.id {
        w.id(id);
    }
    w.classes(n.classes.iter().map(String::as_str));
    for (k, v) in &n.attrs {
        w.attr(k, v);
    }
    if let Some(t) = &n.text {
        w.text(t);
    }
    for c in &n.children {
        write_node(w, c);
    }
    w.close();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every HTML page of a site drawn over the spec knobs that reach the
    /// renderer — hazard-laced and mutated by an epoch of change or not.
    #[test]
    fn render_page_into_matches_tree_oracle(
        n in 80usize..260,
        seed in 0u64..1000,
        unique_ids in proptest::bool::ANY,
        sections in 1usize..9,
        multilingual in proptest::bool::ANY,
        chain_mean in 0.0f64..3.0,
        related in 0.0f64..4.0,
        (hazards, epoch) in (proptest::bool::ANY, proptest::bool::ANY),
    ) {
        let mut spec = SiteSpec::demo(n);
        spec.unique_ids = unique_ids;
        spec.multilingual = multilingual;
        spec.languages = &[Lang::En, Lang::Fr, Lang::Ja, Lang::Ar];
        spec.structure.sections = sections;
        spec.structure.chain_mean = chain_mean;
        spec.structure.chain_std = chain_mean / 2.0;
        spec.structure.related_per_article = related;
        let mut site = build_site(&spec, seed);
        if hazards {
            apply_hazards(&mut site, &HazardSpec::scaled(n), seed ^ 0xabc);
        }
        if epoch {
            mutate(&mut site);
        }
        assert_site_matches_oracle(&site)?;
    }
}

proptest! {
    /// `HtmlWriter` ≡ the tree builder on arbitrary trees: ids, classes,
    /// attribute values and text laced with `& < > " '` and non-ASCII,
    /// void elements, empty class lists, appended to a non-empty buffer.
    #[test]
    fn html_writer_matches_tree_builder(shapes in proptest::collection::vec(shape(), 1..24)) {
        let root = build_tree(&mut shapes.into_iter()).expect("at least one shape");
        let want = oracle::html::render(&to_builder(&root));

        let mut doc = String::new();
        write_node(&mut HtmlWriter::document(&mut doc), &root);
        prop_assert_eq!(&doc, &want);

        let mut fragment = String::from("kept");
        write_node(&mut HtmlWriter::new(&mut fragment), &root);
        prop_assert_eq!(fragment, format!("kept{}", &want["<!DOCTYPE html>".len()..]));
    }

    /// `escape_into` appends exactly what the frozen `escape` returned.
    #[test]
    fn escape_into_matches_frozen_escape(s in ".{0,80}", t in VALUE) {
        for s in [s, t] {
            let mut out = String::from("x");
            sb_html::escape_into(&s, &mut out);
            prop_assert_eq!(out, format!("x{}", oracle::html::escape(&s)));
        }
    }
}

proptest! {
    // 144 bodies of up to 256 KiB per case, twice over: 16 cases is ~1 GB.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Target bodies: every extension family × planted tables 0..4 ×
    /// sizes from empty to past `BODY_CAP` × every language.
    #[test]
    fn target_body_matches_frozen_generator(
        seed in any::<u64>(),
        size in 0u64..(300 << 10),
        small in 0u64..4096,
        lang in 0..ALL_LANGS.len(),
    ) {
        const EXTS: [&str; 18] = [
            "csv", "tsv", "txt", "pdf", "xls", "xlsx", "ods", "json", "yaml", "yml", "doc",
            "docx", "zip", "gz", "7z", "rar", "tar", "bin",
        ];
        let lang = ALL_LANGS[lang];
        for ext in EXTS {
            for tables in 0..4u16 {
                for declared in [size, small] {
                    let got = target_body(seed, ext, tables, declared, lang);
                    let want = oracle::content::target_body(seed, ext, tables, declared, lang);
                    prop_assert!(got.len() <= BODY_CAP);
                    prop_assert!(got == want, "{} x {} tables x {} B x {:?}", ext, tables, declared, lang);
                }
            }
        }
    }
}
