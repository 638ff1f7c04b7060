//! The zero-copy HTML pipeline (PR 3) must be *value-identical* to the
//! frozen seed pipeline (`sb_bench::seed_html`): byte-identical tokens,
//! structurally identical DOMs and field-identical links, on arbitrary
//! garbage, markup-biased garbage and real generated pages.
//!
//! The comparison shims below bridge the borrowed (`Cow`) and owned
//! (`String`) representations; equality is always on the underlying bytes.
//! Crawl-trace determinism over the seed engine is covered separately by
//! `tests/determinism.rs` (the session engine now parses through the
//! zero-copy path, the reference engine through `seed_html`).

use proptest::prelude::*;
use sb_bench::seed_html::{
    seed_extract_links, seed_parse, seed_tokenize, SeedDocument, SeedNode, SeedToken,
};
use sb_html::{extract_links, extract_links_with, parse, tokenize, Document, LinkNeeds, Node, Token};

// ---------------------------------------------------------------------------
// Comparison shims: borrowed pipeline vs owned seed pipeline.
// ---------------------------------------------------------------------------

/// Asserts the zero-copy token stream equals the seed token stream.
fn assert_tokens_eq(input: &str) {
    let seed = seed_tokenize(input);
    let new = tokenize(input);
    assert_eq!(seed.len(), new.len(), "token count differs on {input:?}");
    for (i, (s, n)) in seed.iter().zip(&new).enumerate() {
        let ok = match (s, n) {
            (
                SeedToken::Start { name: sn, attrs: sa, self_closing: sc },
                Token::Start { name: nn, attrs: na, self_closing: nc },
            ) => {
                sn == nn
                    && sc == nc
                    && sa.len() == na.len()
                    && sa
                        .iter()
                        .zip(na)
                        .all(|(x, y)| x.name == y.name && x.value == y.value)
            }
            (SeedToken::End { name: sn }, Token::End { name: nn }) => sn == nn,
            (SeedToken::Text(s), Token::Text(n)) => s == n,
            (SeedToken::Comment(s), Token::Comment(n)) => s == n,
            (SeedToken::Doctype(s), Token::Doctype(n)) => s == n,
            _ => false,
        };
        assert!(ok, "token {i} differs on {input:?}:\n  seed: {s:?}\n  new:  {n:?}");
    }
}

/// Asserts the zero-copy DOM is structurally identical to the seed DOM:
/// same arena order, names, text, attributes, parents and child lists.
fn assert_doms_eq(input: &str) {
    let seed: SeedDocument = seed_parse(input);
    let new: Document<'_> = parse(input);
    assert_eq!(seed.len(), new.len(), "node count differs on {input:?}");
    assert_eq!(seed.roots(), new.roots(), "roots differ on {input:?}");
    for id in 0..seed.len() {
        let s = seed.node(id);
        let n = new.node(id);
        assert_eq!(s.parent(), n.parent(), "parent of node {id} differs on {input:?}");
        match (s, n) {
            (SeedNode::Element { name: sn, attrs, children, .. }, Node::Element { name: nn, .. }) => {
                assert_eq!(sn, nn, "name of node {id} differs on {input:?}");
                let na = new.attrs_of(id);
                assert_eq!(attrs.len(), na.len(), "attr count of node {id} differs on {input:?}");
                for (x, y) in attrs.iter().zip(na) {
                    assert_eq!(x.name, y.name, "attr name on node {id} differs on {input:?}");
                    assert_eq!(x.value, y.value, "attr value on node {id} differs on {input:?}");
                }
                let nc: Vec<_> = new.children(id).collect();
                assert_eq!(children, &nc, "children of node {id} differ on {input:?}");
            }
            (SeedNode::Text { content: sc, .. }, Node::Text { content: nc, .. }) => {
                assert_eq!(sc, nc, "text of node {id} differs on {input:?}");
            }
            _ => panic!("node {id} kind differs on {input:?}"),
        }
    }
}

/// Asserts zero-copy link extraction equals seed link extraction, field by
/// field, and that the needs-gated variants agree with the seed on every
/// requested field.
fn assert_links_eq(input: &str) {
    let seed = seed_extract_links(input);
    let new = extract_links(input);
    assert_eq!(seed.len(), new.len(), "link count differs on {input:?}");
    for (i, (s, n)) in seed.iter().zip(&new).enumerate() {
        assert_eq!(s.href, n.href, "href of link {i} differs on {input:?}");
        assert_eq!(s.kind, n.kind, "kind of link {i} differs on {input:?}");
        assert_eq!(s.tag_path, n.tag_path, "tag path of link {i} differs on {input:?}");
        assert_eq!(s.anchor_text, n.anchor_text, "anchor of link {i} differs on {input:?}");
        assert_eq!(
            s.surrounding_text, n.surrounding_text,
            "surrounding text of link {i} differs on {input:?}"
        );
    }
    for needs in [LinkNeeds::HREF_ONLY, LinkNeeds::TAG_PATH, LinkNeeds::ALL] {
        let gated = extract_links_with(input, needs);
        assert_eq!(seed.len(), gated.len());
        for (s, g) in seed.iter().zip(&gated) {
            assert_eq!(s.href, g.href);
            if needs.tag_path {
                assert_eq!(s.tag_path, g.tag_path);
            }
            if needs.anchor_text {
                assert_eq!(s.anchor_text, g.anchor_text);
            }
            if needs.surrounding_text {
                assert_eq!(s.surrounding_text, g.surrounding_text);
            }
        }
    }
}

fn assert_pipeline_eq(input: &str) {
    assert_tokens_eq(input);
    assert_doms_eq(input);
    assert_links_eq(input);
}

// ---------------------------------------------------------------------------
// Pinned edge cases: the places where borrowing could plausibly diverge
// from decoding (entities, case folding, raw text, truncation at EOF).
// ---------------------------------------------------------------------------

#[test]
fn entities_numeric_and_hex() {
    for s in [
        "<p>&#65;&#x42;&#x1F4A9;</p>",
        r#"<a href="/q?a=1&amp;b=2&#38;c=3">R&amp;D &lt;x&gt;</a>"#,
        "<p>&quot;&apos;&nbsp;</p>",
        "<p>&#xD800; surrogate stays</p>",
        "<p>&#999999999999; overflow stays</p>",
    ] {
        assert_pipeline_eq(s);
    }
    // Pinned expected values, so equality is not just mutual-bug agreement.
    let toks = tokenize("<p>&#65;&#x42;</p>");
    assert!(matches!(&toks[1], Token::Text(t) if t == "AB"));
}

#[test]
fn truncated_entities_at_eof() {
    for s in [
        "&", "&a", "&am", "&amp", "&amp;", "&#", "&#6", "&#x", "&#x1F4A",
        "<p>&", "<p>&am", "<a href='/x?a=1&am", "text &#", "&;", "&#;", "&#x;",
    ] {
        assert_pipeline_eq(s);
    }
    // An unterminated reference passes through verbatim.
    let toks = tokenize("tail &amp");
    assert!(matches!(&toks[0], Token::Text(t) if t == "tail &amp"));
}

#[test]
fn uppercase_and_unquoted_attributes() {
    for s in [
        "<DIV CLASS=Main ID=top>x</DIV>",
        "<A HREF=/data/A.CSV Class='Mixed Case'>D</A>",
        "<INPUT DISABLED>",
        "<Ul><LI>a<li>b</UL>",
        "<a href = /spaced >y</a>",
        "<a href=>empty-unquoted</a>",
    ] {
        assert_pipeline_eq(s);
    }
    // Pinned: names fold, values keep their case.
    let toks = tokenize("<DIV CLASS='Main'>t</DIV>");
    assert!(
        matches!(&toks[0], Token::Start { name, attrs, .. }
            if name == "div" && attrs[0].name == "class" && attrs[0].value == "Main")
    );
}

#[test]
fn raw_text_script_and_style() {
    for s in [
        "<script>if (a < b) { x('<a href=\"no\">'); }</script><p>y</p>",
        "<style>a > b { content: '<'; }</style><a href='/x'>z</a>",
        "<script>unterminated raw text <a href='/no'>",
        "<SCRIPT>x()</SCRIPT><p>y</p>",
        "<script>x()</ScRiPt ><p>y</p>",
        "<script src='/s.js'></script><script>two()</script><p>t</p>",
        "<script/>not raw<p>q</p>",
        "<style>.x{}</style",
    ] {
        assert_pipeline_eq(s);
    }
    // Pinned: nothing inside the script leaks out as markup.
    let links = extract_links("<script>var a = '<a href=\"/no\">';</script><a href='/yes'>y</a>");
    assert_eq!(links.len(), 1);
    assert_eq!(links[0].href, "/yes");
}

#[test]
fn cdata_ish_sections_and_comments() {
    for s in [
        "<![CDATA[ <a href='/no'>hidden</a> ]]><p>x</p>",
        "<!DOCTYPE html><!-- <a href='/no'>c</a> --><a href='/yes'>y</a>",
        "<!-- unterminated comment <p>x</p>",
        "<!DOC truncated",
        "<!>",
    ] {
        assert_pipeline_eq(s);
    }
    // Pinned: the CDATA-ish block is consumed to the first '>', exactly
    // like the seed (so the trailing markup re-enters the stream).
    let toks = tokenize("<![CDATA[ x ]]><p>t</p>");
    assert!(matches!(&toks[0], Token::Doctype(d) if d == "[CDATA[ x ]]"));
}

#[test]
fn whitespace_and_multinode_anchors() {
    for s in [
        "<p><a href='/x'>  padded \t text </a>tail</p>",
        "<p>pre <a href='/x'>one <b>two</b> three</a> post</p>",
        "<li><a href='/x'></a>no anchor text</li>",
        "<p>\u{a0}nbsp <a href='/x'>a\u{a0}b</a></p>",
        "<td>cell <a href='/x'>x</a> <a href='/y'>x</a></td>",
    ] {
        assert_pipeline_eq(s);
    }
}

// ---------------------------------------------------------------------------
// Byte-hostile inputs: raw text left open, megabyte attributes, deep
// nesting and invalid UTF-8.
// ---------------------------------------------------------------------------

#[test]
fn raw_text_and_rcdata_elements_left_open_at_eof() {
    for tag in ["script", "style", "textarea", "title"] {
        for s in [
            format!("<p><a href='/before'>b</a><{tag}>x <a href='/inside'>i</a>"),
            format!("<{tag}><a href='/inside'>i</a></p><a href='/after'>a</a>"),
            format!("<div><{tag} class=open>t <a href=/inside>i</a> u <{tag}>v"),
            format!("<a href='/x'><{tag}>y"),
            format!("<{tag}>"),
            format!("<{tag}"),
        ] {
            assert_pipeline_eq(&s);
        }
    }
    // Pinned: both pipelines hide markup only inside `script` and `style`.
    // `textarea` and `title` stay ordinary elements rather than HTML5's
    // RCDATA: a link inside one is extracted. Generated pages never put
    // markup in either, so making them RCDATA could move no crawl count,
    // but it would part the pipeline from the frozen seed.
    let found = |tag: &str| extract_links(&format!("<{tag}><a href='/in'>i</a>")).len();
    assert_eq!([found("script"), found("style"), found("textarea"), found("title")], [0, 0, 1, 1]);
}

/// `len` bytes of URL-safe text with no whitespace, quote or `>`: legal in
/// a quoted and an unquoted attribute value alike.
fn blob(len: usize) -> String {
    "ab0/c-1.d_".chars().cycle().take(len).collect()
}

#[test]
fn megabyte_attribute_values() {
    const MIB: usize = 1 << 20;
    let big = blob(MIB);
    for s in [
        format!("<a href=\"/{big}\">quoted</a><a href='/next'>n</a>"),
        format!("<a href=/{big}>unquoted</a><a href='/next'>n</a>"),
        format!("<a data-x=\"{big} &amp; {big}\" href='/x'>other attribute</a>"),
        format!("<p>t <a href=\"/{big}"),
    ] {
        assert_pipeline_eq(&s);
    }
    let html = format!("<a href=/{big}>u</a>");
    assert_eq!(extract_links(&html)[0].href.len(), MIB + 1);
}

/// `depth` nested `<div>`s around one link, with a second link in the
/// outermost one: the outer link's surrounding text is the text of the
/// whole nest.
fn nested_divs(depth: usize) -> String {
    let mut s = String::from("<div>outer text <a href='/outer'>up</a>");
    s.push_str(&"<div>".repeat(depth - 1));
    s.push_str("<a href='/inner'>deep</a>");
    s.push_str(&"</div>".repeat(depth));
    s
}

#[test]
fn ten_thousand_nested_divs() {
    let html = nested_divs(10_000);
    // The seed's `collect_text` recurses once per level of the nest, so
    // both sides run on a thread with room for it.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            assert_pipeline_eq(&html);
            let links = extract_links(&html);
            assert_eq!(links.len(), 2);
            assert_eq!(links[0].surrounding_text, "outer text deep");
            assert_eq!(links[1].tag_path.len(), 10_001);
        })
        .expect("spawn")
        .join()
        .expect("both pipelines handle 10 000 levels");
}

#[test]
fn invalid_utf8_is_replaced_before_either_pipeline_sees_it() {
    let bodies: [&[u8]; 5] = [
        b"<a href='/x\xff'>bad \xfe byte</a>",
        b"<p>\xc3</p><a href='/\xe2\x82'>truncated sequences</a>",
        b"\xed\xa0\x80<a href=/s>encoded surrogate</a>",
        b"<a href=\"/ok\">\xf8\x88\x80\x80\x80 five-byte form</a>",
        b"<script>\xff<a href='/no'></script><a href='/yes'>\xc0\xaf overlong</a>",
    ];
    for bytes in bodies {
        let text = sb_html::body_str(bytes);
        assert_eq!(text, String::from_utf8_lossy(bytes));
        assert_pipeline_eq(&text);
    }
    let text = sb_html::body_str(bodies[0]);
    assert_eq!(extract_links(&text)[0].href, "/x\u{fffd}");
}

// ---------------------------------------------------------------------------
// Property tests: arbitrary and generated inputs.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary strings: both pipelines are total and identical.
    #[test]
    fn arbitrary_inputs_are_identical(s in ".{0,400}") {
        assert_pipeline_eq(&s);
    }

    /// Markup-biased garbage, with ampersands, quotes, hashes and
    /// uppercase in the alphabet so entities/case folding get exercised.
    #[test]
    fn markupish_inputs_are_identical(s in "[<>a-zA-Z/='\"!&;# .-]{0,400}") {
        assert_pipeline_eq(&s);
    }

    /// Entity-dense text runs (the decode path).
    #[test]
    fn entity_dense_inputs_are_identical(s in "(&(amp|lt|gt|quot|apos|nbsp|#x2603|#65|bogus|);?|[a-z &;]){0,60}") {
        assert_pipeline_eq(&s);
    }

    /// Arbitrary bytes inside and around a link: the decoded body is the
    /// lossy decoding, and both pipelines agree on it.
    #[test]
    fn arbitrary_bytes_decode_identically(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut body = b"<div><a href='/".to_vec();
        body.extend(&bytes);
        body.extend(b"'>t</a>");
        body.extend(&bytes);
        let text = sb_html::body_str(&body);
        prop_assert_eq!(&text, &String::from_utf8_lossy(&body));
        assert_pipeline_eq(&text);
    }

    /// Real generated pages: every HTML page of an arbitrary small site
    /// parses identically through both pipelines.
    #[test]
    fn generated_pages_are_identical(n in 40usize..140, seed in 0u64..500) {
        use sb_webgraph::gen::{build_site, render::render_page, PageKind, SiteSpec};
        let site = build_site(&SiteSpec::demo(n), seed);
        for id in 0..site.len() as u32 {
            if matches!(site.page(id).kind, PageKind::Html(_)) {
                let html = render_page(&site, id);
                assert_pipeline_eq(&html);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scan exits: pages built so that every scan of the tokenizer stops at each
// of its boundaries, and every flag it raises sits on a run's first or last
// byte.
// ---------------------------------------------------------------------------

/// What a run may start and end with: the entities and the bare `&` that
/// raise the decode flag, multi-byte characters, an uppercase letter, or
/// nothing.
const EDGES: [&str; 7] = ["&amp;", "&#x41;", "&", "é", "日", "X", ""];
/// What a run may hold between its edges.
const MIDDLES: [&str; 4] = ["", "q", "a b", "本&lt;"];
/// Tag names, some ending in an uppercase byte.
const TAG_NAMES: [&str; 5] = ["a", "diV", "LI", "p", "spaN"];
/// Attribute names, some ending in an uppercase byte.
const ATTR_NAMES: [&str; 5] = ["href", "hreF", "CLASS", "data-X", "tïtle"];
const QUOTES: [&str; 3] = ["\"", "'", ""];
/// How a start tag ends: closed, self-closed, after a space, or never.
const TAG_ENDS: [&str; 4] = [">", "/>", " >", ""];
const RAW_OPENS: [&str; 3] = ["<script>", "<STYLE>", "<Script type=x>"];
/// Raw-text bodies holding a `<`, a close-tag prefix, or a close tag with
/// no `>` before more text.
const RAW_BODIES: [&str; 5] = ["<", "</scr", "</SCRIPT ", "a < b", "é<"];
/// Raw-text closes; the empty one leaves the element open, up to a later
/// close or the end of the page.
const RAW_CLOSES: [&str; 4] = ["</script>", "</STYLE >", "</SCRIPT ", ""];
/// Multi-byte characters against `<`, `&` and quotes.
const MULTIBYTE: [&str; 8] = ["é<", "<é", "&é", "é&", "\"é", "é'", "<日", "'日\""];

/// One page item per tuple: a text run, a start tag with a valued or a bare
/// attribute, an end tag, a raw-text element or a multi-byte pair. The
/// other five numbers pick its pieces.
fn scan_edge_page(items: &[(u8, u8, u8, u8, u8, u8)]) -> String {
    fn pick(list: &[&'static str], i: u8) -> &'static str {
        list[usize::from(i) % list.len()]
    }
    let mut page = String::new();
    for &(kind, a, b, c, d, e) in items {
        let run = [pick(&EDGES, a), pick(&MIDDLES, b), pick(&EDGES, c)].concat();
        let piece = match kind % 6 {
            0 => run,
            1 => {
                let (name, attr) = (pick(&TAG_NAMES, e), pick(&ATTR_NAMES, b));
                let (q, end) = (pick(&QUOTES, d), pick(&TAG_ENDS, a));
                format!("<{name} {attr}={q}{run}{q}{end}")
            }
            2 => {
                let (name, attr) = (pick(&TAG_NAMES, a), pick(&ATTR_NAMES, b));
                format!("<{name} {attr}{}", pick(&TAG_ENDS, c))
            }
            3 => format!("</{}>", pick(&TAG_NAMES, a)),
            4 => {
                let (open, close) = (pick(&RAW_OPENS, a), pick(&RAW_CLOSES, d));
                [open, pick(&RAW_BODIES, b), pick(&RAW_BODIES, c), close].concat()
            }
            _ => pick(&MULTIBYTE, a).to_owned(),
        };
        page.push_str(&piece);
    }
    page
}

/// `body_str` is the lossy decoding, borrowed exactly when that is.
fn assert_body_str_is_lossy(bytes: &[u8]) -> String {
    let (fast, lossy) = (sb_html::body_str(bytes), String::from_utf8_lossy(bytes));
    assert_eq!(fast, lossy, "body_str differs on {bytes:?}");
    assert_eq!(
        matches!(fast, std::borrow::Cow::Borrowed(_)),
        matches!(lossy, std::borrow::Cow::Borrowed(_)),
        "body_str borrows differently on {bytes:?}"
    );
    fast.into_owned()
}

#[test]
fn scan_edge_vocabulary_reaches_every_boundary() {
    // Pinned: each named boundary appears in a page this vocabulary builds,
    // and the two pipelines agree on it.
    for page in [
        scan_edge_page(&[(1, 0, 0, 0, 0, 0), (0, 2, 0, 1, 0, 0)]),
        scan_edge_page(&[(1, 2, 1, 2, 1, 1), (3, 1, 0, 0, 0, 0)]),
        scan_edge_page(&[(1, 1, 0, 1, 2, 2), (2, 1, 3, 0, 0, 0)]),
        scan_edge_page(&[(4, 0, 0, 2, 3, 0)]),
        scan_edge_page(&[(4, 0, 1, 0, 3, 0)]),
        scan_edge_page(&[(4, 1, 1, 4, 1, 0), (5, 0, 0, 0, 0, 0)]),
    ] {
        assert_pipeline_eq(&page);
    }
    assert_eq!(
        scan_edge_page(&[(1, 0, 0, 0, 0, 0), (0, 2, 0, 1, 0, 0)]),
        "<a href=\"&amp;&amp;\">&&#x41;"
    );
    assert_eq!(
        scan_edge_page(&[(1, 1, 0, 1, 2, 2), (2, 1, 3, 0, 0, 0)]),
        "<LI href=&#x41;&#x41;/><diV data-X>"
    );
    assert_eq!(scan_edge_page(&[(4, 0, 0, 2, 3, 0)]), "<script><</SCRIPT ");
    assert_eq!(scan_edge_page(&[(4, 0, 1, 0, 3, 0)]), "<script></scr<");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every scan exit of the tokenizer, against the seed: tokens, DOMs
    /// and links are equal.
    #[test]
    fn scan_exits_match_the_seed(
        items in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..24,
        )
    ) {
        assert_pipeline_eq(&scan_edge_page(&items));
    }

    /// The same pages as bytes, valid or broken by one stray byte: the
    /// decoded body is the lossy decoding in value and in borrowed-ness,
    /// and both pipelines agree on it.
    #[test]
    fn body_str_matches_lossy_decoding_on_scan_edge_pages(
        items in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..16,
        ),
        stray in (any::<bool>(), any::<u8>(), 0usize..4096),
    ) {
        let mut bytes = scan_edge_page(&items).into_bytes();
        let (corrupt, byte, at) = stray;
        if corrupt {
            bytes.insert(at % (bytes.len() + 1), byte);
        }
        assert_pipeline_eq(&assert_body_str_is_lossy(&bytes));
    }
}
