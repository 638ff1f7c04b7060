//! Property-based tests: the parser must be total (never panic) on arbitrary
//! input, and generated markup must round-trip through parse/extract exactly.

use proptest::prelude::*;
use sb_html::{extract_links, parse, HtmlWriter, TagPath};

proptest! {
    /// Tokenizer + DOM are total functions of arbitrary strings.
    #[test]
    fn parse_never_panics(s in ".{0,400}") {
        let _ = parse(&s);
        let _ = extract_links(&s);
    }

    /// Same, with input biased toward markup-looking strings.
    #[test]
    fn parse_never_panics_markupish(s in "[<>a-z/='\"! -]{0,400}") {
        let _ = parse(&s);
        let _ = extract_links(&s);
    }

    /// Every link built into a generated page is extracted, in order, with
    /// href and anchor text intact.
    #[test]
    fn generated_links_roundtrip(
        hrefs in proptest::collection::vec("/[a-z0-9/_.-]{1,30}", 1..20),
        anchors in proptest::collection::vec("[a-zA-Z0-9 &<>]{1,20}", 1..20),
    ) {
        let n = hrefs.len().min(anchors.len());
        let mut html = String::new();
        let mut w = HtmlWriter::document(&mut html);
        w.open("html").open("body").open("ul").classes(["list"]);
        for i in 0..n {
            w.open("li").open("a").attr("href", &hrefs[i]).text(&anchors[i]).close().close();
        }
        w.close().close().close();
        let links = extract_links(&html);
        prop_assert_eq!(links.len(), n);
        for i in 0..n {
            prop_assert_eq!(&links[i].href, &hrefs[i]);
            // Anchor text is whitespace-normalized by extraction.
            let expect: String = anchors[i].split_whitespace().collect::<Vec<_>>().join(" ");
            prop_assert_eq!(&links[i].anchor_text, &expect);
            prop_assert_eq!(links[i].tag_path.to_string(), "html body ul.list li a");
        }
    }

    /// TagPath::parse is the inverse of Display for syntactically valid paths.
    #[test]
    fn tagpath_display_parse_roundtrip(
        segs in proptest::collection::vec(("[a-z]{1,8}", proptest::option::of("[a-z0-9-]{1,8}"),
            proptest::collection::vec("[a-z0-9-]{1,8}", 0..3)), 1..8)
    ) {
        let tp = TagPath::from_tokens(segs.into_iter().map(|(name, id, classes)| {
            let id = id.map(|id| format!("#{id}")).unwrap_or_default();
            let classes: String = classes.iter().map(|c| format!(".{c}")).collect();
            format!("{name}{id}{classes}")
        }));
        let rendered = tp.to_string();
        prop_assert_eq!(TagPath::parse(&rendered), tp);
    }

    /// Escaped text never leaks markup into the DOM.
    #[test]
    fn text_cannot_inject_elements(t in "[a-zA-Z0-9<>&\"' ]{0,60}") {
        let mut html = String::new();
        HtmlWriter::document(&mut html).open("html").open("body").text(&t).close().close();
        let doc = parse(&html);
        // Only html and body elements may exist.
        let elems = doc.nodes().iter().filter(|n| n.name().is_some()).count();
        prop_assert_eq!(elems, 2);
    }
}
