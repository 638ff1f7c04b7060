//! Tag paths: the edge labels of the website graph (Sec 2.2 of the paper).
//!
//! A tag path is the full path of HTML tags from the document root down to a
//! hyperlink tag, decorated with `id` and `class` attributes, rendered e.g. as
//! `html body div#main ul.datasets li a`. The paper's central hypothesis is
//! that links found on similar tag paths lead to similar content; tag paths
//! are therefore both the clustering key of the action space (Algorithm 1) and
//! the unit that gets vectorised into token n-grams (Fig 3).
//!
//! **The path is its rendered text.** A [`TagPath`] holds that one string
//! and the end offset of every token in it, nothing else: tokens are `&str`
//! slices of the text, `Display` writes the text, and two paths are equal
//! exactly when their token sequences are — which is all a consumer can
//! read of a path. The text is owned, because paths outlive the page they
//! came from (action exemplars, revisit groups); extracting one costs two
//! allocations whatever its depth or decoration.
//!
//! A path is built from a page ([`TagPath::of`]) or from its rendered
//! tokens ([`TagPath::from_tokens`]; [`TagPath::parse`] splits a rendered
//! text into them).

use crate::dom::{Document, NodeId};
use std::fmt;

/// Appends one token, `name#id.class…`: `#` prefixes the id, `.` each class,
/// matching the paper's label syntax.
fn write_token<'s>(
    text: &mut String,
    name: &str,
    id: Option<&str>,
    classes: impl Iterator<Item = &'s str>,
) {
    text.push_str(name);
    if let Some(id) = id {
        text.push('#');
        text.push_str(id);
    }
    for c in classes {
        text.push('.');
        text.push_str(c);
    }
}

/// The raw `id` and `class` attribute values of element `id` (the first of
/// each), found in one pass over its attributes.
fn id_and_class<'d>(doc: &'d Document<'_>, id: NodeId) -> (Option<&'d str>, Option<&'d str>) {
    let (mut elem_id, mut class) = (None, None);
    for attr in doc.attrs_of(id) {
        if attr.name == "id" {
            elem_id = elem_id.or(Some(attr.value.as_ref()));
        } else if attr.name == "class" {
            class = class.or(Some(attr.value.as_ref()));
        }
    }
    (elem_id, class)
}

/// Node ids and text offsets are held as `u32`: both are bounded by the
/// size of the page, which is far below 4 GiB.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("node ids and tag-path offsets of a page fit u32")
}

/// A root-to-element tag path: its rendered text (tokens joined by single
/// spaces) and where each token ends. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TagPath {
    text: String,
    /// `ends[i]` is the offset in `text` just past token `i`; token `i + 1`
    /// starts one separator later. Offsets, not a search for spaces: an
    /// `id` may itself contain one.
    ends: Vec<u32>,
}

impl TagPath {
    /// Extracts the tag path of the element `id` within `doc`: the id
    /// trimmed (dropped when empty), the classes split on whitespace. Two
    /// allocations — the text and the offsets — both reserved up front.
    pub fn of(doc: &Document<'_>, id: NodeId) -> Self {
        let elements = || {
            std::iter::successors(Some(id), |&n| doc.node(n).parent())
                .filter_map(|n| Some((n, doc.node(n).name()?)))
        };
        // An upper bound on the text: a raw attribute value is never shorter
        // than what is written of it.
        let (mut depth, mut bytes) = (0usize, 0usize);
        for (n, name) in elements() {
            let (elem_id, class) = id_and_class(doc, n);
            depth += 1;
            let decoration = |v: Option<&str>| v.map_or(0, |v| 1 + v.len());
            bytes += 1 + name.len() + decoration(elem_id) + decoration(class);
        }
        // Parent links run leaf to root and the text reads root to leaf.
        // `ends` is the stack that turns them around: it takes the node ids,
        // is reversed, and each id is overwritten by the end offset of the
        // token written for it.
        let mut text = String::with_capacity(bytes);
        let mut ends = Vec::with_capacity(depth);
        ends.extend(elements().map(|(n, _)| narrow(n)));
        ends.reverse();
        for (i, slot) in ends.iter_mut().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            let n = *slot as NodeId;
            let (elem_id, class) = id_and_class(doc, n);
            write_token(
                &mut text,
                doc.node(n).name().unwrap_or(""),
                elem_id.map(str::trim).filter(|v| !v.is_empty()),
                class.into_iter().flat_map(str::split_ascii_whitespace),
            );
            *slot = narrow(text.len());
        }
        TagPath { text, ends }
    }

    /// The path of these rendered tokens (`name#id.class…`), one per item,
    /// each copied as it stands. A token may contain a space, because an
    /// `id` may: such a path shares its text with the path that splits
    /// there, and is not equal to it.
    pub fn from_tokens(tokens: impl IntoIterator<Item = impl AsRef<str>>) -> Self {
        let mut path = TagPath::default();
        for token in tokens {
            if !path.ends.is_empty() {
                path.text.push(' ');
            }
            path.text.push_str(token.as_ref());
            path.ends.push(narrow(path.text.len()));
        }
        path
    }

    /// Parses the rendered form (`html body div#main ... a`): every
    /// whitespace-separated word is one token.
    pub fn parse(s: &str) -> Self {
        TagPath::from_tokens(s.split_ascii_whitespace())
    }

    /// The rendered path, e.g. `html body div#main ul.datasets li a`.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The tokens fed to the n-gram vectoriser, **order-preserving** (the
    /// paper shows order matters: n=2,3 beat n=1).
    pub fn tokens(&self) -> impl Iterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let token = &self.text[start..end as usize];
            start = end as usize + 1;
            token
        })
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

impl fmt::Display for TagPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::parse as parse_html;

    #[test]
    fn extracts_paper_style_path() {
        let doc = parse_html(
            r#"<html><body><div id="main"><ul class="datasets"><li><a href="/d.csv">d</a></li></ul></div></body></html>"#,
        );
        let a = doc.elements_named("a")[0];
        let tp = TagPath::of(&doc, a);
        assert_eq!(tp.to_string(), "html body div#main ul.datasets li a");
    }

    #[test]
    fn multiple_classes() {
        let doc = parse_html(r#"<html><body><a class="fr-link fr-link--download" href="/x">x</a></body></html>"#);
        let a = doc.elements_named("a")[0];
        let tp = TagPath::of(&doc, a);
        assert_eq!(tp.to_string(), "html body a.fr-link.fr-link--download");
    }

    #[test]
    fn parse_roundtrip() {
        let s = "html body div#container div div ul li.datasets a.dataset";
        assert_eq!(TagPath::parse(s).to_string(), s);
    }

    #[test]
    fn parse_id_and_class_on_same_segment() {
        let tp = TagPath::parse("div#main.wide.dark a");
        assert_eq!(tp.tokens().collect::<Vec<_>>(), vec!["div#main.wide.dark", "a"]);
    }

    #[test]
    fn equality_is_on_tokens_however_the_path_was_built() {
        let doc = parse_html(r#"<div id=" a b " class="x  y"><a href="/x">x</a></div>"#);
        let of = TagPath::of(&doc, doc.elements_named("a")[0]);
        let built = TagPath::from_tokens(["div#a b.x.y", "a"]);
        assert_eq!(of, built);
        assert_eq!(of.tokens().collect::<Vec<_>>(), vec!["div#a b.x.y", "a"]);
        // The id's space sits inside a token; re-parsing the text splits there.
        assert_eq!(TagPath::parse(of.as_str()).len(), 3);
        assert_ne!(of, TagPath::parse(of.as_str()));
    }

    #[test]
    fn tokens_preserve_order() {
        let tp = TagPath::parse("html body div ul li a");
        let toks: Vec<_> = tp.tokens().collect();
        assert_eq!(toks, vec!["html", "body", "div", "ul", "li", "a"]);
    }

    #[test]
    fn empty_id_attribute_ignored() {
        let doc = parse_html(r#"<html><body><a id="" href="/x">x</a></body></html>"#);
        let a = doc.elements_named("a")[0];
        let tp = TagPath::of(&doc, a);
        assert_eq!(tp.to_string(), "html body a");
    }
}
