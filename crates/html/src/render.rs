//! A streaming HTML emitter used by the synthetic site generator.
//!
//! Generated pages are rendered to real markup and re-parsed by the same
//! tokenizer/DOM the crawler uses, so the whole parse → tag-path → cluster
//! pipeline is exercised end to end rather than being fed pre-cooked paths.
//!
//! [`HtmlWriter`] is the one way to emit markup: it appends to a caller-owned
//! `String` as it is driven (`open` → `id` → `classes` → `attr` → content →
//! `close`), so **output order is call order** and nothing is built to be
//! walked later. It owns no buffer — the caller decides whether the `String`
//! is fresh or reused — and allocates only its tag stack. Text and attribute
//! values are escaped straight into the output ([`escape_into`]).

use crate::escape::escape_into;
use std::fmt::{self, Write as _};

/// How far the start tag of the innermost open element has been written.
/// Ordered: attributes go out as id → class → others, like every page the
/// generator has ever rendered, and [`HtmlWriter`] asserts callers keep to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd)]
enum StartTag {
    /// No start tag is pending: the writer is between tags.
    Sealed,
    Name,
    Id,
    Class,
    Attr,
}

/// Push-based HTML emitter over a borrowed `String`; see the module docs.
#[derive(Debug)]
pub struct HtmlWriter<'a> {
    out: &'a mut String,
    /// Names of the elements opened and not yet closed.
    stack: Vec<&'static str>,
    pending: StartTag,
}

impl<'a> HtmlWriter<'a> {
    /// A writer appending a fragment to `out`.
    pub fn new(out: &'a mut String) -> Self {
        HtmlWriter { out, stack: Vec::with_capacity(16), pending: StartTag::Sealed }
    }

    /// A writer appending a full document: `<!DOCTYPE html>`, then the tree.
    pub fn document(out: &'a mut String) -> Self {
        out.push_str("<!DOCTYPE html>");
        Self::new(out)
    }

    /// Writes the `>` of a pending start tag; content may follow.
    fn seal(&mut self) {
        if self.pending != StartTag::Sealed {
            self.out.push('>');
            self.pending = StartTag::Sealed;
        }
    }

    /// Seals the pending start tag and checks its element may hold content.
    fn content(&mut self) {
        self.seal();
        debug_assert!(
            !self.stack.last().is_some_and(|name| is_void(name)),
            "content inside void element <{}>",
            self.stack.last().copied().unwrap_or_default()
        );
    }

    /// Moves the pending start tag on to `part`, asserting attribute order.
    fn start_tag(&mut self, part: StartTag) {
        debug_assert!(
            self.pending != StartTag::Sealed && (self.pending < part || part == StartTag::Attr),
            "{part:?} after {:?}: attributes go id, class, others, before any content",
            self.pending
        );
        self.pending = part;
    }

    /// Opens `<name`; attributes may follow until the first content or `close`.
    pub fn open(&mut self, name: &'static str) -> &mut Self {
        self.content();
        self.out.push('<');
        self.out.push_str(name);
        self.stack.push(name);
        self.pending = StartTag::Name;
        self
    }

    pub fn id(&mut self, v: &str) -> &mut Self {
        self.id_fmt(format_args!("{v}"))
    }

    /// [`Self::id`] for a formatted value, written in place.
    pub fn id_fmt(&mut self, v: fmt::Arguments<'_>) -> &mut Self {
        self.start_tag(StartTag::Id);
        self.out.push_str(" id=\"");
        let _ = Escaped(self.out).write_fmt(v);
        self.out.push('"');
        self
    }

    /// One `class="a b …"` attribute; nothing at all for an empty iterator.
    pub fn classes<'c>(&mut self, classes: impl IntoIterator<Item = &'c str>) -> &mut Self {
        self.start_tag(StartTag::Class);
        let mut any = false;
        for c in classes {
            self.out.push_str(if any { " " } else { " class=\"" });
            escape_into(c, self.out);
            any = true;
        }
        if any {
            self.out.push('"');
        }
        self
    }

    /// Any other attribute. `k` is written verbatim, `v` escaped.
    pub fn attr(&mut self, k: &str, v: &str) -> &mut Self {
        self.start_tag(StartTag::Attr);
        self.out.push(' ');
        self.out.push_str(k);
        self.out.push_str("=\"");
        escape_into(v, self.out);
        self.out.push('"');
        self
    }

    /// An escaped text run inside the innermost open element.
    pub fn text(&mut self, s: &str) -> &mut Self {
        self.content();
        escape_into(s, self.out);
        self
    }

    /// [`Self::text`] for a formatted run, written in place.
    pub fn text_fmt(&mut self, s: fmt::Arguments<'_>) -> &mut Self {
        self.content();
        let _ = Escaped(self.out).write_fmt(s);
        self
    }

    /// Closes the innermost open element. A void element gets no end tag.
    pub fn close(&mut self) -> &mut Self {
        self.seal();
        let name = self.stack.pop().expect("close without a matching open");
        if !is_void(name) {
            self.out.push_str("</");
            self.out.push_str(name);
            self.out.push('>');
        }
        self
    }
}

/// `fmt::Write` adapter that escapes everything written through it.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(s, self.0);
        Ok(())
    }
}

fn is_void(name: &str) -> bool {
    matches!(
        name,
        "area" | "base" | "br" | "col" | "embed" | "hr" | "img" | "input" | "link" | "meta"
            | "param" | "source" | "track" | "wbr"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::extract_links;

    #[test]
    fn renders_and_reparses() {
        let mut html = String::new();
        let mut w = HtmlWriter::document(&mut html);
        w.open("html").open("body").open("div").id("main").open("ul").classes(["datasets"]);
        for (href, anchor) in [("/d/a.csv", "A"), ("/d/b.csv", "B")] {
            w.open("li").open("a").attr("href", href).text(anchor).close().close();
        }
        w.close().close().close().close();
        assert!(html.starts_with("<!DOCTYPE html><html><body><div id=\"main\">"));
        let links = extract_links(&html);
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].tag_path.to_string(), "html body div#main ul.datasets li a");
    }

    #[test]
    fn escapes_attr_and_text() {
        let mut html = String::new();
        HtmlWriter::new(&mut html).open("a").attr("href", "/q?a=1&b=2").text("R&D <3").close();
        assert_eq!(html, "<a href=\"/q?a=1&amp;b=2\">R&amp;D &lt;3</a>");
        let links = extract_links(&html);
        assert_eq!(links[0].href, "/q?a=1&b=2");
        assert_eq!(links[0].anchor_text, "R&D <3");
    }

    #[test]
    fn formatted_values_are_escaped_in_place() {
        let mut html = String::new();
        let mut w = HtmlWriter::new(&mut html);
        w.open("div").id_fmt(format_args!("f\"{}", 7)).text_fmt(format_args!("{} < {}", 1, 2));
        w.close();
        assert_eq!(html, "<div id=\"f&quot;7\">1 &lt; 2</div>");
    }

    #[test]
    fn void_elements_not_closed() {
        let mut html = String::new();
        HtmlWriter::new(&mut html).open("body").open("br").close().open("p").close().close();
        assert_eq!(html, "<body><br><p></p></body>");
    }

    #[test]
    fn classes_joined() {
        let mut html = String::new();
        let mut w = HtmlWriter::new(&mut html);
        w.open("a").classes("fr-link fr-link--download".split(' ')).close();
        w.open("b").classes([]).close();
        assert_eq!(html, "<a class=\"fr-link fr-link--download\"></a><b></b>");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "void element")]
    fn void_elements_refuse_content() {
        let mut html = String::new();
        HtmlWriter::new(&mut html).open("br").text("lost");
    }
}
