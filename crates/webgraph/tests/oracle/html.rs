//! The frozen tree builder: `sb_html::render` as it stood before PR 23 —
//! `HtmlBuilder`, `el`, `text`, `render` and the `escape() -> String` it
//! called per text run and attribute, verbatim. Build a tree, walk it once.

use std::fmt::Write as _;

/// A node in the builder tree: an element or a text run.
#[derive(Debug, Clone)]
pub enum HtmlBuilder {
    Element {
        name: &'static str,
        id: Option<String>,
        classes: Vec<String>,
        attrs: Vec<(String, String)>,
        children: Vec<HtmlBuilder>,
    },
    Text(String),
}

/// Creates an element node.
pub fn el(name: &'static str) -> HtmlBuilder {
    HtmlBuilder::Element { name, id: None, classes: Vec::new(), attrs: Vec::new(), children: Vec::new() }
}

/// Creates a text node.
pub fn text(s: impl Into<String>) -> HtmlBuilder {
    HtmlBuilder::Text(s.into())
}

impl HtmlBuilder {
    pub fn id(mut self, v: impl Into<String>) -> Self {
        if let HtmlBuilder::Element { id, .. } = &mut self {
            *id = Some(v.into());
        }
        self
    }

    pub fn class(mut self, v: impl Into<String>) -> Self {
        if let HtmlBuilder::Element { classes, .. } = &mut self {
            classes.push(v.into());
        }
        self
    }

    pub fn attr(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        if let HtmlBuilder::Element { attrs, .. } = &mut self {
            attrs.push((k.into(), v.into()));
        }
        self
    }

    pub fn child(mut self, c: HtmlBuilder) -> Self {
        if let HtmlBuilder::Element { children, .. } = &mut self {
            children.push(c);
        }
        self
    }

    pub fn children(mut self, cs: impl IntoIterator<Item = HtmlBuilder>) -> Self {
        if let HtmlBuilder::Element { children, .. } = &mut self {
            children.extend(cs);
        }
        self
    }

    /// Convenience: `<a href=..>text</a>` child.
    pub fn link(self, href: impl Into<String>, anchor: impl Into<String>) -> Self {
        self.child(el("a").attr("href", href).child(text(anchor)))
    }

    fn write(&self, out: &mut String) {
        match self {
            HtmlBuilder::Text(s) => out.push_str(&escape(s)),
            HtmlBuilder::Element { name, id, classes, attrs, children } => {
                out.push('<');
                out.push_str(name);
                if let Some(id) = id {
                    let _ = write!(out, " id=\"{}\"", escape(id));
                }
                if !classes.is_empty() {
                    let _ = write!(out, " class=\"{}\"", escape(&classes.join(" ")));
                }
                for (k, v) in attrs {
                    let _ = write!(out, " {}=\"{}\"", k, escape(v));
                }
                out.push('>');
                if is_void(name) {
                    return;
                }
                for c in children {
                    c.write(out);
                }
                let _ = write!(out, "</{name}>");
            }
        }
    }
}

fn is_void(name: &str) -> bool {
    matches!(
        name,
        "area" | "base" | "br" | "col" | "embed" | "hr" | "img" | "input" | "link" | "meta"
            | "param" | "source" | "track" | "wbr"
    )
}

/// Renders a full document (`<!DOCTYPE html>` + tree).
pub fn render(root: &HtmlBuilder) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("<!DOCTYPE html>");
    root.write(&mut out);
    out
}

/// Escapes `&`, `<`, `>`, `"` and `'` for safe inclusion in HTML text or
/// double-quoted attribute values.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}
