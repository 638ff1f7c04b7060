//! Arena-based DOM built from the streaming token events.
//!
//! The tree-construction rules are a pragmatic subset of WHATWG \[58\]: void
//! elements never take children, a handful of *implied end tag* rules keep
//! sibling `<li>`/`<p>`/`<td>` elements from nesting, and mismatched end tags
//! pop up to the nearest matching open element (or are ignored). That is
//! enough to recover the tag paths of hyperlinks on the real-world markup the
//! paper's crawler meets.
//!
//! Storage is allocation-light (PR 3): names and text are [`Cow`]s borrowing
//! the input, all attributes live in **one arena** (`Document::attrs`, each
//! element holding a range into it), and child lists are intrusive
//! first-child/next-sibling links instead of a per-node `Vec<NodeId>`.
//! `parse` reserves both arenas once, from a count of the input's `<` and
//! `=` bytes that bounds the nodes and the valued attributes. Parsing an entity-free page costs a
//! handful of allocations and bytes in proportion to its markup, not to
//! its text — `tests/alloc_guard.rs` pins both.

use crate::token::{Event, Tokenizer};
use std::borrow::Cow;

/// Index of a node in its [`Document`] arena.
pub type NodeId = usize;

/// A DOM node: either an element or a text run. Child lists are intrusive
/// (`first_child`/`next_sibling`); attributes are a range into the
/// document's shared attribute arena — use [`Document::attrs_of`],
/// [`Document::attr`] and [`Document::children`] to read them.
#[derive(Debug, Clone)]
pub enum Node<'a> {
    Element {
        name: Cow<'a, str>,
        /// `[start, end)` range into the document's attribute arena
        /// (read it via [`Document::attrs_of`]).
        attrs: (u32, u32),
        parent: Option<NodeId>,
        first_child: Option<NodeId>,
        last_child: Option<NodeId>,
        next_sibling: Option<NodeId>,
    },
    Text {
        content: Cow<'a, str>,
        parent: Option<NodeId>,
        next_sibling: Option<NodeId>,
    },
}

impl<'a> Node<'a> {
    /// Element name, or `None` for text nodes.
    pub fn name(&self) -> Option<&str> {
        match self {
            Node::Element { name, .. } => Some(name),
            Node::Text { .. } => None,
        }
    }

    pub fn parent(&self) -> Option<NodeId> {
        match self {
            Node::Element { parent, .. } | Node::Text { parent, .. } => *parent,
        }
    }

    fn first_child(&self) -> Option<NodeId> {
        match self {
            Node::Element { first_child, .. } => *first_child,
            Node::Text { .. } => None,
        }
    }

    fn next_sibling(&self) -> Option<NodeId> {
        match self {
            Node::Element { next_sibling, .. } | Node::Text { next_sibling, .. } => *next_sibling,
        }
    }

    fn set_next_sibling(&mut self, id: NodeId) {
        match self {
            Node::Element { next_sibling, .. } | Node::Text { next_sibling, .. } => {
                *next_sibling = Some(id)
            }
        }
    }
}

/// A parsed HTML document: a node arena, a shared attribute arena, and the
/// ids of root-level nodes.
#[derive(Debug, Clone, Default)]
pub struct Document<'a> {
    nodes: Vec<Node<'a>>,
    attrs: Vec<crate::token::Attr<'a>>,
    roots: Vec<NodeId>,
}

/// Elements that cannot have children.
const VOID_ELEMENTS: [&str; 14] = [
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param",
    "source", "track", "wbr",
];

/// `(incoming, implicitly-closed)` pairs: opening `incoming` while
/// `implicitly-closed` is the innermost open element closes the latter first.
fn implies_close(incoming: &str, open: &str) -> bool {
    match open {
        "li" => incoming == "li",
        "p" => matches!(
            incoming,
            "p" | "div" | "ul" | "ol" | "table" | "section" | "article" | "h1" | "h2" | "h3"
                | "h4" | "h5" | "h6" | "form" | "blockquote" | "pre" | "nav" | "main"
                | "header" | "footer"
        ),
        "td" | "th" => matches!(incoming, "td" | "th" | "tr"),
        "tr" => incoming == "tr",
        "option" => incoming == "option",
        "dt" | "dd" => matches!(incoming, "dt" | "dd"),
        _ => false,
    }
}

/// Parses HTML into a [`Document`]. Never fails. Drives the streaming
/// tokenizer, so per-tag attributes flow straight from the tokenizer's
/// reused buffer into the document's arena.
pub fn parse(input: &str) -> Document<'_> {
    let (lt, eq) = count_lt_eq(input.as_bytes());
    let mut doc = Document {
        nodes: Vec::with_capacity(2 * lt + 1),
        attrs: Vec::with_capacity(eq),
        roots: Vec::new(),
    };
    // Stack of currently-open element ids.
    let mut open: Vec<NodeId> = Vec::new();
    let mut tk = Tokenizer::new(input);

    while let Some(ev) = tk.next_event() {
        match ev {
            Event::Start { name, self_closing } => {
                while let Some(&top) = open.last() {
                    if implies_close(&name, doc.nodes[top].name().unwrap_or("")) {
                        open.pop();
                    } else {
                        break;
                    }
                }
                let is_void = VOID_ELEMENTS.contains(&name.as_ref());
                let astart = doc.attrs.len() as u32;
                doc.attrs.append(&mut tk.attrs);
                let aend = doc.attrs.len() as u32;
                let id = doc.push_node(
                    Node::Element {
                        name,
                        attrs: (astart, aend),
                        parent: open.last().copied(),
                        first_child: None,
                        last_child: None,
                        next_sibling: None,
                    },
                    &open,
                );
                if !self_closing && !is_void {
                    open.push(id);
                }
            }
            Event::End { name } => {
                // Pop to the matching open element; ignore if none matches.
                if let Some(pos) =
                    open.iter().rposition(|&id| doc.nodes[id].name() == Some(name.as_ref()))
                {
                    open.truncate(pos);
                }
            }
            Event::Text(content) => {
                if !content.is_empty() {
                    doc.push_node(
                        Node::Text { content, parent: open.last().copied(), next_sibling: None },
                        &open,
                    );
                }
            }
            Event::Comment(_) | Event::Doctype(_) => {}
        }
    }
    doc
}

/// The number of `<` and of `=` bytes in `bytes`, from which `parse`
/// reserves its arenas once. Each element and each stray `<` consumes a `<`
/// of its own, and each other text node runs up to one or to the end of
/// input, so a page has at most `2·lt + 1` nodes and the node arena never
/// regrows. Each valued attribute consumes an `=` of its own, so the
/// attribute arena regrows only for attributes without a value. Tallying
/// each 64-byte chunk in `u8`s lets the compiler vectorise the count; one
/// `usize` fold per byte costs ~8× as much.
fn count_lt_eq(bytes: &[u8]) -> (usize, usize) {
    let (mut lt, mut eq) = (0, 0);
    for chunk in bytes.chunks(64) {
        let (mut chunk_lt, mut chunk_eq) = (0u8, 0u8);
        for &b in chunk {
            chunk_lt += u8::from(b == b'<');
            chunk_eq += u8::from(b == b'=');
        }
        lt += usize::from(chunk_lt);
        eq += usize::from(chunk_eq);
    }
    (lt, eq)
}

impl<'a> Document<'a> {
    fn push_node(&mut self, node: Node<'a>, open: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        match open.last() {
            Some(&parent) => {
                let prev = match &mut self.nodes[parent] {
                    Node::Element { first_child, last_child, .. } => {
                        let prev = *last_child;
                        if first_child.is_none() {
                            *first_child = Some(id);
                        }
                        *last_child = Some(id);
                        prev
                    }
                    Node::Text { .. } => None,
                };
                if let Some(prev) = prev {
                    self.nodes[prev].set_next_sibling(id);
                }
            }
            None => self.roots.push(id),
        }
        id
    }

    /// All nodes, in document order.
    pub fn nodes(&self) -> &[Node<'a>] {
        &self.nodes
    }

    /// Root-level node ids (usually just `html`).
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    pub fn node(&self, id: NodeId) -> &Node<'a> {
        &self.nodes[id]
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The attributes of element `id` (empty for text nodes), borrowed from
    /// the shared arena.
    pub fn attrs_of(&self, id: NodeId) -> &[crate::token::Attr<'a>] {
        match &self.nodes[id] {
            Node::Element { attrs: (s, e), .. } => &self.attrs[*s as usize..*e as usize],
            Node::Text { .. } => &[],
        }
    }

    /// Value of attribute `want` on element `id`.
    pub fn attr(&self, id: NodeId, want: &str) -> Option<&str> {
        self.attrs_of(id).iter().find(|a| a.name == want).map(|a| a.value.as_ref())
    }

    /// As [`Document::attr`], exposing the underlying [`Cow`] so zero-copy
    /// consumers can keep the input borrow instead of re-borrowing the
    /// document.
    pub(crate) fn attr_value(&self, id: NodeId, want: &str) -> Option<&Cow<'a, str>> {
        self.attrs_of(id).iter().find(|a| a.name == want).map(|a| &a.value)
    }

    /// Child ids of `id` in document order (empty for text nodes).
    pub fn children(&self, id: NodeId) -> Children<'_, 'a> {
        Children { doc: self, next: self.nodes[id].first_child() }
    }

    /// Every node beneath `id`, in document order (pre-order). Walks the
    /// intrusive links, so a subtree of any depth costs no stack and no
    /// allocation, and a caller that stops early pays only for what it saw.
    pub(crate) fn descendants(&self, id: NodeId) -> Descendants<'_, 'a> {
        Descendants { doc: self, root: id, next: self.nodes[id].first_child() }
    }

    /// Concatenated text content beneath `id` (including `id` itself if text).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in std::iter::once(id).chain(self.descendants(id)) {
            if let Node::Text { content, .. } = &self.nodes[n] {
                out.push_str(content);
            }
        }
        out
    }

    /// Ids of all elements with the given name, in document order.
    pub fn elements_named(&self, name: &str) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&id| self.nodes[id].name() == Some(name))
            .collect()
    }

    /// The chain of element ids from the document root down to `id`
    /// (inclusive when `id` is an element).
    pub fn ancestry(&self, id: NodeId) -> Vec<NodeId> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            if self.nodes[c].name().is_some() {
                chain.push(c);
            }
            cur = self.nodes[c].parent();
        }
        chain.reverse();
        chain
    }
}

/// Iterator over a node's children (intrusive sibling chain).
pub struct Children<'d, 'a> {
    doc: &'d Document<'a>,
    next: Option<NodeId>,
}

impl Iterator for Children<'_, '_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.nodes[id].next_sibling();
        Some(id)
    }
}

/// Iterator over a node's subtree, see [`Document::descendants`].
pub(crate) struct Descendants<'d, 'a> {
    doc: &'d Document<'a>,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Descendants<'_, '_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        // Down if possible; otherwise across from the nearest node, on the
        // way back up to the root, that has a sibling left.
        let nodes = &self.doc.nodes;
        self.next = nodes[id].first_child().or_else(|| {
            let mut cur = id;
            loop {
                let node = &nodes[cur];
                if let Some(sibling) = node.next_sibling() {
                    break Some(sibling);
                }
                match node.parent() {
                    Some(up) if up != self.root => cur = up,
                    _ => break None,
                }
            }
        });
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_tree() {
        let doc = parse("<html><body><div id='m'><a href='/x'>t</a></div></body></html>");
        let a = doc.elements_named("a");
        assert_eq!(a.len(), 1);
        assert_eq!(doc.attr(a[0], "href"), Some("/x"));
        let chain = doc.ancestry(a[0]);
        let names: Vec<_> = chain.iter().map(|&id| doc.node(id).name().unwrap()).collect();
        assert_eq!(names, vec!["html", "body", "div", "a"]);
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = parse("<p><br>text</p>");
        let br = doc.elements_named("br")[0];
        assert_eq!(doc.children(br).count(), 0);
        // "text" is a sibling of <br> inside <p>.
        let p = doc.elements_named("p")[0];
        assert_eq!(doc.children(p).count(), 2);
    }

    #[test]
    fn sibling_li_do_not_nest() {
        let doc = parse("<ul><li>a<li>b<li>c</ul>");
        let lis = doc.elements_named("li");
        assert_eq!(lis.len(), 3);
        let ul = doc.elements_named("ul")[0];
        for &li in &lis {
            assert_eq!(doc.node(li).parent(), Some(ul));
        }
        assert_eq!(doc.children(ul).collect::<Vec<_>>(), lis);
    }

    #[test]
    fn p_closed_by_div() {
        let doc = parse("<body><p>one<div>two</div></body>");
        let div = doc.elements_named("div")[0];
        let body = doc.elements_named("body")[0];
        assert_eq!(doc.node(div).parent(), Some(body));
    }

    #[test]
    fn mismatched_end_tag_ignored() {
        let doc = parse("<div><span>x</b></span></div>");
        assert_eq!(doc.elements_named("span").len(), 1);
        assert_eq!(doc.elements_named("div").len(), 1);
    }

    #[test]
    fn unclosed_elements_ok() {
        let doc = parse("<html><body><div><a href='/y'>link");
        let a = doc.elements_named("a")[0];
        assert_eq!(doc.text_content(a), "link");
    }

    #[test]
    fn text_content_recurses() {
        let doc = parse("<div>a<span>b</span>c</div>");
        let div = doc.elements_named("div")[0];
        assert_eq!(doc.text_content(div), "abc");
    }

    #[test]
    fn descendants_are_the_subtree_in_document_order() {
        let doc = parse("<div><p>a<b>b<i>c</i></b></p>d<br></div><span>e</span>");
        let div = doc.elements_named("div")[0];
        // Ids are handed out in document order, so a subtree is a run of them.
        let span = doc.elements_named("span")[0];
        assert_eq!(doc.descendants(div).collect::<Vec<_>>(), (div + 1..span).collect::<Vec<_>>());
        let p = doc.elements_named("p")[0];
        assert_eq!(doc.descendants(p).count(), 5, "stops at the subtree's end, not its parent's");
        let br = doc.elements_named("br")[0];
        assert_eq!(doc.descendants(br).count(), 0);
    }

    #[test]
    fn table_cells() {
        let doc = parse("<table><tr><td>1<td>2<tr><td>3</table>");
        assert_eq!(doc.elements_named("tr").len(), 2);
        assert_eq!(doc.elements_named("td").len(), 3);
    }

    #[test]
    fn attrs_live_in_shared_arena() {
        let doc = parse("<div id='a' class='x y'><a href='/z'>t</a></div>");
        let div = doc.elements_named("div")[0];
        assert_eq!(doc.attrs_of(div).len(), 2);
        assert_eq!(doc.attr(div, "class"), Some("x y"));
        let a = doc.elements_named("a")[0];
        assert_eq!(doc.attr(a, "href"), Some("/z"));
        assert_eq!(doc.attr(a, "id"), None);
    }
}
