//! The seed HTML pipeline, preserved verbatim as an executable baseline —
//! the owned-`String` tokenizer, DOM and link extractor the zero-copy
//! `sb-html` pipeline (PR 3) replaced. Every tag name, attribute value,
//! text run and link feature here is an owned allocation, exactly like the
//! seed `sb_html` (`Token { name: String, .. }`, per-node `children:
//! Vec<NodeId>`, per-link `text_content` temporaries).
//!
//! Two consumers:
//!
//! * `tests/html_equivalence.rs` — property tests assert the zero-copy
//!   tokenizer/DOM/extractor produce value-identical tokens, trees and
//!   links on arbitrary and generated markup;
//! * [`crate::reference`] — the seed crawl engine extracts links through
//!   this module, so the crawl-trace determinism tests exercise the seed
//!   HTML path end to end.
//!
//! Keep it frozen: behaviour changes here invalidate every comparison.

use sb_html::{LinkKind, TagPath};

// ---------------------------------------------------------------------------
// Seed entity unescaping (escape.rs at seed): always returns an owned String.
// ---------------------------------------------------------------------------

/// Seed `unescape`: same entity table as the live one, but the entity-free
/// common case still pays a full-string copy.
pub fn seed_unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_owned();
    }
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Copy the full UTF-8 character, not just one byte.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&s[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        let end = bytes[i + 1..]
            .iter()
            .take(32)
            .position(|&b| b == b';')
            .map(|p| i + 1 + p);
        let Some(end) = end else {
            out.push('&');
            i += 1;
            continue;
        };
        let name = &s[i + 1..end];
        let resolved = match name {
            "amp" => Some('&'),
            "lt" => Some('<'),
            "gt" => Some('>'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            "nbsp" => Some('\u{a0}'),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                u32::from_str_radix(&name[2..], 16).ok().and_then(char::from_u32)
            }
            _ if name.starts_with('#') => name[1..].parse::<u32>().ok().and_then(char::from_u32),
            _ => None,
        };
        match resolved {
            Some(c) => {
                out.push(c);
                i = end + 1;
            }
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
    out
}

#[inline]
fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b < 0xE0 => 2,
        b if b < 0xF0 => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Seed tokenizer (token.rs at seed): one owned String per name/value/text.
// ---------------------------------------------------------------------------

/// Seed attribute: owned name and entity-decoded value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedAttr {
    pub name: String,
    pub value: String,
}

/// Seed token: every payload is an owned `String`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedToken {
    Start { name: String, attrs: Vec<SeedAttr>, self_closing: bool },
    End { name: String },
    Text(String),
    Comment(String),
    Doctype(String),
}

const RAW_TEXT_ELEMENTS: [&str; 2] = ["script", "style"];

/// Seed `tokenize`. Never fails; garbage in, best-effort tokens out.
pub fn seed_tokenize(input: &str) -> Vec<SeedToken> {
    SeedTokenizer { input, bytes: input.as_bytes(), pos: 0, out: Vec::new() }.run()
}

struct SeedTokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    out: Vec<SeedToken>,
}

impl SeedTokenizer<'_> {
    fn run(mut self) -> Vec<SeedToken> {
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'<' {
                self.lex_angle();
            } else {
                self.lex_text();
            }
        }
        self.out
    }

    fn lex_text(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        let raw = &self.input[start..self.pos];
        if !raw.is_empty() {
            self.out.push(SeedToken::Text(seed_unescape(raw)));
        }
    }

    fn lex_angle(&mut self) {
        let rest = &self.bytes[self.pos + 1..];
        match rest.first() {
            Some(b'!') => self.lex_markup_decl(),
            Some(b'/') => self.lex_end_tag(),
            Some(c) if c.is_ascii_alphabetic() => self.lex_start_tag(),
            _ => {
                self.out.push(SeedToken::Text("<".to_owned()));
                self.pos += 1;
            }
        }
    }

    fn lex_markup_decl(&mut self) {
        if self.input[self.pos..].starts_with("<!--") {
            let body_start = self.pos + 4;
            match self.input[body_start..].find("-->") {
                Some(off) => {
                    self.out
                        .push(SeedToken::Comment(self.input[body_start..body_start + off].to_owned()));
                    self.pos = body_start + off + 3;
                }
                None => {
                    self.out.push(SeedToken::Comment(self.input[body_start..].to_owned()));
                    self.pos = self.bytes.len();
                }
            }
            return;
        }
        let body_start = self.pos + 2;
        match self.input[body_start..].find('>') {
            Some(off) => {
                self.out
                    .push(SeedToken::Doctype(self.input[body_start..body_start + off].to_owned()));
                self.pos = body_start + off + 1;
            }
            None => {
                self.out.push(SeedToken::Doctype(self.input[body_start..].to_owned()));
                self.pos = self.bytes.len();
            }
        }
    }

    fn lex_end_tag(&mut self) {
        self.pos += 2;
        let name = self.lex_name();
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'>' {
            self.pos += 1;
        }
        if self.pos < self.bytes.len() {
            self.pos += 1;
        }
        if !name.is_empty() {
            self.out.push(SeedToken::End { name });
        }
    }

    fn lex_start_tag(&mut self) {
        self.pos += 1;
        let name = self.lex_name();
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'>') {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                }
                Some(_) => {
                    if let Some(attr) = self.lex_attr() {
                        attrs.push(attr);
                    } else {
                        self.pos += 1;
                    }
                }
            }
        }
        if RAW_TEXT_ELEMENTS.contains(&name.as_str()) && !self_closing {
            self.out.push(SeedToken::Start { name: name.clone(), attrs, self_closing });
            self.consume_raw_text(&name);
            return;
        }
        self.out.push(SeedToken::Start { name, attrs, self_closing });
    }

    /// Seed raw-text skip: lowercases the whole remaining input (one copy
    /// per `<script>`/`<style>`) to find the close tag.
    fn consume_raw_text(&mut self, name: &str) {
        let close = format!("</{name}");
        let hay = &self.input[self.pos..];
        let lower = hay.to_ascii_lowercase();
        match lower.find(&close) {
            Some(off) => {
                self.pos += off;
                self.lex_angle();
            }
            None => self.pos = self.bytes.len(),
        }
    }

    fn lex_name(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.input[start..self.pos].to_ascii_lowercase()
    }

    fn lex_attr(&mut self) -> Option<SeedAttr> {
        let name_start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b == b'=' || b == b'>' || b == b'/' || b.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        if self.pos == name_start {
            return None;
        }
        let name = self.input[name_start..self.pos].to_ascii_lowercase();
        self.skip_ws();
        if self.bytes.get(self.pos) != Some(&b'=') {
            return Some(SeedAttr { name, value: String::new() });
        }
        self.pos += 1;
        self.skip_ws();
        let value = match self.bytes.get(self.pos) {
            Some(&q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let vstart = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != q {
                    self.pos += 1;
                }
                let v = &self.input[vstart..self.pos];
                if self.pos < self.bytes.len() {
                    self.pos += 1;
                }
                seed_unescape(v)
            }
            _ => {
                let vstart = self.pos;
                while self.pos < self.bytes.len() {
                    let b = self.bytes[self.pos];
                    if b == b'>' || b.is_ascii_whitespace() {
                        break;
                    }
                    self.pos += 1;
                }
                seed_unescape(&self.input[vstart..self.pos])
            }
        };
        Some(SeedAttr { name, value })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Seed DOM (dom.rs at seed): owned names/text + per-node children Vecs.
// ---------------------------------------------------------------------------

pub type SeedNodeId = usize;

/// Seed DOM node: owned strings, per-node `children` vector.
#[derive(Debug, Clone)]
pub enum SeedNode {
    Element {
        name: String,
        attrs: Vec<SeedAttr>,
        children: Vec<SeedNodeId>,
        parent: Option<SeedNodeId>,
    },
    Text {
        content: String,
        parent: Option<SeedNodeId>,
    },
}

impl SeedNode {
    pub fn name(&self) -> Option<&str> {
        match self {
            SeedNode::Element { name, .. } => Some(name),
            SeedNode::Text { .. } => None,
        }
    }

    pub fn attr(&self, want: &str) -> Option<&str> {
        match self {
            SeedNode::Element { attrs, .. } => {
                attrs.iter().find(|a| a.name == want).map(|a| a.value.as_str())
            }
            SeedNode::Text { .. } => None,
        }
    }

    pub fn parent(&self) -> Option<SeedNodeId> {
        match self {
            SeedNode::Element { parent, .. } | SeedNode::Text { parent, .. } => *parent,
        }
    }
}

/// Seed document: node arena plus root ids.
#[derive(Debug, Clone, Default)]
pub struct SeedDocument {
    nodes: Vec<SeedNode>,
    roots: Vec<SeedNodeId>,
}

const VOID_ELEMENTS: [&str; 14] = [
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param",
    "source", "track", "wbr",
];

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

/// Seed `parse`: builds the tree from the owned token stream. Note the
/// per-start-tag `to_owned` of the innermost open element's name — the
/// seed paid an allocation just to run the implied-end-tag check.
pub fn seed_parse(input: &str) -> SeedDocument {
    let mut doc = SeedDocument { nodes: Vec::new(), roots: Vec::new() };
    let mut open: Vec<SeedNodeId> = Vec::new();

    for tok in seed_tokenize(input) {
        match tok {
            SeedToken::Start { name, attrs, self_closing } => {
                while let Some(&top) = open.last() {
                    let top_name = doc.nodes[top].name().unwrap_or("").to_owned();
                    if implies_close(&name, &top_name) {
                        open.pop();
                    } else {
                        break;
                    }
                }
                let is_void = VOID_ELEMENTS.contains(&name.as_str());
                let id = doc.push_node(
                    SeedNode::Element {
                        name,
                        attrs,
                        children: Vec::new(),
                        parent: open.last().copied(),
                    },
                    &mut open,
                );
                if !self_closing && !is_void {
                    open.push(id);
                }
            }
            SeedToken::End { name } => {
                if let Some(pos) =
                    open.iter().rposition(|&id| doc.nodes[id].name() == Some(name.as_str()))
                {
                    open.truncate(pos);
                }
            }
            SeedToken::Text(content) => {
                if !content.is_empty() {
                    doc.push_node(SeedNode::Text { content, parent: open.last().copied() }, &mut open);
                }
            }
            SeedToken::Comment(_) | SeedToken::Doctype(_) => {}
        }
    }
    doc
}

impl SeedDocument {
    fn push_node(&mut self, node: SeedNode, open: &mut [SeedNodeId]) -> SeedNodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        match open.last() {
            Some(&parent) => {
                if let SeedNode::Element { children, .. } = &mut self.nodes[parent] {
                    children.push(id);
                }
            }
            None => self.roots.push(id),
        }
        id
    }

    pub fn nodes(&self) -> &[SeedNode] {
        &self.nodes
    }

    pub fn roots(&self) -> &[SeedNodeId] {
        &self.roots
    }

    pub fn node(&self, id: SeedNodeId) -> &SeedNode {
        &self.nodes[id]
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn elements_named(&self, name: &str) -> Vec<SeedNodeId> {
        (0..self.nodes.len()).filter(|&id| self.nodes[id].name() == Some(name)).collect()
    }

    /// Seed `text_content`: a fresh String per call.
    pub fn text_content(&self, id: SeedNodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: SeedNodeId, out: &mut String) {
        match &self.nodes[id] {
            SeedNode::Text { content, .. } => out.push_str(content),
            SeedNode::Element { children, .. } => {
                for &c in children {
                    self.collect_text(c, out);
                }
            }
        }
    }

    pub fn ancestry(&self, id: SeedNodeId) -> Vec<SeedNodeId> {
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

// ---------------------------------------------------------------------------
// Seed link extraction (reference.rs pre-PR 3): per-link text temporaries,
// Vec-collect/join whitespace normalisation, owned String features.
// ---------------------------------------------------------------------------

/// Seed link: every feature is an owned String.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedLink {
    pub href: String,
    pub kind: LinkKind,
    pub tag_path: TagPath,
    pub anchor_text: String,
    pub surrounding_text: String,
}

/// Seed tag-path extraction: one owned String per segment, rendered
/// `name#id.class…` (the id trimmed and dropped when empty, the classes
/// split on whitespace).
pub fn seed_tag_path(doc: &SeedDocument, id: SeedNodeId) -> TagPath {
    let tokens: Vec<String> = doc
        .ancestry(id)
        .into_iter()
        .map(|nid| {
            let node = doc.node(nid);
            let mut token = node.name().unwrap_or("").to_owned();
            if let Some(elem_id) = node.attr("id").map(str::trim).filter(|s| !s.is_empty()) {
                token.push('#');
                token.push_str(elem_id);
            }
            for class in node.attr("class").into_iter().flat_map(str::split_ascii_whitespace) {
                token.push('.');
                token.push_str(class);
            }
            token
        })
        .collect();
    TagPath::from_tokens(tokens)
}

/// Seed link extraction over the seed DOM: per-link `text_content`
/// temporaries and the `Vec`-collect/`join` whitespace normalisation.
pub fn seed_extract_links(html: &str) -> Vec<SeedLink> {
    let doc = seed_parse(html);
    let mut out = Vec::new();
    for id in 0..doc.len() {
        let node = doc.node(id);
        let Some(name) = node.name() else { continue };
        let (kind, url_attr) = match name {
            "a" => (LinkKind::Anchor, "href"),
            "area" => (LinkKind::Area, "href"),
            "iframe" => (LinkKind::Iframe, "src"),
            _ => continue,
        };
        let Some(href) = node.attr(url_attr) else { continue };
        let href = href.trim();
        if href.is_empty() || href.starts_with('#') || seed_is_non_http_scheme(href) {
            continue;
        }
        let anchor_text = seed_normalize_ws(&doc.text_content(id));
        let surrounding_text = seed_surrounding_text(&doc, id, &anchor_text);
        out.push(SeedLink {
            href: href.to_owned(),
            kind,
            tag_path: seed_tag_path(&doc, id),
            anchor_text,
            surrounding_text,
        });
    }
    out
}

fn seed_is_non_http_scheme(href: &str) -> bool {
    let Some(colon) = href.find(':') else { return false };
    let scheme = &href[..colon];
    if !scheme.chars().all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-' || c == '.') {
        return false;
    }
    !scheme.eq_ignore_ascii_case("http") && !scheme.eq_ignore_ascii_case("https")
}

fn seed_surrounding_text(doc: &SeedDocument, id: SeedNodeId, anchor_text: &str) -> String {
    const BLOCKS: [&str; 12] =
        ["p", "li", "td", "div", "section", "article", "main", "aside", "figure", "dd", "th", "body"];
    let mut cur = doc.node(id).parent();
    while let Some(pid) = cur {
        let node = doc.node(pid);
        if let SeedNode::Element { name, .. } = node {
            if BLOCKS.contains(&name.as_str()) {
                let full = seed_normalize_ws(&doc.text_content(pid));
                let trimmed = match full.find(anchor_text) {
                    Some(pos) if !anchor_text.is_empty() => {
                        let mut s = String::with_capacity(full.len() - anchor_text.len());
                        s.push_str(&full[..pos]);
                        s.push_str(&full[pos + anchor_text.len()..]);
                        seed_normalize_ws(&s)
                    }
                    _ => full,
                };
                return seed_truncate_chars(&trimmed, 160);
            }
        }
        cur = node.parent();
    }
    String::new()
}

fn seed_normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn seed_truncate_chars(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        return s.to_owned();
    }
    s.chars().take(max).collect()
}
