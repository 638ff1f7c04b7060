//! Hyperlink extraction: the crawler's view of an HTML page.
//!
//! Per Sec 2.2, an edge `(u, v)` exists when `u` links to `v` via `<a>`,
//! `<area>` or `<iframe>`. Each extracted [`Link`] carries its [`TagPath`]
//! (the edge label λ) plus the anchor text and a window of surrounding text,
//! which the `URL_CONT` classifier feature set of Sec 4.6 consumes.
//!
//! Extraction is two steps, so that a feature is computed for a link the
//! crawl admits and never for one it rejects. [`link_sites`] walks a parsed
//! document and yields, in document order, where its crawlable links are
//! and what they point to (a [`LinkSite`]: node, kind, trimmed href) —
//! enough to resolve the URL and look it up in the visited set, and free of
//! allocation on entity-free markup. [`LinkSite::into_link`] then computes
//! the features a consumer's [`LinkNeeds`] ask for. The crawl session runs
//! its filters between the two; `extract_links*` are the first mapped
//! through the second for every site, for callers that want them all.
//!
//! Links are **borrowed** (PR 3): `href`, `anchor_text` and
//! `surrounding_text` are [`Cow`]s over the page's input buffer. An owned
//! copy is made only when the value genuinely differs from the raw bytes —
//! an entity-decoded href, an anchor whose text spans several nodes or
//! needs whitespace normalisation, a surrounding window with the anchor cut
//! out. On generated markup (single text node per anchor, pre-normalised)
//! the common case borrows straight from the response body; the single
//! owned-conversion boundary of the whole crawl pipeline is the engine's
//! `NewLink` → interner hand-off, where a URL outlives its page.

use crate::dom::{parse, Document, Node, NodeId};
use crate::tagpath::TagPath;
use std::borrow::Cow;

/// Which HTML construct produced the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    Anchor,
    Area,
    Iframe,
}

/// A hyperlink found in a page, with everything the crawler needs to decide
/// whether and how to follow it. Text features borrow the page's buffer
/// whenever extraction did not have to rewrite them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link<'a> {
    /// The raw (not yet resolved) href/src value.
    pub href: Cow<'a, str>,
    pub kind: LinkKind,
    /// Root-to-link tag path: the edge label λ of Sec 2.2.
    pub tag_path: TagPath,
    /// Text content of the linking element (empty for `<iframe>`).
    pub anchor_text: Cow<'a, str>,
    /// Text of the nearest enclosing block, minus the anchor text: the
    /// "surrounding text" feature of the URL_CONT variants.
    pub surrounding_text: Cow<'a, str>,
}

/// Which per-link features a consumer actually reads. Link extraction
/// runs on every fetched page; computing tag paths and text windows for a
/// crawler that never looks at them (BFS reads hrefs only, the paper's
/// URL_ONLY classifier reads hrefs + tag paths) is pure hot-path waste,
/// so consumers declare their needs and the rest is skipped — the skipped
/// fields come back empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkNeeds {
    pub tag_path: bool,
    pub anchor_text: bool,
    pub surrounding_text: bool,
}

impl LinkNeeds {
    /// Everything populated (the default, and the conservative choice).
    pub const ALL: LinkNeeds =
        LinkNeeds { tag_path: true, anchor_text: true, surrounding_text: true };
    /// Hrefs only — frontier-order crawlers.
    pub const HREF_ONLY: LinkNeeds =
        LinkNeeds { tag_path: false, anchor_text: false, surrounding_text: false };
    /// Hrefs + tag paths — the URL_ONLY sleeping-bandit configuration.
    pub const TAG_PATH: LinkNeeds =
        LinkNeeds { tag_path: true, anchor_text: false, surrounding_text: false };
}

impl Default for LinkNeeds {
    fn default() -> Self {
        LinkNeeds::ALL
    }
}

/// Extracts all hyperlinks of `html` in document order. The returned links
/// borrow `html`.
pub fn extract_links(html: &str) -> Vec<Link<'_>> {
    extract_links_from_with(&parse(html), LinkNeeds::ALL)
}

/// As [`extract_links`], computing only the features `needs` asks for.
pub fn extract_links_with(html: &str, needs: LinkNeeds) -> Vec<Link<'_>> {
    extract_links_from_with(&parse(html), needs)
}

/// As [`extract_links_with`], over an already-parsed document: every
/// [`LinkSite`] of `doc` turned into its [`Link`]. The links borrow the
/// buffer the document was parsed from, not the document itself, so they
/// outlive it.
pub fn extract_links_from_with<'a>(doc: &Document<'a>, needs: LinkNeeds) -> Vec<Link<'a>> {
    let mut scratch = String::new();
    link_sites(doc).map(|site| site.into_link(doc, needs, &mut scratch)).collect()
}

/// Where a crawlable link sits in a parsed document and what it points to:
/// all a crawler needs to decide whether the link is new to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSite<'a> {
    /// The linking element.
    pub node: NodeId,
    pub kind: LinkKind,
    /// The raw (not yet resolved) href/src value, trimmed.
    pub href: Cow<'a, str>,
}

/// The crawlable link sites of `doc` in document order: `<a href>`,
/// `<area href>` and `<iframe src>` whose target is non-empty, not a bare
/// fragment and not a non-http scheme.
pub fn link_sites<'d, 'a>(doc: &'d Document<'a>) -> impl Iterator<Item = LinkSite<'a>> + 'd {
    (0..doc.len()).filter_map(move |node| {
        let (kind, url_attr) = match doc.node(node).name()? {
            "a" => (LinkKind::Anchor, "href"),
            "area" => (LinkKind::Area, "href"),
            "iframe" => (LinkKind::Iframe, "src"),
            _ => return None,
        };
        let href = trimmed(doc.attr_value(node, url_attr)?);
        let crawlable = !href.is_empty() && !href.starts_with('#') && !is_non_http_scheme(&href);
        crawlable.then_some(LinkSite { node, kind, href })
    })
}

impl<'a> LinkSite<'a> {
    /// The [`Link`] at this site of `doc`, with the features `needs` asks
    /// for computed and the rest left empty. `scratch` is a buffer for raw
    /// text collections that cannot borrow; passing the same one for every
    /// site of a page keeps per-link temporaries off the allocator.
    pub fn into_link(self, doc: &Document<'a>, needs: LinkNeeds, scratch: &mut String) -> Link<'a> {
        let LinkSite { node, kind, href } = self;
        let anchor_text = if needs.anchor_text || needs.surrounding_text {
            element_text_capped(doc, node, scratch, usize::MAX)
        } else {
            Cow::Borrowed("")
        };
        let surrounding_text = if needs.surrounding_text {
            surrounding_text(doc, node, &anchor_text, scratch)
        } else {
            Cow::Borrowed("")
        };
        Link {
            href,
            kind,
            tag_path: if needs.tag_path { TagPath::of(doc, node) } else { TagPath::default() },
            anchor_text: if needs.anchor_text { anchor_text } else { Cow::Borrowed("") },
            surrounding_text,
        }
    }
}

/// `str::trim` lifted over the input borrow: a borrowed value trims to a
/// narrower borrow; only an (entity-decoded) owned value re-allocates, and
/// only when the trim actually removes something.
fn trimmed<'a>(v: &Cow<'a, str>) -> Cow<'a, str> {
    match v {
        Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
        Cow::Owned(s) => {
            let t = s.trim();
            if t.len() == s.len() {
                Cow::Owned(s.clone())
            } else {
                Cow::Owned(t.to_owned())
            }
        }
    }
}

/// `javascript:`, `mailto:`, `tel:`, `data:` … are never crawlable edges.
fn is_non_http_scheme(href: &str) -> bool {
    let Some(colon) = href.find(':') else { return false };
    let scheme = &href[..colon];
    if !scheme.chars().all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-' || c == '.') {
        return false;
    }
    !scheme.eq_ignore_ascii_case("http") && !scheme.eq_ignore_ascii_case("https")
}

/// Walks the subtree under `id` looking for text nodes. Returns `false` as
/// soon as a second one is found; otherwise leaves the only one in `single`.
fn collect_single_text<'d, 'a>(
    doc: &'d Document<'a>,
    id: NodeId,
    single: &mut Option<&'d Cow<'a, str>>,
) -> bool {
    for c in doc.descendants(id) {
        if let Node::Text { content, .. } = doc.node(c) {
            if single.is_some() {
                return false;
            }
            *single = Some(content);
        }
    }
    true
}

/// True when `normalize_ws(s) == s`: no leading/trailing whitespace, every
/// internal whitespace run is a single ASCII space, and no non-ASCII
/// whitespace at all (which `split_whitespace` would also collapse).
fn is_ws_normalized(s: &str) -> bool {
    let mut prev_space = true; // rejects a leading space
    for c in s.chars() {
        if c == ' ' {
            if prev_space {
                return false;
            }
            prev_space = true;
        } else if c.is_whitespace() {
            return false;
        } else {
            prev_space = false;
        }
    }
    // A trailing space leaves prev_space set; the empty string is normal.
    s.is_empty() || !prev_space
}

/// Final surrounding-text window, in chars (post-normalisation).
const SURROUNDING_WINDOW: usize = 160;

/// Text of the nearest block-level ancestor, with the anchor's own text
/// removed, truncated to the [`SURROUNDING_WINDOW`]. `scratch` is a
/// reusable buffer for the capped normalised block text.
///
/// The block's text is **capped before whitespace normalisation** (the
/// ROADMAP's URL_CONT hot-path item): only a bounded prefix of the
/// normalised block can influence the final window, so the subtree walk
/// stops after `cap` normalised chars instead of materialising and
/// normalising an arbitrarily large block per link. The cap is
/// value-preserving — writing `N` for the fully normalised block text,
/// `A` for the anchor text and `a` for its char count, the window is
/// `truncate(normalize(N with the first occurrence of A removed))`:
///
/// * an occurrence starting past char `WINDOW + 1` cannot change the first
///   `WINDOW` chars of the result (removal only perturbs chars from the
///   occurrence onward), so both capped and uncapped return
///   `truncate(N)` there;
/// * an occurrence starting at or before char `WINDOW + 1` lies entirely
///   within the first `WINDOW + 1 + a` chars, and the result then needs at
///   most `WINDOW + 1` further chars after the removal —
///   both inside `cap = 2·(WINDOW + 1) + a`.
fn surrounding_text<'a>(
    doc: &Document<'a>,
    id: NodeId,
    anchor_text: &str,
    scratch: &mut String,
) -> Cow<'a, str> {
    const BLOCKS: [&str; 12] =
        ["p", "li", "td", "div", "section", "article", "main", "aside", "figure", "dd", "th", "body"];
    let cap = 2 * (SURROUNDING_WINDOW + 1) + anchor_text.chars().count();
    let mut cur = doc.node(id).parent();
    while let Some(pid) = cur {
        let node = doc.node(pid);
        if let Node::Element { name, .. } = node {
            if BLOCKS.contains(&name.as_ref()) {
                let full = element_text_capped(doc, pid, scratch, cap);
                let cut = match full.find(anchor_text) {
                    Some(pos) if !anchor_text.is_empty() => {
                        let mut s = String::with_capacity(full.len() - anchor_text.len());
                        s.push_str(&full[..pos]);
                        s.push_str(&full[pos + anchor_text.len()..]);
                        Cow::Owned(normalize_ws(&s))
                    }
                    _ => full,
                };
                return truncate_chars(cut, SURROUNDING_WINDOW);
            }
        }
        cur = node.parent();
    }
    Cow::Borrowed("")
}

/// The first `cap_chars` chars of the whitespace-normalised text content
/// of `id` (anchor text passes `usize::MAX`): the subtree walk and the
/// normalisation both stop at the cap, so a huge block costs O(cap), not
/// O(block). The input is borrowed, at any length, when the element holds
/// exactly one already-normalised borrowed text node (the overwhelmingly
/// common case for anchors on generated markup).
fn element_text_capped<'a>(
    doc: &Document<'a>,
    id: NodeId,
    scratch: &mut String,
    cap_chars: usize,
) -> Cow<'a, str> {
    let mut single: Option<&Cow<'a, str>> = None;
    if collect_single_text(doc, id, &mut single) {
        return match single {
            None => Cow::Borrowed(""),
            Some(Cow::Borrowed(s)) if is_ws_normalized(s) => Cow::Borrowed(s),
            Some(c) => {
                scratch.clear();
                let mut norm = CappedNormalizer { out: scratch, left: cap_chars, pending: false };
                norm.feed(c);
                Cow::Owned(scratch.clone())
            }
        };
    }
    scratch.clear();
    let mut norm = CappedNormalizer { out: scratch, left: cap_chars, pending: false };
    feed_subtree(doc, id, &mut norm);
    Cow::Owned(scratch.clone())
}

/// Streams text through whitespace normalisation with a char budget.
/// Feeding the concatenated text-node contents of a subtree produces
/// exactly the first `left` chars of `normalize_ws` of that concatenation
/// (words split across node boundaries stay joined, as plain
/// concatenation would leave them).
struct CappedNormalizer<'s> {
    out: &'s mut String,
    left: usize,
    /// Whitespace seen since the last word char (a separating space is
    /// emitted lazily, so trailing whitespace never lands in `out`).
    pending: bool,
}

impl CappedNormalizer<'_> {
    #[inline]
    fn push(&mut self, c: char) -> bool {
        if self.left == 0 {
            return false;
        }
        self.out.push(c);
        self.left -= 1;
        true
    }

    /// Feeds one text run; false once the budget is exhausted.
    fn feed(&mut self, s: &str) -> bool {
        for c in s.chars() {
            if c.is_whitespace() {
                // Leading whitespace is dropped, not turned into a space.
                self.pending |= !self.out.is_empty();
            } else {
                if self.pending {
                    if !self.push(' ') {
                        return false;
                    }
                    self.pending = false;
                }
                if !self.push(c) {
                    return false;
                }
            }
        }
        true
    }
}

/// Walks `id`'s subtree in document order feeding every text node into
/// `norm`; aborts (without visiting further nodes) once the budget is
/// spent — the point of the cap.
fn feed_subtree(doc: &Document<'_>, id: NodeId, norm: &mut CappedNormalizer<'_>) {
    for c in doc.descendants(id) {
        if let Node::Text { content, .. } = doc.node(c) {
            if !norm.feed(content) {
                return;
            }
        }
    }
}

fn normalize_ws(s: &str) -> String {
    // Single pass, no intermediate Vec — this re-normalises a surrounding
    // block after the anchor text is cut out of it. Defined on the capped
    // normalizer so it can never disagree with the text walk on whitespace
    // semantics: `surrounding_text`'s `find(anchor_text)` cut depends on
    // the anchor and block texts being normalised byte-identically.
    let mut out = String::with_capacity(s.len());
    let mut norm = CappedNormalizer { out: &mut out, left: usize::MAX, pending: false };
    norm.feed(s);
    out
}

fn truncate_chars(s: Cow<'_, str>, max: usize) -> Cow<'_, str> {
    if s.chars().count() <= max {
        return s;
    }
    Cow::Owned(s.chars().take(max).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r##"<html><body>
        <div id="main">
          <p>Poverty statistics for <a href="/data/pov.csv">2024 CSV</a> are here.</p>
          <ul class="datasets">
            <li><a class="dataset" href="/data/a.xlsx">A</a></li>
            <li><a class="dataset" href="/data/b.xlsx">B</a></li>
          </ul>
          <map><area href="/map/region1"></map>
          <iframe src="/embed/chart"></iframe>
          <a href="#top">skip</a>
          <a href="mailto:x@y.z">mail</a>
          <a href="javascript:void(0)">js</a>
          <a href="">empty</a>
        </div>
      </body></html>"##;

    #[test]
    fn extracts_all_crawlable_links() {
        let links = extract_links(PAGE);
        let hrefs: Vec<_> = links.iter().map(|l| l.href.as_ref()).collect();
        assert_eq!(
            hrefs,
            vec!["/data/pov.csv", "/data/a.xlsx", "/data/b.xlsx", "/map/region1", "/embed/chart"]
        );
    }

    #[test]
    fn skips_fragments_and_non_http() {
        let links = extract_links(PAGE);
        assert!(links.iter().all(|l| !l.href.starts_with('#')));
        assert!(links.iter().all(|l| !l.href.starts_with("mailto:")));
        assert!(links.iter().all(|l| !l.href.starts_with("javascript:")));
    }

    #[test]
    fn tag_paths_include_classes() {
        let links = extract_links(PAGE);
        let a = &links[1];
        assert_eq!(a.tag_path.to_string(), "html body div#main ul.datasets li a.dataset");
    }

    #[test]
    fn kinds() {
        let links = extract_links(PAGE);
        assert_eq!(links[0].kind, LinkKind::Anchor);
        assert_eq!(links[3].kind, LinkKind::Area);
        assert_eq!(links[4].kind, LinkKind::Iframe);
    }

    #[test]
    fn anchor_and_surrounding_text() {
        let links = extract_links(PAGE);
        assert_eq!(links[0].anchor_text, "2024 CSV");
        assert_eq!(links[0].surrounding_text, "Poverty statistics for are here.");
    }

    #[test]
    fn simple_links_borrow_input() {
        let links = extract_links(PAGE);
        // Clean hrefs and single-text-node anchors borrow the page buffer.
        assert!(matches!(links[0].href, Cow::Borrowed(_)));
        assert!(matches!(links[0].anchor_text, Cow::Borrowed(_)));
        assert!(matches!(links[1].anchor_text, Cow::Borrowed(_)));
    }

    #[test]
    fn entity_href_is_decoded_and_owned() {
        let links = extract_links(r#"<a href="/q?a=1&amp;b=2">x</a>"#);
        assert_eq!(links[0].href, "/q?a=1&b=2");
        assert!(matches!(links[0].href, Cow::Owned(_)));
    }

    #[test]
    fn relative_protocol_and_absolute_kept() {
        let links =
            extract_links(r#"<a href="https://www.a.com/x">1</a><a href="//cdn.a.com/y">2</a>"#);
        assert_eq!(links.len(), 2);
    }

    #[test]
    fn query_only_href_kept() {
        let links = extract_links(r#"<a href="?page=2">next</a>"#);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].href, "?page=2");
    }

    #[test]
    fn multi_node_anchor_text_concatenated() {
        let links = extract_links(r#"<p><a href="/x">one <b>two</b> three</a></p>"#);
        assert_eq!(links[0].anchor_text, "one two three");
    }

    #[test]
    fn whitespacey_anchor_normalized() {
        let links = extract_links("<p><a href=\"/x\">  padded \n text </a></p>");
        assert_eq!(links[0].anchor_text, "padded text");
    }
}
