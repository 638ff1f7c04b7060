//! Minimal, dependency-free HTML processing for the `sbcrawl` focused crawler.
//!
//! The crawler of the paper observes three things in a fetched HTML page:
//!
//! 1. the **hyperlinks** it contains (`<a href>`, `<area href>`, `<iframe src>`),
//! 2. for each hyperlink, its **tag path** — the full path of HTML tags from the
//!    document root down to the hyperlink element, decorated with `#id` and
//!    `.class` attributes (e.g. `html body div#main ul.datasets li a`), and
//! 3. auxiliary text (anchor text, surrounding text) used by the richer
//!    `URL_CONT` classifier feature set.
//!
//! This crate provides a tolerant HTML tokenizer ([`tokenize`]), an arena-based
//! DOM ([`Document`]), tag-path extraction ([`TagPath`]), link extraction
//! ([`extract_links`]) and a streaming HTML emitter ([`HtmlWriter`]) used by the
//! synthetic site generator so that generated pages round-trip through the
//! same parser a real crawl would use.
//!
//! The whole pipeline is **zero-copy** (PR 3): tokens, DOM nodes and link
//! features are lifetime-parameterized `Cow`s that borrow the input buffer
//! and copy only on entity decoding, case folding or whitespace rewrite.
//! Start with [`body_str`] to decode a response body without copying it,
//! parse, and extract; owned conversion belongs at the single boundary
//! where data outlives the page (the crawl engine's `NewLink` → interner).

#![forbid(unsafe_code)]

mod dom;
mod escape;
mod links;
mod render;
mod tagpath;
mod token;

pub use dom::{parse, Children, Document, Node, NodeId};
pub use escape::escape_into;
pub use links::{
    extract_links, extract_links_from_with, extract_links_with, link_sites, Link, LinkKind,
    LinkNeeds, LinkSite,
};
pub use render::HtmlWriter;
pub use tagpath::TagPath;
pub use token::{tokenize, Attr, Token};

use std::borrow::Cow;

/// Decodes an HTTP body for parsing: borrows the bytes when they are valid
/// UTF-8 (the render cache guarantees this for generated sites), allocates
/// only when lossy replacement is actually required. This is the intended
/// entry point of the zero-copy parse path — `parse(&body_str(&response.body))`
/// touches the heap only for the arenas.
///
/// The result equals `String::from_utf8_lossy`, borrowed-ness included. It
/// checks with `str::from_utf8` first, whose ASCII fast path validates a
/// page several times faster than the lossy decoder walks it, and falls
/// back to the lossy decoder only when that check fails.
pub fn body_str(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_str_borrows_valid_utf8() {
        assert!(matches!(body_str(b"<html>ok</html>"), Cow::Borrowed(_)));
        assert!(matches!(body_str(b"\xff\xfe"), Cow::Owned(_)));
    }
}
