//! The frozen oracle of the origin: the build-a-tree-then-serialise page
//! renderer and the allocate-per-cell target generator as they stood before
//! PR 23, verbatim.
//!
//! Production streams the same bytes through `sb_html::HtmlWriter` into a
//! reused buffer and claims **every rendered byte is unchanged** — which
//! holds only while every RNG draw keeps its position. `proptest_render.rs`
//! holds `render_page_into`, `HtmlWriter` and `content::target_body` to this
//! directory. Keep it frozen: it is the only place the tree builder still
//! exists (`scripts/verify.sh` greps that it stays out of `crates/*/src`).

#![allow(dead_code)]

pub mod content;
pub mod html;
pub mod page;
