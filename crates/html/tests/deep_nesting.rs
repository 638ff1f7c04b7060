//! One hostile page must not take the process down: link features are
//! collected by loops over `Document::descendants`, not by recursion, so
//! nesting depth costs no stack. With one recursive call per level this
//! page overflowed a fleet shard thread's 2 MiB stack (and, at a million
//! levels, the 8 MiB main stack) — an abort, not a catchable panic.

use sb_html::{extract_links_with, LinkNeeds};

#[test]
fn deeply_nested_anchor_extracts_on_a_small_stack() {
    // Two text nodes in the anchor and a third beside it, so that all three
    // subtree walks run to the bottom: the single-text-node probe, the raw
    // concatenation and the capped normaliser.
    let mut page = String::from("<div>see <a href=\"/x\">a ");
    page.push_str(&"<span>".repeat(200_000));
    page.push_str("t</div>");

    let links = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            extract_links_with(&page, LinkNeeds::ALL)
                .into_iter()
                .map(|l| (l.href.into_owned(), l.anchor_text.into_owned(), l.surrounding_text.into_owned()))
                .collect::<Vec<_>>()
        })
        .expect("spawn")
        .join()
        .expect("extraction must not panic");

    // `t` sits 200 000 levels down.
    assert_eq!(links, vec![("/x".to_owned(), "a t".to_owned(), "see".to_owned())]);
}
