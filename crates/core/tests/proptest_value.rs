//! Memoised ranking ≡ re-score-everything.
//!
//! `ValueStrategy` pays the per-URL work of its terms once per candidate
//! and per pass only for what a term's state change invalidated,
//! and claims every selection is the one the re-score-everything loop would
//! have made. This file holds it to that, against the frozen pre-PR-22
//! strategy in `oracle/`: over arbitrary interleavings of the five calls a
//! session makes — `decide`, `select_batch`, `on_fetched` and the three
//! feedbacks — both sides must return the same selections (ids *and*
//! tokens, in order) and report the same frontier length after every call.
//!
//! The URL families below share most of their token bigrams (calendar
//! traps, `?page=N` mills, sibling directories), so near-dup verdicts sit
//! near their threshold, hit-table growth keeps landing under buckets of
//! candidates already admitted, and the classifier has something to learn.
//! Every case runs long enough to overwrite each slot of the 32-slot
//! near-dup ring twice and to train the classifier at least three times.
//! Debug builds of `select_batch` also check after every pass that each
//! memo column holds one memo per frontier candidate.

mod oracle;

use oracle::OracleValueStrategy;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_crawler::strategy::{SelUrl, Selection, Strategy};
use sb_crawler::ValueStrategy;
use sb_webgraph::{UrlClass, UrlId};
use std::collections::HashSet;

/// One URL out of three families that share bigrams with their siblings.
fn family_url(a: u32, b: u32) -> String {
    const DIRS: [&str; 4] = ["data", "docs", "files", "about"];
    const EXTS: [&str; 3] = ["csv", "html", "pdf"];
    match a % 3 {
        0 => format!("https://s.example/calendar/2021/{:02}/{:02}", 1 + b % 12, 1 + (b / 12) % 28),
        1 => format!("https://s.example/{}/list?page={}", DIRS[(b % 2) as usize], b % 150),
        _ => format!(
            "https://s.example/{}/sub{}/item-{}.{}",
            DIRS[(b % 4) as usize],
            (b / 4) % 3,
            (b / 12) % 40,
            EXTS[(b / 7 % 3) as usize]
        ),
    }
}

/// The class a fetch of `url` reports: data files are targets, a sliver of
/// everything is dead (no class-2 label, so the classifier skips it).
fn class_of(url: &str, b: u32) -> UrlClass {
    if b.is_multiple_of(11) {
        UrlClass::Neither
    } else if url.ends_with(".csv") || url.ends_with(".pdf") {
        UrlClass::Target
    } else {
        UrlClass::Html
    }
}

/// `(kind, a, b)` triples; `run` gives them their meaning.
fn arb_ops() -> impl PropStrategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..12, 0u32..100_000, 0u32..100_000), 320..480)
}

fn run(ops: &[(u8, u32, u32)]) -> Result<(), TestCaseError> {
    let mut memoised = ValueStrategy::default_mix();
    let mut oracle = OracleValueStrategy::default_mix();
    let mut rng = StdRng::seed_from_u64(0);

    // Every URL enqueued so far, by id (ids are dense in enqueue order, as
    // the session's are), the ids selected so far, and the tokens still
    // owed their feedback.
    let mut enqueued: HashSet<String> = HashSet::new();
    let mut urls: Vec<String> = Vec::new();
    let mut selected: Vec<UrlId> = Vec::new();
    let mut owed: Vec<u64> = Vec::new();
    let (mut fetches, mut labelled) = (0u32, 0u32);

    for (step, &(kind, a, b)) in ops.iter().enumerate() {
        match kind {
            // A page's worth of new links.
            0..=3 => {
                for i in 0..1 + b % 10 {
                    let url = family_url(a.wrapping_add(i), b.wrapping_add(i * 37));
                    if enqueued.insert(url.clone()) {
                        let id = urls.len() as UrlId;
                        memoised.enqueue(id, &url, 1 + a % 5);
                        oracle.enqueue(id, &url, 1 + a % 5);
                        urls.push(url);
                    }
                }
            }
            // One ranking pass, k in 0..=16.
            4..=5 => {
                let k = (a % 17) as usize;
                let got: Vec<Selection> = memoised.select_batch(k, &mut rng);
                let want: Vec<Selection> = oracle.select_batch(k, &mut rng);
                prop_assert_eq!(&got, &want, "step {} select_batch({})", step, k);
                for sel in got {
                    owed.push(sel.token);
                    match sel.url {
                        SelUrl::Id(id) => selected.push(id),
                        SelUrl::Text(url) => panic!("VALUE selects by id, got {url:?}"),
                    }
                }
            }
            // A fetch completes: a selected URL, or one nobody enqueued (a
            // seed, a redirect target).
            6..=9 => {
                let url = if b % 3 > 0 && !selected.is_empty() {
                    urls[selected[a as usize % selected.len()] as usize].clone()
                } else {
                    family_url(a, b)
                };
                let class = class_of(&url, b);
                memoised.on_fetched(0, &url, class);
                oracle.on_fetched(0, &url, class);
                fetches += 1;
                labelled += u32::from(class != UrlClass::Neither);
            }
            // One terminal feedback for a selection still owed one.
            _ => {
                if !owed.is_empty() {
                    let token = owed.swap_remove(a as usize % owed.len());
                    match b % 3 {
                        0 => {
                            // Includes rewards above 1: the clamp is part of
                            // the contract.
                            let reward = f64::from(b % 7) / 4.0;
                            memoised.feedback(token, reward);
                            oracle.feedback(token, reward);
                        }
                        1 => {
                            memoised.feedback_target(token);
                            oracle.feedback_target(token);
                        }
                        _ => {
                            memoised.feedback_error(token);
                            oracle.feedback_error(token);
                        }
                    }
                }
            }
        }
        prop_assert_eq!(
            memoised.frontier_len(),
            oracle.frontier_len(),
            "frontier length after step {}",
            step
        );
    }
    // The generator's promise, checked: two laps of the ring, three
    // training batches (paper default b = 10).
    prop_assert!(fetches >= 64, "only {} fetches: the ring did not wrap twice", fetches);
    prop_assert!(labelled >= 30, "only {} labelled fetches: fewer than 3 trainings", labelled);
    prop_assert!(!selected.is_empty(), "no pass selected anything");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn memoised_ranking_replays_the_rescoring_oracle(ops in arb_ops()) {
        run(&ops)?;
    }
}
