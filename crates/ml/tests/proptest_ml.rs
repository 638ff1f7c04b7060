//! Property tests for the feature pipeline and the online models.

mod oracle;

use proptest::prelude::*;
use sb_ml::features::{featurize, FeatureInput, FeatureSet};
use sb_ml::metrics::{Class3, Confusion};
use sb_ml::models::ModelKind;
use sb_ml::{Class2, UrlClassifier};

/// The pre-PR-22 kernel, kept as the reference: bigram counts through a
/// `HashMap`, collected, sorted by index, L2-normalised.
fn featurize_by_map(set: FeatureSet, input: &FeatureInput<'_>) -> Vec<(u32, f32)> {
    const CHAR_VOCAB: u32 = 96;
    fn char_id(b: u8) -> u32 {
        if (0x20..0x7F).contains(&b) {
            u32::from(b) - 0x20
        } else {
            CHAR_VOCAB - 1
        }
    }
    let mut counts = std::collections::HashMap::new();
    let blocks = [input.url, input.anchor, input.dom_path, input.surrounding];
    for (block, s) in blocks.iter().enumerate().take(set.n_blocks()) {
        let base = block as u32 * CHAR_VOCAB * CHAR_VOCAB;
        for w in s.as_bytes().windows(2) {
            let id = base + char_id(w[0]) * CHAR_VOCAB + char_id(w[1]);
            *counts.entry(id).or_insert(0.0f32) += 1.0;
        }
    }
    let mut items: Vec<(u32, f32)> = counts.into_iter().collect();
    items.sort_unstable_by_key(|&(i, _)| i);
    let norm = items.iter().map(|&(_, v)| f64::from(v) * f64::from(v)).sum::<f64>().sqrt();
    if norm > 0.0 {
        for (_, v) in &mut items {
            *v /= norm as f32;
        }
    }
    items
}

/// Short strings over a small alphabet (repeated bigrams are the point),
/// with the empty string, single bytes and non-ASCII in range.
fn arb_text() -> impl Strategy<Value = String> {
    "|[a-c/.]|[a-c/.?=01]{0,60}|(ab|日本|é|/|[0-9]){0,24}|.{0,80}"
}

/// URLs from a few target-like and HTML-like families over a small
/// alphabet, so bigrams recur across links and every update rule sees
/// both margins, plus arbitrary text.
fn arb_url() -> impl Strategy<Value = String> {
    "https://a\\.com/(files|pages|dl)/[a-c0-9/.?=-]{0,30}(\\.csv|\\.html|/|)|.{0,40}"
}

proptest! {
    /// `Model` replays the frozen model structs and the classifier that
    /// drove them: after every label, on every kind, both feature sets and
    /// batch sizes 1–40, each link of the sequence scores the same bits,
    /// and trainings, the initial phase and the observation count agree.
    #[test]
    fn classifier_replays_the_frozen_model_structs(
        kind_idx in 0usize..4,
        url_content in any::<bool>(),
        batch_size in 1usize..=40,
        links in proptest::collection::vec(
            (arb_url(), arb_text(), arb_text(), arb_text(), any::<bool>()),
            0..160,
        ),
    ) {
        let kind = ModelKind::ALL[kind_idx];
        let set = if url_content { FeatureSet::UrlContent } else { FeatureSet::UrlOnly };
        let mut clf = UrlClassifier::new(kind, set, batch_size);
        let mut frozen = oracle::UrlClassifier::new(kind, set, batch_size);
        let inputs: Vec<FeatureInput<'_>> = links
            .iter()
            .map(|(url, anchor, dom_path, surrounding, _)| FeatureInput {
                url,
                anchor,
                dom_path,
                surrounding,
            })
            .collect();
        let features: Vec<_> = inputs.iter().map(|input| clf.featurize(input)).collect();
        for (step, (input, link)) in inputs.iter().zip(&links).enumerate() {
            let class = if link.4 { Class2::Target } else { Class2::Html };
            clf.observe(input, class);
            frozen.observe(input, class);
            prop_assert_eq!(clf.trainings(), frozen.trainings(), "step {}", step);
            prop_assert_eq!(clf.in_initial_phase(), frozen.in_initial_phase(), "step {}", step);
            prop_assert_eq!(clf.observed(), frozen.observed(), "step {}", step);
            for (i, x) in features.iter().enumerate() {
                prop_assert_eq!(
                    clf.score_features(x).to_bits(),
                    frozen.score_features(x).to_bits(),
                    "step {}, link {}", step, i
                );
            }
        }
        prop_assert_eq!(clf.observed(), links.len() as u64);
    }

    /// The sort-and-count kernel is the map-counting one, item for item and
    /// bit for bit, on both feature sets and all four `UrlContent` blocks.
    #[test]
    fn featurize_matches_the_map_counting_reference(
        (url, anchor, dom_path, surrounding) in (arb_text(), arb_text(), arb_text(), arb_text()),
    ) {
        let input = FeatureInput {
            url: &url,
            anchor: &anchor,
            dom_path: &dom_path,
            surrounding: &surrounding,
        };
        for set in [FeatureSet::UrlOnly, FeatureSet::UrlContent] {
            let got: Vec<(u32, u32)> =
                featurize(set, &input).items.iter().map(|&(i, v)| (i, v.to_bits())).collect();
            let want: Vec<(u32, u32)> =
                featurize_by_map(set, &input).iter().map(|&(i, v)| (i, v.to_bits())).collect();
            prop_assert_eq!(got, want, "{:?}", set);
        }
    }

    /// Featurisation is total, deterministic and L2-normalised for any URL.
    #[test]
    fn featurize_total_and_normalised(url in ".{0,120}") {
        let a = featurize(FeatureSet::UrlOnly, &FeatureInput::url_only(&url));
        let b = featurize(FeatureSet::UrlOnly, &FeatureInput::url_only(&url));
        prop_assert_eq!(&a, &b);
        if a.nnz() > 0 {
            prop_assert!((a.norm_sq() - 1.0).abs() < 1e-4);
        }
        // Indices strictly increasing and in range.
        prop_assert!(a.items.windows(2).all(|w| w[0].0 < w[1].0));
        for &(i, _) in &a.items {
            prop_assert!((i as usize) < FeatureSet::UrlOnly.dim());
        }
    }

    /// Every model kind, trained on linearly separated URL families, gets
    /// the held-out family members right — regardless of batch slicing.
    #[test]
    fn models_learn_under_any_batching(
        batch_size in 2usize..40,
        kind_idx in 0usize..4,
    ) {
        let kind = ModelKind::ALL[kind_idx];
        let mut clf = UrlClassifier::new(kind, FeatureSet::UrlOnly, batch_size);
        for i in 0..120 {
            let (url, class) = if i % 2 == 0 {
                (format!("https://a.com/files/data-{i}.csv"), Class2::Target)
            } else {
                (format!("https://a.com/pages/article-{i}.html"), Class2::Html)
            };
            clf.observe(&FeatureInput::url_only(&url), class);
        }
        let mut right = 0;
        for i in 500..520 {
            if clf.predict(&FeatureInput::url_only(&format!("https://a.com/files/data-{i}.csv")))
                == Class2::Target
            {
                right += 1;
            }
            if clf.predict(&FeatureInput::url_only(&format!("https://a.com/pages/article-{i}.html")))
                == Class2::Html
            {
                right += 1;
            }
        }
        prop_assert!(right >= 34, "{:?} with b={batch_size}: {right}/40", kind);
    }

    /// Confusion-matrix percentages always sum to 100 and MR is within
    /// [0, 100], for any record pattern.
    #[test]
    fn confusion_invariants(records in proptest::collection::vec((0usize..3, 0usize..2), 1..200)) {
        let mut c = Confusion::new();
        for (t, p) in records {
            c.record(Class3::ALL[t], Class3::ALL[p]);
        }
        let total: f64 = c.percentages().iter().flatten().sum();
        prop_assert!((total - 100.0).abs() < 1e-6);
        let mr = c.misclassification_rate();
        prop_assert!((0.0..=100.0).contains(&mr));
        // Predicted-Neither column is structurally zero for 2-class preds.
        for t in Class3::ALL {
            prop_assert_eq!(c.count(t, Class3::Neither), 0.0);
        }
    }
}
