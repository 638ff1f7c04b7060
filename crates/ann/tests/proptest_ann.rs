//! Property tests for the vectorisation pipeline.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_ann::{cosine, NgramVocab, Projector};

fn arb_tokens() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z]{1,6}(#[a-z]{1,4})?(\\.[a-z]{1,4})?", 1..12)
}

proptest! {
    /// Vectorising the same tokens twice (after freezing) gives the same
    /// sparse vector, and counts sum to the number of n-grams.
    #[test]
    fn vectorize_is_stable_and_counts_add_up(tokens in arb_tokens()) {
        let mut vocab = NgramVocab::new(2);
        let grown = vocab.vectorize_mut(&tokens);
        let frozen = vocab.vectorize(&tokens);
        prop_assert_eq!(&grown.items, &frozen.items);
        let total: f32 = grown.items.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total as usize, tokens.len() + 1); // n-1 grams of n+2 padded tokens
    }

    /// The projection preserves total mass scaled by bucket means: every
    /// output value is a mean of input values, so the max output never
    /// exceeds the max input.
    #[test]
    fn projection_outputs_are_bucket_means(tokens in arb_tokens()) {
        let mut vocab = NgramVocab::new(2);
        let bow = vocab.vectorize_mut(&tokens);
        let proj = Projector::new(6, 11, sb_ann::DEFAULT_PRIME);
        let out = proj.project(&bow);
        let max_in = bow.items.iter().map(|&(_, c)| c).fold(0.0f32, f32::max);
        for &v in &out {
            prop_assert!(v <= max_in + 1e-6);
            prop_assert!(v >= 0.0);
        }
    }

    /// Projection is invariant to how the sparse vector was built (it only
    /// depends on dim + items).
    #[test]
    fn projection_deterministic(d in 1usize..200, seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut items: Vec<(usize, f32)> = Vec::new();
        for i in 0..d {
            if rng.gen_bool(0.3) {
                items.push((i, rng.gen_range(0.5..4.0)));
            }
        }
        let bow = sb_ann::SparseBow { dim: d, items };
        let proj = Projector::paper_default();
        prop_assert_eq!(proj.project(&bow), proj.project(&bow));
    }

    /// Cosine similarity is symmetric and bounded.
    #[test]
    fn cosine_properties(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..8).map(|_| rng.gen_range(-2.0..2.0f32)).collect();
        let b: Vec<f32> = (0..8).map(|_| rng.gen_range(-2.0..2.0f32)).collect();
        let s1 = cosine(&a, &b);
        let s2 = cosine(&b, &a);
        prop_assert!((s1 - s2).abs() < 1e-6);
        prop_assert!((-1.0001..=1.0001).contains(&s1));
    }
}
