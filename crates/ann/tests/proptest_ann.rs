//! Property tests for the vectorisation pipeline, and the paper's Figure 3
//! worked example (`D = 4`, `w = 11`, `Π = 766 245 317`) digit for digit,
//! through the dense reference projection and through the [`Sketcher`].

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_ann::{NgramVocab, Projector, Sketcher, SparseBow, BOS, DEFAULT_PRIME, EOS};
use sb_bench::dense::{cosine, project};
use std::collections::HashMap;

fn toks(s: &str) -> Vec<&str> {
    s.split_whitespace().collect()
}

/// Full Figure 3 reproduction: the k+1 tag path projects to
/// `[1, 1.5, 0.5, 0.67]`.
#[test]
fn projection_paper_example() {
    let mut vocab = NgramVocab::new(2);
    // Iteration k: vocabulary of 5 bigrams.
    vocab.vectorize_mut(&toks("html body div#container a.info"));
    assert_eq!(vocab.len(), 5);
    // Iteration k+1: the new tag path grows the vocabulary to 11.
    let p = vocab.vectorize_mut(&toks(
        "html body div#container div div div ul li.datasets a.dataset",
    ));
    assert_eq!(p.dim, 11);
    let proj = Projector::new(2, 11, DEFAULT_PRIME);
    let out = project(&proj, &p);
    assert!((out[0] - 1.0).abs() < 1e-6, "{out:?}");
    assert!((out[1] - 1.5).abs() < 1e-6, "{out:?}");
    assert!((out[2] - 0.5).abs() < 1e-6, "{out:?}");
    assert!((out[3] - 2.0 / 3.0).abs() < 1e-6, "{out:?}");
}

/// The same Figure 3 walk through the [`Sketcher`]: identical output,
/// with the vocabulary grown from 5 to 11 positions between the calls.
#[test]
fn sketcher_reproduces_paper_example() {
    let proj = Projector::new(2, 11, DEFAULT_PRIME);
    let mut sketcher = Sketcher::new(2, proj);
    let mut vocab = NgramVocab::new(2);
    for path in [
        "html body div#container a.info",
        "html body div#container div div div ul li.datasets a.dataset",
    ] {
        let sparse = sketcher.sketch_mut(&toks(path));
        assert_eq!(sparse.to_dense(4), project(&proj, &vocab.vectorize_mut(&toks(path))));
    }
    assert_eq!(sketcher.vocab_len(), 11);
    // Frozen sketches drop unseen n-grams and leave the table alone.
    let frozen = sketcher.sketch(&toks("html body nav a.info"));
    assert_eq!(frozen.to_dense(4), project(&proj, &vocab.vectorize(&toks("html body nav a.info"))));
    assert_eq!(sketcher.vocab_len(), 11);
}

#[test]
fn unhit_positions_are_zero() {
    // Tiny vocab: with d = 1 only bucket h(0) is hit.
    let p = Projector::new(2, 11, DEFAULT_PRIME);
    let bow = SparseBow { dim: 1, items: vec![(0, 3.0)] };
    let out = project(&p, &bow);
    let nonzero = out.iter().filter(|&&x| x != 0.0).count();
    assert_eq!(nonzero, 1);
    assert_eq!(out[p.hash(0)], 3.0);
}

#[test]
fn projection_is_deterministic() {
    let p = Projector::paper_default();
    let bow = SparseBow { dim: 100, items: (0..100).step_by(3).map(|i| (i, 1.0)).collect() };
    assert_eq!(project(&p, &bow), project(&p, &bow));
}

/// Similar tag paths must project to similar vectors (the clustering
/// hypothesis would die here otherwise).
#[test]
fn similar_paths_project_close() {
    let mut vocab = NgramVocab::new(2);
    vocab.vectorize_mut(&toks("html body div#main ul.datasets li a.download"));
    vocab.vectorize_mut(&toks("html body div#main ul.datasets li a.dataset"));
    let c = vocab.vectorize_mut(&toks("html body header nav ul.menu li a"));
    let proj = Projector::paper_default();
    // Re-vectorise a and b under the final vocabulary for a fair compare.
    let a = vocab.vectorize(&toks("html body div#main ul.datasets li a.download"));
    let b = vocab.vectorize(&toks("html body div#main ul.datasets li a.dataset"));
    let (pa, pb, pc) = (project(&proj, &a), project(&proj, &b), project(&proj, &c));
    assert!(cosine(&pa, &pb) > cosine(&pa, &pc));
}

fn arb_tokens() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z]{1,6}(#[a-z]{1,4})?(\\.[a-z]{1,4})?", 1..12)
}

/// The n-gram vocabulary as first written: pad with the sentinels, `join`
/// every window into a fresh `String`, count through a map.
struct JoinModel {
    n: usize,
    index: HashMap<String, usize>,
}

impl JoinModel {
    fn grams(&self, tokens: &[String]) -> Vec<String> {
        if self.n == 1 {
            return tokens.to_vec();
        }
        let mut padded = vec![BOS];
        padded.extend(tokens.iter().map(String::as_str));
        padded.push(EOS);
        padded.windows(self.n).map(|w| w.join(" ")).collect()
    }

    fn bow(&self, ids: impl Iterator<Item = usize>) -> SparseBow {
        let mut counts: HashMap<usize, f32> = HashMap::new();
        for id in ids {
            *counts.entry(id).or_default() += 1.0;
        }
        let mut items: Vec<(usize, f32)> = counts.into_iter().collect();
        items.sort_by_key(|&(id, _)| id);
        SparseBow { dim: self.index.len(), items }
    }

    fn vectorize_mut(&mut self, tokens: &[String]) -> SparseBow {
        let mut ids = Vec::new();
        for gram in self.grams(tokens) {
            let next = self.index.len();
            ids.push(*self.index.entry(gram).or_insert(next));
        }
        self.bow(ids.into_iter())
    }

    fn vectorize(&self, tokens: &[String]) -> SparseBow {
        self.bow(self.grams(tokens).iter().filter_map(|g| self.index.get(g).copied()))
    }
}

/// Token lists that repeat grams (`div div div`), carry spaces inside a
/// token, and run from empty (`len + 2 < n` yields no gram) to 11 long.
fn arb_gram_tokens() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("(div|div|[a-c]{1,2}|[a-c] [a-c])", 0..12)
}

proptest! {
    /// The buffer-written grams are the joined grams: over any history of
    /// growing and frozen calls, for n = 1, 2, 3, every `SparseBow` equals
    /// the join model's, `&[String]` and `&[&str]` inputs agree, and the
    /// two vocabularies have grown in the same order (a frozen lookup of
    /// every earlier input gives the model's indices at the end).
    #[test]
    fn buffer_grams_match_the_join_they_replace(
        n in 1usize..=3,
        ops in proptest::collection::vec((proptest::bool::ANY, arb_gram_tokens()), 1..16),
    ) {
        let mut vocab = NgramVocab::new(n);
        let mut borrowed = NgramVocab::new(n);
        let mut model = JoinModel { n, index: HashMap::new() };
        for (grow, tokens) in &ops {
            let strs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            let (got, got_borrowed, want) = if *grow {
                (vocab.vectorize_mut(tokens), borrowed.vectorize_mut(&strs), model.vectorize_mut(tokens))
            } else {
                (vocab.vectorize(tokens), borrowed.vectorize(&strs), model.vectorize(tokens))
            };
            prop_assert_eq!(&got, &want, "n = {}, tokens {:?}", n, tokens);
            prop_assert_eq!(&got_borrowed, &want);
            if tokens.len() + 2 < n {
                prop_assert_eq!(got.nnz(), 0);
            }
        }
        prop_assert_eq!(vocab.len(), model.index.len());
        for (_, tokens) in &ops {
            prop_assert_eq!(vocab.vectorize(tokens), model.vectorize(tokens));
        }
    }

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
        let proj = Projector::new(6, 11, DEFAULT_PRIME);
        let out = project(&proj, &bow);
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
        prop_assert_eq!(project(&proj, &bow), project(&proj, &bow));
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
