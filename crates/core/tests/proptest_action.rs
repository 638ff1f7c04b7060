//! `ActionSpace` against an independent dense model of Algorithm 1.
//!
//! The sparse sketch kernel claims bit-identity with the dense pipeline it
//! replaced, and `ActionSpace::nearest` claims to be exact. `sb-ann`'s
//! differential proptests pin each kernel on its own; this one pins the
//! composition: over arbitrary tag-path sequences the production
//! `ActionSpace` must hand out the same action ids, keep the same member
//! counts and give the same frozen `match_only` answers as [`DenseSpace`]
//! below — Algorithm 1 written out with the dense reference functions
//! (`Projector::project`, `sb_ann::cosine`, the coordinate-wise centroid
//! map) and a brute-force nearest centroid, sharing no code with the type
//! under test beyond the vocabulary and the projector.

use proptest::prelude::*;
use sb_ann::{cosine, NgramVocab, Projector};
use sb_crawler::{ActionSpace, ActionSpaceConfig};
use sb_html::TagPath;

struct DenseSpace {
    theta: f32,
    vocab: NgramVocab,
    projector: Projector,
    centroids: Vec<Vec<f32>>,
    members: Vec<u64>,
}

impl DenseSpace {
    fn new(cfg: &ActionSpaceConfig) -> Self {
        DenseSpace {
            theta: cfg.theta,
            vocab: NgramVocab::new(cfg.ngram),
            projector: Projector::new(cfg.m, cfg.w, cfg.prime),
            centroids: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Brute force: smallest `(1 − cos, id)`.
    fn nearest(&self, q: &[f32]) -> Option<(usize, f32)> {
        let mut best: Option<(f32, usize, f32)> = None;
        for (id, c) in self.centroids.iter().enumerate() {
            let sim = cosine(q, c);
            if best.is_none_or(|(d, ..)| 1.0 - sim < d) {
                best = Some((1.0 - sim, id, sim));
            }
        }
        best.map(|(_, id, sim)| (id, sim))
    }

    fn match_only(&self, path: &TagPath) -> Option<usize> {
        let tokens: Vec<String> = path.tokens().map(str::to_owned).collect();
        let projected = self.projector.project(&self.vocab.vectorize(&tokens));
        match self.nearest(&projected) {
            Some((a, sim)) if sim >= self.theta => Some(a),
            _ => None,
        }
    }

    fn assign(&mut self, path: &TagPath) -> usize {
        let tokens: Vec<String> = path.tokens().map(str::to_owned).collect();
        let projected = self.projector.project(&self.vocab.vectorize_mut(&tokens));
        if let Some((a, sim)) = self.nearest(&projected) {
            if sim >= self.theta {
                let m = self.members[a] as f32;
                for (c, &x) in self.centroids[a].iter_mut().zip(&projected) {
                    *c += (x - *c) / (m + 1.0);
                }
                self.members[a] += 1;
                return a;
            }
        }
        self.members.push(1);
        self.centroids.push(projected);
        self.members.len() - 1
    }
}

/// Tag paths over a small alphabet: sequences share most bigrams, so joins,
/// centroid moves and near-threshold decisions all happen.
fn arb_path() -> impl Strategy<Value = String> {
    "html body( (div|ul|li|nav|main|span)(\\.[abc]|#x)?){0,7} a(\\.(dl|nav))?"
}

/// A unique-id layout family: every path differs from the others in one
/// `li#i…` id and a short tail, so at θ = 0.95 dozens of near-equidistant
/// centroids form (the regime of the `ed` profile).
fn arb_unique_id_path() -> impl Strategy<Value = String> {
    "html body div#main ul\\.list li#i[0-9]{1,3} (span|p|em)(\\.[abc])? a"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_action_space_replays_the_dense_transcription(
        paths in proptest::collection::vec(arb_path(), 1..60),
        probes in proptest::collection::vec(arb_path(), 1..12),
        theta in 0u8..4,
        small_dim in proptest::bool::ANY,
    ) {
        let mut cfg = ActionSpaceConfig {
            theta: [0.5, 0.75, 0.9, 1.0][theta as usize],
            ..Default::default()
        };
        if small_dim {
            // D = 16: bucket collisions on nearly every sketch.
            (cfg.m, cfg.w) = (4, 11);
        }
        let mut dense = DenseSpace::new(&cfg);
        let mut sparse = ActionSpace::new(cfg);
        for p in &paths {
            let path = TagPath::parse(p);
            prop_assert_eq!(sparse.assign(&path).expect("no cap"), dense.assign(&path), "assign {}", p);
        }
        prop_assert_eq!(sparse.len(), dense.members.len());
        prop_assert_eq!(sparse.vocab_len(), dense.vocab.len());
        for (a, &m) in dense.members.iter().enumerate() {
            prop_assert_eq!(sparse.members(a), m);
        }
        for p in paths.iter().chain(&probes) {
            let path = TagPath::parse(p);
            prop_assert_eq!(sparse.match_only(&path), dense.match_only(&path), "match_only {}", p);
        }
    }
}

proptest! {
    // Few cases: each replays up to 400 paths through the D = 4096 dense
    // model, and a single one is enough to trip an inexact nearest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The brute-force-parity net: among many near-equidistant centroids
    /// that each move as they absorb paths, no path within θ of an existing
    /// centroid may found a duplicate action.
    #[test]
    fn nearest_centroid_is_exact_among_near_equidistant_actions(
        paths in proptest::collection::vec(arb_unique_id_path(), 100..400),
    ) {
        let cfg = ActionSpaceConfig { theta: 0.95, ..Default::default() };
        let mut dense = DenseSpace::new(&cfg);
        let mut sparse = ActionSpace::new(cfg);
        for p in &paths {
            let path = TagPath::parse(p);
            prop_assert_eq!(sparse.assign(&path).expect("no cap"), dense.assign(&path), "assign {}", p);
        }
        prop_assert!(sparse.len() >= 14, "only {} actions", sparse.len());
    }
}
