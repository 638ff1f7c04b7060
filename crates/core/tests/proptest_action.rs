//! `ActionSpace` against an independent dense model of Algorithm 1.
//!
//! The sparse sketch kernel claims bit-identity with the dense pipeline it
//! replaced, and `ActionSpace::nearest` claims to be exact. `sb-ann`'s
//! differential proptests pin each kernel on its own; this one pins the
//! composition: over arbitrary tag-path sequences the production
//! `ActionSpace` must hand out the same action ids, keep the same member
//! counts and give the same frozen `match_only` answers as [`DenseSpace`]
//! below — Algorithm 1 written out with the dense reference functions
//! (`sb_bench::dense`'s `project` and `cosine`, the coordinate-wise centroid
//! map) and a brute-force nearest centroid, sharing no code with the type
//! under test beyond the vocabulary and the projector.

use proptest::prelude::*;
use sb_ann::{NgramVocab, Projector};
use sb_bench::dense::{cosine, project};
use sb_crawler::{ActionSpace, ActionSpaceConfig};
use sb_html::TagPath;

struct DenseSpace {
    theta: f32,
    max_actions: Option<usize>,
    vocab: NgramVocab,
    projector: Projector,
    centroids: Vec<Vec<f32>>,
    members: Vec<u64>,
}

impl DenseSpace {
    fn new(cfg: &ActionSpaceConfig) -> Self {
        DenseSpace {
            theta: cfg.theta,
            max_actions: cfg.max_actions,
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
        let projected = project(&self.projector, &self.vocab.vectorize(&tokens));
        match self.nearest(&projected) {
            Some((a, sim)) if sim >= self.theta => Some(a),
            _ => None,
        }
    }

    fn assign(&mut self, path: &TagPath) -> usize {
        self.try_assign(path).expect("no cap")
    }

    /// `None` where a new action would pass `max_actions`: the vocabulary
    /// has grown by the path's unseen n-grams, and nothing else has moved.
    fn try_assign(&mut self, path: &TagPath) -> Option<usize> {
        let tokens: Vec<String> = path.tokens().map(str::to_owned).collect();
        let projected = project(&self.projector, &self.vocab.vectorize_mut(&tokens));
        if let Some((a, sim)) = self.nearest(&projected) {
            if sim >= self.theta {
                let m = self.members[a] as f32;
                for (c, &x) in self.centroids[a].iter_mut().zip(&projected) {
                    *c += (x - *c) / (m + 1.0);
                }
                self.members[a] += 1;
                return Some(a);
            }
        }
        if self.max_actions.is_some_and(|cap| self.members.len() >= cap) {
            return None;
        }
        self.members.push(1);
        self.centroids.push(projected);
        Some(self.members.len() - 1)
    }

    /// Action count, vocabulary, member counts and `match_only` over
    /// `probes` all equal the dense model's.
    fn assert_same_state(
        &self,
        sparse: &ActionSpace,
        probes: &[TagPath],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(sparse.len(), self.members.len());
        prop_assert_eq!(sparse.vocab_len(), self.vocab.len());
        for (a, &m) in self.members.iter().enumerate() {
            prop_assert_eq!(sparse.members(a), m);
        }
        for path in probes {
            prop_assert_eq!(sparse.match_only(path), self.match_only(path), "match_only {}", path);
        }
        Ok(())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The path memo: a site's links come from a few templates, so each
    /// sequence draws from a small pool and every path repeats many times.
    /// Through every repeat — cached sketch, cosines stamped by member
    /// count, centroid moved in place — `assign` must hand out the dense
    /// model's ids, and a `max_actions` cap that trips partway must fail on
    /// exactly the paths that would found an action past it. After the
    /// sequence, the action count, vocabulary, member counts and
    /// `match_only` must still be the dense model's.
    #[test]
    fn memoised_assign_replays_the_dense_transcription_over_repeating_paths(
        pool in proptest::collection::vec((arb_path(), arb_unique_id_path()), 1..10),
        unique_ids in proptest::bool::ANY,
        picks in proptest::collection::vec(0usize..64, 1..240),
        probes in proptest::collection::vec(arb_path(), 1..6),
        theta in 0u8..5,
        small_dim in proptest::bool::ANY,
        cap in 0usize..6,
    ) {
        let mut cfg = ActionSpaceConfig {
            theta: [0.5, 0.75, 0.9, 0.95, 1.0][theta as usize],
            max_actions: (cap > 0).then_some(cap),
            ..Default::default()
        };
        if small_dim {
            (cfg.m, cfg.w) = (4, 11);
        }
        let pool: Vec<TagPath> = pool
            .iter()
            .map(|(path, unique)| TagPath::parse(if unique_ids { unique } else { path }))
            .collect();
        let mut dense = DenseSpace::new(&cfg);
        let mut sparse = ActionSpace::new(cfg);
        for &i in &picks {
            let path = &pool[i % pool.len()];
            let expected = dense.try_assign(path).ok_or(dense.members.len());
            let got = sparse.assign(path).map_err(|full| full.actions);
            prop_assert_eq!(got, expected, "assign {}: {:?} vs {:?}", path, got, expected);
        }
        let probes: Vec<TagPath> = probes.iter().map(|p| TagPath::parse(p)).collect();
        dense.assert_same_state(&sparse, &[pool, probes].concat())?;
    }
}

proptest! {
    // Each case replays ~800 assigns through a model with hundreds of
    // actions; D = 256 keeps the dense scans affordable.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The memo's bound. At θ = 0.95 each new unique-id path founds an
    /// action, and its memo entry keeps one 16-byte cosine per action that
    /// existed when it was assigned. Founding `n` actions that way leaves
    /// `16 · n(n − 1) / 2` bytes of cells, past the memo's 1 MiB from
    /// `n = 363` on: the memo must empty mid-sequence, and the earlier paths
    /// revisited after that are re-admitted. No answer may change.
    #[test]
    fn the_memo_empties_mid_sequence_without_changing_an_answer(
        tails in proptest::collection::vec("(span|p|em)(\\.[abc])?", 380..420),
        revisits in proptest::collection::vec(0usize..10_000, 380..420),
    ) {
        let mut cfg = ActionSpaceConfig { theta: 0.95, ..Default::default() };
        (cfg.m, cfg.w) = (8, 15);
        let paths: Vec<TagPath> = tails
            .iter()
            .enumerate()
            .map(|(i, tail)| TagPath::parse(&format!("html body div#main ul.list li#i{i} {tail} a")))
            .collect();
        let mut dense = DenseSpace::new(&cfg);
        let mut sparse = ActionSpace::new(cfg);
        for (i, path) in paths.iter().enumerate() {
            let again = &paths[revisits[i % revisits.len()] % (i + 1)];
            for path in [path, again] {
                prop_assert_eq!(sparse.assign(path).expect("no cap"), dense.assign(path), "assign {}", path);
            }
        }
        prop_assert!(sparse.len() >= 363, "only {} actions: the memo may never have emptied", sparse.len());
        dense.assert_same_state(&sparse, &paths[..40])?;
    }
}
