//! `ActionSpace` against a dense transcription of the pre-PR-14 `assign`.
//!
//! The sparse sketch kernel claims bit-identity with the dense pipeline it
//! replaced. `sb-ann`'s differential proptests pin each kernel on its own;
//! this one pins the composition: over arbitrary tag-path sequences the
//! production `ActionSpace` must hand out the same action ids, keep the same
//! member counts and give the same frozen `match_only` answers as
//! [`DenseSpace`] below — Algorithm 1 written out with the dense reference
//! functions (`Projector::project`, the coordinate-wise centroid map), line
//! for line as `assign` read before the sparse kernel landed.

use proptest::prelude::*;
use sb_ann::{Hnsw, HnswParams, NgramVocab, Projector, SparseVec};
use sb_crawler::{ActionSpace, ActionSpaceConfig};
use sb_html::TagPath;

struct DenseSpace {
    theta: f32,
    vocab: NgramVocab,
    projector: Projector,
    index: Hnsw,
    members: Vec<u64>,
}

impl DenseSpace {
    fn new(cfg: &ActionSpaceConfig) -> Self {
        let projector = Projector::new(cfg.m, cfg.w, cfg.prime);
        DenseSpace {
            theta: cfg.theta,
            vocab: NgramVocab::new(cfg.ngram),
            index: Hnsw::new(projector.dim(), HnswParams::default()),
            projector,
            members: Vec::new(),
        }
    }

    fn match_only(&self, path: &TagPath) -> Option<usize> {
        let tokens: Vec<String> = path.tokens().collect();
        let projected = self.projector.project(&self.vocab.vectorize(&tokens));
        match self.index.nearest(&SparseVec::from_dense(&projected)) {
            Some((id, sim)) if sim >= self.theta => Some(id as usize),
            _ => None,
        }
    }

    fn assign(&mut self, path: &TagPath) -> usize {
        let tokens: Vec<String> = path.tokens().collect();
        let projected = self.projector.project(&self.vocab.vectorize_mut(&tokens));
        if let Some((nearest, sim)) = self.index.nearest(&SparseVec::from_dense(&projected)) {
            if sim >= self.theta {
                let a = nearest as usize;
                let m = self.members[a] as f32;
                let old = self.index.vector(nearest).to_dense(self.projector.dim());
                let updated: Vec<f32> = old
                    .iter()
                    .zip(&projected)
                    .map(|(&c, &x)| c + (x - c) / (m + 1.0))
                    .collect();
                self.index.update(nearest, &SparseVec::from_dense(&updated));
                self.members[a] += 1;
                return a;
            }
        }
        self.members.push(1);
        self.index.insert(&SparseVec::from_dense(&projected)) as usize
    }
}

/// Tag paths over a small alphabet: sequences share most bigrams, so joins,
/// centroid moves and near-threshold decisions all happen.
fn arb_path() -> impl Strategy<Value = String> {
    "html body( (div|ul|li|nav|main|span)(\\.[abc]|#x)?){0,7} a(\\.(dl|nav))?"
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
