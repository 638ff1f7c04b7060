//! Differential property tests: the sparse sketch kernels against the dense
//! reference they replaced (PR 14).
//!
//! Every comparison is `==` on the f32 **bit patterns**, never an epsilon:
//! the sparse path is meant to be the dense path minus the exact-zero terms,
//! so any drift at all — a reordered sum, a norm computed differently, a
//! stale hit count — is a bug that would silently change crawl traces.

use proptest::prelude::*;
use sb_ann::{
    cosine_sparse, NgramVocab, Projector, SketchRing, Sketcher, SparseVec, DEFAULT_PRIME,
};
use sb_bench::dense::{cosine, project};

const DIM: usize = 48;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Sparse vectors of every density from empty to full, negatives included,
/// magnitudes from 1e-12 to 1e12, and the occasional *stored* zero (which
/// `SparseVec::new` keeps and `from_dense` would drop).
fn arb_sparse() -> impl Strategy<Value = SparseVec> {
    let coord = (0u8..5, -4.0f32..4.0f32);
    (
        0u8..5,
        -12i32..13,
        proptest::collection::vec(coord, DIM..DIM + 1),
    )
        .prop_map(|(density, exp, coords)| {
            let scale = 10f32.powi(exp);
            let items = coords
                .into_iter()
                .enumerate()
                .filter(|&(_, (tag, _))| tag <= density)
                .map(|(i, (tag, x))| (i as u32, if tag == density { 0.0 } else { x * scale }))
                .collect();
            SparseVec::new(items)
        })
}

fn arb_tokens() -> impl Strategy<Value = Vec<String>> {
    // A small alphabet, so sequences share n-grams and buckets collide.
    proptest::collection::vec("(html|body|div|ul|li|a|nav)(\\.[ab])?", 1..10)
}

#[test]
fn cosine_sparse_matches_dense_bits() {
    let a = [0.3, 0.0, -0.7, 0.0, 0.1];
    let b = [0.0, 0.9, 0.2, 0.0, 0.4];
    let (sa, sb) = (SparseVec::from_dense(&a), SparseVec::from_dense(&b));
    assert_eq!(cosine_sparse(&sa, &sb).to_bits(), cosine(&a, &b).to_bits());
    assert_eq!(cosine_sparse(&sa, &SparseVec::new(Vec::new())), 0.0);
}

proptest! {
    /// (a) Merge-join cosine over cached norms ≡ the dense three-accumulator
    /// loop, including empty and zero-norm inputs.
    #[test]
    fn cosine_sparse_equals_dense(a in arb_sparse(), b in arb_sparse()) {
        let dense = cosine(&a.to_dense(DIM), &b.to_dense(DIM));
        prop_assert_eq!(cosine_sparse(&a, &b).to_bits(), dense.to_bits());
        prop_assert_eq!(cosine_sparse(&a, &a).to_bits(), cosine(&a.to_dense(DIM), &a.to_dense(DIM)).to_bits());
    }

    /// (b) The incremental hit table: after any interleaving of growing and
    /// frozen sketches, every sketch densifies to exactly
    /// `dense::project` of the same vocabulary history. `m = 3` (D = 8)
    /// forces heavy bucket collisions; the paper default exercises the
    /// realistic sparse case.
    #[test]
    fn sketcher_equals_dense_projection(
        ops in proptest::collection::vec((proptest::bool::ANY, arb_tokens()), 1..24),
        paper_dim in proptest::bool::ANY,
    ) {
        let proj = if paper_dim { Projector::paper_default() } else { Projector::new(3, 11, DEFAULT_PRIME) };
        let mut sketcher = Sketcher::new(2, proj);
        let mut vocab = NgramVocab::new(2);
        for (grow, tokens) in &ops {
            let (sparse, bow) = if *grow {
                (sketcher.sketch_mut(tokens), vocab.vectorize_mut(tokens))
            } else {
                (sketcher.sketch(tokens), vocab.vectorize(tokens))
            };
            prop_assert_eq!(sketcher.vocab_len(), vocab.len());
            prop_assert_eq!(bits(&sparse.to_dense(proj.dim())), bits(&project(&proj, &bow)));
        }
    }

    /// (b') The two halves of a sketch: bucket sums kept from `admit`
    /// stay valid however far the vocabulary grows afterwards — projected
    /// under any later hit table they are the dense projection of the same
    /// tokens over the vocabulary of that moment, norm included, and
    /// `hits_under` moves exactly when that projection does.
    #[test]
    fn kept_bucket_sums_project_like_a_fresh_dense_sketch(
        paths in proptest::collection::vec(arb_tokens(), 1..24),
        paper_dim in proptest::bool::ANY,
    ) {
        let proj = if paper_dim { Projector::paper_default() } else { Projector::new(3, 11, DEFAULT_PRIME) };
        let mut sketcher = Sketcher::new(2, proj);
        let mut vocab = NgramVocab::new(2);
        let mut kept = Vec::new();
        let mut probe = SparseVec::default();
        for tokens in &paths {
            let sums = sketcher.admit(tokens);
            vocab.vectorize_mut(tokens);
            kept.push((tokens, sums, 0u32, Vec::new()));
            for (tokens, sums, hits_seen, dense_seen) in &mut kept {
                sketcher.project_into(sums, &mut probe);
                let dense = project(&proj, &vocab.vectorize(tokens));
                prop_assert_eq!(bits(&probe.to_dense(proj.dim())), bits(&dense));
                prop_assert_eq!(&probe, &SparseVec::from_dense(&dense), "refill caches new()'s norm");
                let hits = sketcher.hits_under(sums);
                prop_assert_eq!(hits == *hits_seen, bits(&dense) == bits(dense_seen));
                (*hits_seen, *dense_seen) = (hits, dense);
            }
        }
    }

    /// (c) The sorted-union centroid move ≡ the dense coordinate-wise map
    /// `c + (x − c) / (m + 1)`, written into a *dirty* destination (the
    /// scratch vector `ActionSpace` reuses holds some other centroid's
    /// items), exactly as `refill` is held to `new` in (b').
    #[test]
    fn centroid_move_equals_dense_map(
        c in arb_sparse(),
        x in arb_sparse(),
        mut moved in arb_sparse(),
        members in 1u32..100_000,
    ) {
        let m = members as f32;
        let dense: Vec<f32> = c
            .to_dense(DIM)
            .iter()
            .zip(&x.to_dense(DIM))
            .map(|(&c, &x)| c + (x - c) / (m + 1.0))
            .collect();
        c.moved_toward_into(&x, m, &mut moved);
        prop_assert_eq!(bits(&moved.to_dense(DIM)), bits(&dense));
        prop_assert_eq!(&moved, &SparseVec::from_dense(&dense), "zeros dropped, new()'s norm cached");
        // And the moved centroid's cached norm is the dense one: cosines
        // against it keep matching.
        prop_assert_eq!(cosine_sparse(&moved, &x).to_bits(), cosine(&dense, &x.to_dense(DIM)).to_bits());
    }

    /// (d) The bucket-major ring: after any sequence of writes — a partly
    /// filled ring, slots overwritten in any order, each new support
    /// disjoint from, overlapping or equal to the old one (`arb_sparse`
    /// draws every density over one small dimension; `same_support` keeps
    /// the old indices with fresh values) — `cosine` and `cosines` against
    /// every slot equal `cosine_sparse` against the vector last written
    /// there, bit for bit, and an unwritten slot reads 0.
    #[test]
    fn sketch_ring_reads_equal_the_merge_join(
        writes in proptest::collection::vec(
            (0usize..SketchRing::SLOTS, arb_sparse(), proptest::bool::ANY),
            0..80,
        ),
        probes in proptest::collection::vec(arb_sparse(), 1..4),
    ) {
        let mut ring = SketchRing::new(DIM);
        let mut model: Vec<Option<SparseVec>> = vec![None; SketchRing::SLOTS];
        let mut cosines = [f32::NAN; SketchRing::SLOTS];
        for (slot, v, same_support) in writes {
            let v = match &model[slot] {
                Some(old) if same_support => {
                    let fresh = v.items().iter().map(|&(_, x)| x).chain(std::iter::repeat(1.5));
                    SparseVec::new(old.items().iter().zip(fresh).map(|(&(j, _), x)| (j, x)).collect())
                }
                _ => v,
            };
            ring.write(slot, &v);
            model[slot] = Some(v);
            for probe in &probes {
                ring.cosines(probe, &mut cosines);
                for (slot, seen) in model.iter().enumerate() {
                    let want = seen.as_ref().map_or(0.0, |seen| cosine_sparse(probe, seen));
                    prop_assert_eq!(ring.cosine(probe, slot).to_bits(), want.to_bits());
                    prop_assert_eq!(cosines[slot].to_bits(), want.to_bits());
                }
            }
        }
    }
}

/// The ±0.0 cases the ring's bit-identity argument rests on: stored zeros
/// and negative values on both sides, a zero-norm probe and slot, and a
/// dot product that cancels exactly.
#[test]
fn sketch_ring_matches_the_merge_join_on_signed_zeros() {
    let probe = SparseVec::new(vec![(0, -0.0), (1, 2.0), (2, -3.0), (5, 0.0)]);
    let slots = [
        SparseVec::new(vec![(1, 3.0), (2, 2.0)]),
        SparseVec::new(vec![(0, 5.0), (2, -1.0), (5, -4.0)]),
        SparseVec::new(vec![(3, 1.0), (4, -1.0)]),
        SparseVec::new(vec![(0, 0.0), (5, -0.0)]),
        SparseVec::new(Vec::new()),
    ];
    let mut ring = SketchRing::new(DIM);
    for (slot, v) in slots.iter().enumerate() {
        ring.write(slot, v);
    }
    let mut cosines = [f32::NAN; SketchRing::SLOTS];
    for probe in [&probe, &SparseVec::new(vec![(1, -0.0)])] {
        ring.cosines(probe, &mut cosines);
        for (slot, v) in slots.iter().enumerate() {
            let want = cosine_sparse(probe, v);
            assert_eq!(ring.cosine(probe, slot).to_bits(), want.to_bits(), "slot {slot}");
            assert_eq!(cosines[slot].to_bits(), want.to_bits(), "slot {slot}");
        }
        assert!(cosines[slots.len()..].iter().all(|c| c.to_bits() == 0));
    }
    // Slot 0's dot cancels to +0.0: the cosine is +0.0, not −0.0.
    assert_eq!(ring.cosine(&probe, 0).to_bits(), 0.0f32.to_bits());
}
