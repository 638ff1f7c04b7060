//! The dense Sec 3.2 pipeline, written out: the hash projection of Fig 3
//! over every vocabulary position and the three-accumulator cosine.
//!
//! The crawl never runs these. `sb_ann`'s sparse kernels (`Sketcher`,
//! `cosine_sparse`, `SparseVec::moved_toward_into`) claim to be exactly
//! this pipeline minus its exact-zero terms, and the differential tests
//! (`sb_ann`'s `proptest_sparse`, `sb_crawler`'s `proptest_action`) hold
//! them to it bit for bit. Keep it frozen.

use sb_ann::{Projector, SparseBow};

/// Projects a sparse BoW of dimension `bow.dim` into `p.dim()` dimensions.
///
/// Every input position `0 ≤ i < d` participates: positions absent from
/// the sparse items contribute 0 to their bucket's mean (this matches the
/// worked example, where bucket 3 averages `p[4] = 0`, `p[8] = 1`,
/// `p[9] = 1` into ≈ 0.67). O(`D` + `bow.dim`) per call.
pub fn project(p: &Projector, bow: &SparseBow) -> Vec<f32> {
    let d = p.dim();
    let mut sums = vec![0.0f32; d];
    let mut hits = vec![0u32; d];
    let mut iter = bow.items.iter().peekable();
    for i in 0..bow.dim {
        let j = p.hash(i as u64);
        hits[j] += 1;
        if let Some(&&(idx, val)) = iter.peek() {
            if idx == i {
                sums[j] += val;
                iter.next();
            }
        }
    }
    for j in 0..d {
        if hits[j] > 0 {
            sums[j] /= hits[j] as f32;
        }
    }
    sums
}

/// Cosine similarity between two equal-length dense vectors; 0 if either is
/// zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += f64::from(x) * f64::from(y);
        na += f64::from(x) * f64::from(x);
        nb += f64::from(y) * f64::from(y);
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identity_and_orthogonal() {
        let a = [1.0, 0.0, 2.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = [0.3, 0.7, 0.1];
        let b: Vec<f32> = a.iter().map(|x| x * 42.0).collect();
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
    }
}
