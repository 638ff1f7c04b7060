//! Fixed-dimension hash projection of growing BoW vectors (Sec 3.2, Fig 3).
//!
//! BoW vectors over a dynamic vocabulary have different lengths at different
//! crawl times, so they are projected into a fixed `D = 2^m` dimension with
//! the hash `h(x) = ⌊(Π·x mod 2^w) / 2^(w−m)⌋` (Π a large prime, `w > m`).
//! Collisions are resolved by storing the **mean** of all input positions
//! that map to the same output position — including zero-valued ones — and
//! output positions hit by no input stay 0. The crate's tests reproduce the
//! paper's worked example (`D = 4`, `w = 11`, `Π = 766 245 317`) digit for
//! digit.
//!
//! [`Projector`] holds the hash. [`Sketcher`] owns the vocabulary and the
//! projector together and produces the projected vector sparsely in O(nnz);
//! the dense definition, written out over every vocabulary position, is the
//! reference `sb_bench::dense::project` its differential tests pin it to.

use crate::ngram::{NgramVocab, SparseBow};
use crate::vector::{add_sorted, SparseVec};

/// The paper's default Π.
pub const DEFAULT_PRIME: u64 = 766_245_317;

/// Hash projector with parameters `m` (output dim `D = 2^m`), `w`, `Π`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projector {
    m: u32,
    w: u32,
    prime: u64,
}

impl Projector {
    /// Panics unless `0 < m < w ≤ 63`.
    pub fn new(m: u32, w: u32, prime: u64) -> Self {
        assert!(m > 0 && w > m && w <= 63, "need 0 < m < w ≤ 63");
        Projector { m, w, prime }
    }

    /// The paper's defaults: `m = 12` (D = 4096), `w = 15`, Π = 766 245 317.
    pub fn paper_default() -> Self {
        Projector::new(12, 15, DEFAULT_PRIME)
    }

    /// Output dimension `D = 2^m`.
    pub fn dim(&self) -> usize {
        1usize << self.m
    }

    /// `h(x) = ⌊(Π·x mod 2^w) / 2^(w−m)⌋`.
    pub fn hash(&self, x: u64) -> usize {
        let modulus = 1u64 << self.w;
        let shift = self.w - self.m;
        ((self.prime.wrapping_mul(x) % modulus) >> shift) as usize
    }
}

/// The half of a sketch that never changes once its n-grams are in the
/// vocabulary: `(bucket, Σ counts)` in ascending bucket order, each sum
/// accumulated in ascending vocabulary-index order. [`Sketcher::project_into`]
/// divides it by the hit table of the moment.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSums(Box<[(u32, f32)]>);

/// The one owner of the vocabulary→projection pair: token n-grams in, the
/// projected [`SparseVec`] out, equal coordinate for coordinate to the
/// dense collision-mean projection over the same [`NgramVocab`] history.
///
/// The collision mean divides each bucket's sum by the number of vocabulary
/// positions hashing there. That count only changes when the vocabulary
/// grows, so it is kept in a per-bucket hit table extended by exactly the
/// new positions on every growth — the table always covers `0..vocab_len()`
/// — and a sketch costs O(nnz), with no `D`- or vocabulary-sized work.
///
/// A sketch is two steps, and a caller that sketches the same tokens again
/// and again takes them apart: [`Sketcher::admit`] grows the vocabulary and
/// returns the token sequence's [`BucketSums`] (static from then on),
/// [`Sketcher::project_into`] applies the current hit table.
/// [`Sketcher::sketch_mut`] is one after the other.
#[derive(Debug, Clone)]
pub struct Sketcher {
    vocab: NgramVocab,
    projector: Projector,
    /// `hits[j]` = how many `i < vocab.len()` have `h(i) = j`.
    hits: Vec<u32>,
}

impl Sketcher {
    /// A sketcher over an empty `ngram`-order vocabulary.
    pub fn new(ngram: usize, projector: Projector) -> Self {
        Sketcher { vocab: NgramVocab::new(ngram), hits: vec![0; projector.dim()], projector }
    }

    /// Output dimension `D`.
    pub fn dim(&self) -> usize {
        self.projector.dim()
    }

    /// Vocabulary size `d` (grows with [`Sketcher::admit`]).
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// **Grows** the vocabulary (and the hit table) with the unseen n-grams
    /// of `tokens` and returns their bucket sums. The order of `admit`
    /// calls is the order the vocabulary grows in, and with it every later
    /// hit count.
    pub fn admit(&mut self, tokens: &[impl AsRef<str>]) -> BucketSums {
        BucketSums(self.grow(tokens).into_boxed_slice())
    }

    /// Sketches `tokens`, **growing** the vocabulary with unseen n-grams.
    pub fn sketch_mut(&mut self, tokens: &[impl AsRef<str>]) -> SparseVec {
        let sums = self.grow(tokens);
        self.mean(sums)
    }

    /// Sketches without growing: unseen n-grams are dropped.
    pub fn sketch(&self, tokens: &[impl AsRef<str>]) -> SparseVec {
        self.mean(self.bucket_sums(&self.vocab.vectorize(tokens)))
    }

    /// Σ of the hit counts under `sums`' buckets. Hit counts only grow, so
    /// this moves exactly when the projection of `sums` does.
    pub fn hits_under(&self, sums: &BucketSums) -> u32 {
        sums.0.iter().map(|&(j, _)| self.hits[j as usize]).sum()
    }

    /// The collision mean of `sums` under the current hit table — what
    /// [`Sketcher::sketch`] of the admitted tokens would return now —
    /// written into `out`'s allocation.
    pub fn project_into(&self, sums: &BucketSums, out: &mut SparseVec) {
        out.refill(sums.0.iter().map(|&item| self.mean_of(item)));
    }

    /// The collision mean of one bucket: its sum over its hit count.
    fn mean_of(&self, (j, sum): (u32, f32)) -> (u32, f32) {
        (j, sum / self.hits[j as usize] as f32)
    }

    fn grow(&mut self, tokens: &[impl AsRef<str>]) -> Vec<(u32, f32)> {
        let before = self.vocab.len();
        let bow = self.vocab.vectorize_mut(tokens);
        for i in before..bow.dim {
            self.hits[self.projector.hash(i as u64)] += 1;
        }
        self.bucket_sums(&bow)
    }

    /// Bucket sums in ascending input-index order (the order the dense loop
    /// adds them in).
    fn bucket_sums(&self, bow: &SparseBow) -> Vec<(u32, f32)> {
        debug_assert_eq!(bow.dim, self.vocab.len(), "hit table covers the whole vocabulary");
        let mut out: Vec<(u32, f32)> = Vec::with_capacity(bow.items.len());
        for &(i, val) in &bow.items {
            add_sorted(&mut out, self.projector.hash(i as u64) as u32, val);
        }
        out
    }

    /// The collision mean from the hit table, in place.
    fn mean(&self, mut sums: Vec<(u32, f32)>) -> SparseVec {
        for item in &mut sums {
            *item = self.mean_of(*item);
        }
        SparseVec::new(sums)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    /// Figure 3, step by step: h(2) = ⌊(766245317·2 mod 2048)/512⌋ = 1.
    #[test]
    fn paper_hash_values() {
        let p = Projector::new(2, 11, DEFAULT_PRIME);
        assert_eq!(p.dim(), 4);
        assert_eq!(p.hash(2), 1);
        // The collision of the example: h(4) = h(8) = h(9) = 3.
        assert_eq!(p.hash(4), 3);
        assert_eq!(p.hash(8), 3);
        assert_eq!(p.hash(9), 3);
    }

    /// The Figure 3 walk through the [`Sketcher`] grows its hit table from
    /// 5 to 11 positions, one per vocabulary position (the dense comparison
    /// of the same walk is `tests/proptest_ann.rs`).
    #[test]
    fn hit_table_covers_the_paper_example_vocabulary() {
        let mut sketcher = Sketcher::new(2, Projector::new(2, 11, DEFAULT_PRIME));
        for path in [
            "html body div#container a.info",
            "html body div#container div div div ul li.datasets a.dataset",
        ] {
            sketcher.sketch_mut(&toks(path));
        }
        assert_eq!(sketcher.vocab_len(), 11);
        assert_eq!(sketcher.hits.iter().sum::<u32>(), 11);
    }

    #[test]
    fn paper_default_dimension() {
        assert_eq!(Projector::paper_default().dim(), 4096);
    }

    #[test]
    #[should_panic(expected = "need 0 < m < w")]
    fn rejects_w_not_greater_than_m() {
        Projector::new(12, 12, DEFAULT_PRIME);
    }

    #[test]
    fn hash_stays_in_range() {
        let p = Projector::paper_default();
        for x in [0u64, 1, 17, 4095, 1 << 20, u64::MAX / 3] {
            assert!(p.hash(x) < p.dim());
        }
    }
}
