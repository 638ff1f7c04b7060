//! Dynamic token n-gram vocabulary and bag-of-words vectors (Sec 3.2).
//!
//! Tag paths are represented as BoW vectors over the n-gram vocabulary of all
//! tag paths **encountered so far**: the vocabulary grows during the crawl,
//! so vectors produced at different times have different lengths (that is why
//! the hash projection of [`crate::project`] exists). `BOS`/`EOS` sentinel
//! tokens mark stream boundaries exactly as in Figure 3, and n-grams keep
//! token order — the paper shows order matters (n = 2, 3 beat n = 1).
//!
//! Grams are produced in window order, left to right, each written into one
//! buffer that the next overwrites, and looked up by `&str`: a gram is only
//! ever copied out of the buffer when it is new to the vocabulary. Window
//! order is the order the vocabulary grows in, so it fixes every index.

use crate::vector::add_sorted;
use std::collections::HashMap;

/// Sentinel tokens.
pub const BOS: &str = "[BOS]";
pub const EOS: &str = "[EOS]";

/// A growable n-gram vocabulary: n-gram string → index (in insertion order).
#[derive(Debug, Clone)]
pub struct NgramVocab {
    n: usize,
    index: HashMap<String, usize>,
}

impl NgramVocab {
    /// `n = 1` treats the path as a *set* of tokens (no sentinels, no order);
    /// `n ≥ 2` uses order-preserving n-grams with BOS/EOS.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "n-gram order must be at least 1");
        NgramVocab { n, index: HashMap::new() }
    }

    /// Current vocabulary size `d`.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Vectorises `tokens`, **growing** the vocabulary with unseen n-grams.
    /// Returns a sparse BoW: `(index, count)` pairs sorted by index.
    pub fn vectorize_mut(&mut self, tokens: &[impl AsRef<str>]) -> SparseBow {
        let index = &mut self.index;
        let items = count_grams(self.n, tokens, |gram| {
            Some(match index.get(gram) {
                Some(&id) => id,
                None => {
                    let id = index.len();
                    index.insert(gram.to_owned(), id);
                    id
                }
            })
        });
        SparseBow { dim: self.index.len(), items }
    }

    /// Vectorises without growing: unseen n-grams are dropped.
    pub fn vectorize(&self, tokens: &[impl AsRef<str>]) -> SparseBow {
        let items = count_grams(self.n, tokens, |gram| self.index.get(gram).copied());
        SparseBow { dim: self.index.len(), items }
    }
}

/// Counts each `n`-gram of `tokens` that `id_of` resolves into
/// `(index, count)` items sorted by index. `id_of` sees the grams in window
/// order: the tokens themselves for `n = 1`, otherwise every `n` consecutive
/// entries of `[BOS] tokens… [EOS]` joined by single spaces (none when that
/// has fewer than `n` entries).
fn count_grams<T: AsRef<str>>(
    n: usize,
    tokens: &[T],
    mut id_of: impl FnMut(&str) -> Option<usize>,
) -> Vec<(usize, f32)> {
    let mut items: Vec<(usize, f32)> = Vec::with_capacity(tokens.len() + 1);
    let mut count = |gram: &str| {
        if let Some(id) = id_of(gram) {
            add_sorted(&mut items, id, 1.0);
        }
    };
    if n == 1 {
        tokens.iter().for_each(|t| count(t.as_ref()));
    } else {
        let padded = |i: usize| match i {
            0 => BOS,
            i if i > tokens.len() => EOS,
            i => tokens[i - 1].as_ref(),
        };
        let mut gram = String::new();
        for start in 0..(tokens.len() + 3).saturating_sub(n) {
            gram.clear();
            for i in start..start + n {
                if i > start {
                    gram.push(' ');
                }
                gram.push_str(padded(i));
            }
            count(&gram);
        }
    }
    items
}

/// A sparse bag-of-words vector of (current) dimension `dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseBow {
    /// Vocabulary size at vectorisation time (`d` in the paper).
    pub dim: usize,
    /// `(index, count)`, sorted by index.
    pub items: Vec<(usize, f32)>,
}

impl SparseBow {
    /// Materialises the dense `d`-dimensional vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut v = vec![0.0; self.dim];
        for &(i, c) in &self.items {
            v[i] = c;
        }
        v
    }

    pub fn nnz(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    #[test]
    fn bigram_vocabulary_grows_in_order() {
        let mut v = NgramVocab::new(2);
        let b = v.vectorize_mut(&toks("html body a.info"));
        // [BOS] html | html body | body a.info | a.info [EOS]
        assert_eq!(v.len(), 4);
        assert_eq!(b.dim, 4);
        assert_eq!(b.items, vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]);
    }

    /// The Figure 3 vocabulary: 5 bigrams at iteration k, 11 at k+1.
    #[test]
    fn figure3_vocabulary_counts() {
        let mut v = NgramVocab::new(2);
        v.vectorize_mut(&toks("html body div#container a.info"));
        assert_eq!(v.len(), 5);
        let p = v.vectorize_mut(&toks(
            "html body div#container div div div ul li.datasets a.dataset",
        ));
        assert_eq!(v.len(), 11);
        assert_eq!(p.dim, 11);
        // p = [1,1,1,0,0,1,2,1,1,1,1]: "div div" occurs twice.
        let dense = p.to_dense();
        assert_eq!(dense, vec![1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn repeated_grams_counted() {
        let mut v = NgramVocab::new(2);
        let b = v.vectorize_mut(&toks("div div div div"));
        // [BOS] div | div div (×3) | div [EOS]
        let dense = b.to_dense();
        assert_eq!(dense.iter().sum::<f32>(), 5.0);
        assert!(dense.contains(&3.0));
    }

    #[test]
    fn unigrams_ignore_order() {
        let mut v = NgramVocab::new(1);
        let a = v.vectorize_mut(&toks("ul li a"));
        let b = v.vectorize(&toks("a li ul"));
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn frozen_vectorize_drops_unseen() {
        let mut v = NgramVocab::new(2);
        v.vectorize_mut(&toks("html body"));
        let d = v.len();
        let b = v.vectorize(&toks("nav ul li"));
        assert_eq!(v.len(), d, "frozen vectorize must not grow the vocab");
        assert_eq!(b.nnz(), 0);
    }

    #[test]
    fn same_path_same_vector_across_growth() {
        let mut v = NgramVocab::new(2);
        let first = v.vectorize_mut(&toks("html body a"));
        v.vectorize_mut(&toks("html body div ul li a"));
        let again = v.vectorize(&toks("html body a"));
        // Same nonzero entries, larger dim.
        assert_eq!(first.items, again.items);
        assert!(again.dim > first.dim);
    }
}
