//! Character 2-gram features (Sec 3.3, Sec 4.6).
//!
//! A URL such as `https://www.A.com/data/file.csv` becomes the bag of its
//! character bigrams `[ht, tt, tp, …, .c, cs, sv]` over the "usual ASCII"
//! alphabet (digits, letters, main special characters); anything outside is
//! bucketed. The `URL_CONT` variant appends three more bigram blocks —
//! anchor text, DOM path, surrounding text — each in its own index range so
//! the models can weight them independently.

/// Alphabet size: printable ASCII (0x20–0x7E) plus one "other" bucket.
pub const CHAR_VOCAB: usize = 96;
/// Features per block.
pub const BLOCK_DIM: usize = CHAR_VOCAB * CHAR_VOCAB;

/// Feature sets of the Table 5 study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSet {
    /// Bigrams of the URL only (the paper's default).
    UrlOnly,
    /// URL + anchor text + DOM path + surrounding text.
    UrlContent,
}

impl FeatureSet {
    pub fn n_blocks(self) -> usize {
        match self {
            FeatureSet::UrlOnly => 1,
            FeatureSet::UrlContent => 4,
        }
    }

    /// Total feature dimension (without bias).
    pub fn dim(self) -> usize {
        self.n_blocks() * BLOCK_DIM
    }
}

/// Raw text inputs for one URL occurrence.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeatureInput<'a> {
    pub url: &'a str,
    pub anchor: &'a str,
    pub dom_path: &'a str,
    pub surrounding: &'a str,
}

impl<'a> FeatureInput<'a> {
    pub fn url_only(url: &'a str) -> Self {
        FeatureInput { url, ..Default::default() }
    }
}

/// A sparse, L2-normalised feature vector: `(index, value)` sorted by index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    pub items: Vec<(u32, f32)>,
}

impl SparseVec {
    pub fn dot_dense(&self, w: &[f32]) -> f32 {
        self.items.iter().map(|&(i, v)| v * w[i as usize]).sum()
    }

    pub fn norm_sq(&self) -> f32 {
        self.items.iter().map(|&(_, v)| v * v).sum()
    }

    pub fn nnz(&self) -> usize {
        self.items.len()
    }
}

#[inline]
fn char_id(b: u8) -> u32 {
    if (0x20..0x7F).contains(&b) {
        u32::from(b) - 0x20
    } else {
        (CHAR_VOCAB - 1) as u32
    }
}

/// Appends the feature id of every character bigram of `s` (block-offset),
/// one per occurrence.
fn push_bigrams(s: &str, block: usize, ids: &mut Vec<u32>) {
    let base = (block * BLOCK_DIM) as u32;
    ids.extend(
        s.as_bytes()
            .windows(2)
            .map(|w| base + char_id(w[0]) * CHAR_VOCAB as u32 + char_id(w[1])),
    );
}

/// Featurises an input under a feature set. The result is L2-normalised so
/// SGD step sizes are comparable across URLs of different lengths.
///
/// Bigram ids are pushed one per occurrence, sorted, and run-length
/// counted — the `(index, count)` items a map would give, already in
/// index order and without hashing; the norm is the f64 sum over them in
/// that order. `crates/ml/tests/proptest_ml.rs` pins every item's bits
/// against a map-counting reference.
pub fn featurize(set: FeatureSet, input: &FeatureInput<'_>) -> SparseVec {
    let blocks = [input.url, input.anchor, input.dom_path, input.surrounding];
    let blocks = &blocks[..set.n_blocks()];
    let mut ids = Vec::with_capacity(blocks.iter().map(|s| s.len().saturating_sub(1)).sum());
    for (block, s) in blocks.iter().enumerate() {
        push_bigrams(s, block, &mut ids);
    }
    ids.sort_unstable();
    let mut items: Vec<(u32, f32)> = Vec::with_capacity(ids.len());
    for id in ids {
        match items.last_mut() {
            Some((last, count)) if *last == id => *count += 1.0,
            _ => items.push((id, 1.0)),
        }
    }
    let norm = items.iter().map(|&(_, v)| f64::from(v) * f64::from(v)).sum::<f64>().sqrt();
    if norm > 0.0 {
        for (_, v) in &mut items {
            *v /= norm as f32;
        }
    }
    SparseVec { items }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_bigrams_present() {
        let x = featurize(FeatureSet::UrlOnly, &FeatureInput::url_only("https://a.com/f.csv"));
        assert!(x.nnz() > 5);
        // "ht" bigram id: ('h'-32)*96 + ('t'-32)
        let ht = (u32::from(b'h') - 32) * 96 + (u32::from(b't') - 32);
        assert!(x.items.iter().any(|&(i, _)| i == ht));
    }

    #[test]
    fn l2_normalised() {
        let x = featurize(FeatureSet::UrlOnly, &FeatureInput::url_only("https://a.com/data/file.csv"));
        assert!((x.norm_sq() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn url_cont_uses_separate_blocks() {
        let a = featurize(
            FeatureSet::UrlContent,
            &FeatureInput { url: "https://a.com/x", anchor: "Download CSV", dom_path: "", surrounding: "" },
        );
        let b = featurize(
            FeatureSet::UrlContent,
            &FeatureInput { url: "https://a.com/x", anchor: "", dom_path: "Download CSV", surrounding: "" },
        );
        // Same texts in different blocks must hit different indices.
        assert_ne!(a.items, b.items);
        assert!(a.items.iter().any(|&(i, _)| (i as usize) >= BLOCK_DIM && (i as usize) < 2 * BLOCK_DIM));
        assert!(b.items.iter().any(|&(i, _)| (i as usize) >= 2 * BLOCK_DIM && (i as usize) < 3 * BLOCK_DIM));
    }

    #[test]
    fn non_ascii_bucketed_not_dropped() {
        let x = featurize(FeatureSet::UrlOnly, &FeatureInput::url_only("日本"));
        assert!(x.nnz() >= 1);
        for &(i, _) in &x.items {
            assert!((i as usize) < BLOCK_DIM);
        }
    }

    #[test]
    fn deterministic_and_sorted() {
        let f = || featurize(FeatureSet::UrlOnly, &FeatureInput::url_only("https://a.com/abcabc"));
        let x = f();
        assert_eq!(x, f());
        assert!(x.items.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_input_is_empty_vector() {
        let x = featurize(FeatureSet::UrlOnly, &FeatureInput::url_only(""));
        assert_eq!(x.nnz(), 0);
    }

    #[test]
    fn dims() {
        assert_eq!(FeatureSet::UrlOnly.dim(), 9216);
        assert_eq!(FeatureSet::UrlContent.dim(), 4 * 9216);
    }
}
