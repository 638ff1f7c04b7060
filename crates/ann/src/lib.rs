//! Vector machinery for tag-path clustering.
//!
//! Implements the vectorisation pipeline of Sec 3.2 (Figure 3): dynamic
//! token [`ngram`] vocabularies → sparse BoW vectors → the fixed-dimension
//! hash [`project`]ion with collision-mean semantics → cosine [`vector`]
//! geometry. The vectors stay sparse the whole way: a [`Sketcher`] turns
//! tokens into a [`SparseVec`] (~10 non-zeros out of `D = 4096`), and
//! Algorithm 1's action centroids (`sb_crawler::ActionSpace`) are
//! `SparseVec`s compared with [`cosine_sparse`] in an exact scan. The dense
//! [`Projector::project`] and [`cosine`] are the bit-identical reference the
//! differential proptests pin the sparse kernels against.

#![forbid(unsafe_code)]

pub mod ngram;
pub mod project;
pub mod vector;

pub use ngram::{NgramVocab, SparseBow, BOS, EOS};
pub use project::{BucketSums, Projector, Sketcher, DEFAULT_PRIME};
pub use vector::{cosine, cosine_sparse, SparseVec};
