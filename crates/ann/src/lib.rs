//! Vector machinery for tag-path clustering.
//!
//! Implements the vectorisation pipeline of Sec 3.2 (Figure 3): dynamic
//! token n-gram vocabularies ([`NgramVocab`]) → sparse BoW vectors → the
//! fixed-dimension hash projection with collision-mean semantics
//! ([`Projector`]) → cosine geometry. The vectors stay sparse the whole way: a [`Sketcher`] turns
//! tokens into a [`SparseVec`] (~10 non-zeros out of `D = 4096`), and
//! Algorithm 1's action centroids (`sb_crawler::ActionSpace`) are
//! `SparseVec`s compared with [`cosine_sparse`] in an exact scan; a ring of
//! recent sketches is stored bucket-major ([`SketchRing`]) and read by
//! gather, to the same bits. The dense
//! projection and cosine the differential tests pin these kernels against,
//! bit for bit, live in the oracle crate (`sb_bench::dense`): nothing the
//! crawl runs is dense.

#![forbid(unsafe_code)]

mod ngram;
mod project;
mod vector;

pub use ngram::{NgramVocab, SparseBow, BOS, EOS};
pub use project::{BucketSums, Projector, Sketcher, DEFAULT_PRIME};
pub use vector::{cosine_sparse, SketchRing, SparseVec};
