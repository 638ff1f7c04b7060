//! Memory-bounded scale structures for the `sbcrawl` engine.
//!
//! The crawl hot path is interned-id based (PR 1), but three structures
//! still grow linearly — and allocation-heavily — with site size: the
//! generator materialises a [`sb_webgraph::gen::SitePage`] per URL, the
//! frontier holds every discovered-but-unfetched id in one `VecDeque`, and
//! the visited set keeps a fully parsed `Url` per interned entry. None of
//! that matters at the 4k pages of the paper-fidelity experiments; all of it
//! matters at the 10⁵–10⁶ pages of a pretraining-data acquisition crawl
//! (Craw4LLM) — the regime BUbiNG's engineering is built for.
//!
//! This crate supplies the memory-bounded counterparts, each a drop-in
//! behind an existing seam:
//!
//! * [`stream`] — [`StreamingSite`]: the same deterministic site graph as
//!   the eager `Website`, packed into dense byte arenas + CSR adjacency
//!   (no per-page allocations), serving bodies through the eager site's
//!   FIFO body cache under *bounded* budgets instead of caching every HTML
//!   body forever. Implements
//!   `SiteSource`, so servers and renderers cannot tell the difference —
//!   byte-identity is pinned by proptest.
//! * [`frontier`] — [`SpillQueue`]: BUbiNG-style frontier virtualization.
//!   A bounded in-memory deque whose middle spills to an overflow arena
//!   (an unlinked temp file, or heap chunks that bound the deque windows
//!   but not the process) in fixed-size chunks,
//!   preserving the *exact* FIFO/LIFO pop order of the unbounded deque.
//! * [`visited`] — [`VisitedSet`]: one 64-bit FNV fingerprint probe over
//!   every URL's canonical text; the parsed form is kept beside it up to a
//!   configurable threshold and dropped past it, with collision accounting
//!   and an exact-map escape hatch so a fingerprint collision can never
//!   merge two distinct URLs.
//!
//! Invariant shared by all three: **at overflow thresholds of `usize::MAX`
//! (the defaults used by the engine), behaviour is bit-for-bit identical to
//! the unbounded structures**, so the frozen `sb_bench::reference` replay
//! and every conformance suite pin the bounded implementations too.

#![forbid(unsafe_code)]

pub mod frontier;
pub mod stream;
pub mod visited;

pub use frontier::{SpillBacking, SpillConfig, SpillQueue};
pub use stream::{stream_site, PackedStore, StreamingSite};
pub use visited::VisitedSet;
