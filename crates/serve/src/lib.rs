//! # sb-serve — continuous crawl-and-serve
//!
//! The serving half of the paper's data-acquisition story: the crawler
//! does not stop when the frontier drains — it keeps the acquired corpus
//! *fresh* while a read workload consumes it. This crate turns the
//! one-shot crawl (`sb-crawler`) plus the recrawl machinery
//! (`sb-revisit`) into a long-running subsystem:
//!
//! * [`cell::ArcCell`] — the snapshot primitive: a swappable `Arc<T>`
//!   behind a reader-writer lock. A reader waits at most for one pointer
//!   swap and never observes a torn value.
//! * [`store::SnapshotStore`] — versioned page store. Per-URL
//!   generations are monotonic, commits to one URL serialise on its
//!   bounded version history, and a read is two read-lock acquisitions
//!   plus a relaxed popularity bump — it never waits for a fetch, a body
//!   copy or a shelf clone.
//! * [`sched`] — the freshness-SLA planner: per origin epoch it ranks
//!   refresh candidates by *estimated change* ([`sb_revisit`] policies)
//!   × *read popularity* (store counters) and feeds the winners back
//!   into the live [`sb_crawler::CrawlSession`] via its refresh queue,
//!   so refresh and residual discovery share one politeness/budget
//!   window.
//! * [`read`] — the simulated read side: seeded Zipf readers measuring
//!   achieved QPS and age-at-read percentiles off a per-slot stale board.
//! * [`runtime`] — [`runtime::serve_site`] wires all of it into the
//!   continuous loop and reports `staleness_p50`/`p99` on its
//!   [`ServeOutcome`].
//!
//! Invariants pinned by this crate's tests: readers only ever observe
//! complete, previously-committed versions with per-URL monotone
//! generations (proptest interleaving), and with readers off at
//! `window == 1` the refresh schedule is byte-reproducible for a fixed
//! seed.

#![forbid(unsafe_code)]

pub mod cell;
pub mod read;
pub mod runtime;
pub mod sched;
pub mod store;

pub use cell::ArcCell;
pub use read::{ReadLoadConfig, ReadReport, Zipf};
pub use runtime::{serve_site, ServeConfig, ServeOutcome};
pub use sched::{plan_epoch, PlanEntry};
pub use store::{PageVersion, SnapshotStore};
