//! Multi-armed bandit algorithms for single-state reinforcement learning
//! (Sec 3.2 and the related-work appendix).
//!
//! The paper's crawler is a **sleeping bandit**: arms (actions = tag-path
//! clusters) appear during the crawl and become unavailable ("sleep") when
//! all their frontier links have been visited. The production policy is
//! [`Auer`] — the Awake Upper-Estimated Reward adaptation of UCB \[34\] — with
//! `α = 2√2`; [`Ucb1`], [`EpsilonGreedy`] and [`ThompsonSampling`] are the
//! alternatives discussed in the paper's appendix, kept here for the
//! ablation benches.

#![forbid(unsafe_code)]

pub mod arm;
pub mod policies;

pub use arm::ArmStats;
pub use policies::{Auer, EpsilonGreedy, Policy, ThompsonSampling, Ucb1, ALPHA_DEFAULT};
