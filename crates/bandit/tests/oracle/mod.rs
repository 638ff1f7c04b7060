//! The frozen oracle of arm selection: the `Policy` trait, its four policy
//! structs and the per-pick `ArmView` copy as they stood before the policy
//! became one enum over the caller's arms.
//!
//! The bodies below are that code verbatim; only the imports changed
//! (`ArmStats` and `ALPHA_DEFAULT` come from the crate root).
//! `proptest_bandit.rs` holds `sb_bandit::Policy::select` to it: the same
//! arm and the same RNG state afterwards, for every variant.
//! Keep it frozen — it is the only place the four policy structs still
//! exist.

#![allow(dead_code)]

use rand::Rng;
use sb_bandit::{ArmStats, ALPHA_DEFAULT};

/// The ε of the AUER score denominator `N_t(a) + ε` (prevents division by
/// zero for never-pulled arms).
pub const EPS: f64 = 1e-6;

/// What a policy sees of one arm at selection time.
#[derive(Debug, Clone, Copy)]
pub struct ArmView {
    pub stats: ArmStats,
    /// `1_a(t)`: does the arm still have unvisited links?
    pub available: bool,
}

/// An arm-selection policy.
pub trait Policy {
    /// Picks an arm index among `arms`, or `None` if none is available.
    /// `t` is the crawl step (the paper's `t`), `rng` serves stochastic
    /// policies — deterministic ones ignore it (the paper chose AUER partly
    /// for run-to-run *stability*).
    fn select<R: Rng + ?Sized>(&mut self, arms: &[ArmView], t: u64, rng: &mut R) -> Option<usize>;

    fn name(&self) -> &'static str;
}

fn argmax_available(arms: &[ArmView], score: impl Fn(&ArmView) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, a) in arms.iter().enumerate() {
        if !a.available {
            continue;
        }
        let s = score(a);
        match best {
            Some((_, bs)) if s <= bs => {}
            _ => best = Some((i, s)),
        }
    }
    best.map(|(i, _)| i)
}

// ----------------------------------------------------------------------
// AUER sleeping bandit — the production policy
// ----------------------------------------------------------------------

/// Awake Upper-Estimated Reward \[34\]:
/// `s(a) = 1_a(t) · (R̄_t(a) + α·√(log t / (N_t(a) + ε)))`.
#[derive(Debug, Clone, Copy)]
pub struct Auer {
    pub alpha: f64,
}

impl Default for Auer {
    fn default() -> Self {
        Auer { alpha: ALPHA_DEFAULT }
    }
}

impl Auer {
    pub fn new(alpha: f64) -> Self {
        Auer { alpha }
    }

    /// The raw AUER score of one arm (exposed for tests and tracing).
    pub fn score(&self, arm: &ArmView, t: u64) -> f64 {
        if !arm.available {
            return 0.0;
        }
        let log_t = (t.max(1) as f64).ln();
        arm.stats.mean + self.alpha * (log_t / (arm.stats.pulls as f64 + EPS)).sqrt()
    }
}

impl Policy for Auer {
    fn select<R: Rng + ?Sized>(&mut self, arms: &[ArmView], t: u64, _rng: &mut R) -> Option<usize> {
        argmax_available(arms, |a| self.score(a, t))
    }

    fn name(&self) -> &'static str {
        "AUER"
    }
}

// ----------------------------------------------------------------------
// Plain UCB1 (no sleeping adaptation) — ablation baseline
// ----------------------------------------------------------------------

/// UCB1 \[3\] restricted to available arms but with the classic
/// play-each-arm-once initialisation rather than the ε-smoothed score.
#[derive(Debug, Clone, Copy)]
pub struct Ucb1 {
    pub alpha: f64,
}

impl Default for Ucb1 {
    fn default() -> Self {
        Ucb1 { alpha: ALPHA_DEFAULT }
    }
}

impl Policy for Ucb1 {
    fn select<R: Rng + ?Sized>(&mut self, arms: &[ArmView], t: u64, _rng: &mut R) -> Option<usize> {
        // Untried arms first, in index order.
        if let Some(i) = arms.iter().position(|a| a.available && a.stats.pulls == 0) {
            return Some(i);
        }
        let log_t = (t.max(1) as f64).ln();
        argmax_available(arms, |a| {
            a.stats.mean + self.alpha * (log_t / a.stats.pulls as f64).sqrt()
        })
    }

    fn name(&self) -> &'static str {
        "UCB1"
    }
}

// ----------------------------------------------------------------------
// ε-greedy — the simple alternative of the appendix
// ----------------------------------------------------------------------

/// With probability ε explore uniformly, otherwise exploit the best mean.
#[derive(Debug, Clone, Copy)]
pub struct EpsilonGreedy {
    pub epsilon: f64,
}

impl Default for EpsilonGreedy {
    fn default() -> Self {
        EpsilonGreedy { epsilon: 0.1 }
    }
}

impl Policy for EpsilonGreedy {
    fn select<R: Rng + ?Sized>(&mut self, arms: &[ArmView], _t: u64, rng: &mut R) -> Option<usize> {
        let avail: Vec<usize> =
            arms.iter().enumerate().filter(|(_, a)| a.available).map(|(i, _)| i).collect();
        if avail.is_empty() {
            return None;
        }
        if rng.gen_bool(self.epsilon) {
            return Some(avail[rng.gen_range(0..avail.len())]);
        }
        argmax_available(arms, |a| a.stats.mean)
    }

    fn name(&self) -> &'static str {
        "eps-greedy"
    }
}

// ----------------------------------------------------------------------
// Thompson sampling (Gaussian) — the Bayesian alternative of the appendix
// ----------------------------------------------------------------------

/// Gaussian Thompson sampling: sample a mean estimate from
/// `N(R̄, σ² / (N+1))` per arm, play the argmax. The paper excluded TS for
/// stability and missing priors; it lives here for the ablation bench.
#[derive(Debug, Clone, Copy)]
pub struct ThompsonSampling {
    /// Prior observation-noise scale.
    pub sigma: f64,
}

impl Default for ThompsonSampling {
    fn default() -> Self {
        ThompsonSampling { sigma: 1.0 }
    }
}

impl Policy for ThompsonSampling {
    fn select<R: Rng + ?Sized>(&mut self, arms: &[ArmView], _t: u64, rng: &mut R) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, a) in arms.iter().enumerate() {
            if !a.available {
                continue;
            }
            let sd = (self.sigma * self.sigma / (a.stats.pulls as f64 + 1.0)).sqrt();
            // Box–Muller.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let sample = a.stats.mean + sd * z;
            match best {
                Some((_, bs)) if sample <= bs => {}
                _ => best = Some((i, sample)),
            }
        }
        best.map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "Thompson"
    }
}
