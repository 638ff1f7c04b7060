//! Multi-armed bandit arm selection for single-state reinforcement
//! learning (Sec 3.2 and the related-work appendix).
//!
//! The paper's crawler is a **sleeping bandit**: arms (actions = tag-path
//! clusters) appear during the crawl and become unavailable ("sleep") when
//! all their frontier links have been visited. The caller owns its arms —
//! one [`ArmStats`] each — and knows which are awake; [`Policy::select`]
//! reads both in place and returns the arm to play. The production policy
//! is [`Policy::Auer`] — the Awake Upper-Estimated Reward adaptation of
//! UCB \[34\] — with `α = 2√2`, the [`Default`]; [`Policy::Ucb1`],
//! [`Policy::EpsilonGreedy`] and [`Policy::Thompson`] are the alternatives
//! discussed in the paper's appendix, kept for the ablation.

#![forbid(unsafe_code)]

mod arm;

pub use arm::ArmStats;
use rand::Rng;

/// The paper's exploration coefficient `α = 2√2`.
pub const ALPHA_DEFAULT: f64 = 2.0 * std::f64::consts::SQRT_2;

/// The ε of the AUER score denominator `N_t(a) + ε` (prevents division by
/// zero for never-pulled arms).
const EPS: f64 = 1e-6;

/// How an arm is picked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Awake Upper-Estimated Reward \[34\], the paper's policy:
    /// `s(a) = 1_a(t) · (R̄_t(a) + α·√(log t / (N_t(a) + ε)))`.
    /// Deterministic — the paper chose it partly for run-to-run stability.
    Auer { alpha: f64 },
    /// UCB1 \[3\] restricted to awake arms, with the classic
    /// play-each-arm-once initialisation rather than the ε-smoothed score.
    Ucb1 { alpha: f64 },
    /// With probability ε explore an awake arm uniformly, otherwise exploit
    /// the best mean.
    EpsilonGreedy { epsilon: f64 },
    /// Gaussian Thompson sampling: sample a mean estimate from
    /// `N(R̄, σ² / (N+1))` per awake arm, play the argmax. The paper
    /// excluded it for stability and missing priors.
    Thompson { sigma: f64 },
}

impl Default for Policy {
    fn default() -> Self {
        Policy::Auer { alpha: ALPHA_DEFAULT }
    }
}

impl Policy {
    /// Picks an arm index among `arms`, or `None` if none is awake.
    /// `awake(a)` is the availability bit `1_a(t)`, `t` the crawl step (the
    /// paper's `t`); `rng` serves the stochastic policies, the
    /// deterministic ones never touch it. Ties go to the lowest index.
    pub fn select<R: Rng + ?Sized>(
        &self,
        arms: &[ArmStats],
        awake: impl Fn(usize) -> bool,
        t: u64,
        rng: &mut R,
    ) -> Option<usize> {
        let log_t = (t.max(1) as f64).ln();
        match *self {
            Policy::Auer { alpha } => argmax(arms, &awake, |a| {
                a.mean + alpha * (log_t / (a.pulls as f64 + EPS)).sqrt()
            }),
            Policy::Ucb1 { alpha } => {
                // Untried arms first, in index order.
                if let Some(i) = (0..arms.len()).find(|&i| awake(i) && arms[i].pulls == 0) {
                    return Some(i);
                }
                argmax(arms, &awake, |a| a.mean + alpha * (log_t / a.pulls as f64).sqrt())
            }
            Policy::EpsilonGreedy { epsilon } => {
                let mut awake_arms = (0..arms.len()).filter(|&i| awake(i));
                let n_awake = awake_arms.clone().count();
                if n_awake == 0 {
                    return None;
                }
                if rng.gen_bool(epsilon) {
                    return awake_arms.nth(rng.gen_range(0..n_awake));
                }
                argmax(arms, &awake, |a| a.mean)
            }
            Policy::Thompson { sigma } => argmax(arms, &awake, |a| {
                let sd = (sigma * sigma / (a.pulls as f64 + 1.0)).sqrt();
                a.mean + sd * standard_normal(rng)
            }),
        }
    }
}

/// The first awake arm of maximal score. `score` runs once per awake arm,
/// in index order (Thompson draws inside it).
fn argmax(
    arms: &[ArmStats],
    awake: impl Fn(usize) -> bool,
    mut score: impl FnMut(&ArmStats) -> f64,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, a) in arms.iter().enumerate() {
        if !awake(i) {
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

/// One standard-normal draw by Box–Muller: two uniform draws, `u1` from
/// `[ε, 1)` and then `u2` from `[0, 1)`.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arm(pulls: u64, mean: f64) -> ArmStats {
        let mut stats = ArmStats::default();
        for _ in 0..pulls {
            stats.select();
            stats.reward(mean); // constant rewards ⇒ mean exact
        }
        stats
    }

    fn all_awake(_: usize) -> bool {
        true
    }

    #[test]
    fn auer_ignores_sleeping_arms() {
        let arms = [arm(5, 100.0), arm(5, 1.0)];
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Policy::default().select(&arms, |a| a == 1, 10, &mut rng), Some(1));
    }

    #[test]
    fn auer_all_sleeping_is_none() {
        let arms = [arm(5, 10.0), arm(1, 3.0)];
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Policy::default().select(&arms, |_| false, 10, &mut rng), None);
    }

    #[test]
    fn auer_fresh_arm_gets_huge_exploration_bonus() {
        // N = 0 ⇒ bonus α√(log t / ε) dwarfs any realistic mean, whichever
        // side of the tie rule the fresh arm sits on.
        let mut rng = StdRng::seed_from_u64(0);
        let p = Policy::default();
        assert_eq!(p.select(&[arm(0, 0.0), arm(1000, 50.0)], all_awake, 100, &mut rng), Some(0));
        assert_eq!(p.select(&[arm(1000, 50.0), arm(0, 0.0)], all_awake, 100, &mut rng), Some(1));
    }

    #[test]
    fn auer_exploits_after_enough_pulls() {
        // Both arms well-pulled; higher mean must win.
        let arms = [arm(500, 2.0), arm(500, 10.0)];
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Policy::default().select(&arms, all_awake, 1000, &mut rng), Some(1));
    }

    #[test]
    fn auer_alpha_controls_exploration() {
        // With huge α, the less-pulled arm wins even with a worse mean.
        let arms = [arm(1000, 5.0), arm(10, 1.0)];
        let explore = Policy::Auer { alpha: 50.0 };
        let exploit = Policy::Auer { alpha: 0.01 };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(explore.select(&arms, all_awake, 2000, &mut rng), Some(1));
        assert_eq!(exploit.select(&arms, all_awake, 2000, &mut rng), Some(0));
    }

    #[test]
    fn auer_is_deterministic() {
        let arms = [arm(5, 1.0), arm(7, 2.0), arm(2, 0.5)];
        let p = Policy::default();
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(999);
        assert_eq!(p.select(&arms, all_awake, 50, &mut rng1), p.select(&arms, all_awake, 50, &mut rng2));
    }

    #[test]
    fn ucb1_plays_untried_first() {
        let arms = [arm(5, 10.0), arm(0, 0.0)];
        let mut rng = StdRng::seed_from_u64(0);
        let p = Policy::Ucb1 { alpha: ALPHA_DEFAULT };
        assert_eq!(p.select(&arms, all_awake, 10, &mut rng), Some(1));
    }

    #[test]
    fn egreedy_mostly_exploits() {
        let p = Policy::EpsilonGreedy { epsilon: 0.1 };
        let arms = [arm(50, 1.0), arm(50, 9.0)];
        let mut rng = StdRng::seed_from_u64(42);
        let picks: Vec<usize> =
            (0..200).filter_map(|t| p.select(&arms, all_awake, t, &mut rng)).collect();
        let best = picks.iter().filter(|&&i| i == 1).count();
        assert!(best > 160, "exploited {best}/200");
    }

    #[test]
    fn thompson_prefers_better_arm_asymptotically() {
        let p = Policy::Thompson { sigma: 1.0 };
        let arms = [arm(200, 1.0), arm(200, 8.0)];
        let mut rng = StdRng::seed_from_u64(7);
        let picks: Vec<usize> =
            (0..200).filter_map(|t| p.select(&arms, all_awake, t, &mut rng)).collect();
        let best = picks.iter().filter(|&&i| i == 1).count();
        assert!(best > 190, "best arm picked {best}/200");
    }

    /// Regret smoke test: on a stationary 3-arm problem AUER's cumulative
    /// reward approaches the best arm's rate.
    #[test]
    fn auer_regret_sublinear() {
        let mut rng = StdRng::seed_from_u64(3);
        let means = [1.0, 3.0, 5.0];
        let mut stats = [ArmStats::default(); 3];
        let policy = Policy::default();
        let mut total = 0.0;
        let horizon = 3000u64;
        for t in 1..=horizon {
            let i = policy.select(&stats, all_awake, t, &mut rng).unwrap();
            // Noisy reward around the true mean.
            let noise: f64 = rng.gen_range(-0.5..0.5);
            let r = means[i] + noise;
            stats[i].select();
            stats[i].reward(r);
            total += r;
        }
        let best_possible = 5.0 * horizon as f64;
        assert!(total > 0.80 * best_possible, "total {total} vs best {best_possible}");
    }
}
