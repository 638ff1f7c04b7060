//! Property tests for the bandit policies.

mod oracle;

use oracle::ArmView;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sb_bandit::{ArmStats, Policy, ALPHA_DEFAULT};

fn arb_arms() -> impl Strategy<Value = Vec<(u64, f64, bool)>> {
    proptest::collection::vec((0u64..50, 0.0f64..20.0, proptest::bool::ANY), 1..30)
}

fn stats(pulls: u64, mean: f64) -> ArmStats {
    let mut stats = ArmStats::default();
    for _ in 0..pulls {
        stats.select();
        stats.reward(mean);
    }
    stats
}

fn arms_of(arms: &[(u64, f64, bool)]) -> (Vec<ArmStats>, Vec<bool>) {
    arms.iter().map(|&(pulls, mean, available)| (stats(pulls, mean), available)).unzip()
}

/// The frozen policy struct a variant replaced, behind the frozen trait.
fn oracle_select(
    policy: Policy,
    arms: &[ArmStats],
    awake: &[bool],
    t: u64,
    rng: &mut StdRng,
) -> Option<usize> {
    use oracle::Policy as _;
    let views: Vec<ArmView> =
        arms.iter().zip(awake).map(|(&stats, &available)| ArmView { stats, available }).collect();
    match policy {
        Policy::Auer { alpha } => oracle::Auer::new(alpha).select(&views, t, rng),
        Policy::Ucb1 { alpha } => oracle::Ucb1 { alpha }.select(&views, t, rng),
        Policy::EpsilonGreedy { epsilon } => oracle::EpsilonGreedy { epsilon }.select(&views, t, rng),
        Policy::Thompson { sigma } => oracle::ThompsonSampling { sigma }.select(&views, t, rng),
    }
}

/// Arm statistics with many exact ties: few distinct rewards and pull
/// counts, some pulls never rewarded (a pull without an observation), and
/// seven arms in ten awake.
fn arb_arm() -> impl Strategy<Value = (u64, Vec<f64>, bool)> {
    let reward = (0u8..4, -5.0f64..50.0).prop_map(|(k, r)| [0.0, 1.0, 3.0, r][k as usize]);
    (0u64..4, proptest::collection::vec(reward, 0..6), (0u8..10).prop_map(|k| k < 7))
}

/// Every variant, at its default parameter, at an edge, anywhere in a
/// linear range or across orders of magnitude (a small α is what lets a
/// fresh arm's ε-smoothed bonus compete with a mean).
fn arb_policy() -> impl Strategy<Value = Policy> {
    (0u8..4, 0u8..4, 0.0f64..1.0).prop_map(|(variant, pick, u)| {
        let param = |default: f64, edge: f64, hi: f64, decades: f64| {
            [default, edge, u * hi, hi * 10f64.powf(-decades * u)][pick as usize]
        };
        match variant {
            0 => Policy::Auer { alpha: param(ALPHA_DEFAULT, 0.0, 50.0, 7.0) },
            1 => Policy::Ucb1 { alpha: param(ALPHA_DEFAULT, 0.0, 50.0, 7.0) },
            2 => Policy::EpsilonGreedy { epsilon: param(0.1, 1.0, 1.0, 3.0) },
            _ => Policy::Thompson { sigma: param(1.0, 0.0, 5.0, 4.0) },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The enum replays the policy structs it replaced: over arbitrary arm
    /// statistics, availability, `t` and seed, and over a run of picks
    /// whose outcomes feed back into the arms, every variant returns the
    /// oracle's arm and leaves its RNG where the oracle leaves its own —
    /// the next `u64` drawn from each is equal.
    #[test]
    fn select_replays_the_frozen_policy_structs(
        policy in arb_policy(),
        arms in proptest::collection::vec(arb_arm(), 0..12),
        // Half the cases start at the `t ≤ 1` edge of `log t`.
        t in (proptest::bool::ANY, 0u64..10_000).prop_map(|(early, t)| if early { t % 3 } else { t }),
        seed in any::<u64>(),
        steps in 1usize..8,
    ) {
        let mut stats: Vec<ArmStats> = arms
            .iter()
            .map(|(silent, rewards, _)| {
                let mut s = ArmStats::default();
                for _ in 0..*silent {
                    s.select();
                }
                for &r in rewards {
                    s.select();
                    s.reward(r);
                }
                s
            })
            .collect();
        let mut awake: Vec<bool> = arms.iter().map(|a| a.2).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = rng.clone();
        for step in 0..steps as u64 {
            let got = policy.select(&stats, |a| awake[a], t + step, &mut rng);
            let want = oracle_select(policy, &stats, &awake, t + step, &mut oracle_rng);
            prop_assert_eq!(got, want, "step {}", step);
            prop_assert_eq!(rng.clone().next_u64(), oracle_rng.clone().next_u64(), "step {}", step);
            let Some(a) = got else { break };
            stats[a].select();
            stats[a].reward(rng.gen_range(0.0..10.0));
            oracle_rng.gen_range(0.0..10.0);
            // The picked arm's pool may have drained.
            if rng.gen_bool(0.3) {
                awake[a] = false;
            }
            oracle_rng.gen_bool(0.3);
        }
    }

    /// No policy ever selects a sleeping arm; all return None iff every arm
    /// sleeps. The sleeping-bandit contract, for all four policies.
    #[test]
    fn policies_respect_sleeping(arms in arb_arms(), t in 1u64..10_000, seed in 0u64..100) {
        let (stats, awake) = arms_of(&arms);
        let any_available = awake.iter().any(|&a| a);
        let mut rng = StdRng::seed_from_u64(seed);
        for policy in [
            Policy::default(),
            Policy::Ucb1 { alpha: ALPHA_DEFAULT },
            Policy::EpsilonGreedy { epsilon: 0.1 },
            Policy::Thompson { sigma: 1.0 },
        ] {
            match policy.select(&stats, |a| awake[a], t, &mut rng) {
                Some(i) => prop_assert!(awake[i], "selected sleeping arm {i}"),
                None => prop_assert!(!any_available, "None despite available arms"),
            }
        }
    }

    /// AUER is deterministic: the same arms and t always give the same arm.
    #[test]
    fn auer_deterministic(arms in arb_arms(), t in 1u64..10_000) {
        let (stats, awake) = arms_of(&arms);
        let p = Policy::default();
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(2);
        prop_assert_eq!(
            p.select(&stats, |a| awake[a], t, &mut rng1),
            p.select(&stats, |a| awake[a], t, &mut rng2)
        );
    }

    /// The AUER score is monotone in the mean: raising an arm's mean (same
    /// pulls) never lowers its score. Seen through `select` on a two-arm
    /// pair with the raised arm first: the second arm displaces it only on
    /// a strictly higher score, so the raised arm must keep the pick.
    #[test]
    fn auer_score_monotone_in_mean(pulls in 1u64..100, m1 in 0.0f64..10.0, bump in 0.0f64..10.0, t in 2u64..10_000) {
        let (raised, base) = (stats(pulls, m1 + bump), stats(pulls, m1));
        let mut rng = StdRng::seed_from_u64(0);
        prop_assert_eq!(Policy::default().select(&[raised, base], |_| true, t, &mut rng), Some(0));
    }

    /// Pulls of one arm in flight settle in any order, with a reward or
    /// without one: after every settled pull the mean is Algorithm 4
    /// replayed over the settled pulls in settle order — `N` counts the
    /// settled pulls, a pull without an observation leaves the mean and
    /// still counts — and the STD is what one-at-a-time pulls of the same
    /// outcomes leave. `pulls` counts every selection.
    #[test]
    fn settled_mean_replays_algorithm_4_in_settle_order(
        ops in proptest::collection::vec((0u8..3, -5.0f64..50.0), 1..80),
    ) {
        let mut arm = ArmStats::default();
        let (mut selected, mut pending) = (0u64, 0u64);
        let mut settled: Vec<Option<f64>> = Vec::new();
        for (kind, r) in ops {
            if kind == 0 || pending == 0 {
                arm.select();
                selected += 1;
                pending += 1;
                continue;
            }
            let outcome = (kind == 1).then_some(r);
            match outcome {
                Some(r) => arm.reward(r),
                None => arm.settle(),
            }
            pending -= 1;
            settled.push(outcome);

            let (mut n, mut mean) = (0.0f64, 0.0f64);
            for o in &settled {
                n += 1.0;
                if let Some(r) = o {
                    mean += (r - mean) / n;
                }
            }
            prop_assert_eq!(arm.mean.to_bits(), mean.to_bits(), "after {} settled", settled.len());
            let mut one_at_a_time = ArmStats::default();
            for o in &settled {
                one_at_a_time.select();
                match o {
                    Some(r) => one_at_a_time.reward(*r),
                    None => one_at_a_time.settle(),
                }
            }
            prop_assert_eq!(arm.std().to_bits(), one_at_a_time.std().to_bits());
        }
        prop_assert_eq!(arm.pulls, selected);
    }

    /// Incremental arm statistics match the batch formulas for any reward
    /// sequence.
    #[test]
    fn arm_stats_match_batch(rewards in proptest::collection::vec(-5.0f64..50.0, 1..60)) {
        let mut a = ArmStats::default();
        for &r in &rewards {
            a.select();
            a.reward(r);
        }
        let n = rewards.len() as f64;
        let mean = rewards.iter().sum::<f64>() / n;
        prop_assert!((a.mean - mean).abs() < 1e-9);
        if rewards.len() >= 2 {
            let var = rewards.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((a.std() - var.sqrt()).abs() < 1e-7);
        }
    }
}
