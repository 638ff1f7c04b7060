//! Per-arm statistics with incremental mean updates.

/// Running statistics of one bandit arm.
///
/// A pull is *selected* ([`ArmStats::select`]) and later *settled*: with a
/// reward observation ([`ArmStats::reward`]) or without one
/// ([`ArmStats::settle`] — Algorithm 4's early return for a fetch that was
/// not HTML, or one that failed). The mean update is Algorithm 4's
/// `R_mean(a) ← R_mean(a) + (reward − R_mean(a)) / N(a)` with `N(a)` the
/// pulls settled so far, this one included. With several pulls of one arm
/// in flight the mean is therefore Algorithm 4 replayed over the pulls in
/// the order they settled; one pull at a time, `N(a)` is `N_t(a)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArmStats {
    /// `N_t(a)`: how many times the arm was selected, settled or not. The
    /// exploration terms count pending pulls too.
    pub pulls: u64,
    /// `R̄_t(a)`: mean reward, Algorithm 4 over the settled pulls.
    pub mean: f64,
    /// Pulls settled so far, with or without a reward.
    settled: u64,
    /// Sum of squared deviations (Welford) — for the Table 6 STD column.
    m2: f64,
}

impl ArmStats {
    /// Registers a selection of this arm (increments `N_t(a)`).
    pub fn select(&mut self) {
        self.pulls += 1;
    }

    /// Settles one pending pull with reward `r`, by the incremental-mean
    /// rule over the settled pulls.
    pub fn reward(&mut self, r: f64) {
        self.settle();
        let n = self.settled as f64;
        let delta = r - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (r - self.mean);
    }

    /// Settles one pending pull without an observation: the mean stays,
    /// and the next reward divides by one more.
    pub fn settle(&mut self) {
        debug_assert!(self.settled < self.pulls, "a pull settled before it was selected");
        self.settled += 1;
    }

    /// Sample standard deviation of observed rewards.
    pub fn std(&self) -> f64 {
        if self.settled < 2 {
            0.0
        } else {
            (self.m2 / (self.settled - 1) as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_mean_matches_batch_mean() {
        let rewards = [3.0, 0.0, 5.0, 1.0, 1.0, 12.0];
        let mut a = ArmStats::default();
        for &r in &rewards {
            a.select();
            a.reward(r);
        }
        let batch = rewards.iter().sum::<f64>() / rewards.len() as f64;
        assert!((a.mean - batch).abs() < 1e-12);
        assert_eq!(a.pulls, 6);
    }

    #[test]
    fn std_matches_formula() {
        let rewards = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut a = ArmStats::default();
        for &r in &rewards {
            a.select();
            a.reward(r);
        }
        // Sample std of this classic dataset is ~2.138.
        assert!((a.std() - 2.138).abs() < 0.01, "{}", a.std());
    }

    #[test]
    fn selection_without_reward_counts_pull() {
        // Algorithm 3 increments N_t(a) at selection; the reward may be 0
        // or arrive later.
        let mut a = ArmStats::default();
        a.select();
        assert_eq!(a.pulls, 1);
        assert_eq!(a.mean, 0.0);
    }
}
