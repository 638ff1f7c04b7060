//! Early stopping (Sec 4.8).
//!
//! Every ν iterations the crawler computes the slope
//! `σ = (y_t − y_{t−ν}) / ν` of the target-discovery curve and folds it into
//! an exponential moving average `μ ← γ·σ + (1 − γ)·μ`. If μ stays below a
//! threshold ε for κ consecutive slopes (κ·ν iterations), the crawl stops.
//! Paper defaults: ν = 1000, ε = 0.2, γ = 0.05, κ = 15. ε and γ are the
//! paper's constants; ν and κ are settable (ν scales with the site).

/// Early-stopping parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopConfig {
    /// Slope sampling period ν, in crawl iterations.
    pub nu: u64,
    /// Consecutive low-μ slopes required, κ.
    pub kappa: u32,
}

impl Default for EarlyStopConfig {
    fn default() -> Self {
        EarlyStopConfig { nu: 1000, kappa: 15 }
    }
}

impl EarlyStopConfig {
    /// Slope threshold ε.
    pub const EPSILON: f64 = 0.2;
    /// EMA decay γ.
    pub const GAMMA: f64 = 0.05;

    /// Scales ν to a reduced-size site so the κ·ν stopping horizon keeps the
    /// same proportion of the site as at paper scale.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.nu = ((self.nu as f64 * factor).round() as u64).max(10);
        self
    }
}

/// The early-stopping monitor.
#[derive(Debug, Clone)]
pub(crate) struct EarlyStop {
    cfg: EarlyStopConfig,
    mu: f64,
    last_y: f64,
    low_streak: u32,
    checks: u64,
    /// Last iteration folded into the EMA: a pipelined session can run the
    /// stop check several times at one crawl step (one per selection pulled
    /// while refilling the window); each slope must count once.
    last_t: Option<u64>,
    triggered_at: Option<u64>,
}

impl EarlyStop {
    pub(crate) fn new(cfg: EarlyStopConfig) -> Self {
        // μ starts at ε so a crawl cannot stop before the first real slopes
        // arrive (the paper's mechanism needs κ·ν iterations minimum).
        EarlyStop {
            mu: EarlyStopConfig::EPSILON,
            cfg,
            last_y: 0.0,
            low_streak: 0,
            checks: 0,
            last_t: None,
            triggered_at: None,
        }
    }

    /// Step `t` just finished with `y` targets retrieved so far. Returns
    /// true when the crawl should stop.
    pub(crate) fn observe(&mut self, t: u64, y: f64) -> bool {
        if self.triggered_at.is_some() {
            return true;
        }
        if t == 0 || !t.is_multiple_of(self.cfg.nu) || self.last_t == Some(t) {
            return false;
        }
        self.last_t = Some(t);
        let sigma = (y - self.last_y) / self.cfg.nu as f64;
        self.last_y = y;
        self.mu = EarlyStopConfig::GAMMA * sigma + (1.0 - EarlyStopConfig::GAMMA) * self.mu;
        self.checks += 1;
        if self.mu < EarlyStopConfig::EPSILON {
            self.low_streak += 1;
        } else {
            self.low_streak = 0;
        }
        if self.low_streak >= self.cfg.kappa {
            self.triggered_at = Some(t);
            return true;
        }
        false
    }

    /// Iteration at which stopping triggered, if it did.
    pub(crate) fn triggered_at(&self) -> Option<u64> {
        self.triggered_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nu: u64, kappa: u32) -> EarlyStopConfig {
        EarlyStopConfig { nu, kappa }
    }

    #[test]
    fn stops_on_exhausted_discovery() {
        let mut es = EarlyStop::new(cfg(10, 5));
        let mut stopped = None;
        // 60 steps of strong discovery, then nothing.
        let mut y = 0.0;
        for t in 1..=2000u64 {
            if t <= 60 {
                y += 5.0;
            }
            if es.observe(t, y) {
                stopped = Some(t);
                break;
            }
        }
        let t = stopped.expect("must stop once discovery dries up");
        assert!(t > 60, "not before discovery ends");
        assert_eq!(es.triggered_at(), Some(t));
    }

    #[test]
    fn never_stops_on_continuous_discovery() {
        let mut es = EarlyStop::new(cfg(10, 5));
        let mut y = 0.0;
        for t in 1..=5000u64 {
            y += 1.0; // slope 1.0 ≫ ε = 0.2 forever
            assert!(!es.observe(t, y), "stopped at t={t} despite steady discovery");
        }
    }

    #[test]
    fn needs_kappa_consecutive_low_slopes() {
        let mut es = EarlyStop::new(cfg(10, 3));
        let mut y = 0.0;
        let mut t = 0u64;
        // Two dry periods of 2 checks each, separated by a burst: no stop.
        for phase in 0..2 {
            let _ = phase;
            for _ in 0..20 {
                t += 1;
                assert!(!es.observe(t, y));
            }
            y += 100.0; // burst resets the streak
            t += 1;
            assert!(!es.observe(t, y));
        }
        // Now a real drought: the EMA must first decay below ε (the bursts
        // pushed μ up), then hold a 3-check streak.
        let mut stopped = false;
        for _ in 0..600 {
            t += 1;
            if es.observe(t, y) {
                stopped = true;
                break;
            }
        }
        assert!(stopped);
    }

    #[test]
    fn no_trigger_before_kappa_nu_iterations() {
        let es_cfg = cfg(10, 5);
        let mut es = EarlyStop::new(es_cfg);
        // Even with zero discovery from the start, stopping needs ≥ κ·ν.
        let mut first_stop = None;
        for t in 1..=1000u64 {
            if es.observe(t, 0.0) {
                first_stop = Some(t);
                break;
            }
        }
        let t = first_stop.unwrap();
        assert!(t >= u64::from(es_cfg.kappa) * es_cfg.nu, "stopped too early at {t}");
    }

    #[test]
    fn scaled_nu() {
        let c = EarlyStopConfig::default().scaled(0.02);
        assert_eq!(c.nu, 20);
        let tiny = EarlyStopConfig::default().scaled(1e-9);
        assert_eq!(tiny.nu, 10, "ν is floored");
    }

    #[test]
    fn sticky_after_trigger() {
        let mut es = EarlyStop::new(cfg(5, 2));
        let mut t = 0;
        while !es.observe(t, 0.0) {
            t += 1;
            assert!(t < 10_000);
        }
        assert!(es.observe(t + 1, 1e9), "trigger must be sticky");
    }
}
