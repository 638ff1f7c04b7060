//! Parallel execution of experiment run matrices.

use sb_crawler::Budget;
use sb_crawler::EarlyStopConfig;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::setup::SbTuning;

/// Per-run options shared by all experiments.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub budget: Budget,
    pub early_stop: Option<EarlyStopConfig>,
    pub keep_bodies: bool,
    /// Scale, for phase sizing (TP-OFF) — not site sizing.
    pub scale: f64,
    pub sb: SbTuning,
    /// In-flight window (PR 10): `1` is the exact sequential engine; a
    /// batching strategy ranks its frontier once per window-fill at
    /// wider settings (`xp quality`'s batch ladder).
    pub max_in_flight: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            budget: Budget::Unlimited,
            early_stop: None,
            keep_bodies: false,
            scale: 0.01,
            sb: SbTuning::default(),
            max_in_flight: 1,
        }
    }
}

/// Maps `f` over `items` on `jobs` worker threads, preserving order.
///
/// Work is handed out through a single atomic cursor (dynamic load
/// balancing) and every worker writes into its own local buffer, so there
/// is **no shared-state contention** on the results: buffers are merged by
/// original index after the workers join.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, items.len());
    if jobs == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            buckets.push(h.join().expect("worker panicked"));
        }
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("every item processed")).collect()
}

/// Mean of an iterator of f64 (None on empty).
pub fn mean(xs: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for x in xs {
        sum += x;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// Averages `Option<f64>` run metrics: any `None` (never reached 90 %)
/// makes the aggregate `None`, matching the paper's `+∞` convention.
pub fn mean_or_inf(xs: &[Option<f64>]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(Option::is_none) {
        return None;
    }
    mean(xs.iter().map(|x| x.expect("checked")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_job() {
        let out = par_map(&[1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<i32> = par_map(&[] as &[i32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn mean_or_inf_propagates_none() {
        assert_eq!(mean_or_inf(&[Some(1.0), None]), None);
        assert_eq!(mean_or_inf(&[Some(1.0), Some(3.0)]), Some(2.0));
        assert_eq!(mean_or_inf(&[]), None);
    }
}
