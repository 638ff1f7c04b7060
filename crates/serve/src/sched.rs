//! The freshness-SLA refresh planner: which known URLs to refetch this
//! epoch, and in what order.
//!
//! Per epoch the planner draws a candidate pool from the active
//! [`RevisitPolicy`] (the same `begin_epoch` → `next` loop the recrawl
//! harness drives, so the policy's own exploration shapes the pool),
//! then ranks candidates by
//!
//! ```text
//! priority(url) = estimate(url) × (1 + ln(1 + reads(url)))
//! ```
//!
//! — estimated change probability (from [`RevisitPolicy::estimate`])
//! weighted by read popularity (the [`SnapshotStore`]'s per-slot read
//! counters), so a page that is both likely stale *and* heavily read is
//! refreshed first. Ties and float equality break on URL order, which
//! keeps the plan byte-reproducible for a fixed seed when the read
//! counters are quiescent (the determinism pin in `tests/`).

use crate::store::SnapshotStore;
use rand::rngs::StdRng;
use sb_crawler::strategies::finite_or_zero;
use sb_revisit::RevisitPolicy;

/// One planned refresh: the URL, the hash the refetch is compared
/// against, and the priority it was ranked with.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    pub url: String,
    /// Body hash of the version currently served (prior for change
    /// detection in the session's refresh path).
    pub prior_hash: u64,
    pub score: f64,
}

/// How many candidates the planner draws per planned slot before
/// ranking. A pool wider than the budget lets popularity re-order what
/// the policy would have visited in its own order.
pub(crate) const POOL_FACTOR: usize = 4;

/// Total `policy.next` draws the planner is willing to spend per call,
/// as a multiple of the pool it is trying to fill. Policies that sample
/// with replacement never answer `None`; without this bound a store that
/// knows fewer than `POOL_FACTOR × per_epoch` of the policy's URLs kept
/// the draw loop spinning forever (store-unknown URLs `continue` without
/// growing the pool). 8× lets a sampling policy re-offer generously —
/// the pool still fills whenever fills are possible — while bounding the
/// worst case.
pub(crate) const MAX_DRAW_FACTOR: usize = 8;

/// Plans one refresh epoch: draws up to `POOL_FACTOR × per_epoch`
/// candidates from `policy`, keeps those the store knows, ranks them by
/// estimated-change × read-popularity and returns the top `per_epoch`
/// in refresh order. The caller is responsible for `policy.begin_epoch()`
/// beforehand (the policy may also be mid-epoch; the planner just drains
/// what it is offered).
pub fn plan_epoch(
    store: &SnapshotStore,
    policy: &mut dyn RevisitPolicy,
    rng: &mut StdRng,
    per_epoch: usize,
) -> Vec<PlanEntry> {
    if per_epoch == 0 {
        return Vec::new();
    }
    let mut pool = Vec::with_capacity(per_epoch * POOL_FACTOR);
    // Bounded by *draw attempts*, not only by pool growth: a policy that
    // samples with replacement never returns `None`, and store-unknown
    // draws don't grow the pool — unbounded, that combination loops
    // forever (the PR 10 regression test pins this).
    let max_draws = MAX_DRAW_FACTOR * POOL_FACTOR * per_epoch;
    for _ in 0..max_draws {
        if pool.len() >= per_epoch * POOL_FACTOR {
            break;
        }
        let Some(url) = policy.next(rng) else { break };
        let Some(current) = store.peek(&url) else {
            continue;
        };
        // Clamp before ranking: a degenerate estimator's NaN/∞ would
        // otherwise break `partial_cmp`'s total order below and with it
        // the byte-reproducible-schedule pin.
        let score =
            finite_or_zero(policy.estimate(&url)) * (1.0 + (1.0 + store.reads(&url) as f64).ln());
        debug_assert!(score.is_finite(), "clamped estimate cannot rank non-finite");
        pool.push(PlanEntry {
            url,
            prior_hash: current.body_hash,
            score,
        });
    }
    pool.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.url.cmp(&b.url))
    });
    pool.truncate(per_epoch);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sb_httpsim::Body;
    use sb_revisit::ProportionalRevisit;

    fn seeded_store(urls: &[&str]) -> SnapshotStore {
        let store = SnapshotStore::new(0);
        for (k, url) in urls.iter().enumerate() {
            let bytes = vec![k as u8; 16];
            let hash = sb_revisit::fnv64(&bytes);
            store.commit(url, 200, Body::from(bytes), hash);
        }
        store
    }

    #[test]
    fn popularity_breaks_estimate_ties() {
        let urls = ["https://s/a", "https://s/b", "https://s/c"];
        let store = seeded_store(&urls);
        // Same estimate everywhere (fresh policy), but /c is read-hot.
        for _ in 0..50 {
            store.read("https://s/c");
        }
        let mut policy = ProportionalRevisit::default();
        for u in &urls {
            policy.register(u, "html body main a");
        }
        let mut rng = StdRng::seed_from_u64(3);
        policy.begin_epoch();
        let plan = plan_epoch(&store, &mut policy, &mut rng, 2);
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan[0].url, "https://s/c",
            "read-hot page planned first: {plan:?}"
        );
        assert!(plan[0].score > plan[1].score);
    }

    #[test]
    fn unknown_urls_are_skipped_and_budget_is_respected() {
        let store = seeded_store(&["https://s/a"]);
        let mut policy = ProportionalRevisit::default();
        policy.register("https://s/a", "html body main a");
        policy.register("https://s/ghost", "html body main a");
        let mut rng = StdRng::seed_from_u64(3);
        policy.begin_epoch();
        let plan = plan_epoch(&store, &mut policy, &mut rng, 8);
        assert_eq!(plan.len(), 1, "only store-known URLs are planned");
        assert_eq!(plan[0].url, "https://s/a");
        let expect = store.peek("https://s/a").unwrap().body_hash;
        assert_eq!(plan[0].prior_hash, expect);
    }

    /// A policy that samples with replacement: `next` never answers
    /// `None`, cycling over its registered URLs forever — the shape that
    /// hung the unbounded draw loop whenever the store knew fewer than
    /// `POOL_FACTOR × per_epoch` of them.
    struct NeverExhausting {
        urls: Vec<String>,
        draws: std::cell::Cell<usize>,
        estimate: f64,
        /// `Some(n)`: exhaust after `n` draws (one-pass mode for tests
        /// that want a duplicate-free pool). `None`: never exhaust.
        limit: Option<usize>,
    }

    impl NeverExhausting {
        fn over(urls: &[&str]) -> Self {
            NeverExhausting {
                urls: urls.iter().map(|s| s.to_string()).collect(),
                draws: std::cell::Cell::new(0),
                estimate: 1.0,
                limit: None,
            }
        }
    }

    impl RevisitPolicy for NeverExhausting {
        fn name(&self) -> String {
            "NEVER-EXHAUSTING".to_owned()
        }

        fn register(&mut self, url: &str, _in_path: &str) {
            self.urls.push(url.to_owned());
        }

        fn begin_epoch(&mut self) {}

        fn next(&mut self, _rng: &mut StdRng) -> Option<String> {
            let k = self.draws.get();
            if self.limit.is_some_and(|n| k >= n) {
                return None;
            }
            self.draws.set(k + 1);
            Some(self.urls[k % self.urls.len()].clone())
        }

        fn observe(&mut self, _url: &str, _obs: &sb_revisit::Observation) {}

        fn estimate(&self, _url: &str) -> f64 {
            self.estimate
        }
    }

    /// Regression (PR 10): a never-exhausting policy over a store that
    /// knows fewer URLs than the pool it wants must terminate — bounded
    /// by total draw attempts — and still plan everything plannable.
    #[test]
    fn never_exhausting_policy_terminates_and_plans_known_urls() {
        // Store knows 2 URLs; the pool wants POOL_FACTOR × 8 = 32; the
        // policy happily re-offers ghosts forever.
        let store = seeded_store(&["https://s/a", "https://s/b"]);
        let mut policy =
            NeverExhausting::over(&["https://s/a", "https://s/b", "https://s/ghost"]);
        let mut rng = StdRng::seed_from_u64(5);
        let plan = plan_epoch(&store, &mut policy, &mut rng, 8);
        let drawn = policy.draws.get();
        assert!(drawn <= MAX_DRAW_FACTOR * POOL_FACTOR * 8, "draws bounded: {drawn}");
        // Only store-known URLs made the plan (a with-replacement policy
        // fills the pool with repeats; ghosts still never plan), capped
        // at the per-epoch budget.
        assert!(!plan.is_empty());
        assert!(plan.len() <= 8);
        assert!(plan.iter().all(|e| e.url != "https://s/ghost"), "{plan:?}");
    }

    /// Regression (PR 10): a NaN estimate is clamped to 0.0 before
    /// ranking, so the sort's total order — and with it the deterministic
    /// plan — survives a degenerate estimator. The NaN candidate ranks
    /// *last*, not arbitrarily.
    #[test]
    fn nan_estimates_are_clamped_not_ranked() {
        let store = seeded_store(&["https://s/a", "https://s/b", "https://s/c"]);
        let mut policy = NeverExhausting::over(&["https://s/a", "https://s/b", "https://s/c"]);
        policy.estimate = f64::NAN;
        policy.limit = Some(3); // one duplicate-free pass
        let mut rng = StdRng::seed_from_u64(5);
        let plan = plan_epoch(&store, &mut policy, &mut rng, 3);
        assert_eq!(plan.len(), 3);
        // All scores clamped to 0.0 × popularity = 0.0: pure URL order.
        assert!(plan.iter().all(|e| e.score == 0.0), "{plan:?}");
        let urls: Vec<&str> = plan.iter().map(|e| e.url.as_str()).collect();
        assert_eq!(urls, vec!["https://s/a", "https://s/b", "https://s/c"]);
    }

    #[test]
    fn plan_is_deterministic_for_a_fixed_seed() {
        let urls: Vec<String> = (0..20).map(|k| format!("https://s/p{k}")).collect();
        let refs: Vec<&str> = urls.iter().map(|s| s.as_str()).collect();
        let plans: Vec<Vec<String>> = (0..2)
            .map(|_| {
                let store = seeded_store(&refs);
                let mut policy = ProportionalRevisit::default();
                for u in &urls {
                    policy.register(u, "html body main a");
                }
                let mut rng = StdRng::seed_from_u64(77);
                policy.begin_epoch();
                plan_epoch(&store, &mut policy, &mut rng, 6)
                    .into_iter()
                    .map(|e| e.url)
                    .collect()
            })
            .collect();
        assert_eq!(plans[0], plans[1]);
        assert_eq!(plans[0].len(), 6);
    }
}
