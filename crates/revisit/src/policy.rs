//! Revisit scheduling policies.
//!
//! A policy decides which known page to re-fetch next, one epoch at a time.
//! Within an epoch every policy visits each live page at most once (the
//! site does not change mid-epoch, so a second visit is pure waste); a
//! policy signals epoch completion by returning `None`.
//!
//! Four schedulers, mirroring the revisit literature the paper cites:
//!
//! * [`RoundRobinRevisit`] — uniform cycling, the classic baseline that Cho
//!   & Garcia-Molina showed is surprisingly hard to beat for freshness.
//! * [`ProportionalRevisit`] — revisit probability proportional to the
//!   estimated per-page change rate ([`crate::estimate::change_rate`]).
//! * [`ThompsonGroupsRevisit`] — Thompson sampling over *tag-path groups*
//!   (pages grouped by the DOM path of their in-link), per \[46\]'s finding
//!   that TS beats deterministic MABs for content discovery.
//! * [`SleepingBanditRevisit`] — the paper-native scheduler: AUER over the
//!   same tag-path groups, where a group *sleeps* once all its pages have
//!   been revisited this epoch — exactly the availability semantics the
//!   single-shot crawler uses for its frontier actions.

use rand::rngs::StdRng;
use rand::Rng;
use sb_bandit::{standard_normal, ArmStats, Policy};
use std::collections::{HashMap, HashSet, VecDeque};

/// What one revisit of one page revealed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observation {
    /// The body differs from the stored copy.
    pub changed: bool,
    /// New targets retrieved by following links that appeared on the page.
    pub new_targets: u64,
    /// The page now answers 4xx/5xx.
    pub died: bool,
}

/// A revisit scheduler. The harness drives it as:
/// `register*` (initial corpus) → per epoch: `begin_epoch`, then
/// (`next` → fetch → `observe`)* until `next` returns `None` or the budget
/// runs out. Every `observe` call matches the directly preceding `next`.
pub trait RevisitPolicy {
    fn name(&self) -> String;

    /// Adds a page to the schedule (initial corpus or discovered mid-run).
    fn register(&mut self, url: &str, in_path: &str);

    /// Resets per-epoch state (availability, quotas).
    fn begin_epoch(&mut self);

    /// Picks the next page to re-fetch, or `None` when the epoch's schedule
    /// is exhausted.
    fn next(&mut self, rng: &mut StdRng) -> Option<String>;

    /// Reports what the revisit of `url` revealed.
    fn observe(&mut self, url: &str, obs: &Observation);

    /// Prior estimate that refreshing `url` pays off, on a roughly
    /// \[0, 1\] scale (PR 9). The crawl-and-serve scheduler ranks refresh
    /// candidates by `estimate × read-popularity`; a policy with no
    /// per-URL belief keeps the uninformed default of `1.0`. Pages the
    /// policy has seen die score `0.0`.
    fn estimate(&self, _url: &str) -> f64 {
        1.0
    }
}

// ---------------------------------------------------------------------
// Uniform round-robin
// ---------------------------------------------------------------------

/// Cycles through all live pages in discovery order, one full pass per
/// epoch. No learning; maximal fairness.
#[derive(Debug, Default)]
pub struct RoundRobinRevisit {
    ring: VecDeque<String>,
    known: HashSet<String>,
    dead: HashSet<String>,
    issued: usize,
    quota: usize,
}

impl RevisitPolicy for RoundRobinRevisit {
    fn name(&self) -> String {
        "uniform".to_owned()
    }

    fn register(&mut self, url: &str, _in_path: &str) {
        if self.known.insert(url.to_owned()) {
            self.ring.push_back(url.to_owned());
        }
    }

    fn begin_epoch(&mut self) {
        self.ring.retain(|u| !self.dead.contains(u));
        self.quota = self.ring.len();
        self.issued = 0;
    }

    fn next(&mut self, _rng: &mut StdRng) -> Option<String> {
        if self.issued >= self.quota {
            return None;
        }
        let url = self.ring.pop_front()?;
        self.ring.push_back(url.clone());
        self.issued += 1;
        Some(url)
    }

    fn observe(&mut self, url: &str, obs: &Observation) {
        if obs.died {
            self.dead.insert(url.to_owned());
        }
    }

    fn estimate(&self, url: &str) -> f64 {
        if self.dead.contains(url) {
            0.0
        } else {
            1.0
        }
    }
}

// ---------------------------------------------------------------------
// Change-rate proportional
// ---------------------------------------------------------------------

/// Samples pages with probability proportional to their estimated change
/// rate (plus smoothing, so never-changed pages keep a nonzero chance).
#[derive(Debug)]
pub struct ProportionalRevisit {
    urls: Vec<String>,
    stats: HashMap<String, (u64, u64)>,
    dead: HashSet<String>,
    picked: HashSet<String>,
    /// Additive weight floor; default 0.05.
    pub smoothing: f64,
}

impl Default for ProportionalRevisit {
    fn default() -> Self {
        ProportionalRevisit {
            urls: Vec::new(),
            stats: HashMap::new(),
            dead: HashSet::new(),
            picked: HashSet::new(),
            smoothing: 0.05,
        }
    }
}

impl RevisitPolicy for ProportionalRevisit {
    fn name(&self) -> String {
        "proportional".to_owned()
    }

    fn register(&mut self, url: &str, _in_path: &str) {
        if !self.stats.contains_key(url) {
            self.stats.insert(url.to_owned(), (0, 0));
            self.urls.push(url.to_owned());
        }
    }

    fn begin_epoch(&mut self) {
        self.urls.retain(|u| !self.dead.contains(u));
        self.picked.clear();
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<String> {
        let mut total = 0.0;
        let weights: Vec<(usize, f64)> = self
            .urls
            .iter()
            .enumerate()
            .filter(|(_, u)| !self.picked.contains(*u))
            .map(|(i, u)| {
                let (v, c) = self.stats.get(u).copied().unwrap_or((0, 0));
                let w = crate::estimate::change_rate(v, c) + self.smoothing;
                total += w;
                (i, w)
            })
            .collect();
        if weights.is_empty() || total <= 0.0 {
            return None;
        }
        let mut x = rng.gen::<f64>() * total;
        let mut chosen = weights[weights.len() - 1].0;
        for (i, w) in &weights {
            x -= w;
            if x <= 0.0 {
                chosen = *i;
                break;
            }
        }
        let url = self.urls[chosen].clone();
        self.picked.insert(url.clone());
        Some(url)
    }

    fn observe(&mut self, url: &str, obs: &Observation) {
        if obs.died {
            self.dead.insert(url.to_owned());
            return;
        }
        if let Some((v, c)) = self.stats.get_mut(url) {
            *v += 1;
            *c += u64::from(obs.changed);
        }
    }

    fn estimate(&self, url: &str) -> f64 {
        if self.dead.contains(url) {
            return 0.0;
        }
        match self.stats.get(url) {
            Some(&(v, c)) => crate::estimate::change_rate(v, c) + self.smoothing,
            None => 1.0,
        }
    }
}

// ---------------------------------------------------------------------
// Tag-path group bookkeeping, shared by the two group learners
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Groups {
    index: HashMap<String, usize>,
    url_group: HashMap<String, usize>,
    groups: Vec<Group>,
}

#[derive(Debug)]
struct Group {
    path: String,
    live: Vec<String>,
    cursor: usize,
    issued: usize,
}

impl Groups {
    fn register(&mut self, url: &str, in_path: &str) -> Option<usize> {
        if self.url_group.contains_key(url) {
            return None;
        }
        let g = *self.index.entry(in_path.to_owned()).or_insert_with(|| {
            self.groups.push(Group {
                path: in_path.to_owned(),
                live: Vec::new(),
                cursor: 0,
                issued: 0,
            });
            self.groups.len() - 1
        });
        self.groups[g].live.push(url.to_owned());
        self.url_group.insert(url.to_owned(), g);
        Some(g)
    }

    fn begin_epoch(&mut self, dead: &HashSet<String>) {
        for g in &mut self.groups {
            g.live.retain(|u| !dead.contains(u));
            g.issued = 0;
            if g.live.is_empty() {
                g.cursor = 0;
            } else {
                g.cursor %= g.live.len();
            }
        }
    }

    fn available(&self, g: usize) -> bool {
        let grp = &self.groups[g];
        grp.issued < grp.live.len()
    }

    fn next_in(&mut self, g: usize) -> Option<String> {
        let grp = &mut self.groups[g];
        if grp.issued >= grp.live.len() {
            return None;
        }
        let url = grp.live[grp.cursor % grp.live.len()].clone();
        grp.cursor = (grp.cursor + 1) % grp.live.len();
        grp.issued += 1;
        Some(url)
    }

    fn group_of(&self, url: &str) -> Option<usize> {
        self.url_group.get(url).copied()
    }

    fn len(&self) -> usize {
        self.groups.len()
    }

    fn path(&self, g: usize) -> &str {
        &self.groups[g].path
    }
}

// ---------------------------------------------------------------------
// Thompson sampling over groups
// ---------------------------------------------------------------------

/// Beta–Bernoulli Thompson sampling over tag-path groups: one Beta(1+s,
/// 1+f) posterior per group on "a revisit here pays off" (change detected
/// or new target found); each step samples every awake group's posterior
/// and plays the argmax, then round-robins within the group.
#[derive(Debug, Default)]
pub struct ThompsonGroupsRevisit {
    groups: Groups,
    dead: HashSet<String>,
    success: Vec<f64>,
    failure: Vec<f64>,
}

impl RevisitPolicy for ThompsonGroupsRevisit {
    fn name(&self) -> String {
        "thompson-groups".to_owned()
    }

    fn register(&mut self, url: &str, in_path: &str) {
        if self.groups.register(url, in_path).is_some() {
            while self.success.len() < self.groups.len() {
                self.success.push(0.0);
                self.failure.push(0.0);
            }
        }
    }

    fn begin_epoch(&mut self) {
        self.groups.begin_epoch(&self.dead);
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<String> {
        let mut best: Option<(usize, f64)> = None;
        for g in 0..self.groups.len() {
            if !self.groups.available(g) {
                continue;
            }
            let theta = sample_beta(rng, 1.0 + self.success[g], 1.0 + self.failure[g]);
            match best {
                Some((_, b)) if theta <= b => {}
                _ => best = Some((g, theta)),
            }
        }
        self.groups.next_in(best?.0)
    }

    fn observe(&mut self, url: &str, obs: &Observation) {
        if obs.died {
            self.dead.insert(url.to_owned());
        }
        let Some(g) = self.groups.group_of(url) else { return };
        if obs.changed || obs.new_targets > 0 {
            self.success[g] += 1.0;
        } else {
            self.failure[g] += 1.0;
        }
    }

    fn estimate(&self, url: &str) -> f64 {
        if self.dead.contains(url) {
            return 0.0;
        }
        match self.groups.group_of(url) {
            // Beta(1+s, 1+f) posterior mean of the URL's group.
            Some(g) => (1.0 + self.success[g]) / (2.0 + self.success[g] + self.failure[g]),
            None => 1.0,
        }
    }
}

/// Beta(a, b) sample via two Marsaglia–Tsang gamma draws.
pub(crate) fn sample_beta<R: Rng + ?Sized>(rng: &mut R, a: f64, b: f64) -> f64 {
    let x = sample_gamma(rng, a);
    let y = sample_gamma(rng, b);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

/// Gamma(shape, 1) via Marsaglia–Tsang (2000); the shape < 1 case boosts
/// through Gamma(shape + 1) · U^(1/shape).
fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let z = standard_normal(rng);
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

// ---------------------------------------------------------------------
// Sleeping-bandit (AUER) over groups — the paper-native scheduler
// ---------------------------------------------------------------------

/// AUER over tag-path groups with new-target counts as rewards: the exact
/// machinery the paper's single-shot crawler uses for frontier actions,
/// re-pointed at revisits. A group sleeps once all of its pages have been
/// revisited this epoch (`1_a(t) = 0`), so budget drains toward groups
/// that keep paying.
#[derive(Debug, Default)]
pub struct SleepingBanditRevisit {
    groups: Groups,
    dead: HashSet<String>,
    arms: Vec<ArmStats>,
    /// The paper's AUER at α = 2√2.
    policy: Policy,
    t: u64,
}

impl SleepingBanditRevisit {
    /// Tag-path exemplar and statistics of each arm, for reporting.
    pub fn arm_summary(&self) -> Vec<(String, u64, f64)> {
        (0..self.arms.len())
            .map(|g| (self.groups.path(g).to_owned(), self.arms[g].pulls, self.arms[g].mean))
            .collect()
    }
}

impl RevisitPolicy for SleepingBanditRevisit {
    fn name(&self) -> String {
        "sleeping-bandit".to_owned()
    }

    fn register(&mut self, url: &str, in_path: &str) {
        if self.groups.register(url, in_path).is_some() {
            while self.arms.len() < self.groups.len() {
                self.arms.push(ArmStats::default());
            }
        }
    }

    fn begin_epoch(&mut self) {
        self.groups.begin_epoch(&self.dead);
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<String> {
        self.t += 1;
        let g = self.policy.select(&self.arms, |g| self.groups.available(g), self.t, rng)?;
        self.arms[g].select();
        self.groups.next_in(g)
    }

    fn observe(&mut self, url: &str, obs: &Observation) {
        if obs.died {
            self.dead.insert(url.to_owned());
        }
        let Some(g) = self.groups.group_of(url) else { return };
        self.arms[g].reward(obs.new_targets as f64);
    }

    fn estimate(&self, url: &str) -> f64 {
        if self.dead.contains(url) {
            return 0.0;
        }
        match self.groups.group_of(url) {
            // Unpulled arms stay optimistic; pulled arms map their mean
            // new-target reward onto (0, 1) so the serve scheduler can
            // compare policies on one scale.
            Some(g) if self.arms[g].pulls > 0 => {
                let m = self.arms[g].mean.max(0.0);
                m / (1.0 + m)
            }
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn drain_epoch(p: &mut dyn RevisitPolicy, rng: &mut StdRng) -> Vec<String> {
        p.begin_epoch();
        let mut out = Vec::new();
        while let Some(u) = p.next(rng) {
            out.push(u);
            // Default: nothing interesting observed.
            let last = out.last().expect("just pushed");
            p.observe(last, &Observation::default());
        }
        out
    }

    #[test]
    fn round_robin_visits_each_page_once_per_epoch() {
        let mut p = RoundRobinRevisit::default();
        for i in 0..7 {
            p.register(&format!("https://s/p{i}"), "html body a");
        }
        let mut r = rng();
        let visits = drain_epoch(&mut p, &mut r);
        assert_eq!(visits.len(), 7);
        let unique: HashSet<_> = visits.iter().collect();
        assert_eq!(unique.len(), 7, "no repeats within an epoch");
        // A second epoch cycles again.
        assert_eq!(drain_epoch(&mut p, &mut r).len(), 7);
    }

    #[test]
    fn round_robin_drops_dead_next_epoch() {
        let mut p = RoundRobinRevisit::default();
        p.register("https://s/a", "x");
        p.register("https://s/b", "x");
        p.observe("https://s/a", &Observation { died: true, ..Default::default() });
        let mut r = rng();
        let visits = drain_epoch(&mut p, &mut r);
        assert_eq!(visits, vec!["https://s/b".to_owned()]);
    }

    #[test]
    fn round_robin_register_is_idempotent() {
        let mut p = RoundRobinRevisit::default();
        p.register("https://s/a", "x");
        p.register("https://s/a", "y");
        let mut r = rng();
        assert_eq!(drain_epoch(&mut p, &mut r).len(), 1);
    }

    #[test]
    fn proportional_prefers_frequently_changed_pages() {
        let mut p = ProportionalRevisit::default();
        for i in 0..10 {
            p.register(&format!("https://s/p{i}"), "x");
        }
        // Pages 0 and 1 change at every visit; the rest never do.
        for _ in 0..8 {
            for i in 0..10 {
                let url = format!("https://s/p{i}");
                p.observe(&url, &Observation { changed: i < 2, ..Default::default() });
            }
        }
        let mut r = rng();
        let mut first_picks_hot = 0;
        for _ in 0..200 {
            p.begin_epoch();
            let first = p.next(&mut r).expect("pages available");
            if first == "https://s/p0" || first == "https://s/p1" {
                first_picks_hot += 1;
            }
        }
        // 2 hot pages out of 10 would get 20 % under uniform; rate-weighted
        // sampling concentrates far beyond that.
        assert!(
            first_picks_hot > 120,
            "hot pages picked first only {first_picks_hot}/200 times"
        );
    }

    #[test]
    fn proportional_exhausts_then_none() {
        let mut p = ProportionalRevisit::default();
        p.register("https://s/a", "x");
        p.register("https://s/b", "x");
        let mut r = rng();
        p.begin_epoch();
        assert!(p.next(&mut r).is_some());
        assert!(p.next(&mut r).is_some());
        assert_eq!(p.next(&mut r), None);
    }

    #[test]
    fn beta_sampler_in_unit_interval_with_right_mean() {
        let mut r = rng();
        let mut sum = 0.0;
        let n = 4000;
        for _ in 0..n {
            let x = sample_beta(&mut r, 8.0, 2.0);
            assert!((0.0..=1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.8).abs() < 0.03, "Beta(8,2) mean ≈ 0.8, got {mean}");
    }

    #[test]
    fn thompson_concentrates_on_paying_group() {
        let mut p = ThompsonGroupsRevisit::default();
        for i in 0..5 {
            p.register(&format!("https://s/hot{i}"), "html body ul.datasets a");
            p.register(&format!("https://s/cold{i}"), "html body footer a");
        }
        // Train: hot pages always pay, cold never.
        for _ in 0..30 {
            for i in 0..5 {
                p.observe(
                    &format!("https://s/hot{i}"),
                    &Observation { changed: true, new_targets: 1, ..Default::default() },
                );
                p.observe(&format!("https://s/cold{i}"), &Observation::default());
            }
        }
        let mut r = rng();
        let mut hot_first = 0;
        for _ in 0..100 {
            p.begin_epoch();
            if p.next(&mut r).expect("available").contains("hot") {
                hot_first += 1;
            }
        }
        assert!(hot_first > 90, "hot group picked first {hot_first}/100");
    }

    #[test]
    fn sleeping_bandit_prefers_rewarding_group_and_sleeps_when_drained() {
        let mut p = SleepingBanditRevisit::default();
        for i in 0..4 {
            p.register(&format!("https://s/hot{i}"), "html body ul.datasets a");
            p.register(&format!("https://s/cold{i}"), "html body footer a");
        }
        let mut r = rng();
        // One full epoch with rewards flowing only from the hot group.
        p.begin_epoch();
        while let Some(u) = p.next(&mut r) {
            let pay = u.contains("hot");
            p.observe(
                &u,
                &Observation {
                    changed: pay,
                    new_targets: u64::from(pay) * 3,
                    ..Default::default()
                },
            );
        }
        // Next epoch: the AUER score of the hot arm dominates, so the first
        // four picks drain the hot group before any cold page is touched.
        p.begin_epoch();
        for k in 0..4 {
            let u = p.next(&mut r).expect("hot pages available");
            assert!(u.contains("hot"), "pick {k} was {u}");
            p.observe(&u, &Observation { changed: true, new_targets: 3, ..Default::default() });
        }
        // Hot group now sleeps; the bandit falls back to cold.
        let u = p.next(&mut r).expect("cold group awake");
        assert!(u.contains("cold"));
        // Draining everything ends the epoch.
        for _ in 0..3 {
            let u = p.next(&mut r).expect("cold pages left");
            p.observe(&u, &Observation::default());
        }
        assert_eq!(p.next(&mut r), None, "all groups asleep ⇒ None");
    }

    #[test]
    fn sleeping_bandit_arm_summary_reports_groups() {
        let mut p = SleepingBanditRevisit::default();
        p.register("https://s/a", "path one");
        p.register("https://s/b", "path two");
        let summary = p.arm_summary();
        assert_eq!(summary.len(), 2);
        assert!(summary.iter().any(|(path, _, _)| path == "path one"));
    }

    #[test]
    fn group_policies_share_registration_semantics() {
        let mut ts = ThompsonGroupsRevisit::default();
        ts.register("https://s/a", "p");
        ts.register("https://s/a", "p"); // duplicate URL ignored
        let mut r = rng();
        ts.begin_epoch();
        assert!(ts.next(&mut r).is_some());
        assert_eq!(ts.next(&mut r), None);
    }

    #[test]
    fn observe_unknown_url_is_harmless() {
        let mut sb = SleepingBanditRevisit::default();
        sb.observe("https://nowhere/x", &Observation::default());
        let mut ts = ThompsonGroupsRevisit::default();
        ts.observe("https://nowhere/x", &Observation::default());
    }
}
