//! The value-driven batch frontier (PR 10): Crawl4LLM-style top-k
//! selection with composable scorers.
//!
//! Where the paper's crawlers pull one URL per outer step, Crawl4LLM-style
//! acquisition rates every frontier document with pluggable scorers each
//! iteration and crawls the **top-k** — the batch fills the pipelined
//! transport's in-flight window in one ranking pass. [`ValueStrategy`]
//! reproduces that loop over this engine's frontier contract:
//!
//! * a [`Scorer`] is one `rating_methods` entry: it maps a frontier
//!   [`Candidate`] to a value estimate and may learn from the crawl's free
//!   signals ([`Scorer::on_fetched`], [`Scorer::observe`]);
//! * the strategy combines scorers by **weighted sum**, with every raw
//!   score routed through [`finite_or_zero`] first — a NaN or infinite
//!   estimate from a degenerate scorer is clamped to 0.0 *before* ranking,
//!   so the total order (score desc, then [`UrlId`] asc) can never be
//!   broken the way `plan_epoch`'s pre-fix sort could (same guard, shared
//!   function — `sb-serve` ranks with it too);
//! * [`Strategy::select_batch`] ranks the whole frontier once and returns
//!   the top `k`; [`Strategy::next`] is the `k = 1` special case, so the
//!   strategy behaves identically whether the session batches or not.
//!
//! Four scorers ship with the repo, mirroring Crawl4LLM's length/fasttext
//! raters in this engine's vocabulary: [`DepthPriorScorer`] (link-length/
//! depth prior), [`ClassifierScorer`] (sb-ml online classifier
//! confidence), [`NearDupScorer`] (sb-ann sketch penalty for URL shapes
//! near-identical to already-fetched ones — calendar traps and session-id
//! farms score themselves out), and [`BanditScorer`] (per-directory
//! expected reward with a UCB exploration bonus, fed by the
//! one-feedback-per-selection stream). [`ValueSpec`] parses the
//! `name:weight,...` strings `xp quality` configures mixes with.

use crate::strategy::{LinkDecision, NewLink, Selection, Services, Strategy};
use rand::rngs::StdRng;
use sb_ann::{cosine_sparse, Projector, Sketcher, SparseVec};
use sb_ml::{Class2, FeatureInput, UrlClassifier};
use sb_webgraph::{UrlClass, UrlId};
use std::collections::HashMap;

/// Clamps a score to something totally ordered: non-finite values (NaN,
/// ±∞) become 0.0, everything else passes through. Ranking code must
/// route every float through this before comparing — `partial_cmp` over
/// unclamped floats silently breaks the sort's total order on the first
/// NaN (the `plan_epoch` bug this PR fixes).
#[inline]
pub fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// A frontier entry as scorers see it: the interned id, the canonical URL
/// (owned at the [`Strategy::decide`] boundary, like every feature that
/// outlives its page), the discovery depth and the anchor-text length.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub id: UrlId,
    pub url: Box<str>,
    pub depth: u32,
    /// Length of the link's anchor text, captured at discovery (0 when
    /// the link had none).
    pub anchor_len: u32,
}

/// One composable rating method (a Crawl4LLM `rating_methods` entry).
///
/// `score` may return any float — the combinator clamps non-finite
/// answers to 0.0 ([`finite_or_zero`]) before weighting, so a degenerate
/// scorer can never corrupt the ranking. The learning hooks are optional:
/// the strategy forwards every fetched page's true class and every
/// selection's terminal feedback to every scorer.
pub trait Scorer: Send {
    fn name(&self) -> &'static str;

    /// Value estimate for one frontier candidate. `&mut` because scoring
    /// may touch learned state (growing vocabularies, cached sketches).
    fn score(&mut self, cand: &Candidate) -> f64;

    /// A page was fetched and its true class is known (the free online
    /// signal of Algorithm 2).
    fn on_fetched(&mut self, url: &str, class: UrlClass) {
        let _ = (url, class);
    }

    /// Terminal feedback for a selection this strategy pulled: `1.0` when
    /// the selection was a target, `0.0` for an error answer, the page
    /// reward otherwise. Exactly one call per selection.
    fn observe(&mut self, url: &str, reward: f64) {
        let _ = (url, reward);
    }
}

// ----------------------------------------------------------------------
// The four shipped scorers
// ----------------------------------------------------------------------

/// Link-length/depth prior (Crawl4LLM's `length` rater, adapted to URLs):
/// shallow, short URLs score near 1, deep or long ones decay toward 0.
/// Purely structural — it needs no learning and anchors the mix so a
/// cold-start crawl degenerates to near-BFS instead of noise.
#[derive(Debug, Default)]
pub struct DepthPriorScorer;

impl Scorer for DepthPriorScorer {
    fn name(&self) -> &'static str {
        "depth"
    }

    fn score(&mut self, cand: &Candidate) -> f64 {
        1.0 / (1.0 + f64::from(cand.depth) + cand.url.len() as f64 / 64.0)
    }
}

/// sb-ml classifier confidence (the `fasttext_score` analogue): an online
/// [`UrlClassifier`] trained on the crawl's own fetches, scoring each
/// candidate with the sigmoid of its decision value — the model's
/// confidence that the URL is a target. Before the first trained batch it
/// answers a flat 0.5 (uninformed), so early ranking rides the priors.
pub struct ClassifierScorer {
    clf: UrlClassifier,
}

impl ClassifierScorer {
    pub fn new(clf: UrlClassifier) -> Self {
        ClassifierScorer { clf }
    }

    /// The paper-default classifier (logistic regression, URL-only
    /// features, batch 10) — free labels only, no HEAD bootstrap.
    pub fn paper_default() -> Self {
        ClassifierScorer { clf: UrlClassifier::paper_default() }
    }
}

impl Scorer for ClassifierScorer {
    fn name(&self) -> &'static str {
        "classifier"
    }

    fn score(&mut self, cand: &Candidate) -> f64 {
        if self.clf.in_initial_phase() {
            return 0.5;
        }
        let s = f64::from(self.clf.predict_score(&FeatureInput::url_only(&cand.url)));
        1.0 / (1.0 + (-s).exp())
    }

    fn on_fetched(&mut self, url: &str, class: UrlClass) {
        let label = match class {
            UrlClass::Target => Class2::Target,
            UrlClass::Html => Class2::Html,
            // Dead URLs carry no class-2 label (Sec 3.3's two-class
            // deliberation): skip rather than poison either class.
            UrlClass::Neither => return,
        };
        self.clf.observe(&FeatureInput::url_only(url), label);
    }
}

/// How many fetched-URL sketches [`NearDupScorer`] compares against (a
/// ring of the most recent ones — recency is what matters for trap
/// shapes, which arrive in runs).
const NEARDUP_RING: usize = 32;

/// Cosine similarity above which a candidate is charged the near-dup
/// penalty. A trap URL that differs from a fetched one only in its tail
/// token (calendar days, `?page=N` counters) shares `n-1` of `n+1`
/// BOS/EOS-padded bigrams — ≈ 0.71 for typical URL lengths — while
/// genuinely different paths on the same host land far below.
const NEARDUP_THRESHOLD: f32 = 0.7;

/// sb-ann near-dup penalty: sketches the token bigrams of every *fetched*
/// URL into a fixed dimension ([`Sketcher`]) and charges −1 to any
/// candidate whose sketch is ≥ [`NEARDUP_THRESHOLD`] cosine-similar to a
/// recent fetch. Calendar traps, session-id farms and `?page=N` mills all
/// share their URL shape with what was just crawled; this scorer makes
/// them pay for it before a request is spent.
pub struct NearDupScorer {
    sketcher: Sketcher,
    ring: Vec<SparseVec>,
    next_slot: usize,
}

impl NearDupScorer {
    pub fn new() -> Self {
        NearDupScorer {
            // D = 1024: large enough that bucket collisions stay rare for
            // URL-token vocabularies.
            sketcher: Sketcher::new(2, Projector::new(10, 15, sb_ann::DEFAULT_PRIME)),
            ring: Vec::with_capacity(NEARDUP_RING),
            next_slot: 0,
        }
    }

    fn sketch(&mut self, url: &str) -> SparseVec {
        let tokens: Vec<String> = url
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(str::to_lowercase)
            .collect();
        self.sketcher.sketch_mut(&tokens)
    }
}

impl Default for NearDupScorer {
    fn default() -> Self {
        NearDupScorer::new()
    }
}

impl Scorer for NearDupScorer {
    fn name(&self) -> &'static str {
        "neardup"
    }

    fn score(&mut self, cand: &Candidate) -> f64 {
        let sketch = self.sketch(&cand.url);
        let near = self.ring.iter().any(|seen| cosine_sparse(&sketch, seen) >= NEARDUP_THRESHOLD);
        if near {
            -1.0
        } else {
            0.0
        }
    }

    fn on_fetched(&mut self, url: &str, _class: UrlClass) {
        let sketch = self.sketch(url);
        if self.ring.len() < NEARDUP_RING {
            self.ring.push(sketch);
        } else {
            self.ring[self.next_slot] = sketch;
            self.next_slot = (self.next_slot + 1) % NEARDUP_RING;
        }
    }
}

/// Per-directory reward statistics for [`BanditScorer`].
#[derive(Debug, Default, Clone, Copy)]
struct DirArm {
    pulls: u64,
    sum: f64,
}

/// Bandit-style expected reward: URLs are grouped by their first path
/// segment (the "action" a directory represents), each group tracks the
/// mean terminal reward of its selections, and candidates score mean +
/// UCB exploration bonus — unexplored directories look optimistic, proven
/// target directories stay hot, and directories that only ever answered
/// HTML or errors decay toward 0.
#[derive(Debug, Default)]
pub struct BanditScorer {
    arms: HashMap<String, DirArm>,
    total_pulls: u64,
}

/// First path segment of a canonical URL ("" for the root).
fn dir_of(url: &str) -> &str {
    let path = url.splitn(4, '/').nth(3).unwrap_or("");
    path.split('/').next().unwrap_or("")
}

impl BanditScorer {
    pub fn new() -> Self {
        BanditScorer::default()
    }
}

impl Scorer for BanditScorer {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn score(&mut self, cand: &Candidate) -> f64 {
        let t = (1.0 + self.total_pulls as f64).ln();
        match self.arms.get(dir_of(&cand.url)) {
            Some(arm) if arm.pulls > 0 => {
                let mean = arm.sum / arm.pulls as f64;
                mean + 0.5 * (t / arm.pulls as f64).sqrt()
            }
            // Never pulled: optimistic prior plus the full bonus.
            _ => 0.5 + 0.5 * t.sqrt(),
        }
    }

    fn observe(&mut self, url: &str, reward: f64) {
        let arm = self.arms.entry(dir_of(url).to_owned()).or_default();
        arm.pulls += 1;
        arm.sum += finite_or_zero(reward).clamp(0.0, 1.0);
        self.total_pulls += 1;
    }
}

// ----------------------------------------------------------------------
// Spec parsing (`rating_methods`-style configuration)
// ----------------------------------------------------------------------

/// A parsed scorer mix: `(name, weight)` pairs in declaration order, the
/// engine-side equivalent of Crawl4LLM's `rating_methods` yaml list.
/// Parsed from `"depth:1.0,classifier:2.0,neardup:0.5,bandit:1.0"`;
/// a bare name means weight 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueSpec {
    pub methods: Vec<(String, f64)>,
}

impl ValueSpec {
    /// The default mix: all four shipped scorers, classifier-weighted.
    pub fn default_mix() -> Self {
        ValueSpec {
            methods: vec![
                ("depth".to_owned(), 1.0),
                ("classifier".to_owned(), 2.0),
                ("neardup".to_owned(), 0.5),
                ("bandit".to_owned(), 1.0),
            ],
        }
    }

    /// Parses `name[:weight],...`. Unknown names are rejected here, not
    /// at crawl time. Weights must be finite (the combinator's NaN guard
    /// covers scores, not configuration).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut methods = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, weight) = match part.split_once(':') {
                Some((n, w)) => {
                    let w: f64 =
                        w.trim().parse().map_err(|_| format!("bad weight in {part:?}"))?;
                    (n.trim(), w)
                }
                None => (part, 1.0),
            };
            if !weight.is_finite() {
                return Err(format!("non-finite weight in {part:?}"));
            }
            if !matches!(name, "depth" | "classifier" | "neardup" | "bandit") {
                return Err(format!("unknown scorer {name:?}"));
            }
            methods.push((name.to_owned(), weight));
        }
        if methods.is_empty() {
            return Err("empty scorer spec".to_owned());
        }
        Ok(ValueSpec { methods })
    }

    fn build_scorers(&self) -> Vec<(Box<dyn Scorer>, f64)> {
        self.methods
            .iter()
            .map(|(name, w)| {
                let scorer: Box<dyn Scorer> = match name.as_str() {
                    "depth" => Box::new(DepthPriorScorer),
                    "classifier" => Box::new(ClassifierScorer::paper_default()),
                    "neardup" => Box::new(NearDupScorer::new()),
                    "bandit" => Box::new(BanditScorer::new()),
                    other => unreachable!("ValueSpec::parse admitted {other:?}"),
                };
                (scorer, *w)
            })
            .collect()
    }
}

// ----------------------------------------------------------------------
// The strategy
// ----------------------------------------------------------------------

/// Crawl4LLM-style value-driven frontier: every [`Strategy::select_batch`]
/// call scores the whole frontier with the configured [`Scorer`] mix and
/// returns the top `k` by weighted sum (ties on [`UrlId`] ascending — the
/// ranking is deterministic and never consults the RNG). Links are always
/// enqueued ([`LinkDecision::Enqueue`]): selection order, not routing, is
/// where this strategy spends its intelligence.
///
/// Each selection's token indexes a ledger of selected URLs, so terminal
/// feedback (one per selection, the engine's invariant) can be routed to
/// every scorer with the URL it concerns.
pub struct ValueStrategy {
    scorers: Vec<(Box<dyn Scorer>, f64)>,
    frontier: Vec<Candidate>,
    /// URL of every selection pulled so far; `Selection::token` indexes it.
    ledger: Vec<Box<str>>,
    /// Reused per-ranking scratch: `(score, frontier index)`.
    scratch: Vec<(f64, usize)>,
}

impl ValueStrategy {
    /// Builds from an explicit scorer mix.
    pub fn new(scorers: Vec<(Box<dyn Scorer>, f64)>) -> Self {
        assert!(!scorers.is_empty(), "a value strategy needs at least one scorer");
        ValueStrategy { scorers, frontier: Vec::new(), ledger: Vec::new(), scratch: Vec::new() }
    }

    /// Builds from a parsed [`ValueSpec`].
    pub fn from_spec(spec: &ValueSpec) -> Self {
        ValueStrategy::new(spec.build_scorers())
    }

    /// The default mix ([`ValueSpec::default_mix`]).
    pub fn default_mix() -> Self {
        ValueStrategy::from_spec(&ValueSpec::default_mix())
    }

    /// Weighted-sum combination with the NaN guard applied per raw score:
    /// a scorer answering NaN/∞ contributes 0, never poison. The combined
    /// value is finite by construction (`debug_assert`ed).
    fn combined_score(&mut self, idx: usize) -> f64 {
        let cand = &self.frontier[idx];
        let mut total = 0.0;
        for (scorer, weight) in &mut self.scorers {
            total += *weight * finite_or_zero(scorer.score(cand));
        }
        debug_assert!(total.is_finite(), "clamped scores cannot combine to non-finite");
        total
    }

    /// One terminal observation for the selection behind `token`.
    fn route_feedback(&mut self, token: u64, reward: f64) {
        let Some(url) = self.ledger.get(token as usize).cloned() else {
            debug_assert!(false, "feedback for a token this strategy never issued");
            return;
        };
        for (scorer, _) in &mut self.scorers {
            scorer.observe(&url, reward);
        }
    }
}

impl Strategy for ValueStrategy {
    fn name(&self) -> String {
        let mix: Vec<String> =
            self.scorers.iter().map(|(s, w)| format!("{}:{w}", s.name())).collect();
        format!("VALUE[{}]", mix.join(","))
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        // Scorers read URL, depth and anchor length; tag paths and
        // surrounding text are never consulted.
        sb_html::LinkNeeds { tag_path: false, anchor_text: true, surrounding_text: false }
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
        self.select_batch(1, rng).pop()
    }

    fn select_batch(&mut self, k: usize, _rng: &mut StdRng) -> Vec<Selection> {
        if k == 0 || self.frontier.is_empty() {
            return Vec::new();
        }
        // Rank the whole frontier once (the Crawl4LLM iteration): score
        // every candidate, order by clamped score descending with UrlId
        // ascending as the deterministic tiebreak.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for idx in 0..self.frontier.len() {
            let score = self.combined_score(idx);
            scratch.push((score, idx));
        }
        scratch.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("combined scores are finite by construction")
                .then_with(|| self.frontier[a.1].id.cmp(&self.frontier[b.1].id))
        });
        let take = k.min(scratch.len());
        let mut picked: Vec<usize> = scratch[..take].iter().map(|&(_, idx)| idx).collect();
        let mut out = Vec::with_capacity(take);
        for &idx in &picked {
            let cand = &self.frontier[idx];
            let token = self.ledger.len() as u64;
            self.ledger.push(cand.url.clone());
            out.push(Selection { url: cand.id.into(), token });
        }
        // Remove the selected candidates (largest index first, so earlier
        // indices stay valid).
        picked.sort_unstable_by(|a, b| b.cmp(a));
        for idx in picked {
            self.frontier.swap_remove(idx);
        }
        self.scratch = scratch;
        out
    }

    fn batch_selection(&self) -> bool {
        true
    }

    fn decide(&mut self, link: &NewLink<'_>, _services: &mut Services<'_, '_>) -> LinkDecision {
        // Owned-conversion boundary: the candidate outlives the page.
        self.frontier.push(Candidate {
            id: link.id,
            url: link.url_str.into(),
            depth: link.source_depth + 1,
            anchor_len: link.html.anchor_text.len() as u32,
        });
        LinkDecision::Enqueue
    }

    fn feedback(&mut self, token: u64, reward: f64) {
        self.route_feedback(token, reward.clamp(0.0, 1.0));
    }

    fn feedback_target(&mut self, token: u64) {
        // The selection itself was a target: maximal value per fetch.
        self.route_feedback(token, 1.0);
    }

    fn feedback_error(&mut self, token: u64) {
        self.route_feedback(token, 0.0);
    }

    fn on_fetched(&mut self, _id: UrlId, url: &str, class: UrlClass) {
        for (scorer, _) in &mut self.scorers {
            scorer.on_fetched(url, class);
        }
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

// ----------------------------------------------------------------------
// The batching adapter
// ----------------------------------------------------------------------

/// Forces the session's batched refill path over any inner strategy
/// without changing its selection logic: every call delegates, and
/// [`Strategy::batch_selection`] answers `true`, so the session fills its
/// window through [`Strategy::select_batch`] (the inner default pulls
/// `next()` up to `k` times). At window 1 the batch degenerates to one
/// pull per refill — byte-identical to the unbatched path; the batch
/// conformance suite pins that equivalence for the queue strategies.
pub struct Batched<S: Strategy>(pub S);

impl<S: Strategy> Strategy for Batched<S> {
    fn name(&self) -> String {
        format!("BATCHED({})", self.0.name())
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        self.0.link_needs()
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
        self.0.next(rng)
    }

    fn select_batch(&mut self, k: usize, rng: &mut StdRng) -> Vec<Selection> {
        self.0.select_batch(k, rng)
    }

    fn batch_selection(&self) -> bool {
        true
    }

    fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision {
        self.0.decide(link, services)
    }

    fn feedback(&mut self, token: u64, reward: f64) {
        self.0.feedback(token, reward);
    }

    fn feedback_target(&mut self, token: u64) {
        self.0.feedback_target(token);
    }

    fn feedback_error(&mut self, token: u64) {
        self.0.feedback_error(token);
    }

    fn on_fetched(&mut self, id: UrlId, url: &str, class: UrlClass) {
        self.0.on_fetched(id, url, class);
    }

    fn frontier_len(&self) -> usize {
        self.0.frontier_len()
    }

    fn frontier_spilled(&self) -> usize {
        self.0.frontier_spilled()
    }

    fn report(&self) -> crate::strategy::StrategyReport {
        self.0.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cand(id: UrlId, url: &str, depth: u32) -> Candidate {
        Candidate { id, url: url.into(), depth, anchor_len: 0 }
    }

    /// A scorer that always answers the same (possibly degenerate) value.
    struct Fixed(&'static str, f64);

    impl Scorer for Fixed {
        fn name(&self) -> &'static str {
            self.0
        }

        fn score(&mut self, _cand: &Candidate) -> f64 {
            self.1
        }
    }

    #[test]
    fn finite_or_zero_clamps_only_non_finite() {
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
        assert_eq!(finite_or_zero(f64::INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NEG_INFINITY), 0.0);
        assert_eq!(finite_or_zero(-3.5), -3.5);
        assert_eq!(finite_or_zero(0.0), 0.0);
    }

    /// A NaN-scoring method cannot corrupt the ranking: it contributes 0
    /// and the other scorers decide, with UrlId breaking exact ties.
    #[test]
    fn nan_scorer_is_neutralised_by_the_combinator() {
        let mut s = ValueStrategy::new(vec![
            (Box::new(Fixed("nan", f64::NAN)), 10.0),
            (Box::new(DepthPriorScorer), 1.0),
        ]);
        s.frontier.push(cand(0, "https://s/deep/deep/deep/page", 5));
        s.frontier.push(cand(1, "https://s/top", 1));
        let mut rng = StdRng::seed_from_u64(1);
        let batch = s.select_batch(2, &mut rng);
        assert_eq!(batch.len(), 2);
        // The shallow URL must rank first despite the loud NaN scorer.
        assert_eq!(batch[0].url, crate::strategy::SelUrl::Id(1));
    }

    #[test]
    fn select_batch_is_deterministic_and_ranked() {
        let build = || {
            let mut s = ValueStrategy::new(vec![(
                Box::new(DepthPriorScorer) as Box<dyn Scorer>,
                1.0,
            )]);
            for k in 0..20u32 {
                let url = format!("https://s/{}", "x".repeat((k % 7) as usize + 1));
                s.frontier.push(cand(k, &url, k % 5));
            }
            s
        };
        let mut rng = StdRng::seed_from_u64(9);
        let a: Vec<_> = build().select_batch(8, &mut rng).into_iter().map(|s| s.url).collect();
        let b: Vec<_> = build().select_batch(8, &mut rng).into_iter().map(|s| s.url).collect();
        assert_eq!(a, b, "ranking never consults the RNG");
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn tokens_index_the_ledger_and_feedback_routes() {
        let mut s = ValueStrategy::new(vec![(Box::new(BanditScorer::new()) as _, 1.0)]);
        s.frontier.push(cand(0, "https://s/files/a.csv", 1));
        let mut rng = StdRng::seed_from_u64(1);
        let sel = s.next(&mut rng).expect("one candidate");
        s.feedback_target(sel.token);
        // The /files directory arm must now dominate an unseen one with
        // identical depth priors.
        s.frontier.push(cand(1, "https://s/files/b.csv", 1));
        s.frontier.push(cand(2, "https://s/about/c.csv", 1));
        let next = s.next(&mut rng).expect("two candidates");
        assert_eq!(next.url, crate::strategy::SelUrl::Id(1), "proven dir first");
    }

    #[test]
    fn neardup_penalises_repeating_url_shapes() {
        let mut nd = NearDupScorer::new();
        for day in 1..=9 {
            nd.on_fetched(&format!("https://s/calendar/2021/01/0{day}"), UrlClass::Html);
        }
        let trap = nd.score(&cand(0, "https://s/calendar/2021/01/27", 3));
        let fresh = nd.score(&cand(1, "https://s/papers/edbt-2026-accepted-list", 3));
        assert!(trap < fresh, "trap-shaped URL must score below a fresh shape");
        assert_eq!(trap, -1.0);
    }

    #[test]
    fn spec_parses_names_weights_and_rejects_junk() {
        let spec = ValueSpec::parse("depth, classifier:2.5 ,bandit:0").unwrap();
        assert_eq!(
            spec.methods,
            vec![
                ("depth".to_owned(), 1.0),
                ("classifier".to_owned(), 2.5),
                ("bandit".to_owned(), 0.0)
            ]
        );
        assert!(ValueSpec::parse("pagerank:1.0").is_err());
        assert!(ValueSpec::parse("depth:wide").is_err());
        assert!(ValueSpec::parse("depth:NaN").is_err());
        assert!(ValueSpec::parse("").is_err());
        let strategy = ValueStrategy::from_spec(&spec);
        assert_eq!(strategy.name(), "VALUE[depth:1,classifier:2.5,bandit:0]");
    }

    /// The default `select_batch` (pull `next()` k times) and the batch
    /// wrapper agree for a queue strategy.
    #[test]
    fn default_select_batch_matches_repeated_next() {
        use crate::strategies::QueueStrategy;
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = QueueStrategy::bfs();
        let mut b = Batched(QueueStrategy::bfs());
        for id in 0..10u32 {
            a.push_for_test(id);
            b.0.push_for_test(id);
        }
        let singles: Vec<_> = std::iter::from_fn(|| a.next(&mut rng)).collect();
        let batched = b.select_batch(16, &mut rng);
        assert_eq!(singles, batched);
    }
}
