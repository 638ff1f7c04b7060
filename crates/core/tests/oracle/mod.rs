//! The frozen oracle of the value-driven frontier: `ValueStrategy` as it
//! stood before PR 22, when every ranking pass re-tokenised, re-sketched,
//! re-featurised and re-predicted every frontier candidate.
//!
//! The `select_batch` body and the four scorer bodies below are that code
//! verbatim. Production memoises per candidate and claims every selection
//! is unchanged; `proptest_value.rs` (arbitrary call interleavings) and
//! `batch.rs` (whole crawls through `CrawlSession`) hold it to this file.
//! Keep it frozen — it is the only place the re-score-everything loop
//! still exists.

#![allow(dead_code)]

use rand::rngs::StdRng;
use sb_ann::{cosine_sparse, Projector, Sketcher, SparseVec};
use sb_crawler::strategies::finite_or_zero;
use sb_crawler::strategy::{LinkDecision, NewLink, Selection, Services, Strategy};
use sb_ml::{Class2, FeatureInput, UrlClassifier};
use sb_webgraph::{UrlClass, UrlId};
use std::collections::HashMap;

#[derive(Debug, Clone)]
pub struct Candidate {
    pub id: UrlId,
    pub url: Box<str>,
    pub depth: u32,
}

pub trait Scorer: Send {
    fn name(&self) -> &'static str;

    fn score(&mut self, cand: &Candidate) -> f64;

    fn on_fetched(&mut self, url: &str, class: UrlClass) {
        let _ = (url, class);
    }

    fn observe(&mut self, url: &str, reward: f64) {
        let _ = (url, reward);
    }
}

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

/// The scorers a mix names, in declaration order (as the deleted
/// `ValueSpec::build_scorers` built them).
fn build_scorers(methods: &[(&str, f64)]) -> Vec<(Box<dyn Scorer>, f64)> {
    methods
        .iter()
        .map(|&(name, w)| {
            let scorer: Box<dyn Scorer> = match name {
                "depth" => Box::new(DepthPriorScorer),
                "classifier" => Box::new(ClassifierScorer::paper_default()),
                "neardup" => Box::new(NearDupScorer::new()),
                "bandit" => Box::new(BanditScorer::new()),
                other => panic!("unknown scorer {other:?}"),
            };
            (scorer, w)
        })
        .collect()
}

/// `ValueStrategy` before PR 22: rank everything, every pass.
pub struct OracleValueStrategy {
    scorers: Vec<(Box<dyn Scorer>, f64)>,
    frontier: Vec<Candidate>,
    /// URL of every selection pulled so far; `Selection::token` indexes it.
    ledger: Vec<Box<str>>,
    /// Reused per-ranking scratch: `(score, frontier index)`.
    scratch: Vec<(f64, usize)>,
}

impl OracleValueStrategy {
    pub fn new(methods: &[(&str, f64)]) -> Self {
        OracleValueStrategy {
            scorers: build_scorers(methods),
            frontier: Vec::new(),
            ledger: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// `ValueStrategy::default_mix()`.
    pub fn default_mix() -> Self {
        OracleValueStrategy::new(&[
            ("depth", 1.0),
            ("classifier", 2.0),
            ("neardup", 0.5),
            ("bandit", 1.0),
        ])
    }

    /// What `decide` does, without a page to borrow the link from.
    pub fn enqueue(&mut self, id: UrlId, url: &str, depth: u32) {
        self.frontier.push(Candidate { id, url: url.into(), depth });
    }

    fn combined_score(&mut self, idx: usize) -> f64 {
        let cand = &self.frontier[idx];
        let mut total = 0.0;
        for (scorer, weight) in &mut self.scorers {
            total += *weight * finite_or_zero(scorer.score(cand));
        }
        debug_assert!(total.is_finite(), "clamped scores cannot combine to non-finite");
        total
    }

    fn route_feedback(&mut self, token: u64, reward: f64) {
        let Some(url) = self.ledger.get(token as usize).cloned() else {
            return;
        };
        for (scorer, _) in &mut self.scorers {
            scorer.observe(&url, reward);
        }
    }
}

impl Strategy for OracleValueStrategy {
    fn name(&self) -> String {
        "VALUE-ORACLE".to_owned()
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        // As it stood: anchor text extracted for a field no scorer read.
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
        self.enqueue(link.id, link.url_str, link.source_depth + 1);
        LinkDecision::Enqueue
    }

    fn feedback(&mut self, token: u64, reward: f64) {
        self.route_feedback(token, reward.clamp(0.0, 1.0));
    }

    fn feedback_target(&mut self, token: u64) {
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
