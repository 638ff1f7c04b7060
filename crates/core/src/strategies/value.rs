//! The value-driven batch frontier (PR 10): Crawl4LLM-style top-k
//! selection over one fixed weighted sum.
//!
//! Where the paper's crawlers pull one URL per outer step, Crawl4LLM-style
//! acquisition rates every frontier document each iteration and crawls the
//! **top-k** — the batch fills the pipelined transport's in-flight window in
//! one ranking pass. [`ValueStrategy`] reproduces that loop over this
//! engine's frontier contract with four terms, mirroring Crawl4LLM's
//! length/fasttext raters in this engine's vocabulary, summed in this order
//! under these weights:
//!
//! 1. **depth** (1.0): a link-length/depth prior — shallow, short URLs
//!    score near 1, so a cold-start crawl degenerates to near-BFS;
//! 2. **classifier** (2.0): the sb-ml online classifier's confidence that
//!    the URL is a target;
//! 3. **neardup** (0.5): an sb-ann sketch penalty for URL shapes
//!    near-identical to recent fetches — calendar traps and session-id
//!    farms score themselves out;
//! 4. **bandit** (1.0): per-directory expected reward with a UCB
//!    exploration bonus, fed by the one-feedback-per-selection stream.
//!
//! Every raw term goes through [`finite_or_zero`] before it is weighted, so
//! the total is finite and the ranking's total order (value desc, then
//! [`UrlId`] asc) can never be broken the way `plan_epoch`'s pre-fix sort
//! could (same guard, shared function — `sb-serve` ranks with it too).
//! [`Strategy::select_batch`] ranks the whole frontier once and returns the
//! top `k`; [`Strategy::next`] is the `k = 1` special case, so the strategy
//! behaves identically whether the session batches or not.
//!
//! # Score once, re-score what changed, and run the near-dup term only where it can change the top-k
//!
//! A pass still *visits* every candidate, but it pays the per-URL work —
//! tokenising, sketching, featurising — **once per candidate**, and per
//! pass only for what a term's learned state has actually invalidated.
//! The classifier, near-dup and bandit terms each keep one memo column
//! parallel to the frontier (slot `i` of every column belongs to
//! `frontier[i]`; debug builds check the lengths after every pass):
//!
//! * **What a memo may cache** is anything that is a function of the
//!   candidate alone (its feature vector, its sketch's bucket sums, its
//!   bandit arm) plus what was last computed from it — an answer, a
//!   projection — stamped with the term's state it depended on.
//! * **What invalidates it** is declared by the stamp: the classifier's
//!   score by [`UrlClassifier::trainings`] advancing; the near-dup verdict
//!   by the sketcher's hit table growing under one of the candidate's
//!   buckets (the kept projection and all bits) or by a fetch overwriting a
//!   ring slot (that slot's bit); the bandit's per-arm score by any pull
//!   (it is cached on the arm, not the candidate).
//! * **Admission is at the candidate's first ranking pass, not at
//!   `decide`** — in frontier order, interleaved with scoring exactly as
//!   the passes always ran. The near-dup sketcher's vocabulary grows in
//!   admission order, `on_fetched` calls fall between `decide` and the next
//!   pass, and every later hit count (hence every cosine) depends on that
//!   order; admitting where the first score used to happen keeps it, and
//!   with it every selection, byte-identical to re-scoring everything.
//! * A memo is **released when its candidate is selected**, mirroring the
//!   frontier's `swap_remove`.
//! * **The near-dup term runs only where it can change the top-k.** Its
//!   answer is 0 or −1, so for a candidate admitted in an earlier pass the
//!   pass first folds its ceiling, 0.5 × 0, in its place — an upper bound on
//!   the candidate's total, since IEEE addition and a fixed weight's product
//!   are monotone — then scores exactly the `k` best bounds and every other
//!   candidate whose bound still reaches the `k`-th best exact total (ties
//!   included, so they still break on [`UrlId`]). All of it happens before
//!   the pass admits anyone, as every old slot was scored before any new
//!   one; new candidates are admitted and scored term by term, slot by slot.
//!
//! There is one ranking path. The re-score-everything loop this replaced
//! lives on only as the test oracle (`crates/core/tests/oracle/`), which
//! `proptest_value.rs` and `batch.rs` compare every selection against.

use crate::strategy::{LinkDecision, NewLink, Selection, Services, Strategy};
use rand::rngs::StdRng;
use sb_ann::{BucketSums, Projector, SketchRing, Sketcher, SparseVec};
use sb_ml::{Class2, FeatureInput, UrlClassifier};
use sb_webgraph::{UrlClass, UrlId};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

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

/// The weight of each term, in fold order.
const DEPTH_WEIGHT: f64 = 1.0;
const CLASSIFIER_WEIGHT: f64 = 2.0;
const NEARDUP_WEIGHT: f64 = 0.5;
const BANDIT_WEIGHT: f64 = 1.0;

/// The strategy's name: each term and its weight, in fold order.
const NAME: &str = "VALUE[depth:1.0,classifier:2.0,neardup:0.5,bandit:1.0]";

/// A frontier entry: the interned id, the canonical URL (owned at the
/// [`Strategy::decide`] boundary, like every feature that outlives its
/// page) and the discovery depth.
struct Candidate {
    id: UrlId,
    url: Box<str>,
    depth: u32,
}

// ----------------------------------------------------------------------
// The four terms
// ----------------------------------------------------------------------

/// Link-length/depth prior (Crawl4LLM's `length` rater, adapted to URLs):
/// shallow, short URLs score near 1, deep or long ones decay toward 0.
/// Purely structural — it needs no learning and anchors the mix so a
/// cold-start crawl degenerates to near-BFS instead of noise.
fn depth_prior(cand: &Candidate) -> f64 {
    1.0 / (1.0 + f64::from(cand.depth) + cand.url.len() as f64 / 64.0)
}

/// sb-ml classifier confidence (the `fasttext_score` analogue): an online
/// [`UrlClassifier`] trained on the crawl's own fetches, scoring each
/// candidate with the sigmoid of its decision value — the model's
/// confidence that the URL is a target. Before the first trained batch it
/// answers a flat 0.5 (uninformed), so early ranking rides the priors.
///
/// A candidate is featurised once, at admission; its score is a sparse dot
/// product redone only when a training batch has moved the weights.
struct ClassifierTerm {
    /// The paper-default classifier (logistic regression, URL-only
    /// features, batch 10) — free labels only, no HEAD bootstrap.
    clf: UrlClassifier,
    memos: Vec<ClassifierMemo>,
}

struct ClassifierMemo {
    features: sb_ml::SparseVec,
    score: f64,
    /// [`UrlClassifier::trainings`] when `score` was computed.
    trainings: u64,
}

impl ClassifierTerm {
    fn new() -> Self {
        ClassifierTerm { clf: UrlClassifier::paper_default(), memos: Vec::new() }
    }

    /// `url` enters the next free slot.
    fn admit(&mut self, url: &str) {
        self.memos.push(ClassifierMemo {
            features: self.clf.featurize(&FeatureInput::url_only(url)),
            score: 0.0,
            // No model has trained this often: the first `score` computes.
            trainings: u64::MAX,
        });
    }

    fn score(&mut self, slot: usize) -> f64 {
        let memo = &mut self.memos[slot];
        let trainings = self.clf.trainings();
        if memo.trainings != trainings {
            memo.trainings = trainings;
            memo.score = if self.clf.in_initial_phase() {
                0.5
            } else {
                let s = f64::from(self.clf.score_features(&memo.features));
                1.0 / (1.0 + (-s).exp())
            };
        }
        memo.score
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

/// How many fetched-URL sketches [`NearDupTerm`] compares against (a ring
/// of the most recent ones — recency is what matters for trap shapes,
/// which arrive in runs): one [`SketchRing`], so at most 32, and a
/// candidate's per-slot verdicts are the bits of a `u32`.
const NEARDUP_RING: usize = SketchRing::SLOTS;
const _: () = assert!(NEARDUP_RING <= u32::BITS as usize);

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
/// share their URL shape with what was just crawled; this term makes them
/// pay for it before a request is spent.
///
/// A candidate is tokenised once, at admission, which is also when its
/// bigrams enter the vocabulary. Its sketch at any later moment is its
/// (static) bucket sums over the hit table of that moment — kept projected
/// in its memo, and re-projected in place only when [`Sketcher::hits_under`]
/// its sums moves (hits only grow, so an unchanged sum means every bucket's
/// count, hence the projection, is unchanged). Its verdict is one bit per
/// ring slot: a `score` recomputes the bits of the slots fetches have
/// overwritten since the memo's last one ([`SketchRing::cosine`] each) —
/// or all of them in one [`SketchRing::cosines`], if the sketch moved or
/// the whole ring was overwritten. The answer is 0 or −1 and a function of
/// the memo, ring and hit table alone, which is what lets the strategy
/// skip it wherever −1 cannot matter.
struct NearDupTerm {
    sketcher: Sketcher,
    ring: SketchRing,
    /// Fetches sketched into the ring so far (wrapping); write `w` lands in
    /// slot `w % NEARDUP_RING`.
    ring_writes: u32,
    memos: Vec<NearDupMemo>,
}

struct NearDupMemo {
    sums: BucketSums,
    /// `sums` projected under the hit table of `hits`.
    sketch: SparseVec,
    /// [`Sketcher::hits_under`] `sums` when `sketch` was projected and
    /// `near` computed whole.
    hits: u32,
    /// `ring_writes` when `near` was last brought up to date.
    ring_seen: u32,
    /// Bit `s`: the sketch is a near-dup of ring slot `s`.
    near: u32,
}

/// The lowercased ASCII-alphanumeric runs of `url`, borrowed unless a run
/// holds an uppercase letter (the runs are ASCII, so ASCII lowercasing is
/// full lowercasing).
fn url_tokens(url: &str) -> Vec<Cow<'_, str>> {
    url.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| {
            if t.bytes().any(|b| b.is_ascii_uppercase()) {
                Cow::Owned(t.to_ascii_lowercase())
            } else {
                Cow::Borrowed(t)
            }
        })
        .collect()
}

impl NearDupTerm {
    fn new() -> Self {
        // D = 1024: large enough that bucket collisions stay rare for
        // URL-token vocabularies.
        let sketcher = Sketcher::new(2, Projector::new(10, 15, sb_ann::DEFAULT_PRIME));
        NearDupTerm {
            ring: SketchRing::new(sketcher.dim()),
            sketcher,
            ring_writes: 0,
            memos: Vec::new(),
        }
    }

    /// `url` enters the next free slot, and its bigrams the vocabulary.
    fn admit(&mut self, url: &str) {
        self.memos.push(NearDupMemo {
            sums: self.sketcher.admit(&url_tokens(url)),
            // Every bucket of a non-empty sketch has a hit, so the first
            // `score` projects and computes all bits (an empty one has none
            // to compute: its empty sketch is its projection).
            sketch: SparseVec::default(),
            hits: 0,
            ring_seen: self.ring_writes,
            near: 0,
        });
    }

    /// −1 if the candidate in `slot` is a near-dup of a ring slot, else 0.
    fn score(&mut self, slot: usize) -> f64 {
        let memo = &mut self.memos[slot];
        let hits = self.sketcher.hits_under(&memo.sums);
        let behind = self.ring_writes.wrapping_sub(memo.ring_seen) as usize;
        if hits != memo.hits || behind >= NEARDUP_RING {
            // The sketch moved, or every slot was overwritten since the
            // memo was last scored: every bit is out of date. A slot not
            // yet written reads as cosine 0, never near.
            if hits != memo.hits {
                memo.hits = hits;
                self.sketcher.project_into(&memo.sums, &mut memo.sketch);
            }
            let mut cosines = [0.0; NEARDUP_RING];
            self.ring.cosines(&memo.sketch, &mut cosines);
            memo.near = cosines
                .iter()
                .enumerate()
                .fold(0, |near, (s, &c)| near | (u32::from(c >= NEARDUP_THRESHOLD) << s));
        } else {
            // Only the slots fetches overwrote since the memo's last score:
            // `behind` of them from `ring_seen`, wrapping.
            let first = memo.ring_seen as usize % NEARDUP_RING;
            for s in (first..first + behind).map(|s| s % NEARDUP_RING) {
                let near = self.ring.cosine(&memo.sketch, s) >= NEARDUP_THRESHOLD;
                memo.near = (memo.near & !(1 << s)) | (u32::from(near) << s);
            }
        }
        memo.ring_seen = self.ring_writes;
        if memo.near != 0 {
            -1.0
        } else {
            0.0
        }
    }

    /// A fetched URL's sketch overwrites the oldest ring slot.
    fn on_fetched(&mut self, url: &str) {
        let sketch = self.sketcher.sketch_mut(&url_tokens(url));
        self.ring.write(self.ring_writes as usize % NEARDUP_RING, &sketch);
        self.ring_writes = self.ring_writes.wrapping_add(1);
    }
}

/// Per-directory reward statistics for [`BanditTerm`], and the arm's score
/// while `total_pulls` equals `scored_at` (every pull of any arm advances
/// `total_pulls`, so nothing the score reads can move under it).
#[derive(Debug, Clone, Copy)]
struct DirArm {
    pulls: u64,
    sum: f64,
    score: f64,
    scored_at: u64,
}

/// A directory nobody pulled yet, never scored.
const UNPULLED: DirArm = DirArm { pulls: 0, sum: 0.0, score: 0.0, scored_at: u64::MAX };

/// Bandit-style expected reward: URLs are grouped by their first path
/// segment (the "action" a directory represents), each group tracks the
/// mean terminal reward of its selections, and candidates score mean +
/// UCB exploration bonus — unexplored directories look optimistic, proven
/// target directories stay hot, and directories that only ever answered
/// HTML or errors decay toward 0.
///
/// A candidate's directory is resolved to its arm once, at admission (an
/// arm nobody pulled yet scores as no arm did: the optimistic prior), and
/// an arm's score is computed once per `total_pulls`, not once per
/// candidate.
#[derive(Debug, Default)]
struct BanditTerm {
    /// First path segment → its index in `arms`.
    arm_of_dir: HashMap<Box<str>, u32>,
    arms: Vec<DirArm>,
    total_pulls: u64,
    /// The arm of each frontier candidate.
    memos: Vec<u32>,
}

/// First path segment of a canonical URL ("" for the root).
fn dir_of(url: &str) -> &str {
    let path = url.splitn(4, '/').nth(3).unwrap_or("");
    path.split('/').next().unwrap_or("")
}

impl BanditTerm {
    /// The arm of `url`'s directory, founded (unpulled) on first sight —
    /// the only time the directory name is copied.
    fn arm_of(&mut self, url: &str) -> u32 {
        let dir = dir_of(url);
        if let Some(&arm) = self.arm_of_dir.get(dir) {
            return arm;
        }
        let arm = self.arms.len() as u32;
        self.arms.push(UNPULLED);
        self.arm_of_dir.insert(dir.into(), arm);
        arm
    }

    /// `url` enters the next free slot.
    fn admit(&mut self, url: &str) {
        let arm = self.arm_of(url);
        self.memos.push(arm);
    }

    fn score(&mut self, slot: usize) -> f64 {
        let total_pulls = self.total_pulls;
        let arm = &mut self.arms[self.memos[slot] as usize];
        if arm.scored_at != total_pulls {
            let t = (1.0 + total_pulls as f64).ln();
            arm.scored_at = total_pulls;
            arm.score = if arm.pulls > 0 {
                let mean = arm.sum / arm.pulls as f64;
                mean + 0.5 * (t / arm.pulls as f64).sqrt()
            } else {
                // Never pulled: optimistic prior plus the full bonus.
                0.5 + 0.5 * t.sqrt()
            };
        }
        arm.score
    }

    /// Terminal feedback for a selection of `url`: `1.0` when the
    /// selection was a target, `0.0` for an error answer, the page reward
    /// otherwise.
    fn observe(&mut self, url: &str, reward: f64) {
        let arm = self.arm_of(url);
        let arm = &mut self.arms[arm as usize];
        arm.pulls += 1;
        arm.sum += finite_or_zero(reward).clamp(0.0, 1.0);
        self.total_pulls += 1;
    }
}

// ----------------------------------------------------------------------
// The strategy
// ----------------------------------------------------------------------

/// Crawl4LLM-style value-driven frontier: every [`Strategy::select_batch`]
/// call scores the whole frontier with the four-term sum and returns the
/// top `k` (ties on [`UrlId`] ascending — the ranking is deterministic and
/// never consults the RNG). Links are always enqueued
/// ([`LinkDecision::Enqueue`]): selection order, not routing, is where this
/// strategy spends its intelligence.
///
/// Each selection's token indexes a ledger holding the selected URL until
/// its terminal feedback arrives (one per selection, the engine's
/// invariant), so the feedback can reach the bandit term with the URL it
/// concerns.
pub struct ValueStrategy {
    classifier: ClassifierTerm,
    neardup: NearDupTerm,
    bandit: BanditTerm,
    frontier: Vec<Candidate>,
    /// `frontier[..admitted]` have been admitted to the memo columns; the
    /// rest were discovered since the last ranking pass.
    admitted: usize,
    /// `Selection::token` indexes it: the selection's URL while its
    /// feedback is outstanding, `None` once settled.
    ledger: Vec<Option<Box<str>>>,
    /// Reused per-ranking scratch: one entry per candidate in the running.
    ranked: Vec<Ranked>,
    /// Reused per-ranking scratch, per old slot: the weighted depth and
    /// classifier terms folded (the sum the near-dup term joins), and the
    /// weighted bandit term.
    terms: Vec<(f64, f64)>,
    /// Reused per-ranking scratch: the old candidates' exact top-k.
    certified: Vec<Ranked>,
}

/// A frontier slot in a ranking pass: its combined value — or, for an old
/// candidate whose near-dup term has not run, an upper bound on it — with
/// its id and slot. Ordered by rank, best first: value descending,
/// [`UrlId`] ascending, then slot (what a stable sort of the slots would
/// do with a repeated id).
#[derive(Debug, Clone, Copy)]
struct Ranked {
    value: f64,
    id: UrlId,
    slot: usize,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .value
            .partial_cmp(&self.value)
            .expect("combined scores are finite by construction")
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.slot.cmp(&other.slot))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Replaces `ranked` — candidates each on an upper bound of its value — by
/// their exact top `k`, computing an exact value with `exact` only where it
/// can matter (`certified` is reused scratch). The `k` best bounds are
/// scored exactly first; after that a candidate is scored only if its bound
/// is at least the `k`-th best exact value found so far. A bound is never
/// below its exact value, so a candidate skipped that way ranks below `k`
/// others; `≥`, not `>`, keeps the ones that could still win a tie on
/// [`UrlId`].
fn certify_top(
    k: usize,
    ranked: &mut Vec<Ranked>,
    certified: &mut Vec<Ranked>,
    mut exact: impl FnMut(&Ranked) -> Ranked,
) {
    let take = k.min(ranked.len());
    if take == 0 {
        return;
    }
    if take < ranked.len() {
        ranked.select_nth_unstable(take - 1);
    }
    let mut heap = std::mem::take(certified);
    heap.clear();
    heap.extend(ranked[..take].iter().map(&mut exact));
    // A max-heap under rank order: the worst of the exact top-k on top.
    let mut top = BinaryHeap::from(heap);
    for r in &ranked[take..] {
        let mut kth = top.peek_mut().expect("take > 0");
        if r.value >= kth.value {
            let scored = exact(r);
            if scored < *kth {
                *kth = scored;
            }
        }
    }
    *certified = top.into_vec();
    ranked.clear();
    ranked.extend_from_slice(certified);
}

impl ValueStrategy {
    /// The one mix: depth 1.0, classifier 2.0, neardup 0.5 and bandit 1.0,
    /// summed in that order.
    pub fn default_mix() -> Self {
        ValueStrategy {
            classifier: ClassifierTerm::new(),
            neardup: NearDupTerm::new(),
            bandit: BanditTerm::default(),
            frontier: Vec::new(),
            admitted: 0,
            ledger: Vec::new(),
            ranked: Vec::new(),
            terms: Vec::new(),
            certified: Vec::new(),
        }
    }

    /// Adds a candidate to the frontier — what [`Strategy::decide`] does
    /// with every link, for callers that have no page to borrow one from.
    /// Owned-conversion boundary: the candidate outlives the page.
    pub fn enqueue(&mut self, id: UrlId, url: &str, depth: u32) {
        self.frontier.push(Candidate { id, url: url.into(), depth });
    }

    /// One terminal observation for the selection behind `token`, which
    /// settles it: its ledger entry is released.
    fn route_feedback(&mut self, token: u64, reward: f64) {
        let Some(url) = self.ledger.get_mut(token as usize).and_then(Option::take) else {
            debug_assert!(false, "feedback for a token this strategy never issued, or twice");
            return;
        };
        self.bandit.observe(&url, reward);
    }
}

impl Strategy for ValueStrategy {
    /// `VALUE[name:weight,…]` in fold order.
    fn name(&self) -> String {
        NAME.to_owned()
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        // The terms read URL and depth only; no per-link text is consulted.
        sb_html::LinkNeeds::HREF_ONLY
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
        self.select_batch(1, rng).pop()
    }

    fn select_batch(&mut self, k: usize, _rng: &mut StdRng) -> Vec<Selection> {
        if k == 0 || self.frontier.is_empty() {
            return Vec::new();
        }
        // Rank the whole frontier once (the Crawl4LLM iteration). The
        // combined value is a weighted sum of clamped terms, so it is
        // finite. Old candidates first, each on its bound — the near-dup
        // term's ceiling in its place — and then exactly only where the
        // bound reaches the old top-k.
        let mut ranked = std::mem::take(&mut self.ranked);
        ranked.clear();
        let mut terms = std::mem::take(&mut self.terms);
        terms.clear();
        for (slot, cand) in self.frontier[..self.admitted].iter().enumerate() {
            let mut partial = 0.0;
            partial += DEPTH_WEIGHT * finite_or_zero(depth_prior(cand));
            partial += CLASSIFIER_WEIGHT * finite_or_zero(self.classifier.score(slot));
            let bandit = BANDIT_WEIGHT * finite_or_zero(self.bandit.score(slot));
            terms.push((partial, bandit));
            let bound = partial + NEARDUP_WEIGHT * 0.0 + bandit;
            debug_assert!(bound.is_finite(), "clamped scores cannot combine to non-finite");
            ranked.push(Ranked { value: bound, id: cand.id, slot });
        }
        let neardup = &mut self.neardup;
        certify_top(k, &mut ranked, &mut self.certified, |r| {
            let (partial, bandit) = terms[r.slot];
            let value = partial + NEARDUP_WEIGHT * finite_or_zero(neardup.score(r.slot)) + bandit;
            Ranked { value, ..*r }
        });
        // Then every candidate discovered since the last pass, admitted
        // just before its first score — slot by slot, never all up front:
        // the near-dup vocabulary grows on admission, and slot `i` is
        // scored under what slots `..= i` have grown, as it always was.
        for (slot, cand) in self.frontier.iter().enumerate().skip(self.admitted) {
            let mut total = 0.0;
            total += DEPTH_WEIGHT * finite_or_zero(depth_prior(cand));
            self.classifier.admit(&cand.url);
            total += CLASSIFIER_WEIGHT * finite_or_zero(self.classifier.score(slot));
            self.neardup.admit(&cand.url);
            total += NEARDUP_WEIGHT * finite_or_zero(self.neardup.score(slot));
            self.bandit.admit(&cand.url);
            total += BANDIT_WEIGHT * finite_or_zero(self.bandit.score(slot));
            debug_assert!(total.is_finite(), "clamped scores cannot combine to non-finite");
            ranked.push(Ranked { value: total, id: cand.id, slot });
        }
        // Top k under the total order of `Ranked`.
        let take = k.min(ranked.len());
        if take < ranked.len() {
            ranked.select_nth_unstable(take - 1);
        }
        let picked = &mut ranked[..take];
        picked.sort_unstable();
        // The selected URLs move into the ledger, in rank order.
        let mut out = Vec::with_capacity(take);
        for &Ranked { slot, .. } in picked.iter() {
            let cand = &mut self.frontier[slot];
            out.push(Selection { url: cand.id.into(), token: self.ledger.len() as u64 });
            self.ledger.push(Some(std::mem::take(&mut cand.url)));
        }
        // Remove the selected candidates and their memos (largest slot
        // first, so earlier slots stay valid).
        picked.sort_unstable_by_key(|r| std::cmp::Reverse(r.slot));
        for &Ranked { slot, .. } in picked.iter() {
            self.frontier.swap_remove(slot);
            self.classifier.memos.swap_remove(slot);
            self.neardup.memos.swap_remove(slot);
            self.bandit.memos.swap_remove(slot);
        }
        self.admitted = self.frontier.len();
        debug_assert!(
            [self.classifier.memos.len(), self.neardup.memos.len(), self.bandit.memos.len()]
                .iter()
                .all(|&memos| memos == self.frontier.len()),
            "a memo column must hold one memo per frontier candidate after a pass"
        );
        self.ranked = ranked;
        self.terms = terms;
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
        // The selection itself was a target: maximal value per fetch.
        self.route_feedback(token, 1.0);
    }

    fn feedback_error(&mut self, token: u64) {
        self.route_feedback(token, 0.0);
    }

    fn on_fetched(&mut self, _id: UrlId, url: &str, class: UrlClass) {
        self.classifier.on_fetched(url, class);
        self.neardup.on_fetched(url);
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::SelUrl;
    use rand::SeedableRng;

    /// Certifies `bounds` (`(id, bound)` per slot) to the top `k` under
    /// `exact(slot)`: the exact top-k best first, and every slot scored.
    fn certify(
        k: usize,
        bounds: &[(UrlId, f64)],
        exact: impl Fn(usize) -> f64,
    ) -> (Vec<UrlId>, Vec<usize>) {
        let mut ranked: Vec<Ranked> = bounds
            .iter()
            .enumerate()
            .map(|(slot, &(id, value))| Ranked { value, id, slot })
            .collect();
        let mut scored = Vec::new();
        certify_top(k, &mut ranked, &mut Vec::new(), |r| {
            scored.push(r.slot);
            Ranked { value: exact(r.slot), ..*r }
        });
        ranked.sort_unstable();
        (ranked.iter().map(|r| r.id).collect(), scored)
    }

    #[test]
    fn finite_or_zero_clamps_only_non_finite() {
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
        assert_eq!(finite_or_zero(f64::INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NEG_INFINITY), 0.0);
        assert_eq!(finite_or_zero(-3.5), -3.5);
        assert_eq!(finite_or_zero(0.0), 0.0);
    }

    #[test]
    fn select_batch_is_deterministic_and_ranked() {
        let build = || {
            let mut s = ValueStrategy::default_mix();
            for k in 0..20u32 {
                let url = format!("https://s/{}", "x".repeat((k % 7) as usize + 1));
                s.enqueue(k, &url, k % 5);
            }
            s
        };
        let mut rng = StdRng::seed_from_u64(9);
        let a: Vec<_> = build().select_batch(8, &mut rng).into_iter().map(|s| s.url).collect();
        let b: Vec<_> = build().select_batch(8, &mut rng).into_iter().map(|s| s.url).collect();
        assert_eq!(a, b, "ranking never consults the RNG");
        assert_eq!(a.len(), 8);
        // Cold start: every learned term is flat, so the depth prior
        // decides — depth 0 first, the shortest URL first.
        assert_eq!(a[..2], [SelUrl::Id(0), SelUrl::Id(15)]);
    }

    #[test]
    fn tokens_index_the_ledger_and_feedback_routes() {
        let mut s = ValueStrategy::default_mix();
        s.enqueue(0, "https://s/files/a.csv", 1);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = s.next(&mut rng).expect("one candidate");
        assert_eq!(s.ledger[sel.token as usize].as_deref(), Some("https://s/files/a.csv"));
        s.feedback_target(sel.token);
        assert_eq!(s.ledger[sel.token as usize], None, "terminal feedback settles the entry");
        // The /files directory arm must now dominate an unseen one: the
        // other terms tie (same depth, same URL length, an untrained
        // classifier, an empty near-dup ring), and the tie would go to id 1.
        s.enqueue(1, "https://s/about/b.csv", 1);
        s.enqueue(2, "https://s/files/c.csv", 1);
        let next = s.next(&mut rng).expect("two candidates");
        assert_eq!(next.url, SelUrl::Id(2), "proven dir first");
    }

    /// With one bound far above the rest, certification scores it alone.
    #[test]
    fn certification_scores_only_bounds_that_reach_the_kth_total() {
        let mut bounds = vec![(0, 1.0)];
        bounds.extend((1..500).map(|id| (id, 0.5)));
        let (top, scored) = certify(1, &bounds, |slot| if slot == 0 { 0.9 } else { 0.4 });
        assert_eq!(top, [0]);
        assert_eq!(scored, [0], "only the top-1's bound reaches the top-1");
    }

    /// Every exact total equal and every bound equal to it: each candidate
    /// could still win its tie, so each is scored, and the top-k comes out
    /// in ascending `UrlId`.
    #[test]
    fn equal_bounds_and_totals_still_rank_by_url_id() {
        let bounds: Vec<(UrlId, f64)> = (0..49u32).map(|i| (1 + i * 37 % 49, 1.0)).collect();
        let (top, scored) = certify(5, &bounds, |_| 1.0);
        assert_eq!(top, [1, 2, 3, 4, 5]);
        assert_eq!(scored.len(), 49, "a tied bound must be scored");
    }

    /// The tie that decides the top-1 hides behind a looser bound: id 2
    /// bounds 2.0 and totals 1.0, id 1 bounds and totals 1.0. A bound equal
    /// to the best exact total must be scored, or id 2 would win.
    #[test]
    fn a_bound_equal_to_the_kth_total_is_scored_and_wins_its_tie() {
        let (top, scored) = certify(1, &[(2, 2.0), (1, 1.0)], |_| 1.0);
        assert_eq!(top, [1]);
        assert_eq!(scored, [0, 1]);
    }

    /// A steady-state pass asks the near-dup term only about candidates
    /// whose bound reaches the top-k: with one shallow winner over 499 deep
    /// URLs, the pass after a fetch scores the winner alone — and the
    /// winner's memo leaves with it, so no memo has seen the new write.
    #[test]
    fn a_steady_pass_runs_the_near_dup_term_only_where_its_bound_reaches_the_top_k() {
        let mut s = ValueStrategy::default_mix();
        s.enqueue(0, "https://s/x/a", 0);
        s.enqueue(1, "https://s/x/b", 0);
        for id in 2..500 {
            s.enqueue(id, &format!("https://s/x/deep/{id}/page"), 4);
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.select_batch(1, &mut rng)[0].url, SelUrl::Id(0));
        // A dead page: the ring moves, the classifier does not train.
        s.on_fetched(0, "https://s/x/a", UrlClass::Neither);
        assert_eq!(s.select_batch(1, &mut rng)[0].url, SelUrl::Id(1));
        let writes = s.neardup.ring_writes;
        let stale = s.neardup.memos.iter().filter(|m| m.ring_seen != writes).count();
        assert_eq!(stale, 498, "a candidate below the top-1 must not be scored");
    }

    /// The name, with each term and its weight in fold order.
    #[test]
    fn default_mix_names_its_scorers_and_weights() {
        assert_eq!(
            ValueStrategy::default_mix().name(),
            "VALUE[depth:1.0,classifier:2.0,neardup:0.5,bandit:1.0]"
        );
    }

    #[test]
    fn neardup_penalises_repeating_url_shapes() {
        let mut nd = NearDupTerm::new();
        for day in 1..=9 {
            nd.on_fetched(&format!("https://s/calendar/2021/01/0{day}"));
        }
        let mut score = |slot, url| {
            nd.admit(url);
            nd.score(slot)
        };
        let trap = score(0, "https://s/calendar/2021/01/27");
        let fresh = score(1, "https://s/papers/edbt-2026-accepted-list");
        assert!(trap < fresh, "trap-shaped URL must score below a fresh shape");
        assert_eq!(trap, -1.0);
    }

    /// A ring write replaces the slot's whole lane: a candidate that is a
    /// near-dup of slot 0's sketch alone stops being penalised once slot 0
    /// is overwritten by an unrelated URL.
    #[test]
    fn overwriting_a_ring_slot_forgets_its_old_sketch() {
        let mut nd = NearDupTerm::new();
        nd.on_fetched("https://s/calendar/2021/01/26");
        nd.admit("https://s/calendar/2021/01/27");
        assert_eq!(nd.score(0), -1.0);
        for _ in 1..NEARDUP_RING {
            nd.on_fetched("ftp://zone/alpha/beta");
            assert_eq!(nd.score(0), -1.0, "slot 0 still holds the near-dup");
        }
        nd.on_fetched("gopher://quiet/river/stone");
        assert_eq!(nd.score(0), 0.0, "slot 0's old coordinates must be gone");
    }

    /// Tokens are the lowercased alphanumeric runs, copied only when a run
    /// holds an uppercase letter.
    #[test]
    fn url_tokens_borrow_what_is_already_lowercase() {
        let tokens = url_tokens("https://S.example/Cal_2021/x--y");
        assert_eq!(tokens, ["https", "s", "example", "cal", "2021", "x", "y"]);
        let owned: Vec<bool> = tokens.iter().map(|t| matches!(t, Cow::Owned(_))).collect();
        assert_eq!(owned, [false, true, false, true, false, false, false]);
    }
}
