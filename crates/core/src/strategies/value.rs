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
//! # Score once, re-score what changed, and run a bounded scorer only where it can change the top-k
//!
//! A pass still *visits* every candidate, but it pays the per-URL work —
//! tokenising, sketching, featurising — **once per candidate**, and per
//! pass only for what a scorer's learned state has actually invalidated.
//! Each scorer keeps one compact memo per candidate, parallel to the
//! frontier (slot `i` of every scorer belongs to `frontier[i]`):
//!
//! * **What a memo may cache** is anything that is a function of the
//!   candidate alone (its feature vector, its sketch's bucket sums, its
//!   bandit arm) plus what was last computed from it — an answer, a
//!   projection — stamped with the scorer state it depended on.
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
//! * A memo is **released when its candidate is selected**
//!   ([`Scorer::release`], mirroring the frontier's `swap_remove`).
//! * **A scorer with [`Scorer::bounds`] runs only where it can change the
//!   top-k.** For a candidate admitted in an earlier pass, the pass first
//!   folds each bounded scorer's bound in place of its answer — an upper
//!   bound on the candidate's total, since IEEE addition and a fixed
//!   weight's product are monotone — then scores exactly the `k` best
//!   bounds and every other candidate whose bound still reaches the `k`-th
//!   best exact total (ties included, so they still break on [`UrlId`]).
//!   All of it happens before the pass admits anyone, as every old slot
//!   was scored before any new one; new candidates are admitted and scored
//!   by every scorer, slot by slot. In a mix with no bounded scorer every
//!   bound is its exact total, so the same path ranks every total exactly,
//!   as it always did. Debug builds check each bounded answer lies inside
//!   its declared bounds.
//!
//! There is one ranking path. The re-score-everything loop this replaced
//! lives on only as the test oracle (`crates/core/tests/oracle/`), which
//! `proptest_value.rs` and `batch.rs` compare every selection against.
//!
//! Four scorers ship with the repo, mirroring Crawl4LLM's length/fasttext
//! raters in this engine's vocabulary: [`DepthPriorScorer`] (link-length/
//! depth prior), [`ClassifierScorer`] (sb-ml online classifier
//! confidence), [`NearDupScorer`] (sb-ann sketch penalty for URL shapes
//! near-identical to already-fetched ones — calendar traps and session-id
//! farms score themselves out), and [`BanditScorer`] (per-directory
//! expected reward with a UCB exploration bonus, fed by the
//! one-feedback-per-selection stream). [`ValueStrategy::default_mix`]
//! weights all four; [`ValueStrategy::new`] takes any other mix.

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

/// A frontier entry as scorers see it: the interned id, the canonical URL
/// (owned at the [`Strategy::decide`] boundary, like every feature that
/// outlives its page) and the discovery depth.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub id: UrlId,
    pub url: Box<str>,
    pub depth: u32,
}

/// One composable rating method (a Crawl4LLM `rating_methods` entry).
///
/// The host keeps the frontier as a vector and addresses candidates by
/// **slot** (frontier index). A scorer that caches anything per candidate
/// keeps its memos in a vector parallel to it, under this contract:
///
/// * [`Scorer::admit`] is called exactly once per candidate, immediately
///   before its first [`Scorer::score`], and always for the slot one past
///   the scorer's last memo — so `admit` is a `push`. It happens at the
///   candidate's first ranking pass, in frontier order, *not* when the link
///   is discovered: a scorer whose learned state grows on admission (the
///   near-dup vocabulary) grows it in the same order, relative to its
///   [`Scorer::on_fetched`] calls, as if it scored from scratch every pass.
/// * Every pass calls `score` for every slot in ascending order — unless
///   the scorer declares [`Scorer::bounds`], see there. A memo may hold
///   whatever depends on the candidate alone, and the last answer stamped
///   with the scorer state it depended on; `score` recomputes only when the
///   stamp is stale, and must return what a memo-less scorer would.
/// * [`Scorer::release`] follows the frontier's `swap_remove(slot)` when a
///   candidate is selected; the scorer does the same to its memos.
///
/// `score` may return any float — the combinator clamps non-finite
/// answers to 0.0 ([`finite_or_zero`]) before weighting, so a degenerate
/// scorer can never corrupt the ranking. The learning hooks are optional:
/// the strategy forwards every fetched page's true class and every
/// selection's terminal feedback to every scorer. A stateless scorer
/// implements `name` and `score` only.
pub trait Scorer: Send {
    fn name(&self) -> &'static str;

    /// `cand` enters the next free slot: build its memo.
    fn admit(&mut self, cand: &Candidate) {
        let _ = cand;
    }

    /// Value estimate for the admitted candidate in `slot`.
    fn score(&mut self, slot: usize, cand: &Candidate) -> f64;

    /// `Some((lo, hi))` promises two things: every answer of `score` lies in
    /// `[lo, hi]` (both finite), and an answer depends only on this
    /// scorer's state and the candidate — not on which other slots were
    /// scored before it in the pass. In exchange the host may call `score`
    /// for only some of the candidates admitted in earlier passes, in any
    /// order, and rank the rest on the bound; a newly admitted candidate is
    /// still scored at admission. Read once, when the strategy is built.
    /// `None` (the default) keeps the every-slot, ascending-order contract.
    fn bounds(&self) -> Option<(f64, f64)> {
        None
    }

    /// The candidate in `slot` was selected and the last slot's candidate
    /// moved into its place (`swap_remove`).
    fn release(&mut self, slot: usize) {
        let _ = slot;
    }

    /// Memos currently held (0 for a stateless scorer). After a ranking
    /// pass a memoising scorer holds exactly one per frontier candidate.
    fn live_memos(&self) -> usize {
        0
    }

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

    fn score(&mut self, _slot: usize, cand: &Candidate) -> f64 {
        1.0 / (1.0 + f64::from(cand.depth) + cand.url.len() as f64 / 64.0)
    }
}

/// sb-ml classifier confidence (the `fasttext_score` analogue): an online
/// [`UrlClassifier`] trained on the crawl's own fetches, scoring each
/// candidate with the sigmoid of its decision value — the model's
/// confidence that the URL is a target. Before the first trained batch it
/// answers a flat 0.5 (uninformed), so early ranking rides the priors.
///
/// A candidate is featurised once, at admission; its score is a sparse dot
/// product redone only when a training batch has moved the weights.
pub struct ClassifierScorer {
    clf: UrlClassifier,
    memos: Vec<ClassifierMemo>,
}

struct ClassifierMemo {
    features: sb_ml::SparseVec,
    score: f64,
    /// [`UrlClassifier::trainings`] when `score` was computed.
    trainings: u64,
}

impl ClassifierScorer {
    pub fn new(clf: UrlClassifier) -> Self {
        ClassifierScorer { clf, memos: Vec::new() }
    }

    /// The paper-default classifier (logistic regression, URL-only
    /// features, batch 10) — free labels only, no HEAD bootstrap.
    pub fn paper_default() -> Self {
        ClassifierScorer::new(UrlClassifier::paper_default())
    }
}

impl Scorer for ClassifierScorer {
    fn name(&self) -> &'static str {
        "classifier"
    }

    fn admit(&mut self, cand: &Candidate) {
        self.memos.push(ClassifierMemo {
            features: self.clf.featurize(&FeatureInput::url_only(&cand.url)),
            score: 0.0,
            // No model has trained this often: the first `score` computes.
            trainings: u64::MAX,
        });
    }

    fn score(&mut self, slot: usize, _cand: &Candidate) -> f64 {
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

    fn release(&mut self, slot: usize) {
        self.memos.swap_remove(slot);
    }

    fn live_memos(&self) -> usize {
        self.memos.len()
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
/// shapes, which arrive in runs): one [`SketchRing`], so at most 32, and a
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
/// share their URL shape with what was just crawled; this scorer makes
/// them pay for it before a request is spent.
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
/// the memo, ring and hit table alone, so the scorer declares
/// [`Scorer::bounds`] and the host skips it wherever −1 cannot matter.
pub struct NearDupScorer {
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

impl NearDupScorer {
    pub fn new() -> Self {
        // D = 1024: large enough that bucket collisions stay rare for
        // URL-token vocabularies.
        let sketcher = Sketcher::new(2, Projector::new(10, 15, sb_ann::DEFAULT_PRIME));
        NearDupScorer {
            ring: SketchRing::new(sketcher.dim()),
            sketcher,
            ring_writes: 0,
            memos: Vec::new(),
        }
    }
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

impl Default for NearDupScorer {
    fn default() -> Self {
        NearDupScorer::new()
    }
}

impl Scorer for NearDupScorer {
    fn name(&self) -> &'static str {
        "neardup"
    }

    fn admit(&mut self, cand: &Candidate) {
        self.memos.push(NearDupMemo {
            sums: self.sketcher.admit(&url_tokens(&cand.url)),
            // Every bucket of a non-empty sketch has a hit, so the first
            // `score` projects and computes all bits (an empty one has none
            // to compute: its empty sketch is its projection).
            sketch: SparseVec::default(),
            hits: 0,
            ring_seen: self.ring_writes,
            near: 0,
        });
    }

    fn score(&mut self, slot: usize, _cand: &Candidate) -> f64 {
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

    fn bounds(&self) -> Option<(f64, f64)> {
        Some((-1.0, 0.0))
    }

    fn release(&mut self, slot: usize) {
        self.memos.swap_remove(slot);
    }

    fn live_memos(&self) -> usize {
        self.memos.len()
    }

    fn on_fetched(&mut self, url: &str, _class: UrlClass) {
        let sketch = self.sketcher.sketch_mut(&url_tokens(url));
        self.ring.write(self.ring_writes as usize % NEARDUP_RING, &sketch);
        self.ring_writes = self.ring_writes.wrapping_add(1);
    }
}

/// Per-directory reward statistics for [`BanditScorer`], and the arm's
/// score while `total_pulls` equals `scored_at` (every pull of any arm
/// advances `total_pulls`, so nothing the score reads can move under it).
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
pub struct BanditScorer {
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

impl BanditScorer {
    pub fn new() -> Self {
        BanditScorer::default()
    }

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
}

impl Scorer for BanditScorer {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn admit(&mut self, cand: &Candidate) {
        let arm = self.arm_of(&cand.url);
        self.memos.push(arm);
    }

    fn score(&mut self, slot: usize, _cand: &Candidate) -> f64 {
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

    fn release(&mut self, slot: usize) {
        self.memos.swap_remove(slot);
    }

    fn live_memos(&self) -> usize {
        self.memos.len()
    }

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
/// call scores the whole frontier with the configured [`Scorer`] mix and
/// returns the top `k` by weighted sum (ties on [`UrlId`] ascending — the
/// ranking is deterministic and never consults the RNG). Links are always
/// enqueued ([`LinkDecision::Enqueue`]): selection order, not routing, is
/// where this strategy spends its intelligence.
///
/// Each selection's token indexes a ledger holding the selected URL until
/// its terminal feedback arrives (one per selection, the engine's
/// invariant), so the feedback can be routed to every scorer with the URL
/// it concerns.
pub struct ValueStrategy {
    scorers: Vec<(Box<dyn Scorer>, f64)>,
    /// Per scorer, in mix order: its [`Scorer::bounds`] under its weight.
    bounds: Vec<Option<Bound>>,
    frontier: Vec<Candidate>,
    /// `frontier[..admitted]` have been through [`Scorer::admit`]; the rest
    /// were discovered since the last ranking pass.
    admitted: usize,
    /// `Selection::token` indexes it: the selection's URL while its
    /// feedback is outstanding, `None` once settled.
    ledger: Vec<Option<Box<str>>>,
    /// Reused per-ranking scratch: one entry per candidate in the running.
    ranked: Vec<Ranked>,
    /// Reused per-ranking scratch: every old candidate's weighted terms in
    /// mix order, a bounded scorer's ceiling in its place (row `slot`, one
    /// column per scorer).
    terms: Vec<f64>,
    /// Reused per-ranking scratch: the old candidates' exact top-k, worst
    /// on top.
    certified: Vec<Ranked>,
}

/// A frontier slot in a ranking pass: its combined value — or, for an old
/// candidate whose bounded scorers have not run, an upper bound on it —
/// with its id and slot. Ordered by rank, best first: value descending,
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

/// A scorer's declared [`Scorer::bounds`], with the largest term it can add
/// to a total under its weight in the mix.
#[derive(Debug, Clone, Copy)]
struct Bound {
    lo: f64,
    hi: f64,
    /// Weight × `hi`, or × `lo` under a negative weight.
    ceiling: f64,
}

impl Bound {
    /// `answer` from `scorer`; debug builds check it keeps the promise the
    /// ceiling was folded on.
    fn check(&self, scorer: &dyn Scorer, answer: f64) -> f64 {
        debug_assert!(
            self.lo <= answer && answer <= self.hi,
            "{}: answer {answer} outside its declared bounds [{}, {}]",
            scorer.name(),
            self.lo,
            self.hi
        );
        answer
    }
}

impl ValueStrategy {
    /// Builds from an explicit scorer mix.
    pub fn new(scorers: Vec<(Box<dyn Scorer>, f64)>) -> Self {
        assert!(!scorers.is_empty(), "a value strategy needs at least one scorer");
        let bounds = scorers
            .iter()
            .map(|(scorer, weight)| {
                let (lo, hi) = scorer.bounds()?;
                assert!(
                    lo.is_finite() && hi.is_finite() && lo <= hi,
                    "{}: bounds must be finite and ordered",
                    scorer.name()
                );
                Some(Bound { lo, hi, ceiling: *weight * if *weight >= 0.0 { hi } else { lo } })
            })
            .collect();
        ValueStrategy {
            scorers,
            bounds,
            frontier: Vec::new(),
            admitted: 0,
            ledger: Vec::new(),
            ranked: Vec::new(),
            terms: Vec::new(),
            certified: Vec::new(),
        }
    }

    /// The default mix: all four shipped scorers, classifier-weighted —
    /// depth 1.0, classifier 2.0, neardup 0.5 and bandit 1.0, in that order.
    pub fn default_mix() -> Self {
        ValueStrategy::new(vec![
            (Box::new(DepthPriorScorer), 1.0),
            (Box::new(ClassifierScorer::paper_default()), 2.0),
            (Box::new(NearDupScorer::new()), 0.5),
            (Box::new(BanditScorer::new()), 1.0),
        ])
    }

    /// Adds a candidate to the frontier — what [`Strategy::decide`] does
    /// with every link, for callers that have no page to borrow one from.
    /// Owned-conversion boundary: the candidate outlives the page.
    pub fn enqueue(&mut self, id: UrlId, url: &str, depth: u32) {
        self.frontier.push(Candidate { id, url: url.into(), depth });
    }

    /// `(name, live memos)` per scorer, in mix order ([`Scorer::live_memos`]).
    pub fn live_memos(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.scorers.iter().map(|(s, _)| (s.name(), s.live_memos()))
    }

    /// One terminal observation for the selection behind `token`, which
    /// settles it: its ledger entry is released.
    fn route_feedback(&mut self, token: u64, reward: f64) {
        let Some(url) = self.ledger.get_mut(token as usize).and_then(Option::take) else {
            debug_assert!(false, "feedback for a token this strategy never issued, or twice");
            return;
        };
        for (scorer, _) in &mut self.scorers {
            scorer.observe(&url, reward);
        }
    }

    /// Replaces `ranked` — the old candidates, each on its bound (`terms`
    /// holds the row it was folded from) — by their exact top `k`. The `k`
    /// best bounds are scored exactly first; after that a candidate is
    /// scored only if its bound is at least the `k`-th best exact total
    /// found so far. A bound is never below its exact total, so a candidate
    /// skipped that way ranks below `k` others; `≥`, not `>`, keeps the
    /// ones that could still win a tie on [`UrlId`].
    fn certify_old_top(&mut self, k: usize, ranked: &mut Vec<Ranked>, terms: &[f64]) {
        let take = k.min(ranked.len());
        if take == 0 {
            return;
        }
        if take < ranked.len() {
            ranked.select_nth_unstable(take - 1);
        }
        let columns = self.scorers.len();
        let (scorers, bounds, frontier) = (&mut self.scorers, &self.bounds, &self.frontier);
        // The same fold as the bound's, in mix order, with each bounded
        // scorer's answer where its ceiling stood. Without a bounded scorer
        // it re-adds the same terms: the exact total is the bound.
        let mut exact = |r: &Ranked| {
            let (cand, row) = (&frontier[r.slot], &terms[r.slot * columns..][..columns]);
            let mut total = 0.0;
            for (((scorer, weight), bound), &term) in scorers.iter_mut().zip(bounds).zip(row) {
                total += match bound {
                    Some(bound) => {
                        let answer = scorer.score(r.slot, cand);
                        *weight * finite_or_zero(bound.check(&**scorer, answer))
                    }
                    None => term,
                };
            }
            debug_assert!(total.is_finite(), "clamped scores cannot combine to non-finite");
            Ranked { value: total, ..*r }
        };
        let mut certified = std::mem::take(&mut self.certified);
        certified.clear();
        certified.extend(ranked[..take].iter().map(&mut exact));
        // A max-heap under rank order: the worst of the exact top-k on top.
        let mut top = BinaryHeap::from(certified);
        for r in &ranked[take..] {
            let mut kth = top.peek_mut().expect("take > 0");
            if r.value >= kth.value {
                let scored = exact(r);
                if scored < *kth {
                    *kth = scored;
                }
            }
        }
        let certified = top.into_vec();
        ranked.clear();
        ranked.extend_from_slice(&certified);
        self.certified = certified;
    }
}

impl Strategy for ValueStrategy {
    /// `VALUE[name:weight,…]` in mix order, e.g.
    /// `VALUE[depth:1.0,classifier:2.0,neardup:0.5,bandit:1.0]`.
    fn name(&self) -> String {
        let mix: Vec<String> =
            self.scorers.iter().map(|(s, w)| format!("{}:{w:?}", s.name())).collect();
        format!("VALUE[{}]", mix.join(","))
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        // Scorers read URL and depth only; no per-link text is consulted.
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
        // combined value is a weighted sum of clamped scores, so it is
        // finite. Old candidates first, each on its bound — every bounded
        // scorer's ceiling in place of its answer — and then exactly only
        // where the bound reaches the old top-k.
        let mut ranked = std::mem::take(&mut self.ranked);
        ranked.clear();
        let mut terms = std::mem::take(&mut self.terms);
        terms.clear();
        for (slot, cand) in self.frontier[..self.admitted].iter().enumerate() {
            let mut total = 0.0;
            for ((scorer, weight), bound) in self.scorers.iter_mut().zip(&self.bounds) {
                let term = match bound {
                    Some(bound) => bound.ceiling,
                    None => *weight * finite_or_zero(scorer.score(slot, cand)),
                };
                terms.push(term);
                total += term;
            }
            debug_assert!(total.is_finite(), "clamped scores cannot combine to non-finite");
            ranked.push(Ranked { value: total, id: cand.id, slot });
        }
        self.certify_old_top(k, &mut ranked, &terms);
        // Then every candidate discovered since the last pass, admitted
        // just before its first score — slot by slot, never all up front:
        // a scorer's state may grow on admission, and slot `i` is scored
        // under what slots `..= i` have grown, as it always was.
        for (slot, cand) in self.frontier.iter().enumerate().skip(self.admitted) {
            let mut total = 0.0;
            for ((scorer, weight), bound) in self.scorers.iter_mut().zip(&self.bounds) {
                scorer.admit(cand);
                let mut answer = scorer.score(slot, cand);
                if let Some(bound) = bound {
                    answer = bound.check(&**scorer, answer);
                }
                total += *weight * finite_or_zero(answer);
            }
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
            for (scorer, _) in &mut self.scorers {
                scorer.release(slot);
            }
        }
        self.admitted = self.frontier.len();
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
        for (scorer, _) in &mut self.scorers {
            scorer.on_fetched(url, class);
        }
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
    use std::sync::{Arc, Mutex};

    fn cand(id: UrlId, url: &str, depth: u32) -> Candidate {
        Candidate { id, url: url.into(), depth }
    }

    /// A scorer that always answers the same (possibly degenerate) value.
    struct Fixed(&'static str, f64);

    impl Scorer for Fixed {
        fn name(&self) -> &'static str {
            self.0
        }

        fn score(&mut self, _slot: usize, _cand: &Candidate) -> f64 {
            self.1
        }
    }

    /// An unbounded scorer that answers `f(id)`.
    struct ById(fn(UrlId) -> f64);

    impl Scorer for ById {
        fn name(&self) -> &'static str {
            "by-id"
        }

        fn score(&mut self, _slot: usize, cand: &Candidate) -> f64 {
            (self.0)(cand.id)
        }
    }

    /// A bounded scorer that answers `answer(id)` and records every
    /// candidate it was asked about.
    struct Counted {
        bounds: (f64, f64),
        answer: fn(UrlId) -> f64,
        calls: Arc<Mutex<Vec<UrlId>>>,
    }

    impl Scorer for Counted {
        fn name(&self) -> &'static str {
            "counted"
        }

        fn score(&mut self, _slot: usize, cand: &Candidate) -> f64 {
            self.calls.lock().unwrap().push(cand.id);
            (self.answer)(cand.id)
        }

        fn bounds(&self) -> Option<(f64, f64)> {
            Some(self.bounds)
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
        s.enqueue(0, "https://s/deep/deep/deep/page", 5);
        s.enqueue(1, "https://s/top", 1);
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
                s.enqueue(k, &url, k % 5);
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
        s.enqueue(0, "https://s/files/a.csv", 1);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = s.next(&mut rng).expect("one candidate");
        assert_eq!(s.ledger[sel.token as usize].as_deref(), Some("https://s/files/a.csv"));
        s.feedback_target(sel.token);
        assert_eq!(s.ledger[sel.token as usize], None, "terminal feedback settles the entry");
        // The /files directory arm must now dominate an unseen one with
        // identical depth priors.
        s.enqueue(1, "https://s/files/b.csv", 1);
        s.enqueue(2, "https://s/about/c.csv", 1);
        let next = s.next(&mut rng).expect("two candidates");
        assert_eq!(next.url, crate::strategy::SelUrl::Id(1), "proven dir first");
    }

    /// A steady-state pass asks a bounded scorer only about candidates
    /// whose bound reaches the top-k: with two shallow winners over 498 deep
    /// URLs, the pass that picks the second winner scores it alone.
    #[test]
    fn a_bounded_scorer_runs_only_where_its_bound_reaches_the_top_k() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let counted = Counted { bounds: (-1.0, 0.0), answer: |_| 0.0, calls: Arc::clone(&calls) };
        let mut s =
            ValueStrategy::new(vec![(Box::new(DepthPriorScorer), 1.0), (Box::new(counted), 0.5)]);
        s.enqueue(0, "https://s/a", 0);
        s.enqueue(1, "https://s/b", 0);
        for id in 2..500 {
            s.enqueue(id, &format!("https://s/deep/{id}/page"), 4);
        }
        let mut rng = StdRng::seed_from_u64(1);
        // The first pass admits every candidate, and admission scores.
        assert_eq!(s.select_batch(1, &mut rng)[0].url, SelUrl::Id(0));
        assert_eq!(calls.lock().unwrap().len(), 500);
        calls.lock().unwrap().clear();
        assert_eq!(s.select_batch(1, &mut rng)[0].url, SelUrl::Id(1));
        assert_eq!(*calls.lock().unwrap(), [1], "only the top-1's bound reaches the top-1");
    }

    /// Every exact total equal and every bound equal to it: each old
    /// candidate could still win its tie, so each is scored, and the
    /// selection comes out in ascending `UrlId` as the eager pass's did.
    #[test]
    fn equal_bounds_and_totals_still_rank_by_url_id() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let counted = Counted { bounds: (0.0, 0.0), answer: |_| 0.0, calls: Arc::clone(&calls) };
        let mut s =
            ValueStrategy::new(vec![(Box::new(counted), 1.0), (Box::new(Fixed("flat", 1.0)), 1.0)]);
        for i in 0..50u32 {
            let id = i * 37 % 50;
            s.enqueue(id, &format!("https://s/{id}"), 1);
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.select_batch(1, &mut rng)[0].url, SelUrl::Id(0));
        calls.lock().unwrap().clear();
        let ids: Vec<SelUrl> = s.select_batch(5, &mut rng).into_iter().map(|s| s.url).collect();
        assert_eq!(ids, (1..=5).map(SelUrl::Id).collect::<Vec<_>>());
        assert_eq!(calls.lock().unwrap().len(), 49, "a tied bound must be scored");
    }

    /// The tie that decides the top-1 hides behind a looser bound: id 2
    /// bounds 2.0 and totals 1.0, id 1 bounds and totals 1.0. A bound equal
    /// to the best exact total must be scored, or id 2 would win.
    #[test]
    fn a_bound_equal_to_the_kth_total_is_scored_and_wins_its_tie() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let answer = |id| if id == 1 { 1.0 } else { 0.0 };
        let counted = Counted { bounds: (0.0, 1.0), answer, calls: Arc::clone(&calls) };
        let mut s = ValueStrategy::new(vec![
            (Box::new(ById(|id| [9.0, 0.0, 1.0][id as usize])), 1.0),
            (Box::new(counted), 1.0),
        ]);
        for id in 0..3 {
            s.enqueue(id, &format!("https://s/{id}"), 1);
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.select_batch(1, &mut rng)[0].url, SelUrl::Id(0));
        assert_eq!(s.select_batch(1, &mut rng)[0].url, SelUrl::Id(1));
    }

    /// A bounded scorer that answers outside its declared bounds would make
    /// the ceiling a non-bound; debug builds catch it at its first answer.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside its declared bounds")]
    fn an_answer_outside_the_declared_bounds_panics_in_debug_builds() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let counted = Counted { bounds: (-1.0, 0.0), answer: |_| 0.5, calls };
        let mut s = ValueStrategy::new(vec![(Box::new(counted), 1.0)]);
        s.enqueue(0, "https://s/0", 1);
        s.select_batch(1, &mut StdRng::seed_from_u64(1));
    }

    /// The default mix, in order, with its weights.
    #[test]
    fn default_mix_names_its_scorers_and_weights() {
        assert_eq!(
            ValueStrategy::default_mix().name(),
            "VALUE[depth:1.0,classifier:2.0,neardup:0.5,bandit:1.0]"
        );
    }

    #[test]
    fn neardup_penalises_repeating_url_shapes() {
        let mut nd = NearDupScorer::new();
        for day in 1..=9 {
            nd.on_fetched(&format!("https://s/calendar/2021/01/0{day}"), UrlClass::Html);
        }
        let mut score = |slot, cand: Candidate| {
            nd.admit(&cand);
            nd.score(slot, &cand)
        };
        let trap = score(0, cand(0, "https://s/calendar/2021/01/27", 3));
        let fresh = score(1, cand(1, "https://s/papers/edbt-2026-accepted-list", 3));
        assert!(trap < fresh, "trap-shaped URL must score below a fresh shape");
        assert_eq!(trap, -1.0);
    }

    /// A ring write replaces the slot's whole lane: a candidate that is a
    /// near-dup of slot 0's sketch alone stops being penalised once slot 0
    /// is overwritten by an unrelated URL.
    #[test]
    fn overwriting_a_ring_slot_forgets_its_old_sketch() {
        let mut nd = NearDupScorer::new();
        nd.on_fetched("https://s/calendar/2021/01/26", UrlClass::Html);
        let trap = cand(0, "https://s/calendar/2021/01/27", 3);
        nd.admit(&trap);
        assert_eq!(nd.score(0, &trap), -1.0);
        for _ in 1..NEARDUP_RING {
            nd.on_fetched("ftp://zone/alpha/beta", UrlClass::Html);
            assert_eq!(nd.score(0, &trap), -1.0, "slot 0 still holds the near-dup");
        }
        nd.on_fetched("gopher://quiet/river/stone", UrlClass::Html);
        assert_eq!(nd.score(0, &trap), 0.0, "slot 0's old coordinates must be gone");
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
