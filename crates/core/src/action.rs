//! The action space of the sleeping bandit (Algorithm 1).
//!
//! An *action* is an evolving cluster of similar tag paths, represented only
//! by its centroid (a `Vec<SparseVec>`, one per action; the nearest one is
//! found by an exact scan — a healthy clustering stays within a few dozen
//! actions). For each new hyperlink, its tag path is sketched (token n-grams
//! over a dynamic vocabulary, projected to a fixed dimension — a
//! [`Sketcher`], sparse end to end: ~10 non-zeros out of `D = 4096`) and
//! matched against the nearest centroid: cosine similarity ≥ θ joins the
//! action and moves its centroid; anything less founds a new action.
//!
//! The θ = 1 extreme creates one action per distinct path (pure exploration,
//! and the `ed` OOM pathology of Table 4 — reproduced here by the optional
//! `max_actions` guard); θ = 0 collapses everything into one action (pure
//! random selection).
//!
//! ## The path memo
//!
//! A site's links come from a few dozen templates, so `assign` sees the same
//! tag path over and over. It pays for each distinct path once, and every
//! answer stays what sketching and scanning afresh would give. The memo is
//! keyed on the [`TagPath`] itself — its text *and* its token boundaries,
//! since an `id` may contain a space and two paths can share their text.
//! Each entry holds:
//!
//! - the path's `BucketSums` from `Sketcher::admit`, taken at first sighting
//!   only. Only a first sighting can grow the vocabulary, so the growth
//!   order and every hit count are unchanged;
//! - its projected `SparseVec` and the `hits_under` value it was projected
//!   at. It is re-projected with `project_into` only when `hits_under` has
//!   moved, and every cached cosine of the entry goes stale with it;
//! - one cosine per action, stamped with that centroid's member count. A
//!   centroid changes only when it is created or absorbs a member, so a
//!   cached cosine is valid while its centroid's member count and the
//!   path's `hits_under` are unchanged: it is then bit for bit what
//!   `cosine_sparse` returns now. Only stale cells are recomputed — usually
//!   the one centroid the previous join moved.
//!
//! The memo empties whenever an entry would take its estimated size (the
//! cosine cells, the keys, the sums and the sketches) past `MEMO_BYTES`,
//! 1 MiB. A stream of paths that never repeat — θ = 0.95, `unique_ids`
//! sites — thus costs at most about that much more memory than sketching
//! every link afresh. Re-admitting a path after the memo empties yields the
//! same sums, because its grams are already in the vocabulary.
//!
//! `match_only` does not use the memo: it sketches against the frozen
//! vocabulary and scans every centroid, as TP-OFF's phase 2 always did.

use sb_ann::{cosine_sparse, BucketSums, Projector, Sketcher, SparseVec};
use sb_html::TagPath;
use sb_webgraph::FxHashMap;
use std::mem::size_of;

/// Upper bound on the path memo's estimated size, in bytes. Crossing it
/// empties the memo.
const MEMO_BYTES: usize = 1 << 20;

/// Identifier of an action (dense, in creation order).
pub type ActionId = usize;

/// Configuration of the tag-path clustering.
#[derive(Debug, Clone)]
pub struct ActionSpaceConfig {
    /// n-gram order for tag-path tokens (paper default: 2).
    pub ngram: usize,
    /// Cosine-similarity threshold θ (paper default: 0.75).
    pub theta: f32,
    /// Projection dimension exponent `m` (D = 2^m; paper default: 12).
    pub m: u32,
    /// Hash modulus exponent `w` (paper default: 15).
    pub w: u32,
    /// Hash prime Π.
    pub prime: u64,
    /// Abort when the action count exceeds this bound (the paper's θ = 0.95
    /// run on `ed` died of OOM; we fail gracefully instead).
    pub max_actions: Option<usize>,
}

impl Default for ActionSpaceConfig {
    fn default() -> Self {
        ActionSpaceConfig {
            ngram: 2,
            theta: 0.75,
            m: 12,
            w: 15,
            prime: sb_ann::DEFAULT_PRIME,
            max_actions: None,
        }
    }
}

/// Raised when `max_actions` is exceeded — the graceful version of the
/// paper's OOM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionSpaceFull {
    pub actions: usize,
}

impl std::fmt::Display for ActionSpaceFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "action space exploded to {} clusters (θ too high for this site)", self.actions)
    }
}

impl std::error::Error for ActionSpaceFull {}

/// One action's clustering bookkeeping (bandit statistics live with the
/// strategy, not here).
#[derive(Debug, Clone)]
struct ActionMeta {
    /// Members absorbed so far (drives the centroid update weight).
    members: u64,
    /// A representative tag path, for the Sec 4.7 interpretability study.
    exemplar: String,
}

/// One memoised tag path (see the module docs).
struct PathMemo {
    /// From `Sketcher::admit` at the path's first sighting.
    sums: BucketSums,
    /// `hits_under(sums)` when `projected` was computed.
    hits: u32,
    projected: SparseVec,
    /// `sims[a]`: the cosine of `projected` to centroid `a`.
    sims: Vec<Sim>,
}

/// A cached cosine, valid while its centroid has `members` members.
#[derive(Clone, Copy)]
struct Sim {
    members: u64,
    cos: f32,
}

impl Sim {
    /// No centroid has zero members, so this cell is always recomputed.
    const STALE: Sim = Sim { members: 0, cos: 0.0 };
}

/// Estimated bytes of `path`'s memo entry without its cosines: the entry
/// and its table slot, the key's text and token ends, and the sums and the
/// sketch (at most one bucket per n-gram, at most `len + 1` n-grams).
fn entry_bytes(path: &TagPath) -> usize {
    size_of::<(TagPath, PathMemo)>()
        + path.as_str().len()
        + path.len() * size_of::<u32>()
        + 2 * (path.len() + 1) * size_of::<(u32, f32)>()
}

/// The nearest centroid, given the cosine to each in id order: the
/// smallest distance `1 − cos` (as an f32) wins, ties go to the lowest id.
fn nearest(cosines: impl Iterator<Item = f32>) -> Option<(ActionId, f32)> {
    // `min_by` keeps the first of equal minima, i.e. the lowest id.
    cosines.enumerate().min_by(|a, b| (1.0 - a.1).total_cmp(&(1.0 - b.1)))
}

/// The online tag-path clustering of Algorithm 1.
pub struct ActionSpace {
    cfg: ActionSpaceConfig,
    sketcher: Sketcher,
    /// `centroids[a]` is action `a`'s centroid; parallel to `metas`.
    centroids: Vec<SparseVec>,
    metas: Vec<ActionMeta>,
    /// Every distinct path's sketch and cosines (see the module docs).
    memo: FxHashMap<TagPath, PathMemo>,
    /// Σ `entry_bytes` over the memo's keys plus its cosine cells; at most
    /// `MEMO_BYTES`, unless one entry alone is larger (past ~65 000
    /// actions, when the centroids already take several times more).
    memo_bytes: usize,
    /// The centroid move's destination, swapped with the centroid it moves.
    scratch: SparseVec,
}

impl ActionSpace {
    pub fn new(cfg: ActionSpaceConfig) -> Self {
        let sketcher = Sketcher::new(cfg.ngram, Projector::new(cfg.m, cfg.w, cfg.prime));
        ActionSpace {
            sketcher,
            cfg,
            centroids: Vec::new(),
            metas: Vec::new(),
            memo: FxHashMap::default(),
            memo_bytes: 0,
            scratch: SparseVec::default(),
        }
    }

    /// Number of actions created so far.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Vocabulary size `d` (grows during the crawl).
    pub fn vocab_len(&self) -> usize {
        self.sketcher.vocab_len()
    }

    /// A representative tag path of an action.
    pub(crate) fn exemplar(&self, a: ActionId) -> &str {
        &self.metas[a].exemplar
    }

    /// Number of tag paths absorbed by an action.
    pub fn members(&self, a: ActionId) -> u64 {
        self.metas[a].members
    }

    /// Read-only lookup: the action a tag path *would* join, without
    /// creating one or updating anything. Unseen n-grams are dropped (the
    /// vocabulary is frozen) — this is TP-OFF's phase-2 behaviour, where all
    /// learning stopped with phase 1.
    pub fn match_only(&self, path: &TagPath) -> Option<ActionId> {
        let tokens: Vec<&str> = path.tokens().collect();
        let projected = self.sketcher.sketch(&tokens);
        match nearest(self.centroids.iter().map(|c| cosine_sparse(&projected, c))) {
            Some((a, sim)) if sim >= self.cfg.theta => Some(a),
            _ => None,
        }
    }

    /// Algorithm 1: finds (or creates) the action for a hyperlink's tag
    /// path. Returns the action id, or [`ActionSpaceFull`] when the guard
    /// trips.
    pub fn assign(&mut self, path: &TagPath) -> Result<ActionId, ActionSpaceFull> {
        let actions = self.metas.len();
        let cells_bytes = |cells: usize| cells * size_of::<Sim>();
        let memo = match self.memo.get_mut(path) {
            Some(memo)
                if self.memo_bytes + cells_bytes(actions - memo.sims.len()) <= MEMO_BYTES =>
            {
                memo
            }
            // A first sighting, or a row whose new cells would pass the
            // bound — then so does a fresh row, and the memo empties below.
            _ => {
                let tokens: Vec<&str> = path.tokens().collect();
                let sums = self.sketcher.admit(&tokens);
                let bytes = entry_bytes(path);
                if self.memo_bytes + bytes + cells_bytes(actions) > MEMO_BYTES {
                    self.memo.clear();
                    self.memo_bytes = 0;
                }
                self.memo_bytes += bytes;
                // `hits_under` is 0 only for empty sums, whose projection is
                // the empty default: anything else is projected below.
                let fresh =
                    PathMemo { sums, hits: 0, projected: SparseVec::default(), sims: Vec::new() };
                self.memo.entry(path.clone()).or_insert(fresh)
            }
        };
        let hits = self.sketcher.hits_under(&memo.sums);
        if hits != memo.hits {
            self.sketcher.project_into(&memo.sums, &mut memo.projected);
            memo.hits = hits;
            memo.sims.fill(Sim::STALE);
        }
        self.memo_bytes += cells_bytes(actions - memo.sims.len());
        memo.sims.resize(actions, Sim::STALE);

        let (centroids, metas) = (&self.centroids, &self.metas);
        let cosines =
            memo.sims.iter_mut().zip(centroids.iter().zip(metas)).map(|(sim, (c, meta))| {
                if sim.members != meta.members {
                    *sim = Sim { members: meta.members, cos: cosine_sparse(&memo.projected, c) };
                }
                sim.cos
            });
        if let Some((a, sim)) = nearest(cosines) {
            if sim >= self.cfg.theta {
                // Join: move the centroid toward the newcomer.
                let m = self.metas[a].members as f32;
                self.centroids[a].moved_toward_into(&memo.projected, m, &mut self.scratch);
                std::mem::swap(&mut self.centroids[a], &mut self.scratch);
                self.metas[a].members += 1;
                return Ok(a);
            }
        }
        // Found nothing similar enough: a new action is born.
        if let Some(cap) = self.cfg.max_actions {
            if actions >= cap {
                return Err(ActionSpaceFull { actions });
            }
        }
        self.centroids.push(memo.projected.clone());
        self.metas.push(ActionMeta { members: 1, exemplar: path.as_str().to_owned() });
        Ok(actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(s: &str) -> TagPath {
        TagPath::parse(s)
    }

    fn space(theta: f32) -> ActionSpace {
        ActionSpace::new(ActionSpaceConfig { theta, ..Default::default() })
    }

    #[test]
    fn identical_paths_share_an_action() {
        let mut s = space(0.75);
        let a = s.assign(&tp("html body div#main ul.datasets li a")).unwrap();
        let b = s.assign(&tp("html body div#main ul.datasets li a")).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
        assert_eq!(s.members(a), 2);
    }

    #[test]
    fn similar_paths_cluster_dissimilar_split() {
        // Realistic depth matters: at θ = 0.75 two 10-segment paths
        // differing only in the link class share 9/11 bigrams (cos ≈ 0.82).
        let mut s = space(0.75);
        let a = s
            .assign(&tp("html body div#layout div.wrap main div.content ul.datasets li a.download"))
            .unwrap();
        let b = s
            .assign(&tp("html body div#layout div.wrap main div.content ul.datasets li a.dataset"))
            .unwrap();
        let c = s.assign(&tp("html body header nav ul.menu li a")).unwrap();
        assert_eq!(a, b, "near-identical dataset paths must merge");
        assert_ne!(a, c, "nav path must found its own action");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn theta_one_separates_every_distinct_path() {
        let mut s = space(1.0);
        let paths = [
            "html body div ul li a",
            "html body div ul li a.x",
            "html body div ol li a",
            "html body nav a",
        ];
        let ids: Vec<_> = paths.iter().map(|p| s.assign(&tp(p)).unwrap()).collect();
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), paths.len());
    }

    #[test]
    fn theta_zero_collapses_everything() {
        let mut s = space(0.0);
        let a = s.assign(&tp("html body div ul li a")).unwrap();
        let b = s.assign(&tp("html body footer div.links a")).unwrap();
        let c = s.assign(&tp("html nav a")).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn max_actions_guard_fires() {
        let mut s = ActionSpace::new(ActionSpaceConfig {
            theta: 1.0,
            max_actions: Some(3),
            ..Default::default()
        });
        // Use structurally different paths so θ=1.0 can't merge them.
        let paths =
            ["html body a", "html body div a", "html body div div a", "html body div div div a"];
        let mut err = None;
        for p in paths {
            if let Err(e) = s.assign(&tp(p)) {
                err = Some(e);
            }
        }
        let e = err.expect("guard must fire on the 4th distinct path");
        assert_eq!(e.actions, 3);
    }

    #[test]
    fn centroid_update_keeps_cluster_attractive() {
        let mut s = space(0.75);
        // A drifting family of similar (deep) paths must stay one action:
        // only the link class varies, the ≥ 80 % shared bigrams keep every
        // variant above θ even as the centroid moves.
        let variants = [
            "html body div#layout div.wrap main div.content ul.datasets li a.download",
            "html body div#layout div.wrap main div.content ul.datasets li a.file",
            "html body div#layout div.wrap main div.content ul.datasets li a.dataset",
            "html body div#layout div.wrap main div.content ul.datasets li a.doc-link",
        ];
        let ids: Vec<_> = variants.iter().map(|p| s.assign(&tp(p)).unwrap()).collect();
        assert!(ids.iter().all(|&i| i == ids[0]), "{ids:?} should all merge");
        assert_eq!(s.members(ids[0]), variants.len() as u64);
    }

    /// The orphan scenario an approximate index lost centroids in: many
    /// near-equidistant actions, each moved once. Every founding path must
    /// still find its own action and found nothing new.
    #[test]
    fn moved_near_equidistant_centroids_all_stay_reachable() {
        // Sibling paths share 8 of 10 bigrams (cos = 0.8 < θ); an inserted
        // `b` keeps 9 of 10 against 11 (cos ≈ 0.86 ≥ θ) and so joins and moves.
        let mut s = space(0.83);
        let family = |i: usize, tail: &str| {
            tp(&format!("html body div#layout div.wrap main ul.list li#i{i} {tail}"))
        };
        let n = 20;
        for i in 0..n {
            assert_eq!(s.assign(&family(i, "span a")).unwrap(), i);
        }
        for i in 0..n {
            assert_eq!(s.assign(&family(i, "span b a")).unwrap(), i);
        }
        assert_eq!(s.len(), n);
        for i in 0..n {
            assert_eq!(s.match_only(&family(i, "span a")), Some(i));
            assert_eq!(s.assign(&family(i, "span a")).unwrap(), i);
        }
        assert_eq!(s.len(), n);
    }

    #[test]
    fn exemplar_is_first_member() {
        let mut s = space(0.75);
        let a = s.assign(&tp("html body ul.datasets li a")).unwrap();
        assert_eq!(s.exemplar(a), "html body ul.datasets li a");
    }

    /// At θ = 0.95 every unique-id path founds its own action, so the memo's
    /// cosine cells grow quadratically: it must empty before its bound, and
    /// its byte count must be exactly what its entries add up to.
    #[test]
    fn distinct_paths_never_take_the_memo_past_its_bound() {
        let mut s = space(0.95);
        let mut emptied = false;
        for i in 0..1000 {
            let before = s.memo.len();
            s.assign(&tp(&format!("html body div#main ul.list li#i{i} span a"))).unwrap();
            let counted: usize = s
                .memo
                .iter()
                .map(|(path, memo)| entry_bytes(path) + memo.sims.len() * size_of::<Sim>())
                .sum();
            assert_eq!(s.memo_bytes, counted, "path {i}");
            assert!(s.memo_bytes <= MEMO_BYTES, "path {i}: {} bytes", s.memo_bytes);
            emptied |= s.memo.len() <= before;
        }
        assert!(s.len() > 300, "only {} actions", s.len());
        assert!(emptied, "the stream never reached the bound");
    }

    /// An `id` may contain a space, so two paths can render the same text.
    /// The memo keys on the token boundaries too: each keeps its own sketch.
    #[test]
    fn paths_sharing_their_text_keep_their_own_sketches() {
        let spaced = TagPath::from_tokens(["html", "body", "div#x a"]);
        let split = tp("html body div#x a");
        assert_eq!(spaced.as_str(), split.as_str());
        let mut s = space(1.0);
        let a = s.assign(&spaced).unwrap();
        let b = s.assign(&split).unwrap();
        assert_ne!(a, b, "the split path's grams differ from the spaced one's");
        assert_eq!(s.assign(&spaced).unwrap(), a);
        assert_eq!(s.assign(&split).unwrap(), b);
    }

    #[test]
    fn vocab_grows_with_new_paths() {
        let mut s = space(0.75);
        s.assign(&tp("html body a")).unwrap();
        let d1 = s.vocab_len();
        s.assign(&tp("html body nav ul li a")).unwrap();
        assert!(s.vocab_len() > d1);
    }
}
