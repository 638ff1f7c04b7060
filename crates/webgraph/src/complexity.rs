//! Proposition 4: the graph crawling problem is NP-complete.
//!
//! This module makes the paper's hardness argument executable:
//!
//! * [`SetCoverInstance`] — the classic NP-hard source problem,
//! * [`reduce_set_cover`] — the polynomial reduction of Appendix A.1 and
//!   Figure 6: universe elements and sets become vertices of a depth-2 tree
//!   under a fresh root, `V* = U`, `ω ≡ 1`, and a cover of size `≤ B` exists
//!   iff a crawl of cost `≤ |U| + B + 1` does,
//! * [`min_crawl_cost`] — an exact branch-and-bound solver for small graphs
//!   (the "optimal crawler" that Proposition 4 says cannot scale), used as a
//!   test oracle and by the `xp hardness` experiment,
//! * [`greedy_set_cover`] / [`min_set_cover`] — baseline and exact cover
//!   solvers to cross-check the equivalence on random instances.

#[cfg(test)]
use crate::graph::Crawl;
use crate::graph::{NodeIdx, WebsiteGraph};
use sb_html::TagPath;
use std::collections::HashSet;

/// A set cover instance: universe `{0, …, universe-1}` and a collection of sets.
#[derive(Debug, Clone)]
pub struct SetCoverInstance {
    pub universe: usize,
    pub sets: Vec<Vec<usize>>,
}

impl SetCoverInstance {
    /// Panics if a set mentions an element outside the universe or the union
    /// of the sets does not cover the universe (the paper assumes ∪s = U).
    pub fn new(universe: usize, sets: Vec<Vec<usize>>) -> Self {
        let mut seen = vec![false; universe];
        for s in &sets {
            for &e in s {
                assert!(e < universe, "element outside universe");
                seen[e] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "sets must cover the universe");
        SetCoverInstance { universe, sets }
    }

    /// Does `chosen` (indices into `sets`) cover the universe?
    #[cfg(test)]
    fn is_cover(&self, chosen: &[usize]) -> bool {
        let mut seen = vec![false; self.universe];
        for &i in chosen {
            for &e in &self.sets[i] {
                seen[e] = true;
            }
        }
        seen.iter().all(|&b| b)
    }
}

/// Output of the reduction: the graph plus the index ranges of both node kinds.
#[derive(Debug, Clone)]
pub struct Reduction {
    pub graph: WebsiteGraph,
    /// `V*`: the universe-element vertices (no out-links, per Prop 4).
    pub targets: HashSet<NodeIdx>,
    /// Vertices representing the sets `s_1 … s_n`.
    pub set_nodes: Vec<NodeIdx>,
}

/// The polynomial-time reduction of Appendix A.1 (Figure 6): root `r` links
/// to one vertex per set; each set vertex links to its elements' vertices.
pub fn reduce_set_cover(inst: &SetCoverInstance) -> Reduction {
    let n_nodes = 1 + inst.sets.len() + inst.universe;
    let root = 0;
    let mut g = WebsiteGraph::unit_weights(n_nodes, root);
    let label = TagPath::parse("html body a"); // λ is "some constant function"
    let set_node = |i: usize| 1 + i;
    let elem_node = |e: usize| 1 + inst.sets.len() + e;
    let mut set_nodes = Vec::with_capacity(inst.sets.len());
    for (i, s) in inst.sets.iter().enumerate() {
        g.add_edge(root, set_node(i), label.clone());
        set_nodes.push(set_node(i));
        for &e in s {
            g.add_edge(set_node(i), elem_node(e), label.clone());
        }
    }
    let targets = (0..inst.universe).map(elem_node).collect();
    Reduction { graph: g, targets, set_nodes }
}

/// The budget translation of Prop 4: cover size `B` ↔ crawl cost `|U| + B + 1`.
pub fn crawl_budget_for_cover_budget(inst: &SetCoverInstance, b: usize) -> f64 {
    (inst.universe + b + 1) as f64
}

/// Exact minimal crawl cost covering `targets`, by include/exclude branch
/// and bound over the *set* of crawled nodes (each useful node is decided
/// at most once per search path, so the tree has ≤ 2^n leaves — never the
/// factorial blow-up of order-based branching). Exponential — only for
/// small graphs (≲ 25 useful nodes), which is exactly Proposition 4's
/// point.
///
/// Returns `None` if some target is unreachable from the root.
pub fn min_crawl_cost(g: &WebsiteGraph, targets: &HashSet<NodeIdx>) -> Option<f64> {
    solve(g, targets, false).map(|(cost, _)| cost)
}

fn solve(
    g: &WebsiteGraph,
    targets: &HashSet<NodeIdx>,
    record_set: bool,
) -> Option<(f64, Option<Vec<NodeIdx>>)> {
    let reachable = g.reachable();
    if !targets.iter().all(|t| reachable.contains(t)) {
        return None;
    }
    // Keep only nodes that can still matter: nodes on some path root→target.
    // (Sound pruning: a minimal crawl tree only contains such nodes.)
    let useful = useful_nodes(g, targets);

    let mut search = Search { g, useful, best: f64::INFINITY, best_set: None, record_set };
    let mut crawled: HashSet<NodeIdx> = HashSet::new();
    crawled.insert(g.root());
    let mut excluded: HashSet<NodeIdx> = HashSet::new();
    let mut remaining: HashSet<NodeIdx> = targets.clone();
    remaining.remove(&g.root());
    let start_cost = g.weight(g.root());
    search.branch(&mut crawled, &mut excluded, &mut remaining, start_cost);
    search.best.is_finite().then_some((search.best, search.best_set))
}

struct Search<'a> {
    g: &'a WebsiteGraph,
    useful: HashSet<NodeIdx>,
    best: f64,
    best_set: Option<Vec<NodeIdx>>,
    record_set: bool,
}

impl Search<'_> {
    fn branch(
        &mut self,
        crawled: &mut HashSet<NodeIdx>,
        excluded: &mut HashSet<NodeIdx>,
        remaining: &mut HashSet<NodeIdx>,
        cost: f64,
    ) {
        if remaining.is_empty() {
            if cost < self.best {
                self.best = cost;
                if self.record_set {
                    self.best_set = Some(crawled.iter().copied().collect());
                }
            }
            return;
        }
        // Lower bound: every remaining target's own weight is still owed.
        let owed: f64 = remaining.iter().map(|&t| self.g.weight(t)).sum();
        if cost + owed >= self.best {
            return;
        }
        // Deterministically pick one undecided frontier node (remaining
        // targets first — their exclude branch is infeasible and skipped).
        let mut pick: Option<(bool, NodeIdx)> = None;
        for &u in crawled.iter() {
            for v in self.g.successors(u) {
                if crawled.contains(&v) || excluded.contains(&v) || !self.useful.contains(&v) {
                    continue;
                }
                let key = (!remaining.contains(&v), v);
                if pick.is_none_or(|p| key < p) {
                    pick = Some(key);
                }
            }
        }
        // No undecided frontier left: the exclusions cut every remaining
        // target off — this subtree is infeasible.
        let Some((not_target, v)) = pick else { return };

        // Include v.
        crawled.insert(v);
        let was_target = remaining.remove(&v);
        self.branch(crawled, excluded, remaining, cost + self.g.weight(v));
        if was_target {
            remaining.insert(v);
        }
        crawled.remove(&v);

        // Exclude v — pointless for a remaining target (it must be crawled
        // in any solution), so that branch is pruned outright.
        if not_target {
            excluded.insert(v);
            self.branch(crawled, excluded, remaining, cost);
            excluded.remove(&v);
        }
    }
}

fn useful_nodes(g: &WebsiteGraph, targets: &HashSet<NodeIdx>) -> HashSet<NodeIdx> {
    // Nodes from which some target is reachable (reverse reachability),
    // plus the targets themselves.
    let n = g.len();
    let mut rev: Vec<Vec<NodeIdx>> = vec![Vec::new(); n];
    for u in 0..n {
        for v in g.successors(u) {
            rev[v].push(u);
        }
    }
    let mut useful: HashSet<NodeIdx> = HashSet::new();
    let mut stack: Vec<NodeIdx> = targets.iter().copied().collect();
    while let Some(u) = stack.pop() {
        if useful.insert(u) {
            stack.extend(rev[u].iter().copied());
        }
    }
    useful
}

/// Reconstructs an actual minimal crawl tree (not just its cost) for small
/// graphs: the same set-branching search, recording the argmin node set,
/// then a BFS over that set (any spanning order of a feasible crawl set is
/// a valid crawl tree).
#[cfg(test)]
fn min_crawl(g: &WebsiteGraph, targets: &HashSet<NodeIdx>) -> Option<Crawl> {
    let (_cost, set) = solve(g, targets, true)?;
    let set: HashSet<NodeIdx> = set?.into_iter().collect();
    let mut crawl = Crawl::rooted(g.root());
    let mut queue: std::collections::VecDeque<NodeIdx> = std::collections::VecDeque::new();
    let mut visited: HashSet<NodeIdx> = HashSet::new();
    visited.insert(g.root());
    queue.push_back(g.root());
    while let Some(u) = queue.pop_front() {
        for v in g.successors(u) {
            if set.contains(&v) && visited.insert(v) {
                crawl.extend(u, v);
                queue.push_back(v);
            }
        }
    }
    // The search only grows `crawled` through frontier edges, so the whole
    // set is reachable and the BFS spans it.
    debug_assert_eq!(visited.len(), set.len());
    Some(crawl)
}

/// Exact minimum set cover size by branch and bound (test oracle).
pub fn min_set_cover(inst: &SetCoverInstance) -> usize {
    let mut best = inst.sets.len();
    let mut chosen: Vec<usize> = Vec::new();
    let mut covered = vec![0usize; inst.universe];
    cover_branch(inst, 0, &mut chosen, &mut covered, 0, &mut best);
    best
}

fn cover_branch(
    inst: &SetCoverInstance,
    next: usize,
    chosen: &mut Vec<usize>,
    covered: &mut [usize],
    n_covered: usize,
    best: &mut usize,
) {
    if n_covered == inst.universe {
        *best = (*best).min(chosen.len());
        return;
    }
    if chosen.len() + 1 > *best || next == inst.sets.len() {
        return;
    }
    // Branch 1: take `next`.
    let mut gained = 0;
    for &e in &inst.sets[next] {
        if covered[e] == 0 {
            gained += 1;
        }
        covered[e] += 1;
    }
    chosen.push(next);
    cover_branch(inst, next + 1, chosen, covered, n_covered + gained, best);
    chosen.pop();
    for &e in &inst.sets[next] {
        covered[e] -= 1;
    }
    // Branch 2: skip `next` — only sound if the remaining sets can still cover.
    let mut still_coverable = vec![false; inst.universe];
    for (e, &c) in covered.iter().enumerate() {
        if c > 0 {
            still_coverable[e] = true;
        }
    }
    for s in &inst.sets[next + 1..] {
        for &e in s {
            still_coverable[e] = true;
        }
    }
    if still_coverable.iter().all(|&b| b) {
        cover_branch(inst, next + 1, chosen, covered, n_covered, best);
    }
}

/// Classic ln(n)-approximate greedy set cover; returns chosen set indices.
pub fn greedy_set_cover(inst: &SetCoverInstance) -> Vec<usize> {
    let mut uncovered: HashSet<usize> = (0..inst.universe).collect();
    let mut chosen = Vec::new();
    while !uncovered.is_empty() {
        let (best_i, _) = inst
            .sets
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.iter().filter(|e| uncovered.contains(e)).count()))
            .max_by_key(|&(_, gain)| gain)
            .expect("instance covers universe");
        chosen.push(best_i);
        for e in &inst.sets[best_i] {
            uncovered.remove(e);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> SetCoverInstance {
        // U = {0..5}, optimal cover = {{0,1,2},{3,4,5}} of size 2.
        SetCoverInstance::new(
            6,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![0, 3], vec![1, 4], vec![2, 5]],
        )
    }

    #[test]
    fn reduction_shape_matches_figure_6() {
        let i = inst();
        let r = reduce_set_cover(&i);
        assert_eq!(r.graph.len(), 1 + 5 + 6);
        assert_eq!(r.graph.root(), 0);
        // Root links to every set node; set nodes to their elements; targets
        // have no out-links.
        assert_eq!(r.graph.successors(0).count(), 5);
        for &t in &r.targets {
            assert_eq!(r.graph.successors(t).count(), 0);
        }
        let depths = r.graph.bfs_depths();
        for &t in &r.targets {
            assert_eq!(depths[t], Some(2));
        }
    }

    /// The core equivalence of Prop 4, checked with exact solvers:
    /// min-cover B* ⇔ min-crawl cost |U| + B* + 1.
    #[test]
    fn reduction_preserves_optimum() {
        let i = inst();
        let b_star = min_set_cover(&i);
        assert_eq!(b_star, 2);
        let r = reduce_set_cover(&i);
        let c_star = min_crawl_cost(&r.graph, &r.targets).unwrap();
        assert_eq!(c_star, crawl_budget_for_cover_budget(&i, b_star));
    }

    #[test]
    fn reduction_equivalence_on_small_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let universe = rng.gen_range(3..7);
            let n_sets = rng.gen_range(2..6);
            let mut sets: Vec<Vec<usize>> = (0..n_sets)
                .map(|_| {
                    let mut s: Vec<usize> =
                        (0..universe).filter(|_| rng.gen_bool(0.5)).collect();
                    if s.is_empty() {
                        s.push(rng.gen_range(0..universe));
                    }
                    s
                })
                .collect();
            // Guarantee coverage with one catch-all set.
            sets.push((0..universe).collect());
            let i = SetCoverInstance::new(universe, sets);
            let b_star = min_set_cover(&i);
            let r = reduce_set_cover(&i);
            let c_star = min_crawl_cost(&r.graph, &r.targets).unwrap();
            assert_eq!(
                c_star,
                crawl_budget_for_cover_budget(&i, b_star),
                "universe={universe} instance mismatch"
            );
        }
    }

    #[test]
    fn greedy_is_a_cover_and_at_least_optimal() {
        let i = inst();
        let g = greedy_set_cover(&i);
        assert!(i.is_cover(&g));
        assert!(g.len() >= min_set_cover(&i));
    }

    #[test]
    fn min_crawl_reconstructs_valid_tree() {
        let i = inst();
        let r = reduce_set_cover(&i);
        let crawl = min_crawl(&r.graph, &r.targets).unwrap();
        assert!(crawl.validate(&r.graph).is_ok());
        assert!(crawl.covers(&r.targets));
        assert_eq!(crawl.cost(&r.graph), min_crawl_cost(&r.graph, &r.targets).unwrap());
    }

    #[test]
    fn unreachable_target_is_none() {
        let g = WebsiteGraph::unit_weights(3, 0);
        let targets: HashSet<_> = [2].into_iter().collect();
        assert_eq!(min_crawl_cost(&g, &targets), None);
    }

    #[test]
    fn min_crawl_exploits_shared_paths() {
        // root -> a -> {t1, t2}; root -> b -> t1. Sharing a is cheaper.
        let mut g = WebsiteGraph::unit_weights(5, 0);
        let l = TagPath::parse("html a");
        g.add_edge(0, 1, l.clone()); // a
        g.add_edge(0, 2, l.clone()); // b
        g.add_edge(1, 3, l.clone()); // t1
        g.add_edge(1, 4, l.clone()); // t2
        g.add_edge(2, 3, l.clone());
        let targets: HashSet<_> = [3, 4].into_iter().collect();
        assert_eq!(min_crawl_cost(&g, &targets), Some(4.0)); // root, a, t1, t2
    }
}
