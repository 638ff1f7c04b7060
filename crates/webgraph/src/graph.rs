//! The website-graph formalisation of Sec 2 (Definitions 1–3).
//!
//! A website graph is a rooted, node-weighted, edge-labeled directed graph
//! `G = (V, E, r, ω, λ)`; a *crawl* is an `r`-rooted subtree whose cost is the
//! sum of its node weights; the graph crawling problem asks for a minimal-cost
//! crawl covering a target set `V* ⊆ V`. These types are used both by the
//! NP-hardness module (exact solvers on small graphs) and by the evaluation
//! harness (census over generated sites).

use sb_html::TagPath;
#[cfg(test)]
use std::collections::HashMap;
use std::collections::{HashSet, VecDeque};

/// Node index within a [`WebsiteGraph`].
pub type NodeIdx = usize;

/// A rooted, node-weighted, edge-labeled directed graph (Definition 1).
#[derive(Debug, Clone)]
pub struct WebsiteGraph {
    /// `ω`: cost of retrieving each node.
    weights: Vec<f64>,
    /// Adjacency: `edges[u]` lists `(v, λ(u,v))`.
    edges: Vec<Vec<(NodeIdx, TagPath)>>,
    /// `r`: the input webpage.
    root: NodeIdx,
}

impl WebsiteGraph {
    /// Creates a graph with `n` nodes of weight 1 and no edges, rooted at `root`.
    pub(crate) fn unit_weights(n: usize, root: NodeIdx) -> Self {
        assert!(root < n, "root must be a node");
        WebsiteGraph { weights: vec![1.0; n], edges: vec![Vec::new(); n], root }
    }

    /// Creates a graph with explicit weights.
    #[cfg(test)]
    fn with_weights(weights: Vec<f64>, root: NodeIdx) -> Self {
        assert!(root < weights.len(), "root must be a node");
        assert!(weights.iter().all(|&w| w > 0.0), "ω must be positive (Definition 1)");
        let n = weights.len();
        WebsiteGraph { weights, edges: vec![Vec::new(); n], root }
    }

    pub(crate) fn add_edge(&mut self, u: NodeIdx, v: NodeIdx, label: TagPath) {
        assert!(u < self.len() && v < self.len());
        self.edges[u].push((v, label));
    }

    pub(crate) fn len(&self) -> usize {
        self.weights.len()
    }

    pub(crate) fn root(&self) -> NodeIdx {
        self.root
    }

    pub(crate) fn weight(&self, u: NodeIdx) -> f64 {
        self.weights[u]
    }

    pub(crate) fn successors(&self, u: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.edges[u].iter().map(|(v, _)| *v)
    }

    /// BFS depths from the root; unreachable nodes get `None`.
    pub(crate) fn bfs_depths(&self) -> Vec<Option<u32>> {
        let mut depth = vec![None; self.len()];
        let mut q = VecDeque::new();
        depth[self.root] = Some(0);
        q.push_back(self.root);
        while let Some(u) = q.pop_front() {
            let d = depth[u].expect("queued nodes have depths");
            for v in self.successors(u) {
                if depth[v].is_none() {
                    depth[v] = Some(d + 1);
                    q.push_back(v);
                }
            }
        }
        depth
    }

    /// All nodes reachable from the root.
    pub(crate) fn reachable(&self) -> HashSet<NodeIdx> {
        self.bfs_depths()
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|_| i))
            .collect()
    }
}

/// An `r`-rooted subtree of a website graph (Definition 2): the executable
/// definition the exact solver's minimal crawls are checked against.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct Crawl {
    /// `parent[v] = Some(u)` for tree edge `(u, v)`; the root has `None`.
    parent: HashMap<NodeIdx, Option<NodeIdx>>,
    root: NodeIdx,
}

/// Errors raised by [`Crawl::validate`].
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CrawlError {
    /// A tree edge does not exist in the graph.
    MissingEdge(NodeIdx, NodeIdx),
    /// A node other than the root has no parent, or the root has one.
    BadRoot,
    /// The tree is not connected to the root.
    Disconnected(NodeIdx),
}

#[cfg(test)]
impl Crawl {
    /// A crawl containing just the root.
    pub(crate) fn rooted(root: NodeIdx) -> Self {
        let mut parent = HashMap::new();
        parent.insert(root, None);
        Crawl { parent, root }
    }

    /// Adds tree edge `(u, v)`; `u` must already be in the crawl and `v` not.
    pub(crate) fn extend(&mut self, u: NodeIdx, v: NodeIdx) {
        assert!(self.parent.contains_key(&u), "parent must be crawled first");
        assert!(!self.parent.contains_key(&v), "a crawl visits each node once");
        self.parent.insert(v, Some(u));
    }

    pub(crate) fn contains(&self, v: NodeIdx) -> bool {
        self.parent.contains_key(&v)
    }

    /// Total cost `ω(T) = Σ_{u ∈ V'} ω(u)` (Definition 2).
    pub(crate) fn cost(&self, g: &WebsiteGraph) -> f64 {
        self.parent.keys().map(|&u| g.weight(u)).sum()
    }

    /// Does this crawl cover all of `targets` (Problem 3)?
    pub(crate) fn covers(&self, targets: &HashSet<NodeIdx>) -> bool {
        targets.iter().all(|t| self.contains(*t))
    }

    /// The crawl frontier: uncrawled nodes pointed to by crawled ones.
    pub(crate) fn frontier(&self, g: &WebsiteGraph) -> HashSet<NodeIdx> {
        let mut f = HashSet::new();
        for &u in self.parent.keys() {
            for v in g.successors(u) {
                if !self.contains(v) {
                    f.insert(v);
                }
            }
        }
        f
    }

    /// Checks this is a valid `r`-rooted subtree of `g`: every tree edge
    /// exists in `g`, the root is `g`'s root, and every node reaches the root
    /// through tree edges.
    pub(crate) fn validate(&self, g: &WebsiteGraph) -> Result<(), CrawlError> {
        if self.root != g.root() || self.parent.get(&self.root) != Some(&None) {
            return Err(CrawlError::BadRoot);
        }
        for (&v, &p) in &self.parent {
            match p {
                None => {
                    if v != self.root {
                        return Err(CrawlError::BadRoot);
                    }
                }
                Some(u) => {
                    if !self.parent.contains_key(&u) {
                        return Err(CrawlError::Disconnected(v));
                    }
                    if !g.successors(u).any(|w| w == v) {
                        return Err(CrawlError::MissingEdge(u, v));
                    }
                }
            }
        }
        // Walk each node to the root, bounded by tree size to catch cycles
        // (impossible via `extend`, but `validate` must not trust callers).
        for &v in self.parent.keys() {
            let mut cur = v;
            let mut steps = 0;
            while let Some(&Some(p)) = self.parent.get(&cur) {
                cur = p;
                steps += 1;
                if steps > self.parent.len() {
                    return Err(CrawlError::Disconnected(v));
                }
            }
            if cur != self.root {
                return Err(CrawlError::Disconnected(v));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_html::TagPath;

    fn label() -> TagPath {
        TagPath::parse("html body a")
    }

    /// The figure-1-shaped fixture: root 0, a two-level tree with extra
    /// cross edges, targets at the leaves.
    fn sample() -> WebsiteGraph {
        let mut g = WebsiteGraph::unit_weights(8, 0);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (5, 7), (1, 2)] {
            g.add_edge(u, v, label());
        }
        g
    }

    #[test]
    fn bfs_depths() {
        let g = sample();
        let d = g.bfs_depths();
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[3], Some(2));
        assert_eq!(d[7], Some(3));
    }

    #[test]
    fn unreachable_nodes() {
        let mut g = WebsiteGraph::unit_weights(3, 0);
        g.add_edge(0, 1, label());
        let d = g.bfs_depths();
        assert_eq!(d[2], None);
        assert_eq!(g.reachable().len(), 2);
    }

    #[test]
    fn crawl_cost_and_cover() {
        let g = sample();
        let mut c = Crawl::rooted(0);
        c.extend(0, 2);
        c.extend(2, 5);
        c.extend(5, 7);
        assert_eq!(c.cost(&g), 4.0);
        let targets: HashSet<_> = [7].into_iter().collect();
        assert!(c.covers(&targets));
        assert!(c.validate(&g).is_ok());
    }

    #[test]
    fn frontier_matches_definition() {
        let g = sample();
        let mut c = Crawl::rooted(0);
        c.extend(0, 1);
        let f = c.frontier(&g);
        // Nodes pointed to from {0, 1} that are not crawled: 2, 3, 4.
        assert_eq!(f, [2, 3, 4].into_iter().collect());
    }

    #[test]
    fn validate_rejects_fake_edge() {
        let g = sample();
        let mut c = Crawl::rooted(0);
        c.extend(0, 1);
        c.extend(1, 6); // no (1,6) edge in g
        assert_eq!(c.validate(&g), Err(CrawlError::MissingEdge(1, 6)));
    }

    #[test]
    #[should_panic(expected = "visits each node once")]
    fn no_double_visit() {
        let mut c = Crawl::rooted(0);
        c.extend(0, 1);
        c.extend(0, 1);
    }

    #[test]
    fn weighted_cost() {
        let g = WebsiteGraph::with_weights(vec![1.0, 2.5, 4.0], 0);
        let mut c = Crawl::rooted(0);
        // No edges in g, so only the root is coverable; cost is ω(r).
        assert_eq!(c.cost(&g), 1.0);
        assert!(c.validate(&g).is_ok());
        let mut g2 = g.clone();
        g2.add_edge(0, 2, label());
        c.extend(0, 2);
        assert_eq!(c.cost(&g2), 5.0);
    }
}
