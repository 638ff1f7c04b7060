//! Hierarchical Navigable Small Worlds (HNSW) index \[39\], from scratch.
//!
//! Algorithm 1 stores each action's centroid in an HNSW index and queries the
//! nearest centroid for every new projected tag path; centroids *move* as tag
//! paths join their action, so the index supports in-place updates with
//! re-linking. Distances are cosine (the paper thresholds on cosine
//! similarity θ), over [`SparseVec`]s — the only vector representation the
//! index has.
//!
//! The structure follows Malkov & Yashunin: geometric level assignment with
//! multiplier `1/ln(M)`, greedy descent through the upper layers, and a
//! beam search (`ef`) at each construction/search layer.

use crate::vector::{cosine_sparse, SparseVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Construction/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Max links per node per layer (layer 0 allows `2·m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search.
    pub ef_search: usize,
    /// RNG seed for level assignment (determinism).
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams { m: 12, ef_construction: 64, ef_search: 48, seed: 0x5b }
    }
}

/// Cosine *distance* (`1 − similarity`), the metric the graph orders by.
fn cosine_distance(a: &SparseVec, b: &SparseVec) -> f32 {
    1.0 - cosine_sparse(a, b)
}

#[derive(Debug, Clone)]
struct Node {
    vector: SparseVec,
    /// `links[l]` = neighbour ids at layer `l`; `links.len()` = node level + 1.
    links: Vec<Vec<u32>>,
}

/// A candidate ordered by distance (min-heap via `Reverse` where needed).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    dist: f32,
    id: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist.total_cmp(&other.dist).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The index. Ids are dense `0..len()` in insertion order.
pub struct Hnsw {
    params: HnswParams,
    dim: usize,
    nodes: Vec<Node>,
    entry: Option<u32>,
    rng: StdRng,
    level_mult: f64,
}

impl Hnsw {
    pub fn new(dim: usize, params: HnswParams) -> Self {
        assert!(params.m >= 2, "M must be at least 2");
        Hnsw {
            level_mult: 1.0 / (params.m as f64).ln(),
            rng: StdRng::seed_from_u64(params.seed),
            params,
            dim,
            nodes: Vec::new(),
            entry: None,
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The stored vector for `id`.
    pub fn vector(&self, id: u32) -> &SparseVec {
        &self.nodes[id as usize].vector
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    fn random_level(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (-u.ln() * self.level_mult).floor() as usize
    }

    /// Panics when `v` has a coordinate outside `0..dim`.
    fn check_dim(&self, v: &SparseVec) {
        let fits = v.items().last().is_none_or(|&(i, _)| (i as usize) < self.dim);
        assert!(fits, "dimension mismatch");
    }

    /// Inserts a vector; returns its id.
    pub fn insert(&mut self, v: &SparseVec) -> u32 {
        self.check_dim(v);
        let id = self.nodes.len() as u32;
        let level = self.random_level();
        self.nodes.push(Node { vector: v.clone(), links: vec![Vec::new(); level + 1] });
        let Some(entry) = self.entry else {
            self.entry = Some(id);
            return id;
        };
        self.link_node(id, level, entry);
        if level >= self.nodes[entry as usize].links.len() {
            self.entry = Some(id);
        }
        id
    }

    /// (Re)connects `id` (with `level + 1` layers) into the graph.
    fn link_node(&mut self, id: u32, level: usize, entry: u32) {
        let q = self.nodes[id as usize].vector.clone();
        let entry_level = self.nodes[entry as usize].links.len() - 1;
        let mut cur = entry;
        // Greedy descent through layers above the node's level.
        for l in ((level + 1)..=entry_level).rev() {
            cur = self.greedy_at(&q, cur, l);
        }
        // Beam search + connect at each layer from min(level, entry_level) down.
        for l in (0..=level.min(entry_level)).rev() {
            let cands = self.search_layer(&q, cur, self.params.ef_construction, l);
            let selected: Vec<u32> =
                cands.iter().take(self.params.m).map(|c| c.id).collect();
            if let Some(best) = cands.first() {
                cur = best.id;
            }
            for &nb in &selected {
                if nb == id {
                    continue;
                }
                self.nodes[id as usize].links[l].push(nb);
                self.nodes[nb as usize].links[l].push(id);
                self.prune(nb, l);
            }
        }
    }

    /// Keeps only the closest `max_links` neighbours of `id` at `layer`.
    fn prune(&mut self, id: u32, layer: usize) {
        let max = self.max_links(layer);
        if self.nodes[id as usize].links[layer].len() <= max {
            return;
        }
        let base = self.nodes[id as usize].vector.clone();
        let mut scored: Vec<Cand> = self.nodes[id as usize].links[layer]
            .iter()
            .map(|&nb| Cand { dist: cosine_distance(&base, &self.nodes[nb as usize].vector), id: nb })
            .collect();
        scored.sort();
        scored.dedup_by_key(|c| c.id);
        self.nodes[id as usize].links[layer] = scored.into_iter().take(max).map(|c| c.id).collect();
    }

    /// Greedy single-candidate move at `layer`.
    fn greedy_at(&self, q: &SparseVec, start: u32, layer: usize) -> u32 {
        let mut cur = start;
        let mut cur_d = cosine_distance(q, &self.nodes[cur as usize].vector);
        loop {
            let mut improved = false;
            for &nb in &self.nodes[cur as usize].links[layer] {
                let d = cosine_distance(q, &self.nodes[nb as usize].vector);
                if d < cur_d {
                    cur = nb;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search at `layer`; returns up to `ef` candidates sorted by
    /// ascending distance.
    fn search_layer(&self, q: &SparseVec, start: u32, ef: usize, layer: usize) -> Vec<Cand> {
        let mut visited = vec![false; self.nodes.len()];
        visited[start as usize] = true;
        let d0 = cosine_distance(q, &self.nodes[start as usize].vector);
        // Min-heap of candidates to expand.
        let mut to_visit: BinaryHeap<std::cmp::Reverse<Cand>> = BinaryHeap::new();
        to_visit.push(std::cmp::Reverse(Cand { dist: d0, id: start }));
        // Max-heap of current best results.
        let mut best: BinaryHeap<Cand> = BinaryHeap::new();
        best.push(Cand { dist: d0, id: start });
        while let Some(std::cmp::Reverse(c)) = to_visit.pop() {
            let worst = best.peek().map_or(f32::INFINITY, |w| w.dist);
            if c.dist > worst && best.len() >= ef {
                break;
            }
            for &nb in &self.nodes[c.id as usize].links[layer] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let d = cosine_distance(q, &self.nodes[nb as usize].vector);
                let worst = best.peek().map_or(f32::INFINITY, |w| w.dist);
                if best.len() < ef || d < worst {
                    to_visit.push(std::cmp::Reverse(Cand { dist: d, id: nb }));
                    best.push(Cand { dist: d, id: nb });
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }
        let mut out: Vec<Cand> = best.into_vec();
        out.sort();
        out
    }

    /// The `k` approximate nearest neighbours of `q`, as
    /// `(id, cosine_similarity)`, most similar first.
    pub fn search(&self, q: &SparseVec, k: usize) -> Vec<(u32, f32)> {
        self.check_dim(q);
        let Some(entry) = self.entry else { return Vec::new() };
        let entry_level = self.nodes[entry as usize].links.len() - 1;
        let mut cur = entry;
        for l in (1..=entry_level).rev() {
            cur = self.greedy_at(q, cur, l);
        }
        let ef = self.params.ef_search.max(k);
        self.search_layer(q, cur, ef, 0)
            .into_iter()
            .take(k)
            .map(|c| (c.id, cosine_sparse(q, &self.nodes[c.id as usize].vector)))
            .collect()
    }

    /// The single nearest neighbour, if any.
    pub fn nearest(&self, q: &SparseVec) -> Option<(u32, f32)> {
        self.search(q, 1).into_iter().next()
    }

    /// Moves `id`'s vector (a centroid update) and re-links the node so
    /// future queries see it at its new position.
    pub fn update(&mut self, id: u32, v: &SparseVec) {
        self.check_dim(v);
        let idx = id as usize;
        self.nodes[idx].vector = v.clone();
        let Some(entry) = self.entry else { return };
        if self.nodes.len() == 1 {
            return;
        }
        // Detach outgoing links and incoming references, then reconnect.
        let level = self.nodes[idx].links.len() - 1;
        for l in 0..=level {
            let old: Vec<u32> = std::mem::take(&mut self.nodes[idx].links[l]);
            for nb in old {
                self.nodes[nb as usize].links[l].retain(|&x| x != id);
            }
        }
        let start = if entry == id {
            // Pick any other node as a temporary entry for the re-link walk.
            (0..self.nodes.len() as u32).find(|&x| x != id).unwrap_or(id)
        } else {
            entry
        };
        if start != id {
            // Walk from the highest layer `start` actually has.
            self.link_node(id, level, start);
        }
    }
}

/// Exact nearest neighbour by linear scan — the test/bench oracle.
pub fn brute_force_nearest(vectors: &[SparseVec], q: &SparseVec) -> Option<(usize, f32)> {
    vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (i, cosine_sparse(q, v)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sv(dense: &[f32]) -> SparseVec {
        SparseVec::from_dense(dense)
    }

    fn random_dense(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn random_unit(rng: &mut StdRng, dim: usize) -> SparseVec {
        sv(&random_dense(rng, dim))
    }

    #[test]
    fn empty_index() {
        let h = Hnsw::new(8, HnswParams::default());
        assert!(h.is_empty());
        assert_eq!(h.nearest(&sv(&[0.0; 8])), None);
    }

    #[test]
    fn single_point() {
        let mut h = Hnsw::new(4, HnswParams::default());
        let id = h.insert(&sv(&[1.0, 0.0, 0.0, 0.0]));
        let (got, sim) = h.nearest(&sv(&[1.0, 0.1, 0.0, 0.0])).unwrap();
        assert_eq!(got, id);
        assert!(sim > 0.9);
    }

    #[test]
    fn finds_exact_match() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut h = Hnsw::new(16, HnswParams::default());
        let mut vecs = Vec::new();
        for _ in 0..200 {
            let v = random_unit(&mut rng, 16);
            h.insert(&v);
            vecs.push(v);
        }
        for (i, v) in vecs.iter().enumerate().step_by(17) {
            let (got, sim) = h.nearest(v).unwrap();
            assert!(sim > 0.999, "query {i} found {got} with sim {sim}");
        }
    }

    #[test]
    fn recall_against_brute_force() {
        let mut rng = StdRng::seed_from_u64(11);
        let dim = 24;
        let mut h = Hnsw::new(dim, HnswParams::default());
        let mut vecs = Vec::new();
        for _ in 0..500 {
            let v = random_unit(&mut rng, dim);
            h.insert(&v);
            vecs.push(v);
        }
        let mut hits = 0;
        let trials = 100;
        for _ in 0..trials {
            let q = random_unit(&mut rng, dim);
            let (exact, _) = brute_force_nearest(&vecs, &q).unwrap();
            let approx = h.search(&q, 10);
            if approx.iter().any(|&(id, _)| id as usize == exact) {
                hits += 1;
            }
        }
        assert!(hits >= 92, "recall@10 = {hits}/{trials}");
    }

    #[test]
    fn update_moves_centroid() {
        let mut h = Hnsw::new(4, HnswParams::default());
        let a = h.insert(&sv(&[1.0, 0.1, 0.0, 0.0]));
        let b = h.insert(&sv(&[0.0, 1.0, 0.0, 0.0]));
        let _c = h.insert(&sv(&[0.0, 0.0, 1.0, 0.0]));
        let x_axis = h.insert(&sv(&[1.0, 0.0, 0.05, 0.0]));
        // Move `a` close to the z axis; a z-query must now find it or `c`.
        h.update(a, &sv(&[0.05, 0.0, 1.0, 0.0]));
        let (got, _) = h.nearest(&sv(&[0.0, 0.0, 1.0, 0.05])).unwrap();
        assert!(got == a || got == 2, "got {got}");
        // And an x-query must now prefer the pure x-axis point over `a`.
        let (got_x, _) = h.nearest(&sv(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        assert_eq!(got_x, x_axis);
        let _ = b;
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(5);
            let mut h = Hnsw::new(8, HnswParams::default());
            for _ in 0..100 {
                let v = random_unit(&mut rng, 8);
                h.insert(&v);
            }
            let q = random_unit(&mut rng, 8);
            h.search(&q, 5)
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let mut h = Hnsw::new(4, HnswParams::default());
        // Index 4 is the first coordinate a 4-dimensional index cannot hold.
        h.insert(&sv(&[1.0, 0.0, 0.0, 0.0, 1.0]));
    }

    #[test]
    fn accepts_every_coordinate_below_dim() {
        let mut h = Hnsw::new(4, HnswParams::default());
        let id = h.insert(&sv(&[0.0, 0.0, 0.0, 1.0]));
        assert_eq!(h.nearest(&sv(&[0.0, 0.0, 0.0, 2.0])).map(|(got, _)| got), Some(id));
    }

    #[test]
    fn many_updates_keep_index_consistent() {
        let mut rng = StdRng::seed_from_u64(9);
        let dim = 8;
        let mut h = Hnsw::new(dim, HnswParams::default());
        let mut vecs: Vec<Vec<f32>> = Vec::new();
        for _ in 0..60 {
            let v = random_dense(&mut rng, dim);
            h.insert(&sv(&v));
            vecs.push(v);
        }
        // Drift every vector a little many times (centroid updates).
        for round in 0..5 {
            for (id, vec) in vecs.iter_mut().enumerate() {
                for x in vec.iter_mut() {
                    *x += 0.01 * ((round + id) % 3) as f32;
                }
                h.update(id as u32, &sv(vec));
            }
        }
        // Index still answers and finds exact matches.
        for (i, v) in vecs.iter().enumerate().step_by(7) {
            let got = h.search(&sv(v), 5);
            assert!(!got.is_empty());
            assert!(got.iter().any(|&(id, sim)| id as usize == i && sim > 0.999),
                "vector {i} lost after updates: {got:?}");
        }
    }
}
