//! Compressed sparse row (CSR) adjacency storage.
//!
//! Replaces per-node `Vec<E>` adjacency (one heap allocation + 24 bytes of
//! `Vec` header per node) with two dense arrays: an `offsets` table with one
//! `u32` per node and a single flat `edges` array. For the full-graph paths
//! (omniscient target enumeration, reverse link indexes, streaming site
//! out-links) this is both smaller and friendlier to the cache: a node's
//! edges are one contiguous slice.
//!
//! Construction is a stable counting sort over `(node, edge)` pairs, so the
//! relative order of a node's edges is exactly their insertion order — the
//! same order a `Vec<Vec<E>>` built by repeated `push` would hold. That
//! equivalence is what lets CSR drop in underneath rendering and BFS without
//! perturbing any deterministic replay.

/// CSR adjacency: `row(u)` is the slice of edges out of node `u`.
#[derive(Debug, Clone, Default)]
pub struct Csr<E> {
    /// `offsets[u]..offsets[u + 1]` indexes `edges`; length `n + 1`.
    offsets: Vec<u32>,
    edges: Vec<E>,
}

impl<E> Csr<E> {
    /// Builds the CSR form of a graph with `n` nodes from `(node, edge)`
    /// pairs, preserving per-node pair order (stable counting sort).
    ///
    /// Panics if a node index is `>= n` or the edge count overflows `u32`.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (u32, E)>) -> Self {
        let pairs: Vec<(u32, E)> = pairs.into_iter().collect();
        assert!(u32::try_from(pairs.len()).is_ok(), "edge count overflows u32");
        let mut counts = vec![0u32; n + 1];
        for &(u, _) in &pairs {
            counts[u as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut edges: Vec<Option<E>> = (0..pairs.len()).map(|_| None).collect();
        for (u, e) in pairs {
            let at = cursor[u as usize];
            edges[at as usize] = Some(e);
            cursor[u as usize] += 1;
        }
        let edges = edges.into_iter().map(|e| e.expect("every slot filled")).collect();
        Csr { offsets, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of edges.
    #[cfg(test)]
    fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges out of node `u`, in insertion order. Nodes appended after
    /// construction (past `len()`) have no CSR row and return `&[]`.
    pub fn row(&self, u: u32) -> &[E] {
        let u = u as usize;
        if u + 1 >= self.offsets.len() {
            return &[];
        }
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.edges.len() * std::mem::size_of::<E>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_insertion_order_per_node() {
        let pairs = vec![(2u32, 'a'), (0, 'b'), (2, 'c'), (1, 'd'), (2, 'e')];
        let csr = Csr::from_pairs(4, pairs);
        assert_eq!(csr.row(0), ['b']);
        assert_eq!(csr.row(1), ['d']);
        assert_eq!(csr.row(2), ['a', 'c', 'e']);
        assert_eq!(csr.row(3), [] as [char; 0]);
        assert_eq!(csr.len(), 4);
        assert_eq!(csr.n_edges(), 5);
    }

    #[test]
    fn matches_vec_of_vecs_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(1..60usize);
            let m = rng.gen_range(0..200usize);
            let mut model: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut pairs = Vec::with_capacity(m);
            for _ in 0..m {
                let u = rng.gen_range(0..n as u32);
                let e: u32 = rng.gen_range(0..1000);
                model[u as usize].push(e);
                pairs.push((u, e));
            }
            let csr = Csr::from_pairs(n, pairs);
            for u in 0..n as u32 {
                assert_eq!(csr.row(u), model[u as usize].as_slice());
            }
        }
    }

    #[test]
    fn out_of_range_rows_are_empty() {
        let csr: Csr<u32> = Csr::from_pairs(2, vec![(0, 7)]);
        assert_eq!(csr.row(2), [] as [u32; 0]);
        assert_eq!(csr.row(999), [] as [u32; 0]);
    }
}
