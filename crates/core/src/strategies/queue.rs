//! The three simple baselines of Sec 4.3: BFS (FIFO frontier), DFS (LIFO)
//! and RANDOM (uniform pick). They classify nothing and fetch everything in
//! frontier order; targets are counted when they happen to be fetched.

use crate::strategy::{LinkDecision, NewLink, Selection, Services, Strategy};
use rand::rngs::StdRng;
use rand::Rng;
use sb_scale::{SpillBacking, SpillConfig, SpillQueue};

/// Frontier discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// First-in-first-out: breadth-first crawl.
    Fifo,
    /// Last-in-first-out: depth-first crawl.
    Lifo,
    /// Uniformly random pick.
    Random,
}

/// BFS / DFS / RANDOM, depending on [`Discipline`]. The frontier holds
/// interned ids — `Copy` keys, no per-link string storage — in a
/// [`SpillQueue`]: unbounded by default (pure `VecDeque` behaviour, the
/// path every frozen replay pins), bounded with the `*_spilling`
/// constructors (PR 7) whose spill arena preserves the exact pop order.
/// Only a [`SpillBacking::Disk`] arena bounds the process's memory; a
/// `Memory` one holds the spilled ids on the heap at 4 B each.
pub struct QueueStrategy {
    discipline: Discipline,
    frontier: SpillQueue,
}

impl QueueStrategy {
    pub fn bfs() -> Self {
        QueueStrategy { discipline: Discipline::Fifo, frontier: SpillQueue::unbounded() }
    }

    pub fn dfs() -> Self {
        QueueStrategy { discipline: Discipline::Lifo, frontier: SpillQueue::unbounded() }
    }

    pub fn random() -> Self {
        QueueStrategy { discipline: Discipline::Random, frontier: SpillQueue::unbounded() }
    }

    /// BFS whose frontier keeps at most ~`mem_cap` ids in memory, spilling
    /// the middle of the queue to `backing`. Pop order is identical to
    /// [`QueueStrategy::bfs`] — only the residence of the ids changes.
    pub fn bfs_spilling(mem_cap: usize, backing: SpillBacking) -> Self {
        QueueStrategy {
            discipline: Discipline::Fifo,
            frontier: SpillQueue::with_config(SpillConfig::bounded(mem_cap, backing)),
        }
    }

    /// DFS with a memory-bounded frontier; see [`QueueStrategy::bfs_spilling`].
    pub fn dfs_spilling(mem_cap: usize, backing: SpillBacking) -> Self {
        QueueStrategy {
            discipline: Discipline::Lifo,
            frontier: SpillQueue::with_config(SpillConfig::bounded(mem_cap, backing)),
        }
    }
}

impl Strategy for QueueStrategy {
    fn name(&self) -> String {
        match self.discipline {
            Discipline::Fifo => "BFS".to_owned(),
            Discipline::Lifo => "DFS".to_owned(),
            Discipline::Random => "RANDOM".to_owned(),
        }
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        // Frontier order only: hrefs suffice.
        sb_html::LinkNeeds::HREF_ONLY
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
        let id = match self.discipline {
            Discipline::Fifo => self.frontier.pop_front()?,
            Discipline::Lifo => self.frontier.pop_back()?,
            Discipline::Random => {
                if self.frontier.is_empty() {
                    return None;
                }
                let i = rng.gen_range(0..self.frontier.len());
                self.frontier.swap_remove_back(i)?
            }
        };
        Some(Selection { url: id.into(), token: 0 })
    }

    fn decide(&mut self, link: &NewLink<'_>, _services: &mut Services<'_, '_>) -> LinkDecision {
        self.frontier.push_back(link.id);
        LinkDecision::Enqueue
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    fn frontier_spilled(&self) -> usize {
        self.frontier.spilled_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::SelUrl;
    use rand::SeedableRng;
    use sb_webgraph::UrlId;

    fn sel_order(mut s: QueueStrategy, ids: &[UrlId]) -> Vec<UrlId> {
        // Feed ids directly into the frontier (decide() requires engine
        // plumbing; the ordering logic is what's under test).
        for &id in ids {
            s.frontier.push_back(id);
        }
        let mut rng = StdRng::seed_from_u64(1);
        std::iter::from_fn(|| s.next(&mut rng))
            .map(|sel| match sel.url {
                SelUrl::Id(id) => id,
                SelUrl::Text(_) => unreachable!("queue frontiers hold ids"),
            })
            .collect()
    }

    #[test]
    fn bfs_is_fifo() {
        let order = sel_order(QueueStrategy::bfs(), &[0, 1, 2]);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn dfs_is_lifo() {
        let order = sel_order(QueueStrategy::dfs(), &[0, 1, 2]);
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn random_is_permutation() {
        let order = sel_order(QueueStrategy::random(), &[0, 1, 2, 3, 4]);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_frontier_is_none() {
        let mut s = QueueStrategy::bfs();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.next(&mut rng), None);
    }

    /// Spill-backed frontiers pop in exactly the unbounded order — the
    /// only observable difference is where the ids reside.
    #[test]
    fn spilling_frontiers_preserve_order() {
        let ids: Vec<UrlId> = (0..200).collect();
        for backing in [SpillBacking::Memory, SpillBacking::Disk] {
            let s = QueueStrategy::bfs_spilling(16, backing);
            assert_eq!(sel_order(s, &ids), sel_order(QueueStrategy::bfs(), &ids));
            let s = QueueStrategy::dfs_spilling(16, backing);
            assert_eq!(sel_order(s, &ids), sel_order(QueueStrategy::dfs(), &ids));
        }
    }

    /// A bounded BFS frontier actually spills once it outgrows its cap,
    /// and reports the spilled portion through the `Strategy` gauge.
    #[test]
    fn bounded_frontier_reports_spill() {
        let mut s = QueueStrategy::bfs_spilling(16, SpillBacking::Memory);
        for id in 0..200 {
            s.frontier.push_back(id);
        }
        assert_eq!(s.frontier_len(), 200);
        assert!(s.frontier_spilled() > 0, "cap 16 with 200 pushes must spill");
        assert!(QueueStrategy::bfs().frontier_spilled() == 0);
    }

    /// The default `select_batch` (pull `next()` k times) agrees with
    /// repeated `next()` for a queue strategy.
    #[test]
    fn default_select_batch_matches_repeated_next() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = QueueStrategy::bfs();
        let mut b = QueueStrategy::bfs();
        for id in 0..10u32 {
            a.frontier.push_back(id);
            b.frontier.push_back(id);
        }
        let singles: Vec<_> = std::iter::from_fn(|| a.next(&mut rng)).collect();
        let batched = b.select_batch(16, &mut rng);
        assert_eq!(singles, batched);
    }
}
