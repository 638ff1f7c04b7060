//! TP-OFF — the offline-trained, tag-path-based baseline of Sec 4.3,
//! an adaptation of ACEBot \[20\] to target retrieval.
//!
//! Phase 1: crawl the first `phase1_pages` pages breadth-first while an
//! **oracle** supplies the true benefit of each page (the number of targets
//! behind its links — the paper's deliberate "unfair advantage"); tag paths
//! of followed links are grouped with the same clustering machinery as the
//! SB crawlers and accumulate their pages' benefits.
//!
//! Phase 2: learning stops. Links whose tag path matches an existing group
//! are enqueued with the group's average benefit as priority; links forming
//! new groups get a fixed benefit of 0. This is the paper's ablation of
//! *online* learning: everything the crawler will ever know, it learned in
//! phase 1.

use crate::action::{ActionSpace, ActionSpaceConfig};
use crate::strategy::{LinkDecision, NewLink, Selection, Services, Strategy};
use super::Entry;
use rand::rngs::StdRng;
use sb_webgraph::{FxHashMap, UrlClass, UrlId};
use std::collections::VecDeque;

/// The TP-OFF baseline.
pub struct TpOffStrategy {
    /// Pages left in the oracle-assisted BFS phase.
    phase1_left: usize,
    bfs: VecDeque<UrlId>,
    groups: ActionSpace,
    /// Per-group benefit accumulator: (sum, observations).
    benefit: Vec<(f64, u64)>,
    /// Group each phase-1 frontier URL was reached through.
    link_group: FxHashMap<UrlId, usize>,
    heap: std::collections::BinaryHeap<Entry>,
    seq: u64,
    drained: bool,
}

impl TpOffStrategy {
    /// `phase1_pages` is the paper's 3 000, scaled by the harness.
    pub fn new(phase1_pages: usize) -> Self {
        TpOffStrategy {
            phase1_left: phase1_pages,
            bfs: VecDeque::new(),
            groups: ActionSpace::new(ActionSpaceConfig::default()),
            benefit: Vec::new(),
            link_group: FxHashMap::default(),
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
            drained: false,
        }
    }

    fn avg_benefit(&self, g: usize) -> f64 {
        match self.benefit.get(g) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    fn in_phase1(&self) -> bool {
        self.phase1_left > 0
    }

    /// Moves leftover BFS frontier into the priority queue when phase 1 ends.
    fn drain_bfs(&mut self) {
        if self.drained {
            return;
        }
        self.drained = true;
        while let Some(id) = self.bfs.pop_front() {
            let benefit = self.link_group.get(&id).map_or(0.0, |&g| self.avg_benefit(g));
            self.seq += 1;
            self.heap.push(Entry { score: benefit, seq: self.seq, id });
        }
    }
}

impl Strategy for TpOffStrategy {
    fn name(&self) -> String {
        "TP-OFF".to_owned()
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        // Tag paths drive the groups; no text features.
        sb_html::LinkNeeds::TAG_PATH
    }

    fn next(&mut self, _rng: &mut StdRng) -> Option<Selection> {
        if self.in_phase1() {
            if let Some(id) = self.bfs.pop_front() {
                self.phase1_left -= 1;
                let g = self.link_group.get(&id).copied().unwrap_or(usize::MAX);
                return Some(Selection { url: id.into(), token: g as u64 });
            }
            return None;
        }
        self.drain_bfs();
        self.heap.pop().map(|e| Selection { url: e.id.into(), token: u64::MAX })
    }

    fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision {
        if self.in_phase1() {
            // Oracle-assisted: targets are fetched at once (their count is
            // the page benefit the oracle grants), HTML goes to BFS, dead
            // links are recognised for free.
            match services.oracle_class(link.url_str) {
                UrlClass::Target => LinkDecision::FetchNow,
                UrlClass::Neither => LinkDecision::Skip,
                UrlClass::Html => {
                    if let Ok(g) = self.groups.assign(&link.html.tag_path) {
                        while self.benefit.len() <= g {
                            self.benefit.push((0.0, 0));
                        }
                        self.link_group.insert(link.id, g);
                        self.bfs.push_back(link.id);
                        LinkDecision::Enqueue
                    } else {
                        LinkDecision::ActionSpaceFull
                    }
                }
            }
        } else {
            self.drain_bfs();
            // Phase 2: no oracle, no learning. Existing groups rank links;
            // novel tag paths get benefit 0.
            let benefit = match self.groups.match_only(&link.html.tag_path) {
                Some(g) => self.avg_benefit(g),
                None => 0.0,
            };
            self.seq += 1;
            self.heap.push(Entry { score: benefit, seq: self.seq, id: link.id });
            LinkDecision::Enqueue
        }
    }

    fn feedback(&mut self, token: u64, reward: f64) {
        // Phase-1 benefit assignment: the group of the link that led to the
        // page absorbs the page's target count.
        let g = token as usize;
        if self.in_phase1() || !self.drained {
            if let Some(b) = self.benefit.get_mut(g) {
                b.0 += reward;
                b.1 += 1;
            }
        }
    }

    fn frontier_len(&self) -> usize {
        self.bfs.len() + self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn phase1_is_fifo() {
        use crate::strategy::SelUrl;
        let mut s = TpOffStrategy::new(10);
        s.bfs.push_back(1);
        s.bfs.push_back(2);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.next(&mut rng).unwrap().url, SelUrl::Id(1));
        assert_eq!(s.next(&mut rng).unwrap().url, SelUrl::Id(2));
        assert_eq!(s.phase1_left, 8);
    }

    #[test]
    fn benefit_accumulates_and_averages() {
        let mut s = TpOffStrategy::new(2);
        s.benefit.push((0.0, 0));
        s.feedback(0, 10.0);
        s.feedback(0, 2.0);
        assert_eq!(s.avg_benefit(0), 6.0);
        assert_eq!(s.avg_benefit(99), 0.0);
    }

    #[test]
    fn phase2_orders_by_group_benefit() {
        use crate::strategy::SelUrl;
        let mut s = TpOffStrategy::new(0); // straight to phase 2
        s.drained = true;
        s.heap.push(Entry { score: 0.0, seq: 0, id: 0 });
        s.heap.push(Entry { score: 9.0, seq: 1, id: 9 });
        s.heap.push(Entry { score: 4.0, seq: 2, id: 4 });
        let mut rng = StdRng::seed_from_u64(0);
        let order: Vec<SelUrl> =
            std::iter::from_fn(|| s.next(&mut rng)).map(|sel| sel.url).collect();
        assert_eq!(order, vec![SelUrl::Id(9), SelUrl::Id(4), SelUrl::Id(0)]);
    }

    #[test]
    fn leftover_bfs_drains_into_heap() {
        use crate::strategy::SelUrl;
        let mut s = TpOffStrategy::new(1);
        s.bfs.push_back(7);
        s.bfs.push_back(8);
        let mut rng = StdRng::seed_from_u64(0);
        // Consumes the single phase-1 page.
        assert_eq!(s.next(&mut rng).unwrap().url, SelUrl::Id(7));
        assert!(!s.in_phase1());
        // Next selection must surface the drained leftover.
        assert_eq!(s.next(&mut rng).unwrap().url, SelUrl::Id(8));
    }
}
