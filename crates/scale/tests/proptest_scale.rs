//! Property pins for the memory-bounded structures: the streaming site is
//! byte-identical to the eager one on arbitrary layouts, the spillable
//! frontier pops in exactly the unbounded order for arbitrary spill
//! thresholds, and the fingerprint visited set is a bijection assigning the
//! same ids for arbitrary thresholds.

use proptest::prelude::*;
use sb_scale::{stream_site, SpillBacking, SpillConfig, SpillQueue, VisitedSet};
use sb_webgraph::gen::{build_site, SiteSource, SiteSpec};
use sb_webgraph::url::Url;
use std::collections::VecDeque;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming site is observationally identical to the eager one on
    /// arbitrary spec knobs: same graph, same URLs, and byte-identical
    /// rendered pages — even with a render cache far too small to hold the
    /// site.
    #[test]
    fn streaming_site_is_byte_identical(
        n in 60usize..220,
        tf in 0.05f64..0.5,
        err in 0.0f64..0.2,
        ext in 0.0f64..0.8,
        seed in 0u64..300,
    ) {
        let mut spec = SiteSpec::demo(n);
        spec.target_frac = tf;
        spec.error_frac = err;
        spec.extensionless = ext;
        let eager = build_site(&spec, seed);
        let lazy = stream_site(&spec, seed).with_render_cache_budget(4 << 10);

        prop_assert_eq!(lazy.n_pages(), SiteSource::n_pages(&eager));
        prop_assert_eq!(lazy.root(), SiteSource::root(&eager));
        for id in 0..lazy.n_pages() as u32 {
            prop_assert_eq!(lazy.url(id), SiteSource::url(&eager, id));
            prop_assert_eq!(lazy.kind(id), SiteSource::kind(&eager, id));
            prop_assert_eq!(lazy.out_links(id), SiteSource::out_links(&eager, id));
            prop_assert_eq!(
                lazy.content_length(id),
                SiteSource::content_length(&eager, id),
                "content-length of page {}", id
            );
            match lazy.kind(id) {
                sb_webgraph::gen::PageKind::Html(_) => prop_assert_eq!(
                    &lazy.rendered(id)[..],
                    &SiteSource::rendered(&eager, id)[..],
                    "body of page {}", id
                ),
                sb_webgraph::gen::PageKind::Target { .. } => prop_assert_eq!(
                    &lazy.target_payload(id)[..],
                    &SiteSource::target_payload(&eager, id)[..],
                    "payload of page {}", id
                ),
                _ => {}
            }
        }
        // Omniscient views agree too (targets, classes, depths).
        prop_assert_eq!(lazy.target_urls(), SiteSource::target_urls(&eager));
        prop_assert_eq!(lazy.source_depths(), SiteSource::source_depths(&eager));
    }

    /// FIFO discipline: for arbitrary interleavings of pushes and pops and
    /// an arbitrary (possibly tiny) spill threshold, `SpillQueue` pops in
    /// exactly `VecDeque` order.
    #[test]
    fn spill_queue_fifo_order_exact(
        ops in proptest::collection::vec(0u8..=9, 1..400),
        mem_cap in 1usize..48,
        disk in any::<bool>(),
    ) {
        let backing = if disk { SpillBacking::Disk } else { SpillBacking::Memory };
        let mut q = SpillQueue::with_config(SpillConfig::bounded(mem_cap, backing));
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for op in ops {
            if op >= 3 {
                // Weighted toward pushes so spills actually happen.
                for _ in 0..op {
                    q.push_back(next);
                    model.push_back(next);
                    next += 1;
                }
            } else if op == 0 {
                prop_assert_eq!(q.pop_front(), model.pop_front());
            } else {
                prop_assert_eq!(q.len(), model.len());
            }
        }
        while let Some(want) = model.pop_front() {
            prop_assert_eq!(q.pop_front(), Some(want));
        }
        prop_assert!(q.is_empty());
    }

    /// LIFO discipline: same exactness for `pop_back` (DFS frontiers).
    #[test]
    fn spill_queue_lifo_order_exact(
        ops in proptest::collection::vec(0u8..=9, 1..400),
        mem_cap in 1usize..48,
        disk in any::<bool>(),
    ) {
        let backing = if disk { SpillBacking::Disk } else { SpillBacking::Memory };
        let mut q = SpillQueue::with_config(SpillConfig::bounded(mem_cap, backing));
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for op in ops {
            if op >= 3 {
                for _ in 0..op {
                    q.push_back(next);
                    model.push_back(next);
                    next += 1;
                }
            } else {
                prop_assert_eq!(q.pop_back(), model.pop_back());
            }
        }
        while let Some(want) = model.pop_back() {
            prop_assert_eq!(q.pop_back(), Some(want));
        }
        prop_assert!(q.is_empty());
    }

    /// The visited set assigns exactly the same dense ids as a pure-exact
    /// set for arbitrary URL batches and arbitrary compaction thresholds,
    /// and resolves every URL back to the same text.
    #[test]
    fn visited_set_ids_invariant_under_threshold(
        hosts in proptest::collection::vec("[a-z]{1,6}\\.[a-z]{2,4}", 1..8),
        paths in proptest::collection::vec("(/[a-z0-9._-]{1,8}){1,3}", 8..60),
        threshold in 0usize..40,
    ) {
        let urls: Vec<Url> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let h = &hosts[i % hosts.len()];
                Url::parse(&format!("https://{h}{p}")).expect("constructed valid")
            })
            .collect();
        let mut exact = VisitedSet::exact();
        let mut compact = VisitedSet::with_threshold(threshold);
        for u in &urls {
            prop_assert_eq!(compact.intern(u), exact.intern(u));
        }
        for u in &urls {
            prop_assert_eq!(compact.get(u), exact.get(u));
        }
        prop_assert_eq!(compact.len(), exact.len());
        for id in 0..exact.len() as u32 {
            prop_assert_eq!(compact.text(id), exact.text(id));
            prop_assert_eq!(compact.base(id), exact.base(id));
        }
    }

    /// Interning is a bijection on arbitrary valid URLs: text and parsed
    /// form round-trip, ids are stable and dense, and `get` agrees with
    /// `intern`.
    #[test]
    fn interner_roundtrips_arbitrary_urls(
        hosts in proptest::collection::vec("[a-z]{1,8}(\\.[a-z]{1,5}){1,2}", 1..12),
        paths in proptest::collection::vec("(/[a-z0-9._-]{1,8}){0,3}", 1..12),
    ) {
        let mut it = VisitedSet::exact();
        let urls: Vec<Url> = hosts
            .iter()
            .zip(&paths)
            .map(|(h, p)| Url::parse(&format!("https://{h}{p}")).expect("constructed valid"))
            .collect();
        let ids: Vec<_> = urls.iter().map(|u| it.intern(u)).collect();
        for (u, &id) in urls.iter().zip(&ids) {
            prop_assert_eq!(it.get(u), Some(id));
            prop_assert_eq!(it.intern(u), id, "re-interning must be stable");
            prop_assert_eq!(&it.base(id), u);
            let text = u.as_string();
            prop_assert_eq!(it.text(id), text.as_str());
        }
        // Dense ids: every id below len() is populated.
        prop_assert!(ids.iter().all(|&id| (id as usize) < it.len()));
    }
}
