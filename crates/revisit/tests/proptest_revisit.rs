//! Property tests for the revisit substrate: estimator bounds, body
//! hashing, scheduler safety under arbitrary event sequences, and
//! evolution invariants under arbitrary change models.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_revisit::{
    change_rate, fnv64, ChangeModel, EvolvingSite, Observation, ProportionalRevisit,
    RevisitPolicy, RoundRobinRevisit, SleepingBanditRevisit, ThompsonGroupsRevisit,
};
use sb_webgraph::{build_site, SiteSource, SiteSpec};
use std::collections::HashSet;

proptest! {
    /// λ̂ is finite, non-negative, and clamps x > n.
    #[test]
    fn change_rate_is_bounded(visits in 0u64..10_000, changes in 0u64..20_000) {
        let r = change_rate(visits, changes);
        prop_assert!(r.is_finite());
        prop_assert!(r >= 0.0);
        prop_assert_eq!(change_rate(visits, changes.min(visits)), r);
    }

    /// More observed changes at the same visit count never lowers λ̂.
    #[test]
    fn change_rate_monotone_in_changes(visits in 1u64..500, a in 0u64..500, b in 0u64..500) {
        let (lo, hi) = (a.min(b).min(visits), a.max(b).min(visits));
        prop_assert!(change_rate(visits, lo) <= change_rate(visits, hi));
    }

    /// FNV-1a is a pure function of the bytes.
    #[test]
    fn fnv64_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(fnv64(&data), fnv64(&data));
        let mut tweaked = data.clone();
        tweaked.push(0);
        prop_assert_ne!(fnv64(&tweaked), fnv64(&data));
    }
}

/// Stored body hashes must mean the same thing in every process and on
/// every platform: the empty input hashes to the FNV-1a offset basis.
#[test]
fn fnv64_of_nothing_is_the_offset_basis() {
    assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
}

/// Drives a policy with an arbitrary interleaving of registrations and
/// observations, checking the scheduling contract: no panics, and no URL
/// issued twice within one epoch.
fn exercise_policy(
    policy: &mut dyn RevisitPolicy,
    urls: &[String],
    events: &[(u8, u8)],
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(9);
    for (i, url) in urls.iter().enumerate() {
        policy.register(url, &format!("html body div.g{} a", i % 3));
    }
    for chunk in events.chunks(4) {
        policy.begin_epoch();
        let mut issued: HashSet<String> = HashSet::new();
        while let Some(url) = policy.next(&mut rng) {
            prop_assert!(issued.insert(url.clone()), "{url} issued twice in one epoch");
            let (c, t) = chunk.first().copied().unwrap_or((0, 0));
            policy.observe(
                &url,
                &Observation {
                    changed: c % 2 == 0,
                    new_targets: u64::from(t % 5),
                    died: c % 7 == 3,
                },
            );
            if issued.len() > urls.len() {
                prop_assert!(false, "issued more URLs than registered");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn policies_respect_the_epoch_contract(
        n_urls in 0usize..24,
        events in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..16),
    ) {
        let urls: Vec<String> =
            (0..n_urls).map(|i| format!("https://s.example/p{i}")).collect();
        exercise_policy(&mut RoundRobinRevisit::default(), &urls, &events)?;
        exercise_policy(&mut ProportionalRevisit::default(), &urls, &events)?;
        exercise_policy(&mut ThompsonGroupsRevisit::default(), &urls, &events)?;
        exercise_policy(&mut SleepingBanditRevisit::default(), &urls, &events)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Evolution invariants for arbitrary (bounded) change models: page
    /// counts grow monotonically, epoch-0 is untouched, published target
    /// URLs are unique and resolvable, and everything is seed-stable.
    #[test]
    fn evolve_invariants(
        epochs in 1usize..5,
        new_targets in 0.0f64..12.0,
        new_articles in 0.0f64..3.0,
        update_frac in 0.0f64..0.4,
        death_frac in 0.0f64..0.2,
        hot in 1usize..4,
        seed in 0u64..50,
    ) {
        let model = ChangeModel {
            epochs,
            new_targets_per_epoch: new_targets,
            new_articles_per_epoch: new_articles,
            target_update_frac: update_frac,
            death_frac,
            hot_sections: hot,
        };
        let base = build_site(&SiteSpec::demo(120), seed);
        let base_len = base.len();
        let site = EvolvingSite::evolve(base, &model, seed);
        prop_assert_eq!(site.epochs(), epochs.max(1));
        prop_assert_eq!(site.snapshot(0).len(), base_len);
        prop_assert!(site.events(0).is_empty());

        let mut all_new: HashSet<String> = HashSet::new();
        for e in 1..site.epochs() {
            prop_assert!(site.snapshot(e).len() >= site.snapshot(e - 1).len());
            for url in &site.events(e).new_target_urls {
                prop_assert!(all_new.insert(url.clone()), "duplicate published URL {url}");
                prop_assert!(site.snapshot(e).lookup(url).is_some());
                // The URL must not exist in the *previous* snapshot.
                prop_assert!(site.snapshot(e - 1).lookup(url).is_none());
            }
            for url in &site.events(e).died_urls {
                let id = site.snapshot(e).lookup(url).expect("tombstone keeps URL");
                let is_tombstone =
                    matches!(site.snapshot(e).page(id).kind, sb_webgraph::PageKind::Error { .. });
                prop_assert!(is_tombstone, "died URL {} is not an error page", url);
            }
        }
    }
}

/// The frozen tree renderer `sb-webgraph`'s tests keep as the origin's
/// oracle (PR 23), shared rather than copied.
#[path = "../../webgraph/tests/oracle/mod.rs"]
mod oracle;

/// Every epoch of an evolving site — published articles and targets, grown
/// catalogs, deaths that nav bars and anchors still point at — renders
/// byte-for-byte what the tree renderer produced for the same snapshot.
#[test]
fn evolved_snapshots_render_as_the_tree_renderer_did() {
    use sb_webgraph::gen::PageKind;
    let model = ChangeModel { epochs: 3, death_frac: 0.05, ..ChangeModel::default() };
    let site = EvolvingSite::evolve(build_site(&SiteSpec::demo(300), 21), &model, 4);
    for e in 0..site.epochs() {
        let snap = site.snapshot(e);
        let mut pages = 0;
        for id in 0..snap.len() as u32 {
            if matches!(snap.page(id).kind, PageKind::Html(_)) {
                let want = oracle::page::render_page(&**snap, id);
                assert_eq!(&snap.rendered(id)[..], want.as_bytes(), "epoch {e}, page {id}");
                pages += 1;
            }
        }
        assert!(pages > 100, "epoch {e} rendered only {pages} pages");
    }
}
