//! Change estimators vs. the hostile web (PR 9 satellite).
//!
//! PR 6 wove crawler hazards — soft-404s (static bodies answering 200)
//! and near-duplicate clusters — into the generated sites; PR 9's serve
//! scheduler ranks refresh candidates by [`RevisitPolicy::estimate`].
//! These tests drive the estimators with observations taken from a
//! *hazard-laced evolving* site, through the same `begin_epoch` →
//! `next` → `observe` loop every revisit driver uses, and pin that the
//! hazards do not poison the estimates: a soft-404 keeps answering 200
//! with the same body forever, a near-dup clone never changes either, so
//! both must end up with strictly lower refresh estimates than the
//! genuinely-churning clean pages — and the policies must not
//! over-allocate their early per-epoch picks to hazard URLs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_httpsim::HttpServer;
use sb_revisit::{
    fnv64, ChangeModel, EvolvingServer, EvolvingSite, Observation, ProportionalRevisit,
    RevisitPolicy, SleepingBanditRevisit, ThompsonGroupsRevisit,
};
use sb_webgraph::gen::{apply_hazards, build_site, HazardSpec, PageKind, SiteSpec};
use std::collections::{HashMap, HashSet};

const SEED: u64 = 1701;

/// Tag-path group of a page, derived from its URL section the way the
/// crawler's in-link DOM paths separate sections in practice.
fn group_of(url: &str) -> String {
    let path = url.splitn(4, '/').nth(3).unwrap_or("");
    let seg = path.split('/').next().unwrap_or("");
    if seg.is_empty() {
        "html body main a".to_owned()
    } else {
        format!("html body section.{seg} ul a")
    }
}

/// A hazard-laced evolving site plus the ground-truth URL sets:
/// (site, soft-404 URLs, near-dup URLs, clean HTML URLs).
fn lace_and_evolve() -> (EvolvingSite, Vec<String>, Vec<String>, Vec<String>) {
    let mut base = build_site(&SiteSpec::demo(260), SEED);
    let spec = HazardSpec {
        soft_404s: 6,
        dup_clusters: 2,
        dup_copies: 4,
        ..HazardSpec::none()
    };
    let report = apply_hazards(&mut base, &spec, SEED);
    assert!(!report.soft404_ids.is_empty(), "site must host soft-404s");
    assert!(!report.dup_ids.is_empty(), "site must host dup clusters");

    let soft: Vec<String> = report
        .soft404_ids
        .iter()
        .map(|&id| base.page(id).url.clone())
        .collect();
    let dups: Vec<String> = report
        .dup_ids
        .iter()
        .map(|&id| base.page(id).url.clone())
        .collect();
    let clean: Vec<String> = base
        .pages()
        .iter()
        .filter(|p| matches!(p.kind, PageKind::Html(_)) && !report.is_hazard_url(&p.url))
        .map(|p| p.url.clone())
        .collect();

    // Bursty evolution concentrated in hot sections: plenty of genuine
    // change for the estimators to latch onto.
    let model = ChangeModel {
        epochs: 6,
        new_targets_per_epoch: 14.0,
        ..ChangeModel::default()
    };
    (EvolvingSite::evolve(base, &model, SEED), soft, dups, clean)
}

/// Replays the evolution against the live server and records, per epoch
/// transition, what a revisit of each tracked URL would have observed.
/// Also returns the set of URLs that ever changed.
fn evolution_truth(
    site: &EvolvingSite,
    tracked: &[String],
) -> (Vec<HashMap<String, Observation>>, HashSet<String>) {
    let server = EvolvingServer::new(site);
    let mut stored: HashMap<String, u64> = HashMap::new();
    let mut truth: Vec<HashMap<String, Observation>> = Vec::new();
    let mut changed_ever: HashSet<String> = HashSet::new();

    for epoch in 0..site.epochs() {
        server.set_epoch(epoch);
        let mut per_epoch: HashMap<String, Observation> = HashMap::new();
        for url in tracked {
            let r = server.get(url);
            let hash = fnv64(r.body.as_slice());
            let died = r.status >= 400;
            if let Some(prior) = stored.insert(url.clone(), hash) {
                let changed = !died && hash != prior;
                if changed {
                    changed_ever.insert(url.clone());
                }
                per_epoch.insert(
                    url.clone(),
                    Observation {
                        changed,
                        new_targets: u64::from(changed),
                        died,
                    },
                );
            }
        }
        if epoch > 0 {
            truth.push(per_epoch);
        }
    }
    (truth, changed_ever)
}

/// Drives one policy through the harness loop over every recorded epoch:
/// `begin_epoch`, then `next` → `observe` until the epoch drains.
fn train(policy: &mut dyn RevisitPolicy, truth: &[HashMap<String, Observation>], rng: &mut StdRng) {
    for per_epoch in truth {
        policy.begin_epoch();
        while let Some(url) = policy.next(rng) {
            let obs = per_epoch.get(&url).copied().unwrap_or_default();
            policy.observe(&url, &obs);
        }
    }
}

/// Registers the corpus the way a crawl would see it: hazard pages enter
/// through their entrances' distinctive DOM paths, clean pages through
/// their section's list markup.
fn register_corpus(
    policy: &mut dyn RevisitPolicy,
    soft: &[String],
    dups: &[String],
    clean: &[String],
) {
    for u in soft {
        policy.register(u, "html body main p a");
    }
    for u in dups {
        policy.register(u, "html body ul.archive a");
    }
    for u in clean {
        policy.register(u, &group_of(u));
    }
}

fn mean_estimate(p: &dyn RevisitPolicy, urls: &[String]) -> f64 {
    urls.iter().map(|u| p.estimate(u)).sum::<f64>() / urls.len().max(1) as f64
}

#[test]
fn estimators_are_not_poisoned_by_soft_404s_or_near_dups() {
    let (site, soft, dups, clean) = lace_and_evolve();
    let hazard: Vec<String> = soft.iter().chain(dups.iter()).cloned().collect();
    let tracked: Vec<String> = hazard.iter().chain(clean.iter()).cloned().collect();
    let (truth, changed) = evolution_truth(&site, &tracked);

    // Ground truth sanity: the hazard subspace is static — neither a
    // soft-404 body nor a near-dup clone ever changes across epochs.
    for u in &hazard {
        assert!(
            !changed.contains(u),
            "hazard page {u} changed — overlay no longer static"
        );
    }
    let hot: Vec<String> = clean
        .iter()
        .filter(|u| changed.contains(*u))
        .cloned()
        .collect();
    assert!(
        hot.len() >= 3,
        "evolution produced only {} changed clean pages — model too quiet for the test",
        hot.len()
    );

    let mut rng = StdRng::seed_from_u64(42);
    let mut prop = ProportionalRevisit::default();
    let mut ts = ThompsonGroupsRevisit::default();
    let mut sleep = SleepingBanditRevisit::default();
    register_corpus(&mut prop, &soft, &dups, &clean);
    register_corpus(&mut ts, &soft, &dups, &clean);
    register_corpus(&mut sleep, &soft, &dups, &clean);
    train(&mut prop, &truth, &mut rng);
    train(&mut ts, &truth, &mut rng);
    train(&mut sleep, &truth, &mut rng);

    // Proportional: per-URL change-rate estimates. Every genuinely hot
    // page must outrank every hazard page, and the hazard estimates must
    // have collapsed to the smoothing floor.
    let floor = prop.smoothing + 1e-9;
    for u in &hazard {
        assert!(
            prop.estimate(u) <= floor,
            "hazard page {u} kept estimate {} above the smoothing floor",
            prop.estimate(u)
        );
    }
    for h in &hot {
        for u in &hazard {
            assert!(
                prop.estimate(h) > prop.estimate(u),
                "hot page {h} ({}) does not outrank hazard {u} ({})",
                prop.estimate(h),
                prop.estimate(u)
            );
        }
    }

    // Thompson groups: the changed pages' groups accumulated successes,
    // the hazard groups only failures, so the posterior means separate.
    let hazard_mean = mean_estimate(&ts, &hazard);
    let hot_mean = mean_estimate(&ts, &hot);
    assert!(
        hot_mean > 1.5 * hazard_mean,
        "thompson: hot group mean {hot_mean} not well above hazard mean {hazard_mean}"
    );

    // Sleeping bandit: its arms earn new-target rewards; hazard arms were
    // pulled (full drain every epoch) and paid nothing, so their estimate
    // is pinned to zero while the hot arms carry positive means.
    let sleep_hazard = mean_estimate(&sleep, &hazard);
    let sleep_hot = mean_estimate(&sleep, &hot);
    assert!(
        sleep_hazard < 1e-9,
        "sleeping bandit: hazard arms estimate {sleep_hazard} despite never paying"
    );
    assert!(
        sleep_hot > sleep_hazard + 0.02,
        "sleeping bandit: hot mean {sleep_hot} not above hazard mean {sleep_hazard}"
    );
}

#[test]
fn policies_do_not_majority_allocate_to_hazard_urls() {
    let (site, soft, dups, clean) = lace_and_evolve();
    let hazard: Vec<String> = soft.iter().chain(dups.iter()).cloned().collect();
    let tracked: Vec<String> = hazard.iter().chain(clean.iter()).cloned().collect();
    let (truth, changed) = evolution_truth(&site, &tracked);
    assert!(!changed.is_empty());

    let mut rng = StdRng::seed_from_u64(7);
    let mut prop = ProportionalRevisit::default();
    let mut ts = ThompsonGroupsRevisit::default();
    register_corpus(&mut prop, &soft, &dups, &clean);
    register_corpus(&mut ts, &soft, &dups, &clean);
    train(&mut prop, &truth, &mut rng);
    train(&mut ts, &truth, &mut rng);

    // Hazards are a minority of the corpus, but a naive 200-means-value
    // scheduler would still pour budget into them. Take one epoch's first
    // picks — the scheduler's priority head — and cap the hazard share at
    // its corpus share plus slack, i.e. no over-allocation at all.
    let corpus_share = hazard.len() as f64 / tracked.len() as f64;
    // (The sleeping bandit is asserted at the estimate level instead: its
    // AUER exploration bonus deliberately front-loads small under-pulled
    // groups, so a head-pick cap would test exploration, not estimates.)
    for (name, policy) in [
        ("proportional", &mut prop as &mut dyn RevisitPolicy),
        ("thompson", &mut ts),
    ] {
        let head = hazard.len().max(8);
        let mut hazard_picks = 0usize;
        policy.begin_epoch();
        for _ in 0..head {
            let Some(u) = policy.next(&mut rng) else {
                break;
            };
            if hazard.contains(&u) {
                hazard_picks += 1;
            }
        }
        let share = hazard_picks as f64 / head as f64;
        assert!(
            share <= (corpus_share + 0.15).max(0.25),
            "{name}: {hazard_picks}/{head} head picks were hazards \
             (share {share:.2}, corpus share {corpus_share:.2})"
        );
    }
}
