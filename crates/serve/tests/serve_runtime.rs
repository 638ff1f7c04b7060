//! End-to-end pins for the continuous crawl-and-serve loop.
//!
//! * Determinism: with readers off and a transport window of 1, the
//!   whole refresh schedule is a pure function of the seed —
//!   byte-reproducible across runs.
//! * The serve feed's body hashing matches `sb_revisit::fnv64`, so
//!   store hashes, session change detection and the evolution oracle
//!   all speak the same fingerprint.
//! * The loop actually refreshes: counters move, staleness is bounded,
//!   and the store serves committed pages after the final epoch.

use sb_crawler::Budget;
use sb_revisit::EvolvingSite;
use sb_revisit::{fnv64, ChangeModel, ProportionalRevisit};
use sb_serve::{serve_site, ServeConfig, ServeOutcome};
use sb_webgraph::{build_site, SiteSpec};

fn pinned_config() -> ServeConfig {
    ServeConfig {
        change: ChangeModel {
            epochs: 5,
            ..ChangeModel::default()
        },
        seed: 2026,
        window: 1,
        discovery_requests: 160,
        refresh_per_epoch: 10,
        retain: 1,
        budget: Budget::Requests(600),
        read: None,
    }
}

fn run_once(cfg: &ServeConfig) -> ServeOutcome {
    let base = build_site(&SiteSpec::demo(180), 99);
    let site = EvolvingSite::evolve(base, &cfg.change, cfg.seed);
    let mut policy = ProportionalRevisit::default();
    serve_site(&site, &mut policy, cfg)
}

#[test]
fn refresh_schedule_is_byte_reproducible_with_readers_off() {
    let cfg = pinned_config();
    let a = run_once(&cfg);
    let b = run_once(&cfg);
    assert!(
        !a.schedule.is_empty(),
        "epochs planned at least one refresh"
    );
    assert_eq!(
        a.schedule, b.schedule,
        "schedule must be a pure function of the seed"
    );
    assert_eq!(
        a.outcome.refresh, b.outcome.refresh,
        "refresh counters reproduce too"
    );
}

#[test]
fn serve_loop_refreshes_and_bounds_staleness() {
    let out = run_once(&pinned_config());
    let r = out.outcome.refresh;
    assert!(r.scheduled >= 10, "scheduled {} refreshes", r.scheduled);
    assert_eq!(r.attempted(), r.completed + r.failed);
    assert!(r.completed > 0, "some refreshes completed: {r:?}");
    assert!(
        r.changed > 0,
        "an evolving origin must yield changed refetches: {r:?}"
    );
    assert!(out.store.len() > 20, "store serves the discovered corpus");
    assert!(out.staleness_p99 >= out.staleness_p50);
    // Refreshing the popular/likely-changed head each epoch keeps the
    // median bounded well under the run's epoch count.
    assert!(out.staleness_p50 <= 4.0, "p50 {} epochs", out.staleness_p50);

    // The store serves every scheduled URL, and generations advanced for
    // at least one refreshed page.
    let mut advanced = 0usize;
    for url in &out.schedule {
        let v = out.store.peek(url).expect("scheduled URLs are store-known");
        assert_eq!(
            v.body_hash,
            fnv64(v.body.as_slice()),
            "served hash matches served bytes"
        );
        if v.generation > 1 {
            advanced += 1;
        }
    }
    assert!(advanced > 0, "refreshes advanced at least one generation");
}

#[test]
fn read_load_feeds_popularity_and_staleness_percentiles() {
    let mut cfg = pinned_config();
    cfg.read = Some(sb_serve::ReadLoadConfig {
        readers: 2,
        reads_per_reader: 800,
        zipf_s: 1.1,
        seed: 7,
    });
    let base = build_site(&SiteSpec::demo(180), 99);
    let mut policy = ProportionalRevisit::default();
    let site = EvolvingSite::evolve(base, &cfg.change, cfg.seed);
    let out = serve_site(&site, &mut policy, &cfg);
    // 4 refresh epochs × 2 readers × 800 reads.
    assert_eq!(out.read.reads, 6_400);
    assert_eq!(out.read.misses, 0, "readers only sample store-known URLs");
    assert!(out.read.qps > 0.0);
    let urls = out.store.urls();
    assert!(out.store.reads(&urls[0]) > 0, "the Zipf head got read");
}
