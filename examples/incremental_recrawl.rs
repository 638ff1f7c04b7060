//! Incremental recrawl: keep a statistics-portal mirror fresh.
//!
//! A newsroom mirrored a ministry site once; the ministry keeps publishing
//! new datasets in its data catalogs. This example evolves the site over
//! six months (epochs), gives each revisit policy the same small monthly
//! refresh budget, and compares how well each keeps the served mirror
//! fresh — the paper's Sec 6 "incremental revisits" future work.
//!
//! Since PR 9 this runs on the **continuous crawl-and-serve subsystem**
//! (`sbcrawl::serve`): one long-lived crawl session discovers the site,
//! a snapshot store serves it, and the policy schedules refreshes through
//! the same politeness/budget window (see also
//! `examples/crawl_and_serve.rs`). The four-policy *recall* comparison —
//! same session API, no store, no readers — is `xp revisit`
//! (`sbcrawl::eval::experiments::revisit::recrawl`).
//!
//! ```sh
//! cargo run --release --example incremental_recrawl
//! ```

use sbcrawl::crawler::Budget;
use sbcrawl::revisit::{
    ChangeModel, EvolvingSite, ProportionalRevisit, RevisitPolicy, RoundRobinRevisit,
    SleepingBanditRevisit, ThompsonGroupsRevisit,
};
use sbcrawl::serve::{serve_site, ServeConfig};
use sbcrawl::webgraph::{build_site, SiteSource, SiteSpec};

fn main() {
    // A ~1 500-page ministry-style site...
    let base = build_site(&SiteSpec::demo(1500), 2026);
    println!(
        "base site: {} pages, {} targets",
        base.census().available,
        base.census().targets
    );

    // ...that publishes ~12 new datasets and 2 release notes per month,
    // concentrated in two live sections, refreshes 2 % of its files and
    // retires a few old articles.
    let model = ChangeModel {
        epochs: 7, // base + 6 months
        new_targets_per_epoch: 12.0,
        new_articles_per_epoch: 2.0,
        target_update_frac: 0.02,
        death_frac: 0.003,
        hot_sections: 2,
    };
    let site = EvolvingSite::evolve(base, &model, 2026);
    let published: usize = (1..site.epochs())
        .map(|e| site.events(e).new_target_urls.len())
        .sum();
    println!(
        "evolution: {} epochs, {} new targets published, hot sections {:?}\n",
        site.epochs() - 1,
        published,
        site.hot_sections()
    );

    // Each policy gets the same monthly refresh budget: 8 % of the site,
    // riding one continuous session (readers off → deterministic runs).
    let monthly = (site.snapshot(0).len() as f64 * 0.08) as usize;
    println!("monthly refresh budget: {monthly} refetches\n");
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "policy", "refreshes", "changed", "failed", "stale p50", "stale p99"
    );

    let policies: Vec<Box<dyn RevisitPolicy>> = vec![
        Box::new(RoundRobinRevisit::default()),
        Box::new(ProportionalRevisit::default()),
        Box::new(ThompsonGroupsRevisit::default()),
        Box::new(SleepingBanditRevisit::default()),
    ];
    for mut policy in policies {
        let cfg = ServeConfig {
            change: model.clone(),
            seed: 7,
            window: 2,
            discovery_requests: 2_000,
            refresh_per_epoch: monthly,
            retain: 1,
            budget: Budget::Unlimited,
            read: None,
        };
        let out = serve_site(&site, policy.as_mut(), &cfg);
        let r = out.outcome.refresh;
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>10.1} {:>10.1}",
            policy.name(),
            r.completed,
            r.changed,
            r.failed,
            out.staleness_p50,
            out.staleness_p99,
        );
    }

    // Show what the paper-native scheduler learned: the tag-path groups it
    // considers worth refreshing.
    let mut sb = SleepingBanditRevisit::default();
    let cfg = ServeConfig {
        change: model.clone(),
        seed: 7,
        refresh_per_epoch: monthly,
        discovery_requests: 2_000,
        ..ServeConfig::default()
    };
    serve_site(&site, &mut sb, &cfg);
    let mut arms = sb.arm_summary();
    arms.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("\ntop refresh groups by mean reward (sleeping bandit):");
    for (path, pulls, mean) in arms.iter().take(3) {
        let tail: String = path
            .chars()
            .rev()
            .take(48)
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        println!("  {mean:>6.2} mean reward, {pulls:>4} pulls  …{tail}");
    }
}
