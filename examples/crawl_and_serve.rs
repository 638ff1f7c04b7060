//! Continuous crawl-and-serve: a mirror that stays fresh *while being read*.
//!
//! The paper's pipeline ends with acquired data being consumed at scale.
//! This walkthrough runs the PR 9 subsystem end to end: one crawl session
//! discovers a statistics portal into a versioned snapshot store, the
//! origin keeps publishing, a Thompson-sampling revisit policy schedules
//! refreshes by estimated-change × read-popularity, and two Zipf reader
//! threads hammer the store the whole time — measuring read throughput
//! and the age of what they were served.
//!
//! ```sh
//! cargo run --release --example crawl_and_serve
//! ```

use sbcrawl::crawler::Budget;
use sbcrawl::revisit::{ChangeModel, EvolvingSite, ThompsonGroupsRevisit};
use sbcrawl::serve::{serve_site, ReadLoadConfig, ServeConfig};
use sbcrawl::webgraph::{build_site, SiteSource, SiteSpec};

fn main() {
    let base = build_site(&SiteSpec::demo(900), 1848);
    println!(
        "origin: {} pages, {} targets",
        base.census().available,
        base.census().targets
    );

    let cfg = ServeConfig {
        change: ChangeModel {
            epochs: 6,
            new_targets_per_epoch: 10.0,
            target_update_frac: 0.03,
            ..ChangeModel::default()
        },
        seed: 42,
        window: 4,
        discovery_requests: 1_200,
        refresh_per_epoch: 60,
        retain: 2,
        budget: Budget::Unlimited,
        read: Some(ReadLoadConfig {
            readers: 2,
            reads_per_reader: 20_000,
            zipf_s: 1.1,
            seed: 42,
        }),
    };

    let mut policy = ThompsonGroupsRevisit::default();
    let site = EvolvingSite::evolve(base, &cfg.change, cfg.seed);
    let out = serve_site(&site, &mut policy, &cfg);

    let r = out.outcome.refresh;
    println!("\nserved corpus: {} pages", out.store.len());
    println!(
        "refresh traffic: {} scheduled, {} completed ({} changed, {} unchanged), {} failed",
        r.scheduled, r.completed, r.changed, r.unchanged, r.failed
    );
    println!(
        "read workload:  {} reads at {:.0} QPS across {} refresh epochs",
        out.read.reads,
        out.read.qps,
        cfg.change.epochs - 1
    );
    println!(
        "staleness SLA:  p50 = {:.1} epochs, p99 = {:.1} epochs",
        out.staleness_p50, out.staleness_p99
    );

    // The popularity signal at work: the most-read pages and how fresh
    // their served copies ended up.
    let mut by_reads: Vec<_> = out
        .store
        .urls()
        .into_iter()
        .map(|u| (out.store.reads(&u), out.store.generation(&u), u))
        .collect();
    by_reads.sort_by(|a, b| b.0.cmp(&a.0));
    println!("\nhottest pages (reads → served generation):");
    for (reads, generation, url) in by_reads.iter().take(5) {
        println!("  {reads:>7} reads  gen {generation:>2}  {url}");
    }

    // Popularity feeds the refresh priority, so the read-hot pages should
    // dominate the schedule (generations only advance when a refetch
    // actually changed — unchanged refreshes keep serving the same
    // version).
    let scheduled_hot = by_reads
        .iter()
        .take(20)
        .filter(|(_, _, url)| out.schedule.iter().any(|s| s.as_str() == &**url))
        .count();
    println!("\n{scheduled_hot}/20 hottest pages were scheduled for refresh");
}
