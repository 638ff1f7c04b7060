//! Fleet — the first multi-site workload: every selected Table 1 profile
//! crawled **concurrently** by the paper's SB-CLASSIFIER (early stopping
//! on), scheduled by `sb_crawler::fleet::Fleet` over `--jobs` worker
//! threads. Reports per-site outcomes plus aggregate traffic and
//! simulated time. Every CSV is a function of the command-line flags
//! alone: wall-clock throughput is `benchmark/`'s (`fleet_sharded`).
//!
//! With `--shared-pool` (PR 5) the same fleet additionally runs through
//! one `SharedTransportPool` at global in-flight windows 1/4/16
//! (`fleet_pool.csv`): at window 1 the pool serialises the fleet, so
//! per-site results must be **byte-identical** to the per-site-transport
//! arm (asserted — this is the `verify.sh` smoke's parity check); wider
//! windows overlap the sites' politeness waits and shrink the simulated
//! makespan while the learning crawler's coverage may legitimately
//! reorder within a site.
//!
//! With `--shards 1,2,4` (PR 8) the fleet additionally runs under the
//! **sharded parallel driver** (`fleet_shards.csv`): one driver thread
//! per shard, each owning its own transport pool at per-shard window 1,
//! with whole-site work stealing between backlogs. At window 1 every site
//! replays the sequential engine no matter which shard drives it, so each
//! rung's per-site results are asserted byte-identical to the first
//! rung's — the shard count may only buy wall-clock, never change a
//! result. The rung reports only what the crawl determines; steal counts
//! depend on thread timing and are left to `benchmark/`.
//!
//! This is a *throughput/workload* experiment, not a seed-averaged metric
//! table: each site is crawled once (`--seeds` is not averaged here), with
//! its RNG seeded per site so no two sessions share a stream.

use crate::experiments::scaled_early_stop;
use crate::setup::{build_site_for, EvalConfig};
use crate::tables::{markdown, write_csv, write_text};
use sb_crawler::fleet::{Fleet, FleetJob, FleetMode, SharedServer};
use sb_crawler::strategies::SbStrategy;
use sb_crawler::{CrawlConfig, FinishReason};
use sb_httpsim::SiteServer;
use sb_webgraph::gen::SiteSource;
use std::sync::Arc;

/// Global shared-pool windows swept by `--shared-pool`.
pub const POOL_WINDOWS: [usize; 3] = [1, 4, 16];

pub fn run(cfg: &EvalConfig) -> String {
    let profiles = cfg.selected_profiles();
    let build_fleet = |mode: FleetMode| {
        let mut fleet = Fleet::new(cfg.jobs).mode(mode);
        for p in &profiles {
            let site = build_site_for(cfg, p.code);
            let root = site.url(site.root()).to_owned();
            let server: SharedServer = Arc::new(SiteServer::from_source(site));
            let crawl_cfg = CrawlConfig {
                early_stop: Some(scaled_early_stop(cfg.scale)),
                seed: cfg.site_seed(p.code),
                ..Default::default()
            };
            fleet.push(
                FleetJob::new(p.code, server, root, || {
                    Box::new(SbStrategy::classifier_default())
                })
                .config(crawl_cfg),
            );
        }
        fleet
    };

    let out = build_fleet(FleetMode::PerSite).run();

    let headers: Vec<String> =
        ["Site", "Targets", "Requests", "Early stop", "Sim. hours"].map(String::from).to_vec();
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for report in &out.sites {
        let o = report.expect_outcome();
        let stopped_early = o.finish_reason == FinishReason::EarlyStopped;
        rows.push(vec![
            report.name.clone(),
            o.targets_found().to_string(),
            o.traffic.requests().to_string(),
            if stopped_early { "✓" } else { "✗" }.to_owned(),
            format!("{:.2}", o.traffic.elapsed_secs / 3600.0),
        ]);
        csv_rows.push(vec![
            report.name.clone(),
            o.targets_found().to_string(),
            o.traffic.requests().to_string(),
            stopped_early.to_string(),
            format!("{:.4}", o.traffic.elapsed_secs),
        ]);
    }
    let _ = write_csv(
        &cfg.out_dir.join("fleet.csv"),
        &["site", "targets", "requests", "stopped_early", "sim_secs"].map(String::from),
        &csv_rows,
    );

    let summary = format!(
        "{} sites on {} workers: {} targets, {} requests \
         (simulated: {:.1}h serial vs {:.1}h longest site)",
        out.sites.len(),
        cfg.jobs,
        out.targets,
        out.traffic.requests(),
        out.traffic.elapsed_secs / 3600.0,
        out.sim_makespan_secs() / 3600.0,
    );
    let mut report = format!(
        "## Fleet — concurrent multi-site crawl (SB-CLASSIFIER, early stopping)\n\n{}\n\n{}\n",
        markdown(&headers, &rows),
        summary,
    );

    if cfg.shared_pool {
        report.push_str(&shared_pool_arm(cfg, &out, &build_fleet));
    }
    if !cfg.shards.is_empty() {
        report.push_str(&sharded_arm(cfg, &build_fleet));
    }

    let _ = write_text(&cfg.out_dir.join("fleet.md"), &report);
    report
}

/// The `--shared-pool` arm: the 1/4/16 global-window ladder, with the
/// window-1 run asserted byte-identical per site to the per-site arm.
fn shared_pool_arm(
    cfg: &EvalConfig,
    per_site: &sb_crawler::FleetOutcome,
    build_fleet: impl Fn(FleetMode) -> Fleet,
) -> String {
    let headers: Vec<String> =
        ["Mode", "Targets", "Requests", "Sim. makespan (h)", "Speedup"].map(String::from).to_vec();
    let mut md_rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut push = |mode: &str, targets: u64, requests: u64, makespan: f64, baseline: f64| {
        md_rows.push(vec![
            mode.to_owned(),
            targets.to_string(),
            requests.to_string(),
            format!("{:.2}", makespan / 3600.0),
            format!("{:.2}×", baseline / makespan),
        ]);
        csv_rows.push(vec![
            mode.to_owned(),
            targets.to_string(),
            requests.to_string(),
            format!("{:.4}", makespan),
            format!("{:.4}", baseline / makespan),
        ]);
    };

    let mut serial = 0.0;
    for &window in &POOL_WINDOWS {
        let out = build_fleet(FleetMode::SharedPool { max_in_flight: window }).run();
        let makespan = out.sim_makespan_secs();
        if window == POOL_WINDOWS[0] {
            serial = makespan;
            // Window 1 serialises the fleet: per-site results must replay
            // the per-site-transport arm exactly (coverage parity is the
            // smoke-tested acceptance of the shared pool).
            for (p, s) in per_site.sites.iter().zip(&out.sites) {
                let (po, so) = (p.expect_outcome(), s.expect_outcome());
                assert_eq!(
                    (po.targets_found(), po.traffic.requests(), po.pages_crawled),
                    (so.targets_found(), so.traffic.requests(), so.pages_crawled),
                    "shared-pool window 1 diverged from per-site transports on {}",
                    p.name,
                );
            }
        }
        push(
            &format!("shared pool, window {window}"),
            out.targets,
            out.traffic.requests(),
            makespan,
            serial,
        );
    }
    push(
        "per-site transports",
        per_site.targets,
        per_site.traffic.requests(),
        per_site.sim_makespan_secs(),
        serial,
    );

    let _ = write_csv(
        &cfg.out_dir.join("fleet_pool.csv"),
        &["mode", "targets", "requests", "sim_makespan_secs", "speedup_vs_pool_w1"]
            .map(String::from),
        &csv_rows,
    );
    format!(
        "\n### Shared transport pool (global window ladder)\n\n{}\n\n\
         One pool, one clock: window 1 is a single crawler visiting every site in turn \
         (per-site results byte-identical to per-site transports — asserted); wider windows \
         let every site's politeness gate tick concurrently.\n",
        markdown(&headers, &md_rows),
    )
}

/// The `--shards` arm (PR 8): the sharded parallel driver at per-shard
/// window 1, one rung per shard count, each rung asserted byte-identical
/// per site to the first.
fn sharded_arm(cfg: &EvalConfig, build_fleet: impl Fn(FleetMode) -> Fleet) -> String {
    let headers: Vec<String> = ["Shards", "Targets", "Requests"].map(String::from).to_vec();
    let mut rows = Vec::new();
    let mut baseline: Option<Vec<(u64, u64, u64)>> = None;

    for &shards in &cfg.shards {
        let out = build_fleet(FleetMode::Sharded { shards, max_in_flight: 1 }).run();
        let per_site: Vec<(u64, u64, u64)> = out
            .sites
            .iter()
            .map(|r| {
                let o = r.expect_outcome();
                (o.targets_found(), o.traffic.requests(), o.pages_crawled)
            })
            .collect();
        let base_sites = baseline.get_or_insert_with(|| per_site.clone());
        // Byte-parity across the ladder: at per-shard window 1 every site
        // replays the sequential engine regardless of shard count or
        // stealing, so any divergence is a driver bug.
        assert_eq!(
            &per_site, base_sites,
            "sharded driver at {shards} shards diverged from the first rung"
        );
        rows.push(vec![
            shards.to_string(),
            out.targets.to_string(),
            out.traffic.requests().to_string(),
        ]);
    }

    let _ = write_csv(
        &cfg.out_dir.join("fleet_shards.csv"),
        &["shards", "targets", "requests"].map(String::from),
        &rows,
    );
    format!(
        "\n### Sharded parallel driver (shard ladder)\n\n{}\n\n\
         One driver thread per shard, per-shard window 1, whole-site work stealing: \
         per-site results are byte-identical across the ladder (asserted) — shards buy \
         wall-clock only, which the benchmark's `fleet_sharded` workload measures.\n",
        markdown(&headers, &rows),
    )
}
