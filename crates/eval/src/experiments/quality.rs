//! Quality — the value-driven batch frontier workload (PR 10): targets
//! found **per GET** under a request budget too small to exhaust the
//! site, where frontier *ordering* is the whole game. One classifier-
//! target bench site, crawled by BFS / TRES / SB-CLASSIFIER at the
//! sequential window, and by the Crawl4LLM-style `ValueStrategy` (its
//! default scorer mix) across the batch ladder 1/4/16 — batch = in-flight
//! window, one ranking pass per window-fill.
//!
//! The acceptance gate of ISSUE 10 is asserted here: ValueStrategy with
//! batch = in-flight window must achieve **strictly better**
//! quality-per-fetch than BFS on this site.

use crate::runner::RunOpts;
use crate::setup::{build_strategy, run_with_strategy, CrawlerKind, EvalConfig};
use crate::tables::{markdown, write_csv, write_text};
use sb_crawler::strategies::ValueStrategy;
use sb_crawler::strategy::Strategy;
use sb_crawler::Budget;
use sb_scale::stream_site;
use sb_webgraph::gen::{SiteSource, SiteSpec};
use std::sync::Arc;

pub fn run(cfg: &EvalConfig) -> String {
    // Same sizing as the pipeline bench; targets carry learnable URL
    // shape (extensions, directories), which is what the classifier and
    // bandit scorers exploit.
    let n_pages = ((cfg.scale * 400_000.0) as usize).clamp(200, 40_000);
    let site = Arc::new(stream_site(&SiteSpec::demo(n_pages), 42));
    let census_targets = site.census().targets;

    // A budget deep enough to learn from, far too shallow to exhaust:
    // ~1 GET per 5 pages. Ordering decides what the GETs buy.
    let budget_requests = (n_pages as u64 / 5).max(60);

    #[derive(Clone)]
    struct Arm {
        label: &'static str,
        kind: Option<CrawlerKind>,
        window: usize,
    }
    let arms = [
        Arm { label: "BFS", kind: Some(CrawlerKind::Bfs), window: 1 },
        Arm { label: "TRES", kind: Some(CrawlerKind::Tres), window: 1 },
        Arm { label: "SB-CLASSIFIER", kind: Some(CrawlerKind::SbClassifier), window: 1 },
        Arm { label: "VALUE", kind: None, window: 1 },
        Arm { label: "VALUE", kind: None, window: 4 },
        Arm { label: "VALUE", kind: None, window: 16 },
    ];

    struct Row {
        label: &'static str,
        window: usize,
        requests: u64,
        targets: u64,
        quality: f64,
    }
    let rows: Vec<Row> = crate::runner::par_map(&arms, cfg.jobs, |arm| {
        let opts = RunOpts {
            budget: Budget::Requests(budget_requests),
            scale: cfg.scale,
            max_in_flight: arm.window,
            ..Default::default()
        };
        let out = match arm.kind {
            Some(kind) => {
                let mut s = build_strategy(kind, &site, cfg.scale, &opts.sb);
                run_with_strategy(&site, s.as_mut(), kind.needs_oracle(), 0, &opts)
            }
            None => run_with_strategy(&site, &mut ValueStrategy::default_mix(), false, 0, &opts),
        };
        let requests = out.traffic.requests();
        let targets = out.targets_found();
        Row {
            label: arm.label,
            window: arm.window,
            requests,
            targets,
            quality: targets as f64 / requests.max(1) as f64,
        }
    });

    let headers: Vec<String> =
        ["Strategy", "Batch=window", "Requests", "Targets", "Targets/GET"]
            .map(String::from)
            .to_vec();
    let mut md_rows = Vec::new();
    let mut csv_rows = Vec::new();
    for r in &rows {
        md_rows.push(vec![
            r.label.to_string(),
            r.window.to_string(),
            r.requests.to_string(),
            r.targets.to_string(),
            format!("{:.4}", r.quality),
        ]);
        csv_rows.push(vec![
            r.label.to_string(),
            r.window.to_string(),
            r.requests.to_string(),
            r.targets.to_string(),
            format!("{:.6}", r.quality),
        ]);
    }
    let _ = write_csv(
        &cfg.out_dir.join("quality.csv"),
        &["strategy", "batch_window", "requests", "targets", "quality_per_fetch"]
            .map(String::from),
        &csv_rows,
    );

    // The ISSUE 10 acceptance gate, asserted at every run of this
    // experiment: the value frontier (any batch rung — batch defaults to
    // the in-flight window) must buy strictly more targets per GET than
    // frontier-order BFS.
    let bfs_quality = rows
        .iter()
        .find(|r| r.label == "BFS")
        .expect("BFS arm always runs")
        .quality;
    for r in rows.iter().filter(|r| r.label == "VALUE") {
        assert!(
            r.quality > bfs_quality,
            "VALUE batch={} quality-per-fetch {:.4} must strictly beat BFS {:.4}",
            r.window,
            r.quality,
            bfs_quality
        );
    }

    let best = rows
        .iter()
        .filter(|r| r.label == "VALUE")
        .max_by(|a, b| a.quality.total_cmp(&b.quality))
        .expect("VALUE arms always run");
    let summary = format!(
        "{n_pages}-page bench site ({census_targets} targets), {budget_requests}-request \
         budget: {} batch={} finds {} targets ({:.4}/GET) vs BFS \
         {:.4}/GET — {:.2}× quality-per-fetch",
        ValueStrategy::default_mix().name(),
        best.window,
        best.targets,
        best.quality,
        bfs_quality,
        best.quality / bfs_quality.max(1e-12),
    );
    let report = format!(
        "## Quality — value-driven batch frontier (targets per GET under a shallow budget)\n\n{}\n\n{}\n",
        markdown(&headers, &md_rows),
        summary,
    );
    let _ = write_text(&cfg.out_dir.join("quality.md"), &report);
    report
}
