//! Hostile — the hostile-web workload (PR 6): BFS over a trap-laced,
//! flaky, heavy-tailed site at in-flight windows 1, 4 and 16, with the
//! transport-level retry/backoff policy turned on. The site carries the
//! full [`HazardSpec::scaled`] overlay (calendar trap, redirect farm and
//! loops, soft-404s, near-duplicate clusters) woven into repurposed error
//! URLs, an 8 % hard-503 outage recovered-or-abandoned by retries, and a
//! heavy-tailed latency hazard behind a transport timeout.
//!
//! Per window the table reports the **waste share** (requests spent inside
//! the hazard subspace, against the `HazardReport` ground truth), the
//! **clean-subset coverage** (distinct clean URLs fetched, relative to an
//! exhaustive hazard-free crawl of the same site), the per-reason abandon
//! counters (`timeout`, `retries_exhausted`) and the simulated makespan.
//! A separate blackout drill crawls the same site under a 100 % hard
//! outage to exercise the per-host circuit breaker and report how many
//! frontier URLs the quarantine abandoned at zero simulated cost.

use crate::experiments::pipeline::{latency_politeness, WINDOWS};
use crate::setup::EvalConfig;
use crate::tables::{markdown, write_csv, write_text};
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{Budget, CrawlConfig, CrawlOutcome, CrawlSession, EventLog, OwnedEvent};
use sb_httpsim::{HazardPolicy, Outage, PipelinedTransport, RetryPolicy, SiteServer, TailLatency};
use sb_webgraph::gen::hazard::{apply_hazards, HazardReport, HazardSpec};
use sb_webgraph::gen::{build_site, SiteSpec};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::Website;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Share of URLs taken out by the hard 503 outage.
const OUTAGE: f64 = 0.08;

/// The retry policy under test: two retries behind a jittered capped
/// exponential backoff — enough to ride out heavy-tail timeouts, never
/// enough for the hard outage (which must land in `retries_exhausted`).
fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy::retries(2).with_backoff(0.5, 8.0).with_jitter(0.2, seed)
}

/// Heavy-tailed latency behind a transport timeout: most requests are
/// unaffected, the Pareto tail occasionally blows past the deadline and
/// only repeated bad draws exhaust the retries.
fn tail_hazard() -> HazardPolicy {
    HazardPolicy::seeded(17)
        .with_tail(TailLatency { prob: 0.25, scale_secs: 6.0, alpha: 1.2 })
        .with_timeout(8.0)
}

struct HostileRun {
    outcome: CrawlOutcome,
    /// Distinct clean (non-hazard) URLs fetched.
    clean_urls: usize,
    /// Requests answered inside the hazard subspace.
    waste: u64,
}

fn crawl_hostile(
    site: &Arc<Website>,
    report: &HazardReport,
    window: usize,
    budget: Budget,
    outage: f64,
    tail: bool,
) -> HostileRun {
    let root = site.page(site.root()).url.clone();
    let origin = SiteServer::shared(Arc::clone(site));
    let hazards = if tail { tail_hazard() } else { HazardPolicy::default() };
    let outage = Outage { share: outage, seed: 29, transient: false, exempt: Some(root.clone()) };
    let transport = PipelinedTransport::new(&origin, MimePolicy::default(), latency_politeness())
        .with_window(window)
        .with_retry_policy(retry_policy(window as u64))
        .with_hazards(hazards.with_outage(outage));
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig { budget, max_in_flight: window, seed: 7, ..Default::default() };
    let mut log = EventLog::new();
    let outcome =
        CrawlSession::with_transport(Box::new(transport), None, &root, &mut bfs, &cfg)
            .expect("generated roots are valid")
            .observe(&mut log)
            .run();
    let mut clean = BTreeSet::new();
    let mut waste = 0u64;
    for e in log.events() {
        if let OwnedEvent::Fetched { url, .. } = e {
            if report.is_hazard_url(url) {
                waste += 1;
            } else {
                clean.insert(url.clone());
            }
        }
    }
    HostileRun { outcome, clean_urls: clean.len(), waste }
}

pub fn run(cfg: &EvalConfig) -> String {
    // Same scale ladder as the pipeline experiment: `--scale 0.01` is the
    // 4 000-page bench site, verify smokes shrink it via `--scale`.
    let n_pages = ((cfg.scale * 400_000.0) as usize).clamp(200, 40_000);
    let mut hazy = build_site(&SiteSpec::demo(n_pages), 42);
    let clean_site = Arc::new(hazy.clone());
    let report = apply_hazards(&mut hazy, &HazardSpec::scaled(n_pages), 7);
    let site = Arc::new(hazy);

    // Hazard-free coverage baseline: an exhaustive crawl of the same site
    // with no outage and no trap bait ever followed (clean URLs only).
    let clean_total =
        crawl_hostile(&clean_site, &report, 16, Budget::Unlimited, 0.0, false).clean_urls.max(1);
    drop(clean_site);

    struct Row {
        window: usize,
        requests: u64,
        waste_pct: f64,
        coverage_pct: f64,
        timeouts: u64,
        retries_exhausted: u64,
        makespan_secs: f64,
    }
    let budget = Budget::Requests(n_pages as u64);
    let rows: Vec<Row> = crate::runner::par_map(&WINDOWS, cfg.jobs, |&window| {
        let r = crawl_hostile(&site, &report, window, budget, OUTAGE, true);
        let requests = r.outcome.traffic.requests();
        Row {
            window,
            requests,
            waste_pct: 100.0 * r.waste as f64 / requests.max(1) as f64,
            coverage_pct: 100.0 * r.clean_urls as f64 / clean_total as f64,
            timeouts: r.outcome.abandoned.timeout,
            retries_exhausted: r.outcome.abandoned.retries_exhausted,
            makespan_secs: r.outcome.traffic.elapsed_secs,
        }
    });

    // Blackout drill: every URL but the root fails hard; the circuit
    // breaker must quarantine the host and drain the frontier at zero cost.
    let drill = {
        let root = site.page(site.root()).url.clone();
        let origin = SiteServer::shared(Arc::clone(&site));
        let blackout = Outage { share: 1.0, seed: 3, transient: false, exempt: Some(root.clone()) };
        let transport =
            PipelinedTransport::new(&origin, MimePolicy::default(), latency_politeness())
                .with_window(4)
                .with_retry_policy(RetryPolicy::retries(1).with_quarantine_after(3))
                .with_hazards(HazardPolicy::default().with_outage(blackout));
        let mut bfs = QueueStrategy::bfs();
        let dcfg = CrawlConfig { budget, max_in_flight: 4, seed: 7, ..Default::default() };
        CrawlSession::with_transport(Box::new(transport), None, &root, &mut bfs, &dcfg)
            .expect("generated roots are valid")
            .run()
    };

    let headers: Vec<String> = [
        "In-flight",
        "Requests",
        "Waste %",
        "Clean coverage %",
        "Timeouts",
        "Retries exhausted",
        "Sim. makespan (h)",
    ]
    .map(String::from)
    .to_vec();
    let mut md_rows = Vec::new();
    let mut csv_rows = Vec::new();
    for r in &rows {
        md_rows.push(vec![
            r.window.to_string(),
            r.requests.to_string(),
            format!("{:.1}", r.waste_pct),
            format!("{:.1}", r.coverage_pct),
            r.timeouts.to_string(),
            r.retries_exhausted.to_string(),
            format!("{:.2}", r.makespan_secs / 3600.0),
        ]);
        csv_rows.push(vec![
            r.window.to_string(),
            r.requests.to_string(),
            format!("{:.4}", r.waste_pct),
            format!("{:.4}", r.coverage_pct),
            r.timeouts.to_string(),
            r.retries_exhausted.to_string(),
            format!("{:.4}", r.makespan_secs),
        ]);
    }
    let _ = write_csv(
        &cfg.out_dir.join("hostile.csv"),
        &[
            "in_flight",
            "requests",
            "waste_pct",
            "clean_coverage_pct",
            "timeouts",
            "retries_exhausted",
            "sim_makespan_secs",
        ]
        .map(String::from),
        &csv_rows,
    );

    let worst_waste = rows.iter().map(|r| r.waste_pct).fold(0.0f64, f64::max);
    let summary = format!(
        "{n_pages}-page site with the full hazard overlay ({} hazard URLs), {:.0} % hard outage, \
         heavy-tail latency behind an 8 s timeout: waste stays ≤ {worst_waste:.1} % of the budget \
         across windows. Blackout drill: the circuit breaker quarantined the host after \
         {} requests and drained {} frontier URLs at zero simulated cost.",
        report.len(),
        OUTAGE * 100.0,
        drill.traffic.requests(),
        drill.abandoned.quarantined,
    );
    let report_md = format!(
        "## Hostile — trap-laced site, retry/backoff transport (bounded waste)\n\n{}\n\n{}\n",
        markdown(&headers, &md_rows),
        summary,
    );
    let _ = write_text(&cfg.out_dir.join("hostile.md"), &report_md);
    report_md
}
