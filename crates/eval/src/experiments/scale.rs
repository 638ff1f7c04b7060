//! Scale — the memory-bounded crawl ladder (PR 7): BFS to exhaustion over
//! 10k / 100k page streaming sites, with every
//! unbounded structure swapped for its `sb_scale` counterpart — streaming
//! site behind the server, frontier spilling to a temp file,
//! fingerprint-compacted visited set. Records the session's own memory
//! gauges at their peaks, proving the in-memory footprint stays bounded
//! while coverage stays *byte-identical* to the unbounded frontier and
//! visited set (checked outright on the 10k rung; the two site stores are
//! held equal by `sb-scale`'s tests). Every column is a function of the
//! rung alone; wall-clock and peak RSS are `benchmark/`'s (`scale_stream`).
//!
//! Rungs: `[10k]` under `--scale < 0.01` (the verify smoke), `[10k, 100k]`
//! otherwise.

use crate::setup::EvalConfig;
use crate::tables::{markdown, write_csv, write_text};
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{CrawlConfig, CrawlSession, MemGauges};
use sb_httpsim::SiteServer;
use sb_scale::{stream_site, SpillBacking};
use sb_webgraph::gen::{SiteSource, SiteSpec};
use std::sync::Arc;

/// In-memory frontier cap: ids beyond this spill to the arena. Sized well
/// under the ~4k peak BFS frontier of the 10k-page rung so every rung
/// actually exercises the spill path.
pub const FRONTIER_CAP: usize = 1024;
/// Visited-set compaction threshold: URLs past this are fingerprints.
pub const VISITED_THRESHOLD: usize = 4096;

struct Rung {
    pages: usize,
    crawled: u64,
    targets: u64,
    peak: MemGauges,
    spill_observed: bool,
    site_static_kb: u64,
}

fn crawl_rung(pages: usize) -> Rung {
    let spec = SiteSpec::demo(pages);
    let site = Arc::new(stream_site(&spec, 42));
    let site_static_kb = site.static_bytes() / 1024;
    let root = site.url(site.root()).to_owned();
    let server = SiteServer::from_source(site);
    let mut bfs = QueueStrategy::bfs_spilling(FRONTIER_CAP, SpillBacking::Disk);
    let cfg = CrawlConfig {
        compact_visited_threshold: VISITED_THRESHOLD,
        ..Default::default()
    };
    let mut session =
        CrawlSession::new(&server, None, &root, &mut bfs, &cfg).expect("generated root is valid");

    let mut peak = MemGauges::default();
    let mut spill_observed = false;
    while !session.is_finished() {
        let report = session.step();
        let m = report.mem;
        peak.visited_urls = peak.visited_urls.max(m.visited_urls);
        peak.visited_bytes = peak.visited_bytes.max(m.visited_bytes);
        peak.visited_collisions = peak.visited_collisions.max(m.visited_collisions);
        peak.frontier_len = peak.frontier_len.max(m.frontier_len);
        peak.frontier_spilled = peak.frontier_spilled.max(m.frontier_spilled);
        spill_observed |= m.frontier_spilled > 0;
    }
    let out = session.finish();
    Rung {
        pages,
        crawled: out.pages_crawled,
        targets: out.targets_found(),
        peak,
        spill_observed,
        site_static_kb,
    }
}

/// Byte-identity pin for the smallest rung: the bounded engine (spilling
/// frontier + compact visited) must produce exactly the trace, targets and
/// traffic of the unbounded one over the same site.
fn verify_identical(pages: usize) -> String {
    let site = Arc::new(stream_site(&SiteSpec::demo(pages), 42));
    let root = site.url(site.root()).to_owned();

    let server = SiteServer::from_source(site.clone());
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig::default();
    let reference = CrawlSession::new(&server, None, &root, &mut bfs, &cfg)
        .expect("valid root")
        .run();

    let lazy_server = SiteServer::from_source(site);
    let mut bounded_bfs = QueueStrategy::bfs_spilling(FRONTIER_CAP, SpillBacking::Disk);
    let bounded_cfg = CrawlConfig {
        compact_visited_threshold: VISITED_THRESHOLD,
        ..Default::default()
    };
    let bounded = CrawlSession::new(&lazy_server, None, &root, &mut bounded_bfs, &bounded_cfg)
        .expect("valid root")
        .run();

    assert_eq!(
        reference.trace.points(),
        bounded.trace.points(),
        "bounded engine diverged from the unbounded reference at {pages} pages"
    );
    assert_eq!(reference.traffic, bounded.traffic, "traffic diverged");
    let urls = |o: &sb_crawler::CrawlOutcome| {
        o.targets.iter().map(|t| t.url.clone()).collect::<Vec<_>>()
    };
    assert_eq!(urls(&reference), urls(&bounded), "target sets diverged");
    format!(
        "coverage verified byte-identical to the unbounded engine at {pages} pages \
         ({} requests, {} targets)",
        reference.traffic.requests(),
        reference.targets_found()
    )
}

pub fn run(cfg: &EvalConfig) -> String {
    let rung_sizes = if cfg.scale < 0.01 { vec![10_000] } else { vec![10_000, 100_000] };

    let rungs: Vec<Rung> = rung_sizes.iter().map(|&n| crawl_rung(n)).collect();
    let identity = verify_identical(rung_sizes[0]);

    for r in &rungs {
        // The ladder's contract: the in-memory frontier stays near its cap
        // (cap + one spill chunk of slack) no matter the site size, and the
        // exact portion of the visited set stays at its threshold.
        let in_mem = r.peak.frontier_len - r.peak.frontier_spilled;
        assert!(
            in_mem <= FRONTIER_CAP + FRONTIER_CAP / 2,
            "{} pages: {} frontier ids in memory exceeds cap {}",
            r.pages,
            in_mem,
            FRONTIER_CAP
        );
        if r.pages > FRONTIER_CAP {
            assert!(r.spill_observed, "{} pages crawled without ever spilling", r.pages);
        }
    }

    let headers: Vec<String> = [
        "Pages", "Crawled", "Targets", "Site static (MB)", "Peak frontier", "…spilled",
        "Visited (MB est.)",
    ]
    .map(String::from)
    .to_vec();
    let mut md_rows = Vec::new();
    let mut csv_rows = Vec::new();
    for r in &rungs {
        md_rows.push(vec![
            r.pages.to_string(),
            r.crawled.to_string(),
            r.targets.to_string(),
            format!("{:.1}", r.site_static_kb as f64 / 1024.0),
            r.peak.frontier_len.to_string(),
            r.peak.frontier_spilled.to_string(),
            format!("{:.2}", r.peak.visited_bytes as f64 / (1024.0 * 1024.0)),
        ]);
        csv_rows.push(vec![
            r.pages.to_string(),
            r.crawled.to_string(),
            r.targets.to_string(),
            r.site_static_kb.to_string(),
            r.peak.frontier_len.to_string(),
            r.peak.frontier_spilled.to_string(),
            r.peak.visited_bytes.to_string(),
            r.peak.visited_urls.to_string(),
            r.peak.visited_collisions.to_string(),
        ]);
    }
    let _ = write_csv(
        &cfg.out_dir.join("scale.csv"),
        &[
            "pages", "crawled", "targets", "site_static_kb", "peak_frontier_len",
            "peak_frontier_spilled", "peak_visited_bytes", "visited_urls", "visited_collisions",
        ]
        .map(String::from),
        &csv_rows,
    );

    let last = rungs.last().expect("at least one rung");
    let summary = format!(
        "memory-bounded BFS ladder (frontier cap {FRONTIER_CAP}, visited threshold \
         {VISITED_THRESHOLD}): {} pages, peak in-memory frontier {} ids \
         ({} spilled), visited ≈{:.1} MB; {}",
        last.pages,
        last.peak.frontier_len - last.peak.frontier_spilled,
        last.peak.frontier_spilled,
        last.peak.visited_bytes as f64 / (1024.0 * 1024.0),
        identity,
    );
    let report = format!(
        "## Scale — memory-bounded crawl ladder (streaming site, spillable frontier, \
         fingerprint visited set)\n\n{}\n\n{}\n",
        markdown(&headers, &md_rows),
        summary,
    );
    let _ = write_text(&cfg.out_dir.join("scale.md"), &report);
    report
}
