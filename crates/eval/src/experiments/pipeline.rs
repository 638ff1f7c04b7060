//! Pipeline — the intra-site parallelism workload (PR 4): one BFS crawl of
//! a latency-simulated site (1 s politeness delay, slow simulated link, so
//! transfer time dominates) repeated with in-flight windows of 1, 4 and
//! 16. Reports per-window requests, targets and the **simulated makespan**
//! (`Traffic::elapsed_secs`, which under the pipelined transport is the
//! clock at the last completion, not the serial sum) plus the speedup over
//! the sequential window. Coverage is window-invariant — the table proves
//! it by reporting identical request/target counts per row — so the
//! speedup is pure transfer overlap inside the politeness gate's spacing.

use crate::setup::EvalConfig;
use crate::tables::{markdown, write_csv, write_text};
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{CrawlConfig, CrawlSession};
use sb_httpsim::{Politeness, SiteServer};
use sb_scale::stream_site;
use sb_webgraph::gen::{SiteSource, SiteSpec};
use std::sync::Arc;

/// In-flight windows compared (the bench suite uses the same ladder).
pub const WINDOWS: [usize; 3] = [1, 4, 16];

/// The latency-simulated wire: the 1 s politeness wait of Sec 1 plus a
/// link slow enough that a typical generated page costs several seconds of
/// transfer — the regime where pipelining pays.
pub fn latency_politeness() -> Politeness {
    Politeness { delay_secs: 1.0, bytes_per_sec: 600.0 }
}

pub fn run(cfg: &EvalConfig) -> String {
    // `--scale 0.01` (the default) crawls a 4 000-page site, matching the
    // bench suite; the verify smoke run shrinks it via `--scale`.
    let n_pages = ((cfg.scale * 400_000.0) as usize).clamp(200, 40_000);
    let site = Arc::new(stream_site(&SiteSpec::demo(n_pages), 42));
    let root = site.url(site.root()).to_owned();

    struct Row {
        window: usize,
        requests: u64,
        targets: u64,
        makespan_secs: f64,
    }
    let rows: Vec<Row> = crate::runner::par_map(&WINDOWS, cfg.jobs, |&window| {
        let server = SiteServer::from_source(site.clone());
        let mut bfs = QueueStrategy::bfs();
        let crawl_cfg = CrawlConfig {
            politeness: latency_politeness(),
            max_in_flight: window,
            seed: 7,
            ..Default::default()
        };
        let out = CrawlSession::new(&server, None, &root, &mut bfs, &crawl_cfg)
            .expect("pipeline experiment config and generated roots are valid")
            .run();
        Row {
            window,
            requests: out.traffic.requests(),
            targets: out.targets_found(),
            makespan_secs: out.traffic.elapsed_secs,
        }
    });

    // What the table claims, asserted on every run: coverage does not
    // depend on the window, and a wider window never lengthens the crawl.
    for r in &rows[1..] {
        assert_eq!(
            (r.requests, r.targets),
            (rows[0].requests, rows[0].targets),
            "window {} changed coverage (requests, targets) from window 1's",
            r.window
        );
    }
    for pair in rows.windows(2) {
        assert!(
            pair[1].makespan_secs <= pair[0].makespan_secs,
            "window {} makespan {:.4} s exceeds window {}'s {:.4} s",
            pair[1].window,
            pair[1].makespan_secs,
            pair[0].window,
            pair[0].makespan_secs
        );
    }

    let serial = rows[0].makespan_secs;
    let headers: Vec<String> =
        ["In-flight", "Requests", "Targets", "Sim. makespan (h)", "Speedup"]
            .map(String::from)
            .to_vec();
    let mut md_rows = Vec::new();
    let mut csv_rows = Vec::new();
    for r in &rows {
        md_rows.push(vec![
            r.window.to_string(),
            r.requests.to_string(),
            r.targets.to_string(),
            format!("{:.2}", r.makespan_secs / 3600.0),
            format!("{:.2}×", serial / r.makespan_secs),
        ]);
        csv_rows.push(vec![
            r.window.to_string(),
            r.requests.to_string(),
            r.targets.to_string(),
            format!("{:.4}", r.makespan_secs),
            format!("{:.4}", serial / r.makespan_secs),
        ]);
    }
    let _ = write_csv(
        &cfg.out_dir.join("pipeline.csv"),
        &["in_flight", "requests", "targets", "sim_makespan_secs", "speedup"].map(String::from),
        &csv_rows,
    );

    let widest = rows.last().expect("windows is non-empty");
    let summary = format!(
        "{n_pages}-page latency-simulated site, BFS to exhaustion: window 1 takes {:.1}h \
         simulated; window {} takes {:.1}h ({:.2}× makespan improvement, identical coverage: \
         {} requests / {} targets per row)",
        serial / 3600.0,
        widest.window,
        widest.makespan_secs / 3600.0,
        serial / widest.makespan_secs,
        widest.requests,
        widest.targets,
    );
    let report = format!(
        "## Pipeline — intra-site parallel fetch (nonblocking transport, politeness-gated)\n\n{}\n\n{}\n",
        markdown(&headers, &md_rows),
        summary,
    );
    let _ = write_text(&cfg.out_dir.join("pipeline.md"), &report);
    report
}
