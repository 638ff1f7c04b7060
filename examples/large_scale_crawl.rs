//! Memory-bounded crawling at scale (PR 7).
//!
//! The paper's experiments crawl ~4k-page sites, where keeping everything
//! in memory — every rendered body, every frontier id, a fully parsed URL
//! per visited entry — is free. At the 10⁵–10⁶ pages of a pretraining-data
//! acquisition crawl it is not. This example crawls a **100 000-page**
//! generated site with every unbounded structure swapped for its
//! `sb_scale` counterpart:
//!
//! * the server is backed by a [`StreamingSite`] — same deterministic
//!   graph as the eager `Website` (byte-identical pages, pinned by
//!   proptest), but packed into dense arenas + CSR adjacency, rendering
//!   bodies on demand through a bounded FIFO cache;
//! * the BFS frontier is a spill-backed [`SpillQueue`]: at most ~4096 ids
//!   in memory, the middle of the queue parked in an unlinked temp file,
//!   pop order *exactly* FIFO;
//! * the visited set keeps full interner entries for the first 8192 URLs
//!   and 64-bit fingerprints past that, with collision accounting.
//!
//! The session's `MemGauges` (on every `StepReport`) prove the bounds
//! hold while the crawl runs — this is the same wiring the `xp scale`
//! ladder uses to record its memory-gauge table. Wall-clock and peak RSS
//! of this crawl are measured by `benchmark/` (`scale_stream`).
//!
//! Run with: `cargo run --release --example large_scale_crawl`

use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{CrawlConfig, CrawlSession};
use sb_httpsim::SiteServer;
use sb_scale::{stream_site, SpillBacking};
use sb_webgraph::gen::{SiteSource, SiteSpec};
use std::sync::Arc;

const PAGES: usize = 100_000;
const FRONTIER_CAP: usize = 4096;
const VISITED_THRESHOLD: usize = 8192;

fn main() {
    println!("== building a {PAGES}-page streaming site (packed arenas, no SitePage structs) ==");
    let site = Arc::new(
        stream_site(&SiteSpec::demo(PAGES), 42)
            // Bounded body caches: ~16 MiB of rendered HTML, whatever the
            // site size. (Budgets of u64::MAX would cache everything.)
            .with_render_cache_budget(16 << 20)
            .with_target_cache_budget(32 << 20),
    );
    println!(
        "   static footprint ≈{:.1} MB for {} pages",
        site.static_bytes() as f64 / (1024.0 * 1024.0),
        site.n_pages(),
    );

    let root = site.url(site.root()).to_owned();
    let server = SiteServer::from_source(Arc::clone(&site) as Arc<dyn SiteSource>);

    // BFS whose frontier writes fixed-size chunks to an unlinked temp file
    // past FRONTIER_CAP ids, so the process holds only the two ends of the
    // queue (SpillBacking::Memory keeps the chunks on the heap: the same
    // pop order, and no memory bound).
    let mut bfs = QueueStrategy::bfs_spilling(FRONTIER_CAP, SpillBacking::Disk);
    let cfg = CrawlConfig {
        compact_visited_threshold: VISITED_THRESHOLD,
        ..Default::default()
    };
    let mut session = CrawlSession::new(&server, None, &root, &mut bfs, &cfg)
        .expect("generated root URL is valid");

    println!("== BFS to exhaustion, memory-bounded ==");
    let mut peak_in_mem = 0usize;
    let mut peak_spilled = 0usize;
    let mut peak_visited_mb = 0.0f64;
    let mut steps = 0u64;
    while !session.is_finished() {
        let report = session.step();
        let m = report.mem;
        peak_in_mem = peak_in_mem.max(m.frontier_len - m.frontier_spilled);
        peak_spilled = peak_spilled.max(m.frontier_spilled);
        peak_visited_mb = peak_visited_mb.max(m.visited_bytes as f64 / (1024.0 * 1024.0));
        steps += 1;
        if steps % 20_000 == 0 {
            println!(
                "   step {:>7}: {:>6} targets, frontier {:>6} ({} spilled), visited {:>7} URLs ≈{:.1} MB",
                steps,
                session.targets_found(),
                m.frontier_len,
                m.frontier_spilled,
                m.visited_urls,
                m.visited_bytes as f64 / (1024.0 * 1024.0),
            );
        }
    }
    let out = session.finish();

    println!("\n== done ==");
    println!(
        "   {} pages crawled, {} targets",
        out.pages_crawled,
        out.targets_found(),
    );
    println!(
        "   peak in-memory frontier: {peak_in_mem} ids (cap {FRONTIER_CAP}); \
         peak spilled: {peak_spilled} ids"
    );
    println!(
        "   visited set peak ≈{peak_visited_mb:.1} MB for {} URLs \
         (exact entries capped at {VISITED_THRESHOLD})",
        out.pages_crawled,
    );
    assert!(
        peak_in_mem <= FRONTIER_CAP + FRONTIER_CAP / 4,
        "frontier cap violated: {peak_in_mem} ids in memory"
    );
    assert!(peak_spilled > 0, "a {PAGES}-page BFS must spill at cap {FRONTIER_CAP}");
}
