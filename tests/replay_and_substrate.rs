//! Cross-crate substrate tests: the MIME policy plumbing, and the
//! NP-hardness module working over the same graph types the crawler uses.

use sbcrawl::crawler::{crawl, CrawlConfig};
use sbcrawl::crawler::strategies::QueueStrategy;
use sbcrawl::httpsim::SiteServer;
use sbcrawl::webgraph::complexity::{
    crawl_budget_for_cover_budget, min_crawl_cost, min_set_cover, reduce_set_cover,
    SetCoverInstance,
};
use sbcrawl::webgraph::{build_site, SiteSource, SiteSpec};

/// A PDF-only policy retrieves exactly the PDFs (custom target MIME lists,
/// Sec 2.2).
#[test]
fn custom_mime_policy_restricts_targets() {
    use sbcrawl::webgraph::{MimePolicy, PageKind};
    let site = build_site(&SiteSpec::demo(400), 2);
    let n_pdfs = site
        .pages()
        .iter()
        .filter(|p| matches!(&p.kind, PageKind::Target { mime, .. } if *mime == "application/pdf"))
        .count() as u64;
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);
    let mut bfs = QueueStrategy::bfs();
    let cfg = CrawlConfig {
        policy: MimePolicy::with_targets(["application/pdf"]),
        ..Default::default()
    };
    let out = crawl(&server, None, &root, &mut bfs, &cfg);
    assert_eq!(out.targets_found(), n_pdfs);
    assert!(out.targets.iter().all(|t| t.mime == "application/pdf"));
}

/// Prop 4 at integration level: reduce, solve exactly, verify the budget
/// arithmetic — over the same `WebsiteGraph` type the rest of the repo uses.
#[test]
fn prop4_reduction_roundtrip() {
    let inst = SetCoverInstance::new(
        7,
        vec![vec![0, 1, 2, 3], vec![3, 4], vec![4, 5, 6], vec![0, 6], vec![1, 4, 5]],
    );
    let b_star = min_set_cover(&inst);
    let red = reduce_set_cover(&inst);
    let c_star = min_crawl_cost(&red.graph, &red.targets).expect("targets reachable");
    assert_eq!(c_star, crawl_budget_for_cover_budget(&inst, b_star));
}

/// Interrupted downloads (blocked MIME) keep the crawl sound: every real
/// target still found, multimedia never stored.
#[test]
fn blocked_mime_never_reaches_storage() {
    let site = build_site(&SiteSpec::demo(300), 3);
    let total = site.census().targets;
    let root = site.page(site.root()).url.clone();
    let server = SiteServer::new(site);
    let mut bfs = QueueStrategy::bfs();
    let out = crawl(&server, None, &root, &mut bfs, &CrawlConfig { keep_target_bodies: true, ..Default::default() });
    assert_eq!(out.targets_found() as usize, total);
    assert!(out
        .targets
        .iter()
        .all(|t| !t.mime.starts_with("image/") && !t.mime.starts_with("video/")));
}
