//! Custom target definitions: the paper's target set is "data files", but
//! Sec 2.2 notes *any* MIME list works. Here we hunt PDFs only, with a
//! custom blocklist, and compare against the default 38-type policy.
//!
//! ```sh
//! cargo run --release --example custom_targets
//! ```

use sbcrawl::crawler::{crawl, CrawlConfig};
use sbcrawl::crawler::strategies::SbStrategy;
use sbcrawl::httpsim::SiteServer;
use sbcrawl::webgraph::{build_site, MimePolicy, PageKind, SiteSpec};

fn main() {
    let spec = SiteSpec::demo(800);
    let site = build_site(&spec, 5);
    let pdf_ground_truth = site
        .pages()
        .iter()
        .filter(|p| matches!(&p.kind, PageKind::Target { mime, .. } if *mime == "application/pdf"))
        .count();
    let all_targets = site.n_targets();
    println!("site has {all_targets} data files, of which {pdf_ground_truth} PDFs\n");

    let root = site.page(site.root()).url.clone();

    // Default policy: all 38 target MIME types of the paper's appendix.
    let server = SiteServer::new(site.clone());
    let mut sb = SbStrategy::classifier_default();
    let out = crawl(&server, None, &root, &mut sb, &CrawlConfig::default());
    println!("default policy:  {} targets retrieved", out.targets_found());

    // PDF-only policy, and don't even download spreadsheets by blocking
    // their extensions outright (saves requests before classification).
    let pdf_policy = MimePolicy::with_targets(["application/pdf", "application/x-pdf"])
        .with_blocked_extensions([
            // multimedia as usual…
            "png", "jpg", "jpeg", "gif", "svg", "mp3", "mp4",
            // …plus everything tabular we don't want today:
            "csv", "tsv", "xls", "xlsx", "ods", "zip", "gz", "json", "yaml",
        ]);
    let server = SiteServer::new(site.clone());
    let mut sb = SbStrategy::classifier_default();
    let cfg = CrawlConfig { policy: pdf_policy, ..Default::default() };
    let out_pdf = crawl(&server, None, &root, &mut sb, &cfg);
    println!(
        "pdf-only policy: {} targets retrieved ({} exist), {:.0}% of the default policy's volume",
        out_pdf.targets_found(),
        pdf_ground_truth,
        100.0 * out_pdf.traffic.target_bytes as f64 / out.traffic.target_bytes.max(1) as f64
    );
}
