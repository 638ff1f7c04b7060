//! Table 7 — SD retrieval precision: crawl with bodies kept, sample targets
//! and run the statistics-table detector over them. The paper's human
//! annotation of 7 × 40 targets becomes a machine judgment; since the
//! generator plants the ground truth, detector precision/recall are also
//! reported (a column the paper could not have).

use crate::runner::RunOpts;
use crate::setup::{build_site_for, run_crawler, CrawlerKind, EvalConfig};
use crate::tables::{markdown, write_csv, write_text};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use sb_sdetect::detect_tables;
use sb_webgraph::gen::SiteSource;
use sb_webgraph::PageKind;

/// The seven sites sampled in the paper's Table 7.
pub const TABLE7_CODES: [&str; 7] = ["be", "ed", "is", "in", "nc", "oe", "wh"];

pub fn run(cfg: &EvalConfig) -> String {
    let codes: Vec<&str> = TABLE7_CODES
        .iter()
        .copied()
        .filter(|c| match &cfg.sites {
            Some(sel) => sel.iter().any(|s| s == c),
            None => true,
        })
        .collect();
    let mut headers = vec!["".to_owned()];
    let mut yield_row = vec!["SD Yield (%)".to_owned()];
    let mut mean_row = vec!["Mean # SDs / Target".to_owned()];
    let mut planted_row = vec!["Planted yield (%)".to_owned()];
    let mut agree_row = vec!["Detector agreement (%)".to_owned()];
    let mut csv_rows = Vec::new();

    for code in &codes {
        headers.push((*code).to_owned());
        let site = build_site_for(cfg, code);
        let opts = RunOpts { keep_bodies: true, scale: cfg.scale, ..Default::default() };
        let out = run_crawler(&site, CrawlerKind::SbClassifier, 0, &opts);

        // Sample 40 detectable-format targets (the paper's annotators
        // opened each file; archives stay out of the sample).
        let mut rng = StdRng::seed_from_u64(7 * 40);
        let mut sample: Vec<&sb_crawler::RetrievedTarget> = out
            .targets
            .iter()
            .filter(|t| {
                let body = t.body.as_deref().unwrap_or(&[]);
                sb_sdetect::detect::sniff(body, &t.mime).detectable()
            })
            .collect();
        sample.shuffle(&mut rng);
        sample.truncate(40);

        let mut with_sd = 0usize;
        let mut total_tables = 0usize;
        let mut agree = 0usize;
        for t in &sample {
            let body = t.body.as_deref().unwrap_or(&[]);
            let d = detect_tables(body, &t.mime);
            if d.has_sd() {
                with_sd += 1;
                total_tables += d.n_tables();
            }
            // Ground truth: the planted table count of this target page.
            let planted = site
                .lookup(&t.url)
                .and_then(|id| match *site.kind(id) {
                    PageKind::Target { planted_tables, .. } => Some(planted_tables),
                    _ => None,
                })
                .unwrap_or(0);
            if (planted > 0) == d.has_sd() {
                agree += 1;
            }
        }
        let n = sample.len().max(1);
        let yield_pct = 100.0 * with_sd as f64 / n as f64;
        let mean_sds = if with_sd > 0 { total_tables as f64 / with_sd as f64 } else { 0.0 };
        let agree_pct = 100.0 * agree as f64 / n as f64;
        let spec = sb_webgraph::gen::profiles::profile(code).expect("known code");
        yield_row.push(format!("{yield_pct:.0}"));
        mean_row.push(format!("{mean_sds:.1}"));
        planted_row.push(format!("{:.0}", spec.sd_yield * 100.0));
        agree_row.push(format!("{agree_pct:.0}"));
        csv_rows.push(vec![
            (*code).to_owned(),
            format!("{yield_pct:.2}"),
            format!("{mean_sds:.3}"),
            format!("{:.2}", spec.sd_yield * 100.0),
            format!("{agree_pct:.2}"),
        ]);
    }
    write_csv(
        &cfg.out_dir.join("table7.csv"),
        &["site", "sd_yield_pct", "mean_sds_per_target", "planted_yield_pct", "detector_agreement_pct"]
            .map(String::from),
        &csv_rows,
    )
    .expect("write table7 csv");
    let md = format!(
        "## Table 7 — SDs retrieved across sampled targets (40 detectable-format targets per site)\n\n{}",
        markdown(&headers, &[yield_row, mean_row, planted_row, agree_row])
    );
    write_text(&cfg.out_dir.join("table7.md"), &md).expect("write table7.md");
    md
}
