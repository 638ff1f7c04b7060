//! Table 1 — main characteristics of the 18 websites, regenerated by a
//! census of each scaled synthetic profile. The printed "paper" columns are
//! the published values for eyeballing the calibration.

use crate::setup::{build_site_for, EvalConfig};
use crate::tables::{fmt_pm, markdown, write_csv};
use sb_webgraph::gen::SiteSource;

pub fn run(cfg: &EvalConfig) -> String {
    let profiles = cfg.selected_profiles();
    let headers: Vec<String> = [
        "Site", "Mlg.", "F.C.", "#Available", "#Target", "Tgt% (paper)", "HTML to T. (%)",
        "paper", "Target Size (MB)", "paper", "Target Depth", "paper",
    ]
    .map(String::from)
    .to_vec();
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for p in &profiles {
        let site = build_site_for(cfg, p.code);
        let c = site.census();
        let tgt_pct = 100.0 * c.targets as f64 / c.available.max(1) as f64;
        rows.push(vec![
            p.code.to_owned(),
            if p.multilingual { "✓" } else { "✗" }.to_owned(),
            if p.fully_crawled { "✓" } else { "✗" }.to_owned(),
            c.available.to_string(),
            c.targets.to_string(),
            format!("{:.1} ({:.1})", tgt_pct, p.target_frac * 100.0),
            format!("{:.2}", c.html_to_target_pct),
            format!("{:.2}", p.html_to_target_frac * 100.0),
            fmt_pm(c.target_size_mb),
            fmt_pm(p.target_size_mb),
            fmt_pm(c.target_depth),
            fmt_pm(p.target_depth),
        ]);
        csv_rows.push(vec![
            p.code.to_owned(),
            c.available.to_string(),
            c.targets.to_string(),
            format!("{:.4}", c.html_to_target_pct),
            format!("{:.4}", c.target_size_mb.0),
            format!("{:.4}", c.target_size_mb.1),
            format!("{:.4}", c.target_depth.0),
            format!("{:.4}", c.target_depth.1),
        ]);
    }
    write_csv(
        &cfg.out_dir.join("table1.csv"),
        &["site", "available", "targets", "html_to_t_pct", "size_mb_mean", "size_mb_std", "depth_mean", "depth_std"]
            .map(String::from),
        &csv_rows,
    )
    .expect("write table1.csv");
    let md = format!(
        "## Table 1 — site census at scale {} (paper values in parentheses / paper columns)\n\n{}",
        cfg.scale,
        markdown(&headers, &rows)
    );
    crate::tables::write_text(&cfg.out_dir.join("table1.md"), &md).expect("write table1.md");
    md
}
