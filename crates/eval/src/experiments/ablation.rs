//! Bandit-family ablation (the extended version's Appendix C discussion):
//! the paper keeps AUER and rejects ε-greedy and Thompson sampling for
//! *stability* (same output across runs on a static site) and missing
//! priors. This experiment runs the real SB-ORACLE crawler with each arm-
//! selection family on the fully-crawled profiles and reports both the
//! Table 2 metric and a run-to-run stability measure (the STD of req90
//! across seeds — AUER's selections are deterministic, so its spread
//! reflects only tie-breaking and link sampling).

use crate::metrics::req90_pct;
use crate::runner::{mean_or_inf, par_map, RunOpts};
use crate::setup::{build_site_for, reference, run_crawler, CrawlerKind, EvalConfig, SbTuning};
use crate::tables::{fmt_pct, markdown, write_csv, write_text};
use sb_bandit::{Policy, ALPHA_DEFAULT};

/// The four policy families of the appendix discussion.
pub fn bandit_variants() -> Vec<(String, Policy)> {
    vec![
        ("AUER (paper)".to_owned(), Policy::Auer { alpha: ALPHA_DEFAULT }),
        ("UCB1".to_owned(), Policy::Ucb1 { alpha: ALPHA_DEFAULT }),
        ("ε-greedy (0.1)".to_owned(), Policy::EpsilonGreedy { epsilon: 0.1 }),
        ("Thompson".to_owned(), Policy::Thompson { sigma: 1.0 }),
    ]
}

/// Sites used: small, medium and sectioned profiles keep this quick while
/// exercising different reward landscapes.
pub const ABLATION_SITES: [&str; 3] = ["cl", "ju", "nc"];

pub fn run(cfg: &EvalConfig) -> String {
    let mut md = String::from(
        "## Ablation — bandit family inside SB-ORACLE (extended version, Appendix C)\n\n\
         req90 = % of requests to reach 90 % of targets (mean over seeds; lower is\n\
         better); ± is the across-seed STD, the stability the paper selects AUER for.\n\n",
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for code in ABLATION_SITES {
        if cfg.sites.as_ref().is_some_and(|s| !s.iter().any(|x| x == code)) {
            continue;
        }
        let site = build_site_for(cfg, code);
        let site_ref = reference(cfg, code);
        for (label, choice) in bandit_variants() {
            let tuning = SbTuning { bandit: choice, ..SbTuning::default() };
            let seeds: Vec<u64> = (0..cfg.seeds.max(2)).collect();
            let metrics = par_map(&seeds, cfg.jobs, |&seed| {
                let opts = RunOpts { scale: cfg.scale, sb: tuning.clone(), ..Default::default() };
                let out = run_crawler(&site, CrawlerKind::SbOracle, seed, &opts);
                req90_pct(&out, &site_ref)
            });
            let mean = mean_or_inf(&metrics);
            let finite: Vec<f64> = metrics.iter().flatten().copied().collect();
            let std = if finite.len() > 1 {
                let m = finite.iter().sum::<f64>() / finite.len() as f64;
                (finite.iter().map(|x| (x - m).powi(2)).sum::<f64>() / finite.len() as f64).sqrt()
            } else {
                0.0
            };
            rows.push(vec![
                code.to_owned(),
                label.clone(),
                fmt_pct(mean),
                format!("±{std:.1}"),
            ]);
            csv.push(vec![
                code.to_owned(),
                label,
                mean.map_or(String::new(), |m| format!("{m:.3}")),
                format!("{std:.4}"),
            ]);
        }
    }
    let headers: Vec<String> = ["site", "bandit", "req90 (%)", "spread"].map(String::from).to_vec();
    md.push_str(&markdown(&headers, &rows));
    write_csv(
        &cfg.out_dir.join("ablation_bandit.csv"),
        &["site", "bandit", "req90", "std"].map(String::from),
        &csv,
    )
    .expect("write ablation csv");
    write_text(&cfg.out_dir.join("ablation_bandit.md"), &md).expect("write ablation md");
    md
}
