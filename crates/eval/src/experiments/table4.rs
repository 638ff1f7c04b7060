//! Table 4 and Figures 8–13 — the hyper-parameter study on the
//! fully-crawled sites: α ∈ {0.1, 2√2, 30}, n ∈ {1, 2, 3},
//! θ ∈ {0.55, 0.75, 0.95}, run with SB-ORACLE exactly as in the paper.
//! The θ = 0.95 action-space explosion (the paper's OOM on `ed`) is caught
//! by the `max_actions` guard and printed as `OOM`.

use super::RunSummary;
use crate::metrics::{req90_pct, vol90_pct};
use crate::runner::{mean_or_inf, par_map, RunOpts};
use crate::setup::{build_site_for, reference, run_crawler, CrawlerKind, EvalConfig, SbTuning};
use crate::tables::{fmt_pct, markdown, write_csv, write_text};
use sb_bandit::{Policy, ALPHA_DEFAULT};
use sb_webgraph::gen::profiles::fully_crawled_codes;

/// One studied variant.
#[derive(Debug, Clone)]
pub struct Variant {
    pub label: String,
    pub tuning: SbTuning,
}

/// The paper's three sweeps.
pub fn variants() -> Vec<(String, Vec<Variant>)> {
    let base = SbTuning::default;
    let mk = |label: &str, f: &dyn Fn(&mut SbTuning)| {
        let mut t = base();
        f(&mut t);
        Variant { label: label.to_owned(), tuning: t }
    };
    vec![
        (
            "alpha".to_owned(),
            vec![
                mk("α=0.1", &|t| t.bandit = Policy::Auer { alpha: 0.1 }),
                mk("α=2√2", &|t| t.bandit = Policy::Auer { alpha: ALPHA_DEFAULT }),
                mk("α=30", &|t| t.bandit = Policy::Auer { alpha: 30.0 }),
            ],
        ),
        (
            "ngram".to_owned(),
            vec![
                mk("n=1", &|t| t.ngram = 1),
                mk("n=2", &|t| t.ngram = 2),
                mk("n=3", &|t| t.ngram = 3),
            ],
        ),
        (
            "theta".to_owned(),
            vec![
                mk("θ=0.55", &|t| t.theta = 0.55),
                mk("θ=0.75", &|t| t.theta = 0.75),
                mk("θ=0.95", &|t| t.theta = 0.95),
            ],
        ),
    ]
}

struct Cell {
    req90: Option<f64>,
    vol90: Option<f64>,
    oom: bool,
}

fn run_variant(cfg: &EvalConfig, code: &str, tuning: &SbTuning) -> (Cell, Vec<RunSummary>) {
    let site = build_site_for(cfg, code);
    let site_ref = reference(cfg, code);
    // The memory guard: the paper's θ = 0.95 OOM on `ed` came from "creating
    // as many actions as HTML pages". A healthy clustering stays within a few
    // dozen actions regardless of site size (one per tag-path template), so
    // an action count growing like the page count — more than ~1/8 of the
    // site at our scales — is the OOM regime. The nearest-centroid scan is
    // exact, so the count the cap sees is distinct clusters only: a tag path
    // within θ of an existing centroid always joins it.
    let mut tuning = tuning.clone();
    tuning.max_actions = Some((site_ref.available / 8).max(64));
    let seeds: Vec<u64> = (0..cfg.seeds).collect();
    let outs = par_map(&seeds, cfg.jobs, |&seed| {
        let opts = RunOpts { scale: cfg.scale, sb: tuning.clone(), ..Default::default() };
        let out = run_crawler(&site, CrawlerKind::SbOracle, seed, &opts);
        (
            req90_pct(&out, &site_ref),
            vol90_pct(&out, &site_ref),
            out.aborted_oom,
            super::summarize(code, CrawlerKind::SbOracle, seed, out, &site_ref),
        )
    });
    let oom = outs.iter().any(|(_, _, o, _)| *o);
    let cell = Cell {
        req90: mean_or_inf(&outs.iter().map(|(r, _, _, _)| *r).collect::<Vec<_>>()),
        vol90: mean_or_inf(&outs.iter().map(|(_, v, _, _)| *v).collect::<Vec<_>>()),
        oom,
    };
    (cell, outs.into_iter().map(|(_, _, _, s)| s).collect())
}

pub fn run(cfg: &EvalConfig) -> String {
    let codes: Vec<&str> = fully_crawled_codes()
        .into_iter()
        .filter(|c| match &cfg.sites {
            Some(sel) => sel.iter().any(|s| s == c),
            None => true,
        })
        .collect();
    let mut md = String::from("## Table 4 — hyper-parameter study (SB-ORACLE, fully-crawled sites)\n");
    md.push_str("Cells are `req90 | vol90` percentages; `OOM` marks an action-space explosion.\n\n");
    let mut headers = vec!["Variant".to_owned()];
    headers.extend(codes.iter().map(|c| (*c).to_owned()));

    for (sweep, vs) in variants() {
        let mut rows = Vec::new();
        let mut csv_rows = Vec::new();
        for v in &vs {
            let mut row = vec![v.label.clone()];
            let mut csv_row = vec![v.label.clone()];
            for code in &codes {
                let (cell, summaries) = run_variant(cfg, code, &v.tuning);
                let text = if cell.oom {
                    "OOM | OOM".to_owned()
                } else {
                    format!("{} | {}", fmt_pct(cell.req90), fmt_pct(cell.vol90))
                };
                csv_row.push(text.clone());
                row.push(text);
                // Figures 8–13: per-variant curves.
                let fig_rows: Vec<Vec<String>> = summaries
                    .first()
                    .map(|s| {
                        s.trace
                            .iter()
                            .map(|p| {
                                vec![
                                    p.requests.to_string(),
                                    p.targets.to_string(),
                                    format!("{:.6}", p.target_bytes as f64 / 1e9),
                                    format!("{:.6}", p.non_target_bytes as f64 / 1e9),
                                ]
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                write_csv(
                    &cfg.out_dir.join(format!("fig_hyper_{sweep}/{code}_{}.csv", v.label.replace(['√', '='], "_"))),
                    &["requests", "targets", "target_gb", "non_target_gb"].map(String::from),
                    &fig_rows,
                )
                .expect("write hyper fig csv");
            }
            rows.push(row);
            csv_rows.push(csv_row);
        }
        md.push_str(&format!("\n### Sweep: {sweep}\n\n{}", markdown(&headers, &rows)));
        write_csv(&cfg.out_dir.join(format!("table4_{sweep}.csv")), &headers, &csv_rows)
            .expect("write table4 csv");
    }
    write_text(&cfg.out_dir.join("table4.md"), &md).expect("write table4.md");
    md
}
