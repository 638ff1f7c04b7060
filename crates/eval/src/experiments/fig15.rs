//! Figure 15 — early-stopping visualisation on `in` and `ju`: the target
//! curve plus the iteration where the stopping rule cut the crawl.

use super::{campaign, scaled_early_stop};
use crate::setup::EvalConfig;
use crate::tables::{write_csv, write_text};
use sb_crawler::EarlyStopConfig;

pub const FIG15_CODES: [&str; 2] = ["in", "ju"];

pub fn run(cfg: &EvalConfig) -> String {
    let c = campaign(cfg);
    let mut md = String::from("## Figure 15 — early-stopping cut points (Sec 4.8)\n\n");
    let es_cfg = scaled_early_stop(cfg.scale);
    md.push_str(&format!(
        "Parameters: ν={}, ε={}, γ={}, κ={}\n\n",
        es_cfg.nu, EarlyStopConfig::EPSILON, EarlyStopConfig::GAMMA, es_cfg.kappa
    ));
    for code in FIG15_CODES {
        if let Some(sel) = &cfg.sites {
            if !sel.iter().any(|s| s == code) {
                continue;
            }
        }
        let Some(run) = c.early_stop_runs.iter().find(|r| r.site == code) else { continue };
        let rows: Vec<Vec<String>> = run
            .trace
            .iter()
            .map(|p| vec![p.requests.to_string(), p.targets.to_string()])
            .collect();
        write_csv(
            &cfg.out_dir.join(format!("fig15/{code}.csv")),
            &["requests", "targets"].map(String::from),
            &rows,
        )
        .expect("write fig15 csv");
        match run.early_stop_at {
            Some(t) => md.push_str(&format!(
                "* `{code}`: stopped at iteration {t} with {} targets after {} requests\n",
                run.targets, run.requests
            )),
            None => md.push_str(&format!(
                "* `{code}`: crawl ended before the stopping rule could fire ({} targets)\n",
                run.targets
            )),
        }
    }
    write_text(&cfg.out_dir.join("fig15.md"), &md).expect("write fig15.md");
    md
}
