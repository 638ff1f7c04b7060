//! One module per paper experiment. Everything funnels through
//! [`campaign`], the shared site × crawler × seed run matrix, so `xp all`
//! never runs the same crawl twice.

pub mod ablation;
pub mod fig15;
pub mod fig4;
pub mod fleet;
pub mod pipeline;
pub mod quality;
pub mod revisit;
pub mod hardness;
pub mod hostile;
pub mod scale;
pub mod se;
pub mod serve;
pub mod table1;
pub mod table23;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod time;

use crate::metrics::{req90_pct, vol90_pct};
use crate::runner::{par_map, RunOpts};
use crate::setup::{
    build_site_for, memoized, reference, run_crawler, CrawlerKind, EvalConfig, Memo, SiteRef,
};
use parking_lot::Mutex;
use sb_crawler::strategy::ArmReport;
use sb_crawler::{EarlyStopConfig, FinishReason, TracePoint};
use std::collections::HashMap;
use std::sync::Arc;

/// Summary of one crawl run (traces resampled to keep memory flat).
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub crawler: CrawlerKind,
    pub site: String,
    pub seed: u64,
    pub req90: Option<f64>,
    pub vol90: Option<f64>,
    pub targets: u64,
    pub requests: u64,
    pub trace: Vec<TracePoint>,
    pub arms: Vec<ArmReport>,
    pub n_actions: usize,
    pub stopped_early: bool,
    pub early_stop_at: Option<u64>,
}

/// The shared baseline run matrix: Table 2/3 rows plus the early-stopping
/// re-runs of Sec 4.8.
pub struct Campaign {
    pub refs: HashMap<String, SiteRef>,
    pub runs: Vec<RunSummary>,
    /// SB-CLASSIFIER re-run with early stopping enabled, one per site.
    pub early_stop_runs: Vec<RunSummary>,
}

impl Campaign {
    /// All runs of one crawler on one site.
    pub fn of(&self, site: &str, crawler: CrawlerKind) -> Vec<&RunSummary> {
        self.runs.iter().filter(|r| r.site == site && r.crawler == crawler).collect()
    }

    /// Seed-averaged Table 2 metric.
    pub fn req90(&self, site: &str, crawler: CrawlerKind) -> Option<f64> {
        let metrics: Vec<Option<f64>> = self.of(site, crawler).iter().map(|r| r.req90).collect();
        crate::runner::mean_or_inf(&metrics)
    }

    /// Seed-averaged Table 3 metric.
    pub fn vol90(&self, site: &str, crawler: CrawlerKind) -> Option<f64> {
        let metrics: Vec<Option<f64>> = self.of(site, crawler).iter().map(|r| r.vol90).collect();
        crate::runner::mean_or_inf(&metrics)
    }
}

static CAMPAIGN_CACHE: Memo<String, Arc<Campaign>> = Mutex::new(None);

fn campaign_key(cfg: &EvalConfig) -> String {
    format!(
        "{}:{}:{}",
        (cfg.scale * 1e6) as u64,
        cfg.seeds,
        cfg.sites.as_ref().map(|s| s.join(",")).unwrap_or_default()
    )
}

/// Scaled early-stopping parameters (ν scales with the site, Sec 4.8).
///
/// ν is floored at 30: the classifier's constant-size warm-up (HEAD
/// bootstrap + first SGD batches) does not shrink with the site, so a
/// proportionally scaled ν would sample slopes during warm-up and stop
/// crawls before learning starts.
pub fn scaled_early_stop(scale: f64) -> EarlyStopConfig {
    let mut cfg = EarlyStopConfig::default().scaled(scale);
    cfg.nu = cfg.nu.max(30);
    cfg
}

/// Runs (or fetches) the shared campaign.
pub fn campaign(cfg: &EvalConfig) -> Arc<Campaign> {
    memoized(&CAMPAIGN_CACHE, campaign_key(cfg), || Arc::new(run_campaign(cfg)))
}

/// One crawl's [`RunSummary`]: the campaign's summariser, also used by
/// experiments that run outside the shared campaign.
pub fn summarize(
    site: &str,
    crawler: CrawlerKind,
    seed: u64,
    outcome: sb_crawler::CrawlOutcome,
    site_ref: &SiteRef,
) -> RunSummary {
    RunSummary {
        crawler,
        site: site.to_owned(),
        seed,
        req90: req90_pct(&outcome, site_ref),
        vol90: vol90_pct(&outcome, site_ref),
        targets: outcome.targets_found(),
        requests: outcome.traffic.requests(),
        trace: outcome.trace.resampled(300),
        arms: outcome.report.arms,
        n_actions: outcome.report.n_actions,
        stopped_early: outcome.finish_reason == FinishReason::EarlyStopped,
        early_stop_at: outcome.early_stop_at,
    }
}

fn run_campaign(cfg: &EvalConfig) -> Campaign {
    let profiles = cfg.selected_profiles();
    // Pre-build all sites and references serially (cache-backed) so the
    // parallel phase is pure crawling.
    let mut refs = HashMap::new();
    for p in &profiles {
        build_site_for(cfg, p.code);
        refs.insert(p.code.to_owned(), reference(cfg, p.code));
    }

    // The run matrix.
    struct Job {
        site: &'static str,
        crawler: CrawlerKind,
        seed: u64,
        early_stop: bool,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for p in &profiles {
        for crawler in CrawlerKind::TABLE_ROWS {
            if crawler == CrawlerKind::SbOracle && !p.fully_crawled {
                continue; // paper: NA on partially-crawled sites
            }
            let seeds = if crawler.stochastic() { cfg.seeds } else { 1 };
            for seed in 0..seeds {
                jobs.push(Job { site: p.code, crawler, seed, early_stop: false });
            }
        }
        // Sec 4.8 re-run.
        jobs.push(Job { site: p.code, crawler: CrawlerKind::SbClassifier, seed: 0, early_stop: true });
    }

    let results = par_map(&jobs, cfg.jobs, |job| {
        let site = build_site_for(cfg, job.site);
        let site_ref = refs[job.site];
        let opts = RunOpts {
            scale: cfg.scale,
            early_stop: job.early_stop.then(|| scaled_early_stop(cfg.scale)),
            ..Default::default()
        };
        let outcome = run_crawler(&site, job.crawler, job.seed, &opts);
        (job.early_stop, summarize(job.site, job.crawler, job.seed, outcome, &site_ref))
    });

    let mut runs = Vec::new();
    let mut early_stop_runs = Vec::new();
    for (is_es, summary) in results {
        if is_es {
            early_stop_runs.push(summary);
        } else {
            runs.push(summary);
        }
    }
    Campaign { refs, runs, early_stop_runs }
}
