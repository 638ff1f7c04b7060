//! The paper's two efficiency metrics (Tables 2 and 3).

use crate::setup::SiteRef;
use sb_crawler::CrawlOutcome;

/// Table 2: percentage of requests (relative to an exhaustive crawl's
/// request count) needed to retrieve 90 % of the site's targets.
/// `None` = never reached (`+∞`).
pub fn req90_pct(outcome: &CrawlOutcome, site: &SiteRef) -> Option<f64> {
    let at = outcome.trace.requests_to_target_fraction(site.targets, 0.9)?;
    Some(100.0 * at as f64 / site.full_requests.max(1) as f64)
}

/// Table 3: fraction of the site's non-target volume retrieved before
/// reaching 90 % of the total target volume.
pub fn vol90_pct(outcome: &CrawlOutcome, site: &SiteRef) -> Option<f64> {
    let bytes =
        outcome.trace.non_target_volume_to_target_volume_fraction(site.target_volume, 0.9)?;
    Some(100.0 * bytes as f64 / site.full_non_target_bytes.max(1) as f64)
}

/// Fraction of targets retrieved.
pub fn target_recall(outcome: &CrawlOutcome, site: &SiteRef) -> f64 {
    if site.targets == 0 {
        return 1.0;
    }
    outcome.targets_found() as f64 / site.targets as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_site_for, reference, run_crawler, CrawlerKind, EvalConfig};
    use crate::RunOpts;

    fn tiny_cfg() -> EvalConfig {
        EvalConfig { scale: 0.004, seeds: 1, ..Default::default() }
    }

    #[test]
    fn bfs_req90_is_high_sb_oracle_lower() {
        let cfg = tiny_cfg();
        let site = build_site_for(&cfg, "cl");
        let r = reference(&cfg, "cl");
        let opts = RunOpts { scale: cfg.scale, ..Default::default() };
        let bfs = run_crawler(&site, CrawlerKind::Bfs, 0, &opts);
        let sb = run_crawler(&site, CrawlerKind::SbOracle, 0, &opts);
        let bfs_m = req90_pct(&bfs, &r).expect("BFS exhausts the site");
        let sb_m = req90_pct(&sb, &r).expect("SB exhausts the site");
        assert!(bfs_m <= 100.5, "BFS republishing the full crawl: {bfs_m}");
        assert!(sb_m > 0.0);
        assert_eq!(target_recall(&bfs, &r), 1.0);
    }

    #[test]
    fn unreached_metric_is_none() {
        let cfg = tiny_cfg();
        let site = build_site_for(&cfg, "cl");
        let r = reference(&cfg, "cl");
        // A 5-request budget can't reach 90% of targets.
        let opts = RunOpts {
            budget: sb_crawler::Budget::Requests(5),
            scale: cfg.scale,
            ..Default::default()
        };
        let out = run_crawler(&site, CrawlerKind::Bfs, 0, &opts);
        assert_eq!(req90_pct(&out, &r), None);
    }
}
