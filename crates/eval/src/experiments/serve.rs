//! Continuous crawl-and-serve (PR 9): read QPS vs. crawl write pressure
//! and the freshness SLA.
//!
//! One small Table 1 profile is evolved for six epochs and driven through
//! `sb_serve::serve_site` under a read-pressure ladder: the zero-reader
//! rung (transport window 1) is the deterministic scheduling baseline —
//! run twice and asserted byte-identical — and the reader rungs hammer
//! the snapshot store from 2/4 Zipf reader threads while the same session
//! refreshes it, reporting achieved read throughput and the age-at-read
//! percentiles.
//!
//! SLA assertion (smoked by `verify.sh`): with a per-epoch refresh budget
//! of ~12 % of the corpus, the *median* age-at-read stays within 2 origin
//! epochs and the p99 within the epoch horizon — the store never serves
//! mostly-rotten data while readers are on it.

use crate::setup::EvalConfig;
use crate::tables::{markdown, write_csv, write_text};
use sb_crawler::Budget;
use sb_revisit::{ChangeModel, EvolvingSite, ThompsonGroupsRevisit};
use sb_serve::{serve_site, ReadLoadConfig, ServeConfig, ServeOutcome};
use sb_webgraph::build_site;

/// Profile used: the small data portal (fully crawled in Table 1).
pub const SERVE_SITE: &str = "cl";

/// Reader-thread rungs of the pressure ladder.
pub const READER_RUNGS: [usize; 3] = [0, 2, 4];

/// Origin epochs (base + 5 refresh rounds).
const EPOCHS: usize = 6;

fn serve_once(site: &EvolvingSite, readers: usize, seed: u64) -> ServeOutcome {
    let corpus = site.snapshot(0).len();
    let cfg = ServeConfig {
        change: ChangeModel {
            epochs: EPOCHS,
            ..ChangeModel::default()
        },
        seed,
        // Window 1 on the deterministic rung, wider once readers are on.
        window: if readers == 0 { 1 } else { 4 },
        discovery_requests: (corpus as u64) * 2,
        refresh_per_epoch: ((corpus as f64) * 0.12).round().max(8.0) as usize,
        retain: 1,
        budget: Budget::Unlimited,
        read: (readers > 0).then(|| ReadLoadConfig {
            readers,
            reads_per_reader: 5_000,
            zipf_s: 1.1,
            seed,
        }),
    };
    let mut policy = ThompsonGroupsRevisit::default();
    serve_site(site, &mut policy, &cfg)
}

pub fn run(cfg: &EvalConfig) -> String {
    if cfg
        .sites
        .as_ref()
        .is_some_and(|s| !s.iter().any(|x| x == SERVE_SITE))
    {
        return format!("## Crawl-and-serve\n\nskipped: site {SERVE_SITE} filtered out\n");
    }
    let base = build_site(&cfg.site_spec(SERVE_SITE), cfg.site_seed(SERVE_SITE));
    let model = ChangeModel {
        epochs: EPOCHS,
        ..ChangeModel::default()
    };
    let seed = cfg.site_seed(SERVE_SITE);
    let site = EvolvingSite::evolve(base, &model, seed);

    // Determinism pin on the zero-reader rung: the refresh schedule is a
    // pure function of the seed at window 1 with nobody reading.
    let out0 = serve_once(&site, 0, seed);
    let out0_again = serve_once(&site, 0, seed);
    assert_eq!(
        out0.schedule, out0_again.schedule,
        "zero-reader window-1 refresh schedule must be byte-reproducible"
    );

    let headers: Vec<String> = [
        "Readers",
        "Reads",
        "Read QPS",
        "Refreshes",
        "Changed",
        "Stale p50",
        "Stale p99",
    ]
    .map(String::from)
    .to_vec();
    let mut md_rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &readers in &READER_RUNGS {
        let owned;
        let out = if readers == 0 {
            &out0
        } else {
            owned = serve_once(&site, readers, seed);
            &owned
        };
        let r = out.outcome.refresh;
        // The freshness SLA, on every rung: the served corpus's median age
        // stays within 2 epochs, the tail within the horizon.
        assert!(
            out.staleness_p50 <= 2.0,
            "SLA violated at {readers} readers: median age-at-read {} epochs",
            out.staleness_p50
        );
        assert!(
            out.staleness_p99 <= (EPOCHS - 1) as f64,
            "SLA violated at {readers} readers: p99 age-at-read {} epochs",
            out.staleness_p99
        );
        md_rows.push(vec![
            readers.to_string(),
            out.read.reads.to_string(),
            if readers == 0 {
                "—".into()
            } else {
                format!("{:.0}", out.read.qps)
            },
            format!("{}/{}", r.completed, r.scheduled),
            r.changed.to_string(),
            format!("{:.1}", out.staleness_p50),
            format!("{:.1}", out.staleness_p99),
        ]);
        csv_rows.push(vec![
            readers.to_string(),
            out.read.reads.to_string(),
            format!("{:.2}", out.read.qps),
            r.scheduled.to_string(),
            r.completed.to_string(),
            r.changed.to_string(),
            r.failed.to_string(),
            format!("{:.4}", out.staleness_p50),
            format!("{:.4}", out.staleness_p99),
            out.store.len().to_string(),
        ]);
    }

    write_csv(
        &cfg.out_dir.join("serve.csv"),
        &[
            "readers",
            "reads",
            "read_qps",
            "scheduled",
            "completed",
            "changed",
            "failed",
            "stale_p50",
            "stale_p99",
            "store_pages",
        ]
        .map(String::from),
        &csv_rows,
    )
    .expect("write serve csv");

    let md = format!(
        "## Continuous crawl-and-serve — freshness SLA under read load (PR 9)\n\n\
         Site `{}` evolved for {} epochs (~12 % refresh budget per epoch,\n\
         thompson-groups scheduling by estimated-change × read-popularity);\n\
         Zipf(1.1) readers on the versioned snapshot store. Zero-reader rung:\n\
         window 1, byte-reproducible schedule (asserted). SLA asserted on\n\
         every rung: median age-at-read ≤ 2 epochs, p99 within the horizon.\n\n{}\n",
        SERVE_SITE,
        EPOCHS,
        markdown(&headers, &md_rows),
    );
    write_text(&cfg.out_dir.join("serve.md"), &md).expect("write serve.md");
    md
}
