//! Sec 4.2 — "Search Engines and Dataset Search": a simulated search engine
//! with partial indexing, result caps and filetype blind spots, compared
//! against a full crawl. Reproduces the *phenomenon* (SEs surface a small,
//! opaque fraction of a site's SDs), not Google's absolute numbers.

use crate::setup::{build_site_for, EvalConfig};
use crate::tables::{markdown, write_csv, write_text};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_webgraph::gen::SiteSource;
use sb_webgraph::{PageId, PageKind};

/// A simulated search engine's coverage profile.
pub struct SimEngine {
    pub name: &'static str,
    /// Fraction of the site the engine happened to index.
    pub index_fraction: f64,
    /// Hard cap on returned results per query (GS caps at 1 000).
    pub result_cap: usize,
    /// Extensions the `filetype:` filter does not recognise at all
    /// (the paper: "TSV is not recognized at all despite 11 097 files").
    pub blind_filetypes: &'static [&'static str],
}

pub fn engines() -> Vec<SimEngine> {
    vec![
        SimEngine { name: "SIM-GS", index_fraction: 0.35, result_cap: 1000, blind_filetypes: &["tsv", "yaml"] },
        SimEngine { name: "SIM-GDS", index_fraction: 0.06, result_cap: 500, blind_filetypes: &["tsv", "yaml", "zip", "gz"] },
    ]
}

/// Counts what `site:X filetype:ext` returns under an engine's limits.
pub fn query_filetype(site: &dyn SiteSource, engine: &SimEngine, ext: &str, seed: u64) -> usize {
    if engine.blind_filetypes.contains(&ext) {
        return 0;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e);
    let mut hits = 0usize;
    for id in 0..site.n_pages() as PageId {
        if let PageKind::Target { ext: e, .. } = site.kind(id) {
            if *e == ext && rng.gen_bool(engine.index_fraction) {
                hits += 1;
            }
        }
    }
    hits.min(engine.result_cap)
}

pub fn run(cfg: &EvalConfig) -> String {
    let profiles = cfg.selected_profiles();
    let exts = ["pdf", "csv", "xlsx", "zip", "tsv"];
    let mut md = String::from(
        "## Sec 4.2 — simulated search-engine coverage vs. exhaustive crawl\n\n\
        A crawler retrieves *all* targets; the engines return capped, partial,\n\
        filetype-blind slices (SIM-GS ≈ classic search, SIM-GDS ≈ dataset search).\n\n",
    );
    let mut csv_rows = Vec::new();
    for p in profiles.iter().filter(|p| p.fully_crawled) {
        let site = build_site_for(cfg, p.code);
        let mut headers = vec!["source".to_owned()];
        headers.extend(exts.iter().map(|e| (*e).to_owned()));
        let mut rows = Vec::new();
        // Ground truth row.
        let mut truth = vec!["crawler (all)".to_owned()];
        for ext in exts {
            let n = (0..site.n_pages() as PageId)
                .filter(|&id| matches!(site.kind(id), PageKind::Target { ext: e, .. } if *e == ext))
                .count();
            truth.push(n.to_string());
            csv_rows.push(vec![p.code.into(), "crawler".into(), ext.into(), n.to_string()]);
        }
        rows.push(truth);
        for engine in engines() {
            let mut row = vec![engine.name.to_owned()];
            for ext in exts {
                let n = query_filetype(&*site, &engine, ext, cfg.site_seed(p.code));
                row.push(n.to_string());
                csv_rows.push(vec![p.code.into(), engine.name.into(), ext.into(), n.to_string()]);
            }
            rows.push(row);
        }
        md.push_str(&format!("### {}\n\n{}\n", p.code, markdown(&headers, &rows)));
    }
    write_csv(
        &cfg.out_dir.join("se.csv"),
        &["site", "source", "filetype", "results"].map(String::from),
        &csv_rows,
    )
    .expect("write se csv");
    write_text(&cfg.out_dir.join("se.md"), &md).expect("write se.md");
    md
}
