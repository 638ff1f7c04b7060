//! Site specifications: everything the generator needs to synthesise a
//! website whose *crawler-observable* statistics match a row of Table 1.

use crate::gen::lexicon::Lang;

/// Weighted palette of target file extensions for a site.
pub type MimePalette = &'static [(&'static str, f64)];

/// Default palette: mostly PDFs and spreadsheets, like the ministry sites.
pub(crate) const PALETTE_DOCS: MimePalette = &[
    ("pdf", 0.42),
    ("csv", 0.14),
    ("xlsx", 0.16),
    ("xls", 0.08),
    ("ods", 0.04),
    ("zip", 0.08),
    ("json", 0.04),
    ("docx", 0.04),
];

/// Data-portal palette: CSV/spreadsheet heavy (is, cl, qa…).
pub(crate) const PALETTE_DATA: MimePalette = &[
    ("csv", 0.34),
    ("xlsx", 0.22),
    ("xls", 0.10),
    ("zip", 0.12),
    ("pdf", 0.10),
    ("json", 0.06),
    ("ods", 0.04),
    ("tsv", 0.02),
];

/// Archive-heavy palette (il, wo: big zipped micro-data).
pub(crate) const PALETTE_ARCHIVE: MimePalette = &[
    ("zip", 0.30),
    ("pdf", 0.25),
    ("csv", 0.15),
    ("xlsx", 0.15),
    ("gz", 0.08),
    ("json", 0.07),
];

/// Structural shape of a generated site. Derived from the Table 1 depth
/// column but exposed so tests and examples can build bespoke sites.
#[derive(Debug, Clone, Copy)]
pub struct StructureSpec {
    /// Number of top-level sections (language/topic portals).
    pub sections: usize,
    /// Mean length of navigation chains inserted between a section hub and
    /// its catalogs (0 for shallow sites; ~80 for `ju`).
    pub chain_mean: f64,
    /// Standard deviation of chain lengths.
    pub chain_std: f64,
    /// Pages per pagination run of a catalog (list) chain.
    pub catalog_run: usize,
    /// Mean number of article links per list page.
    pub articles_per_list: f64,
    /// Mean number of cross links (related articles) per article.
    pub related_per_article: f64,
}

impl Default for StructureSpec {
    fn default() -> Self {
        StructureSpec {
            sections: 6,
            chain_mean: 0.0,
            chain_std: 0.0,
            catalog_run: 8,
            articles_per_list: 6.0,
            related_per_article: 3.0,
        }
    }
}

/// Full description of a synthetic website; one per Table 1 row, scaled.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Two-letter site code (`ju`, `il`, …).
    pub code: &'static str,
    /// Human name, e.g. "French Ministry of Justice".
    pub name: &'static str,
    /// Start URL, also the crawl root (Sec 2.2).
    pub start_url: &'static str,
    /// "Mlg." column: content in at least two languages.
    pub multilingual: bool,
    /// "F. C." column: site small enough to be fully crawled in the paper.
    pub fully_crawled: bool,
    /// #Available: reachable non-error pages (HTML + targets).
    pub n_pages: usize,
    /// #Target / #Available.
    pub target_frac: f64,
    /// "HTML to T. (%)": fraction of HTML pages linking to ≥ 1 target.
    pub html_to_target_frac: f64,
    /// Target file size in MB: (mean, std) of the log-normal.
    pub target_size_mb: (f64, f64),
    /// Target depth (mean, std) — drives chain lengths.
    pub target_depth: (f64, f64),
    /// Extra dead URLs (4xx/5xx) as a fraction of `n_pages`.
    pub error_frac: f64,
    /// Redirect URLs as a fraction of `n_pages`.
    pub redirect_frac: f64,
    /// Probability that a URL carries no file extension (ILO-style).
    pub extensionless: f64,
    /// Insert unique per-page ids into tag paths (the `ed` pathology that
    /// blows up θ = 0.95 clustering).
    pub unique_ids: bool,
    /// Table 7 ground truth: fraction of targets containing ≥ 1 statistic
    /// table, and mean number of tables in those that do.
    pub sd_yield: f64,
    pub sd_per_target: f64,
    /// Languages used across sections (first = primary).
    pub languages: &'static [Lang],
    /// Target extension palette.
    pub palette: MimePalette,
    /// Structure knobs.
    pub structure: StructureSpec,
}

impl SiteSpec {
    /// Expected number of target pages.
    pub fn n_targets(&self) -> usize {
        ((self.n_pages as f64) * self.target_frac).round().max(1.0) as usize
    }

    /// Expected number of HTML pages.
    pub(crate) fn n_html(&self) -> usize {
        self.n_pages.saturating_sub(self.n_targets()).max(2)
    }

    /// Expected number of HTML pages that link to at least one target.
    pub(crate) fn n_linkers(&self) -> usize {
        ((self.n_html() as f64) * self.html_to_target_frac).round().max(1.0) as usize
    }

    /// Returns a copy with `n_pages` scaled by `f` (min 60 pages so the
    /// structure survives).
    pub fn scaled(&self, f: f64) -> SiteSpec {
        let mut s = self.clone();
        s.n_pages = (((self.n_pages as f64) * f).round() as usize).max(60);
        s
    }

    /// A small generic spec for tests and examples.
    pub fn demo(n_pages: usize) -> SiteSpec {
        SiteSpec {
            code: "xx",
            name: "Demo statistics portal",
            start_url: "https://www.stats.example.org/",
            multilingual: false,
            fully_crawled: true,
            n_pages,
            target_frac: 0.25,
            html_to_target_frac: 0.12,
            target_size_mb: (1.0, 3.0),
            target_depth: (4.5, 1.5),
            error_frac: 0.08,
            redirect_frac: 0.03,
            extensionless: 0.2,
            unique_ids: false,
            sd_yield: 0.7,
            sd_per_target: 2.5,
            languages: &[Lang::En],
            palette: PALETTE_DATA,
            structure: StructureSpec::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_counts_consistent() {
        let s = SiteSpec::demo(1000);
        assert_eq!(s.n_targets(), 250);
        assert_eq!(s.n_html(), 750);
        assert_eq!(s.n_linkers(), 90);
        assert!(s.n_targets() + s.n_html() == s.n_pages);
    }

    #[test]
    fn scaling_respects_minimum() {
        let s = SiteSpec::demo(1000).scaled(0.001);
        assert_eq!(s.n_pages, 60);
        let s2 = SiteSpec::demo(1000).scaled(0.5);
        assert_eq!(s2.n_pages, 500);
    }

    #[test]
    fn palettes_sum_to_about_one() {
        for p in [PALETTE_DOCS, PALETTE_DATA, PALETTE_ARCHIVE] {
            let sum: f64 = p.iter().map(|(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-9, "palette weights sum to {sum}");
        }
    }
}
