//! The 18 website profiles of Table 1.
//!
//! Each profile records the *published* characteristics of one evaluation
//! website (page count, target density, linker density, size and depth
//! distributions) plus structural knobs chosen so that a generated site's
//! census reproduces the row. `n_pages` is the full-scale "#Available"
//! column; experiments scale it down with [`SiteSpec::scaled`] — the harness
//! default is 1:100 (`--scale 0.01`), the paper-fidelity run 1:50
//! (`--scale 0.02`).

// Table 1 constants are copied digit-for-digit from the paper; one of them
// (`oe` depth 6.28) happens to look like a truncated τ to clippy.
#![allow(clippy::approx_constant)]

use super::lexicon::Lang;
use super::spec::{MimePalette, SiteSpec, StructureSpec, PALETTE_ARCHIVE, PALETTE_DATA, PALETTE_DOCS};

/// Small-file palette for `ok` (mean target size 0.04 MB).
const PALETTE_SMALL: MimePalette = &[
    ("csv", 0.40),
    ("json", 0.30),
    ("pdf", 0.15),
    ("yaml", 0.10),
    ("zip", 0.05),
];

struct Row {
    code: &'static str,
    name: &'static str,
    start_url: &'static str,
    mlg: bool,
    fc: bool,
    avail_k: f64,
    target_k: f64,
    html_to_t: f64,
    size: (f64, f64),
    depth: (f64, f64),
    langs: &'static [Lang],
    palette: MimePalette,
    chain: (f64, f64),
    run: usize,
    extensionless: f64,
    unique_ids: bool,
    sd: (f64, f64),
}

const ROWS: [Row; 18] = [
    Row { code: "ab", name: "Australian Bureau of Statistics", start_url: "https://www.abs.gov.au/", mlg: false, fc: false, avail_k: 952.26, target_k: 263.26, html_to_t: 8.86, size: (4.50, 56.04), depth: (8.94, 2.56), langs: &[Lang::En], palette: PALETTE_DATA, chain: (2.0, 1.0), run: 8, extensionless: 0.2, unique_ids: false, sd: (0.85, 3.0) },
    Row { code: "as", name: "French National Assembly", start_url: "https://www.assemblee-nationale.fr/", mlg: false, fc: false, avail_k: 949.42, target_k: 155.94, html_to_t: 4.34, size: (0.54, 6.38), depth: (5.84, 1.07), langs: &[Lang::Fr], palette: PALETTE_DOCS, chain: (0.5, 0.5), run: 5, extensionless: 0.25, unique_ids: false, sd: (0.5, 2.0) },
    Row { code: "be", name: "US Bureau of Economic Analysis", start_url: "https://www.bea.gov/", mlg: false, fc: true, avail_k: 31.23, target_k: 15.84, html_to_t: 32.19, size: (2.03, 6.99), depth: (5.73, 3.21), langs: &[Lang::En], palette: PALETTE_DATA, chain: (0.5, 2.0), run: 6, extensionless: 0.15, unique_ids: false, sd: (0.82, 9.1) },
    Row { code: "ce", name: "US Census Bureau", start_url: "https://www.census.gov/", mlg: false, fc: false, avail_k: 988.37, target_k: 257.68, html_to_t: 3.47, size: (1.51, 15.77), depth: (4.23, 0.48), langs: &[Lang::En], palette: PALETTE_DATA, chain: (0.0, 0.0), run: 3, extensionless: 0.2, unique_ids: false, sd: (0.8, 3.0) },
    Row { code: "cl", name: "French Local Communities", start_url: "https://www.collectivites-locales.gouv.fr/", mlg: false, fc: true, avail_k: 5.54, target_k: 3.70, html_to_t: 5.40, size: (1.15, 4.91), depth: (2.80, 0.82), langs: &[Lang::Fr], palette: PALETTE_DATA, chain: (0.0, 0.0), run: 2, extensionless: 0.1, unique_ids: false, sd: (0.7, 2.5) },
    Row { code: "cn", name: "French Council for Statistical Information", start_url: "https://www.cnis.fr/", mlg: false, fc: true, avail_k: 12.80, target_k: 7.49, html_to_t: 13.87, size: (0.43, 1.74), depth: (4.26, 1.59), langs: &[Lang::Fr], palette: PALETTE_DOCS, chain: (0.0, 0.0), run: 3, extensionless: 0.1, unique_ids: false, sd: (0.6, 2.0) },
    Row { code: "ed", name: "French Ministry of Education", start_url: "https://www.education.gouv.fr/", mlg: false, fc: true, avail_k: 102.71, target_k: 10.47, html_to_t: 3.95, size: (1.00, 3.07), depth: (11.89, 13.22), langs: &[Lang::Fr], palette: PALETTE_DOCS, chain: (4.0, 10.0), run: 12, extensionless: 0.3, unique_ids: true, sd: (0.35, 2.8) },
    Row { code: "il", name: "UN International Labour Organization", start_url: "https://www.ilo.org/", mlg: true, fc: false, avail_k: 990.71, target_k: 81.01, html_to_t: 2.53, size: (13.40, 110.01), depth: (4.26, 1.28), langs: &[Lang::En, Lang::Fr, Lang::Es, Lang::De], palette: PALETTE_ARCHIVE, chain: (0.0, 0.0), run: 3, extensionless: 0.7, unique_ids: false, sd: (0.6, 3.5) },
    Row { code: "in", name: "French Ministry of the Interior", start_url: "https://www.interieur.gouv.fr/", mlg: false, fc: true, avail_k: 922.46, target_k: 22.98, html_to_t: 1.54, size: (1.12, 3.06), depth: (66.94, 39.43), langs: &[Lang::Fr], palette: PALETTE_DOCS, chain: (1.0, 1.0), run: 124, extensionless: 0.35, unique_ids: false, sd: (0.40, 2.1) },
    Row { code: "is", name: "French National Statistics Institute (INSEE)", start_url: "https://www.insee.fr/", mlg: true, fc: true, avail_k: 285.55, target_k: 168.88, html_to_t: 41.34, size: (3.13, 21.43), depth: (5.20, 1.81), langs: &[Lang::Fr, Lang::En], palette: PALETTE_DATA, chain: (0.0, 0.0), run: 4, extensionless: 0.15, unique_ids: false, sd: (0.93, 2.9) },
    Row { code: "jp", name: "Japanese Ministry of Internal Affairs", start_url: "https://www.soumu.go.jp/", mlg: true, fc: false, avail_k: 993.87, target_k: 328.83, html_to_t: 6.30, size: (0.80, 4.49), depth: (5.18, 1.29), langs: &[Lang::Ja, Lang::En], palette: PALETTE_DATA, chain: (0.0, 0.0), run: 4, extensionless: 0.2, unique_ids: false, sd: (0.7, 2.5) },
    Row { code: "ju", name: "French Ministry of Justice", start_url: "https://www.justice.gouv.fr/", mlg: false, fc: true, avail_k: 56.61, target_k: 14.85, html_to_t: 4.85, size: (0.48, 1.34), depth: (86.91, 86.30), langs: &[Lang::Fr], palette: PALETTE_DOCS, chain: (30.0, 60.0), run: 100, extensionless: 0.4, unique_ids: false, sd: (0.5, 2.2) },
    Row { code: "nc", name: "US National Center for Education Statistics", start_url: "https://nces.ed.gov/", mlg: false, fc: true, avail_k: 309.97, target_k: 84.94, html_to_t: 18.87, size: (1.10, 11.56), depth: (3.63, 1.66), langs: &[Lang::En], palette: PALETTE_DATA, chain: (0.0, 0.0), run: 2, extensionless: 0.15, unique_ids: false, sd: (0.83, 2.1) },
    Row { code: "oe", name: "OECD", start_url: "https://www.oecd.org/", mlg: true, fc: true, avail_k: 222.58, target_k: 45.04, html_to_t: 15.61, size: (2.31, 23.37), depth: (6.28, 5.65), langs: &[Lang::En, Lang::Fr], palette: PALETTE_ARCHIVE, chain: (1.0, 5.0), run: 5, extensionless: 0.25, unique_ids: false, sd: (0.60, 4.9) },
    Row { code: "ok", name: "Open Knowledge Foundation", start_url: "https://okfn.org/", mlg: true, fc: true, avail_k: 423.12, target_k: 12.95, html_to_t: 0.74, size: (0.04, 0.24), depth: (2.64, 2.89), langs: &[Lang::En, Lang::Fr, Lang::Es], palette: PALETTE_SMALL, chain: (0.0, 2.0), run: 2, extensionless: 0.2, unique_ids: false, sd: (0.55, 2.0) },
    Row { code: "qa", name: "Qatar Planning and Statistics Authority", start_url: "https://www.psa.gov.qa/", mlg: true, fc: true, avail_k: 4.36, target_k: 2.45, html_to_t: 4.15, size: (2.97, 19.28), depth: (3.03, 0.61), langs: &[Lang::Ar, Lang::En], palette: PALETTE_DATA, chain: (0.0, 0.0), run: 2, extensionless: 0.1, unique_ids: false, sd: (0.75, 2.5) },
    Row { code: "wh", name: "UN World Health Organization", start_url: "https://www.who.int/", mlg: true, fc: false, avail_k: 351.86, target_k: 55.59, html_to_t: 14.19, size: (1.26, 11.14), depth: (4.43, 0.62), langs: &[Lang::En, Lang::Fr, Lang::Es, Lang::Ar], palette: PALETTE_ARCHIVE, chain: (0.0, 0.0), run: 3, extensionless: 0.3, unique_ids: false, sd: (0.40, 1.4) },
    Row { code: "wo", name: "World Bank", start_url: "https://www.worldbank.org/", mlg: true, fc: false, avail_k: 223.67, target_k: 23.10, html_to_t: 2.38, size: (2.80, 27.16), depth: (4.52, 0.69), langs: &[Lang::En, Lang::Fr, Lang::Es], palette: PALETTE_ARCHIVE, chain: (0.0, 0.0), run: 3, extensionless: 0.3, unique_ids: false, sd: (0.65, 3.0) },
];

fn to_spec(r: &Row) -> SiteSpec {
    SiteSpec {
        code: r.code,
        name: r.name,
        start_url: r.start_url,
        multilingual: r.mlg,
        fully_crawled: r.fc,
        n_pages: (r.avail_k * 1000.0).round() as usize,
        target_frac: r.target_k / r.avail_k,
        html_to_target_frac: r.html_to_t / 100.0,
        target_size_mb: r.size,
        target_depth: r.depth,
        error_frac: 0.10,
        redirect_frac: 0.03,
        extensionless: r.extensionless,
        unique_ids: r.unique_ids,
        sd_yield: r.sd.0,
        sd_per_target: r.sd.1,
        languages: r.langs,
        palette: r.palette,
        structure: StructureSpec {
            sections: 6,
            chain_mean: r.chain.0,
            chain_std: r.chain.1,
            catalog_run: r.run,
            articles_per_list: 6.0,
            related_per_article: 3.0,
        },
    }
}

/// All 18 profiles, in Table 1 order (`ab` … `wo`), at full scale.
pub fn paper_profiles() -> Vec<SiteSpec> {
    ROWS.iter().map(to_spec).collect()
}

/// Looks up one profile by its two-letter code.
pub fn profile(code: &str) -> Option<SiteSpec> {
    ROWS.iter().find(|r| r.code == code).map(to_spec)
}

/// The 11 fully-crawled codes of Sec 4.4, used for hyper-parameter studies.
pub fn fully_crawled_codes() -> Vec<&'static str> {
    ROWS.iter().filter(|r| r.fc).map(|r| r.code).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_profiles_in_order() {
        let ps = paper_profiles();
        assert_eq!(ps.len(), 18);
        let codes: Vec<_> = ps.iter().map(|p| p.code).collect();
        assert_eq!(
            codes,
            vec!["ab", "as", "be", "ce", "cl", "cn", "ed", "il", "in", "is", "jp", "ju", "nc", "oe", "ok", "qa", "wh", "wo"]
        );
    }

    #[test]
    fn eleven_fully_crawled() {
        let fc = fully_crawled_codes();
        assert_eq!(fc, vec!["be", "cl", "cn", "ed", "in", "is", "ju", "nc", "oe", "ok", "qa"]);
    }

    #[test]
    fn cl_target_density_matches_paper() {
        let p = profile("cl").unwrap();
        // Paper: extreme densities are 66.78 % (cl) and 2.49 % (in).
        assert!((p.target_frac * 100.0 - 66.78).abs() < 0.1);
        let i = profile("in").unwrap();
        assert!((i.target_frac * 100.0 - 2.49).abs() < 0.1);
    }

    #[test]
    fn only_ed_has_unique_ids() {
        for p in paper_profiles() {
            assert_eq!(p.unique_ids, p.code == "ed");
        }
    }

    #[test]
    fn multilingual_profiles_have_multiple_langs() {
        for p in paper_profiles() {
            if p.multilingual {
                assert!(p.languages.len() >= 2, "{}", p.code);
            }
        }
    }

    #[test]
    fn linker_fraction_stays_a_fraction() {
        for p in paper_profiles() {
            assert!(p.html_to_target_frac > 0.0 && p.html_to_target_frac < 1.0, "{}", p.code);
        }
    }

    #[test]
    fn unknown_code_is_none() {
        assert!(profile("zz").is_none());
    }
}
