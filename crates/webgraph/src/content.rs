//! Target file content generation.
//!
//! Table 7 of the paper measures how many retrieved targets actually contain
//! *statistics datasets* (SDs): multidimensional numeric tables. The manual
//! annotation of 280 sampled files is replaced here by planted ground truth:
//! the generator decides how many statistic tables a target contains
//! (`planted_tables` in [`crate::gen::PageKind::Target`]) and this module materialises a
//! body in the target's format — CSV/TSV with real numeric tables, PDF-like
//! text with whitespace-aligned tables between paragraphs, JSON/YAML record
//! arrays, or opaque archive bytes. `sb-sdetect` then has to *recover* the
//! planted count from the bytes alone.

use crate::gen::lexicon::{self, Lang};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;

/// Upper bound on generated body size; servers declare the true
/// `Content-Length` separately (big files are truncated on the wire).
pub const BODY_CAP: usize = 1 << 18;

/// Generates the body for a target file.
///
/// `planted_tables` statistic tables are embedded for formats that can carry
/// them (`csv`, `tsv`, `txt`, `pdf`, `xlsx`-like sheet text, `json`, `yaml`);
/// archive formats get magic bytes plus opaque content (their SDs are inside
/// the archive — undetectable without extraction, exactly like the paper's
/// ZIP case).
///
/// Like the page renderer, every generator writes its cells straight into
/// the body in RNG draw order, and the body is reserved once at its final
/// size (`declared_size` capped at [`BODY_CAP`]; structure that overshoots a
/// small declared size grows it as any `Vec` grows).
pub fn target_body(
    seed: u64,
    ext: &str,
    planted_tables: u16,
    declared_size: u64,
    lang: Lang,
) -> Vec<u8> {
    let rng = &mut StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let approx = (declared_size as usize).min(BODY_CAP);
    let mut out = Vec::with_capacity(approx);
    match ext {
        "csv" => delimited(rng, &mut out, planted_tables, approx, b',', lang),
        "tsv" => delimited(rng, &mut out, planted_tables, approx, b'\t', lang),
        "txt" => delimited(rng, &mut out, planted_tables, approx, b';', lang),
        "pdf" => pdf_like(rng, &mut out, b"%PDF-1.4\n", planted_tables, approx, lang),
        "xls" | "xlsx" | "ods" => sheet_like(rng, &mut out, planted_tables, approx, lang),
        "json" => json_like(rng, &mut out, planted_tables, approx, lang),
        "yaml" | "yml" => yaml_like(rng, &mut out, planted_tables, approx, lang),
        "doc" | "docx" => {
            // Word-processor text: like pdf_like under another magic line,
            // cut to the declared size (but never into the magic).
            pdf_like(rng, &mut out, b"#DOCFILE v1\n", planted_tables, approx, lang);
            out.truncate(approx.max(16));
        }
        _ => opaque(rng, &mut out, ext, approx),
    }
    out
}

/// Writes formatted cells into a body. Writing to a `Vec<u8>` cannot fail.
macro_rules! put {
    ($out:expr, $($fmt:tt)+) => {
        let _ = write!($out, $($fmt)+);
    };
}

fn dim_names(lang: Lang) -> &'static [&'static str] {
    let _ = lang;
    &["year", "region", "age_group", "sector", "category", "quarter", "sex", "level"]
}

/// One statistic table: a header of dimension names + a measure column, then
/// numeric rows.
fn stat_table(rng: &mut StdRng, out: &mut Vec<u8>, sep: u8, lang: Lang) {
    let sep = char::from(sep);
    let dims = dim_names(lang);
    let k = rng.gen_range(2..4usize);
    let rows = rng.gen_range(6..30usize);
    let measure = lexicon::pick(rng, lexicon::nouns(lang));
    for i in 0..k {
        put!(out, "{}{sep}", dims[(i + rng.gen_range(0..dims.len())) % dims.len()]);
    }
    put!(out, "{measure}_count\n");
    for r in 0..rows {
        put!(out, "{}{sep}", 1990 + (r % 35));
        for _ in 1..k {
            put!(out, "R{:02}{sep}", rng.gen_range(1..20));
        }
        put!(out, "{}\n", rng.gen_range(0..5_000_000));
    }
}

/// Non-table filler rows: prose lines that must *not* look like an SD.
fn prose_block(rng: &mut StdRng, out: &mut Vec<u8>, lang: Lang) {
    for _ in 0..rng.gen_range(2..6) {
        out.extend_from_slice(lexicon::pick(rng, lexicon::filler(lang)).as_bytes());
        out.push(b'\n');
    }
}

fn delimited(rng: &mut StdRng, out: &mut Vec<u8>, tables: u16, approx: usize, sep: u8, lang: Lang) {
    if tables == 0 {
        // A "dataset-shaped but not statistical" file: contact lists, link
        // registries — textual columns, no numeric majority.
        let sep = char::from(sep);
        put!(out, "name{sep}address{sep}contact{sep}notes\n");
        for _ in 0..rng.gen_range(10..40) {
            put!(out, "{}{sep}", lexicon::title(rng, lang));
            put!(out, "{} street{sep}office{sep}", lexicon::pick(rng, lexicon::nouns(lang)));
            put!(out, "{}\n", lexicon::pick(rng, lexicon::filler(lang)));
        }
    } else {
        for t in 0..tables {
            if t > 0 {
                out.push(b'\n'); // blank separator line: multi-region file
            }
            stat_table(rng, out, sep, lang);
        }
    }
    pad_to(out, approx, b'\n');
}

/// Text as extracted from a paginated document: `magic`, prose, then
/// whitespace-aligned tables between paragraphs.
fn pdf_like(
    rng: &mut StdRng,
    out: &mut Vec<u8>,
    magic: &[u8],
    tables: u16,
    approx: usize,
    lang: Lang,
) {
    out.extend_from_slice(magic);
    prose_block(rng, out, lang);
    for _ in 0..tables {
        out.push(b'\n');
        // Whitespace-aligned table, like text extracted from a PDF.
        let rows = rng.gen_range(5..15usize);
        put!(out, "{:<12}{:<12}{:>12}\n", "year", "region", "count");
        for r in 0..rows {
            // `Rnn` is always three characters: nine spaces pad it to 12.
            put!(out, "{:<12}R{:02}         ", 1990 + (r % 35), rng.gen_range(1..20));
            put!(out, "{:>12}\n", rng.gen_range(0..5_000_000));
        }
        out.push(b'\n');
        prose_block(rng, out, lang);
    }
    prose_block(rng, out, lang);
    pad_to(out, approx, b' ');
}

/// Simulated spreadsheet: a sheet-per-line text container with explicit sheet
/// markers (a stand-in for real XLSX zip containers, which are out of scope).
fn sheet_like(rng: &mut StdRng, out: &mut Vec<u8>, tables: u16, approx: usize, lang: Lang) {
    out.extend_from_slice(b"#SHEETFILE v1\n");
    if tables == 0 {
        out.extend_from_slice(b"== Sheet: notes ==\n");
        prose_block(rng, out, lang);
    }
    for t in 0..tables {
        put!(out, "== Sheet: table{} ==\n", t + 1);
        stat_table(rng, out, b'\t', lang);
    }
    pad_to(out, approx, b'\n');
}

fn json_like(rng: &mut StdRng, out: &mut Vec<u8>, tables: u16, approx: usize, lang: Lang) {
    out.extend_from_slice(b"{\n");
    if tables == 0 {
        out.extend_from_slice(b"  \"description\": \"site metadata\",\n  \"links\": [\"a\", \"b\"]\n");
    } else {
        for t in 0..tables {
            put!(out, "  \"table{}\": [\n", t + 1);
            for r in 0..rng.gen_range(5..20usize) {
                put!(out, "    {{\"year\": {}, \"region\": \"R{:02}\", ", 1990 + (r % 35), rng.gen_range(1..20));
                put!(out, "\"{}\": ", lexicon::pick(rng, lexicon::nouns(lang)));
                put!(out, "{}}},\n", rng.gen_range(0..5_000_000));
            }
            out.extend_from_slice(b"  ],\n");
        }
    }
    out.extend_from_slice(b"}\n");
    pad_to(out, approx, b' ');
}

fn yaml_like(rng: &mut StdRng, out: &mut Vec<u8>, tables: u16, approx: usize, lang: Lang) {
    if tables == 0 {
        out.extend_from_slice(b"kind: metadata\nnotes: textual\n");
    }
    for t in 0..tables {
        put!(out, "table{}:\n", t + 1);
        for r in 0..rng.gen_range(5..15usize) {
            put!(out, "  - {{year: {}, region: R{:02}, ", 1990 + (r % 35), rng.gen_range(1..20));
            put!(out, "{}: ", lexicon::pick(rng, lexicon::nouns(lang)));
            put!(out, "{}}}\n", rng.gen_range(0..5_000_000));
        }
    }
    pad_to(out, approx, b'\n');
}

/// Archives and unknown formats: magic bytes + pseudo-random payload. Any
/// SDs inside are invisible without extraction (documented limitation,
/// mirroring the paper's treatment of ZIPs in Table 7 sampling).
fn opaque(rng: &mut StdRng, out: &mut Vec<u8>, ext: &str, approx: usize) {
    let magic: &[u8] = match ext {
        "zip" => b"PK\x03\x04",
        "gz" => b"\x1f\x8b\x08",
        "7z" => b"7z\xbc\xaf\x27\x1c",
        "rar" => b"Rar!\x1a\x07",
        "tar" => b"ustar",
        _ => b"BIN\x00",
    };
    out.extend_from_slice(magic);
    out.extend((magic.len()..approx).map(|_| rng.gen::<u8>()));
}

/// Fills a body that came out short of its declared size (`approx`, already
/// capped) with comment-ish filler so parsers aren't confused.
fn pad_to(out: &mut Vec<u8>, approx: usize, fill: u8) {
    if out.len() < approx {
        out.resize(approx, fill);
    }
    out.truncate(BODY_CAP);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_with_tables_has_numeric_rows() {
        let body = target_body(1, "csv", 2, 4096, Lang::En);
        let s = String::from_utf8_lossy(&body);
        assert!(s.lines().any(|l| l.split(',').count() >= 3));
        // Two tables are separated by a blank line.
        assert!(s.contains("\n\n"));
    }

    #[test]
    fn csv_without_tables_is_texty() {
        let body = target_body(2, "csv", 0, 2048, Lang::En);
        let s = String::from_utf8_lossy(&body);
        assert!(s.starts_with("name,"));
    }

    #[test]
    fn pdf_magic_present() {
        let body = target_body(3, "pdf", 1, 4096, Lang::Fr);
        assert!(body.starts_with(b"%PDF-1.4"));
    }

    #[test]
    fn zip_is_opaque() {
        let body = target_body(4, "zip", 3, 4096, Lang::En);
        assert!(body.starts_with(b"PK\x03\x04"));
    }

    #[test]
    fn deterministic_bodies() {
        for ext in ["csv", "pdf", "xlsx", "json", "yaml", "zip"] {
            assert_eq!(
                target_body(9, ext, 2, 8192, Lang::En),
                target_body(9, ext, 2, 8192, Lang::En),
                "{ext}"
            );
        }
    }

    #[test]
    fn body_respects_cap() {
        let body = target_body(5, "csv", 1, 10 << 20, Lang::En);
        assert!(body.len() <= BODY_CAP);
    }

    #[test]
    fn sheet_markers_match_table_count() {
        let body = target_body(6, "xlsx", 3, 8192, Lang::En);
        let s = String::from_utf8_lossy(&body);
        assert_eq!(s.matches("== Sheet: table").count(), 3);
    }
}
