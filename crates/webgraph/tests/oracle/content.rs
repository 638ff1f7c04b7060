//! The frozen target-payload generator: `sb_webgraph::content` as it stood
//! before PR 23 (a `Vec<String>` per row, a `format!` per cell, bodies that
//! under-reserve and regrow), verbatim.

use sb_webgraph::gen::lexicon::{self, Lang};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
pub fn target_body(
    seed: u64,
    ext: &str,
    planted_tables: u16,
    declared_size: u64,
    lang: Lang,
) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let approx = (declared_size as usize).min(BODY_CAP);
    match ext {
        "csv" => delimited(&mut rng, planted_tables, approx, b',', lang),
        "tsv" => delimited(&mut rng, planted_tables, approx, b'\t', lang),
        "txt" => delimited(&mut rng, planted_tables, approx, b';', lang),
        "pdf" => pdf_like(&mut rng, planted_tables, approx, lang),
        "xls" | "xlsx" | "ods" => sheet_like(&mut rng, planted_tables, approx, lang),
        "json" => json_like(&mut rng, planted_tables, approx, lang),
        "yaml" | "yml" => yaml_like(&mut rng, planted_tables, approx, lang),
        "doc" | "docx" => doc_like(&mut rng, planted_tables, approx, lang),
        _ => opaque(&mut rng, ext, approx),
    }
}

fn dim_names(lang: Lang) -> &'static [&'static str] {
    let _ = lang;
    &["year", "region", "age_group", "sector", "category", "quarter", "sex", "level"]
}

/// One statistic table: a header of dimension names + a measure column, then
/// numeric rows.
fn stat_table(rng: &mut StdRng, out: &mut Vec<u8>, sep: u8, lang: Lang) {
    let dims = dim_names(lang);
    let k = rng.gen_range(2..4usize);
    let rows = rng.gen_range(6..30usize);
    let measure = lexicon::pick(rng, lexicon::nouns(lang));
    let mut header: Vec<String> = (0..k).map(|i| dims[(i + rng.gen_range(0..dims.len())) % dims.len()].to_owned()).collect();
    header.push(format!("{measure}_count"));
    push_row(out, &header, sep);
    for r in 0..rows {
        let mut row: Vec<String> = Vec::with_capacity(k + 1);
        row.push((1990 + (r % 35)).to_string());
        for _ in 1..k {
            row.push(format!("R{:02}", rng.gen_range(1..20)));
        }
        row.push(format!("{}", rng.gen_range(0..5_000_000)));
        push_row(out, &row, sep);
    }
}

fn push_row(out: &mut Vec<u8>, cells: &[String], sep: u8) {
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        out.extend_from_slice(c.as_bytes());
    }
    out.push(b'\n');
}

/// Non-table filler rows: prose lines that must *not* look like an SD.
fn prose_block(rng: &mut StdRng, out: &mut Vec<u8>, lang: Lang) {
    for _ in 0..rng.gen_range(2..6) {
        out.extend_from_slice(lexicon::pick(rng, lexicon::filler(lang)).as_bytes());
        out.push(b'\n');
    }
}

fn delimited(rng: &mut StdRng, tables: u16, approx: usize, sep: u8, lang: Lang) -> Vec<u8> {
    let mut out = Vec::with_capacity(approx.min(1 << 16));
    if tables == 0 {
        // A "dataset-shaped but not statistical" file: contact lists, link
        // registries — textual columns, no numeric majority.
        let header = ["name", "address", "contact", "notes"].map(String::from);
        push_row(&mut out, &header, sep);
        for _ in 0..rng.gen_range(10..40) {
            let row = vec![
                lexicon::title(rng, lang),
                format!("{} street", lexicon::pick(rng, lexicon::nouns(lang))),
                "office".to_owned(),
                lexicon::pick(rng, lexicon::filler(lang)).to_owned(),
            ];
            push_row(&mut out, &row, sep);
        }
    } else {
        for t in 0..tables {
            if t > 0 {
                out.push(b'\n'); // blank separator line: multi-region file
            }
            stat_table(rng, &mut out, sep, lang);
        }
    }
    pad_to(&mut out, approx, b'\n');
    out
}

fn pdf_like(rng: &mut StdRng, tables: u16, approx: usize, lang: Lang) -> Vec<u8> {
    let mut out = Vec::with_capacity(approx.min(1 << 16));
    out.extend_from_slice(b"%PDF-1.4\n");
    prose_block(rng, &mut out, lang);
    for _ in 0..tables {
        out.extend_from_slice(b"\n");
        // Whitespace-aligned table, like text extracted from a PDF.
        let rows = rng.gen_range(5..15usize);
        out.extend_from_slice(format!("{:<12}{:<12}{:>12}\n", "year", "region", "count").as_bytes());
        for r in 0..rows {
            out.extend_from_slice(
                format!(
                    "{:<12}{:<12}{:>12}\n",
                    1990 + (r % 35),
                    format!("R{:02}", rng.gen_range(1..20)),
                    rng.gen_range(0..5_000_000)
                )
                .as_bytes(),
            );
        }
        out.extend_from_slice(b"\n");
        prose_block(rng, &mut out, lang);
    }
    prose_block(rng, &mut out, lang);
    pad_to(&mut out, approx, b' ');
    out
}

/// Simulated spreadsheet: a sheet-per-line text container with explicit sheet
/// markers (a stand-in for real XLSX zip containers, which are out of scope).
fn sheet_like(rng: &mut StdRng, tables: u16, approx: usize, lang: Lang) -> Vec<u8> {
    let mut out = Vec::with_capacity(approx.min(1 << 16));
    out.extend_from_slice(b"#SHEETFILE v1\n");
    if tables == 0 {
        out.extend_from_slice(b"== Sheet: notes ==\n");
        prose_block(rng, &mut out, lang);
    }
    for t in 0..tables {
        out.extend_from_slice(format!("== Sheet: table{} ==\n", t + 1).as_bytes());
        stat_table(rng, &mut out, b'\t', lang);
    }
    pad_to(&mut out, approx, b'\n');
    out
}

fn json_like(rng: &mut StdRng, tables: u16, approx: usize, lang: Lang) -> Vec<u8> {
    let mut out = Vec::with_capacity(approx.min(1 << 16));
    out.extend_from_slice(b"{\n");
    if tables == 0 {
        out.extend_from_slice(b"  \"description\": \"site metadata\",\n  \"links\": [\"a\", \"b\"]\n");
    } else {
        for t in 0..tables {
            out.extend_from_slice(format!("  \"table{}\": [\n", t + 1).as_bytes());
            for r in 0..rng.gen_range(5..20usize) {
                out.extend_from_slice(
                    format!(
                        "    {{\"year\": {}, \"region\": \"R{:02}\", \"{}\": {}}},\n",
                        1990 + (r % 35),
                        rng.gen_range(1..20),
                        lexicon::pick(rng, lexicon::nouns(lang)),
                        rng.gen_range(0..5_000_000)
                    )
                    .as_bytes(),
                );
            }
            out.extend_from_slice(b"  ],\n");
        }
    }
    out.extend_from_slice(b"}\n");
    pad_to(&mut out, approx, b' ');
    out
}

fn yaml_like(rng: &mut StdRng, tables: u16, approx: usize, lang: Lang) -> Vec<u8> {
    let mut out = Vec::with_capacity(approx.min(1 << 16));
    if tables == 0 {
        out.extend_from_slice(b"kind: metadata\nnotes: textual\n");
    }
    for t in 0..tables {
        out.extend_from_slice(format!("table{}:\n", t + 1).as_bytes());
        for r in 0..rng.gen_range(5..15usize) {
            out.extend_from_slice(
                format!(
                    "  - {{year: {}, region: R{:02}, {}: {}}}\n",
                    1990 + (r % 35),
                    rng.gen_range(1..20),
                    lexicon::pick(rng, lexicon::nouns(lang)),
                    rng.gen_range(0..5_000_000)
                )
                .as_bytes(),
            );
        }
    }
    pad_to(&mut out, approx, b'\n');
    out
}

fn doc_like(rng: &mut StdRng, tables: u16, approx: usize, lang: Lang) -> Vec<u8> {
    // Word-processor text: like pdf_like without the magic header.
    let mut out = pdf_like(rng, tables, approx, lang);
    out.drain(..b"%PDF-1.4\n".len());
    let mut with_magic = b"#DOCFILE v1\n".to_vec();
    with_magic.extend_from_slice(&out);
    with_magic.truncate(approx.max(16));
    with_magic
}

/// Archives and unknown formats: magic bytes + pseudo-random payload. Any
/// SDs inside are invisible without extraction (documented limitation,
/// mirroring the paper's treatment of ZIPs in Table 7 sampling).
fn opaque(rng: &mut StdRng, ext: &str, approx: usize) -> Vec<u8> {
    let magic: &[u8] = match ext {
        "zip" => b"PK\x03\x04",
        "gz" => b"\x1f\x8b\x08",
        "7z" => b"7z\xbc\xaf\x27\x1c",
        "rar" => b"Rar!\x1a\x07",
        "tar" => b"ustar",
        _ => b"BIN\x00",
    };
    let mut out = Vec::with_capacity(approx.min(1 << 16).max(magic.len()));
    out.extend_from_slice(magic);
    while out.len() < approx.min(BODY_CAP) {
        out.push(rng.gen());
    }
    out
}

fn pad_to(out: &mut Vec<u8>, approx: usize, fill: u8) {
    let want = approx.min(BODY_CAP);
    if out.len() < want {
        // Pad with comment-ish filler so parsers aren't confused.
        out.resize(want, fill);
    }
    out.truncate(BODY_CAP);
}
