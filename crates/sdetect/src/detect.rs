//! Top-level detection: format sniffing + dispatch.

use crate::{delimited, records, textual};

/// Recognised container formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    Csv,
    Tsv,
    SemicolonSv,
    Pdf,
    Sheet,
    Doc,
    Json,
    Yaml,
    /// Archives and unknown binaries: tables inside are invisible.
    Opaque,
}

impl Format {
    /// Can this format carry tables that the detector can see?
    pub fn detectable(self) -> bool {
        self != Format::Opaque
    }
}

/// One detected statistic table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedTable {
    pub rows: usize,
    pub cols: usize,
}

/// Detection result for one target file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    pub format: Format,
    pub tables: Vec<DetectedTable>,
}

impl Detection {
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    pub fn has_sd(&self) -> bool {
        !self.tables.is_empty()
    }
}

/// Sniffs the container format from magic bytes, falling back to MIME type.
pub fn sniff(body: &[u8], mime: &str) -> Format {
    if body.starts_with(b"%PDF") {
        return Format::Pdf;
    }
    if body.starts_with(b"#SHEETFILE") {
        return Format::Sheet;
    }
    if body.starts_with(b"#DOCFILE") {
        return Format::Doc;
    }
    if body.starts_with(b"PK\x03\x04")
        || body.starts_with(b"\x1f\x8b")
        || body.starts_with(b"7z\xbc\xaf")
        || body.starts_with(b"Rar!")
        || body.starts_with(b"ustar")
        || body.starts_with(b"BIN\x00")
    {
        return Format::Opaque;
    }
    let m = mime.split(';').next().unwrap_or("").trim().to_ascii_lowercase();
    match m.as_str() {
        "text/csv" | "application/csv" | "application/x-csv" | "text/x-csv"
        | "text/comma-separated-values" | "text/x-comma-separated-values" => Format::Csv,
        "text/tab-separated-values" => Format::Tsv,
        "application/json" | "text/json" => Format::Json,
        "application/yaml" | "application/x-yaml" | "text/yaml" | "text/x-yaml" => Format::Yaml,
        "application/pdf" | "application/x-pdf" => Format::Pdf,
        "application/msword"
        | "application/vnd.openxmlformats-officedocument.wordprocessingml.document" => Format::Doc,
        "application/vnd.ms-excel"
        | "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet"
        | "application/vnd.oasis.opendocument.spreadsheet" => Format::Sheet,
        "text/plain" => sniff_plain(body),
        _ => Format::Opaque,
    }
}

/// text/plain carries CSV-ish exports with various separators.
fn sniff_plain(body: &[u8]) -> Format {
    let text = String::from_utf8_lossy(&body[..body.len().min(4096)]);
    let first_lines: Vec<&str> = text.lines().take(5).collect();
    let count = |c: char| first_lines.iter().map(|l| l.matches(c).count()).sum::<usize>();
    let (tabs, commas, semis) = (count('\t'), count(','), count(';'));
    if tabs >= commas && tabs >= semis && tabs > 0 {
        Format::Tsv
    } else if semis > commas && semis > 0 {
        Format::SemicolonSv
    } else if commas > 0 {
        Format::Csv
    } else {
        Format::Doc // free text: try aligned-column detection
    }
}

/// Detects statistic tables in a target file.
pub fn detect_tables(body: &[u8], mime: &str) -> Detection {
    let format = sniff(body, mime);
    // One decode per textual branch, none for an opaque body: borrowed when
    // the body is valid UTF-8, so a well-formed target pays no copy.
    let text = || String::from_utf8_lossy(body);
    let tables = match format {
        Format::Opaque => Vec::new(),
        Format::Csv => delimited::detect(&text(), ','),
        Format::Tsv => delimited::detect(&text(), '\t'),
        Format::SemicolonSv => delimited::detect(&text(), ';'),
        Format::Json | Format::Yaml => records::detect(&text()),
        Format::Pdf | Format::Doc => textual::detect(&text()),
        Format::Sheet => {
            // Sheets: each "== Sheet: … ==" section is a TSV block.
            let mut tables = Vec::new();
            for section in text().split("== Sheet:").skip(1) {
                let content: String =
                    section.lines().skip(1).collect::<Vec<_>>().join("\n");
                tables.extend(delimited::detect(&content, '\t'));
            }
            tables
        }
    };
    Detection { format, tables }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniffs_magic_over_mime() {
        assert_eq!(sniff(b"%PDF-1.4 junk", "text/csv"), Format::Pdf);
        assert_eq!(sniff(b"PK\x03\x04zipzip", "text/csv"), Format::Opaque);
        assert_eq!(sniff(b"#SHEETFILE v1\n", "application/pdf"), Format::Sheet);
    }

    #[test]
    fn sniffs_mime_when_no_magic() {
        assert_eq!(sniff(b"year,count\n", "text/csv"), Format::Csv);
        assert_eq!(sniff(b"{}", "application/json"), Format::Json);
        assert_eq!(sniff(b"x", "application/octet-stream"), Format::Opaque);
    }

    #[test]
    fn plain_text_separator_sniffing() {
        assert_eq!(sniff(b"a\tb\n1\t2\n", "text/plain"), Format::Tsv);
        assert_eq!(sniff(b"a;b\n1;2\n", "text/plain"), Format::SemicolonSv);
        assert_eq!(sniff(b"a,b\n1,2\n", "text/plain"), Format::Csv);
        assert_eq!(sniff(b"just prose here\n", "text/plain"), Format::Doc);
    }

    #[test]
    fn end_to_end_on_generated_bodies() {
        use sb_webgraph::content::target_body;
        use sb_webgraph::gen::Lang;
        // The detector must recover the planted table counts on every
        // detectable format.
        for (ext, mime) in [
            ("csv", "text/csv"),
            ("tsv", "text/plain"),
            ("pdf", "application/pdf"),
            ("xlsx", "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet"),
            ("json", "application/json"),
            ("yaml", "application/yaml"),
        ] {
            for planted in [0u16, 1, 3] {
                let body = target_body(42, ext, planted, 16384, Lang::En);
                let d = detect_tables(&body, mime);
                assert_eq!(
                    d.n_tables(),
                    planted as usize,
                    "format {ext}, planted {planted}, got {:?}",
                    d
                );
            }
        }
    }

    #[test]
    fn archives_detect_nothing() {
        use sb_webgraph::content::target_body;
        use sb_webgraph::gen::Lang;
        let body = target_body(1, "zip", 5, 8192, Lang::En);
        let d = detect_tables(&body, "application/zip");
        assert_eq!(d.format, Format::Opaque);
        assert_eq!(d.n_tables(), 0);
    }
}
