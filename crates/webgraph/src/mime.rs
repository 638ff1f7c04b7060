//! MIME types, target definitions and blocklists.
//!
//! Per Sec 2.2 the crawl's *targets* are pages whose MIME type belongs to a
//! **user-defined list**; the default here is the 38-type list of the paper's
//! Appendix A.2. Non-target types include `text/html`, `video/*`, `audio/*`,
//! `image/*`. The multimedia MIME/extension blocklists of Appendix B.3 let the
//! crawler abort downloads early and skip links without spending requests.

use crate::url::Url;

/// The three URL classes of Sec 3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UrlClass {
    /// An HTML page: goes to the frontier.
    Html,
    /// A target data file: contributes reward.
    Target,
    /// Errors (4xx/5xx), non-target MIME types, or no MIME type at all.
    Neither,
}

/// The 38 default target MIME types (Appendix A.2, verbatim).
const DEFAULT_TARGET_MIME_TYPES: [&str; 38] = [
    "application/csv",
    "application/json",
    "application/msword",
    "application/octet-stream",
    "application/pdf",
    "application/rdf+xml",
    "application/rss+xml",
    "application/vnd.ms-excel",
    "application/vnd.ms-excel.sheet.macroenabled.12",
    "application/vnd.oasis.opendocument.presentation",
    "application/vnd.oasis.opendocument.spreadsheet",
    "application/vnd.oasis.opendocument.text",
    "application/vnd.openxmlformats-officedocument.presentationml.presentation",
    "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet",
    "application/vnd.openxmlformats-officedocument.wordprocessingml.document",
    "application/vnd.openxmlformats-officedocument.wordprocessingml.template",
    "application/vnd.rar",
    "application/x-7z-compressed",
    "application/x-csv",
    "application/x-gtar",
    "application/x-gzip",
    "application/xml",
    "application/x-pdf",
    "application/x-rar-compressed",
    "application/x-tar",
    "application/x-yaml",
    "application/x-zip-compressed",
    "application/yaml",
    "application/zip",
    "application/zip-compressed",
    "text/comma-separated-values",
    "text/csv",
    "text/json",
    "text/plain",
    "text/x-comma-separated-values",
    "text/x-csv",
    "text/x-yaml",
    "text/yaml",
];

/// Multimedia URL extensions blocked before classification (Appendix B.3;
/// a representative subset — the full paper list is mechanical).
const DEFAULT_BLOCKED_EXTENSIONS: [&str; 58] = [
    "3gp", "aac", "aif", "aiff", "avi", "avif", "bmp", "djvu", "flac", "flv", "gif", "h264",
    "heic", "heif", "ico", "jfif", "jpe", "jpeg", "jpg", "m4a", "m4v", "mid", "midi", "mkv",
    "mov", "mp2", "mp3", "mp4", "mpeg", "mpg", "oga", "ogg", "ogv", "opus", "pbm", "pcx",
    "pgm", "png", "pnm", "ppm", "psd", "qt", "ra", "ram", "raw", "svg", "svgz", "tif",
    "tiff", "wav", "weba", "webm", "webp", "wma", "wmv", "xbm", "xpm", "xwd",
];

/// Decides target/HTML/neither from a set of configured target MIME types.
#[derive(Debug, Clone)]
pub struct MimePolicy {
    target_types: Vec<String>,
    blocked_mime_prefixes: Vec<String>,
    blocked_extensions: Vec<String>,
}

impl Default for MimePolicy {
    fn default() -> Self {
        MimePolicy {
            target_types: DEFAULT_TARGET_MIME_TYPES.iter().map(|s| (*s).to_owned()).collect(),
            blocked_mime_prefixes: vec!["image/".into(), "audio/".into(), "video/".into()],
            blocked_extensions: DEFAULT_BLOCKED_EXTENSIONS.iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

impl MimePolicy {
    /// A policy with a custom target list (e.g. PDFs only) and the default
    /// multimedia blocklists.
    pub fn with_targets<I, S>(targets: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        MimePolicy {
            target_types: targets.into_iter().map(|s| normalize_mime(&s.into())).collect(),
            ..MimePolicy::default()
        }
    }

    /// Replaces the extension blocklist.
    pub fn with_blocked_extensions<I, S>(mut self, exts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.blocked_extensions = exts.into_iter().map(|s| s.into().to_ascii_lowercase()).collect();
        self
    }

    /// Is this (normalised) MIME type a target?
    pub fn is_target_mime(&self, mime: &str) -> bool {
        let m = normalize_mime(mime);
        self.target_types.iter().any(|t| t == &m)
    }

    /// Is this MIME type HTML?
    pub fn is_html_mime(&self, mime: &str) -> bool {
        let m = normalize_mime(mime);
        m == "text/html" || m == "application/xhtml+xml"
    }

    /// Should a download of this MIME type be interrupted (multimedia)?
    pub fn is_blocked_mime(&self, mime: &str) -> bool {
        let m = normalize_mime(mime);
        self.blocked_mime_prefixes.iter().any(|p| m.starts_with(p.as_str()))
    }

    /// Should this URL be skipped outright because of its extension?
    pub fn has_blocked_extension(&self, url: &Url) -> bool {
        match url.extension() {
            // The blocklist is stored lowercase; the URL side keeps its
            // original case, so compare case-insensitively without
            // allocating a lowercased copy per link.
            Some(ext) => self.blocked_extensions.iter().any(|b| b.eq_ignore_ascii_case(ext)),
            None => false,
        }
    }

    /// Classifies a *served* MIME type (ground truth, not a prediction).
    pub fn classify_mime(&self, mime: Option<&str>) -> UrlClass {
        match mime {
            None => UrlClass::Neither,
            Some(m) if self.is_html_mime(m) => UrlClass::Html,
            Some(m) if self.is_target_mime(m) => UrlClass::Target,
            Some(_) => UrlClass::Neither,
        }
    }

    pub fn target_types(&self) -> &[String] {
        &self.target_types
    }
}

/// Strips parameters (`; charset=utf-8`) and lowercases.
pub fn normalize_mime(mime: &str) -> String {
    mime.split(';').next().unwrap_or("").trim().to_ascii_lowercase()
}

/// Canonical MIME type for a file extension, for URL synthesis and servers.
pub fn mime_for_extension(ext: &str) -> Option<&'static str> {
    Some(match ext.to_ascii_lowercase().as_str() {
        "html" | "htm" | "php" | "asp" | "aspx" | "jsp" => "text/html",
        "csv" => "text/csv",
        "tsv" | "txt" => "text/plain",
        "json" => "application/json",
        "pdf" => "application/pdf",
        "xls" => "application/vnd.ms-excel",
        "xlsx" => "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet",
        "doc" => "application/msword",
        "docx" => "application/vnd.openxmlformats-officedocument.wordprocessingml.document",
        "ods" => "application/vnd.oasis.opendocument.spreadsheet",
        "odt" => "application/vnd.oasis.opendocument.text",
        "xml" => "application/xml",
        "rdf" => "application/rdf+xml",
        "yaml" | "yml" => "application/yaml",
        "zip" => "application/zip",
        "gz" => "application/x-gzip",
        "tar" => "application/x-tar",
        "7z" => "application/x-7z-compressed",
        "rar" => "application/vnd.rar",
        "dta" => "application/octet-stream",
        "png" => "image/png",
        "jpg" | "jpeg" => "image/jpeg",
        "gif" => "image/gif",
        "svg" => "image/svg+xml",
        "mp3" => "audio/mpeg",
        "mp4" => "video/mp4",
        "webm" => "video/webm",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_classifies_paper_types() {
        let p = MimePolicy::default();
        assert!(p.is_target_mime("text/csv"));
        assert!(p.is_target_mime("application/pdf"));
        assert!(p.is_target_mime("application/vnd.ms-excel"));
        assert!(!p.is_target_mime("text/html"));
        assert!(!p.is_target_mime("image/png"));
        assert_eq!(p.target_types().len(), 38);
    }

    #[test]
    fn mime_parameters_stripped() {
        let p = MimePolicy::default();
        assert!(p.is_target_mime("text/csv; charset=utf-8"));
        assert!(p.is_html_mime("TEXT/HTML; charset=ISO-8859-1"));
    }

    #[test]
    fn classify_three_way() {
        let p = MimePolicy::default();
        assert_eq!(p.classify_mime(Some("text/html")), UrlClass::Html);
        assert_eq!(p.classify_mime(Some("text/csv")), UrlClass::Target);
        assert_eq!(p.classify_mime(Some("video/mp4")), UrlClass::Neither);
        assert_eq!(p.classify_mime(None), UrlClass::Neither);
    }

    #[test]
    fn multimedia_blocked() {
        let p = MimePolicy::default();
        assert!(p.is_blocked_mime("image/png"));
        assert!(p.is_blocked_mime("video/mp4; codecs=h264"));
        assert!(!p.is_blocked_mime("application/pdf"));
    }

    #[test]
    fn extension_blocklist() {
        let p = MimePolicy::default();
        let img = Url::parse("https://a.com/x/photo.JPG").unwrap();
        let csv = Url::parse("https://a.com/x/data.csv").unwrap();
        let none = Url::parse("https://a.com/en/node/9961").unwrap();
        assert!(p.has_blocked_extension(&img));
        assert!(!p.has_blocked_extension(&csv));
        assert!(!p.has_blocked_extension(&none));
    }

    #[test]
    fn custom_targets() {
        let p = MimePolicy::with_targets(["application/pdf"]);
        assert!(p.is_target_mime("application/pdf"));
        assert!(!p.is_target_mime("text/csv"));
    }

    #[test]
    fn extension_to_mime() {
        assert_eq!(mime_for_extension("csv"), Some("text/csv"));
        assert_eq!(mime_for_extension("XLSX"), Some("application/vnd.openxmlformats-officedocument.spreadsheetml.sheet"));
        assert_eq!(mime_for_extension("nope"), None);
    }
}
