//! URL parsing, normalisation and the website-boundary rule of Sec 2.2.
//!
//! The paper identifies pages by URL and decides site membership
//! pragmatically: a URL belongs to the website of root `r` iff its hostname
//! (minus a possible `www.` prefix) **is a subdomain of** (or equal to) the
//! hostname of `r`. So with root `https://www.A.B.com/index.php`,
//! `https://www.C.A.B.com/page.html` is in, `https://www.B.com/page.php` is
//! out. This module implements that rule plus the usual crawler chores:
//! resolving relative references, stripping fragments and extracting the
//! file extension used by the blocklists.

use std::fmt;

/// A parsed absolute http(s) URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: String,
    /// Hostname, lowercase. A port other than the scheme's default stays
    /// on it verbatim (`a.com:8080`); an empty or default one is dropped.
    pub host: String,
    /// Path, always starting with `/`.
    pub path: String,
    /// Query string without the leading `?`, empty if none.
    pub query: String,
}

/// Errors when parsing an absolute URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlError {
    /// Scheme missing or not http/https.
    BadScheme,
    /// No hostname.
    NoHost,
}

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlError::BadScheme => f.write_str("URL scheme is not http(s)"),
            UrlError::NoHost => f.write_str("URL has no hostname"),
        }
    }
}

impl std::error::Error for UrlError {}

impl Url {
    /// Parses an absolute URL. Fragments (`#…`) are dropped: they never
    /// change the fetched resource.
    pub fn parse(s: &str) -> Result<Url, UrlError> {
        let mut url = Url::blank();
        Url::parse_into(s, &mut url)?;
        Ok(url)
    }

    /// [`Url::parse`] into `out`'s own buffers: a warmed `out` never
    /// allocates. On `Err`, `out` holds unspecified components; the next
    /// `Ok` overwrites all four.
    pub fn parse_into(s: &str, out: &mut Url) -> Result<(), UrlError> {
        let (scheme, rest) = s.trim().split_once("://").ok_or(UrlError::BadScheme)?;
        write_absolute(scheme, rest, out)
    }

    /// Resolves `reference` (absolute, protocol-relative, root-relative,
    /// relative or query-only) against `self` as base.
    pub fn join(&self, reference: &str) -> Result<Url, UrlError> {
        let mut url = Url::blank();
        self.join_into(reference, &mut url)?;
        Ok(url)
    }

    /// [`Url::join`] into `out`'s own buffers — the per-link form: the
    /// crawl session resolves every href of every page into one scratch
    /// `Url` and copies out only the links it admits. Same `Err` contract
    /// as [`Url::parse_into`].
    pub fn join_into(&self, reference: &str, out: &mut Url) -> Result<(), UrlError> {
        let r = reference.trim();
        let r = r.split('#').next().unwrap_or("");
        if r.is_empty() {
            out.copy_from(self);
            return Ok(());
        }
        // Absolute only when an RFC 3986 scheme is followed by `://` at the
        // very start. A scheme cannot contain `:`, so the first one decides:
        // `/login?next=https://a.com/x` is a relative reference.
        if let Some((scheme, rest)) = r.split_once(':') {
            if is_scheme(scheme) {
                if let Some(rest) = rest.strip_prefix("//") {
                    return write_absolute(scheme, rest.trim_end(), out);
                }
            }
        }
        if let Some(rest) = r.strip_prefix("//") {
            return write_absolute(&self.scheme, rest.trim_end(), out);
        }
        out.scheme.clone_from(&self.scheme);
        out.host.clone_from(&self.host);
        if let Some(q) = r.strip_prefix('?') {
            out.path.clone_from(&self.path);
            set(&mut out.query, q);
            return Ok(());
        }
        let (ref_path, query) = r.split_once('?').unwrap_or((r, ""));
        if ref_path.starts_with('/') {
            normalize_path(ref_path, &mut out.path);
        } else {
            // Relative to the base path's directory. The two halves are
            // normalised as one stream — no `format!("{dir}{ref_path}")`
            // scratch string (this runs once per discovered link).
            let dir = match self.path.rfind('/') {
                Some(pos) => &self.path[..=pos],
                None => "/",
            };
            normalize_segments(
                dir.split('/').chain(ref_path.split('/')),
                ref_path.ends_with('/'),
                dir.len() + ref_path.len(),
                &mut out.path,
            );
        }
        set(&mut out.query, query);
        Ok(())
    }

    /// The empty value `parse`/`join` resolve into (never handed out).
    fn blank() -> Url {
        Url { scheme: String::new(), host: String::new(), path: String::new(), query: String::new() }
    }

    /// `*self = src.clone()`, keeping `self`'s buffers.
    fn copy_from(&mut self, src: &Url) {
        self.scheme.clone_from(&src.scheme);
        self.host.clone_from(&src.host);
        self.path.clone_from(&src.path);
        self.query.clone_from(&src.query);
    }

    /// Hostname with a leading `www.` removed — the paper's footnote-1 rule.
    fn host_sans_www(&self) -> &str {
        self.host.strip_prefix("www.").unwrap_or(&self.host)
    }

    /// Website-boundary test of Sec 2.2: is `self` part of the site rooted at
    /// `root`? True iff `self`'s www-stripped host equals or is a subdomain
    /// of `root`'s www-stripped host.
    pub fn same_site_as(&self, root: &Url) -> bool {
        // Byte-wise suffix check: this runs once per discovered link, so no
        // `format!(".{theirs}")` scratch allocation is tolerable here.
        let mine = self.host_sans_www().as_bytes();
        let theirs = root.host_sans_www().as_bytes();
        mine == theirs
            || (mine.len() > theirs.len()
                && mine[mine.len() - theirs.len() - 1] == b'.'
                && mine.ends_with(theirs))
    }

    /// Extension of the last path segment, if any, **in original case**
    /// (`/a/b/file.CSV` → `CSV`). Query strings don't count. Compare with
    /// `eq_ignore_ascii_case` — returning a borrowed slice keeps this
    /// allocation-free on the per-link hot path.
    pub(crate) fn extension(&self) -> Option<&str> {
        let last = self.path.rsplit('/').next()?;
        let (stem, ext) = last.rsplit_once('.')?;
        if stem.is_empty() || ext.is_empty() || ext.len() > 10 {
            return None;
        }
        if !ext.bytes().all(|b| b.is_ascii_alphanumeric()) {
            return None;
        }
        Some(ext)
    }

    /// Canonical string form.
    pub fn as_string(&self) -> String {
        let mut s =
            String::with_capacity(self.scheme.len() + 3 + self.host.len() + self.path.len() + self.query.len() + 1);
        s.push_str(&self.scheme);
        s.push_str("://");
        s.push_str(&self.host);
        s.push_str(&self.path);
        if !self.query.is_empty() {
            s.push('?');
            s.push_str(&self.query);
        }
        s
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_string())
    }
}

/// `ALPHA *( ALPHA / DIGIT / "+" / "-" / "." )` (RFC 3986 §3.1).
fn is_scheme(s: &str) -> bool {
    let b = s.as_bytes();
    b.first().is_some_and(u8::is_ascii_alphabetic)
        && b.iter().all(|c| c.is_ascii_alphanumeric() || matches!(c, b'+' | b'-' | b'.'))
}

/// Overwrites `dst` with `src`, keeping `dst`'s buffer.
fn set(dst: &mut String, src: &str) {
    dst.clear();
    dst.push_str(src);
}

/// The one resolver behind `parse_into` and the absolute and
/// protocol-relative branches of `join_into`: writes `scheme://rest` into
/// `out`, where `rest` is everything after the `://`.
fn write_absolute(scheme: &str, rest: &str, out: &mut Url) -> Result<(), UrlError> {
    if !scheme.eq_ignore_ascii_case("http") && !scheme.eq_ignore_ascii_case("https") {
        return Err(UrlError::BadScheme);
    }
    let rest = rest.split('#').next().unwrap_or("");
    let (authority, path_query) = match rest.find('/') {
        Some(pos) => (&rest[..pos], &rest[pos..]),
        None => match rest.find('?') {
            Some(pos) => (&rest[..pos], &rest[pos..]),
            None => (rest, ""),
        },
    };
    // Strip userinfo if any.
    let host = authority.rsplit('@').next().unwrap_or(authority);
    let host = without_default_port(scheme, host);
    if host.is_empty() {
        return Err(UrlError::NoHost);
    }
    let (path, query) = path_query.split_once('?').unwrap_or((path_query, ""));
    set(&mut out.scheme, scheme);
    out.scheme.make_ascii_lowercase();
    set(&mut out.host, host);
    out.host.make_ascii_lowercase();
    // An empty path normalises to `/`.
    normalize_path(path, &mut out.path);
    set(&mut out.query, query);
    Ok(())
}

/// `host` without its port when the port is empty or the scheme's default
/// (`:80` for http, `:443` for https; RFC 3986 §6.2.3), so `https://a.com:443/x`
/// and `https://a.com/x` are one URL. Any other port stays verbatim. A colon
/// followed by anything but digits is no port (the `[::1]` of an IPv6
/// literal).
fn without_default_port<'h>(scheme: &str, host: &'h str) -> &'h str {
    let Some((name, port)) = host.rsplit_once(':') else {
        return host;
    };
    if !port.bytes().all(|b| b.is_ascii_digit()) {
        return host;
    }
    let default = if scheme.eq_ignore_ascii_case("https") { 443 } else { 80 };
    if port.is_empty() || port.parse::<u32>() == Ok(default) {
        name
    } else {
        host
    }
}

/// Collapses `.` and `..` segments and duplicate slashes.
fn normalize_path(path: &str, out: &mut String) {
    normalize_segments(path.split('/'), path.ends_with('/'), path.len(), out);
}

/// Single-pass normalisation of a segment stream into `p`'s buffer (one
/// allocation when it is fresh, none once it is warm): `..` pops by
/// truncating to the previous `/` instead of via a segment `Vec` + `join`.
fn normalize_segments<'a>(
    segments: impl Iterator<Item = &'a str>,
    trailing_slash: bool,
    capacity_hint: usize,
    p: &mut String,
) {
    p.clear();
    p.reserve(capacity_hint + 1);
    p.push('/');
    for seg in segments {
        match seg {
            "" | "." => {}
            ".." => {
                if p.len() > 1 {
                    let cut = p.rfind('/').unwrap_or(0);
                    p.truncate(cut.max(1));
                }
            }
            s => {
                if !p.ends_with('/') {
                    p.push('/');
                }
                p.push_str(s);
            }
        }
    }
    if trailing_slash && !p.ends_with('/') {
        p.push('/');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn parse_basic() {
        let url = u("https://www.A.B.com/folder/content.php?x=1#frag");
        assert_eq!(url.scheme, "https");
        assert_eq!(url.host, "www.a.b.com");
        assert_eq!(url.path, "/folder/content.php");
        assert_eq!(url.query, "x=1");
    }

    #[test]
    fn parse_no_path() {
        assert_eq!(u("http://a.com").path, "/");
        assert_eq!(u("http://a.com?x=1").query, "x=1");
    }

    #[test]
    fn rejects_non_http() {
        assert_eq!(Url::parse("ftp://a.com/x"), Err(UrlError::BadScheme));
        assert_eq!(Url::parse("mailto:a@b.c"), Err(UrlError::BadScheme));
        assert_eq!(Url::parse("/relative/only"), Err(UrlError::BadScheme));
    }

    /// The exact examples of Sec 2.2.
    #[test]
    fn paper_site_boundary_examples() {
        let root = u("https://www.A.B.com/index.php");
        assert!(u("https://www.A.B.com/folder/content.php").same_site_as(&root));
        assert!(u("https://www.C.A.B.com/page.html").same_site_as(&root));
        assert!(!u("https://www.B.com/page.php").same_site_as(&root));
        assert!(!u("https://edbticdt2026.github.io/?contents=EDBT_CFP.html").same_site_as(&root));
    }

    #[test]
    fn www_stripping_is_symmetric() {
        let root = u("https://nces.ed.gov/");
        assert!(u("https://www.nces.ed.gov/x").same_site_as(&root));
        let root2 = u("https://www.justice.gouv.fr/");
        assert!(u("https://justice.gouv.fr/en/node/9961").same_site_as(&root2));
    }

    #[test]
    fn subdomain_requires_dot_boundary() {
        let root = u("https://b.com/");
        assert!(!u("https://evilb.com/").same_site_as(&root));
        assert!(u("https://a.b.com/").same_site_as(&root));
    }

    #[test]
    fn join_absolute_and_relative() {
        let base = u("https://a.com/dir/page.html");
        assert_eq!(base.join("https://x.org/y").unwrap().host, "x.org");
        assert_eq!(base.join("/root.csv").unwrap().path, "/root.csv");
        assert_eq!(base.join("sub/file.pdf").unwrap().path, "/dir/sub/file.pdf");
        assert_eq!(base.join("../up.xls").unwrap().path, "/up.xls");
        assert_eq!(base.join("?page=2").unwrap().query, "page=2");
        assert_eq!(base.join("?page=2").unwrap().path, "/dir/page.html");
        assert_eq!(base.join("//cdn.a.com/y").unwrap().host, "cdn.a.com");
    }

    #[test]
    fn join_drops_fragment() {
        let base = u("https://a.com/dir/");
        assert_eq!(base.join("x.html#sec").unwrap().path, "/dir/x.html");
    }

    /// A reference is absolute only when a scheme and `://` open it; a URL
    /// carried in a query or path does not make it one.
    #[test]
    fn join_embedded_url_is_not_absolute() {
        let base = u("https://a.com/dir/page.html");
        assert_eq!(
            base.join("/login?next=https://a.com/x").unwrap().to_string(),
            "https://a.com/login?next=https://a.com/x"
        );
        assert_eq!(
            base.join("share?u=http://b.org/").unwrap().to_string(),
            "https://a.com/dir/share?u=http://b.org/"
        );
        assert_eq!(
            base.join("?to=https://a.com/").unwrap().to_string(),
            "https://a.com/dir/page.html?to=https://a.com/"
        );
        assert_eq!(base.join("HTTPS://A.com/X").unwrap().to_string(), "https://a.com/X");
        assert_eq!(
            base.join("//cdn.a.com/y?u=http://x").unwrap().to_string(),
            "https://cdn.a.com/y?u=http://x"
        );
        assert_eq!(base.join("ftp://a.com/x"), Err(UrlError::BadScheme));
    }

    /// Every branch overwrites all four components of a dirty destination.
    #[test]
    fn into_variants_overwrite_a_dirty_destination() {
        let base = u("https://a.com/dir/page.html?old=1");
        let mut out = u("http://stale.example/very/long/stale/path?stale=query");
        for r in ["https://x.org/y", "//cdn.a.com/y", "?page=2", "/root.csv", "../up.xls?v=3", "", "#top"] {
            base.join_into(r, &mut out).unwrap();
            assert_eq!(out, base.join(r).unwrap(), "{r}");
        }
        assert_eq!(base.join_into("ftp://x/", &mut out), Err(UrlError::BadScheme));
        Url::parse_into("http://B.com", &mut out).unwrap();
        assert_eq!(out, u("http://b.com/"));
    }

    #[test]
    fn extension_extraction() {
        // Original case is preserved; callers compare case-insensitively.
        assert!(u("https://a.com/f/data.CSV").extension().unwrap().eq_ignore_ascii_case("csv"));
        assert_eq!(u("https://a.com/f/archive.tar.gz").extension(), Some("gz"));
        assert_eq!(u("https://a.com/en/node/9961").extension(), None);
        assert_eq!(u("https://a.com/.hidden").extension(), None);
        assert_eq!(u("https://a.com/x.csv?dl=1").extension(), Some("csv"));
        assert_eq!(u("https://a.com/weird.d-t").extension(), None);
    }

    #[test]
    fn normalize_collapses_dots_and_slashes() {
        assert_eq!(u("https://a.com//x///y/./z/../w").path, "/x/y/w");
        assert_eq!(u("https://a.com/a/b/").path, "/a/b/");
    }

    /// An empty or default port is dropped, so both spellings of a URL
    /// intern as one, fingerprint as one and stay on their site; any other
    /// port stays.
    #[test]
    fn default_ports_are_dropped() {
        use crate::interner::{fnv64, fp_of_url, url_eq_canonical};
        let base = u("https://a.com/dir/page.html");
        for (url, canonical) in [
            (u("https://a.com:443/x"), "https://a.com/x"),
            (u("http://a.com:80/x?q=1"), "http://a.com/x?q=1"),
            (u("http://a.com:/x"), "http://a.com/x"),
            (u("HTTPS://A.com:443"), "https://a.com/"),
            (u("https://user:pw@a.com:0443/x"), "https://a.com/x"),
            (u("https://[::1]:443/x"), "https://[::1]/x"),
            (base.join("//a.com:443/y").unwrap(), "https://a.com/y"),
            (base.join("http://a.com:80").unwrap(), "http://a.com/"),
            (u("https://a.com:80/x"), "https://a.com:80/x"),
            (u("http://a.com:443/x"), "http://a.com:443/x"),
            (u("http://a.com:8080/x"), "http://a.com:8080/x"),
            (u("https://[::1]/x"), "https://[::1]/x"),
        ] {
            assert_eq!(url.as_string(), canonical);
            assert_eq!(url, u(canonical), "{canonical}");
            assert_eq!(fp_of_url(&url), fnv64(canonical.as_bytes()), "{canonical}");
            assert!(url_eq_canonical(&url, canonical), "{canonical}");
        }
        assert!(u("https://a.com:443/x").same_site_as(&u("https://www.a.com/")));
        assert_eq!(Url::parse("https://:443/x"), Err(UrlError::NoHost));
    }

    #[test]
    fn display_roundtrip() {
        for s in ["https://a.b.com/x/y.csv?q=1", "http://a.com/", "https://a.com/p"] {
            assert_eq!(u(s).to_string(), s);
            assert_eq!(u(&u(s).to_string()), u(s));
        }
    }
}
