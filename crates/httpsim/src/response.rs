//! HTTP message types for the simulated transport.
//!
//! Only what a crawler observes is modelled: status code, the three headers
//! that matter (`Content-Type`, `Content-Length`, `Location`) and the body.
//! Header wire size is estimated so that HEAD-request costs `c(u)` can be
//! accounted in volume mode (Sec 2.2: "much smaller than ω(u)").
//!
//! Bodies are [`Body`] — shared, immutable byte buffers — so a `Response`
//! clone (the server's render cache, a serving store's page version) is a
//! pointer copy, not a buffer copy.

use std::sync::Arc;

/// A response body: immutable shared bytes, cheap to clone.
///
/// Dereferences to `&[u8]`, so existing `&response.body` call sites keep
/// working. Construct from `Vec<u8>`, `&[u8]` or an existing `Arc<[u8]>`
/// (the latter is what the site server's render cache hands out — zero
/// copies per request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body(Arc<[u8]>);

impl Body {
    /// The shared empty body.
    pub fn empty() -> Body {
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        Body(Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new()))))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

impl std::ops::Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body(Arc::from(v))
    }
}

impl From<&[u8]> for Body {
    fn from(v: &[u8]) -> Body {
        Body(Arc::from(v))
    }
}

impl From<Arc<[u8]>> for Body {
    fn from(v: Arc<[u8]>) -> Body {
        Body(v)
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body(Arc::from(s.into_bytes()))
    }
}

impl FromIterator<u8> for Body {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Body {
        Body(iter.into_iter().collect())
    }
}

/// Response headers (the crawler-relevant subset).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    pub content_type: Option<String>,
    pub content_length: Option<u64>,
    pub location: Option<String>,
}

impl Headers {
    /// Approximate on-the-wire size of the status line plus headers.
    pub fn wire_size(&self) -> u64 {
        let mut n = 96u64; // status line + date + server + connection
        if let Some(ct) = &self.content_type {
            n += 16 + ct.len() as u64;
        }
        if self.content_length.is_some() {
            n += 24;
        }
        if let Some(loc) = &self.location {
            n += 12 + loc.len() as u64;
        }
        n
    }
}

/// A HEAD response: status and headers only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadResponse {
    pub status: u16,
    pub headers: Headers,
}

impl HeadResponse {
    pub fn wire_size(&self) -> u64 {
        self.headers.wire_size()
    }
}

/// A GET response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub headers: Headers,
    /// The body as delivered. Huge files are truncated to a cap; the
    /// *declared* `Content-Length` is authoritative for volume accounting.
    pub body: Body,
}

impl Response {
    /// Declared body size: `Content-Length` if present, else actual length.
    pub fn declared_len(&self) -> u64 {
        self.headers.content_length.unwrap_or(self.body.len() as u64)
    }

    /// Full wire size of the response (headers + declared body).
    pub fn wire_size(&self) -> u64 {
        self.headers.wire_size() + self.declared_len()
    }

    pub fn head(&self) -> HeadResponse {
        HeadResponse { status: self.status, headers: self.headers.clone() }
    }
}

/// Builds a minimal 404/500-style response.
pub fn error_response(status: u16) -> Response {
    let body: Body = format!("<html><body><h1>{status}</h1></body></html>").into();
    Response {
        status,
        headers: Headers {
            content_type: Some("text/html".to_owned()),
            content_length: Some(body.len() as u64),
            location: None,
        },
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_length_wins_over_body() {
        let r = Response {
            status: 200,
            headers: Headers {
                content_type: Some("application/zip".into()),
                content_length: Some(10_000_000),
                location: None,
            },
            body: vec![0; 1024].into(),
        };
        assert_eq!(r.declared_len(), 10_000_000);
        assert!(r.wire_size() > 10_000_000);
    }

    #[test]
    fn head_carries_headers_not_body() {
        let r = error_response(404);
        let h = r.head();
        assert_eq!(h.status, 404);
        assert_eq!(h.headers, r.headers);
        assert!(h.wire_size() < r.wire_size());
    }

    #[test]
    fn wire_size_counts_location() {
        let with = Headers { location: Some("https://a.com/x".into()), ..Default::default() };
        let without = Headers::default();
        assert!(with.wire_size() > without.wire_size());
    }
}
