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
//!
//! A body is either *ready* (its bytes exist) or *deferred*: it holds the
//! recipe of its bytes instead of the bytes. Only [`crate::SiteServer`]
//! builds deferred bodies, for target GETs: the crawler decides on URL, tag
//! path and MIME type and accounts the declared `Content-Length`, so a
//! crawl that never reads a target's bytes never generates them. The first
//! read of a deferred body — deref, [`Body::len`], [`Body::as_slice`], `==`
//! or `Debug` — runs the recipe once; every clone of that handle shares the
//! result. The recipe holds the site it came from, so a deferred body pins
//! its site until the body is dropped (a kept target body keeps its whole
//! site alive). Two clones of one deferred handle compare equal without
//! reading.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// A response body: immutable shared bytes, cheap to clone, possibly not
/// generated yet (see the module docs).
///
/// Dereferences to `&[u8]`, so existing `&response.body` call sites keep
/// working. Construct from `Vec<u8>`, `&[u8]` or an existing `Arc<[u8]>`
/// (the latter is what the site server's render cache hands out — zero
/// copies per request).
#[derive(Clone)]
pub struct Body(Repr);

#[derive(Clone)]
enum Repr {
    Ready(Arc<[u8]>),
    Deferred(Arc<Deferred<dyn Fn() -> Arc<[u8]> + Send + Sync>>),
}

/// A recipe and, once it has run, its result: one allocation together.
struct Deferred<F: ?Sized> {
    bytes: OnceLock<Arc<[u8]>>,
    recipe: F,
}

impl Body {
    /// The shared empty body.
    pub fn empty() -> Body {
        static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
        Body(Repr::Ready(Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new())))))
    }

    /// A body whose bytes are `recipe()`, run by its first read.
    pub(crate) fn deferred(recipe: impl Fn() -> Arc<[u8]> + Send + Sync + 'static) -> Body {
        Body(Repr::Deferred(Arc::new(Deferred { bytes: OnceLock::new(), recipe })))
    }

    /// The bytes, generating a deferred body's on first use.
    fn bytes(&self) -> &Arc<[u8]> {
        match &self.0 {
            Repr::Ready(bytes) => bytes,
            Repr::Deferred(lazy) => lazy.bytes.get_or_init(&lazy.recipe),
        }
    }

    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        self.bytes()
    }
}

/// Pointer-equal handles are equal without reading; otherwise both sides
/// are read and compared as bytes (`Arc` equality: a shared buffer is
/// equal without a scan).
impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        match (&self.0, &other.0) {
            (Repr::Deferred(a), Repr::Deferred(b)) if Arc::ptr_eq(a, b) => true,
            _ => self.bytes() == other.bytes(),
        }
    }
}

impl Eq for Body {}

/// Prints the bytes, generating a deferred body's.
impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Body").field(self.bytes()).finish()
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
        self.bytes()
    }
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body(Repr::Ready(Arc::from(v)))
    }
}

impl From<&[u8]> for Body {
    fn from(v: &[u8]) -> Body {
        Body(Repr::Ready(Arc::from(v)))
    }
}

impl From<Arc<[u8]>> for Body {
    fn from(v: Arc<[u8]>) -> Body {
        Body(Repr::Ready(v))
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body(Repr::Ready(Arc::from(s.into_bytes())))
    }
}

impl FromIterator<u8> for Body {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Body {
        Body(Repr::Ready(iter.into_iter().collect()))
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
    /// Declared body size: `Content-Length` if present, else actual length
    /// (read only then, so a declared size never generates a deferred body).
    pub fn declared_len(&self) -> u64 {
        self.headers.content_length.unwrap_or_else(|| self.body.len() as u64)
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// A deferred body over `bytes` and the number of times its recipe ran.
    fn counted(bytes: &'static [u8]) -> (Body, Arc<AtomicUsize>) {
        let runs = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&runs);
        let body = Body::deferred(move || {
            seen.fetch_add(1, Ordering::Relaxed);
            Arc::from(bytes)
        });
        (body, runs)
    }

    #[test]
    fn a_declared_length_never_reads_a_deferred_body() {
        let (body, runs) = counted(b"payload");
        let r = Response {
            status: 200,
            headers: Headers { content_length: Some(10_000), ..Default::default() },
            body,
        };
        assert_eq!(r.declared_len(), 10_000);
        assert!(r.wire_size() > 10_000);
        let _ = r.head();
        let _copy = r.clone();
        assert_eq!(runs.load(Ordering::Relaxed), 0, "headers read the body");
    }

    #[test]
    fn a_deferred_body_runs_its_recipe_once_for_every_clone() {
        let (body, runs) = counted(b"payload");
        let copy = body.clone();
        assert_eq!(body.len(), 7);
        assert_eq!(copy.as_slice(), b"payload");
        assert_eq!(&*body, b"payload");
        assert!(!copy.is_empty());
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        // Without a Content-Length the actual length is read.
        let r = Response { status: 200, headers: Headers::default(), body: counted(b"abc").0 };
        assert_eq!(r.declared_len(), 3);
    }

    #[test]
    fn ready_and_deferred_bodies_compare_by_bytes() {
        let ready = Body::from(&b"payload"[..]);
        assert_eq!(ready, Body::from(b"payload".to_vec()));
        assert_ne!(ready, Body::from(&b"other"[..]));
        let (deferred, runs) = counted(b"payload");
        assert_eq!(deferred, ready);
        assert_eq!(ready, deferred);
        assert_eq!(deferred, counted(b"payload").0);
        assert_ne!(deferred, counted(b"other").0);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clones_of_one_deferred_handle_are_equal_unread() {
        let (body, runs) = counted(b"payload");
        assert_eq!(body, body.clone());
        assert_eq!(runs.load(Ordering::Relaxed), 0, "pointer-equal handles were read");
    }

    #[test]
    fn debug_prints_the_bytes_of_either_kind() {
        let (deferred, _) = counted(&[1, 2, 3]);
        assert_eq!(format!("{deferred:?}"), "Body([1, 2, 3])");
        assert_eq!(format!("{:?}", Body::from(vec![1, 2, 3])), "Body([1, 2, 3])");
    }

    #[test]
    fn the_default_body_is_the_shared_empty_one() {
        let body = Body::default();
        assert!(body.is_empty());
        assert_eq!(body, Body::empty());
        assert_eq!(body, counted(b"").0);
        assert_eq!(format!("{body:?}"), "Body([])");
    }

    #[test]
    fn wire_size_counts_location() {
        let with = Headers { location: Some("https://a.com/x".into()), ..Default::default() };
        let without = Headers::default();
        assert!(with.wire_size() > without.wire_size());
    }
}
