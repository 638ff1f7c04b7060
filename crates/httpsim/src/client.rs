//! The crawler's side of a fetch: cost accounting and politeness.
//!
//! The paper's two cost functions (Sec 2.2) are both tracked on every
//! request: `ω ≡ 1` (request counting) and `ω(u) = page size` (volume).
//! A politeness model converts the traffic into estimated wall-clock time
//! (the paper's 1-second inter-request wait dominates: "for a site of
//! 1 million pages, such waits, alone, take 11 days"), and downloads whose
//! `Content-Type` is block-listed are interrupted mid-flight as in
//! Algorithm 3. These are the [`crate::transport`]'s vocabulary;
//! `sb_bench::client::Client` charges them serially, as the reference
//! oracle of the transport's window-1 pins.

use crate::response::{Body, Response};
use sb_webgraph::mime::{normalize_mime, MimePolicy};

/// Running totals of everything the crawler spent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Traffic {
    pub get_requests: u64,
    pub head_requests: u64,
    /// Volume received, split by whether the caller tagged it as target.
    pub target_bytes: u64,
    pub non_target_bytes: u64,
    /// Simulated seconds: politeness waits + transfer time.
    pub elapsed_secs: f64,
}

impl Traffic {
    pub fn requests(&self) -> u64 {
        self.get_requests + self.head_requests
    }

    pub fn total_bytes(&self) -> u64 {
        self.target_bytes + self.non_target_bytes
    }

    /// Adds another crawl's totals into this one (fleet aggregation).
    /// Destructures so a new counter cannot be silently left out of sums.
    pub fn absorb(&mut self, other: &Traffic) {
        let Traffic { get_requests, head_requests, target_bytes, non_target_bytes, elapsed_secs } =
            *other;
        self.get_requests += get_requests;
        self.head_requests += head_requests;
        self.target_bytes += target_bytes;
        self.non_target_bytes += non_target_bytes;
        self.elapsed_secs += elapsed_secs;
    }
}

/// What a GET looked like from the crawler's side.
#[derive(Debug, Clone)]
pub struct Fetched {
    pub status: u16,
    /// Normalised MIME type, if the server sent one.
    pub mime: Option<String>,
    /// Redirect target, if any.
    pub location: Option<String>,
    /// The body; empty if the download was interrupted. Shared bytes —
    /// cloning a `Fetched` does not copy the buffer. A target's body may
    /// be deferred: nothing here reads it (see [`crate::response`]).
    pub body: Body,
    /// True when the transfer was aborted because of a block-listed MIME.
    pub interrupted: bool,
    /// Bytes this transfer cost on the wire.
    pub wire_bytes: u64,
    /// GET attempts behind this answer (1 unless a retrying transport
    /// re-dispatched; the failure reasons of `sb_crawler` use it to tell
    /// retries-exhausted from a first-contact error).
    pub attempts: u32,
}

impl Fetched {
    pub fn is_html(&self) -> bool {
        self.mime.as_deref().is_some_and(|m| m.starts_with("text/html") || m == "application/xhtml+xml")
    }
}

/// Politeness/bandwidth model for elapsed-time estimation.
#[derive(Debug, Clone, Copy)]
pub struct Politeness {
    /// Wait between successive requests (crawling ethics; default 1 s).
    pub delay_secs: f64,
    /// Simulated link bandwidth.
    pub bytes_per_sec: f64,
}

impl Default for Politeness {
    fn default() -> Self {
        Politeness { delay_secs: 1.0, bytes_per_sec: 4.0 * 1024.0 * 1024.0 }
    }
}

/// Bytes of a blocked download that still hit the wire before the abort.
const INTERRUPT_PREFIX: u64 = 16 * 1024;

/// Converts a raw GET answer into the crawler's view of it, applying the
/// block-listed-MIME interruption of Algorithm 3. Shared by every GET path
/// of the [`crate::transport`] and by `sb_bench::client::Client::get` so
/// they cannot drift: same MIME normalisation, same interrupt rule, same
/// wire cost.
pub fn settle_get(r: Response, policy: &MimePolicy) -> Fetched {
    let mime = r.headers.content_type.as_deref().map(normalize_mime);
    let blocked = mime.as_deref().is_some_and(|m| policy.is_blocked_mime(m));
    let (body, interrupted, wire) = if blocked {
        (Body::empty(), true, r.headers.wire_size() + INTERRUPT_PREFIX.min(r.declared_len()))
    } else {
        let wire = r.wire_size();
        (r.body, false, wire)
    };
    Fetched {
        status: r.status,
        mime,
        location: r.headers.location,
        body,
        interrupted,
        wire_bytes: wire,
        attempts: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HttpServer;
    use crate::transport::{PipelinedTransport, Request, Transport};

    #[test]
    fn image_downloads_are_interrupted() {
        // Serve an image through a tiny custom server.
        struct ImgServer;
        impl HttpServer for ImgServer {
            fn head(&self, _url: &str) -> crate::response::HeadResponse {
                self.get("").head()
            }
            fn get(&self, _url: &str) -> Response {
                Response {
                    status: 200,
                    headers: crate::response::Headers {
                        content_type: Some("image/png".into()),
                        content_length: Some(5_000_000),
                        location: None,
                    },
                    body: vec![0; 1024].into(),
                }
            }
        }
        let s = ImgServer;
        let mut t = PipelinedTransport::new(&s, MimePolicy::default(), Politeness::default());
        t.submit(Request::get("https://a.com/big.png"));
        let (_, f) = t.poll().remove(0);
        assert!(f.interrupted);
        assert!(f.body.is_empty());
        assert!(f.wire_bytes < 5_000_000, "interrupt must save volume");
    }
}
