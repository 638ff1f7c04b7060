//! The crawler-side HTTP client: cost accounting and politeness.
//!
//! The paper's two cost functions (Sec 2.2) are both tracked on every
//! request: `ω ≡ 1` (request counting) and `ω(u) = page size` (volume).
//! A politeness model converts the traffic into estimated wall-clock time
//! (the paper's 1-second inter-request wait dominates: "for a site of
//! 1 million pages, such waits, alone, take 11 days"), and downloads whose
//! `Content-Type` is block-listed are interrupted mid-flight as in
//! Algorithm 3.

use crate::response::{Body, HeadResponse, Response};
use crate::server::HttpServer;
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
    /// cloning a `Fetched` does not copy the buffer.
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

/// The crawl client: a server handle + a MIME policy + accounting.
pub struct Client<'a, S: HttpServer + ?Sized> {
    server: &'a S,
    policy: MimePolicy,
    politeness: Politeness,
    traffic: Traffic,
}

/// Bytes of a blocked download that still hit the wire before the abort.
const INTERRUPT_PREFIX: u64 = 16 * 1024;

/// Converts a raw GET answer into the crawler's view of it, applying the
/// block-listed-MIME interruption of Algorithm 3. Shared by [`Client::get`]
/// and the pipelined [`crate::transport`] so the two fetch paths cannot
/// drift: same MIME normalisation, same interrupt rule, same wire cost.
pub(crate) fn settle_get(r: Response, policy: &MimePolicy) -> Fetched {
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

impl<'a, S: HttpServer + ?Sized> Client<'a, S> {
    pub fn new(server: &'a S, policy: MimePolicy) -> Self {
        Client { server, policy, politeness: Politeness::default(), traffic: Traffic::default() }
    }

    pub fn with_politeness(mut self, politeness: Politeness) -> Self {
        self.politeness = politeness;
        self
    }

    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    pub fn policy(&self) -> &MimePolicy {
        &self.policy
    }

    /// Issues a HEAD request. `is_target_volume` controls which volume
    /// bucket the header bytes land in (they are non-target by nature).
    pub fn head(&mut self, url: &str) -> HeadResponse {
        let r = self.server.head(url);
        let bytes = r.wire_size();
        self.traffic.head_requests += 1;
        self.traffic.non_target_bytes += bytes;
        self.charge_time(bytes);
        r
    }

    /// Issues a GET. The transfer is interrupted if the served MIME type is
    /// block-listed (Algorithm 3's multimedia guard). The caller later
    /// attributes the volume to target/non-target via [`Client::tag_target`].
    pub fn get(&mut self, url: &str) -> Fetched {
        let f = settle_get(self.server.get(url), &self.policy);
        self.traffic.get_requests += 1;
        self.traffic.non_target_bytes += f.wire_bytes;
        self.charge_time(f.wire_bytes);
        f
    }

    /// Re-attributes `bytes` of the latest transfers from the non-target to
    /// the target volume bucket (the crawler knows only after inspecting the
    /// MIME type whether a fetch was a target).
    pub fn tag_target(&mut self, bytes: u64) {
        let moved = bytes.min(self.traffic.non_target_bytes);
        self.traffic.non_target_bytes -= moved;
        self.traffic.target_bytes += moved;
    }

    fn charge_time(&mut self, bytes: u64) {
        self.traffic.elapsed_secs +=
            self.politeness.delay_secs + bytes as f64 / self.politeness.bytes_per_sec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SiteServer;
    use sb_webgraph::gen::{build_site, PageKind, SiteSource, SiteSpec};

    fn server() -> SiteServer {
        SiteServer::new(build_site(&SiteSpec::demo(200), 5))
    }

    #[test]
    fn counts_requests_and_volume() {
        let s = server();
        let root = s.site().page(s.site().root()).url.clone();
        let mut c = Client::new(&s, MimePolicy::default());
        let f = c.get(&root);
        assert_eq!(f.status, 200);
        assert!(f.is_html());
        assert_eq!(c.traffic().get_requests, 1);
        assert!(c.traffic().non_target_bytes > 0);
        c.head(&root);
        assert_eq!(c.traffic().head_requests, 1);
    }

    #[test]
    fn target_tagging_moves_volume() {
        let s = server();
        let t = s.site().target_ids()[0];
        let url = s.site().page(t).url.clone();
        let mut c = Client::new(&s, MimePolicy::default());
        let f = c.get(&url);
        c.tag_target(f.wire_bytes);
        assert_eq!(c.traffic().target_bytes, f.wire_bytes);
    }

    #[test]
    fn politeness_time_accumulates() {
        let s = server();
        let root = s.site().page(s.site().root()).url.clone();
        let mut c = Client::new(&s, MimePolicy::default())
            .with_politeness(Politeness { delay_secs: 1.0, bytes_per_sec: 1e9 });
        c.get(&root);
        c.get(&root);
        assert!(c.traffic().elapsed_secs >= 2.0);
    }

    #[test]
    fn blocked_mime_interrupts_download() {
        // Build a policy that blocks everything "application/*" to force an
        // interruption on the first target.
        let s = server();
        let target = s
            .site()
            .pages()
            .iter()
            .find(|p| matches!(&p.kind, PageKind::Target { mime, .. } if mime.starts_with("application/")))
            .expect("demo site has application/* targets");
        let mut policy = MimePolicy::default();
        // MimePolicy blocks by prefix list; emulate via a custom list.
        policy = MimePolicy::with_targets(policy.target_types().to_vec());
        let mut c = Client::new(&s, policy);
        // Default policy does not block application/*; fetch normally first.
        let f = c.get(&target.url);
        assert!(!f.interrupted);
        assert!(!f.body.is_empty());
    }

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
        let mut c = Client::new(&s, MimePolicy::default());
        let f = c.get("https://a.com/big.png");
        assert!(f.interrupted);
        assert!(f.body.is_empty());
        assert!(f.wire_bytes < 5_000_000, "interrupt must save volume");
    }
}
