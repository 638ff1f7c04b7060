//! Refresh (PR 9): re-fetching what the session already knows, and the
//! buffer that hands fetched pages to a serving layer.

use super::{CrawlSession, Phase};
use crate::events::RefreshStats;
use sb_webgraph::fnv64;
use sb_webgraph::interner::UrlId;

/// One page delivered to the serving layer (PR 9): an explicit refresh
/// fetch, or — with [`super::CrawlConfig::serve_feed`] on — any
/// successfully fetched HTML page or target. The body is shared
/// ([`sb_httpsim::Body`] is `Arc`-backed), so buffering and committing
/// into a snapshot store never copies page bytes.
#[derive(Debug, Clone)]
pub struct RefreshedPage {
    pub url: String,
    pub status: u16,
    /// Normalised MIME type; `None` on failed refreshes.
    pub mime: Option<String>,
    /// Shared body bytes; empty on failed refreshes.
    pub body: sb_httpsim::Body,
    /// FNV-1a hash of the body — the change-detection currency, the same
    /// [`sb_webgraph::fnv64`] that `sb_revisit` re-exports, so hashes from
    /// the recrawl harness and from sessions are interchangeable.
    pub body_hash: u64,
    /// True for an explicit [`CrawlSession::queue_refresh`] fetch; false
    /// for a discovery fetch buffered because `serve_feed` is on.
    pub refresh: bool,
    /// Refresh fetches only: the body hash differs from the prior hash
    /// handed to `queue_refresh`. Always true for discovery fetches (the
    /// first version of a page is news by definition).
    pub changed: bool,
}

impl CrawlSession<'_> {
    /// Queues a known URL for a refresh fetch (PR 9). The fetch rides the
    /// normal window — politeness-gated, budget-charged, redirect-capped
    /// like any crawl fetch — but its answer goes to the serving layer
    /// ([`CrawlSession::take_refreshed`]) instead of re-counting targets
    /// or feeding the strategy: the page was already observed once at
    /// discovery, and one-feedback-per-selection stays intact.
    /// `prior_hash` is the FNV-1a hash of the version being served;
    /// change detection compares the refetched body against it.
    ///
    /// A session that already finished for a benign reason (frontier
    /// exhausted, early stop) is *reopened*: continuous serving re-admits
    /// work into a drained crawl. It finishes again — emitting a second
    /// `SessionFinished` — once the refresh queue and frontier drain; a
    /// budget-exhausted session re-finishes immediately and the queued
    /// refresh is dropped (visible as `scheduled > completed + failed`).
    pub fn queue_refresh(&mut self, url: &str, prior_hash: u64) {
        self.refresh_stats.scheduled += 1;
        self.refresh_queue.push_back((url.to_owned(), prior_hash));
        if let Phase::Done(_) = self.phase {
            self.phase = Phase::Steady;
        }
    }

    /// Drains the pages buffered for the serving layer: refresh answers,
    /// plus every fetched page when [`super::CrawlConfig::serve_feed`] is
    /// on. Bodies are shared — draining moves `Arc`s, not bytes.
    pub fn take_refreshed(&mut self) -> Vec<RefreshedPage> {
        std::mem::take(&mut self.refreshed)
    }

    /// Cumulative refresh ledger so far (PR 9).
    pub fn refresh_stats(&self) -> RefreshStats {
        self.refresh_stats
    }

    /// Buffers a fetched page for the serving layer. `prior` is the body
    /// hash a refresh was queued with: `Some` settles the refresh's
    /// changed/unchanged verdict against it, `None` marks a discovery
    /// fetch ([`super::CrawlConfig::serve_feed`]) — the page's first
    /// served version, news by definition.
    pub(super) fn feed(
        &mut self,
        id: UrlId,
        status: u16,
        mime: &str,
        body: sb_httpsim::Body,
        prior: Option<u64>,
    ) {
        let body_hash = fnv64(&body);
        let changed = prior != Some(body_hash);
        if prior.is_some() {
            self.refresh_stats.completed += 1;
            if changed {
                self.refresh_stats.changed += 1;
            } else {
                self.refresh_stats.unchanged += 1;
            }
        }
        self.refreshed.push(RefreshedPage {
            url: self.visited.text(id).to_owned(),
            status,
            mime: Some(mime.to_owned()),
            body,
            body_hash,
            refresh: prior.is_some(),
            changed,
        });
    }
}
