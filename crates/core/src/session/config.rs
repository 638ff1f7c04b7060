//! What a session is configured with, and what it refuses to run with.

use crate::early_stop::EarlyStopConfig;
use sb_httpsim::Politeness;
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::url::UrlError;

/// The crawl budget `B` of Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Stop after this many requests (GET + HEAD): the `ω ≡ 1` cost model.
    Requests(u64),
    /// Stop after this much received volume (bytes): the size cost model.
    VolumeBytes(u64),
    /// Crawl until the frontier is exhausted.
    Unlimited,
}

/// Session configuration: a struct literal over `..Default::default()`.
/// Every session validates its config before any request is spent
/// ([`ConfigError`]), however the config was written.
pub struct CrawlConfig {
    pub budget: Budget,
    pub policy: MimePolicy,
    pub politeness: Politeness,
    /// RNG seed shared by the engine and the strategy's frontier draws.
    pub seed: u64,
    pub early_stop: Option<EarlyStopConfig>,
    /// Keep the bodies of retrieved targets (Table 7 needs them).
    pub keep_target_bodies: bool,
    /// Requests the session may keep in flight at once (PR 4). `1` (the
    /// default) is the exact sequential engine; wider windows overlap
    /// simulated transfer latency within the politeness gate's spacing.
    /// `0` is rejected with [`ConfigError::ZeroMaxInFlight`].
    pub max_in_flight: usize,
    /// Crawl as this user agent under the site's robots.txt (PR 6). When
    /// set, the session's very first request fetches `/robots.txt` through
    /// the transport (charged against the budget like any other GET); a
    /// 200 answer is parsed and from then on disallowed URLs are dropped
    /// at link admission and a declared `Crawl-delay` is applied to the
    /// transport's politeness gate automatically — no manual
    /// [`sb_httpsim::transport::Transport::apply_crawl_delay`] call
    /// needed. `None` (the default) changes nothing.
    pub robots_agent: Option<String>,
    /// Visited-set compaction threshold (PR 7): the first this many
    /// discovered URLs keep their parsed form beside the canonical text;
    /// URLs past the threshold keep the text alone
    /// (`sb_scale::VisitedSet`), cutting per-URL memory several-fold on
    /// large crawls. `usize::MAX` (the default) never compacts and is
    /// bit-identical to the plain interner.
    pub compact_visited_threshold: usize,
    /// Feed a serving layer (PR 9): buffer every successfully fetched
    /// HTML page and target as a [`super::RefreshedPage`] (body shared,
    /// FNV-1a body hash precomputed) for
    /// [`super::CrawlSession::take_refreshed`] to drain into a snapshot
    /// store — `sb_serve::serve_site`, the refresh driver, turns it on and
    /// queues every refresh from what it drains. The driver must drain
    /// periodically or the buffer grows with the crawl. Off (the default)
    /// buffers only explicit refresh fetches and changes nothing else.
    pub serve_feed: bool,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            budget: Budget::Unlimited,
            policy: MimePolicy::default(),
            politeness: Politeness::default(),
            seed: 0,
            early_stop: None,
            keep_target_bodies: false,
            max_in_flight: 1,
            robots_agent: None,
            compact_visited_threshold: usize::MAX,
            serve_feed: false,
        }
    }
}

impl CrawlConfig {
    /// The values no session can run with. The root is checked separately,
    /// by [`super::CrawlSession::with_transport`], which runs this first.
    pub(super) fn validate(&self) -> Result<(), ConfigError> {
        if let Budget::Requests(0) | Budget::VolumeBytes(0) = self.budget {
            return Err(ConfigError::ZeroBudget);
        }
        if self.max_in_flight == 0 {
            return Err(ConfigError::ZeroMaxInFlight);
        }
        let p = self.politeness;
        if !p.delay_secs.is_finite()
            || p.delay_secs < 0.0
            || !p.bytes_per_sec.is_finite()
            || p.bytes_per_sec <= 0.0
        {
            return Err(ConfigError::InvalidPoliteness);
        }
        Ok(())
    }
}

/// What [`super::CrawlSession::new`] and
/// [`super::CrawlSession::with_transport`] — and so every
/// [`crate::fleet::Fleet`] job, whose `SiteReport` carries it — reject
/// before any request is spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The crawl root is not an absolute http(s) URL.
    InvalidRoot { url: String, error: UrlError },
    /// A zero budget can never admit the root fetch.
    ZeroBudget,
    /// Politeness delay must be finite and ≥ 0; bandwidth must be finite
    /// and > 0.
    InvalidPoliteness,
    /// `max_in_flight == 0` can never admit any fetch.
    ZeroMaxInFlight,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidRoot { url, error } => {
                write!(f, "crawl root {url:?} is not an absolute http(s) URL: {error}")
            }
            ConfigError::ZeroBudget => f.write_str("crawl budget is zero"),
            ConfigError::InvalidPoliteness => {
                f.write_str("politeness delay must be finite and ≥ 0, bandwidth finite and > 0")
            }
            ConfigError::ZeroMaxInFlight => f.write_str("max_in_flight is zero"),
        }
    }
}

impl std::error::Error for ConfigError {}
