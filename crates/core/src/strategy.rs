//! The strategy interface: what distinguishes one crawler from another.
//!
//! The engine (Algorithms 3–4) is shared; a [`Strategy`] supplies the three
//! crawler-specific behaviours: *frontier ordering* ([`Strategy::next`]),
//! *per-link routing* ([`Strategy::decide`] — enqueue, fetch immediately as
//! a predicted target, or drop), and *learning* (the feedback hooks).

use rand::rngs::StdRng;
use sb_httpsim::Transport;
use sb_webgraph::gen::SiteSource;
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::url::Url;
use sb_webgraph::{UrlClass, UrlId};

/// What a strategy hands back from [`Strategy::next`] to identify the page
/// to crawl.
///
/// The hot path is [`SelUrl::Id`]: an interned id the engine resolves to
/// its parsed `Url` and canonical string without hashing, parsing or
/// allocating. [`SelUrl::Text`] is the escape hatch for strategies that
/// know URLs the engine has never discovered (OMNISCIENT's answer key);
/// the engine parses and interns those at the boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelUrl {
    /// An id previously handed to the strategy via [`NewLink::id`].
    Id(UrlId),
    /// An absolute URL string, parsed and interned by the engine.
    Text(String),
}

impl From<UrlId> for SelUrl {
    fn from(id: UrlId) -> SelUrl {
        SelUrl::Id(id)
    }
}

impl From<String> for SelUrl {
    fn from(s: String) -> SelUrl {
        SelUrl::Text(s)
    }
}

/// A frontier pick: the URL to crawl and an opaque token the engine hands
/// back through the feedback hooks (the SB crawlers store the action id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    pub url: SelUrl,
    pub token: u64,
}

/// What to do with a newly discovered link (Algorithm 4's inner loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// Into the frontier (predicted HTML).
    Enqueue,
    /// Retrieve immediately (predicted target); counts toward the page's
    /// reward.
    FetchNow,
    /// Drop permanently (predicted dead, or out of the strategy's scope).
    Skip,
    /// The action space exploded (Table 4's θ = 0.95 OOM); abort the crawl.
    ActionSpaceFull,
}

/// A newly discovered, already-filtered link (on-site, unseen, not
/// extension-blocked).
#[derive(Debug)]
pub struct NewLink<'a> {
    /// Interned id — the key strategies should store in their frontiers.
    pub id: UrlId,
    pub url: &'a Url,
    pub url_str: &'a str,
    /// The parsed hyperlink: tag path, anchor text, surrounding text —
    /// borrowed from the page body. Strategies that keep any of it past
    /// `decide` must convert to owned here; this is the pipeline's single
    /// owned-conversion boundary.
    pub html: &'a sb_html::Link<'a>,
    /// Depth of the page the link was found on.
    pub source_depth: u32,
}

/// Engine services available during [`Strategy::decide`]: HEAD probes
/// (costed!) and the ground-truth oracle for the unrealistic variants.
///
/// HEADs go through the session's [`Transport`] synchronously — they share
/// its politeness gate and simulated clock, so a probe issued while GETs
/// are in flight still spaces correctly and is charged at its simulated
/// arrival. The transport itself stays crate-private: handing strategies
/// `submit`/`poll` would let them corrupt the session's in-flight
/// bookkeeping, so only the probe surface is exposed.
pub struct Services<'c, 'a> {
    pub(crate) transport: &'c mut (dyn Transport + 'a),
    pub oracle: Option<&'a dyn SiteSource>,
    pub policy: &'c MimePolicy,
}

impl Services<'_, '_> {
    /// Determines a URL's class with an HTTP HEAD request (charged to the
    /// budget), following up to 3 redirects.
    ///
    /// The caller's string is probed as-is — the common no-redirect case
    /// costs zero allocations — and the URL is parsed (at most) once, on
    /// the first redirect; later hops join onto the already-parsed form.
    pub(crate) fn head_class(&mut self, url: &str) -> UrlClass {
        // `(parsed, canonical)` of the current redirect target; `None`
        // means we are still on the caller's original string.
        let mut current: Option<(Url, String)> = None;
        for _ in 0..3 {
            let h = match &current {
                None => self.transport.head(url),
                Some((_, text)) => self.transport.head(text),
            };
            if (300..400).contains(&h.status) {
                let Some(loc) = h.headers.location else { return UrlClass::Neither };
                let base = match current.take() {
                    Some((parsed, _)) => parsed,
                    None => match Url::parse(url) {
                        Ok(parsed) => parsed,
                        Err(_) => return UrlClass::Neither,
                    },
                };
                match base.join(&loc) {
                    Ok(next) => {
                        let text = next.as_string();
                        current = Some((next, text));
                        continue;
                    }
                    Err(_) => return UrlClass::Neither,
                }
            }
            if h.status >= 400 {
                return UrlClass::Neither;
            }
            return self.policy.classify_mime(h.headers.content_type.as_deref());
        }
        UrlClass::Neither
    }

    /// Ground truth from the oracle site: a URL off the site is
    /// [`UrlClass::Neither`]. Panics if the strategy was run without one —
    /// oracle strategies must be wired with `Some(site)`.
    pub(crate) fn oracle_class(&self, url: &str) -> UrlClass {
        let site = self.oracle.expect("this strategy requires a ground-truth oracle");
        match site.lookup(url) {
            Some(id) => site.true_class(id),
            None => UrlClass::Neither,
        }
    }
}

/// Per-action statistics exposed for Table 6 / Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmReport {
    /// Representative tag path of the action.
    pub exemplar: String,
    pub pulls: u64,
    pub mean_reward: f64,
    pub std_reward: f64,
    /// Tag paths absorbed by the action.
    pub members: u64,
}

/// Strategy-specific summary returned with the crawl outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StrategyReport {
    pub n_actions: usize,
    pub arms: Vec<ArmReport>,
}

/// A crawler's brain. See the module docs; implementations live in
/// [`crate::strategies`].
pub trait Strategy {
    fn name(&self) -> String;

    /// Which per-link features this strategy reads ([`NewLink::html`]).
    /// The engine computes those, and only for a link it hands to
    /// [`Strategy::decide`] — tag paths and text windows cost real time,
    /// and most links of a page are already known. The rest come back
    /// empty. The conservative default is everything.
    fn link_needs(&self) -> sb_html::LinkNeeds {
        sb_html::LinkNeeds::ALL
    }

    /// Picks the next frontier link, or `None` when the frontier is empty.
    fn next(&mut self, rng: &mut StdRng) -> Option<Selection>;

    /// Picks up to `k` frontier links in one pass (PR 10). The default
    /// calls [`Strategy::next`] up to `k` times, so every existing
    /// strategy keeps working unchanged; ranking strategies
    /// ([`crate::strategies::ValueStrategy`]) override it to score the
    /// whole frontier once and return the top `k` — the Crawl4LLM-style
    /// "select the top-k rated documents per iteration" loop. Fewer than
    /// `k` selections mean the frontier ran dry mid-batch; an empty vec
    /// is the `None` of [`Strategy::next`]. Every returned selection is a
    /// real pull: each must receive exactly one feedback call, the same
    /// contract as single selections.
    fn select_batch(&mut self, k: usize, rng: &mut StdRng) -> Vec<Selection> {
        let mut out = Vec::with_capacity(k.min(16));
        for _ in 0..k {
            match self.next(rng) {
                Some(sel) => out.push(sel),
                None => break,
            }
        }
        out
    }

    /// Does this strategy want the session to refill through
    /// [`Strategy::select_batch`] (one ranking pass fills the whole
    /// in-flight window) instead of pulling selections one at a time?
    /// Default `false`: the classic per-pull path, whose window-1 replay
    /// of the frozen seed engine stays byte-identical. Strategies that
    /// rank their frontier per step answer `true` (so does the test-only
    /// `Batched` adapter under `crates/core/tests/batched/`, which forces
    /// this path over any strategy).
    fn batch_selection(&self) -> bool {
        false
    }

    /// Routes a newly discovered link.
    fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision;

    /// The page selected as `token` was HTML and produced `reward` new
    /// predicted-target links (Algorithm 4's R_mean update site).
    fn feedback(&mut self, token: u64, reward: f64) {
        let _ = (token, reward);
    }

    /// The selected link turned out to be a target itself (Algorithm 4
    /// returns before the reward update: a pull without an observation).
    fn feedback_target(&mut self, token: u64) {
        let _ = token;
    }

    /// The selection yielded no observation and no value: it answered
    /// 4xx/5xx, was abandoned, or was a MIME type that is neither HTML nor
    /// a target.
    fn feedback_error(&mut self, token: u64) {
        let _ = token;
    }

    /// A page was successfully fetched and its true class is now known —
    /// the free online-training signal of Algorithm 2. `id` is the page's
    /// interned id (the frontier key); `url` its canonical string.
    fn on_fetched(&mut self, id: UrlId, url: &str, class: UrlClass) {
        let _ = (id, url, class);
    }

    /// Links currently in the frontier.
    fn frontier_len(&self) -> usize;

    /// Frontier links currently parked in a spill arena rather than in
    /// memory (PR 7). `0` for the in-memory frontiers every strategy uses
    /// by default; spill-backed frontiers (see `sb_scale::SpillQueue`)
    /// override this so the session's memory gauges can report it.
    fn frontier_spilled(&self) -> usize {
        0
    }

    fn report(&self) -> StrategyReport {
        StrategyReport::default()
    }
}
