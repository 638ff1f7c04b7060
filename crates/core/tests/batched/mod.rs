//! The batching adapter: forces the session's batched refill path over any
//! inner strategy. Shared by `batch.rs` and `session_api.rs` (a `mod
//! batched;`, not a test target of its own).

use rand::rngs::StdRng;
use sb_crawler::strategy::{LinkDecision, NewLink, Selection, Services, Strategy, StrategyReport};
use sb_webgraph::{UrlClass, UrlId};

/// Forces the session's batched refill path over any inner strategy
/// without changing its selection logic: every call delegates, and
/// [`Strategy::batch_selection`] answers `true`, so the session fills its
/// window through [`Strategy::select_batch`] (the inner default pulls
/// `next()` up to `k` times). At window 1 the batch degenerates to one
/// pull per refill — byte-identical to the unbatched path; the batch
/// conformance suite pins that equivalence for the queue strategies.
pub struct Batched<S: Strategy>(pub S);

impl<S: Strategy> Strategy for Batched<S> {
    fn name(&self) -> String {
        format!("BATCHED({})", self.0.name())
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        self.0.link_needs()
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
        self.0.next(rng)
    }

    fn select_batch(&mut self, k: usize, rng: &mut StdRng) -> Vec<Selection> {
        self.0.select_batch(k, rng)
    }

    fn batch_selection(&self) -> bool {
        true
    }

    fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision {
        self.0.decide(link, services)
    }

    fn feedback(&mut self, token: u64, reward: f64) {
        self.0.feedback(token, reward);
    }

    fn feedback_target(&mut self, token: u64) {
        self.0.feedback_target(token);
    }

    fn feedback_error(&mut self, token: u64) {
        self.0.feedback_error(token);
    }

    fn on_fetched(&mut self, id: UrlId, url: &str, class: UrlClass) {
        self.0.on_fetched(id, url, class);
    }

    fn frontier_len(&self) -> usize {
        self.0.frontier_len()
    }

    fn frontier_spilled(&self) -> usize {
        self.0.frontier_spilled()
    }

    fn report(&self) -> StrategyReport {
        self.0.report()
    }
}
