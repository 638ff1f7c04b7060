//! FOCUSED — the classic focused-crawler baseline of Sec 4.3 [10, 19].
//!
//! A logistic regression estimates, for every newly discovered hyperlink,
//! the likelihood that it leads to a target; the frontier is a priority
//! queue over those scores. Features follow standard focused-crawler
//! practice: the (approximate) depth of the source page, a character 2-gram
//! BoW of the URL and one of the anchor text. The model is an
//! [`sb_ml::Model`] that trains once per 32 fetch-time labels (what each
//! URL turned out to be when fetched), at no extra HTTP cost. Before its
//! first training its weights are zero, so it scores every link `0.0` and
//! the frontier is FIFO. No tag paths, no RL — this is the paper's
//! ablation of both.

use crate::strategy::{LinkDecision, NewLink, Selection, Services, Strategy};
use super::Entry;
use rand::rngs::StdRng;
use sb_ml::{featurize, FeatureInput, FeatureSet, Model, ModelKind, SparseVec};
use sb_webgraph::{FxHashMap, UrlClass, UrlId};
use std::collections::BinaryHeap;

/// One-hot depth features live past the bigram blocks.
const DEPTH_BUCKETS: usize = 17;

/// Labels per training of the model.
const BATCH: usize = 32;

fn feature_dim() -> usize {
    FeatureSet::UrlContent.dim() + DEPTH_BUCKETS
}

/// Builds the FOCUSED feature vector: URL + anchor bigrams + depth one-hot.
fn features(url: &str, anchor: &str, depth: u32) -> SparseVec {
    let mut x = featurize(
        FeatureSet::UrlContent,
        &FeatureInput { url, anchor, dom_path: "", surrounding: "" },
    );
    let bucket = (depth as usize).min(DEPTH_BUCKETS - 1);
    x.items.push(((FeatureSet::UrlContent.dim() + bucket) as u32, 1.0));
    x
}

/// The FOCUSED baseline.
pub struct FocusedStrategy {
    model: Model,
    heap: BinaryHeap<Entry>,
    /// Features of enqueued links, waiting for their fetch-time label.
    pending: FxHashMap<UrlId, SparseVec>,
    seq: u64,
}

impl Default for FocusedStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl FocusedStrategy {
    pub fn new() -> Self {
        FocusedStrategy {
            model: Model::new(ModelKind::LogisticRegression, feature_dim(), BATCH),
            heap: BinaryHeap::new(),
            pending: FxHashMap::default(),
            seq: 0,
        }
    }
}

impl Strategy for FocusedStrategy {
    fn name(&self) -> String {
        "FOCUSED".to_owned()
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        // URL + anchor bigrams + depth; no tag paths.
        sb_html::LinkNeeds { tag_path: false, anchor_text: true, surrounding_text: false }
    }

    fn next(&mut self, _rng: &mut StdRng) -> Option<Selection> {
        self.heap.pop().map(|e| Selection { url: e.id.into(), token: 0 })
    }

    fn decide(&mut self, link: &NewLink<'_>, _services: &mut Services<'_, '_>) -> LinkDecision {
        let x = features(link.url_str, &link.html.anchor_text, link.source_depth);
        let score = self.model.score(&x);
        self.pending.insert(link.id, x);
        self.seq += 1;
        self.heap.push(Entry { score: f64::from(score), seq: self.seq, id: link.id });
        LinkDecision::Enqueue
    }

    fn on_fetched(&mut self, id: UrlId, _url: &str, class: UrlClass) {
        let Some(x) = self.pending.remove(&id) else { return };
        let label = match class {
            UrlClass::Target => true,
            UrlClass::Html => false,
            UrlClass::Neither => return,
        };
        self.model.observe(x, label);
    }

    fn frontier_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn heap_orders_by_score_then_fifo() {
        use crate::strategy::SelUrl;
        let mut s = FocusedStrategy::new();
        s.heap.push(Entry { score: 0.5, seq: 1, id: 11 });
        s.heap.push(Entry { score: 0.9, seq: 2, id: 10 });
        s.heap.push(Entry { score: 0.5, seq: 0, id: 12 });
        let mut rng = StdRng::seed_from_u64(0);
        let order: Vec<SelUrl> =
            std::iter::from_fn(|| s.next(&mut rng)).map(|sel| sel.url).collect();
        assert_eq!(order, vec![SelUrl::Id(10), SelUrl::Id(12), SelUrl::Id(11)]);
    }

    /// `decide` of a link to `url`, found on a depth-3 page with no anchor
    /// text: FOCUSED enqueues every link and never touches the origin.
    fn decide(s: &mut FocusedStrategy, id: UrlId, url: &str) {
        let policy = sb_webgraph::mime::MimePolicy::default();
        let mut transport = sb_httpsim::PipelinedTransport::new(
            &super::super::NoOrigin,
            policy.clone(),
            sb_httpsim::Politeness::default(),
        );
        let mut services = Services { transport: &mut transport, oracle: None, policy: &policy };
        let parsed = sb_webgraph::url::Url::parse(url).unwrap();
        let html = sb_html::Link {
            href: url.into(),
            kind: sb_html::LinkKind::Anchor,
            tag_path: sb_html::TagPath::default(),
            anchor_text: "".into(),
            surrounding_text: "".into(),
        };
        let link = NewLink { id, url: &parsed, url_str: url, html: &html, source_depth: 3 };
        assert_eq!(s.decide(&link, &mut services), LinkDecision::Enqueue);
    }

    #[test]
    fn learns_to_rank_target_urls_higher() {
        let mut s = FocusedStrategy::new();
        // Fetch-labelled history.
        for i in 0..200 {
            let (url, class) = if i % 2 == 0 {
                (format!("https://a.com/files/d{i}.csv"), UrlClass::Target)
            } else {
                (format!("https://a.com/pages/p{i}.html"), UrlClass::Html)
            };
            decide(&mut s, i, &url);
            s.on_fetched(i, &url, class);
        }
        let xt = features("https://a.com/files/probe.csv", "", 3);
        let xh = features("https://a.com/pages/probe.html", "", 3);
        assert!(s.model.score(&xt) > s.model.score(&xh));
    }

    /// The model trains once per 32 fetch-time labels — a fetch that is
    /// neither HTML nor a target, or of a URL not decided (or already
    /// labelled), labels nothing — and every link decided before the 32nd
    /// label scores exactly `0.0`.
    #[test]
    fn scores_zero_before_the_32nd_label_and_trains_once_per_32() {
        let mut s = FocusedStrategy::new();
        let mut labels = 0u64;
        for id in 0..160 {
            let (url, class) = if id % 5 == 4 {
                (format!("https://a.com/gone/x{id}"), UrlClass::Neither)
            } else if id % 2 == 0 {
                (format!("https://a.com/files/d{id}.csv"), UrlClass::Target)
            } else {
                (format!("https://a.com/pages/p{id}.html"), UrlClass::Html)
            };
            decide(&mut s, id, &url);
            let score = s.heap.iter().find(|e| e.id == id).unwrap().score;
            if labels < 32 {
                assert_eq!(score.to_bits(), 0.0f64.to_bits(), "link {id} after {labels} labels");
            } else {
                assert_ne!(score, 0.0, "link {id} after {labels} labels");
            }
            s.on_fetched(id, &url, class);
            s.on_fetched(id, &url, class);
            s.on_fetched(1000 + id, "https://a.com/never-decided", UrlClass::Target);
            labels += u64::from(class != UrlClass::Neither);
            assert_eq!(s.model.trainings(), labels / 32, "after {labels} labels");
        }
        assert_eq!(labels, 128);
    }

    #[test]
    fn depth_feature_in_range() {
        let x = features("https://a.com/x", "anchor", 99);
        let max_idx = x.items.iter().map(|&(i, _)| i).max().unwrap();
        assert!((max_idx as usize) < feature_dim());
    }
}
