//! TRES-lite — the adapted topical RL crawler of Sec 4.3 \[37\], with the
//! paper's three "unfair advantages" built in.
//!
//! The original TRES targets topic-relevant HTML pages with a Bi-LSTM
//! relevance classifier and a tree-shaped frontier that it re-scores
//! exhaustively at every step. Per DESIGN.md, the deep model is replaced by
//! a keyword relevance scorer seeded with the paper's 74 hand-crafted terms
//! (Appendix B.2 — advantage i), the pre-training on positive pages is
//! emulated by starting with calibrated keyword weights (advantage ii), and
//! URL-type classification is a free oracle (advantage iii). What is kept
//! faithfully is the *behavioural* signature the paper reports: full
//! frontier re-scoring on every selection, whose cost grows linearly with
//! the frontier and makes the crawler unusable beyond small sites — the
//! harness accounts that work and stops TRES exactly as Sec 4.4 does.

use crate::strategy::{LinkDecision, NewLink, Selection, Services, Strategy};
use rand::rngs::StdRng;
use sb_webgraph::{UrlClass, UrlId};

/// The seed keywords of Appendix B.2 (anchor phrases; single tokens cover
/// the multi-word phrases too since matching is substring-based).
pub(crate) const TRES_KEYWORDS: [&str; 74] = [
    "pdf", "xls", "csv", "tar", "zip", "rar", "rdf", "json", "doc", "xml", "yaml", "txt",
    "tsv", "ppt", "ods", "dta", "7z", "ttl", "file", "document", "report", "publication",
    "dataset", "data", "download", "archive", "spreadsheet", "table", "list", "resource",
    "annex", "supplement", "attachment", "proceedings", "survey", "material", "output",
    "content", "statistics", "article", "paper", "metadata", "fact", "download file",
    "download document", "available for download", "access data", "view report",
    "get dataset", "data file", "read more", "resource list", "get document",
    "download pulication", "document archive", "supporting materials", "export data",
    "download csv", "download pdf", "download xls", "dataset download", "attached document",
    "official documents", "browse files", "download statistics", "download article",
    "annual report", "white paper", "technical documentation", "technical report",
    "raw data", "metadata file", "open data", "fact sheet",
];

struct FrontierNode {
    id: UrlId,
    /// URL text kept for re-scoring (TRES re-reads every frontier URL at
    /// every selection — that is the behavioural signature under study).
    url: String,
    anchor: String,
    /// Relevance of the page this link was found on (tree propagation).
    parent_relevance: f64,
}

/// The TRES-lite baseline.
pub struct TresStrategy {
    frontier: Vec<FrontierNode>,
    /// Cumulative simulated scoring work: frontier size at each selection.
    /// The harness converts this into the paper's per-request slowdown.
    pub rescore_work: u64,
}

impl Default for TresStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl TresStrategy {
    pub fn new() -> Self {
        TresStrategy { frontier: Vec::new(), rescore_work: 0 }
    }

    /// Keyword relevance with calibrated ("pre-trained" — advantage ii)
    /// weights: 2 per keyword in the anchor text, 1 per keyword in the URL.
    fn relevance(url: &str, anchor: &str) -> f64 {
        let url_l = url.to_ascii_lowercase();
        let anchor_l = anchor.to_ascii_lowercase();
        let mut score = 0.0;
        for kw in TRES_KEYWORDS {
            if anchor_l.contains(kw) {
                score += 2.0;
            }
            if url_l.contains(kw) {
                score += 1.0;
            }
        }
        score
    }
}

impl Strategy for TresStrategy {
    fn name(&self) -> String {
        "TRES".to_owned()
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        // Keyword relevance reads URL + anchor text.
        sb_html::LinkNeeds { tag_path: false, anchor_text: true, surrounding_text: false }
    }

    fn next(&mut self, _rng: &mut StdRng) -> Option<Selection> {
        if self.frontier.is_empty() {
            return None;
        }
        // The TRES signature: exhaustively re-score the whole frontier at
        // every step (the tree-expansion cost the paper measures).
        self.rescore_work += self.frontier.len() as u64;
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, node) in self.frontier.iter().enumerate() {
            let s = Self::relevance(&node.url, &node.anchor) + 0.5 * node.parent_relevance;
            if s > best_score {
                best_score = s;
                best = i;
            }
        }
        let node = self.frontier.swap_remove(best);
        Some(Selection { url: node.id.into(), token: 0 })
    }

    fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision {
        // Advantage (iii): a free URL-type oracle; targets that TRES would
        // normally ignore are visited immediately (the paper's adjustment).
        match services.oracle_class(link.url_str) {
            UrlClass::Target => LinkDecision::FetchNow,
            UrlClass::Neither => LinkDecision::Skip,
            UrlClass::Html => {
                let parent_relevance = Self::relevance(link.url_str, &link.html.anchor_text);
                self.frontier.push(FrontierNode {
                    id: link.id,
                    url: link.url_str.to_owned(),
                    anchor: link.html.anchor_text.to_string(),
                    parent_relevance,
                });
                LinkDecision::Enqueue
            }
        }
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn keyword_list_has_74_terms() {
        assert_eq!(TRES_KEYWORDS.len(), 74);
    }

    #[test]
    fn relevance_prefers_download_anchors() {
        let hot = TresStrategy::relevance("https://a.com/files/report.pdf", "Download PDF");
        let cold = TresStrategy::relevance("https://a.com/about-us", "Our team");
        assert!(hot > cold);
    }

    #[test]
    fn rescoring_work_grows_with_frontier() {
        let mut s = TresStrategy::new();
        for i in 0..100 {
            s.frontier.push(FrontierNode {
                id: i,
                url: format!("https://a.com/{i}"),
                anchor: String::new(),
                parent_relevance: 0.0,
            });
        }
        let mut rng = StdRng::seed_from_u64(0);
        s.next(&mut rng);
        s.next(&mut rng);
        // 100 + 99 scored entries across the two steps.
        assert_eq!(s.rescore_work, 199);
    }

    #[test]
    fn picks_highest_scoring_link() {
        use crate::strategy::SelUrl;
        let mut s = TresStrategy::new();
        s.frontier.push(FrontierNode {
            id: 0,
            url: "https://a.com/boring".into(),
            anchor: "misc".into(),
            parent_relevance: 0.0,
        });
        s.frontier.push(FrontierNode {
            id: 1,
            url: "https://a.com/statistics/download".into(),
            anchor: "Download dataset".into(),
            parent_relevance: 0.0,
        });
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.next(&mut rng).unwrap().url, SelUrl::Id(1));
    }
}
