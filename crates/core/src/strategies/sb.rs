//! SB-CLASSIFIER and SB-ORACLE — the paper's contribution (Sec 3).
//!
//! The sleeping-bandit crawler keeps one frontier *pool* of links per action
//! (tag-path cluster) beside one [`ArmStats`] per action. At each step
//! [`SbConfig::bandit`] — an [`sb_bandit::Policy`], the paper's AUER unless
//! the ablation picks another variant — reads those arms in place, with an
//! action awake while its pool is non-empty, and a link is drawn
//! **uniformly at random** from the chosen pool (Algorithm 3). Newly
//! discovered links are classified (Algorithm 2's online URL classifier, or
//! the ground-truth oracle for `SB-ORACLE`): predicted targets are
//! retrieved immediately, predicted HTML links are mapped to an action
//! (Algorithm 1) and pooled, dead URLs are dropped. Rewards — the number of
//! new predicted-target links found on a fetched page — update the selected
//! action's mean as in Algorithm 4. A pull that brings no reward (the link
//! was a target, or its fetch was abandoned) is settled without one, and a
//! reward divides by the pulls settled so far: with a window of several
//! selections in flight the mean is Algorithm 4 replayed in the order the
//! outcomes arrive, and at window 1 it is Algorithm 4 exactly.

use crate::action::{ActionId, ActionSpace, ActionSpaceConfig};
use crate::strategy::{
    ArmReport, LinkDecision, NewLink, Selection, Services, Strategy, StrategyReport,
};
use rand::rngs::StdRng;
use rand::Rng;
use sb_bandit::{ArmStats, Policy};
use sb_ml::{Class2, FeatureInput, FeatureSet, UrlClassifier};
use sb_webgraph::{FxHashMap, UrlClass, UrlId};

/// How the strategy estimates a link's class.
pub(crate) enum SbMode {
    /// Algorithm 2: HEAD-labelled bootstrap, then free online inference.
    Classifier(UrlClassifier),
    /// Ground truth at zero cost (Sec 4.3's unrealistic upper variant).
    Oracle,
}

/// Configuration of the SB crawlers.
#[derive(Default)]
pub struct SbConfig {
    /// Tag-path clustering parameters (n, θ, m, w, Π).
    pub actions: ActionSpaceConfig,
    /// Bandit policy and its parameter (default: the paper's AUER with
    /// exploration coefficient α = 2√2).
    pub bandit: Policy,
}

/// The sleeping-bandit strategy.
pub struct SbStrategy {
    mode: SbMode,
    actions: ActionSpace,
    arms: Vec<ArmStats>,
    /// Frontier pool per action — interned ids, so a pool entry is 4
    /// bytes and moving links between pools never copies a string.
    pools: Vec<Vec<UrlId>>,
    frontier_total: usize,
    policy: Policy,
    /// Selection counter `t` of the AUER score.
    t: u64,
    /// Link context for URL_CONT online training (anchor, DOM path,
    /// surrounding text of the link that discovered each URL).
    link_ctx: Option<FxHashMap<UrlId, (String, String, String)>>,
    /// When enabled, every post-bootstrap prediction is recorded for the
    /// confusion-matrix studies (Tables 5, 8–16).
    recorded: Option<Vec<(String, Class2)>>,
}

impl SbStrategy {
    /// SB-CLASSIFIER with the paper's defaults (LR, URL_ONLY, b = 10).
    pub fn classifier_default() -> Self {
        Self::with_classifier(SbConfig::default(), UrlClassifier::paper_default())
    }

    /// SB-CLASSIFIER with an explicit classifier variant (Table 5 study).
    pub fn with_classifier(cfg: SbConfig, classifier: UrlClassifier) -> Self {
        let track_ctx = classifier.feature_set() == FeatureSet::UrlContent;
        SbStrategy {
            mode: SbMode::Classifier(classifier),
            actions: ActionSpace::new(cfg.actions.clone()),
            arms: Vec::new(),
            pools: Vec::new(),
            frontier_total: 0,
            policy: cfg.bandit,
            t: 0,
            link_ctx: track_ctx.then(FxHashMap::default),
            recorded: None,
        }
    }

    /// SB-ORACLE.
    pub fn oracle(cfg: SbConfig) -> Self {
        SbStrategy {
            mode: SbMode::Oracle,
            actions: ActionSpace::new(cfg.actions.clone()),
            arms: Vec::new(),
            pools: Vec::new(),
            frontier_total: 0,
            policy: cfg.bandit,
            t: 0,
            link_ctx: None,
            recorded: None,
        }
    }

    /// Enables prediction recording (for the classifier-quality studies).
    pub fn record_predictions(mut self) -> Self {
        self.recorded = Some(Vec::new());
        self
    }

    /// Post-bootstrap predictions recorded so far, as `(url, predicted)`.
    pub fn predictions(&self) -> &[(String, Class2)] {
        self.recorded.as_deref().unwrap_or(&[])
    }

    fn classify(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> UrlClass {
        match &mut self.mode {
            SbMode::Oracle => services.oracle_class(link.url_str),
            SbMode::Classifier(clf) => {
                // Under URL_ONLY (the paper default) `featurize` reads the
                // URL alone; the other three are borrows either way.
                let input = FeatureInput {
                    url: link.url_str,
                    anchor: &link.html.anchor_text,
                    dom_path: link.html.tag_path.as_str(),
                    surrounding: &link.html.surrounding_text,
                };
                if clf.in_initial_phase() {
                    // Bootstrap: pay for a HEAD, learn from its answer.
                    let truth = services.head_class(link.url_str);
                    match truth {
                        UrlClass::Html => clf.observe(&input, Class2::Html),
                        UrlClass::Target => clf.observe(&input, Class2::Target),
                        UrlClass::Neither => {}
                    }
                    truth
                } else {
                    let predicted = clf.predict(&input);
                    if let Some(rec) = &mut self.recorded {
                        rec.push((link.url_str.to_owned(), predicted));
                    }
                    match predicted {
                        Class2::Html => UrlClass::Html,
                        Class2::Target => UrlClass::Target,
                    }
                }
            }
        }
    }

    fn pool_push(&mut self, action: ActionId, id: UrlId) {
        while self.pools.len() <= action {
            self.pools.push(Vec::new());
            self.arms.push(ArmStats::default());
        }
        self.pools[action].push(id);
        self.frontier_total += 1;
    }
}

impl Strategy for SbStrategy {
    fn name(&self) -> String {
        match &self.mode {
            SbMode::Classifier(c) => {
                if c.feature_set() == FeatureSet::UrlOnly {
                    "SB-CLASSIFIER".to_owned()
                } else {
                    "SB-CLASSIFIER (URL_CONT)".to_owned()
                }
            }
            SbMode::Oracle => "SB-ORACLE".to_owned(),
        }
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        match &self.mode {
            // URL_CONT consumes anchor, DOM path and surrounding text;
            // URL_ONLY (the paper default) and the oracle only need the
            // tag path that drives action clustering.
            SbMode::Classifier(c) if c.feature_set() == FeatureSet::UrlContent => {
                sb_html::LinkNeeds::ALL
            }
            _ => sb_html::LinkNeeds::TAG_PATH,
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
        if self.frontier_total == 0 {
            return None;
        }
        self.t += 1;
        let a = self.policy.select(&self.arms, |a| !self.pools[a].is_empty(), self.t, rng)?;
        self.arms[a].select();
        // Uniform link choice within the chosen action (Sec 3.2).
        let pool = &mut self.pools[a];
        let i = rng.gen_range(0..pool.len());
        let id = pool.swap_remove(i);
        self.frontier_total -= 1;
        Some(Selection { url: id.into(), token: a as u64 })
    }

    fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision {
        let decision = match self.classify(link, services) {
            UrlClass::Neither => return LinkDecision::Skip,
            UrlClass::Target => LinkDecision::FetchNow,
            UrlClass::Html => match self.actions.assign(&link.html.tag_path) {
                Ok(a) => {
                    self.pool_push(a, link.id);
                    LinkDecision::Enqueue
                }
                Err(_) => return LinkDecision::ActionSpaceFull,
            },
        };
        // Every link that will be fetched — pooled or fetched now — is
        // observed in `on_fetched` with the context it was routed on.
        if let Some(ctx) = &mut self.link_ctx {
            ctx.insert(
                link.id,
                (
                    // Owned-conversion boundary: this context outlives the
                    // page buffer.
                    link.html.anchor_text.to_string(),
                    link.html.tag_path.to_string(),
                    link.html.surrounding_text.to_string(),
                ),
            );
        }
        decision
    }

    fn feedback(&mut self, token: u64, reward: f64) {
        if let Some(arm) = self.arms.get_mut(token as usize) {
            arm.reward(reward);
        }
    }

    /// Algorithm 4 returns before the R_mean update for a target: the pull
    /// is settled without an observation.
    fn feedback_target(&mut self, token: u64) {
        if let Some(arm) = self.arms.get_mut(token as usize) {
            arm.settle();
        }
    }

    /// An abandoned selection (dead redirect chain, 4xx/5xx, interrupted
    /// transfer, session closed) settles like a target: no observation.
    fn feedback_error(&mut self, token: u64) {
        self.feedback_target(token);
    }

    fn on_fetched(&mut self, id: UrlId, url: &str, class: UrlClass) {
        // Free online training from GET outcomes (Algorithm 2, phase 2).
        if let SbMode::Classifier(clf) = &mut self.mode {
            let class2 = match class {
                UrlClass::Html => Class2::Html,
                UrlClass::Target => Class2::Target,
                UrlClass::Neither => return,
            };
            let ctx = self.link_ctx.as_mut().and_then(|m| m.remove(&id));
            let (anchor, dom, surr) = ctx.unwrap_or_default();
            let input = FeatureInput { url, anchor: &anchor, dom_path: &dom, surrounding: &surr };
            clf.observe(&input, class2);
        }
    }

    fn frontier_len(&self) -> usize {
        self.frontier_total
    }

    fn report(&self) -> StrategyReport {
        let arms = self
            .arms
            .iter()
            .enumerate()
            .take(self.actions.len())
            .map(|(i, s)| ArmReport {
                exemplar: self.actions.exemplar(i).to_owned(),
                pulls: s.pulls,
                mean_reward: s.mean,
                std_reward: s.std(),
                members: self.actions.members(i),
            })
            .collect();
        StrategyReport { n_actions: self.actions.len(), arms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Pool bookkeeping and AUER selection, without engine plumbing.
    #[test]
    fn selects_from_nonempty_pools_only() {
        let mut s = SbStrategy::oracle(SbConfig::default());
        s.pool_push(0, 1);
        s.pool_push(2, 2);
        // Pool 1 exists but is empty.
        s.pools[1].clear();
        let mut rng = StdRng::seed_from_u64(1);
        let mut picked = Vec::new();
        while let Some(sel) = s.next(&mut rng) {
            picked.push(sel);
        }
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().all(|p| p.token == 0 || p.token == 2));
        assert_eq!(s.frontier_len(), 0);
    }

    #[test]
    fn feedback_updates_selected_arm() {
        let mut s = SbStrategy::oracle(SbConfig::default());
        s.pool_push(0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = s.next(&mut rng).unwrap();
        s.feedback(sel.token, 7.0);
        assert_eq!(s.arms[0].pulls, 1);
        assert_eq!(s.arms[0].mean, 7.0);
    }

    /// Window > 1: four pulls of one action in flight. A target and an
    /// abandonment each settle their pull without an observation, and each
    /// reward divides by the pulls settled so far, itself included.
    #[test]
    fn pulls_in_flight_settle_before_the_mean_divides() {
        let mut s = SbStrategy::oracle(SbConfig::default());
        for id in 0..4 {
            s.pool_push(0, id);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let tokens: Vec<u64> = (0..4).map(|_| s.next(&mut rng).unwrap().token).collect();
        assert_eq!(tokens, [0; 4]);
        s.feedback(0, 8.0);
        s.feedback_target(0);
        s.feedback_error(0);
        assert_eq!(s.arms[0].mean, 8.0);
        s.feedback(0, 4.0);
        // Algorithm 4 in settle order: 8 / 1, then (8 + (4 − 8) / 4).
        assert_eq!(s.arms[0].mean, 7.0);
        assert_eq!(s.arms[0].pulls, 4);
    }

    #[test]
    fn bandit_prefers_rewarding_action() {
        let mut s = SbStrategy::oracle(SbConfig::default());
        // Two actions with plenty of links.
        for i in 0..50 {
            s.pool_push(0, i);
            s.pool_push(1, 100 + i);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut picks = [0u32; 2];
        for _ in 0..60 {
            let sel = s.next(&mut rng).unwrap();
            let a = sel.token as usize;
            picks[a] += 1;
            // Action 0 pays 10, action 1 pays 0.
            s.feedback(sel.token, if a == 0 { 10.0 } else { 0.0 });
        }
        assert!(picks[0] > picks[1] * 2, "picks: {picks:?}");
    }

    #[test]
    fn empty_strategy_yields_none() {
        let mut s = SbStrategy::classifier_default();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(s.next(&mut rng).is_none());
    }

    /// URL_CONT past its bootstrap: every link routed to a fetch — a
    /// predicted target fetched now as well as a pooled HTML link — keeps
    /// the context it was predicted from until `on_fetched` trains on it
    /// and removes it.
    #[test]
    fn url_cont_keeps_the_context_of_every_fetched_link_until_it_is_observed() {
        use sb_ml::ModelKind;
        let mut clf = UrlClassifier::new(ModelKind::LogisticRegression, FeatureSet::UrlContent, 10);
        for i in 0..40 {
            let (url, class) = if i % 2 == 0 {
                (format!("https://s.org/files/data-{i}.csv"), Class2::Target)
            } else {
                (format!("https://s.org/pages/article-{i}.html"), Class2::Html)
            };
            clf.observe(
                &FeatureInput { url: &url, anchor: "", dom_path: "", surrounding: "" },
                class,
            );
        }
        assert!(!clf.in_initial_phase());
        let mut s = SbStrategy::with_classifier(SbConfig::default(), clf);
        let policy = sb_webgraph::mime::MimePolicy::default();
        let mut transport = sb_httpsim::PipelinedTransport::new(
            &super::super::NoOrigin,
            policy.clone(),
            sb_httpsim::Politeness::default(),
        );
        let mut services = Services { transport: &mut transport, oracle: None, policy: &policy };
        let context =
            || ("the data".to_owned(), "html body ul li a".to_owned(), "download".to_owned());
        for (id, url, expected) in [
            (7, "https://s.org/files/data-99.csv", LinkDecision::FetchNow),
            (8, "https://s.org/pages/article-99.html", LinkDecision::Enqueue),
        ] {
            let parsed = sb_webgraph::url::Url::parse(url).unwrap();
            let (anchor, dom, surrounding) = context();
            let html = sb_html::Link {
                href: url.into(),
                kind: sb_html::LinkKind::Anchor,
                tag_path: sb_html::TagPath::parse(&dom),
                anchor_text: anchor.into(),
                surrounding_text: surrounding.into(),
            };
            let link = NewLink { id, url: &parsed, url_str: url, html: &html, source_depth: 1 };
            assert_eq!(s.decide(&link, &mut services), expected, "{url}");
            assert_eq!(s.link_ctx.as_ref().unwrap().get(&id), Some(&context()), "{url}");

            let SbMode::Classifier(clf) = &s.mode else { unreachable!() };
            let observed = clf.observed();
            let class =
                if expected == LinkDecision::FetchNow { UrlClass::Target } else { UrlClass::Html };
            s.on_fetched(id, url, class);
            assert!(!s.link_ctx.as_ref().unwrap().contains_key(&id), "{url}");
            let SbMode::Classifier(clf) = &s.mode else { unreachable!() };
            assert_eq!(clf.observed(), observed + 1);
        }
    }

    #[test]
    fn report_carries_action_stats() {
        let mut s = SbStrategy::oracle(SbConfig::default());
        s.pool_push(0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = s.next(&mut rng).unwrap();
        s.feedback(sel.token, 3.0);
        // No real action space entries were created (pool_push bypasses
        // assign), so the report is sized by arms present in the space.
        let r = s.report();
        assert_eq!(r.n_actions, 0);
        let _ = r;
    }
}
