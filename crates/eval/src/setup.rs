//! Experiment setup: site construction (cached), crawler factory and
//! reference statistics.

use parking_lot::Mutex;
use sb_bandit::Policy;
use sb_crawler::{CrawlConfig, CrawlOutcome, CrawlSession};
use sb_crawler::strategies::{
    FocusedStrategy, OmniscientStrategy, QueueStrategy, SbConfig, SbStrategy, TpOffStrategy,
    TresStrategy,
};
use sb_crawler::strategy::Strategy;
use sb_crawler::ActionSpaceConfig;
use sb_httpsim::SiteServer;
use sb_ml::{FeatureSet, ModelKind, UrlClassifier};
use sb_scale::{stream_site, StreamingSite};
use sb_webgraph::gen::{profiles, SiteSource};
use sb_webgraph::SiteSpec;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::Arc;

/// Harness-wide configuration (CLI flags of `xp`).
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Site size scale versus Table 1 (1.0 = the paper's 22.2 M pages).
    pub scale: f64,
    /// Seeds per stochastic crawler (the paper uses 15).
    pub seeds: u64,
    /// Output directory for CSV/markdown artifacts.
    pub out_dir: PathBuf,
    /// Optional site-code filter.
    pub sites: Option<Vec<String>>,
    /// Worker threads.
    pub jobs: usize,
    /// `xp fleet` only: additionally run the fleet through one
    /// `SharedTransportPool` at global windows 1/4/16 and report the
    /// ladder next to the per-site-transport arm (PR 5).
    pub shared_pool: bool,
    /// `xp fleet` only: shard counts for the sharded-driver ladder
    /// (`--shards 1,2,4`, PR 8). Empty = the sharded arm is off. Every
    /// rung runs at per-shard window 1 and is asserted byte-identical per
    /// site to the first rung.
    pub shards: Vec<usize>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            scale: 0.01,
            seeds: 3,
            out_dir: PathBuf::from("results"),
            sites: None,
            jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            shared_pool: false,
            shards: Vec::new(),
        }
    }
}

impl EvalConfig {
    /// Profiles selected by the `--sites` filter, in Table 1 order.
    pub fn selected_profiles(&self) -> Vec<SiteSpec> {
        profiles::paper_profiles()
            .into_iter()
            .filter(|p| match &self.sites {
                Some(codes) => codes.iter().any(|c| c == p.code),
                None => true,
            })
            .collect()
    }

    /// The scaled spec of a profile code: what every harness site of that
    /// code is generated from.
    pub fn site_spec(&self, code: &str) -> SiteSpec {
        profiles::profile(code).unwrap_or_else(|| panic!("unknown site code {code}")).scaled(self.scale)
    }

    /// The generation seed for a site (fixed: all crawlers see the same
    /// site, as in the paper's replay methodology).
    pub fn site_seed(&self, code: &str) -> u64 {
        // The 32-bit offset basis under the 64-bit prime: not a standard
        // FNV, but every recorded site was generated from it.
        sb_webgraph::fnv1a(0x811c_9dc5, code.as_bytes())
    }
}

/// The crawlers of Sec 4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrawlerKind {
    SbOracle,
    SbClassifier,
    Focused,
    TpOff,
    Bfs,
    Dfs,
    Random,
    Tres,
    Omniscient,
}

impl CrawlerKind {
    /// Table 2/3 row order.
    pub const TABLE_ROWS: [CrawlerKind; 7] = [
        CrawlerKind::SbOracle,
        CrawlerKind::SbClassifier,
        CrawlerKind::Focused,
        CrawlerKind::TpOff,
        CrawlerKind::Bfs,
        CrawlerKind::Dfs,
        CrawlerKind::Random,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CrawlerKind::SbOracle => "SB-ORACLE",
            CrawlerKind::SbClassifier => "SB-CLASSIFIER",
            CrawlerKind::Focused => "FOCUSED",
            CrawlerKind::TpOff => "TP-OFF",
            CrawlerKind::Bfs => "BFS",
            CrawlerKind::Dfs => "DFS",
            CrawlerKind::Random => "RANDOM",
            CrawlerKind::Tres => "TRES",
            CrawlerKind::Omniscient => "OMNISCIENT",
        }
    }

    /// Stochastic crawlers are averaged over seeds; deterministic ones run
    /// once (Sec 4.5).
    pub fn stochastic(self) -> bool {
        matches!(self, CrawlerKind::SbOracle | CrawlerKind::SbClassifier | CrawlerKind::Random)
    }

    /// Does this crawler need the ground-truth oracle?
    pub fn needs_oracle(self) -> bool {
        matches!(
            self,
            CrawlerKind::SbOracle | CrawlerKind::TpOff | CrawlerKind::Tres | CrawlerKind::Omniscient
        )
    }
}

/// SB tuning knobs for the hyper-parameter studies.
#[derive(Debug, Clone)]
pub struct SbTuning {
    pub theta: f32,
    pub ngram: usize,
    pub model: ModelKind,
    pub features: FeatureSet,
    pub batch: usize,
    pub max_actions: Option<usize>,
    /// Bandit policy and its parameter (default: the paper's AUER, α = 2√2).
    pub bandit: Policy,
}

impl Default for SbTuning {
    fn default() -> Self {
        SbTuning {
            theta: 0.75,
            ngram: 2,
            model: ModelKind::LogisticRegression,
            features: FeatureSet::UrlOnly,
            batch: 10,
            max_actions: None,
            bandit: Policy::default(),
        }
    }
}

impl SbTuning {
    pub fn sb_config(&self) -> SbConfig {
        SbConfig {
            actions: ActionSpaceConfig {
                ngram: self.ngram,
                theta: self.theta,
                max_actions: self.max_actions,
                ..Default::default()
            },
            bandit: self.bandit,
        }
    }
}

// ----------------------------------------------------------------------
// Site cache
// ----------------------------------------------------------------------

/// A process-wide memo: one value per key, built on first use.
pub(crate) type Memo<K, V> = Mutex<Option<HashMap<K, V>>>;

/// `memo[key]`, built by `build` on a miss. The build runs outside the
/// lock, so two threads missing one key may both build it (the last
/// insert wins) while other keys stay readable.
pub(crate) fn memoized<K: Hash + Eq, V: Clone>(
    memo: &Memo<K, V>,
    key: K,
    build: impl FnOnce() -> V,
) -> V {
    if let Some(v) = memo.lock().as_ref().and_then(|map| map.get(&key)) {
        return v.clone();
    }
    let v = build();
    memo.lock().get_or_insert_with(HashMap::new).insert(key, v.clone());
    v
}

type SiteKey = (String, u64 /* scale in ppm */);

static SITE_CACHE: Memo<SiteKey, Arc<StreamingSite>> = Mutex::new(None);

/// Builds (or fetches from cache) the scaled site for a profile code, on
/// the packed store: the same graph and bytes as `build_site`'s, read
/// through `SiteSource`.
pub fn build_site_for(cfg: &EvalConfig, code: &str) -> Arc<StreamingSite> {
    let key = (code.to_owned(), (cfg.scale * 1e6) as u64);
    memoized(&SITE_CACHE, key, || Arc::new(stream_site(&cfg.site_spec(code), cfg.site_seed(code))))
}

/// Reference statistics a site's metrics are normalised by (Sec 4.5):
/// census counts plus the cost of one exhaustive BFS crawl.
#[derive(Debug, Clone, Copy)]
pub struct SiteRef {
    pub available: usize,
    pub targets: u64,
    pub target_volume: u64,
    /// Requests of an exhaustive BFS crawl (the "crawl everything" cost).
    pub full_requests: u64,
    /// Non-target volume of that exhaustive crawl.
    pub full_non_target_bytes: u64,
}

static REF_CACHE: Memo<SiteKey, SiteRef> = Mutex::new(None);

/// Computes (cached) the reference stats for a site.
pub fn reference(cfg: &EvalConfig, code: &str) -> SiteRef {
    let key = (code.to_owned(), (cfg.scale * 1e6) as u64);
    memoized(&REF_CACHE, key, || {
        let site = build_site_for(cfg, code);
        let census = site.census();
        let out = run_crawler(&site, CrawlerKind::Bfs, 0, &RunOpts::default());
        SiteRef {
            available: census.available,
            targets: out.targets_found(),
            target_volume: out.traffic.target_bytes,
            full_requests: out.traffic.requests(),
            full_non_target_bytes: out.traffic.non_target_bytes,
        }
    })
}

// ----------------------------------------------------------------------
// Crawler factory and single-run executor
// ----------------------------------------------------------------------

pub use crate::runner::RunOpts;

/// Builds a strategy. `scale` sizes TP-OFF's offline phase (3 000 pages at
/// paper scale).
pub fn build_strategy(kind: CrawlerKind, site: &StreamingSite, scale: f64, sb: &SbTuning) -> Box<dyn Strategy> {
    match kind {
        CrawlerKind::Bfs => Box::new(QueueStrategy::bfs()),
        CrawlerKind::Dfs => Box::new(QueueStrategy::dfs()),
        CrawlerKind::Random => Box::new(QueueStrategy::random()),
        CrawlerKind::Focused => Box::new(FocusedStrategy::new()),
        CrawlerKind::Tres => Box::new(TresStrategy::new()),
        CrawlerKind::TpOff => {
            let phase1 = ((3000.0 * scale).round() as usize).max(30);
            Box::new(TpOffStrategy::new(phase1))
        }
        CrawlerKind::Omniscient => Box::new(OmniscientStrategy::new(site.target_urls())),
        CrawlerKind::SbOracle => Box::new(SbStrategy::oracle(sb.sb_config())),
        CrawlerKind::SbClassifier => Box::new(SbStrategy::with_classifier(
            sb.sb_config(),
            UrlClassifier::new(sb.model, sb.features, sb.batch),
        )),
    }
}

/// Runs one crawler once on a site.
pub fn run_crawler(site: &Arc<StreamingSite>, kind: CrawlerKind, seed: u64, opts: &RunOpts) -> CrawlOutcome {
    let mut strategy = build_strategy(kind, site, opts.scale, &opts.sb);
    run_with_strategy(site, strategy.as_mut(), kind.needs_oracle(), seed, opts)
}

/// Runs an explicitly constructed strategy (hyper-parameter studies need
/// concrete access to the strategy afterwards) through the validated
/// session API.
pub fn run_with_strategy(
    site: &Arc<StreamingSite>,
    strategy: &mut dyn Strategy,
    needs_oracle: bool,
    seed: u64,
    opts: &RunOpts,
) -> CrawlOutcome {
    let server = SiteServer::from_source(site.clone());
    let root = site.url(site.root()).to_owned();
    let cfg = CrawlConfig {
        budget: opts.budget,
        seed,
        max_in_flight: opts.max_in_flight,
        keep_target_bodies: opts.keep_bodies,
        early_stop: opts.early_stop,
        ..Default::default()
    };
    let oracle: Option<&dyn SiteSource> = needs_oracle.then_some(site.as_ref() as _);
    CrawlSession::new(&server, oracle, &root, strategy, &cfg)
        .expect("harness run options and generated site roots are valid")
        .run()
}
