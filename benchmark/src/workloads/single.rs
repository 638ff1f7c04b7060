//! The five workloads that are one `CrawlSession` over one site:
//! `bfs_exhaust`, `sb_budget`, `value_window16`, `scale_stream`,
//! `hostile_retry`. They differ only in data — site, strategy, config,
//! transport — so one type runs them all.

use super::{eager_site, ensure, reachable, Digest, Inputs, Iteration, Workload};
use crate::layers::{self, FrontierPeak, LayerValues, TracedSession};
use crate::replay;
use crate::spans;
use crate::wrap::{TracedServer, TRANSPORT};
use sb_crawler::strategies::{QueueStrategy, SbStrategy};
use sb_crawler::{Budget, CrawlConfig, CrawlOutcome, CrawlSession, Strategy, ValueStrategy};
use sb_httpsim::transport::Transport;
use sb_httpsim::{
    HazardPolicy, HttpServer, PipelinedTransport, Politeness, RateLimit, RetryPolicy, SiteServer,
    TailLatency,
};
use sb_scale::{stream_site, SpillBacking, StreamingSite};
use sb_webgraph::gen::hazard::{apply_hazards, HazardSpec};
use sb_webgraph::gen::SiteSource;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// In-memory cap of `scale_stream`'s spilling frontier.
const FRONTIER_CAP: usize = 1024;
/// `scale_stream` keeps exact visited entries up to here, fingerprints past.
const VISITED_THRESHOLD: usize = 4096;

/// The hostile transport: retries with capped, jittered exponential backoff
/// over heavy-tailed latency behind a timeout, and a 429 every seventh
/// attempt.
struct Hostile {
    jitter_seed: u64,
}

const HOSTILE_WINDOW: usize = 8;
const HOSTILE_RETRIES: u32 = 2;

impl Hostile {
    fn transport<'a>(
        &self,
        server: &'a dyn HttpServer,
        cfg: &CrawlConfig,
    ) -> Box<dyn Transport + 'a> {
        Box::new(
            PipelinedTransport::new(server, cfg.policy.clone(), cfg.politeness)
                .with_window(HOSTILE_WINDOW)
                .with_retry_policy(
                    RetryPolicy::retries(HOSTILE_RETRIES)
                        .with_backoff(0.5, 8.0)
                        .with_jitter(0.2, self.jitter_seed),
                )
                .with_hazards(
                    HazardPolicy::seeded(17)
                        .with_tail(TailLatency {
                            prob: 0.2,
                            scale_secs: 4.0,
                            alpha: 1.3,
                        })
                        .with_timeout(10.0)
                        .with_rate_limit(RateLimit {
                            period: 7,
                            retry_after_secs: 2.0,
                        }),
                ),
        )
    }
}

struct Single {
    server: Arc<SiteServer>,
    root: String,
    cfg: CrawlConfig,
    strategy: fn() -> Box<dyn Strategy>,
    hostile: Option<Hostile>,
    /// Set for the streaming site: gauges are tracked per step and the
    /// scale replays run.
    streaming: Option<Arc<StreamingSite>>,
    site_targets: u64,
    /// Set where the crawl is exhaustive: the URLs reachable from the root,
    /// dead ones and redirects included, each of which it must fetch once.
    reachable: Option<u64>,
    /// Requests the crawl may be charged: budget plus what the window can
    /// still deliver after the last budget check.
    request_ceiling: u64,
    /// Keep every n-th delivered HTML body for the HTML replay.
    html_stride: u64,
    build_site_s: f64,
    /// Which replays describe this workload's strategy.
    replay_ml: bool,
    replay_action: bool,
}

impl Single {
    fn transport<'a>(&self, server: &'a dyn HttpServer) -> Box<dyn Transport + 'a> {
        match &self.hostile {
            Some(hostile) => hostile.transport(server, &self.cfg),
            // What `CrawlSession::new` builds.
            None => Box::new(
                PipelinedTransport::new(server, self.cfg.policy.clone(), self.cfg.politeness)
                    .with_window(self.cfg.max_in_flight),
            ),
        }
    }

    fn renders(&self) -> u64 {
        self.server.source().render_count()
    }

    fn check(&self, outcome: &CrawlOutcome, peak: FrontierPeak) -> Result<(), String> {
        let requests = outcome.traffic.requests();
        ensure(requests <= self.request_ceiling, || {
            format!(
                "{requests} requests charged, ceiling {}",
                self.request_ceiling
            )
        })?;
        if let Some(reachable) = self.reachable {
            ensure(outcome.targets_found() == self.site_targets, || {
                format!(
                    "recall: {} of {} targets",
                    outcome.targets_found(),
                    self.site_targets
                )
            })?;
            ensure(outcome.pages_crawled == reachable, || {
                format!(
                    "crawled {} of {reachable} reachable URLs",
                    outcome.pages_crawled
                )
            })?;
        }
        if self.streaming.is_some() {
            ensure(peak.in_mem <= FRONTIER_CAP + FRONTIER_CAP / 4, || {
                format!("{} frontier ids in memory, cap {FRONTIER_CAP}", peak.in_mem)
            })?;
            ensure(peak.spilled > 0, || "the frontier never spilled".to_owned())?;
        }
        Ok(())
    }
}

impl Workload for Single {
    fn iterate(&mut self) -> Iteration {
        let mut strategy = (self.strategy)();
        let started = Instant::now();
        let mut session = CrawlSession::with_transport(
            self.transport(&*self.server),
            None,
            &self.root,
            strategy.as_mut(),
            &self.cfg,
        )
        .expect("generated roots are absolute URLs");
        let peak = layers::drive(&mut session);
        let outcome = session.finish();
        let wall_s = started.elapsed().as_secs_f64();
        Iteration {
            check: self.check(&outcome, peak),
            ..Iteration::of_crawl(&outcome, wall_s, self.site_targets)
        }
    }

    fn trace(
        &mut self,
        reference: &Iteration,
        untraced_wall_s: f64,
        spans_csv: &Path,
    ) -> Result<LayerValues, String> {
        let renders_before = self.renders();
        let server = TracedServer::new(Arc::clone(&self.server) as _);
        spans::start();
        let traced = layers::traced_session(
            self.transport(&server),
            &TRANSPORT,
            self.html_stride,
            (self.strategy)(),
            &self.cfg,
            &self.root,
        );
        let threads = spans::finish();
        let traced: TracedSession = traced?;
        spans::write_csv(spans_csv, &threads)
            .map_err(|e| format!("{}: {e}", spans_csv.display()))?;

        let digest = Digest::of(&traced.outcome);
        ensure(vec![digest.clone()] == reference.digests, || {
            format!(
                "the wrapped crawl {digest:?} diverged from the unwrapped one {:?}",
                reference.digests
            )
        })?;
        self.check(&traced.outcome, traced.peak)?;

        let mut values = LayerValues::default();
        let renders = self.renders() - renders_before;
        values.set("webgraph.build_site_s", self.build_site_s);
        values.set("webgraph.renders", renders as f64);
        values.set(
            "webgraph.render_miss_share",
            renders as f64 / (traced.outcome.traffic.get_requests as f64).max(1.0),
        );
        if self.replay_ml {
            let s = &traced.strategy;
            let ml = replay::ml(&s.decided, &s.fetched, &s.fetched_class);
            values.set("ml.featurize_ns_per_url", ml.featurize_ns_per_url);
            values.set("ml.predict_ns_per_url", ml.predict_ns_per_url);
            values.set("ml.observe_ns_per_url", ml.observe_ns_per_url);
            values.set("ml.trainings", ml.trainings as f64);
        }
        if self.replay_action {
            let (assign_ns, actions) = replay::action(&traced.strategy.enqueued_paths);
            values.set("core.action.assign_ns_per_link", assign_ns);
            values.set("core.action.actions", actions as f64);
        }
        if let Some(site) = &self.streaming {
            let frontier = replay::frontier(&traced.strategy.frontier_ops, FRONTIER_CAP);
            ensure(frontier.peak_spilled == traced.peak.spilled, || {
                format!(
                    "frontier replay spilled {} ids at peak, the crawl {}",
                    frontier.peak_spilled, traced.peak.spilled
                )
            })?;
            values.set(
                "scale.frontier.push_pop_ns_per_id",
                frontier.push_pop_ns_per_id,
            );
            values.set("scale.frontier.peak_in_mem", frontier.peak_in_mem as f64);
            values.set("scale.frontier.peak_spilled", frontier.peak_spilled as f64);
            values.set("scale.frontier.spill_events", frontier.spill_events as f64);
            let visited = replay::visited(&traced.strategy.decided, VISITED_THRESHOLD);
            values.set("scale.visited.intern_ns_per_url", visited.intern_ns_per_url);
            values.set("scale.visited.bytes_per_url", visited.bytes_per_url);
            values.set("scale.visited.collisions", visited.collisions as f64);
            values.set(
                "scale.stream.cached_body_bytes",
                site.cached_body_bytes() as f64,
            );
        }
        let (wall_s, body_bytes) = (traced.wall_s, server.body_bytes());
        layers::fill_crawl_layers(&mut values, &threads, &[traced], body_bytes, wall_s);
        layers::set_overhead(&mut values, wall_s, untraced_wall_s);
        Ok(values)
    }
}

pub fn bfs_exhaust(Inputs { corpus, seed }: Inputs) -> Box<dyn Workload> {
    let started = Instant::now();
    let site = eager_site(20_000, corpus);
    let build_site_s = started.elapsed().as_secs_f64();
    Box::new(Single {
        root: site.page(site.root()).url.clone(),
        cfg: CrawlConfig {
            seed,
            ..CrawlConfig::default()
        },
        strategy: || Box::new(QueueStrategy::bfs()),
        hostile: None,
        streaming: None,
        site_targets: site.n_targets() as u64,
        reachable: Some(reachable(&*site)),
        request_ceiling: u64::MAX,
        html_stride: 1,
        build_site_s,
        replay_ml: false,
        replay_action: false,
        server: Arc::new(SiteServer::shared(site)),
    })
}

pub fn sb_budget(Inputs { corpus, .. }: Inputs) -> Box<dyn Workload> {
    const BUDGET: u64 = 4_500;
    let started = Instant::now();
    let site = eager_site(12_000, corpus);
    let build_site_s = started.elapsed().as_secs_f64();
    Box::new(Single {
        root: site.page(site.root()).url.clone(),
        // The session RNG picks SB's links: it is part of the corpus (see
        // `Inputs`).
        cfg: CrawlConfig {
            budget: Budget::Requests(BUDGET),
            seed: corpus,
            ..CrawlConfig::default()
        },
        strategy: || Box::new(SbStrategy::classifier_default()),
        hostile: None,
        streaming: None,
        site_targets: site.n_targets() as u64,
        reachable: None,
        request_ceiling: BUDGET + 1,
        html_stride: 1,
        build_site_s,
        replay_ml: true,
        replay_action: true,
        server: Arc::new(SiteServer::shared(site)),
    })
}

pub fn value_window16(Inputs { corpus, seed }: Inputs) -> Box<dyn Workload> {
    const BUDGET: u64 = 300;
    const WINDOW: usize = 16;
    let started = Instant::now();
    let site = eager_site(1_500, corpus);
    let build_site_s = started.elapsed().as_secs_f64();
    Box::new(Single {
        root: site.page(site.root()).url.clone(),
        cfg: CrawlConfig {
            budget: Budget::Requests(BUDGET),
            max_in_flight: WINDOW,
            seed,
            ..CrawlConfig::default()
        },
        strategy: || Box::new(ValueStrategy::default_mix()),
        hostile: None,
        streaming: None,
        site_targets: site.n_targets() as u64,
        reachable: None,
        request_ceiling: BUDGET + WINDOW as u64,
        html_stride: 1,
        build_site_s,
        replay_ml: true,
        replay_action: false,
        server: Arc::new(SiteServer::shared(site)),
    })
}

pub fn scale_stream(Inputs { corpus, seed }: Inputs) -> Box<dyn Workload> {
    let started = Instant::now();
    let site = Arc::new(
        stream_site(&super::bench_spec(100_000), corpus)
            .with_render_cache_budget(16 << 20)
            .with_target_cache_budget(32 << 20),
    );
    let build_site_s = started.elapsed().as_secs_f64();
    Box::new(Single {
        root: site.url(site.root()).to_owned(),
        cfg: CrawlConfig {
            compact_visited_threshold: VISITED_THRESHOLD,
            seed,
            ..CrawlConfig::default()
        },
        strategy: || {
            Box::new(QueueStrategy::bfs_spilling(
                FRONTIER_CAP,
                SpillBacking::Memory,
            ))
        },
        hostile: None,
        site_targets: site.target_ids().len() as u64,
        reachable: Some(reachable(&*site)),
        request_ceiling: u64::MAX,
        // ~75k HTML pages: every 8th keeps the replay under a second and the
        // kept bodies under the caches' own size.
        html_stride: 8,
        build_site_s,
        replay_ml: false,
        replay_action: false,
        server: Arc::new(SiteServer::from_source(
            Arc::clone(&site) as Arc<dyn SiteSource>
        )),
        streaming: Some(site),
    })
}

pub fn hostile_retry(Inputs { corpus, seed }: Inputs) -> Box<dyn Workload> {
    const PAGES: usize = 24_000;
    const BUDGET: u64 = PAGES as u64;
    let started = Instant::now();
    let mut site = super::eager_website(PAGES, corpus);
    apply_hazards(&mut site, &HazardSpec::scaled(PAGES), 7);
    let build_site_s = started.elapsed().as_secs_f64();
    Box::new(Single {
        root: site.page(site.root()).url.clone(),
        cfg: CrawlConfig {
            budget: Budget::Requests(BUDGET),
            politeness: Politeness {
                delay_secs: 0.25,
                bytes_per_sec: 256_000.0,
            },
            max_in_flight: HOSTILE_WINDOW,
            seed,
            ..CrawlConfig::default()
        },
        strategy: || Box::new(QueueStrategy::bfs()),
        hostile: Some(Hostile { jitter_seed: seed }),
        streaming: None,
        site_targets: site.n_targets() as u64,
        reachable: None,
        // Budget honesty under retries: every in-flight request may still
        // be charged all its attempts after the last budget check.
        request_ceiling: BUDGET + HOSTILE_WINDOW as u64 * u64::from(1 + HOSTILE_RETRIES),
        html_stride: 1,
        build_site_s,
        replay_ml: false,
        replay_action: false,
        server: Arc::new(SiteServer::new(site)),
    })
}
