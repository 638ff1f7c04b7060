//! `serve_refresh`: `sb_serve::serve_site` over a six-epoch evolving site,
//! one Zipf reader hammering the store while the same session refreshes it.
//!
//! `serve_site` builds its server, session and store itself, so nothing in
//! it can be wrapped. The per-layer numbers come from replays over what it
//! returns (the store, the trained revisit policy) and from a fully wrapped
//! replica of its discovery crawl — same server, window and serve feed —
//! which is where the crawl-path layers are read.

use super::{eager_website, ensure, Digest, Inputs, Iteration, Workload};
use crate::layers::{self, LayerValues};
use crate::spans;
use crate::wrap::{TracedServer, TRANSPORT};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{Budget, CrawlConfig, CrawlSession};
use sb_httpsim::{HttpServer, PipelinedTransport};
use sb_revisit::{ChangeModel, EvolvingServer, EvolvingSite, RevisitPolicy, ThompsonGroupsRevisit};
use sb_serve::{plan_epoch, serve_site, ArcCell, ReadLoadConfig, ServeConfig, ServeOutcome, Zipf};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const PAGES: usize = 1_500;
const EPOCHS: usize = 6;
const WINDOW: usize = 4;
/// Share of the corpus refreshed per epoch.
const REFRESH_SHARE: f64 = 0.12;
const READS_PER_EPOCH: usize = 500_000;
const ZIPF_S: f64 = 1.1;
/// Operations per replayed store/cell primitive.
const REPLAY_OPS: usize = 200_000;

struct ServeRefresh {
    site: EvolvingSite,
    cfg: ServeConfig,
    /// Targets the origin holds at the last epoch.
    site_targets: u64,
    build_site_s: f64,
}

impl ServeRefresh {
    fn serve(&self) -> (ServeOutcome, ThompsonGroupsRevisit, f64) {
        let mut policy = ThompsonGroupsRevisit::default();
        let started = Instant::now();
        let out = serve_site(&self.site, &mut policy, &self.cfg);
        (out, policy, started.elapsed().as_secs_f64())
    }

    fn iteration(&self, out: &ServeOutcome, wall_s: f64) -> Iteration {
        let o = &out.outcome;
        let horizon = (EPOCHS - 1) as f64;
        let check = ensure(out.read.misses == 0, || {
            format!("{} read misses", out.read.misses)
        })
        .and_then(|()| {
            ensure(
                out.read.reads == ((EPOCHS - 1) * READS_PER_EPOCH) as u64,
                || format!("{} reads answered", out.read.reads),
            )
        })
        .and_then(|()| {
            // The `xp serve` freshness SLA.
            ensure(
                out.staleness_p50 <= 2.0 && out.staleness_p99 <= horizon,
                || {
                    format!(
                        "SLA: age-at-read p50 {} (limit 2), p99 {} (limit {horizon}) epochs",
                        out.staleness_p50, out.staleness_p99
                    )
                },
            )
        });
        Iteration {
            wall_s,
            requests: o.traffic.requests(),
            targets: o.targets_found(),
            site_targets: self.site_targets,
            fetches: o.pages_crawled,
            abandoned: o.abandoned.total(),
            sim_makespan_s: o.traffic.elapsed_secs,
            delivered_per_s: out.read.qps,
            // Readers feed the refresh priority: the schedule, and with it
            // the crawl, is deliberately not reproducible.
            digests: Vec::new(),
            check,
        }
    }
}

impl Workload for ServeRefresh {
    fn iterate(&mut self) -> Iteration {
        let (out, _policy, wall_s) = self.serve();
        self.iteration(&out, wall_s)
    }

    fn trace(
        &mut self,
        _reference: &Iteration,
        _untraced_wall_s: f64,
        spans_csv: &Path,
    ) -> Result<LayerValues, String> {
        let mut values = LayerValues::default();
        values.set("webgraph.build_site_s", self.build_site_s);

        // 1. The serve loop itself, for the store and policy it leaves.
        let (out, mut policy, wall_s) = self.serve();
        self.iteration(&out, wall_s).check?;
        let refresh = out.outcome.refresh;
        values.set("serve.refresh.completed", refresh.completed as f64);
        values.set(
            "serve.refresh.changed_share",
            refresh.changed as f64 / (refresh.completed as f64).max(1.0),
        );
        values.set("serve.read.age_p50_epochs", out.staleness_p50);
        values.set("serve.read.age_p99_epochs", out.staleness_p99);

        // 2. Store and cell primitives, single-threaded.
        let store = &out.store;
        let urls = store.urls();
        ensure(!urls.is_empty(), || "the store is empty".to_owned())?;
        let zipf = Zipf::new(urls.len(), ZIPF_S);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let picks: Vec<usize> = (0..REPLAY_OPS).map(|_| zipf.sample(&mut rng)).collect();
        let per_op = |started: Instant| started.elapsed().as_nanos() as f64 / REPLAY_OPS as f64;

        let started = Instant::now();
        for &slot in &picks {
            black_box(store.read(&urls[slot]));
        }
        values.set("serve.store.read_ns", per_op(started));

        // Re-committing the served version is what a changed refresh does:
        // a new generation of a known URL, body shared.
        let versions: Vec<_> = picks.iter().map(|&slot| store.peek(&urls[slot])).collect();
        let started = Instant::now();
        for version in versions.iter().flatten() {
            black_box(store.commit(
                &version.url,
                version.status,
                version.body.clone(),
                version.body_hash,
            ));
        }
        values.set("serve.store.commit_ns", per_op(started));

        let cell = ArcCell::new(Arc::new(0u64));
        let started = Instant::now();
        for _ in 0..REPLAY_OPS {
            black_box(cell.load());
        }
        values.set("serve.cell.load_ns", per_op(started));
        let fresh: Vec<Arc<u64>> = (0..REPLAY_OPS as u64).map(Arc::new).collect();
        let started = Instant::now();
        for value in fresh {
            black_box(cell.store(value));
        }
        values.set("serve.cell.store_ns", per_op(started));

        // 3. One epoch's plan, with the policy the run trained.
        const PLANS: u32 = 5;
        let started = Instant::now();
        for _ in 0..PLANS {
            policy.begin_epoch();
            black_box(plan_epoch(
                store,
                &mut policy,
                &mut rng,
                self.cfg.refresh_per_epoch,
            ));
        }
        values.set(
            "serve.sched.plan_epoch_ns",
            started.elapsed().as_nanos() as f64 / f64::from(PLANS),
        );

        // 4. The truth oracle's sweep: one GET per stored URL at epoch 1.
        let origin = Arc::new(EvolvingServer::new(&self.site));
        origin.set_epoch(1);
        let started = Instant::now();
        for url in &urls {
            black_box(origin.get(url));
        }
        values.set(
            "revisit.server.get_ns",
            started.elapsed().as_nanos() as f64 / urls.len() as f64,
        );

        // 5. The discovery crawl, replicated with every wrapper on.
        origin.set_epoch(0);
        let base = self.site.snapshot(0);
        let root = base.page(base.root()).url.clone();
        let cfg = CrawlConfig {
            seed: self.cfg.seed,
            max_in_flight: WINDOW,
            serve_feed: true,
            ..CrawlConfig::default()
        };
        let (untraced_wall_s, plain) = {
            let mut strategy = QueueStrategy::bfs();
            let started = Instant::now();
            let plain = CrawlSession::new(&*origin, None, &root, &mut strategy, &cfg)
                .map_err(|e| e.to_string())?
                .run();
            (started.elapsed().as_secs_f64(), Digest::of(&plain))
        };
        let server = TracedServer::new(Arc::clone(&origin) as _);
        let transport = PipelinedTransport::new(&server, cfg.policy.clone(), cfg.politeness)
            .with_window(WINDOW);
        spans::start();
        let traced = layers::traced_session(
            Box::new(transport),
            &TRANSPORT,
            1,
            Box::new(QueueStrategy::bfs()),
            &cfg,
            &root,
        );
        let threads = spans::finish();
        let traced = traced?;
        spans::write_csv(spans_csv, &threads)
            .map_err(|e| format!("{}: {e}", spans_csv.display()))?;
        ensure(Digest::of(&traced.outcome) == plain, || {
            "the wrapped discovery crawl diverged from the unwrapped one".to_owned()
        })?;
        let (traced_wall_s, body_bytes) = (traced.wall_s, server.body_bytes());
        layers::fill_crawl_layers(&mut values, &threads, &[traced], body_bytes, traced_wall_s);
        layers::set_overhead(&mut values, traced_wall_s, untraced_wall_s);
        Ok(values)
    }
}

pub fn serve_refresh(Inputs { corpus, seed }: Inputs) -> Box<dyn Workload> {
    let started = Instant::now();
    let base = eager_website(PAGES, corpus);
    let change = ChangeModel {
        epochs: EPOCHS,
        ..ChangeModel::default()
    };
    let site = EvolvingSite::evolve(base, &change, corpus);
    let build_site_s = started.elapsed().as_secs_f64();
    let corpus = site.snapshot(0).len();
    Box::new(ServeRefresh {
        site_targets: site.snapshot(EPOCHS - 1).n_targets() as u64,
        cfg: ServeConfig {
            change,
            seed,
            window: WINDOW,
            discovery_requests: corpus as u64 * 2,
            refresh_per_epoch: (corpus as f64 * REFRESH_SHARE).round() as usize,
            retain: 1,
            budget: Budget::Unlimited,
            read: Some(ReadLoadConfig {
                readers: 1,
                reads_per_reader: READS_PER_EPOCH,
                zipf_s: ZIPF_S,
                seed,
            }),
        },
        site,
        build_site_s,
    })
}
