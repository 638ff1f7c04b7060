//! `fleet_sharded`: eight sites driven by `Fleet` in `FleetMode::Sharded` on
//! two shard threads — the only multi-threaded crawl workload.
//!
//! `Fleet` builds its own pool handles and sessions, so from outside only
//! the server and the strategy factory can be wrapped. The traced iteration
//! wraps those two (and checks the fleet's per-site results did not move);
//! the session, transport and HTML numbers come from fully wrapped solo
//! sessions over the same eight sites, the pool's from one site driven
//! through a wrapped lone `PoolHandle`, and the fleet driver's own cost from
//! comparing a one-shard fleet against the sum of the solo walls.

use super::{eager_site, ensure, reachable, Digest, Inputs, Iteration, Workload};
use crate::layers::{self, LayerValues, TracedSession};
use crate::spans;
use crate::wrap::{TracedServer, TracedStrategy, POOL, TRANSPORT};
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::{
    CrawlConfig, CrawlSession, Fleet, FleetJob, FleetOutcome, SharedServer, Strategy,
};
use sb_httpsim::{PipelinedTransport, SharedTransportPool, SiteServer, Traffic};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const SITES: usize = 8;
const PAGES: usize = 4_000;
const SHARDS: usize = 2;
const WINDOW: usize = 4;

struct Site {
    name: String,
    root: String,
    server: Arc<SiteServer>,
    targets: u64,
    reachable: u64,
}

struct FleetSharded {
    sites: Vec<Site>,
    seed: u64,
    build_site_s: f64,
}

fn bfs() -> Box<dyn Strategy> {
    Box::new(QueueStrategy::bfs())
}

impl FleetSharded {
    fn cfg(&self) -> CrawlConfig {
        CrawlConfig {
            seed: self.seed,
            ..CrawlConfig::default()
        }
    }

    /// The fleet over `servers` (one per site, in site order), sites dealt
    /// round-robin onto `shards` shards.
    fn fleet(
        &self,
        shards: usize,
        servers: &[SharedServer],
        strategy: impl Fn() -> Box<dyn Strategy> + Send + Clone + 'static,
    ) -> Fleet {
        let mut fleet = Fleet::new(shards)
            .sharded(shards, WINDOW)
            .shard_assignment((0..self.sites.len()).collect());
        for (site, server) in self.sites.iter().zip(servers) {
            let strategy = strategy.clone();
            fleet.push(
                FleetJob::new(
                    site.name.clone(),
                    Arc::clone(server),
                    site.root.clone(),
                    strategy,
                )
                .config(self.cfg()),
            );
        }
        fleet
    }

    fn plain_servers(&self) -> Vec<SharedServer> {
        self.sites
            .iter()
            .map(|s| Arc::clone(&s.server) as SharedServer)
            .collect()
    }

    fn iteration(&self, out: &FleetOutcome, wall_s: f64) -> Iteration {
        let outcomes: Vec<_> = out.sites.iter().map(|s| s.expect_outcome()).collect();
        let check = (|| {
            for (site, o) in self.sites.iter().zip(&outcomes) {
                ensure(o.targets_found() == site.targets, || {
                    format!(
                        "{}: {} of {} targets",
                        site.name,
                        o.targets_found(),
                        site.targets
                    )
                })?;
                ensure(o.pages_crawled == site.reachable, || {
                    format!(
                        "{}: crawled {} of {} URLs",
                        site.name, o.pages_crawled, site.reachable
                    )
                })?;
            }
            Ok(())
        })();
        Iteration {
            wall_s,
            requests: out.traffic.requests(),
            targets: out.targets,
            site_targets: self.sites.iter().map(|s| s.targets).sum(),
            fetches: outcomes.iter().map(|o| o.pages_crawled).sum(),
            abandoned: out.abandoned.total(),
            sim_makespan_s: out.sim_makespan_secs(),
            delivered_per_s: out.targets as f64 / wall_s,
            // A site's `elapsed_secs` reads on its shard's clock, and a
            // steal (wall-clock dependent) may move a site to the other
            // shard's; everything else is per-site and must not move.
            digests: outcomes
                .iter()
                .map(|o| {
                    let d = Digest::of(o);
                    Digest {
                        traffic: Traffic {
                            elapsed_secs: 0.0,
                            ..d.traffic
                        },
                        ..d
                    }
                })
                .collect(),
            check,
        }
    }

    fn run_fleet(&self, fleet: Fleet) -> (FleetOutcome, f64) {
        let started = Instant::now();
        let out = fleet.run();
        (out, started.elapsed().as_secs_f64())
    }

    /// One untraced solo session (window 1, its own transport): what came
    /// out, and how long it took.
    fn solo(&self, site: &Site) -> Result<(Digest, f64), String> {
        let cfg = self.cfg();
        let mut strategy = bfs();
        let started = Instant::now();
        let outcome = CrawlSession::new(&*site.server, None, &site.root, strategy.as_mut(), &cfg)
            .map_err(|e| format!("{}: {e}", site.name))?
            .run();
        Ok((Digest::of(&outcome), started.elapsed().as_secs_f64()))
    }
}

impl Workload for FleetSharded {
    fn iterate(&mut self) -> Iteration {
        let (out, wall_s) = self.run_fleet(self.fleet(SHARDS, &self.plain_servers(), bfs));
        self.iteration(&out, wall_s)
    }

    /// Each fleet site equals its solo session: as many targets, requests,
    /// pages and abandons. (Not the same target *order*: a site may hold more
    /// than one slot of its shard's window, which reorders completions.)
    fn verify(&mut self, reference: &Iteration) -> Result<(), String> {
        for (site, in_fleet) in self.sites.iter().zip(&reference.digests) {
            let (solo, _) = self.solo(site)?;
            let counts = |d: &Digest| (d.targets, d.traffic.requests(), d.pages, d.abandoned);
            ensure(counts(&solo) == counts(in_fleet), || {
                format!(
                    "{}: fleet {in_fleet:?} differs from solo {solo:?}",
                    site.name
                )
            })?;
        }
        Ok(())
    }

    fn trace(
        &mut self,
        reference: &Iteration,
        untraced_wall_s: f64,
        spans_csv: &Path,
    ) -> Result<LayerValues, String> {
        let mut values = LayerValues::default();
        values.set("webgraph.build_site_s", self.build_site_s);

        // 1. The fleet itself, server and strategy wrapped.
        let traced_servers: Vec<Arc<TracedServer>> = self
            .sites
            .iter()
            .map(|s| Arc::new(TracedServer::new(Arc::clone(&s.server) as _)))
            .collect();
        let servers: Vec<SharedServer> = traced_servers
            .iter()
            .map(|s| Arc::clone(s) as SharedServer)
            .collect();
        let factory = || Box::new(TracedStrategy::new(bfs())) as Box<dyn Strategy>;
        spans::start();
        let (out, fleet_wall_s) = self.run_fleet(self.fleet(SHARDS, &servers, factory));
        let fleet_threads = spans::finish();
        spans::write_csv(spans_csv, &fleet_threads)
            .map_err(|e| format!("{}: {e}", spans_csv.display()))?;
        let traced = self.iteration(&out, fleet_wall_s);
        traced.check.clone()?;
        ensure(traced.digests == reference.digests, || {
            "the wrapped fleet diverged from the unwrapped one".to_owned()
        })?;
        layers::set_overhead(&mut values, fleet_wall_s, untraced_wall_s);
        values.set("core.fleet.stolen_sites", out.stolen_sites() as f64);

        // 2. Solo sessions, fully wrapped: the crawl-path layers.
        let cfg = self.cfg();
        let mut sessions: Vec<TracedSession> = Vec::with_capacity(self.sites.len());
        let mut solo_traced_wall_s = 0.0;
        let mut body_bytes = 0;
        spans::start();
        for site in &self.sites {
            let server = TracedServer::new(Arc::clone(&site.server) as _);
            let transport =
                PipelinedTransport::new(&server, cfg.policy.clone(), cfg.politeness).with_window(1);
            let session =
                layers::traced_session(Box::new(transport), &TRANSPORT, 1, bfs(), &cfg, &site.root);
            body_bytes += server.body_bytes();
            match session {
                Ok(s) => {
                    solo_traced_wall_s += s.wall_s;
                    sessions.push(s);
                }
                Err(e) => {
                    spans::finish();
                    return Err(e);
                }
            }
        }
        let solo_threads = spans::finish();
        layers::fill_crawl_layers(
            &mut values,
            &solo_threads,
            &sessions,
            body_bytes,
            solo_traced_wall_s,
        );
        drop(sessions);

        // 3. One site through a wrapped lone pool handle: the pool's cost.
        let site = &self.sites[0];
        let pool = SharedTransportPool::new(WINDOW);
        let handle = pool.handle(&*site.server, cfg.policy.clone(), cfg.politeness);
        spans::start();
        let pooled =
            layers::traced_session(Box::new(handle), &POOL, u64::MAX, bfs(), &cfg, &site.root);
        let pool_threads = spans::finish();
        ensure(pooled?.outcome.targets_found() == site.targets, || {
            "the pooled session missed targets".to_owned()
        })?;
        let pool_agg = spans::aggregate(&pool_threads);
        let of = |name: &str| pool_agg.get(name).copied().unwrap_or_default();
        values.set(
            "httpsim.pool.submit_self_ns",
            of("httpsim.pool.submit").self_ns as f64,
        );
        values.set(
            "httpsim.pool.poll_ns",
            of("httpsim.pool.poll").total_ns as f64,
        );

        // 4. The fleet driver: a one-shard fleet against the solo sessions
        //    it is made of, and against the two-shard fleet.
        let mut solo_wall_s = 0.0;
        for site in &self.sites {
            solo_wall_s += self.solo(site)?.1;
        }
        let (one, one_shard_wall_s) = self.run_fleet(self.fleet(1, &self.plain_servers(), bfs));
        let requests = one.traffic.requests().max(1) as f64;
        values.set(
            "core.fleet.overhead_ns_per_request",
            (one_shard_wall_s - solo_wall_s) * 1e9 / requests,
        );
        values.set(
            "core.fleet.parallel_efficiency",
            one_shard_wall_s / (SHARDS as f64 * untraced_wall_s),
        );
        Ok(values)
    }
}

pub fn fleet_sharded(Inputs { corpus, seed }: Inputs) -> Box<dyn Workload> {
    let started = Instant::now();
    let sites = (0..SITES)
        .map(|i| {
            let site = eager_site(PAGES, corpus + 100 + i as u64);
            Site {
                name: format!("site{i}"),
                root: site.page(site.root()).url.clone(),
                targets: site.n_targets() as u64,
                reachable: reachable(&*site),
                server: Arc::new(SiteServer::shared(site)),
            }
        })
        .collect();
    let build_site_s = started.elapsed().as_secs_f64();
    Box::new(FleetSharded {
        sites,
        seed,
        build_site_s,
    })
}
