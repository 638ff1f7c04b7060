//! End-to-end crawl-engine benchmarks: the interned-id hot path (id-keyed
//! visited set, no URL re-parse/re-stringify, render-cached site server)
//! against the preserved seed implementation (string-keyed `seen`,
//! render-per-GET server) from `sb_bench::reference`.
//!
//! Microbenches for local before/after reading only: `benchmark/`
//! (`BENCHMARK.json`) is the authority for perf claims.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sb_bench::reference::{reference_queue_crawl, UncachedSiteServer};
use sb_crawler::{crawl, Budget, CrawlConfig};
use sb_crawler::fleet::{Fleet, FleetJob, FleetMode, SharedServer};
use sb_crawler::strategies::{Discipline, QueueStrategy, SbStrategy};
use sb_httpsim::SiteServer;
use sb_scale::VisitedSet;
use sb_webgraph::gen::{build_site, SiteSpec};
use sb_webgraph::Website;
use std::sync::Arc;
use std::time::Duration;

/// A large generated site shared by every measurement (cache state is part
/// of what is measured: the seed path re-renders per GET regardless, the
/// interned path renders each page once per site instance).
fn bench_site(n: usize) -> Arc<Website> {
    Arc::new(build_site(&SiteSpec::demo(n), 42))
}

fn root_of(site: &Website) -> String {
    site.page(site.root()).url.clone()
}

/// The headline number: a full BFS crawl of a 4 000-page site, seed path
/// vs interned path. Both exhaust the site (BFS visits every reachable
/// URL), so this exercises the visited set, link filtering, URL identity
/// and page serving end to end.
fn bench_e2e_bfs(c: &mut Criterion) {
    let site = bench_site(4_000);
    let root = root_of(&site);

    let mut group = c.benchmark_group("engine/e2e_bfs_4k");
    group.sample_size(10);
    group.bench_function("seed_string_keyed", |b| {
        let server = UncachedSiteServer::new(Arc::clone(&site));
        b.iter(|| {
            black_box(reference_queue_crawl(
                &server,
                &root,
                Discipline::Fifo,
                Budget::Unlimited,
                7,
                None,
            ))
        })
    });
    group.bench_function("interned_render_cached", |b| {
        let server = SiteServer::shared(Arc::clone(&site));
        b.iter(|| {
            let mut bfs = QueueStrategy::bfs();
            let cfg = CrawlConfig { seed: 7, ..CrawlConfig::default() };
            black_box(crawl(&server, None, &root, &mut bfs, &cfg))
        })
    });
    group.finish();
}

/// The paper's own crawler on the new hot path (no seed counterpart: the
/// reference module only preserves the queue engine). Tracks the absolute
/// cost of a budgeted SB-CLASSIFIER run, HEAD bootstrap included.
fn bench_e2e_sb(c: &mut Criterion) {
    let site = bench_site(4_000);
    let root = root_of(&site);
    let server = SiteServer::shared(Arc::clone(&site));

    let mut group = c.benchmark_group("engine/e2e_sb_classifier_4k");
    group.sample_size(10);
    group.bench_function("interned_render_cached", |b| {
        b.iter(|| {
            let mut sb = SbStrategy::classifier_default();
            let cfg = CrawlConfig {
                budget: Budget::Requests(1_500),
                seed: 7,
                ..CrawlConfig::default()
            };
            black_box(crawl(&server, None, &root, &mut sb, &cfg))
        })
    });
    group.finish();
}

/// HEAD-heavy serving: the classifier bootstrap issues one HEAD per
/// discovered link. Seed path rendered a full body per HEAD; the interned
/// path serves the precomputed Content-Length.
fn bench_head(c: &mut Criterion) {
    let site = bench_site(2_000);
    let urls: Vec<String> = site
        .pages()
        .iter()
        .filter(|p| matches!(p.kind, sb_webgraph::PageKind::Html(_)))
        .map(|p| p.url.clone())
        .take(256)
        .collect();

    let mut group = c.benchmark_group("server/head_256_html_pages");
    group.bench_function("seed_render_per_head", |b| {
        let server = UncachedSiteServer::new(Arc::clone(&site));
        b.iter(|| {
            for u in &urls {
                black_box(sb_httpsim::HttpServer::head(&server, u));
            }
        })
    });
    group.bench_function("precomputed_content_length", |b| {
        let server = SiteServer::shared(Arc::clone(&site));
        b.iter(|| {
            for u in &urls {
                black_box(sb_httpsim::HttpServer::head(&server, u));
            }
        })
    });
    group.finish();
}

/// The multi-site fleet: 8 independent BFS sessions over 8 generated
/// 500-page sites, one private-pool site at a time on 1 vs 4 worker threads.
/// `workers_1` is the serial baseline; the ratio is the fleet's parallel
/// speedup (bounded by the machine's core count — on a single-core runner
/// it only measures scheduling overhead), and 8 sites / `workers_4` time
/// is the multi-site throughput.
fn bench_fleet(c: &mut Criterion) {
    let sites: Vec<Arc<Website>> =
        (0..8).map(|i| Arc::new(build_site(&SiteSpec::demo(500), 100 + i))).collect();

    let mut group = c.benchmark_group("engine/fleet_8x500_bfs");
    group.sample_size(10);
    for workers in [1usize, 4] {
        let id = format!("workers_{workers}");
        group.bench_function(&id, |b| {
            b.iter(|| {
                let mut fleet = Fleet::new(workers);
                for (i, site) in sites.iter().enumerate() {
                    let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(site)));
                    let root = root_of(site);
                    fleet.push(FleetJob::new(format!("site{i}"), server, root, || {
                        Box::new(QueueStrategy::bfs())
                    }));
                }
                black_box(fleet.run())
            })
        });
    }
    group.finish();
}

/// The shared fleet transport pool (PR 5): the same 8×500 fleet as
/// `bench_fleet`, but multiplexed through one `SharedTransportPool` at
/// global in-flight windows 1/4/16 on the single driver thread. Wall time
/// per window is recorded here; the *simulated makespan* ladder (the
/// coverage-invariant ≥ 2× acceptance number) comes from
/// `xp fleet --shared-pool` (`fleet_pool.csv`).
fn bench_fleet_shared_pool(c: &mut Criterion) {
    let sites: Vec<Arc<Website>> =
        (0..8).map(|i| Arc::new(build_site(&SiteSpec::demo(500), 100 + i))).collect();

    let mut group = c.benchmark_group("engine/fleet_shared_pool_8x500");
    group.sample_size(10);
    for window in [1usize, 4, 16] {
        let id = format!("window_{window}");
        group.bench_function(&id, |b| {
            b.iter(|| {
                let mut fleet =
                    Fleet::new(1).mode(FleetMode::SharedPool { max_in_flight: window });
                for (i, site) in sites.iter().enumerate() {
                    let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(site)));
                    let root = root_of(site);
                    fleet.push(FleetJob::new(format!("site{i}"), server, root, || {
                        Box::new(QueueStrategy::bfs())
                    }));
                }
                black_box(fleet.run())
            })
        });
    }
    group.finish();
}

/// The sharded parallel fleet driver (PR 8): the same 8×500 fleet, but
/// split across 1/2/4 shard threads, each with its own pool at per-shard
/// window 1 and whole-site work stealing between backlogs. The
/// `shards_1` / `shards_4` wall-time ratio is the fleet's *real* parallel
/// speedup (bounded by the machine's core count — on a single-core runner
/// it only measures the sharding overhead).
fn bench_fleet_sharded(c: &mut Criterion) {
    let sites: Vec<Arc<Website>> =
        (0..8).map(|i| Arc::new(build_site(&SiteSpec::demo(500), 100 + i))).collect();

    let mut group = c.benchmark_group("engine/fleet_sharded_8x500");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        let id = format!("shards_{shards}");
        group.bench_function(&id, |b| {
            b.iter(|| {
                let mut fleet =
                    Fleet::new(1).mode(FleetMode::Sharded { shards, max_in_flight: 1 });
                for (i, site) in sites.iter().enumerate() {
                    let server: SharedServer = Arc::new(SiteServer::shared(Arc::clone(site)));
                    let root = root_of(site);
                    fleet.push(FleetJob::new(format!("site{i}"), server, root, || {
                        Box::new(QueueStrategy::bfs())
                    }));
                }
                black_box(fleet.run())
            })
        });
    }
    group.finish();
}

/// The pipelined transport (PR 4): one BFS exhaustion of the 4 000-page
/// site at in-flight windows 1/4/16 under the latency-simulated politeness
/// model (1 s delay, slow link). Wall time per window is recorded here;
/// the *simulated makespan* ladder itself (the ≥ 2× acceptance number)
/// comes from `xp pipeline` (`pipeline.csv`).
fn bench_pipeline(c: &mut Criterion) {
    let site = bench_site(4_000);
    let root = root_of(&site);
    let politeness =
        sb_httpsim::Politeness { delay_secs: 1.0, bytes_per_sec: 600.0 };

    let mut group = c.benchmark_group("engine/pipeline_4k_latency");
    group.sample_size(10);
    for window in [1usize, 4, 16] {
        let id = format!("in_flight_{window}");
        group.bench_function(&id, |b| {
            let server = SiteServer::shared(Arc::clone(&site));
            b.iter(|| {
                let mut bfs = QueueStrategy::bfs();
                let cfg = CrawlConfig {
                    seed: 7,
                    max_in_flight: window,
                    politeness,
                    ..CrawlConfig::default()
                };
                black_box(crawl(&server, None, &root, &mut bfs, &cfg))
            })
        });
    }
    group.finish();
}

/// Interner micro-costs: membership tests on parsed URLs vs owned-string
/// hashing, over a realistic URL population.
fn bench_interner(c: &mut Criterion) {
    let site = bench_site(2_000);
    let parsed: Vec<sb_webgraph::Url> =
        site.pages().iter().map(|p| sb_webgraph::Url::parse(&p.url).unwrap()).collect();

    c.bench_function("interner/intern_2k_urls", |b| {
        b.iter(|| {
            let mut it = VisitedSet::exact();
            for u in &parsed {
                black_box(it.intern(u));
            }
            it.len()
        })
    });
    c.bench_function("interner/hit_lookup_2k", |b| {
        let mut it = VisitedSet::exact();
        for u in &parsed {
            it.intern(u);
        }
        b.iter(|| {
            let mut found = 0usize;
            for u in &parsed {
                found += usize::from(it.get(black_box(u)).is_some());
            }
            found
        })
    });
    // The per-link loop of `process_html` in isolation: every href of one
    // generated site resolved into a reused scratch `Url` and looked up in a
    // visited set that already knows it (the 88 % case of a BFS crawl).
    c.bench_function("interner/link_admission", |b| {
        let pages: Vec<(sb_webgraph::Url, Vec<String>)> = (0..site.len() as u32)
            .filter(|&id| matches!(site.page(id).kind, sb_webgraph::gen::PageKind::Html(_)))
            .map(|id| {
                let html = site.rendered(id);
                let hrefs = sb_html::extract_links(&String::from_utf8_lossy(&html))
                    .iter()
                    .map(|l| l.href.to_string())
                    .collect();
                (sb_webgraph::Url::parse(&site.page(id).url).unwrap(), hrefs)
            })
            .collect();
        let mut visited = VisitedSet::exact();
        for u in &parsed {
            visited.intern(u);
        }
        let mut scratch = parsed[0].clone();
        b.iter(|| {
            let mut known = 0usize;
            for (base, hrefs) in &pages {
                for href in hrefs {
                    if base.join_into(black_box(href), &mut scratch).is_ok() {
                        known += usize::from(visited.get(&scratch).is_some());
                    }
                }
            }
            known
        })
    });
}

criterion_group!(
    name = engine;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = bench_e2e_bfs, bench_e2e_sb, bench_head, bench_fleet, bench_fleet_shared_pool, bench_fleet_sharded, bench_pipeline, bench_interner
);
criterion_main!(engine);
