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
use sb_crawler::strategies::{Discipline, QueueStrategy};
use sb_httpsim::SiteServer;
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

criterion_group!(
    name = engine;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = bench_e2e_bfs
);
criterion_main!(engine);
