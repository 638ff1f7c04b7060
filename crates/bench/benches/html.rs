//! HTML pipeline benchmarks: the zero-copy tokenizer/DOM/link extractor
//! (PR 3) against the preserved seed owned-`String` pipeline from
//! `sb_bench::seed_html`, over the rendered HTML of a representative
//! 3 000-page generated site — the same per-page work every end-to-end
//! crawl pays on its hot path.
//!
//! A microbench for local before/after reading only: `benchmark/`
//! (`BENCHMARK.json`) is the authority for perf claims.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sb_bench::seed_html::{seed_extract_links, seed_parse, seed_tokenize};
use sb_html::{extract_links, extract_links_with, parse, tokenize, LinkNeeds};
use sb_webgraph::gen::render::render_page;
use sb_webgraph::gen::{build_site, PageKind, SiteSpec};
use std::time::Duration;

/// Every HTML page of a 3 000-page site, rendered once up front. One bench
/// iteration sweeps the whole corpus, so ns/iter is the cost of the HTML
/// stage of a full crawl of the site.
fn corpus() -> Vec<String> {
    let site = build_site(&SiteSpec::demo(3_000), 42);
    (0..site.len() as u32)
        .filter(|&id| matches!(site.page(id).kind, PageKind::Html(_)))
        .map(|id| render_page(&site, id))
        .collect()
}

fn bench_tokenize(c: &mut Criterion) {
    let pages = corpus();
    let mut group = c.benchmark_group("html/tokenize_3k_pages");
    group.sample_size(10);
    group.bench_function("seed_owned_tokens", |b| {
        b.iter(|| {
            let mut tokens = 0usize;
            for p in &pages {
                tokens += seed_tokenize(black_box(p)).len();
            }
            tokens
        })
    });
    group.bench_function("zero_copy_tokens", |b| {
        b.iter(|| {
            let mut tokens = 0usize;
            for p in &pages {
                tokens += tokenize(black_box(p)).len();
            }
            tokens
        })
    });
    group.finish();
}

fn bench_dom_build(c: &mut Criterion) {
    let pages = corpus();
    let mut group = c.benchmark_group("html/dom_build_3k_pages");
    group.sample_size(10);
    group.bench_function("seed_owned_nodes", |b| {
        b.iter(|| {
            let mut nodes = 0usize;
            for p in &pages {
                nodes += seed_parse(black_box(p)).len();
            }
            nodes
        })
    });
    group.bench_function("zero_copy_arena", |b| {
        b.iter(|| {
            let mut nodes = 0usize;
            for p in &pages {
                nodes += parse(black_box(p)).len();
            }
            nodes
        })
    });
    group.finish();
}

fn bench_extract_links(c: &mut Criterion) {
    let pages = corpus();
    let mut group = c.benchmark_group("html/extract_links_3k_pages");
    group.sample_size(10);
    group.bench_function("seed_owned_features", |b| {
        b.iter(|| {
            let mut links = 0usize;
            for p in &pages {
                links += seed_extract_links(black_box(p)).len();
            }
            links
        })
    });
    group.bench_function("zero_copy_all_features", |b| {
        b.iter(|| {
            let mut links = 0usize;
            for p in &pages {
                links += extract_links(black_box(p)).len();
            }
            links
        })
    });
    // The BFS/DFS configuration: hrefs only, everything borrowed. No seed
    // counterpart (the seed always computed every feature) — tracked as an
    // absolute number.
    group.bench_function("zero_copy_href_only", |b| {
        b.iter(|| {
            let mut links = 0usize;
            for p in &pages {
                links += extract_links_with(black_box(p), LinkNeeds::HREF_ONLY).len();
            }
            links
        })
    });
    group.finish();
}

criterion_group!(
    name = html;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = bench_tokenize, bench_dom_build, bench_extract_links
);
criterion_main!(html);
