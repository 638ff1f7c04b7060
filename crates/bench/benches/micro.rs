//! Micro-benchmarks of the crawler's hot inner loops: HTML parse + link
//! extraction, tag-path vectorisation + projection, action assignment,
//! online classifier updates and AUER selection. These are the costs the
//! paper argues are "negligible compared to crawl time" (Sec 3.2) — the
//! numbers here quantify that claim.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_ann::{Projector, Sketcher};
use sb_bandit::{policies::ArmView, ArmStats, Auer, Policy};
use sb_crawler::{ActionSpace, ActionSpaceConfig};
use sb_html::{extract_links, parse, TagPath};
use sb_ml::{Class2, FeatureInput, UrlClassifier};
use sb_webgraph::gen::render::render_page;
use sb_webgraph::gen::{build_site, PageKind, SiteSpec};

fn sample_page_html() -> String {
    let site = build_site(&SiteSpec::demo(300), 7);
    // Find a list page with plenty of links.
    let id = (0..site.len() as u32)
        .filter(|&i| matches!(site.page(i).kind, PageKind::Html(_)))
        .max_by_key(|&i| site.page(i).out.len())
        .expect("site has HTML pages");
    render_page(&site, id)
}

fn bench_html(c: &mut Criterion) {
    let html = sample_page_html();
    c.bench_function("html/parse", |b| b.iter(|| parse(black_box(&html))));
    c.bench_function("html/extract_links", |b| b.iter(|| extract_links(black_box(&html))));
}

/// The 64 tag paths (7 distinct content classes) the ann benches sketch.
fn bench_tag_paths() -> Vec<TagPath> {
    (0..64)
        .map(|i| {
            TagPath::parse(&format!(
                "html body div#layout div.wrap main div.content--s{} ul.datasets li a.download",
                i % 7
            ))
        })
        .collect()
}

fn bench_projection(c: &mut Criterion) {
    let mut sketcher = Sketcher::new(2, Projector::paper_default());
    let paths = bench_tag_paths();
    // Warm the vocabulary.
    for p in &paths {
        let toks: Vec<String> = p.tokens().collect();
        sketcher.sketch_mut(&toks);
    }
    c.bench_function("ann/vectorize+project", |b| {
        let mut i = 0;
        b.iter(|| {
            let toks: Vec<String> = paths[i % paths.len()].tokens().collect();
            i += 1;
            black_box(sketcher.sketch(&toks))
        })
    });
}

/// `ActionSpace::assign` at steady state: every path joins an existing
/// action (sketch, nearest-centroid scan, centroid move).
fn bench_assign_warm(c: &mut Criterion) {
    let mut space = ActionSpace::new(ActionSpaceConfig::default());
    let paths = bench_tag_paths();
    for p in &paths {
        space.assign(p).expect("no cap");
    }
    c.bench_function("ann/assign_warm", |b| {
        let mut i = 0;
        b.iter(|| {
            let p = &paths[i % paths.len()];
            i += 1;
            black_box(space.assign(black_box(p)).expect("no cap"))
        })
    });
}

fn bench_action_space(c: &mut Criterion) {
    c.bench_function("crawler/action_assign", |b| {
        let mut space = ActionSpace::new(ActionSpaceConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            let p = TagPath::parse(&format!(
                "html body div#layout main div.content--{} ul.datasets li a.download",
                i % 9
            ));
            i += 1;
            black_box(space.assign(&p).expect("no cap"))
        })
    });
}

fn bench_classifier(c: &mut Criterion) {
    let mut clf = UrlClassifier::paper_default();
    for i in 0..100 {
        let url = if i % 2 == 0 {
            format!("https://a.com/files/data-{i}.csv")
        } else {
            format!("https://a.com/pages/article-{i}.html")
        };
        let class = if i % 2 == 0 { Class2::Target } else { Class2::Html };
        clf.observe(&FeatureInput::url_only(&url), class);
    }
    c.bench_function("ml/classifier_predict", |b| {
        b.iter(|| clf.predict(black_box(&FeatureInput::url_only("https://a.com/files/probe-file.csv"))))
    });
    c.bench_function("ml/classifier_observe", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let url = format!("https://a.com/files/data-{i}.csv");
            i += 1;
            clf.observe(&FeatureInput::url_only(&url), Class2::Target)
        })
    });
}

fn bench_bandit(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let arms: Vec<ArmView> = (0..200)
        .map(|i| {
            let mut stats = ArmStats::new();
            for _ in 0..(i % 17 + 1) {
                stats.select();
                stats.reward((i % 5) as f64);
            }
            ArmView { stats, available: i % 7 != 0 }
        })
        .collect();
    let mut policy = Auer::default();
    c.bench_function("bandit/auer_select_200arms", |b| {
        b.iter(|| policy.select(black_box(&arms), 10_000, &mut rng))
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(30).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_html, bench_projection, bench_assign_warm, bench_action_space, bench_classifier, bench_bandit
);
criterion_main!(micro);
