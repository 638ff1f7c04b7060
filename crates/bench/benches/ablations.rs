//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Bandit policy** — AUER vs plain UCB1 vs ε-greedy vs Thompson on the
//!    same site (the paper's appendix discusses why AUER);
//! 2. **Classifier vs oracle vs none** — what the online URL classifier
//!    buys over plain BFS, and how far it sits from the perfect oracle.
//!
//! Each bench reports wall time; the companion `measure_*` functions print
//! the quality numbers once per run so the trade-off is visible in the
//! bench log.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_bandit::{policies::ArmView, ArmStats, Auer, EpsilonGreedy, Policy, ThompsonSampling, Ucb1};
use sb_crawler::{crawl, Budget, CrawlConfig};
use sb_crawler::strategies::{QueueStrategy, SbConfig, SbStrategy};
use sb_httpsim::SiteServer;
use sb_webgraph::gen::{build_site, SiteSpec};

fn bench_bandit_policies(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let arms: Vec<ArmView> = (0..100)
        .map(|i| {
            let mut stats = ArmStats::new();
            for _ in 0..(i % 13 + 1) {
                stats.select();
                stats.reward((i % 7) as f64);
            }
            ArmView { stats, available: true }
        })
        .collect();
    let mut group = c.benchmark_group("ablation/bandit_select");
    group.bench_function("auer", |b| {
        let mut p = Auer::default();
        b.iter(|| p.select(black_box(&arms), 5000, &mut rng))
    });
    group.bench_function("ucb1", |b| {
        let mut p = Ucb1::default();
        b.iter(|| p.select(black_box(&arms), 5000, &mut rng))
    });
    group.bench_function("eps_greedy", |b| {
        let mut p = EpsilonGreedy::default();
        b.iter(|| p.select(black_box(&arms), 5000, &mut rng))
    });
    group.bench_function("thompson", |b| {
        let mut p = ThompsonSampling::default();
        b.iter(|| p.select(black_box(&arms), 5000, &mut rng))
    });
    group.finish();
}

fn bench_crawler_quality(c: &mut Criterion) {
    let site = build_site(&SiteSpec::demo(600), 21);
    let total = site.census().targets as f64;
    let budget = Budget::Requests(200);
    let root = site.page(site.root()).url.clone();

    // Print quality once so the bench log shows the trade-off.
    for (name, mk) in [
        ("SB-ORACLE", 0usize),
        ("SB-CLASSIFIER", 1),
        ("BFS", 2),
    ] {
        let server = SiteServer::new(site.clone());
        let cfg = CrawlConfig { budget, seed: 5, ..Default::default() };
        let found = match mk {
            0 => {
                let mut s = SbStrategy::oracle(SbConfig::default());
                crawl(&server, Some(&site), &root, &mut s, &cfg).targets_found()
            }
            1 => {
                let mut s = SbStrategy::classifier_default();
                crawl(&server, None, &root, &mut s, &cfg).targets_found()
            }
            _ => {
                let mut s = QueueStrategy::bfs();
                crawl(&server, None, &root, &mut s, &cfg).targets_found()
            }
        };
        eprintln!("[ablation] {name}: {found} targets ({:.0}%) at 200 requests", 100.0 * found as f64 / total);
    }

    let mut group = c.benchmark_group("ablation/crawl_200req");
    group.sample_size(10);
    group.bench_function("sb_oracle", |b| {
        b.iter(|| {
            let server = SiteServer::new(site.clone());
            let mut s = SbStrategy::oracle(SbConfig::default());
            let cfg = CrawlConfig { budget, seed: 5, ..Default::default() };
            black_box(crawl(&server, Some(&site), &root, &mut s, &cfg).targets_found())
        })
    });
    group.bench_function("sb_classifier", |b| {
        b.iter(|| {
            let server = SiteServer::new(site.clone());
            let mut s = SbStrategy::classifier_default();
            let cfg = CrawlConfig { budget, seed: 5, ..Default::default() };
            black_box(crawl(&server, None, &root, &mut s, &cfg).targets_found())
        })
    });
    group.bench_function("bfs", |b| {
        b.iter(|| {
            let server = SiteServer::new(site.clone());
            let mut s = QueueStrategy::bfs();
            let cfg = CrawlConfig { budget, seed: 5, ..Default::default() };
            black_box(crawl(&server, None, &root, &mut s, &cfg).targets_found())
        })
    });
    group.finish();
}

fn bench_bandit_choice_quality(c: &mut Criterion) {
    use sb_crawler::strategies::BanditChoice;
    let site = build_site(&SiteSpec::demo(600), 33);
    let total = site.census().targets as f64;
    let budget = Budget::Requests(200);
    let root = site.page(site.root()).url.clone();
    let choices = [
        ("auer", BanditChoice::Auer { alpha: sb_bandit::ALPHA_DEFAULT }),
        ("ucb1", BanditChoice::Ucb1 { alpha: sb_bandit::ALPHA_DEFAULT }),
        ("eps_greedy", BanditChoice::EpsilonGreedy { epsilon: 0.1 }),
        ("thompson", BanditChoice::Thompson { sigma: 1.0 }),
    ];
    // Quality line in the bench log: targets found per policy.
    for (name, choice) in choices {
        let server = SiteServer::new(site.clone());
        let mut s = SbStrategy::oracle(SbConfig { bandit: Some(choice), ..Default::default() });
        let cfg = CrawlConfig { budget, seed: 5, ..Default::default() };
        let found = crawl(&server, Some(&site), &root, &mut s, &cfg).targets_found();
        eprintln!(
            "[ablation] SB with {name}: {found} targets ({:.0}%) at 200 requests",
            100.0 * found as f64 / total
        );
    }
    let mut group = c.benchmark_group("ablation/bandit_choice_crawl");
    group.sample_size(10);
    for (name, choice) in choices {
        group.bench_function(name, |b| {
            b.iter(|| {
                let server = SiteServer::new(site.clone());
                let mut s =
                    SbStrategy::oracle(SbConfig { bandit: Some(choice), ..Default::default() });
                let cfg = CrawlConfig { budget, seed: 5, ..Default::default() };
                black_box(crawl(&server, Some(&site), &root, &mut s, &cfg).targets_found())
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(20).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_bandit_policies, bench_crawler_quality,
        bench_bandit_choice_quality
);
criterion_main!(ablations);
