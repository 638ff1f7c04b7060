//! Benchmarks for the incremental-recrawl extension (Sec 6 future work):
//! policy scheduling overhead and whole-epoch recrawl cost, plus the
//! freshness/discovery quality ablation across policies.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_eval::experiments::revisit::{recrawl, RecrawlConfig};
use sb_revisit::{
    ChangeModel, EvolvingSite, Observation, ProportionalRevisit, RevisitPolicy, RoundRobinRevisit,
    SleepingBanditRevisit, ThompsonGroupsRevisit,
};
use sb_webgraph::{build_site, SiteSpec};

fn registered<P: RevisitPolicy>(mut p: P, n: usize) -> P {
    for i in 0..n {
        p.register(&format!("https://s.example/sec{}/p{i}", i % 12), &format!("html body div.s{} ul li a", i % 12));
    }
    p
}

/// Pure scheduler cost: one epoch's worth of next/observe on 2 000 pages.
fn bench_policy_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("revisit/schedule_2k_pages");
    macro_rules! bench_policy {
        ($name:literal, $ctor:expr) => {
            group.bench_function($name, |b| {
                b.iter_with_setup(
                    || (registered($ctor, 2000), StdRng::seed_from_u64(3)),
                    |(mut p, mut rng)| {
                        p.begin_epoch();
                        let mut n = 0u64;
                        while let Some(url) = p.next(&mut rng) {
                            p.observe(
                                &url,
                                &Observation { changed: n % 7 == 0, new_targets: n % 13, died: false },
                            );
                            n += 1;
                        }
                        black_box(n)
                    },
                )
            });
        };
    }
    bench_policy!("uniform", RoundRobinRevisit::default());
    bench_policy!("proportional", ProportionalRevisit::default());
    bench_policy!("thompson_groups", ThompsonGroupsRevisit::default());
    bench_policy!("sleeping_bandit", SleepingBanditRevisit::default());
    group.finish();
}

/// End-to-end recrawl of an evolving 400-page site (6 epochs), the number
/// that matters for experiment wall-clock.
fn bench_recrawl_end_to_end(c: &mut Criterion) {
    let model = ChangeModel::default();
    let site = EvolvingSite::evolve(build_site(&SiteSpec::demo(400), 5), &model, 5);
    let mut group = c.benchmark_group("revisit/recrawl_400p_6epochs");
    group.sample_size(10);
    group.bench_function("sleeping_bandit", |b| {
        b.iter(|| {
            let mut p = SleepingBanditRevisit::default();
            let cfg = RecrawlConfig { per_epoch_requests: 60, ..Default::default() };
            black_box(recrawl(&site, &mut p, &cfg).new_targets_found())
        })
    });
    group.bench_function("uniform", |b| {
        b.iter(|| {
            let mut p = RoundRobinRevisit::default();
            let cfg = RecrawlConfig { per_epoch_requests: 60, ..Default::default() };
            black_box(recrawl(&site, &mut p, &cfg).new_targets_found())
        })
    });
    group.finish();
}

/// Site evolution itself (snapshot cloning + mutation), amortised per run.
fn bench_evolve(c: &mut Criterion) {
    let base = build_site(&SiteSpec::demo(800), 9);
    c.bench_function("revisit/evolve_800p_6epochs", |b| {
        b.iter(|| {
            black_box(EvolvingSite::evolve(base.clone(), &ChangeModel::default(), 9).epochs())
        })
    });
}

criterion_group!(
    name = benches;
    config = criterion::Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_policy_step, bench_recrawl_end_to_end, bench_evolve
);
criterion_main!(benches);
