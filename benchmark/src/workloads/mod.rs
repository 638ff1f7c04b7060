//! The seven workloads. Each builds its inputs from the run's [`Inputs`], runs
//! one closed-loop crawl per iteration on one driver thread, and checks its
//! own outputs; `crate::runner` times and repeats them.

mod fleet;
mod serve;
mod single;

use crate::layers::LayerValues;
use sb_crawler::{AbandonCounts, CrawlOutcome};
use sb_httpsim::Traffic;
use sb_webgraph::gen::{build_site, SiteSource, SiteSpec, Website};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

/// Where a run's inputs come from.
///
/// The *corpus* — every generated site and its evolution — is pinned, like
/// the paper's fixed set of websites: measured over seed-derived sites, cost
/// and harvest swing with site structure by more than any regression bound
/// (SB-CLASSIFIER's wall by 12 %, VALUE's harvest by 45 %, how much of
/// `hostile_retry`'s budget the trap swallows by 55 %; interquartile range
/// over the median of ten seeds), and the benchmark driver accepts a metric
/// only if its spread across seeds stays inside its bound. The *seed* drives
/// the run's random choices that do not reshape the workload: the session
/// RNG, the retry jitter, the planner's and the reader's streams.
///
/// SB-CLASSIFIER's random link choice reshapes its crawl as much as another
/// site would (harvest ±8 %, abandons ±17 % over ten session seeds), so
/// `sb_budget` pins its session RNG to the corpus seed as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    /// Seed of the generated sites; `--corpus`, 42 unless a change is being
    /// cross-checked on a corpus it was not written against.
    pub corpus: u64,
    /// `--seed`.
    pub seed: u64,
}

/// The spec of every generated site: the demo portal with small targets.
/// Default targets are 256 KiB bodies, a thousand of which overflow the
/// 256 MiB `TARGET_CACHE_BUDGET` and make a "warm" crawl regenerate bodies;
/// 30–90 kB targets keep the eight-site fleet under 200 MB resident.
pub fn bench_spec(n_pages: usize) -> SiteSpec {
    SiteSpec {
        target_size_mb: (0.03, 0.09),
        ..SiteSpec::demo(n_pages)
    }
}

/// An eager site that caches every target body: timed iterations never
/// regenerate one.
pub fn eager_website(n_pages: usize, seed: u64) -> Website {
    build_site(&bench_spec(n_pages), seed).with_target_cache_budget(u64::MAX)
}

pub fn eager_site(n_pages: usize, seed: u64) -> Arc<Website> {
    Arc::new(eager_website(n_pages, seed))
}

/// URLs reachable from the root, dead ones and redirects included: what an
/// exhaustive crawl fetches, each exactly once.
pub fn reachable(site: &dyn SiteSource) -> u64 {
    site.source_depths().iter().flatten().count() as u64
}

/// The deterministic part of a crawl's outcome: what must be identical
/// across iterations, and between a wrapped and an unwrapped crawl.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub targets: u64,
    /// Hash of the retrieved target URLs, in retrieval order.
    pub targets_hash: u64,
    pub pages: u64,
    pub traffic: Traffic,
    pub abandoned: AbandonCounts,
}

impl Digest {
    pub fn of(outcome: &CrawlOutcome) -> Digest {
        // Fixed-key SipHash: digests are only compared within one process.
        let mut hasher = DefaultHasher::new();
        for target in &outcome.targets {
            target.url.hash(&mut hasher);
        }
        Digest {
            targets: outcome.targets_found(),
            targets_hash: hasher.finish(),
            pages: outcome.pages_crawled,
            traffic: outcome.traffic,
            abandoned: outcome.abandoned,
        }
    }
}

/// What one iteration did, as a user of the system would see it.
#[derive(Debug, Clone)]
pub struct Iteration {
    pub wall_s: f64,
    /// Requests charged, GET + HEAD.
    pub requests: u64,
    pub targets: u64,
    /// Targets the site (or sites) hold.
    pub site_targets: u64,
    /// GET attempts, redirect hops included.
    pub fetches: u64,
    /// Fetches that ended without a usable answer.
    pub abandoned: u64,
    pub sim_makespan_s: f64,
    /// Consumer-side throughput: targets per wall second, or reads per
    /// second where the workload serves readers.
    pub delivered_per_s: f64,
    /// One digest per crawled site; empty when the workload is not
    /// deterministic (readers feed the refresh priority on `serve_refresh`).
    pub digests: Vec<Digest>,
    /// The iteration's own output checks.
    pub check: Result<(), String>,
}

impl Iteration {
    /// A single-site crawl workload's iteration.
    pub fn of_crawl(outcome: &CrawlOutcome, wall_s: f64, site_targets: u64) -> Iteration {
        Iteration {
            wall_s,
            requests: outcome.traffic.requests(),
            targets: outcome.targets_found(),
            site_targets,
            fetches: outcome.pages_crawled,
            abandoned: outcome.abandoned.total(),
            sim_makespan_s: outcome.traffic.elapsed_secs,
            delivered_per_s: outcome.targets_found() as f64 / wall_s,
            digests: vec![Digest::of(outcome)],
            check: Ok(()),
        }
    }
}

pub trait Workload {
    /// One untraced iteration; times itself.
    fn iterate(&mut self) -> Iteration;

    /// Output checks made once per run, outside the timed loop.
    fn verify(&mut self, _reference: &Iteration) -> Result<(), String> {
        Ok(())
    }

    /// One traced iteration plus the replays: the per-layer numbers. Checks
    /// that the wrappers were transparent against `reference`, an untraced
    /// iteration of the same inputs whose median wall is `untraced_wall_s`;
    /// writes the spans to `spans_csv`.
    fn trace(
        &mut self,
        reference: &Iteration,
        untraced_wall_s: f64,
        spans_csv: &Path,
    ) -> Result<LayerValues, String>;
}

/// How to build a workload.
pub struct Recipe {
    pub name: &'static str,
    /// Run one untimed iteration as part of set-up, so caches are full and
    /// lazy set-up is done before timing. Off where the working set exceeds
    /// the caches by design and a warm-up would warm nothing.
    pub warm_up: bool,
    pub build: fn(Inputs) -> Box<dyn Workload>,
}

pub const RECIPES: &[Recipe] = &[
    Recipe {
        name: "bfs_exhaust",
        warm_up: true,
        build: single::bfs_exhaust,
    },
    Recipe {
        name: "sb_budget",
        warm_up: true,
        build: single::sb_budget,
    },
    Recipe {
        name: "value_window16",
        warm_up: true,
        build: single::value_window16,
    },
    Recipe {
        name: "scale_stream",
        warm_up: false,
        build: single::scale_stream,
    },
    Recipe {
        name: "fleet_sharded",
        warm_up: true,
        build: fleet::fleet_sharded,
    },
    Recipe {
        name: "hostile_retry",
        warm_up: true,
        build: single::hostile_retry,
    },
    Recipe {
        name: "serve_refresh",
        warm_up: true,
        build: serve::serve_refresh,
    },
];

pub fn recipe(name: &str) -> Option<&'static Recipe> {
    RECIPES.iter().find(|r| r.name == name)
}

/// `Err(message)` unless `ok`.
fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_workload_has_a_recipe_in_the_same_order() {
        let declared: Vec<&str> = crate::registry::WORKLOADS.iter().map(|w| w.name).collect();
        let built: Vec<&str> = RECIPES.iter().map(|r| r.name).collect();
        assert_eq!(declared, built);
    }
}
