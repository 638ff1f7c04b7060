//! Every name the benchmark emits: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! one is expected to move. `BENCHMARK.json` is generated from this file
//! (`sb-benchmark manifest`) and a test keeps the two equal.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadInfo {
    pub name: &'static str,
    /// One line: why the workload exists and which layers it isolates.
    pub why: &'static str,
    /// Fixed inputs give the same crawl: every [`Kind::Count`] repeats
    /// exactly. False where readers feed the refresh priority.
    pub deterministic: bool,
}

/// How a run turns its samples of an end-to-end metric into one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed per iteration; the run reports its **best** iteration. On a
    /// shared box noise is one-sided — a neighbour only ever slows an
    /// iteration down — and comes in episodes that hit most iterations of a
    /// run: over ten runs of identical inputs the median wall spread 8.7 % on
    /// `hostile_retry`, 7.3 % on `fleet_sharded`, 4.8 % on `bfs_exhaust`, the
    /// fastest iteration 1.4 %, 3.6 % and 2.4 %. Median, quartiles, range and
    /// sample count stay in the result files.
    Time,
    /// A count made by the program; the median of the iterations, which for
    /// fixed inputs are all equal on every deterministic workload.
    Count,
    /// Measured by a rule of its own: `setup_s` (median input generation
    /// plus the warm-up), `peak_rss_mb` (read once, after the iterations).
    Single,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub kind: Kind,
    pub what: &'static str,
}

/// "`metric` should move on `workloads` when this layer gets faster."
pub struct Move {
    pub metric: &'static str,
    pub workloads: &'static [&'static str],
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static [Move],
}

pub const SECONDS: u32 = 8;

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "bfs_exhaust",
        why: "BFS to exhaustion, 20k-page site, window 1: the strategy is free, so html (href-only), session intern/visited and server/transport per-request overhead are the cost; the baseline of every ratio",
        deterministic: true,
    },
    WorkloadInfo {
        name: "sb_budget",
        why: "SB-CLASSIFIER, 12k-page site, 4500 requests: the paper's crawler; tag-path extraction, decide (classifier, HEAD bootstrap, action assign), ml, bandit; origin and transport do little",
        deterministic: true,
    },
    WorkloadInfo {
        name: "value_window16",
        why: "VALUE default mix, 1500-page site, 300 requests, 16 in flight: whole-frontier re-rank per refill, so select_batch is the wall; the only wide-window use of the transport",
        deterministic: true,
    },
    WorkloadInfo {
        name: "scale_stream",
        why: "spilling BFS over a 100k-page streaming site with caches far below the working set: on-demand render, SpillQueue, fingerprint VisitedSet and peak RSS; eager-site caching cannot help",
        deterministic: true,
    },
    WorkloadInfo {
        name: "fleet_sharded",
        why: "8 sites x 4000 pages, BFS, 2 shards x window 4: a cheap strategy maximises the share of fleet driver and pool (mutex, two-move schedule); the only multi-threaded crawl",
        deterministic: true,
    },
    WorkloadInfo {
        name: "hostile_retry",
        why: "BFS over a hazard-laced 24k-page site, window 8, retries with backoff and jitter, tail latency, timeouts, 429s: retries re-entering the gate; the workload where failed_share depends on code",
        deterministic: true,
    },
    WorkloadInfo {
        name: "serve_refresh",
        why: "crawl-and-serve over a 6-epoch evolving 1500-page site with one Zipf reader of 500k reads per epoch: commits beside reads on SnapshotStore/ArcCell, refresh planning, truth-oracle sweep",
        deterministic: false,
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Single,
        what: "input generation (build, lace, evolve; median of three) plus the warm-up iteration",
    },
    EndToEnd {
        name: "crawl_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Time,
        what: "wall of one timed iteration, tracing off",
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Time,
        what: "requests charged (GET + HEAD) per second of crawl wall, so a change in how many requests a crawl issues cannot hide in wall time",
    },
    EndToEnd {
        name: "delivered_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Time,
        what: "output handed to the consumer per wall second: targets retrieved on the crawl workloads, reads answered (ReadReport::qps) on serve_refresh",
    },
    EndToEnd {
        name: "targets_per_request",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        kind: Kind::Count,
        what: "targets retrieved per request charged: the paper's efficiency",
    },
    EndToEnd {
        name: "target_recall",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        kind: Kind::Count,
        what: "targets retrieved over targets the site holds",
    },
    EndToEnd {
        name: "sim_makespan_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.02,
        kind: Kind::Count,
        what: "simulated seconds a polite crawl of a real origin would wait (Traffic::elapsed_secs, FleetOutcome::sim_makespan_secs)",
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.10,
        kind: Kind::Count,
        what: "fetches that ended without a usable answer (AbandonCounts::total) over fetches attempted",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        kind: Kind::Single,
        what: "VmHWM of the workload's own process, set-ups included",
    },
];

const ALL: &[&str] = &[
    "bfs_exhaust",
    "sb_budget",
    "value_window16",
    "scale_stream",
    "fleet_sharded",
    "hostile_retry",
    "serve_refresh",
];
const NONE: &[Move] = &[];
const SETUP_ALL: &[Move] = &[Move {
    metric: "setup_s",
    workloads: ALL,
}];
const WALL_SCALE: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["scale_stream"],
}];
const WALL_BFS_SCALE: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["bfs_exhaust", "scale_stream"],
}];
const WALL_SB: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["sb_budget"],
}];
const WALL_BFS_HOSTILE: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["bfs_exhaust", "hostile_retry"],
}];
const MAKESPAN_WIDE: &[Move] = &[Move {
    metric: "sim_makespan_s",
    workloads: &["value_window16", "hostile_retry"],
}];
const WALL_FLEET: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["fleet_sharded"],
}];
const HAZARD: &[Move] = &[
    Move {
        metric: "failed_share",
        workloads: &["hostile_retry"],
    },
    Move {
        metric: "sim_makespan_s",
        workloads: &["hostile_retry"],
    },
];
const WALL_BFS_SB: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["bfs_exhaust", "sb_budget"],
}];
const WALL_BFS_FLEET: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["bfs_exhaust", "fleet_sharded"],
}];
const WALL_VALUE: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["value_window16"],
}];
const WALL_SB_VALUE: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["sb_budget", "value_window16"],
}];
const EFFICIENCY_SB: &[Move] = &[Move {
    metric: "targets_per_request",
    workloads: &["sb_budget"],
}];
const SCALE: &[Move] = &[
    Move {
        metric: "crawl_wall_s",
        workloads: &["scale_stream"],
    },
    Move {
        metric: "peak_rss_mb",
        workloads: &["scale_stream"],
    },
];
const SERVE_READS: &[Move] = &[Move {
    metric: "delivered_per_s",
    workloads: &["serve_refresh"],
}];
const SERVE_WALL: &[Move] = &[Move {
    metric: "crawl_wall_s",
    workloads: &["serve_refresh"],
}];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [Move],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Layer = module name. A count is "lower is better" where it is work done
/// per crawl, "higher" where it is useful outcomes.
pub const PER_LAYER: &[Layer] = &[
    layer("webgraph.build_site_s", "s", Lower, SETUP_ALL),
    layer("webgraph.renders", "count", Lower, WALL_SCALE),
    layer("webgraph.render_miss_share", "ratio", Lower, WALL_SCALE),
    layer("httpsim.server.get_calls", "count", Lower, WALL_BFS_SCALE),
    layer("httpsim.server.get_ns", "ns", Lower, WALL_BFS_SCALE),
    layer("httpsim.server.head_calls", "count", Lower, WALL_SB),
    layer("httpsim.server.head_ns", "ns", Lower, WALL_SB),
    layer("httpsim.server.body_bytes", "B", Lower, WALL_BFS_SCALE),
    layer(
        "httpsim.transport.submit_calls",
        "count",
        Lower,
        WALL_BFS_HOSTILE,
    ),
    layer(
        "httpsim.transport.submit_self_ns",
        "ns",
        Lower,
        WALL_BFS_HOSTILE,
    ),
    layer(
        "httpsim.transport.poll_calls",
        "count",
        Lower,
        WALL_BFS_HOSTILE,
    ),
    layer("httpsim.transport.poll_ns", "ns", Lower, WALL_BFS_HOSTILE),
    layer("httpsim.transport.head_self_ns", "ns", Lower, WALL_SB),
    layer(
        "httpsim.transport.mean_in_flight",
        "count",
        Higher,
        MAKESPAN_WIDE,
    ),
    layer(
        "httpsim.transport.attempts_per_request",
        "ratio",
        Lower,
        HAZARD,
    ),
    layer("httpsim.pool.submit_self_ns", "ns", Lower, WALL_FLEET),
    layer("httpsim.pool.poll_ns", "ns", Lower, WALL_FLEET),
    layer("httpsim.hazard.retried", "count", Lower, HAZARD),
    layer("httpsim.hazard.abandoned_http", "count", Lower, HAZARD),
    layer("httpsim.hazard.abandoned_timeout", "count", Lower, HAZARD),
    layer(
        "httpsim.hazard.abandoned_retries_exhausted",
        "count",
        Lower,
        HAZARD,
    ),
    layer(
        "httpsim.hazard.abandoned_quarantined",
        "count",
        Lower,
        HAZARD,
    ),
    layer("html.pages", "count", Lower, WALL_BFS_SB),
    layer("html.bytes_per_page", "B", Lower, WALL_BFS_SB),
    layer("html.links_per_page", "count", Lower, WALL_BFS_SB),
    layer("html.tokenize_ns_per_page", "ns", Lower, WALL_BFS_SB),
    layer("html.parse_ns_per_page", "ns", Lower, WALL_BFS_SB),
    layer("html.extract_ns_per_page", "ns", Lower, WALL_BFS_SB),
    layer("core.session.step_calls", "count", Lower, WALL_BFS_FLEET),
    layer("core.session.step_ns", "ns", Lower, WALL_BFS_FLEET),
    layer("core.session.residual_ns", "ns", Lower, WALL_BFS_FLEET),
    layer(
        "core.session.events_emitted",
        "count",
        Lower,
        WALL_BFS_FLEET,
    ),
    layer("core.session.links_seen", "count", Lower, WALL_BFS_FLEET),
    layer(
        "core.session.link_admit_share",
        "ratio",
        Lower,
        WALL_BFS_FLEET,
    ),
    layer("core.strategy.next_calls", "count", Lower, WALL_SB),
    layer("core.strategy.next_ns", "ns", Lower, WALL_SB),
    layer(
        "core.strategy.select_batch_calls",
        "count",
        Lower,
        WALL_VALUE,
    ),
    layer("core.strategy.select_batch_ns", "ns", Lower, WALL_VALUE),
    layer("core.strategy.decide_calls", "count", Lower, WALL_SB),
    layer("core.strategy.decide_self_ns", "ns", Lower, WALL_SB),
    layer("core.strategy.feedback_ns", "ns", Lower, WALL_SB),
    layer("core.strategy.on_fetched_ns", "ns", Lower, WALL_SB_VALUE),
    layer("core.strategy.frontier_peak", "count", Lower, WALL_VALUE),
    layer(
        "core.strategy.fetch_now_hit_share",
        "ratio",
        Higher,
        EFFICIENCY_SB,
    ),
    layer("core.action.assign_ns_per_link", "ns", Lower, WALL_SB),
    layer("core.action.actions", "count", Lower, WALL_SB),
    layer("ml.featurize_ns_per_url", "ns", Lower, WALL_SB_VALUE),
    layer("ml.predict_ns_per_url", "ns", Lower, WALL_SB_VALUE),
    layer("ml.observe_ns_per_url", "ns", Lower, WALL_SB_VALUE),
    layer("ml.trainings", "count", Lower, WALL_SB_VALUE),
    layer("scale.frontier.push_pop_ns_per_id", "ns", Lower, SCALE),
    layer("scale.frontier.peak_in_mem", "count", Lower, SCALE),
    layer("scale.frontier.peak_spilled", "count", Lower, SCALE),
    layer("scale.frontier.spill_events", "count", Lower, SCALE),
    layer("scale.visited.intern_ns_per_url", "ns", Lower, SCALE),
    layer("scale.visited.bytes_per_url", "B", Lower, SCALE),
    layer("scale.visited.collisions", "count", Lower, SCALE),
    layer("scale.stream.cached_body_bytes", "B", Lower, SCALE),
    layer(
        "core.fleet.overhead_ns_per_request",
        "ns",
        Lower,
        WALL_FLEET,
    ),
    layer(
        "core.fleet.parallel_efficiency",
        "ratio",
        Higher,
        WALL_FLEET,
    ),
    layer("core.fleet.stolen_sites", "count", Lower, WALL_FLEET),
    layer("serve.store.read_ns", "ns", Lower, SERVE_READS),
    layer("serve.store.commit_ns", "ns", Lower, SERVE_WALL),
    layer("serve.cell.load_ns", "ns", Lower, SERVE_READS),
    layer("serve.cell.store_ns", "ns", Lower, SERVE_WALL),
    layer("serve.sched.plan_epoch_ns", "ns", Lower, SERVE_WALL),
    layer("serve.refresh.completed", "count", Higher, SERVE_WALL),
    layer("serve.refresh.changed_share", "ratio", Higher, SERVE_WALL),
    layer("serve.read.age_p50_epochs", "epochs", Lower, NONE),
    layer("serve.read.age_p99_epochs", "epochs", Lower, NONE),
    layer("revisit.server.get_ns", "ns", Lower, SERVE_WALL),
    // These two bound how far the table above can be trusted; they are
    // expected to move nothing.
    layer("trace.overhead_share", "ratio", Lower, NONE),
    layer("trace.attributed_share", "ratio", Higher, NONE),
];

pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` this registry describes.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    /// The limits of the benchmark contract, on the registry itself.
    #[test]
    fn names_counts_units_and_bounds_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&SECONDS));

        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(is_name(w.name), "workload name {:?}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END {
            assert!(
                is_name(m.name) && is_unit(m.unit),
                "{} [{}]",
                m.name,
                m.unit
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(
                is_name(m.name) && is_unit(m.unit),
                "{} [{}]",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }

        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    /// The interaction table only names things that exist.
    #[test]
    fn every_should_move_names_a_declared_metric_and_workload() {
        for layer in PER_LAYER {
            for mv in layer.moves {
                assert!(
                    end_to_end(mv.metric).is_some(),
                    "{}: metric {}",
                    layer.name,
                    mv.metric
                );
                assert!(!mv.workloads.is_empty(), "{}: no workload", layer.name);
                for w in mv.workloads {
                    assert!(workload(w).is_some(), "{}: workload {w}", layer.name);
                }
            }
        }
        assert_eq!(ALL.len(), WORKLOADS.len());
    }

    /// `BENCHMARK.json` at the repo root is exactly the generated manifest.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `sb-benchmark manifest`"
        );
        let keys: Vec<&str> = on_disk
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
