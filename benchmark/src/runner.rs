//! Running a workload: set-up, timed iterations, output checks, the traced
//! iteration — and the driver that gives every workload a process of its
//! own, so `peak_rss_mb` is per workload and one workload's caches never
//! warm another's.

use crate::json::Json;
use crate::registry::{self, Better, Kind, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::{Inputs, Iteration, Recipe, Workload, RECIPES};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Input generations per untraced run: `setup_s` takes their median, so one
/// slow build (a cold heap, a noisy neighbour) does not decide it.
const SETUPS: usize = 3;
/// Timed iterations per run, however long one takes: the best of five
/// survives a noisy episode that the median of three does not.
const MIN_ITERATIONS: usize = 5;
/// Untraced reference iterations before the traced one.
const MIN_REFERENCE: usize = 2;

pub struct RunArgs {
    pub recipe: &'static Recipe,
    pub inputs: Inputs,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// One metric of one run.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    /// What the run reports (see [`Kind`]).
    pub value: f64,
    /// The samples behind it.
    pub summary: Summary,
}

impl Measured {
    fn exact(name: &'static str, unit: &'static str, value: f64) -> Measured {
        Measured {
            name,
            unit,
            value,
            summary: Summary::exact(value),
        }
    }
}

/// What one run of one workload found.
pub struct RunReport {
    pub workload: &'static str,
    pub trace: bool,
    pub inputs: Inputs,
    pub seconds: f64,
    /// Iterations run and checked, plus the once-per-run check.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Measured>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .compact()
    }

    /// The run with its spreads, for `results.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("trace", Json::Bool(self.trace)),
            ("corpus", Json::Num(self.inputs.corpus as f64)),
            ("seed", Json::Num(self.inputs.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let s = &m.summary;
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                            ("median", Json::Num(s.median)),
                            ("min", Json::Num(s.min)),
                            ("max", Json::Num(s.max)),
                            ("q1", Json::Num(s.q1)),
                            ("q3", Json::Num(s.q3)),
                            ("samples", Json::Num(s.samples as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name, with its unit and spread.
    pub fn print(&self) {
        println!(
            "{} (corpus {}, seed {}, {} s, {})",
            self.workload,
            self.inputs.corpus,
            self.inputs.seed,
            self.seconds,
            if self.trace {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            }
        );
        for m in &self.metrics {
            let s = &m.summary;
            if s.samples > 1 {
                println!(
                    "  {:<44} {:>16.6} {:<6} median {:.6} min {:.6} max {:.6} n {}",
                    m.name, m.value, m.unit, s.median, s.min, s.max, s.samples
                );
            } else {
                println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        for e in &self.errors {
            println!("  CHECK FAILED: {e}");
        }
        println!(
            "  checks: {} attempted, {} failed",
            self.attempted, self.failed
        );
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Collects check failures; an iteration is one attempt.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            // One line per distinct failure is enough to act on.
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// An iteration's own checks, and its outcome against the first one's.
    fn iteration(&mut self, what: &str, it: &Iteration, first: &Iteration) {
        let repeat = if it.digests == first.digests {
            Ok(())
        } else {
            Err("outcome differs from the first iteration's".to_owned())
        };
        self.record(what, it.check.clone().and(repeat));
    }
}

/// Iterates until `seconds` have passed and at least `at_least` iterations
/// ran.
fn iterate_for(workload: &mut dyn Workload, seconds: f64, at_least: usize) -> Vec<Iteration> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut iterations = Vec::new();
    while iterations.len() < at_least || Instant::now() < deadline {
        iterations.push(workload.iterate());
    }
    iterations
}

pub fn run(args: &RunArgs) -> RunReport {
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(args, &mut checks)
    } else {
        untraced(args, &mut checks)
    };
    RunReport {
        workload: args.recipe.name,
        trace: args.trace,
        inputs: args.inputs,
        seconds: args.seconds,
        attempted: checks.attempted,
        failed: checks.failed,
        errors: checks.errors,
        metrics,
    }
}

fn untraced(args: &RunArgs, checks: &mut Checks) -> Vec<Measured> {
    // Generate the inputs several times; each build is dropped before the
    // next so the peak is one workload's. The last one is warmed up — its
    // caches are cold, which is what set-up has to pay for — and measured.
    let mut build_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let started = Instant::now();
        built = Some((args.recipe.build)(args.inputs));
        build_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = built.expect("SETUPS > 0");
    let started = Instant::now();
    let warm_up = args.recipe.warm_up.then(|| workload.iterate());
    let warm_up_s = started.elapsed().as_secs_f64();
    let setup = Summary::of(&build_s.iter().map(|b| b + warm_up_s).collect::<Vec<_>>());

    let iterations = iterate_for(workload.as_mut(), args.seconds, MIN_ITERATIONS);
    let peak_rss = peak_rss_mb();

    let first = warm_up.as_ref().unwrap_or(&iterations[0]);
    if let Some(warm_up) = &warm_up {
        checks.iteration("warm-up", warm_up, first);
    }
    for (i, it) in iterations.iter().enumerate() {
        checks.iteration(&format!("iteration {i}"), it, first);
    }
    checks.record("once-per-run check", workload.verify(&iterations[0]));

    fn share(num: u64, den: u64) -> f64 {
        num as f64 / den.max(1) as f64
    }
    END_TO_END
        .iter()
        .map(|m| {
            let sample: fn(&Iteration) -> f64 = match m.name {
                "setup_s" => {
                    return Measured {
                        name: m.name,
                        unit: m.unit,
                        value: setup.median,
                        summary: setup,
                    }
                }
                "peak_rss_mb" => return Measured::exact(m.name, m.unit, peak_rss),
                "crawl_wall_s" => |it| it.wall_s,
                "requests_per_s" => |it| it.requests as f64 / it.wall_s,
                "delivered_per_s" => |it| it.delivered_per_s,
                "targets_per_request" => |it| share(it.targets, it.requests),
                "target_recall" => |it| share(it.targets, it.site_targets),
                "sim_makespan_s" => |it| it.sim_makespan_s,
                "failed_share" => |it| share(it.abandoned, it.fetches),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            let summary = Summary::of(&iterations.iter().map(sample).collect::<Vec<_>>());
            let value = if m.kind == Kind::Time {
                summary.best(m.better == Better::Lower)
            } else {
                summary.median
            };
            Measured {
                name: m.name,
                unit: m.unit,
                value,
                summary,
            }
        })
        .collect()
}

fn traced(args: &RunArgs, checks: &mut Checks) -> Vec<Measured> {
    let mut workload = (args.recipe.build)(args.inputs);
    let warm_up = args.recipe.warm_up.then(|| workload.iterate());
    // Half the run measures the untraced wall the overhead is a share of.
    let reference = iterate_for(workload.as_mut(), args.seconds / 2.0, MIN_REFERENCE);
    let first = warm_up.as_ref().unwrap_or(&reference[0]);
    for (i, it) in reference.iter().enumerate() {
        checks.iteration(&format!("reference iteration {i}"), it, first);
    }
    let untraced_wall_s =
        Summary::of(&reference.iter().map(|it| it.wall_s).collect::<Vec<_>>()).median;

    let spans_csv = args.out_dir.join(format!("{}.spans.csv", args.recipe.name));
    let values = workload.trace(&reference[0], untraced_wall_s, &spans_csv);
    let (values, result) = match values {
        Ok(values) => (values, Ok(())),
        Err(e) => (Default::default(), Err(e)),
    };
    checks.record("traced iteration", result);
    PER_LAYER
        .iter()
        .map(|m| Measured::exact(m.name, m.unit, values.get(m.name)))
        .collect()
}

// ---------------------------------------------------------------------
// The driver: every workload in a child process of its own
// ---------------------------------------------------------------------

pub struct DriveArgs {
    /// `None` runs every workload.
    pub workload: Option<&'static Recipe>,
    pub inputs: Inputs,
    pub seconds: f64,
    /// Full sets to run; with more than one, the first and last are compared.
    pub repeat: usize,
    pub out_dir: PathBuf,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one workload in a child process and reads its report back.
fn child(recipe: &Recipe, trace: bool, args: &DriveArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", recipe.name])
        .args(["--corpus", &args.inputs.corpus.to_string()])
        .args(["--seed", &args.inputs.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", recipe.name))?;
    let path = report_path(&args.out_dir, recipe.name, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{} exited with {status} and left no {}: {e}",
            recipe.name,
            path.display()
        )
    })?;
    Json::parse(&text)
}

pub fn report_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

fn metric<'a>(run: &'a Json, name: &str) -> Option<&'a Json> {
    run.get("metrics")?.get(name)
}

fn value_of(run: &Json, name: &str) -> f64 {
    metric(run, name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// One full set: every selected workload, untraced then traced.
fn run_set(args: &DriveArgs) -> Result<(Json, bool), String> {
    let recipes: Vec<&Recipe> = match args.workload {
        Some(r) => vec![r],
        None => RECIPES.iter().collect(),
    };
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for recipe in &recipes {
        eprintln!("running {} ...", recipe.name);
        let end_to_end = child(recipe, false, args)?;
        let per_layer = child(recipe, true, args)?;
        for run in [&end_to_end, &per_layer] {
            let correct = run.get("correct").and_then(Json::as_bool) == Some(true);
            all_correct &= correct;
            for e in run.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
                eprintln!(
                    "  CHECK FAILED ({}): {}",
                    recipe.name,
                    e.as_str().unwrap_or("?")
                );
            }
        }
        workloads.push(Json::obj([
            ("name", Json::str(recipe.name)),
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
        ]));
    }
    let set = Json::obj([
        ("schema", Json::Num(1.0)),
        ("corpus", Json::Num(args.inputs.corpus as f64)),
        ("seed", Json::Num(args.inputs.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    Ok((set, all_correct))
}

/// Both tables of one set: end-to-end metrics, then the layer ledger.
fn print_set(set: &Json) {
    let workloads = set.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    let name = |w: &Json| {
        w.get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    println!(
        "\nEnd-to-end metrics (tracing off; value, then median [min .. max] n of its samples)"
    );
    for w in workloads {
        println!("{}", name(w));
        let Some(run) = w.get("end_to_end") else {
            continue;
        };
        for m in END_TO_END {
            let f = |k: &str| {
                metric(run, m.name)
                    .and_then(|j| j.get(k))
                    .and_then(Json::as_f64)
            };
            match (f("value"), f("median"), f("min"), f("max"), f("samples")) {
                (Some(v), Some(med), Some(lo), Some(hi), Some(n)) => println!(
                    "  {:<20} {:>16.6} {:<6} {:.6} [{:.6} .. {:.6}] n={}",
                    m.name, v, m.unit, med, lo, hi, n
                ),
                _ => println!("  {:<20} {:>16} {}", m.name, "missing", m.unit),
            }
        }
    }
    println!("\nPer-layer metrics (traced iteration and replays; 0 = layer not exercised)");
    print!("{:<44} {:<6}", "metric", "unit");
    for w in workloads {
        print!(" {:>14}", name(w));
    }
    println!();
    for m in PER_LAYER {
        print!("{:<44} {:<6}", m.name, m.unit);
        for w in workloads {
            let v = w
                .get("per_layer")
                .map_or(f64::NAN, |run| value_of(run, m.name));
            if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e12) {
                print!(" {v:>14.0}");
            } else {
                print!(" {v:>14.4}");
            }
        }
        println!();
    }
}

/// The whole command: `repeat` sets, tables, `results.json`, and with more
/// than one set the self-comparison. `Ok(false)` when a check failed or the
/// sets disagree.
pub fn drive(args: &DriveArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let mut ok = true;
    let mut sets = Vec::new();
    for k in 0..args.repeat.max(1) {
        let (set, correct) = run_set(args)?;
        ok &= correct;
        print_set(&set);
        let path = if args.repeat > 1 {
            args.out_dir.join(format!("results.{}.json", k + 1))
        } else {
            args.out_dir.join("results.json")
        };
        std::fs::write(&path, set.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
        sets.push(set);
    }
    if let [first, .., last] = sets.as_slice() {
        println!("\nSelf-comparison: first set against last");
        ok &= crate::compare::print(first, last);
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// True when `name` is an end-to-end metric whose value is a count made by
/// the program on a workload whose crawl is deterministic.
pub fn repeats_exactly(workload: &str, name: &str) -> bool {
    registry::workload(workload).is_some_and(|w| w.deterministic)
        && registry::end_to_end(name).is_some_and(|m| m.kind == Kind::Count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(trace: bool) -> RunReport {
        let metrics = if trace {
            PER_LAYER
                .iter()
                .map(|m| Measured::exact(m.name, m.unit, 1.5))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| Measured {
                    name: m.name,
                    unit: m.unit,
                    value: 1.0,
                    summary: Summary::of(&[1.0, 2.0, 4.0]),
                })
                .collect()
        };
        RunReport {
            workload: "bfs_exhaust",
            trace,
            inputs: Inputs {
                corpus: 42,
                seed: 7,
            },
            seconds: 1.0,
            attempted: 4,
            failed: 0,
            errors: Vec::new(),
            metrics,
        }
    }

    /// The result line has exactly the contract's keys, and names exactly
    /// the metrics `BENCHMARK.json` declares for that trace mode.
    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for trace in [false, true] {
            let line = report(trace).result_line();
            assert!(!line.contains('\n'));
            let json = Json::parse(&line).expect("result line parses");
            let keys: Vec<&str> = json
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            let emitted: Vec<&str> = json
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    let keys: Vec<&str> = m
                        .as_obj()
                        .unwrap()
                        .iter()
                        .map(|(k, _)| k.as_str())
                        .collect();
                    assert_eq!(keys, ["value", "unit"], "{name}");
                    name.as_str()
                })
                .collect();
            let manifest = registry::manifest();
            let declared: Vec<&str> = manifest
                .get(if trace { "per_layer" } else { "end_to_end" })
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap())
                .collect();
            assert_eq!(emitted, declared);
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut checks = Checks::default();
        checks.record("a", Ok(()));
        checks.record("b", Err("boom".to_owned()));
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.errors, ["b: boom"]);
        let r = RunReport {
            failed: 1,
            ..report(false)
        };
        assert!(r.result_line().starts_with("{\"correct\":false,"));
    }

    #[test]
    fn exact_repeat_is_for_counts_on_deterministic_workloads() {
        assert!(repeats_exactly("bfs_exhaust", "targets_per_request"));
        assert!(!repeats_exactly("bfs_exhaust", "crawl_wall_s"));
        assert!(!repeats_exactly("serve_refresh", "targets_per_request"));
    }
}
