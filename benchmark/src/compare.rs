//! `compare A.json B.json`: per workload × end-to-end metric, both values,
//! the change, the bound and a verdict.
//!
//! * `within` — B is not worse or better than A by more than the bound;
//! * `worse` / `better` — it is, and both runs were steadier than the bound;
//! * `unresolved` — it is, but a run's own spread (interquartile range of
//!   its iterations over their median) exceeds the bound, so the difference
//!   cannot be told from noise — unless every sample of one side beats every
//!   sample of the other.
//!
//! Counts made by the program repeat exactly for one seed on the
//! deterministic workloads; when both files share a seed, a count that
//! moved is flagged whatever its size.

use crate::json::Json;
use crate::registry::{Better, END_TO_END};
use crate::runner::repeats_exactly;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// What the run reported.
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// Interquartile range of the run's samples over their median.
    pub spread: f64,
}

impl Side {
    fn from_json(metric: &Json) -> Option<Side> {
        let f = |k: &str| metric.get(k).and_then(Json::as_f64);
        let (median, q1, q3) = (f("median")?, f("q1")?, f("q3")?);
        let spread = if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        };
        Some(Side {
            value: f("value")?,
            min: f("min")?,
            max: f("max")?,
            spread,
        })
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let w = worsening(a.value, b.value, better);
    if w.abs() <= bound {
        return Verdict::Within;
    }
    let disjoint = a.max < b.min || b.max < a.min;
    if (a.spread > bound || b.spread > bound) && !disjoint {
        Verdict::Unresolved
    } else if w > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn workloads(set: &Json) -> &[Json] {
    set.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn name_of(workload: &Json) -> &str {
    workload.get("name").and_then(Json::as_str).unwrap_or("?")
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    Side::from_json(workload.get("end_to_end")?.get("metrics")?.get(metric)?)
}

/// Prints the table; false when a metric is `worse`, an exact count moved,
/// or the files do not describe the same workloads.
pub fn print(a: &Json, b: &Json) -> bool {
    let inputs = |set: &Json| {
        let f = |k: &str| set.get(k).and_then(Json::as_f64);
        Some((f("corpus")?, f("seed")?))
    };
    let same_seed = inputs(a).is_some() && inputs(a) == inputs(b);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut ok = true;
    for wa in workloads(a) {
        let Some(wb) = workloads(b).iter().find(|w| name_of(w) == name_of(wa)) else {
            println!("{:<16} missing from B", name_of(wa));
            ok = false;
            continue;
        };
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (side(wa, m.name), side(wb, m.name)) else {
                println!("{:<16} {:<20} missing", name_of(wa), m.name);
                ok = false;
                continue;
            };
            let v = verdict(sa, sb, m.better, m.bound);
            let moved = same_seed && repeats_exactly(name_of(wa), m.name) && sa.value != sb.value;
            ok &= v != Verdict::Worse && !moved;
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>5.0}%  {}{}",
                name_of(wa),
                m.name,
                sa.value,
                sb.value,
                100.0 * (sb.value - sa.value) / sa.value.abs().max(f64::MIN_POSITIVE),
                100.0 * m.bound,
                v.as_str(),
                if moved {
                    "  COUNT MOVED (same seed: must repeat exactly)"
                } else {
                    ""
                },
            );
        }
    }
    for wb in workloads(b) {
        if !workloads(a).iter().any(|w| name_of(w) == name_of(wb)) {
            println!("{:<16} missing from A", name_of(wb));
            ok = false;
        }
    }
    ok
}

/// `compare A.json B.json`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(print(&load(path_a)?, &load(path_b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(value: f64) -> Side {
        Side {
            value,
            min: value * 0.99,
            max: value * 1.01,
            spread: 0.01,
        }
    }

    fn noisy(value: f64) -> Side {
        Side {
            value,
            min: value * 0.7,
            max: value * 1.4,
            spread: 0.3,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use crate::registry::Better::{Higher, Lower};
        assert_eq!(
            verdict(steady(1.0), steady(1.05), Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            verdict(steady(1.0), steady(1.20), Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(steady(1.0), steady(0.80), Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(steady(1.0), steady(1.20), Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(steady(1.0), steady(0.80), Higher, 0.10),
            Verdict::Worse
        );
        // Overlapping noisy runs cannot settle a 20 % difference …
        assert_eq!(
            verdict(noisy(1.0), noisy(1.2), Lower, 0.10),
            Verdict::Unresolved
        );
        // … but every sample of B beating every sample of A can.
        assert_eq!(
            verdict(noisy(1.0), noisy(0.4), Lower, 0.10),
            Verdict::Better
        );
        // Within the bound, noise does not matter.
        assert_eq!(
            verdict(noisy(1.0), noisy(1.05), Lower, 0.10),
            Verdict::Within
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, Better::Higher) + 0.25).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    fn set(seed: f64, wall: f64, recall: f64) -> Json {
        let metric = |v: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                ("unit", Json::str("x")),
                ("median", Json::Num(v)),
                ("min", Json::Num(v)),
                ("max", Json::Num(v)),
                ("q1", Json::Num(v)),
                ("q3", Json::Num(v)),
                ("samples", Json::Num(3.0)),
            ])
        };
        let metrics = Json::obj(END_TO_END.iter().map(|m| {
            let v = match m.name {
                "crawl_wall_s" => wall,
                "target_recall" => recall,
                _ => 1.0,
            };
            (m.name, metric(v))
        }));
        Json::obj([
            ("corpus", Json::Num(42.0)),
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("bfs_exhaust")),
                    ("end_to_end", Json::obj([("metrics", metrics)])),
                ])]),
            ),
        ])
    }

    #[test]
    fn table_fails_on_worse_and_on_a_moved_count() {
        assert!(print(&set(1.0, 1.0, 1.0), &set(1.0, 1.05, 1.0)));
        assert!(
            !print(&set(1.0, 1.0, 1.0), &set(1.0, 1.5, 1.0)),
            "wall 50 % worse"
        );
        // 0.5 % recall change: inside the bound, but a count under one seed.
        assert!(!print(&set(1.0, 1.0, 1.0), &set(1.0, 1.0, 0.995)));
        assert!(
            print(&set(1.0, 1.0, 1.0), &set(2.0, 1.0, 0.995)),
            "different seeds"
        );
        let empty = Json::obj([("workloads", Json::Arr(vec![]))]);
        assert!(!print(&set(1.0, 1.0, 1.0), &empty));
    }
}
