//! Harness smoke tests: every experiment runs end-to-end at miniature scale
//! and produces shape-correct output. These are the cheapest full-pipeline
//! guards in the repo.

use sb_eval::experiments as xp;
use sb_eval::EvalConfig;
use std::path::PathBuf;

fn cfg(tag: &str, sites: &[&str]) -> EvalConfig {
    EvalConfig {
        scale: 0.003,
        seeds: 1,
        out_dir: PathBuf::from(format!("target/test-results/{tag}")),
        sites: Some(sites.iter().map(|s| (*s).to_owned()).collect()),
        jobs: 4,
        shared_pool: false,
        shards: Vec::new(),
    }
}

#[test]
fn fleet_shared_pool_arm_renders_and_holds_parity() {
    // `shared_pool: true` makes the experiment itself assert window-1
    // byte-parity with per-site transports; the smoke checks the ladder
    // rendered alongside the per-site table.
    let mut c = cfg("fleet-pool", &["cl", "nc"]);
    c.shared_pool = true;
    let md = xp::fleet::run(&c);
    assert!(md.contains("Shared transport pool"));
    assert!(md.contains("shared pool, window 16"));
    assert!(md.contains("per-site transports"));
    assert!(c.out_dir.join("fleet_pool.csv").exists());
}

#[test]
fn fleet_sharded_arm_renders_and_holds_parity() {
    // Non-empty `shards` makes the experiment assert per-site byte-parity
    // across the shard ladder internally; the smoke checks the rendered
    // ladder and the CSV artifacts, and that every fleet CSV is a function
    // of the flags alone: the same fleet on 1 and on 4 workers writes the
    // same bytes.
    let run = |tag: &str, jobs: usize| {
        let mut c = cfg(tag, &["cl", "nc"]);
        c.jobs = jobs;
        c.shared_pool = true;
        c.shards = vec![1, 2, 4];
        (xp::fleet::run(&c), c.out_dir)
    };
    let (md, dir) = run("fleet-shards", 4);
    let (_, serial_dir) = run("fleet-shards-jobs1", 1);
    assert!(md.contains("Sharded parallel driver"));
    assert!(md.contains("byte-identical across the ladder"));
    let csv = std::fs::read_to_string(dir.join("fleet_shards.csv"))
        .expect("fleet_shards.csv exists");
    assert_eq!(csv.lines().count(), 4, "header + one row per rung:\n{csv}");
    assert!(csv.starts_with("shards,targets,requests"));
    for name in ["fleet.csv", "fleet_pool.csv", "fleet_shards.csv"] {
        let read = |d: &PathBuf| std::fs::read(d.join(name)).expect("fleet CSV exists");
        assert!(read(&dir) == read(&serial_dir), "{name} differs between --jobs 4 and --jobs 1");
    }
}

#[test]
fn table1_census_renders() {
    let md = xp::table1::run(&cfg("t1", &["cl", "nc"]));
    assert!(md.contains("| cl"));
    assert!(md.contains("| nc"));
}

#[test]
fn table2_and_3_share_campaign_and_render() {
    let c = cfg("t23", &["cl", "nc"]);
    let t2 = xp::table23::run_table2(&c);
    assert!(t2.contains("SB-CLASSIFIER"));
    assert!(t2.contains("Early"));
    let t3 = xp::table23::run_table3(&c);
    assert!(t3.contains("BFS"));
    // Shared campaign: table3 must not redo the crawls (same cache key); we
    // can only assert it completes quickly and consistently here.
    assert!(t3.contains("non-target volume"));
}

#[test]
fn table6_reports_nonzero_rewards() {
    let md = xp::table6::run(&cfg("t6", &["nc"]));
    assert!(md.contains("Mean"));
    assert!(md.contains("Std"));
}

#[test]
fn fig4_writes_curves() {
    let c = cfg("f4", &["cl"]);
    let md = xp::fig4::run(&c);
    assert!(md.contains("cl"));
    let csv = std::fs::read_to_string(c.out_dir.join("fig4/cl.csv")).expect("fig4 csv exists");
    assert!(csv.lines().count() > 10);
    assert!(csv.contains("SB-CLASSIFIER"));
    assert!(csv.contains("OMNISCIENT"));
    assert!(csv.contains("TRES"), "cl is small: TRES must be included");
}

#[test]
fn table7_detects_sds() {
    let md = xp::table7::run(&cfg("t7", &["nc"]));
    assert!(md.contains("SD Yield"));
}

#[test]
fn se_shows_coverage_gap() {
    let c = cfg("se", &["cl"]);
    let md = xp::se::run(&c);
    assert!(md.contains("SIM-GS"));
    assert!(md.contains("crawler (all)"));
}

#[test]
fn hardness_validates_reduction() {
    // Panics internally if the Prop 4 equivalence breaks.
    let md = xp::hardness::run(&cfg("hard", &[]));
    assert!(md.contains("|U|+B*+1"));
}

#[test]
fn fig15_runs() {
    let md = xp::fig15::run(&cfg("f15", &["in", "ju"]));
    assert!(md.contains("Figure 15"));
}

#[test]
fn time_estimate_renders_hours_and_ratios() {
    let md = xp::time::run(&cfg("time", &["ed"]));
    assert!(md.contains("retrieval times"));
    assert!(md.contains("5k-equivalent"));
    assert!(md.contains("10k-equivalent"));
    // The headline shape: SB-CLASSIFIER reaches the milestones, so the
    // table carries finite hour entries (h-formatted), not only +∞.
    assert!(md.contains('h'), "hour-formatted cells expected:\n{md}");
}

#[test]
fn time_estimate_skips_when_ed_filtered_out() {
    let md = xp::time::run(&cfg("time-skip", &["cl"]));
    assert!(md.contains("skipped"));
}

#[test]
fn revisit_compares_four_policies() {
    let md = xp::revisit::run(&cfg("revisit", &["cl"]));
    for policy in ["uniform", "proportional", "thompson-groups", "sleeping-bandit"] {
        assert!(md.contains(policy), "{policy} missing from:\n{md}");
    }
    assert!(md.contains("recall"));
}

#[test]
fn ablation_covers_four_bandit_families() {
    let md = xp::ablation::run(&cfg("ablation", &["cl"]));
    for bandit in ["AUER", "UCB1", "greedy", "Thompson"] {
        assert!(md.contains(bandit), "{bandit} missing from:\n{md}");
    }
}
