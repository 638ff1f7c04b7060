//! `xp` — regenerates every table and figure of the paper.
//!
//! ```text
//! xp <experiment> [--scale F] [--seeds N] [--sites a,b,c] [--out DIR] [--jobs N]
//!
//! experiments:
//!   table1      site census (Table 1)
//!   table2      % requests to 90 % targets + early stopping (Table 2)
//!   table3      non-target volume metric (Table 3)
//!   table4      hyper-parameter study + Figures 8–13 (Table 4)
//!   table5      classifier variants + MR + Figures 14 + Tables 8–16
//!   table6      SB learning effectiveness + Figure 5 (Table 6)
//!   table7      SD yield (Table 7)
//!   fig4        comparison curves for all sites (Figures 4 & 7)
//!   fig15       early-stopping visualisation (Figure 15)
//!   se          simulated search-engine coverage (Sec 4.2)
//!   time        estimated retrieval times on `ed` (Sec 4.4)
//!   revisit     incremental-recrawl policies (Sec 6 future work)
//!   ablation    bandit-family ablation inside SB-ORACLE (Appendix C)
//!   hardness    Prop 4 reduction + exact solvers
//!   fleet       concurrent multi-site crawl (sessions + fleet scheduler)
//!   pipeline    intra-site parallel fetch (in-flight window 1/4/16)
//!   hostile     hostile-web workload: trap-laced site, retry/backoff (PR 6)
//!   scale       memory-bounded crawl ladder: peak memory gauges at 10k/100k (PR 7)
//!   serve       continuous crawl-and-serve: read QPS + freshness SLA (PR 9)
//!   quality     value-driven batch frontier: targets/GET, batch ladder (PR 10)
//!   all         everything above
//! ```
//!
//! `fleet` accepts `--shared-pool`: the same fleet additionally runs
//! through one shared transport pool at global windows 1/4/16
//! (`fleet_pool.csv`), with the window-1 arm checked byte-identical to
//! the per-site-transport arm.
//!
//! `fleet` also accepts `--shards 1,2,4` (PR 8): the sharded parallel
//! driver ladder (`fleet_shards.csv`) — one driver thread per shard,
//! whole-site work stealing, every rung asserted byte-identical per site
//! to the first. Wall-clock and steal counts are `benchmark/`'s
//! (`fleet_sharded`): every `fleet` and `scale` CSV is a function of the
//! flags alone.
//!
//! Defaults: `--scale 0.01 --seeds 3 --out results/`. The paper-fidelity run
//! is `--scale 0.02 --seeds 15` (slower). A run reports itself under
//! `results/`; measured numbers are recorded per PR in `CHANGES.md`.

use sb_eval::experiments as xp;
use sb_eval::EvalConfig;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: xp <table1|table2|table3|table4|table5|table6|table7|fig4|fig15|se|time|revisit|ablation|hardness|fleet|pipeline|hostile|scale|serve|quality|all>\n\
         \x20      [--scale F] [--seeds N] [--sites a,b,c] [--out DIR] [--jobs N] [--shared-pool]\n\
         \x20      [--shards 1,2,4]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, EvalConfig) {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let mut cfg = EvalConfig::default();
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scale" => cfg.scale = value().parse().unwrap_or_else(|_| usage()),
            "--seeds" => cfg.seeds = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => cfg.jobs = value().parse().unwrap_or_else(|_| usage()),
            "--out" => cfg.out_dir = PathBuf::from(value()),
            "--sites" => {
                cfg.sites = Some(value().split(',').map(|s| s.trim().to_owned()).collect())
            }
            "--shared-pool" => cfg.shared_pool = true,
            "--shards" => {
                cfg.shards = value()
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            _ => usage(),
        }
    }
    (cmd, cfg)
}

fn main() {
    let (cmd, cfg) = parse_args();
    let t0 = std::time::Instant::now();
    let run_one = |name: &str, cfg: &EvalConfig| -> String {
        let t = std::time::Instant::now();
        let out = match name {
            "table1" => xp::table1::run(cfg),
            "table2" => xp::table23::run_table2(cfg),
            "table3" => xp::table23::run_table3(cfg),
            "table4" => xp::table4::run(cfg),
            "table5" => xp::table5::run(cfg),
            "table6" => xp::table6::run(cfg),
            "table7" => xp::table7::run(cfg),
            "fig4" => xp::fig4::run(cfg),
            "fig15" => xp::fig15::run(cfg),
            "se" => xp::se::run(cfg),
            "time" => xp::time::run(cfg),
            "revisit" => xp::revisit::run(cfg),
            "ablation" => xp::ablation::run(cfg),
            "hardness" => xp::hardness::run(cfg),
            "fleet" => xp::fleet::run(cfg),
            "pipeline" => xp::pipeline::run(cfg),
            "hostile" => xp::hostile::run(cfg),
            "scale" => xp::scale::run(cfg),
            "serve" => xp::serve::run(cfg),
            "quality" => xp::quality::run(cfg),
            _ => usage(),
        };
        eprintln!("[xp] {name} done in {:.1?}", t.elapsed());
        out
    };
    match cmd.as_str() {
        "all" => {
            let all = [
                "table1", "table2", "table3", "table6", "fig4", "fig15", "table4", "table5",
                "table7", "se", "time", "revisit", "ablation", "hardness", "fleet",
                "pipeline", "hostile", "scale", "serve", "quality",
            ];
            for name in all {
                println!("{}", run_one(name, &cfg));
            }
        }
        name => println!("{}", run_one(name, &cfg)),
    }
    eprintln!(
        "[xp] finished in {:.1?}; artifacts under {}",
        t0.elapsed(),
        cfg.out_dir.display()
    );
}
