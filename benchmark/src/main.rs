//! `sb-benchmark` — see `benchmark/README.md`; `run.sh` builds and runs it.

use sb_benchmark::runner::{self, DriveArgs, RunArgs};
use sb_benchmark::workloads::{self, Inputs, Recipe, RECIPES};
use sb_benchmark::{compare, registry};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: sb-benchmark [--workload NAME] [--seed N] [--corpus N] [--seconds S] [--repeat K] [--out DIR]
           every workload (or NAME), each in a child process: the end-to-end
           table, the per-layer table, DIR/results.json; --repeat K runs K
           full sets and compares the first with the last
       sb-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
           one run in this process; the last line of stdout is the result:
           end-to-end metrics with --trace 0, per-layer metrics with --trace 1
           --corpus N generates the sites from another seed than 42, to cross-
           check a change on a corpus it was not written against
       sb-benchmark compare A.json B.json
       sb-benchmark manifest        print the BENCHMARK.json of this build";

struct Cli {
    workload: Option<&'static Recipe>,
    inputs: Inputs,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeat: usize,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        inputs: Inputs {
            corpus: 42,
            seed: 42,
        },
        seconds: None,
        trace: None,
        repeat: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(workloads::recipe(name).ok_or_else(|| {
                    let known: Vec<&str> = RECIPES.iter().map(|r| r.name).collect();
                    format!("unknown workload {name:?}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => cli.inputs.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--corpus" => {
                cli.inputs.corpus = value()?.parse().map_err(|e| format!("--corpus: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s}: out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1")),
                });
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=16).contains(&cli.repeat) {
                    return Err(format!("--repeat {}: 1 to 16", cli.repeat));
                }
            }
            "--out" => cli.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err("compare takes two result files".to_owned());
            };
            return compare::run(a, b);
        }
        Some("manifest") => {
            print!("{}", registry::manifest().pretty());
            return Ok(true);
        }
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return Ok(true);
        }
        _ => {}
    }
    let cli = parse(&args)?;
    let Some(trace) = cli.trace else {
        // Half the contract's run length keeps the whole command near two
        // minutes; sets to compare should be run at the same length.
        let seconds = cli.seconds.unwrap_or(f64::from(registry::SECONDS) / 2.0);
        return runner::drive(&DriveArgs {
            workload: cli.workload,
            inputs: cli.inputs,
            seconds,
            repeat: cli.repeat,
            out_dir: cli.out_dir,
        });
    };

    let recipe = cli.workload.ok_or("--trace needs --workload")?;
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
    let report = runner::run(&RunArgs {
        recipe,
        inputs: cli.inputs,
        seconds: cli.seconds.unwrap_or(f64::from(registry::SECONDS)),
        trace,
        out_dir: cli.out_dir.clone(),
    });
    let path = runner::report_path(&cli.out_dir, recipe.name, trace);
    std::fs::write(&path, report.to_json().pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.print();
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sb-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
