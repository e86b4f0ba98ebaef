//! `loadgen` — the repo's end-to-end benchmark.
//!
//! Builds the case-study dataspace, serves it in-process on loopback, drives
//! it with two `wire::Client` connections over five workloads, checks every
//! answer against an in-process oracle, and prints every metric by name with
//! its unit. See `README.md` for the metric definitions and the layer ledger.

mod compare;
mod drive;
mod fixture;
mod json;
mod oracle;
mod report;
mod schedule;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{run_workload, RunOptions};
use schedule::Workload;

const USAGE: &str = "usage:
  loadgen run     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                  [--repeat K] [--smoke] [--commit C] [--out FILE]
  loadgen trace   [--workload W] [--seed N] [--seconds S]
  loadgen budgets
  loadgen compare A.json B.json

  run      measure end-to-end metrics (every workload unless --workload)
  trace    the separate traced run: per-layer ledger, spans to out/trace-<W>.jsonl
  budgets  resident cache bytes after join_read's warm-up (join_spill's budgets)
  compare  hold B against A, metric by metric, under the benchmark's bounds";

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    smoke: bool,
    commit: String,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing subcommand")?;
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        smoke: false,
        commit: "unknown".into(),
        out: None,
        files: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("no workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--commit" => args.commit = value()?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => args.files.push(file.to_string()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "run" | "trace" => run(&args),
        "budgets" => trace::print_budgets().map(|()| true),
        "compare" => match args.files.as_slice() {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes exactly two result files".into()),
        },
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `run` and `trace`: measure the chosen workloads `--repeat` times each.
fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < 2 {
        return Err(format!(
            "{nproc} core available: two clients and the server's session threads would \
             time-share it, so the numbers would measure the scheduler. Refusing to run."
        ));
    }
    let options = RunOptions {
        seconds: match (args.seconds, args.smoke) {
            (Some(s), _) => s,
            (None, true) => 1.0,
            (None, false) => report::DEFAULT_SECONDS,
        },
        trace: args.trace || args.command == "trace",
        // A smoke run checks answers and prints what it can; a window too
        // short for a p99 is not an error there.
        tolerate_sparse: args.smoke,
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut runs = Vec::new();
    for workload in workloads {
        for repeat in 0..args.repeat {
            eprintln!(
                "loadgen: {} seed {} run {}/{} ({} s window{})",
                workload.name(),
                args.seed,
                repeat + 1,
                args.repeat,
                options.seconds,
                if options.trace { ", traced" } else { "" }
            );
            runs.push(run_workload(workload, args.seed, &options)?);
        }
    }
    let document = report::document(&runs, args, nproc, &options);
    report::print_human(&runs, &document);
    if let Some(path) = &args.out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).ok();
        }
        std::fs::write(path, document.encode() + "\n").map_err(|e| format!("{path:?}: {e}"))?;
        println!("wrote {}", path.display());
    }
    // The driver's contract: with one workload named, the last line of
    // standard output is that run's result object.
    if args.workload.is_some() {
        println!(
            "{}",
            report::contract_line(runs.last().expect("one run"), options.trace).encode()
        );
    }
    Ok(runs.iter().all(|r| r.correct))
}
