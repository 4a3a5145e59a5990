//! The repo benchmark: six one-compute-thread workloads, eight
//! end-to-end metrics, and a traced per-layer run. See README.md.
//!
//! ```text
//! perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1|both]
//!           [--smoke] [--work-dir DIR]
//! perfbench --repeat N [--workload NAME|all] [--seed N] [--seconds S]
//! perfbench --self-test | --print-manifest | --list-metrics
//! ```
//!
//! A single-workload run prints a human-readable report and then, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod adapter;
mod align;
mod check;
mod gen;
mod map;
mod metrics;
mod report;
mod run;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{RUN_SECONDS, WORKLOADS};
use run::{Opts, Outcome};

const USAGE: &str = "usage: perfbench --workload NAME|all [--seed N] [--seconds S] \
[--trace 0|1|both] [--smoke] [--work-dir DIR] | --repeat N | --self-test | --print-manifest | --list-metrics";

pub(crate) enum TraceMode {
    Off,
    On,
    Both,
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: TraceMode,
    smoke: bool,
    work_dir: PathBuf,
    repeat: Option<usize>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".to_string(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: TraceMode::Both,
        smoke: false,
        // Inside the benchmark's own directory, ignored by git.
        work_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work")),
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
                    return Err("--seconds must be a positive number".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On,
                    "both" => TraceMode::Both,
                    other => return Err(format!("--trace takes 0, 1 or both, not {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--work-dir" => cli.work_dir = PathBuf::from(value()?),
            "--repeat" => {
                cli.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.iter().any(|w| w.name == cli.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; choose one of {} or all",
            cli.workload,
            names.join(", ")
        ));
    }
    Ok(cli)
}

/// Runs one workload in this process and prints its report and result line.
fn run_one(opts: &Opts) -> ExitCode {
    let mut tracer = trace::Tracer::new(opts.trace);
    let span = tracer.begin("bench.self_test");
    let self_test = check::self_test();
    tracer.end(span);
    if let Err(why) = self_test {
        eprintln!("{why}");
        return ExitCode::from(2);
    }
    let mut outcome = match (opts.workload.as_str(), opts.trace) {
        ("map_short_repeat" | "map_short_unique", false) => map::run_end_to_end(opts),
        ("map_short_repeat" | "map_short_unique", true) => map::run_traced(opts, &mut tracer),
        ("align_long" | "align_short", false) => align::run_end_to_end(opts),
        ("align_long" | "align_short", true) => align::run_traced(opts, &mut tracer),
        (_, false) => serve::run_end_to_end(opts),
        (_, true) => serve::run_traced(opts, &mut tracer),
    };
    if opts.trace {
        finish_trace(opts, &tracer, &mut outcome);
    } else {
        match stats::peak_rss_mib() {
            Some(mib) => outcome.values.set("peak_rss_mb", mib),
            None => outcome.require(false, "VmHWM is not readable from /proc/self/status"),
        }
    }
    outcome.require(outcome.attempted > 0, "nothing was attempted");
    let violations = std::mem::take(&mut outcome.values.violations);
    for v in violations {
        outcome.require(false, &v);
    }
    if !opts.trace {
        // Every end-to-end metric is measured on every workload.
        let missing: Vec<&str> = outcome
            .values
            .rows()
            .filter(|(_, _, v)| v.is_none())
            .map(|(name, _, _)| name)
            .collect();
        if !missing.is_empty() {
            outcome.require(false, &format!("not measured: {}", missing.join(", ")));
        }
    }
    report::print_run(opts, &outcome, &tracer);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.is_correct(),
        outcome.attempted.max(1),
        outcome.failed,
        outcome.values.json()
    );
    ExitCode::SUCCESS
}

/// Records the trace's coverage and writes `trace.json`.
fn finish_trace(opts: &Opts, tracer: &trace::Tracer, outcome: &mut Outcome) {
    match tracer.coverage() {
        Some(coverage) => {
            outcome.values.set("trace.coverage", coverage);
            outcome.require(
                coverage >= 0.9,
                "top-level spans cover less than 0.9 of the run",
            );
        }
        None => outcome.require(false, "the run took no measurable time"),
    }
    let dir = opts.work_dir.join(&opts.workload);
    let path = dir.join("trace.json");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json(&opts.workload)));
    match written {
        Ok(()) => outcome
            .notes
            .push(format!("trace written to {}", path.display())),
        Err(e) => outcome.require(false, &format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => {
            return match check::self_test() {
                Ok(()) => {
                    println!("checker self-test: every planted corruption was rejected");
                    ExitCode::SUCCESS
                }
                Err(why) => {
                    eprintln!("{why}");
                    ExitCode::from(2)
                }
            };
        }
        Some("--print-manifest") => {
            print!("{}", metrics::manifest_json());
            return ExitCode::SUCCESS;
        }
        Some("--list-metrics") => {
            print!("{}", metrics::glossary_markdown());
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = |trace: bool| Opts {
        workload: cli.workload.clone(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        smoke: cli.smoke,
        work_dir: cli.work_dir.clone(),
    };
    if let Some(n) = cli.repeat {
        return report::repeat(&cli.workload, n, &opts(false));
    }
    match (cli.workload.as_str(), &cli.trace) {
        // One process per workload and run kind, so peak memory and the
        // trace are that run's own.
        ("all", _) | (_, TraceMode::Both) => {
            report::run_children(&cli.workload, &cli.trace, &opts(false))
        }
        (_, TraceMode::Off) => run_one(&opts(false)),
        (_, TraceMode::On) => run_one(&opts(true)),
    }
}
