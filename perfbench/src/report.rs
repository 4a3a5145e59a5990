//! Human-readable reports, the one-process-per-workload driver behind
//! `--workload all`, and the repeat report the bounds are set from.

use std::process::{Command, ExitCode, Stdio};

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::run::{Opts, Outcome};
use crate::stats::{python_quartiles, sorted};
use crate::trace::Tracer;
use crate::TraceMode;

pub fn print_run(opts: &Opts, outcome: &Outcome, tracer: &Tracer) {
    let kind = match (opts.trace, opts.smoke) {
        (true, _) => "traced per-layer run (telemetry on, fixed work)".to_string(),
        (false, true) => "end-to-end run (telemetry off, two passes)".to_string(),
        (false, false) => format!(
            "end-to-end run (telemetry off, {} s of passes)",
            opts.seconds
        ),
    };
    println!("== {}  seed {}  {kind}", opts.workload, opts.seed);
    if opts.smoke {
        println!(
            "   SMOKE MODE: 1/20-size inputs, two timed passes; these numbers are meaningless"
        );
    }
    let mut not_exercised = 0usize;
    for (name, unit, value) in outcome.values.rows() {
        match value {
            Some(v) => println!("   {name:<36} {v:>18.6} {unit}"),
            None => not_exercised += 1,
        }
    }
    if not_exercised > 0 {
        println!(
            "   ({not_exercised} per-layer metrics omitted: layer not exercised by this workload; \
             they read 0 in the result line)"
        );
    }
    for (name, summary) in &outcome.values.summaries {
        println!("   {name} over passes: {summary}");
    }
    if tracer.is_enabled() {
        println!("   span                                  calls      total s       self s");
        for (name, (calls, total, own)) in tracer.self_times() {
            println!("   {name:<36} {calls:>6} {total:>12.6} {own:>12.6}");
        }
    }
    for note in &outcome.notes {
        println!("   note: {note}");
    }
    println!(
        "   correct: {}  attempted: {}  failed: {}",
        outcome.is_correct(),
        outcome.attempted,
        outcome.failed
    );
}

/// The result line of a single-workload run, parsed back.
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses the one shape `main::run_one` prints.
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let number_after = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find(|c: char| !c.is_ascii_digit())?;
        rest[..end].parse().ok()
    };
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    while let Some(open) = rest.find('"') {
        let after_name = &rest[open + 1..];
        let name_end = after_name.find('"')?;
        let name = &after_name[..name_end];
        let after = after_name[name_end + 1..].strip_prefix(": {\"value\": ")?;
        let value_end = after.find(',')?;
        let value: f64 = after[..value_end].parse().ok()?;
        let after = after[value_end..].strip_prefix(", \"unit\": \"")?;
        let unit_end = after.find('"')?;
        metrics.push((name.to_string(), value, after[..unit_end].to_string()));
        rest = &after[unit_end + 1..];
    }
    Some(ResultLine {
        correct: line.contains("\"correct\": true"),
        attempted: number_after("\"attempted\": ")?,
        failed: number_after("\"failed\": ")?,
        metrics,
    })
}

/// Runs one workload in a child process of this same binary, relays its
/// report, and returns its parsed result line.
fn run_child(opts: &Opts, quiet: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&opts.work_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if opts.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("starting {}: {e}", opts.workload))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if !quiet {
        println!("{report}");
    }
    if !output.status.success() {
        return Err(format!("{} exited with {}", opts.workload, output.status));
    }
    parse_result_line(last).ok_or_else(|| format!("{}: no result line", opts.workload))
}

fn selected(workload: &str) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| workload == "all" || *name == workload)
        .collect()
}

/// `--workload all` and `--trace both`: each workload and run kind in
/// its own process, then one combined result line.
pub fn run_children(workload: &str, trace: &TraceMode, base: &Opts) -> ExitCode {
    let kinds: &[bool] = match trace {
        TraceMode::Off => &[false],
        TraceMode::On => &[true],
        TraceMode::Both => &[false, true],
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut fields = Vec::new();
    for name in selected(workload) {
        for &traced in kinds {
            let opts = Opts {
                workload: name.to_string(),
                trace: traced,
                ..base.clone()
            };
            match run_child(&opts, false) {
                Ok(result) => {
                    correct &= result.correct;
                    attempted += result.attempted;
                    failed += result.failed;
                    if !traced {
                        fields.extend(result.metrics.iter().map(|(metric, value, unit)| {
                            format!(
                                "\"{name}.{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                            )
                        }));
                    }
                }
                Err(why) => {
                    eprintln!("{why}");
                    correct = false;
                }
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The repeat report: `n` end-to-end runs per workload on seeds
/// `seed .. seed + n`, each metric's spread against its bound.
///
/// Spread is the distance between the first and third quartiles (as
/// Python's `statistics.quantiles(values, n=4)` gives them) as a share
/// of the median — the figure the benchmark's acceptance is defined on.
pub fn repeat(workload: &str, n: usize, base: &Opts) -> ExitCode {
    if n < 2 {
        eprintln!("--repeat needs at least 2 runs");
        return ExitCode::from(2);
    }
    println!("| workload | metric | unit | min | median | max | IQR/median | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_correct = true;
    for name in selected(workload) {
        let mut columns: Vec<(String, String, Vec<f64>)> = Vec::new();
        for i in 0..n {
            let opts = Opts {
                workload: name.to_string(),
                seed: base.seed + i as u64,
                trace: false,
                ..base.clone()
            };
            match run_child(&opts, true) {
                Ok(result) => {
                    all_correct &= result.correct;
                    for (metric, value, unit) in result.metrics {
                        match columns.iter_mut().find(|(m, _, _)| *m == metric) {
                            Some(column) => column.2.push(value),
                            None => columns.push((metric, unit, vec![value])),
                        }
                    }
                }
                Err(why) => {
                    eprintln!("{why}");
                    all_correct = false;
                }
            }
        }
        for (metric, unit, values) in &columns {
            if values.len() < 2 {
                continue;
            }
            let s = sorted(values);
            let (q1, q2, q3) = python_quartiles(values);
            let bound = END_TO_END
                .iter()
                .find(|m| m.name == metric)
                .map(|m| m.bound);
            let spread = crate::stats::ratio(q3 - q1, q2);
            let verdict = match (spread, bound) {
                // The acceptance check leaves setup_s's spread out.
                _ if metric == "setup_s" => "not checked",
                (Some(s), Some(b)) if s <= b / 3.0 => "steady",
                (Some(s), Some(b)) if s <= b => "within bound",
                (Some(_), Some(_)) => "EXCEEDS BOUND",
                _ => "-",
            };
            println!(
                "| {name} | {metric} | {unit} | {:.6} | {q2:.6} | {:.6} | {} | {} | {verdict} |",
                s[0],
                s[s.len() - 1],
                spread.map_or_else(|| "-".to_string(), |s| format!("{:.4}", s)),
                bound.map_or_else(|| "-".to_string(), |b| b.to_string()),
            );
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("a run was incorrect or failed");
        ExitCode::from(1)
    }
}
