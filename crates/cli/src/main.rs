//! `genasm` — command-line interface to the GenASM framework.
//!
//! Subcommands:
//!
//! * `map --ref <fasta> --reads <fastq|fasta> [--error-rate 0.15]
//!   [--workers 0] [--kernel lockstep|chunked|scalar|gotoh]
//!   [--lanes 4|8|16|auto] [--shards 0] [--pipeline batch|sequential]` —
//!   map reads against a reference through the engine-backed staged
//!   batch pipeline (parallel seed → multi-threaded persistent-lane
//!   alignment, edit budget checked after alignment), SAM on stdout and per-stage stats
//!   (including DC lane occupancy) on stderr;
//! * `align --ref <fasta> --query <fasta> [--k <edits>]` — search and
//!   align each query in the reference, one summary line each;
//! * `distance --a <fasta> --b <fasta>` — global edit distance between
//!   the first records of two FASTA files;
//! * `filter --ref <fasta> --reads <fastq|fasta> --threshold <k>` —
//!   pre-alignment filter decisions, one line per read;
//! * `simulate --genome-size <bp> --count <n> [--length 100]
//!   [--profile illumina|pacbio10|pacbio15|ont10|ont15] [--seed 0]` —
//!   write a synthetic reference (`ref.fa`) and reads (`reads.fq`);
//! * `batch --ref <fasta> --reads <fastq|fasta> [--threads 0]
//!   [--kernel genasm|gotoh] [--sam -]` — map reads through the
//!   multi-threaded batch engine, throughput report on stderr (and
//!   SAM on stdout when `--sam -` is given);
//! * `serve --ref <fasta> [--listen <host:port>]` — long-running
//!   streaming front-end: FASTQ in (stdin or line-framed TCP), one
//!   SAM record per read out in submission order, with bounded
//!   admission, rolling micro-batches, per-request deadlines, and
//!   graceful drain on SIGINT/EOF (see `docs/SERVING.md`).

mod args;
mod stats;

use args::Args;
use genasm_core::align::{GenAsmAligner, GenAsmConfig};
use genasm_core::edit_distance::EditDistanceCalculator;
use genasm_core::filter::PreAlignmentFilter;
use genasm_engine::{CancelToken, DcDispatch, LaneCount};
use genasm_mapper::pipeline::{
    AlignMode, AlignerKind, MapperConfig, ReadMapper, ReadOutcome, StageTimings,
};
use genasm_mapper::sam;
use genasm_obs::{MetricsRegistry, Telemetry};
use genasm_seq::fasta::{read_fasta_with, write_fasta, FastaRecord};
use genasm_seq::fastq::read_fastq_with;
use genasm_seq::genome::GenomeBuilder;
use genasm_seq::parse::{FastxError, ParseMode, ParseReport};
use genasm_seq::profile::ErrorProfile;
use genasm_seq::readsim::{to_fastq_records, ReadSimulator, SimConfig};
use genasm_serve::{
    pump, serve_listener, ResponseSink, SamStreamWriter, ServeConfig, Server as ServeServer,
};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
genasm — bitvector-based approximate string matching (GenASM, MICRO 2020)

usage: genasm <command> [options]

commands:
  map       --ref <fa> --reads <fq|fa|-> [--error-rate 0.15]
            [--workers 0] [--kernel lockstep|chunked|scalar|gotoh]
            [--lanes 4|8|16|auto] [--shards 0]
            [--align-mode two-phase|full]
            [--pipeline batch|sequential]                    SAM to stdout; per-stage
                                                             stats (index/seed/filter/
                                                             distance/traceback split,
                                                             reject rate, tb-rows, DC
                                                             lane occupancy) on
                                                             stderr. Default is the
                                                             engine-backed batch
                                                             pipeline: --workers threads
                                                             (0 = all cores, also shards
                                                             the seeding stage), --shards
                                                             index shards (0 = auto),
                                                             --lanes lock-step lanes
                                                             (auto = 16 with AVX-512,
                                                             8 with AVX2);
                                                             --align-mode two-phase
                                                             (default) resolves
                                                             candidates distance-only
                                                             and tracebacks winners
                                                             only; full aligns every
                                                             candidate (bit-identical);
                                                             the edit budget is checked
                                                             after alignment, and only
                                                             reads it cannot decide run
                                                             the pre-alignment filter;
                                                             --pipeline sequential runs
                                                             the single-threaded
                                                             reference path (filter,
                                                             then align every survivor;
                                                             identical mappings)
  batch     --ref <fa> --reads <fq|fa> [--threads 0]
            [--kernel lockstep|chunked|scalar|gotoh]
            [--lanes 4|8|16|auto] [--align-mode two-phase|full]
            [--error-rate 0.15]
            [--sam -]                                        engine-batched mapping,
                                                             throughput report on stderr,
                                                             SAM on stdout with --sam -
                                                             (genasm = alias of lockstep,
                                                             the persistent-lane
                                                             scheduler; chunked/scalar
                                                             A/B the chunk-granularity
                                                             and one-window DC paths)
  serve     --ref <fa> [--listen <host:port>]
            [--batch-reads 64] [--max-inflight-reads 1024]
            [--request-deadline-ms 0] [--pipeline-workers 2]
            [--workers 0] [--kernel lockstep|chunked|scalar|gotoh]
            [--lanes 4|8|16|auto] [--shards 0]
            [--align-mode two-phase|full]
            [--error-rate 0.15]                              long-running streaming
                                                             front-end: FASTQ in
                                                             (stdin, or line-framed TCP
                                                             with --listen), one SAM
                                                             record out per read in
                                                             submission order. An idle
                                                             pipeline worker claims
                                                             whatever is pending at once
                                                             (at most --batch-reads per
                                                             micro-batch; no timer), with
                                                             --pipeline-workers batches
                                                             in flight at once.
                                                             Admission is bounded by
                                                             --max-inflight-reads;
                                                             beyond it reads shed with
                                                             XE:Z:shed (never silently
                                                             dropped). A nonzero
                                                             --request-deadline-ms cuts
                                                             stragglers off as
                                                             XE:Z:deadline partials.
                                                             SIGINT/SIGTERM (or stdin
                                                             EOF) drains gracefully:
                                                             admission stops, in-flight
                                                             reads finish, SAM flushes,
                                                             exit 0. See
                                                             docs/SERVING.md
  align     --ref <fa> --query <fa> [--k <edits>]            per-query alignment summary
  distance  --a <fa> --b <fa>                                global edit distance
  filter    --ref <fa> --reads <fq|fa> --threshold <k>
            [--kernel lockstep|scalar]                       accept/reject per read
  simulate  --genome-size <bp> --count <n> [--length 100]
            [--profile illumina|pacbio10|pacbio15|ont10|ont15]
            [--seed 0] [--out-prefix sim]                    write ref.fa + reads.fq

robustness (map and batch; see docs/ROBUSTNESS.md):
  --strict                fail on the first malformed input record (default)
  --lenient               skip malformed records, count them per class into the
                          map.errors.* counters, and keep mapping the rest
  --deadline-ms <ms>      wall-clock budget for the mapping batch; on expiry the
                          resolved reads are emitted normally and the rest are
                          flagged unmapped with XE:Z:deadline (kernel-panicked
                          reads are quarantined as XE:Z:poisoned either way)

telemetry (map, batch and filter):
  --metrics human|json    stderr report format: name = value lines (default) or one
                          JSON snapshot of the same counters/gauges/histograms
  --quiet                 suppress the stderr report entirely
  --trace-out <path>      write a Chrome trace-event JSON of per-worker stage spans
                          (claim/dc/tb/drain, seed/filter/distance/resolve/traceback)
                          — load it in Perfetto or chrome://tracing

exit codes:
  0  success        2  bad usage (unknown command/option/value)
  3  I/O failure    4  malformed input data (strict mode)
";

/// A classified CLI failure: the variant picks the process exit code,
/// so scripts can tell a bad invocation (2) from a filesystem failure
/// (3) and from malformed input data (4).
#[derive(Debug)]
enum CliError {
    /// Bad usage: unknown command, option, or option value.
    Usage(String),
    /// The filesystem or an output stream failed.
    Io(String),
    /// Input data was malformed (strict-mode parse failure, or content
    /// a kernel cannot process).
    Parse(String),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Parse(_) => 4,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Parse(m) => m,
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(()) => {}
        Err(err) => {
            eprintln!("error: {}", err.message());
            if matches!(err, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            std::process::exit(err.exit_code());
        }
    }
}

fn run(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw).map_err(CliError::Usage)?;
    match args.command.as_str() {
        "map" => cmd_map(&args),
        "batch" => cmd_batch(&args),
        "serve" => cmd_serve(&args),
        "align" => cmd_align(&args),
        "distance" => cmd_distance(&args),
        "filter" => cmd_filter(&args),
        "simulate" => cmd_simulate(&args),
        "" => Err(CliError::Usage("no command given".to_string())),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Classifies a reader failure: stream breakage is I/O (exit 3),
/// malformed content is a parse failure (exit 4).
fn classify_fastx(path: &str, e: FastxError) -> CliError {
    match e {
        FastxError::Io(e) => CliError::Io(format!("{path}: {e}")),
        FastxError::Parse(e) => CliError::Parse(format!("{path}: {e}")),
    }
}

/// Maps `--strict`/`--lenient` to the input parse policy (strict by
/// default).
fn parse_mode(args: &Args) -> Result<ParseMode, CliError> {
    match (args.flag("strict"), args.flag("lenient")) {
        (true, true) => Err(CliError::Usage(
            "--strict and --lenient are mutually exclusive".into(),
        )),
        (_, true) => Ok(ParseMode::Lenient),
        _ => Ok(ParseMode::Strict),
    }
}

/// Named reads as the CLI consumes them: `(id, sequence)` pairs.
type NamedReads = Vec<(String, Vec<u8>)>;

/// Loads sequences from FASTA or FASTQ by extension under the given
/// parse policy, returning the records plus the parse report (what a
/// lenient pass skipped and soft-flagged). The path `-` streams FASTQ
/// from stdin.
fn load_reads(path: &str, mode: ParseMode) -> Result<(NamedReads, ParseReport), CliError> {
    if path == "-" {
        let parse =
            read_fastq_with(io::stdin().lock(), mode).map_err(|e| classify_fastx("stdin", e))?;
        let reads = parse.records.into_iter().map(|r| (r.id, r.seq)).collect();
        return Ok((reads, parse.report));
    }
    let file = File::open(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    if path.ends_with(".fq") || path.ends_with(".fastq") {
        let parse = read_fastq_with(file, mode).map_err(|e| classify_fastx(path, e))?;
        let reads = parse.records.into_iter().map(|r| (r.id, r.seq)).collect();
        Ok((reads, parse.report))
    } else {
        let parse = read_fasta_with(file, mode).map_err(|e| classify_fastx(path, e))?;
        let reads = parse.records.into_iter().map(|r| (r.id, r.seq)).collect();
        Ok((reads, parse.report))
    }
}

fn load_first_fasta(path: &str) -> Result<FastaRecord, CliError> {
    let file = File::open(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    read_fasta_with(file, ParseMode::Strict)
        .map_err(|e| classify_fastx(path, e))?
        .records
        .into_iter()
        .next()
        .ok_or_else(|| CliError::Parse(format!("{path}: no fasta records")))
}

/// Records a lenient parse's skip and soft-error counts into the
/// `map.errors.*` counters and warns on stderr when records were
/// dropped. Strict runs never reach here with nonzero counts, so the
/// counters read zero there by construction.
fn record_parse_report(metrics: &MetricsRegistry, path: &str, report: &ParseReport) {
    metrics
        .counter("map.errors.skipped")
        .add(report.skipped as u64);
    metrics
        .counter("map.errors.truncated")
        .add(report.truncated as u64);
    metrics
        .counter("map.errors.length_mismatch")
        .add(report.length_mismatch as u64);
    metrics
        .counter("map.errors.bad_separator")
        .add(report.bad_separator as u64);
    metrics
        .counter("map.errors.empty_sequence")
        .add(report.empty_sequence as u64);
    metrics
        .counter("map.errors.missing_header")
        .add(report.missing_header as u64);
    metrics
        .counter("map.errors.line_too_long")
        .add(report.line_too_long as u64);
    metrics
        .counter("map.errors.soft_non_acgt")
        .add(report.soft_non_acgt as u64);
    if report.skipped > 0 {
        eprintln!(
            "warning: {path}: skipped {} malformed record(s); first: {}",
            report.skipped,
            report
                .errors
                .first()
                .map_or_else(String::new, |e| e.to_string())
        );
    }
}

/// Renders one read outcome of the resilient batch path as a SAM
/// record: faulted reads emit unmapped records tagged with a reason
/// code (`XE:Z:poisoned` / `XE:Z:deadline`), and a partial mapping cut
/// off by the deadline is emitted but carries the `deadline` tag too.
fn outcome_record(name: &str, rname: &str, seq: &[u8], outcome: &ReadOutcome) -> sam::SamRecord {
    match outcome {
        ReadOutcome::Mapped(m) => sam::SamRecord::from_mapping(name, rname, seq, m),
        ReadOutcome::Unmapped => sam::SamRecord::unmapped(name, seq),
        ReadOutcome::Poisoned { .. } => sam::SamRecord::unmapped_with_reason(name, seq, "poisoned"),
        ReadOutcome::Incomplete { partial: None } => {
            sam::SamRecord::unmapped_with_reason(name, seq, "deadline")
        }
        ReadOutcome::Incomplete { partial: Some(m) } => {
            let mut rec = sam::SamRecord::from_mapping(name, rname, seq, m);
            rec.tags.push("XE:Z:deadline".to_string());
            rec
        }
    }
}

/// Parses `--deadline-ms` into a cancellation token (0 or absent =
/// none).
fn parse_deadline(args: &Args) -> Result<Option<CancelToken>, CliError> {
    let ms: u64 = args.number("deadline-ms", 0).map_err(CliError::Usage)?;
    Ok((ms > 0).then(|| CancelToken::with_deadline(Duration::from_millis(ms))))
}

/// Maps `--kernel` to the aligner selection and, for GenASM, the DC
/// dispatch of the engine (`gotoh` swaps the whole alignment step to
/// the DP baseline; `scalar` A/Bs the one-window-at-a-time DC path;
/// `chunked` the chunk-granularity lock-step scheduler).
fn parse_kernel(args: &Args) -> Result<(AlignerKind, DcDispatch), String> {
    match args.get("kernel").unwrap_or("lockstep") {
        "genasm" | "lockstep" => Ok((AlignerKind::GenAsm, DcDispatch::Lockstep)),
        "chunked" => Ok((AlignerKind::GenAsm, DcDispatch::Chunked)),
        "scalar" => Ok((AlignerKind::GenAsm, DcDispatch::Scalar)),
        "gotoh" => Ok((AlignerKind::Gotoh, DcDispatch::Lockstep)),
        other => Err(format!("unknown kernel {other:?}")),
    }
}

/// Maps `--lanes` to the lock-step lane-width selection (`auto` picks
/// the detected SIMD tier: 16 lanes under AVX-512, 8 under AVX2, else
/// 4; distance-only scans always resolve `auto` to 4).
fn parse_lanes(args: &Args) -> Result<LaneCount, String> {
    match args.get("lanes").unwrap_or("auto") {
        "auto" => Ok(LaneCount::Auto),
        "4" => Ok(LaneCount::Four),
        "8" => Ok(LaneCount::Eight),
        "16" => Ok(LaneCount::Sixteen),
        other => Err(format!(
            "unknown lane count {other:?} (use 4, 8, 16 or auto)"
        )),
    }
}

/// Maps `--align-mode` to the batch alignment execution model
/// (two-phase distance-first resolution by default; both modes produce
/// bit-identical mappings).
fn parse_align_mode(args: &Args) -> Result<AlignMode, String> {
    match args.get("align-mode").unwrap_or("two-phase") {
        "two-phase" => Ok(AlignMode::TwoPhase),
        "full" => Ok(AlignMode::Full),
        other => Err(format!(
            "unknown align mode {other:?} (use two-phase or full)"
        )),
    }
}

/// `--filter-mode` selected between two filter engines that are both
/// gone: the batch path now checks the edit budget after alignment.
/// Unknown options are ignored everywhere else; this one used to work,
/// so a script still passing it must hear that it no longer does
/// anything.
fn reject_filter_mode(args: &Args) -> Result<(), String> {
    match args.get("filter-mode") {
        Some(_) => Err(
            "--filter-mode was removed: the filter cascade is gone, the batch \
                        pipeline checks the edit budget after alignment and filters only \
                        the reads that check cannot decide"
                .to_string(),
        ),
        None => Ok(()),
    }
}

fn cmd_map(args: &Args) -> Result<(), CliError> {
    // Validate option values before touching the filesystem so a bad
    // invocation fails on the actual mistake.
    let (aligner, dispatch) = parse_kernel(args).map_err(CliError::Usage)?;
    let lanes = parse_lanes(args).map_err(CliError::Usage)?;
    let align_mode = parse_align_mode(args).map_err(CliError::Usage)?;
    reject_filter_mode(args).map_err(CliError::Usage)?;
    let pipeline = match args.get("pipeline").unwrap_or("batch") {
        p @ ("batch" | "sequential") => p,
        other => return Err(CliError::Usage(format!("unknown pipeline {other:?}"))),
    };
    let error_rate: f64 = args.number("error-rate", 0.15).map_err(CliError::Usage)?;
    let workers: usize = args.number("workers", 0).map_err(CliError::Usage)?;
    let shards: usize = args.number("shards", 0).map_err(CliError::Usage)?;
    let mode = parse_mode(args)?;
    let deadline = parse_deadline(args)?;
    let quiet = args.flag("quiet");
    let metrics_mode = stats::parse_metrics_mode(args).map_err(CliError::Usage)?;
    let trace_out = args.get("trace-out");
    let telemetry = Telemetry::with_flags(!quiet, trace_out.is_some());

    let reference = load_first_fasta(args.require("ref").map_err(CliError::Usage)?)?;
    let reads_path = args.require("reads").map_err(CliError::Usage)?;
    let (reads, report) = load_reads(reads_path, mode)?;
    if mode == ParseMode::Lenient {
        record_parse_report(&telemetry.metrics, reads_path, &report);
    }

    let config = MapperConfig {
        error_fraction: error_rate,
        aligner,
        index_shards: shards,
        align_mode,
        ..MapperConfig::default()
    };
    let t_index = Instant::now();
    let mapper = ReadMapper::build(&reference.seq, config).with_telemetry(telemetry.clone());
    let index_time = t_index.elapsed();

    let (outcomes, timings) = match pipeline {
        "batch" => {
            let mut engine = mapper
                .engine_with_lanes(workers, dispatch, lanes)
                .with_telemetry(telemetry.clone());
            if let Some(token) = deadline {
                engine = engine.with_cancel(token);
            }
            let read_refs: Vec<&[u8]> = reads.iter().map(|(_, seq)| seq.as_slice()).collect();
            mapper.map_batch_resilient(&read_refs, &engine)
        }
        _ => {
            // The sequential reference path has no engine (and no
            // panic containment), but it honors the deadline like the
            // batch path: the token is checked between reads, and
            // reads past the cutoff resolve as Incomplete instead of
            // silently ignoring the budget.
            let mut total = StageTimings::default();
            let mut dropped = 0u64;
            let outcomes = reads
                .iter()
                .map(|(_, seq)| {
                    if deadline.as_ref().is_some_and(CancelToken::expired) {
                        dropped += 1;
                        return ReadOutcome::Incomplete { partial: None };
                    }
                    let (mapping, timings) = mapper.map_read(seq);
                    total.accumulate(&timings);
                    match mapping {
                        Some(m) => ReadOutcome::Mapped(m),
                        None => ReadOutcome::Unmapped,
                    }
                })
                .collect();
            if dropped > 0 {
                telemetry
                    .metrics
                    .counter(genasm_mapper::pipeline::READS_DEADLINE_DROPPED_COUNTER)
                    .add(dropped);
            }
            (outcomes, total)
        }
    };

    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let command = format!(
        "genasm map --pipeline {pipeline} --kernel {} --align-mode {} --workers {workers} \
         --shards {shards} --error-rate {error_rate}",
        args.get("kernel").unwrap_or("lockstep"),
        args.get("align-mode").unwrap_or("two-phase"),
    );
    sam::write_header_with_command(&mut out, &reference.id, reference.seq.len(), Some(&command))
        .map_err(|e| CliError::Io(e.to_string()))?;
    let mut mapped = 0usize;
    for ((name, seq), outcome) in reads.iter().zip(&outcomes) {
        mapped += usize::from(outcome.mapping().is_some());
        let record = outcome_record(name, &reference.id, seq, outcome);
        sam::write_record(&mut out, &record).map_err(|e| CliError::Io(e.to_string()))?;
    }
    out.flush().map_err(|e| CliError::Io(e.to_string()))?;

    if let Some(path) = trace_out {
        telemetry
            .tracer
            .export_to(path)
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    }
    let metrics = &telemetry.metrics;
    metrics.counter("map.reads").add(reads.len() as u64);
    metrics.counter("map.mapped").add(mapped as u64);
    stats::gauge_us(metrics, "map.index_us", index_time);
    metrics
        .gauge("map.index_shards")
        .set(mapper.index().shard_count() as u64);
    stats::record_stage_timings(metrics, &timings);
    let total = timings.total().as_secs_f64();
    if total > 0.0 {
        metrics
            .gauge("map.reads_per_sec")
            .set((reads.len() as f64 / total) as u64);
    }
    stats::emit(metrics, quiet, metrics_mode);
    Ok(())
}

fn cmd_batch(args: &Args) -> Result<(), CliError> {
    // Validate option values before touching the filesystem so a bad
    // invocation fails on the actual mistake.
    let (aligner, dispatch) = parse_kernel(args).map_err(CliError::Usage)?;
    let lanes = parse_lanes(args).map_err(CliError::Usage)?;
    let align_mode = parse_align_mode(args).map_err(CliError::Usage)?;
    reject_filter_mode(args).map_err(CliError::Usage)?;
    let error_rate: f64 = args.number("error-rate", 0.15).map_err(CliError::Usage)?;
    let threads: usize = args.number("threads", 0).map_err(CliError::Usage)?;
    let mode = parse_mode(args)?;
    let deadline = parse_deadline(args)?;
    let quiet = args.flag("quiet");
    let metrics_mode = stats::parse_metrics_mode(args).map_err(CliError::Usage)?;
    let trace_out = args.get("trace-out");
    let telemetry = Telemetry::with_flags(!quiet, trace_out.is_some());

    let reference = load_first_fasta(args.require("ref").map_err(CliError::Usage)?)?;
    let reads_path = args.require("reads").map_err(CliError::Usage)?;
    let (reads, report) = load_reads(reads_path, mode)?;
    if mode == ParseMode::Lenient {
        record_parse_report(&telemetry.metrics, reads_path, &report);
    }

    let config = MapperConfig {
        error_fraction: error_rate,
        aligner,
        align_mode,
        ..MapperConfig::default()
    };
    let mapper = ReadMapper::build(&reference.seq, config).with_telemetry(telemetry.clone());
    // The scalar/chunked/lockstep triple produces bit-identical
    // mappings; the flags exist so the DC paths can be A/B'd from the
    // command line.
    let mut engine = mapper
        .engine_with_lanes(threads, dispatch, lanes)
        .with_telemetry(telemetry.clone());
    if let Some(token) = deadline {
        engine = engine.with_cancel(token);
    }
    let read_refs: Vec<&[u8]> = reads.iter().map(|(_, seq)| seq.as_slice()).collect();
    let (outcomes, timings) = mapper.map_batch_resilient(&read_refs, &engine);

    if args.get("sam").is_some() {
        let stdout = io::stdout();
        let mut out = BufWriter::new(stdout.lock());
        sam::write_header(&mut out, &reference.id, reference.seq.len())
            .map_err(|e| CliError::Io(e.to_string()))?;
        for ((name, seq), outcome) in reads.iter().zip(&outcomes) {
            let record = outcome_record(name, &reference.id, seq, outcome);
            sam::write_record(&mut out, &record).map_err(|e| CliError::Io(e.to_string()))?;
        }
        out.flush().map_err(|e| CliError::Io(e.to_string()))?;
    }

    if let Some(path) = trace_out {
        telemetry
            .tracer
            .export_to(path)
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    }
    let mapped = outcomes.iter().filter(|o| o.mapping().is_some()).count();
    let metrics = &telemetry.metrics;
    metrics.counter("map.reads").add(reads.len() as u64);
    metrics.counter("map.mapped").add(mapped as u64);
    stats::record_stage_timings(metrics, &timings);
    let align_secs = timings.align_total().as_secs_f64();
    if align_secs > 0.0 {
        metrics
            .gauge("map.align_reads_per_sec")
            .set((reads.len() as f64 / align_secs) as u64);
    }
    stats::emit(metrics, quiet, metrics_mode);
    Ok(())
}

/// Arms `SIGINT`/`SIGTERM` to request a graceful drain: the handler
/// only sets a flag, and the serving loops observe it at safe points
/// (accept polls, record boundaries). Declared against libc's
/// `signal(2)` directly so the binary stays dependency-free; on
/// non-unix targets shutdown rides on input EOF alone.
#[cfg(unix)]
fn install_drain_handler(flag: &'static AtomicBool) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        DRAIN_REQUESTED.store(true, Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // The handler writes only the static flag; `flag` exists so the
    // call site names what the handler flips.
    assert!(std::ptr::eq(flag, &DRAIN_REQUESTED));
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_drain_handler(_flag: &'static AtomicBool) {}

/// Set by `SIGINT`/`SIGTERM`; serving loops drain when they see it.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let (aligner, dispatch) = parse_kernel(args).map_err(CliError::Usage)?;
    let lanes = parse_lanes(args).map_err(CliError::Usage)?;
    let align_mode = parse_align_mode(args).map_err(CliError::Usage)?;
    reject_filter_mode(args).map_err(CliError::Usage)?;
    let error_rate: f64 = args.number("error-rate", 0.15).map_err(CliError::Usage)?;
    let workers: usize = args.number("workers", 0).map_err(CliError::Usage)?;
    let shards: usize = args.number("shards", 0).map_err(CliError::Usage)?;
    let batch_reads: usize = args.number("batch-reads", 64).map_err(CliError::Usage)?;
    // Unknown options are ignored everywhere else; this one used to
    // work, so a script still passing it must hear that it no longer
    // does anything.
    if args.get("batch-wait-ms").is_some() {
        return Err(CliError::Usage(
            "--batch-wait-ms was removed: the flush timer is gone, idle workers claim \
             pending reads immediately (see docs/SERVING.md)"
                .to_string(),
        ));
    }
    let max_inflight: usize = args
        .number("max-inflight-reads", 1024)
        .map_err(CliError::Usage)?;
    let deadline_ms: u64 = args
        .number("request-deadline-ms", 0)
        .map_err(CliError::Usage)?;
    let pipeline_workers: usize = args
        .number("pipeline-workers", 2)
        .map_err(CliError::Usage)?;
    let mode = parse_mode(args)?;
    let quiet = args.flag("quiet");
    let metrics_mode = stats::parse_metrics_mode(args).map_err(CliError::Usage)?;
    let trace_out = args.get("trace-out");
    let telemetry = Telemetry::with_flags(!quiet, trace_out.is_some());

    let reference = load_first_fasta(args.require("ref").map_err(CliError::Usage)?)?;
    let config = MapperConfig {
        error_fraction: error_rate,
        aligner,
        index_shards: shards,
        align_mode,
        ..MapperConfig::default()
    };
    let mapper = ReadMapper::build(&reference.seq, config).with_telemetry(telemetry.clone());
    let engine = mapper
        .engine_with_lanes(workers, dispatch, lanes)
        .with_telemetry(telemetry.clone());
    let server = ServeServer::start(
        mapper,
        engine,
        ServeConfig {
            batch_reads,
            max_inflight_reads: max_inflight,
            request_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            pipeline_workers,
        },
    );
    install_drain_handler(&DRAIN_REQUESTED);

    // Stdin mode parks its writer here so the in-order flush check
    // runs after the drain (drain is what answers reads still
    // pending or in flight).
    let mut stdin_writer: Option<(Arc<SamStreamWriter<BufWriter<io::Stdout>>>, u64)> = None;
    let result = match args.get("listen") {
        // TCP front-end: every connection gets its own SAM stream;
        // SIGINT/SIGTERM stops accepting, lets live connections
        // finish, then drains.
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| CliError::Io(format!("{addr}: {e}")))?;
            let local = listener
                .local_addr()
                .map_err(|e| CliError::Io(e.to_string()))?;
            eprintln!("genasm serve: listening on {local} (FASTQ in, SAM out; ^C drains)");
            serve_listener(
                &server,
                &listener,
                &reference.id,
                reference.seq.len(),
                mode,
                &DRAIN_REQUESTED,
            )
            .map_err(|e| CliError::Io(e.to_string()))
        }
        // Stdin front-end: one SAM stream on stdout; EOF (or a drain
        // signal observed at a record boundary) ends admission.
        None => {
            let writer = Arc::new(SamStreamWriter::new(
                BufWriter::new(io::stdout()),
                &reference.id,
            ));
            let command = format!(
                "genasm serve --batch-reads {batch_reads} --max-inflight-reads {max_inflight} \
                 --request-deadline-ms {deadline_ms} --pipeline-workers {pipeline_workers}"
            );
            writer.write_raw(|out| {
                sam::write_header_with_command(
                    &mut *out,
                    &reference.id,
                    reference.seq.len(),
                    Some(&command),
                )
            });
            let sink: Arc<dyn ResponseSink> = Arc::clone(&writer) as Arc<dyn ResponseSink>;
            let (report, error) = pump(&server, io::stdin().lock(), mode, &sink, &DRAIN_REQUESTED);
            if mode == ParseMode::Lenient {
                record_parse_report(&telemetry.metrics, "stdin", &report.parse);
            }
            // Every submitted read is answered before the process
            // judges the stream: a damaged tail must not cost the
            // reads ahead of it their responses.
            stdin_writer = Some((Arc::clone(&writer), report.submitted));
            match error {
                None => Ok(()),
                // A drain signal can interrupt the blocked stdin read;
                // that is a clean shutdown, not a failure.
                Some(FastxError::Io(e)) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
                Some(e) => Err(classify_fastx("stdin", e)),
            }
        }
    };

    // Graceful drain either way: stop admitting, answer every
    // admitted read, join the serving threads — then confirm the
    // stdout stream wrote its last in-order record.
    server.drain();
    if let Some((writer, submitted)) = stdin_writer {
        writer.wait_delivered(submitted);
    }
    if let Some(path) = trace_out {
        telemetry
            .tracer
            .export_to(path)
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    }
    stats::emit(&telemetry.metrics, quiet, metrics_mode);
    result
}

fn cmd_align(args: &Args) -> Result<(), CliError> {
    let reference = load_first_fasta(args.require("ref").map_err(CliError::Usage)?)?;
    let (queries, _) = load_reads(
        args.require("query").map_err(CliError::Usage)?,
        ParseMode::Strict,
    )?;
    let aligner = GenAsmAligner::new(GenAsmConfig::default());
    for (name, seq) in &queries {
        let k = args.number("k", seq.len() / 5).map_err(CliError::Usage)?;
        match aligner
            .search_and_align(&reference.seq, seq, k)
            .map_err(|e| CliError::Parse(format!("{name}: {e}")))?
        {
            Some((pos, alignment)) => println!(
                "{name}\tpos={pos}\tedits={}\tcigar={}",
                alignment.edit_distance, alignment.cigar
            ),
            None => println!("{name}\tunaligned (no occurrence within {k} edits)"),
        }
    }
    Ok(())
}

fn cmd_distance(args: &Args) -> Result<(), CliError> {
    let a = load_first_fasta(args.require("a").map_err(CliError::Usage)?)?;
    let b = load_first_fasta(args.require("b").map_err(CliError::Usage)?)?;
    let calc = EditDistanceCalculator::default();
    let d = calc
        .distance(&a.seq, &b.seq)
        .map_err(|e| CliError::Parse(e.to_string()))?;
    println!("{d}");
    Ok(())
}

fn cmd_filter(args: &Args) -> Result<(), CliError> {
    let kernel = match args.get("kernel").unwrap_or("lockstep") {
        k @ ("scalar" | "lockstep") => k,
        other => return Err(CliError::Usage(format!("unknown kernel {other:?}"))),
    };
    let quiet = args.flag("quiet");
    let metrics_mode = stats::parse_metrics_mode(args).map_err(CliError::Usage)?;
    let trace_out = args.get("trace-out");
    let telemetry = Telemetry::with_flags(!quiet, trace_out.is_some());
    let reference = load_first_fasta(args.require("ref").map_err(CliError::Usage)?)?;
    let (reads, _) = load_reads(
        args.require("reads").map_err(CliError::Usage)?,
        ParseMode::Strict,
    )?;
    let threshold: usize = args
        .require("threshold")
        .map_err(CliError::Usage)?
        .parse()
        .map_err(|_| CliError::Usage("bad --threshold".into()))?;
    let filter = PreAlignmentFilter::new(threshold);
    let mut spans = telemetry
        .tracer
        .is_enabled()
        .then(|| telemetry.tracer.buffer(0));
    if let Some(s) = spans.as_mut() {
        s.begin("filter");
    }
    // Both kernels make identical decisions; lockstep batches up to
    // four single-word scans per Bitap pass (reads over 64 bases use
    // the scalar multi-word scan either way). Only the lock-step
    // kernel has row-slot accounting to report.
    let mut rows = genasm_core::bitap::ScanMetrics::default();
    let decisions = match kernel {
        "lockstep" => {
            let pairs: Vec<(&[u8], &[u8])> = reads
                .iter()
                .map(|(_, seq)| (reference.seq.as_slice(), seq.as_slice()))
                .collect();
            filter.decide_many_counted(&pairs, &mut rows)
        }
        _ => reads
            .iter()
            .map(|(_, seq)| filter.decide(&reference.seq, seq))
            .collect(),
    };
    if let Some(s) = spans.as_mut() {
        s.end("filter");
        s.flush();
    }
    let mut accepted = 0usize;
    for ((name, _), decision) in reads.iter().zip(decisions) {
        let decision = decision.map_err(|e| CliError::Parse(format!("{name}: {e}")))?;
        accepted += usize::from(decision.accept);
        println!(
            "{name}\t{}\t{}",
            if decision.accept { "accept" } else { "reject" },
            decision
                .distance
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }
    if let Some(path) = trace_out {
        telemetry
            .tracer
            .export_to(path)
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    }
    let metrics = &telemetry.metrics;
    metrics.counter("filter.reads").add(reads.len() as u64);
    metrics.counter("filter.accepted").add(accepted as u64);
    let reject_rate = if reads.is_empty() {
        0.0
    } else {
        1.0 - accepted as f64 / reads.len() as f64
    };
    stats::gauge_ratio_bp(metrics, "filter.reject_rate_bp", Some(reject_rate));
    metrics.gauge("filter.rows_issued").set(rows.rows_issued);
    metrics.gauge("filter.rows_useful").set(rows.rows_useful);
    stats::gauge_ratio_bp(
        metrics,
        "filter.occupancy_bp",
        (rows.rows_issued > 0).then(|| rows.rows_useful as f64 / rows.rows_issued as f64),
    );
    stats::emit(metrics, quiet, metrics_mode);
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let genome_size: usize = args
        .require("genome-size")
        .map_err(CliError::Usage)?
        .parse()
        .map_err(|_| CliError::Usage("bad --genome-size".into()))?;
    let count: usize = args
        .require("count")
        .map_err(CliError::Usage)?
        .parse()
        .map_err(|_| CliError::Usage("bad --count".into()))?;
    let length: usize = args.number("length", 100).map_err(CliError::Usage)?;
    let seed: u64 = args.number("seed", 0).map_err(CliError::Usage)?;
    let profile = match args.get("profile").unwrap_or("illumina") {
        "illumina" => ErrorProfile::illumina(),
        "pacbio10" => ErrorProfile::pacbio_10(),
        "pacbio15" => ErrorProfile::pacbio_15(),
        "ont10" => ErrorProfile::ont_10(),
        "ont15" => ErrorProfile::ont_15(),
        other => return Err(CliError::Usage(format!("unknown profile {other:?}"))),
    };
    let prefix = args.get("out-prefix").unwrap_or("sim");
    // The output prefix may name a directory that does not exist yet;
    // create it instead of failing the first file write.
    if let Some(parent) = std::path::Path::new(&format!("{prefix}_ref.fa")).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError::Io(format!("{}: {e}", parent.display())))?;
        }
    }

    let genome = GenomeBuilder::new(genome_size)
        .seed(seed)
        .name(format!("{prefix}_ref"))
        .build();
    let sim = ReadSimulator::new(SimConfig {
        read_length: length,
        count,
        profile,
        seed: seed.wrapping_add(1),
        ..SimConfig::default()
    });
    let reads = sim.simulate(genome.sequence());

    let ref_path = format!("{prefix}_ref.fa");
    let reads_path = format!("{prefix}_reads.fq");
    let ref_file = File::create(&ref_path).map_err(|e| CliError::Io(format!("{ref_path}: {e}")))?;
    write_fasta(
        BufWriter::new(ref_file),
        &[FastaRecord {
            id: genome.name().to_string(),
            seq: genome.sequence().to_vec(),
        }],
    )
    .map_err(|e| CliError::Io(format!("{ref_path}: {e}")))?;
    let reads_file =
        File::create(&reads_path).map_err(|e| CliError::Io(format!("{reads_path}: {e}")))?;
    genasm_seq::fastq::write_fastq(
        BufWriter::new(reads_file),
        &to_fastq_records(&reads, &profile),
    )
    .map_err(|e| CliError::Io(format!("{reads_path}: {e}")))?;
    eprintln!("wrote {ref_path} ({genome_size} bp) and {reads_path} ({count} reads)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(vec!["frobnicate".into()]).is_err());
        assert!(run(vec![]).is_err());
    }

    #[test]
    fn simulate_then_map_roundtrip() {
        let dir = std::env::temp_dir().join(format!("genasm_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("t").to_string_lossy().to_string();
        run(vec![
            "simulate".into(),
            "--genome-size".into(),
            "20000".into(),
            "--count".into(),
            "5".into(),
            "--length".into(),
            "120".into(),
            "--seed".into(),
            "3".into(),
            "--out-prefix".into(),
            prefix.clone(),
        ])
        .unwrap();
        assert!(std::path::Path::new(&format!("{prefix}_ref.fa")).exists());
        assert!(std::path::Path::new(&format!("{prefix}_reads.fq")).exists());

        // Distance of the reference against itself is zero.
        run(vec![
            "distance".into(),
            "--a".into(),
            format!("{prefix}_ref.fa"),
            "--b".into(),
            format!("{prefix}_ref.fa"),
        ])
        .unwrap();

        // Map the simulated reads back (SAM goes to stdout) — the
        // default engine-backed batch pipeline, then the sequential
        // reference path and explicit worker/kernel/shard flags.
        run(vec![
            "map".into(),
            "--ref".into(),
            format!("{prefix}_ref.fa"),
            "--reads".into(),
            format!("{prefix}_reads.fq"),
        ])
        .unwrap();
        run(vec![
            "map".into(),
            "--ref".into(),
            format!("{prefix}_ref.fa"),
            "--reads".into(),
            format!("{prefix}_reads.fq"),
            "--pipeline".into(),
            "sequential".into(),
        ])
        .unwrap();
        run(vec![
            "map".into(),
            "--ref".into(),
            format!("{prefix}_ref.fa"),
            "--reads".into(),
            format!("{prefix}_reads.fq"),
            "--workers".into(),
            "2".into(),
            "--kernel".into(),
            "scalar".into(),
            "--shards".into(),
            "4".into(),
        ])
        .unwrap();

        // The engine-batched path maps the same inputs, on every kernel
        // (scalar, chunked and lockstep are the A/B set of the DC
        // dispatch).
        for kernel in ["genasm", "gotoh", "scalar", "chunked", "lockstep"] {
            run(vec![
                "batch".into(),
                "--ref".into(),
                format!("{prefix}_ref.fa"),
                "--reads".into(),
                format!("{prefix}_reads.fq"),
                "--threads".into(),
                "2".into(),
                "--kernel".into(),
                kernel.into(),
            ])
            .unwrap();
        }

        // Both align modes run (and an unknown one is rejected before
        // any file is read).
        for mode in ["two-phase", "full"] {
            run(vec![
                "map".into(),
                "--ref".into(),
                format!("{prefix}_ref.fa"),
                "--reads".into(),
                format!("{prefix}_reads.fq"),
                "--align-mode".into(),
                mode.into(),
            ])
            .unwrap();
        }

        // The sequential reference pipeline runs end to end too.
        run(vec![
            "map".into(),
            "--pipeline".into(),
            "sequential".into(),
            "--ref".into(),
            format!("{prefix}_ref.fa"),
            "--reads".into(),
            format!("{prefix}_reads.fq"),
        ])
        .unwrap();

        // Explicit lane widths thread through to the engine.
        for lanes in ["4", "8", "16", "auto"] {
            run(vec![
                "map".into(),
                "--ref".into(),
                format!("{prefix}_ref.fa"),
                "--reads".into(),
                format!("{prefix}_reads.fq"),
                "--lanes".into(),
                lanes.into(),
            ])
            .unwrap();
        }
        let err = run(vec![
            "map".into(),
            "--ref".into(),
            format!("{prefix}_ref.fa"),
            "--reads".into(),
            format!("{prefix}_reads.fq"),
            "--lanes".into(),
            "32".into(),
        ])
        .unwrap_err();
        assert!(err.message().contains("unknown lane count"), "{err:?}");
        assert_eq!(err.exit_code(), 2);

        // The filter runs on both scan kernels.
        for kernel in ["scalar", "lockstep"] {
            run(vec![
                "filter".into(),
                "--ref".into(),
                format!("{prefix}_ref.fa"),
                "--reads".into(),
                format!("{prefix}_reads.fq"),
                "--threshold".into(),
                "20".into(),
                "--kernel".into(),
                kernel.into(),
            ])
            .unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_flags_produce_traces_and_quiet_runs() {
        let dir = std::env::temp_dir().join(format!("genasm_cli_tele_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("t").to_string_lossy().to_string();
        run(vec![
            "simulate".into(),
            "--genome-size".into(),
            "20000".into(),
            "--count".into(),
            "4".into(),
            "--length".into(),
            "60".into(),
            "--seed".into(),
            "7".into(),
            "--out-prefix".into(),
            prefix.clone(),
        ])
        .unwrap();
        let reference = format!("{prefix}_ref.fa");
        let reads = format!("{prefix}_reads.fq");

        // map writes a balanced, non-empty Chrome trace.
        let trace = format!("{prefix}_map_trace.json");
        run(vec![
            "map".into(),
            "--ref".into(),
            reference.clone(),
            "--reads".into(),
            reads.clone(),
            "--trace-out".into(),
            trace.clone(),
            "--metrics".into(),
            "json".into(),
        ])
        .unwrap();
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.contains("\"traceEvents\""), "{body}");
        let begins = body.matches("\"ph\": \"B\"").count();
        assert!(begins > 0, "trace has no begin events: {body}");
        assert_eq!(begins, body.matches("\"ph\": \"E\"").count(), "{body}");
        assert!(body.contains("seeding"), "{body}");

        // --quiet runs produce no report but still map (sequential and
        // batch paths both accept the telemetry flags).
        run(vec![
            "map".into(),
            "--ref".into(),
            reference.clone(),
            "--reads".into(),
            reads.clone(),
            "--pipeline".into(),
            "sequential".into(),
            "--quiet".into(),
        ])
        .unwrap();
        let btrace = format!("{prefix}_batch_trace.json");
        run(vec![
            "batch".into(),
            "--ref".into(),
            reference.clone(),
            "--reads".into(),
            reads.clone(),
            "--quiet".into(),
            "--trace-out".into(),
            btrace.clone(),
        ])
        .unwrap();
        assert!(std::fs::metadata(&btrace).unwrap().len() > 0);

        // filter records its span and accepts the flags too.
        let ftrace = format!("{prefix}_filter_trace.json");
        run(vec![
            "filter".into(),
            "--ref".into(),
            reference.clone(),
            "--reads".into(),
            reads.clone(),
            "--threshold".into(),
            "20".into(),
            "--metrics".into(),
            "json".into(),
            "--trace-out".into(),
            ftrace.clone(),
        ])
        .unwrap();
        assert!(std::fs::read_to_string(&ftrace).unwrap().contains("filter"));

        // A bad metrics mode is rejected before any file is read.
        let err = run(vec![
            "map".into(),
            "--ref".into(),
            "missing.fa".into(),
            "--reads".into(),
            "missing.fq".into(),
            "--metrics".into(),
            "csv".into(),
        ])
        .unwrap_err();
        assert!(err.message().contains("unknown metrics mode"), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filter_rejects_unknown_kernel() {
        let err = run(vec![
            "filter".into(),
            "--ref".into(),
            "missing.fa".into(),
            "--reads".into(),
            "missing.fq".into(),
            "--threshold".into(),
            "3".into(),
            "--kernel".into(),
            "shouji".into(),
        ])
        .unwrap_err();
        assert!(err.message().contains("unknown kernel"), "{err:?}");
    }

    #[test]
    fn map_rejects_bad_options_before_reading_files() {
        for (key, value, needle) in [
            ("--kernel", "smith-waterman", "unknown kernel"),
            ("--pipeline", "streaming", "unknown pipeline"),
            ("--align-mode", "three-phase", "unknown align mode"),
        ] {
            let err = run(vec![
                "map".into(),
                "--ref".into(),
                "missing.fa".into(),
                "--reads".into(),
                "missing.fq".into(),
                key.into(),
                value.into(),
            ])
            .unwrap_err();
            assert!(err.message().contains(needle), "{key}: {err:?}");
            assert_eq!(err.exit_code(), 2, "{key}");
        }
    }

    #[test]
    fn batch_rejects_unknown_kernel_before_reading_files() {
        let err = run(vec![
            "batch".into(),
            "--ref".into(),
            "missing.fa".into(),
            "--reads".into(),
            "missing.fq".into(),
            "--kernel".into(),
            "smith-waterman".into(),
        ])
        .unwrap_err();
        assert!(
            err.message().contains("unknown kernel") && err.message().contains("smith-waterman"),
            "kernel validation must run before file loading: {err:?}"
        );
    }

    #[test]
    fn serve_rejects_the_removed_batch_wait_flag() {
        let err = run(vec![
            "serve".into(),
            "--ref".into(),
            "missing.fa".into(),
            "--batch-wait-ms".into(),
            "5".into(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("timer is gone"), "{err:?}");
    }

    #[test]
    fn map_batch_and_serve_reject_the_removed_filter_mode_flag() {
        for command in ["map", "batch", "serve"] {
            let err = run(vec![
                command.into(),
                "--ref".into(),
                "missing.fa".into(),
                "--reads".into(),
                "missing.fq".into(),
                "--filter-mode".into(),
                "legacy".into(),
            ])
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{command}");
            assert!(
                err.message().contains("--filter-mode was removed"),
                "{command}: {err:?}"
            );
        }
    }

    #[test]
    fn error_classes_pick_distinct_exit_codes() {
        // Usage: unknown command.
        let err = run(vec!["frobnicate".into()]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(matches!(err, CliError::Usage(_)));
        // I/O: a file that does not exist.
        let err = run(vec![
            "map".into(),
            "--ref".into(),
            "/nonexistent/ref.fa".into(),
            "--reads".into(),
            "/nonexistent/reads.fq".into(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(matches!(err, CliError::Io(_)));
        // Parse: malformed input data in strict mode.
        let dir = std::env::temp_dir().join(format!("genasm_cli_exit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reference = dir.join("ref.fa");
        let reads = dir.join("reads.fq");
        std::fs::write(&reference, ">chr\nACGTACGTACGTACGTACGT\n").unwrap();
        std::fs::write(&reads, "@r1\nACGT\n+\nII\n").unwrap(); // qual too short
        let err = run(vec![
            "map".into(),
            "--ref".into(),
            reference.to_string_lossy().into_owned(),
            "--reads".into(),
            reads.to_string_lossy().into_owned(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err:?}");
        assert!(matches!(err, CliError::Parse(_)));
        assert!(err.message().contains("quality length"), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_mode_maps_the_good_records_and_counts_the_bad() {
        let dir = std::env::temp_dir().join(format!("genasm_cli_lenient_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("t").to_string_lossy().to_string();
        run(vec![
            "simulate".into(),
            "--genome-size".into(),
            "20000".into(),
            "--count".into(),
            "4".into(),
            "--length".into(),
            "100".into(),
            "--seed".into(),
            "5".into(),
            "--out-prefix".into(),
            prefix.clone(),
        ])
        .unwrap();
        // Damage the reads file: append a truncated record.
        let reads = format!("{prefix}_reads.fq");
        let mut body = std::fs::read_to_string(&reads).unwrap();
        body.push_str("@truncated\nACGTACGT\n");
        std::fs::write(&reads, body).unwrap();

        // Strict fails with a parse error...
        let err = run(vec![
            "map".into(),
            "--ref".into(),
            format!("{prefix}_ref.fa"),
            "--reads".into(),
            reads.clone(),
            "--strict".into(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err:?}");
        // ...lenient maps the intact records.
        run(vec![
            "map".into(),
            "--ref".into(),
            format!("{prefix}_ref.fa"),
            "--reads".into(),
            reads.clone(),
            "--lenient".into(),
        ])
        .unwrap();
        // Both flags at once is a usage error.
        let err = run(vec![
            "map".into(),
            "--ref".into(),
            format!("{prefix}_ref.fa"),
            "--reads".into(),
            reads.clone(),
            "--strict".into(),
            "--lenient".into(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_flag_runs_and_degrades_gracefully() {
        let dir = std::env::temp_dir().join(format!("genasm_cli_deadline_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("t").to_string_lossy().to_string();
        run(vec![
            "simulate".into(),
            "--genome-size".into(),
            "20000".into(),
            "--count".into(),
            "4".into(),
            "--length".into(),
            "100".into(),
            "--seed".into(),
            "9".into(),
            "--out-prefix".into(),
            prefix.clone(),
        ])
        .unwrap();
        // A generous deadline completes normally; both map and batch
        // accept the flag.
        for cmd in ["map", "batch"] {
            run(vec![
                cmd.into(),
                "--ref".into(),
                format!("{prefix}_ref.fa"),
                "--reads".into(),
                format!("{prefix}_reads.fq"),
                "--deadline-ms".into(),
                "60000".into(),
            ])
            .unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
