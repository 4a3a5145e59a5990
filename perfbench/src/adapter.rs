//! The one place the harness touches the workspace crates.
//!
//! Every library symbol the benchmark uses is imported here, and the
//! many-field statistics structs (`StageTimings`, `BatchStats`, the
//! telemetry snapshot) are flattened here, so the surface a later
//! refactor must keep compiling is readable in this file. The rest of
//! the harness imports only from `crate::adapter`; of library types it
//! touches only the public fields of the re-exported result types
//! (`Mapping`, `Alignment`, `ReadOutcome`, `Response`, `Candidate`, the
//! FASTA/FASTQ records, `Job`). README.md lists the whole surface.
//!
//! Shape rules encoded here (see README.md):
//! * one compute thread — every engine is built with one worker and the
//!   server with one pipeline worker;
//! * product defaults otherwise — `MapperConfig::default()`,
//!   `EngineConfig::default()`, `ServeConfig::default()`; no dispatch,
//!   lane, filter-mode or align-mode variant is ever named, so a PR
//!   that changes a default is measured and a PR that deletes a mode
//!   still compiles against this file unchanged.

use std::io;

pub use genasm_core::align::{AlignArena, Alignment, GenAsmAligner};
pub use genasm_engine::{DistanceJob, Engine, Job};
pub use genasm_mapper::pipeline::{Mapping, ReadMapper, ReadOutcome};
pub use genasm_mapper::seed::SeedScratch;
pub use genasm_mapper::{Candidate, PackedRef, ShardedIndex};
pub use genasm_obs::Telemetry;
pub use genasm_seq::fasta::FastaRecord;
pub use genasm_seq::fastq::FastqRecord;
pub use genasm_serve::{Admission, Response, ResponseKind, ResponseSink, Server};

use genasm_baselines::gotoh::{GotohAligner, GotohMode};
use genasm_core::scoring::Scoring;
use genasm_engine::{BatchStats, EngineConfig};
use genasm_mapper::pipeline::{MapperConfig, StageTimings};
use genasm_mapper::sam::{write_record, SamRecord};
use genasm_serve::{
    ServeConfig, BATCHES_COUNTER, READS_DEADLINE_DROPPED_COUNTER, READS_POISONED_COUNTER,
    READS_SHED_COUNTER, REQUEST_LATENCY_HISTOGRAM,
};

/// Name the reference sequence carries in FASTA input and SAM output.
pub const REFERENCE_NAME: &str = "ref";

// ---- seq ---------------------------------------------------------------

pub fn parse_fasta(bytes: &[u8]) -> io::Result<Vec<FastaRecord>> {
    genasm_seq::fasta::read_fasta(bytes)
}

pub fn parse_fastq(bytes: &[u8]) -> io::Result<Vec<FastqRecord>> {
    genasm_seq::fastq::read_fastq(bytes)
}

// ---- mapper ------------------------------------------------------------

pub fn build_mapper(reference: &[u8]) -> ReadMapper {
    ReadMapper::build(reference, MapperConfig::default())
}

/// The standalone index build `ReadMapper::build` performs, with the
/// mapper's own seed length.
pub fn build_index(reference: &[u8], mapper: &ReadMapper) -> ShardedIndex {
    ShardedIndex::build(reference, mapper.config().seed_len)
}

/// Candidate loci of one oriented read, through the mapper's own seeder.
pub fn seed_candidates(
    mapper: &ReadMapper,
    read: &[u8],
    scratch: &mut SeedScratch,
    out: &mut Vec<Candidate>,
) {
    mapper
        .config()
        .seeder
        .candidates_into(mapper.index(), read, scratch, out);
}

/// The mapper's edit budget `k` for a read of `len` bases; its candidate
/// regions are `len + k` bases long.
pub fn error_budget(mapper: &ReadMapper, len: usize) -> usize {
    (len as f64 * mapper.config().error_fraction).ceil() as usize
}

/// Whether the mapper also tries each read's reverse complement.
pub fn maps_both_strands(mapper: &ReadMapper) -> bool {
    mapper.config().both_strands
}

/// The scalar single-threaded aligner configured as the mapper's engine
/// is: the oracle the lock-step engine's results must equal.
pub fn scalar_aligner_for(mapper: &ReadMapper) -> GenAsmAligner {
    GenAsmAligner::new(mapper.config().genasm.clone())
}

pub fn default_scalar_aligner() -> GenAsmAligner {
    GenAsmAligner::default()
}

/// Appends one SAM line for `outcome` to `out` (the product's renderer).
pub fn render_sam(name: &str, read: &[u8], outcome: &ReadOutcome, out: &mut Vec<u8>) {
    let record = match outcome {
        ReadOutcome::Mapped(m) => SamRecord::from_mapping(name, REFERENCE_NAME, read, m),
        ReadOutcome::Unmapped => SamRecord::unmapped(name, read),
        ReadOutcome::Poisoned { .. } => SamRecord::unmapped_with_reason(name, read, "poisoned"),
        ReadOutcome::Incomplete { .. } => SamRecord::unmapped_with_reason(name, read, "deadline"),
    };
    write_record(&mut *out, &record).expect("writing to a Vec cannot fail");
}

/// Appends the SAM line the server's own response renderer produces.
pub fn render_response_sam(response: &Response, out: &mut Vec<u8>) {
    write_record(&mut *out, &response.sam_record(REFERENCE_NAME))
        .expect("writing to a Vec cannot fail");
}

/// Times and counters of one `map_batch_resilient` call, flattened.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageFigures {
    pub seed_s: f64,
    pub filter_s: f64,
    pub distance_s: f64,
    pub traceback_s: f64,
    pub candidates: u64,
    pub survivors: u64,
    pub tier0_probes: u64,
    pub tier0_rejects: u64,
    pub tier1_rejects: u64,
    pub accepts: u64,
    pub fallbacks: u64,
    pub filter_rows_issued: u64,
    pub filter_rows_useful: u64,
    pub bound_reuse_hits: u64,
    pub distance_jobs: u64,
    pub traceback_jobs: u64,
    pub tb_rows: u64,
    pub dc_rows_issued: u64,
    pub dc_rows_useful: u64,
}

impl StageFigures {
    pub fn stage_sum_s(&self) -> f64 {
        self.seed_s + self.filter_s + self.distance_s + self.traceback_s
    }
}

fn stage_figures(t: &StageTimings) -> StageFigures {
    StageFigures {
        seed_s: t.seeding.as_secs_f64(),
        filter_s: t.filtering.as_secs_f64(),
        distance_s: t.distance.as_secs_f64(),
        traceback_s: t.traceback.as_secs_f64(),
        candidates: t.candidates.0 as u64,
        survivors: t.candidates.1 as u64,
        tier0_probes: t.tier0_probes,
        tier0_rejects: t.tier0_rejects,
        tier1_rejects: t.tier1_rejects,
        accepts: t.cascade_accepts,
        fallbacks: t.cascade_fallbacks,
        filter_rows_issued: t.filter_rows.0,
        filter_rows_useful: t.filter_rows.1,
        bound_reuse_hits: t.bound_reuse_hits,
        distance_jobs: t.distance_jobs,
        traceback_jobs: t.traceback_jobs,
        tb_rows: t.tb_rows.1,
        dc_rows_issued: t.dc_rows.0,
        dc_rows_useful: t.dc_rows.1,
    }
}

/// The batch mapping path every map pass and the serve workers run.
pub fn map_batch(
    mapper: &ReadMapper,
    reads: &[&[u8]],
    engine: &Engine,
) -> (Vec<ReadOutcome>, StageFigures) {
    let (outcomes, timings) = mapper.map_batch_resilient(reads, engine);
    (outcomes, stage_figures(&timings))
}

// ---- engine ------------------------------------------------------------

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig::default().with_workers(workers)
}

/// A default engine with `workers` workers (1 everywhere except the
/// informational `engine.speedup_2w` probe).
pub fn engine(workers: usize) -> Engine {
    Engine::new(engine_config(workers))
}

/// The engine a mapper's batches run on: default engine, one worker,
/// the mapper's own aligner configuration.
pub fn engine_for(mapper: &ReadMapper) -> Engine {
    Engine::new(engine_config(1).with_genasm(mapper.config().genasm.clone()))
}

/// Counters of one engine batch, flattened.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineFigures {
    pub wall_s: f64,
    pub busy_s: f64,
    pub workers: u64,
    pub pattern_bases: u64,
    pub failures: u64,
    pub dc_rows_issued: u64,
    pub dc_rows_useful: u64,
    pub tb_windows: u64,
    pub tb_rows: u64,
}

fn engine_figures(s: &BatchStats) -> EngineFigures {
    EngineFigures {
        wall_s: s.wall.as_secs_f64(),
        busy_s: s.busy.as_secs_f64(),
        workers: s.workers as u64,
        pattern_bases: s.pattern_bases as u64,
        failures: s.failures as u64,
        dc_rows_issued: s.dc_rows_issued,
        dc_rows_useful: s.dc_rows_useful,
        tb_windows: s.tb_windows,
        tb_rows: s.tb_rows,
    }
}

/// The batch alignment path every align pass runs. `Err` carries the
/// engine's per-job error rendered as text.
pub fn align_batch(engine: &Engine, jobs: &[Job]) -> Vec<Result<Alignment, String>> {
    engine
        .align_batch(jobs)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

pub fn align_batch_with_figures(
    engine: &Engine,
    jobs: &[Job],
) -> (Vec<Result<Alignment, String>>, EngineFigures) {
    let output = engine.align_batch_with_stats(jobs);
    let results = output
        .results
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    (results, engine_figures(&output.stats))
}

/// Distance-only scans of the same pairs (no traceback store). Returns
/// how many jobs came back `Ok`.
pub fn distance_batch(engine: &Engine, jobs: &[DistanceJob]) -> usize {
    let (results, _stats) = engine.distance_batch_keyed(jobs);
    results.iter().filter(|r| r.result.is_ok()).count()
}

// ---- baselines ---------------------------------------------------------

/// The DP-optimal edit distance of `pattern` against a prefix of `text`
/// (pattern global, text anchored at its start, text suffix free — the
/// aligner's own end semantics, as in
/// `tests/cross_crate.rs::genasm_scores_match_dp_for_most_short_reads`),
/// from the Gotoh baseline under unit costs.
pub fn optimal_edit_distance(text: &[u8], pattern: &[u8]) -> usize {
    let dp = GotohAligner::new(Scoring::unit(), GotohMode::TextSuffixFree);
    usize::try_from(-dp.score_only(text, pattern)).expect("unit-cost score is never positive")
}

// ---- serve -------------------------------------------------------------

/// Starts the server with product defaults and one pipeline worker.
pub fn start_server(mapper: ReadMapper, engine: Engine) -> Server {
    let config = ServeConfig {
        pipeline_workers: 1,
        ..ServeConfig::default()
    };
    Server::start(mapper, engine, config)
}

/// The server's own counters, read from a telemetry snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeFigures {
    pub batches: u64,
    pub reads_shed: u64,
    pub reads_deadline_dropped: u64,
    pub reads_poisoned: u64,
    /// p50 of the server's admission-to-delivery histogram, when it
    /// recorded anything.
    pub server_latency_p50_us: Option<f64>,
}

pub fn serve_figures(telemetry: &Telemetry) -> ServeFigures {
    let snapshot = telemetry.metrics.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    ServeFigures {
        batches: counter(BATCHES_COUNTER),
        reads_shed: counter(READS_SHED_COUNTER),
        reads_deadline_dropped: counter(READS_DEADLINE_DROPPED_COUNTER),
        reads_poisoned: counter(READS_POISONED_COUNTER),
        server_latency_p50_us: snapshot
            .histogram(REQUEST_LATENCY_HISTOGRAM)
            .filter(|h| h.count > 0)
            .map(|h| h.p50() as f64),
    }
}
