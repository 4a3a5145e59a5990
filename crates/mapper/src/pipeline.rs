//! The read-mapping pipeline (Figure 1): seeding → pre-alignment
//! filtering → read alignment, with a pluggable aligner so the Figure
//! 11 experiment can swap the alignment step between the software DP
//! baseline and GenASM.
//!
//! Two execution shapes produce bit-identical mappings:
//!
//! * [`ReadMapper::map_read`] — the sequential reference path, one
//!   read at a time: seed, run the GenASM-DC pre-alignment filter
//!   ([`PreAlignmentFilter`]) over every candidate, align every
//!   survivor, keep the best;
//! * [`ReadMapper::map_batch_with_engine`] — the staged batch path:
//!   seed a whole batch of reads (both strands), then resolve and align
//!   every candidate on a multi-threaded [`Engine`]. It has no filter
//!   stage; the edit budget is checked after alignment instead.
//!
//! The batch path's alignment step has two execution models
//! ([`AlignMode`]). The default **two-phase** model mirrors the
//! paper's GenASM-DC / GenASM-TB split at pipeline granularity: every
//! candidate first runs a **distance-only** scan
//! ([`Engine::distance_batch_keyed`] — no row storage, no TB-SRAM),
//! per-read best resolution happens on those distances, and only each
//! read's winner re-runs in full mode and walks traceback. Because the
//! phase-1 distance is a lower bound of the full windowed alignment's
//! edit distance, a bounded verification round makes the selection
//! provably identical to the **full** model, which aligns every
//! candidate with traceback storage.
//!
//! # The budget as a post-alignment certificate
//!
//! The filter keeps a candidate when the read occurs in its region
//! within the budget `k`. The batch path gets the same selection from
//! three facts: phase-1 bound ≤ occurrence distance ≤ realized
//! alignment distance. So a candidate whose bound exceeds `k` is one
//! the filter rejects, and is dropped; and a read whose best alignment
//! has at most `k` edits proves an occurrence within `k`, so that best
//! is a candidate the filter accepts and therefore the filter path's
//! answer too. Only a read whose best overshoots `k` — or whose
//! sequence or candidate windows hold a non-ACGT byte, where the
//! filter's symbol handling breaks the chain — falls back: the filter
//! runs over its candidates within the bound, and the read picks again
//! among the ones it accepts.

use crate::index::{PackedRef, ShardedIndex};
use crate::seed::{Candidate, SeedScratch, Seeder};
use genasm_baselines::gotoh::{GotohAligner, GotohMode};
use genasm_core::align::{GenAsmAligner, GenAsmConfig};
use genasm_core::alphabet::{Alphabet, Dna};
use genasm_core::bitap::{ScanMetrics, SCAN_LANES};
use genasm_core::cigar::Cigar;
use genasm_core::filter::PreAlignmentFilter;
use genasm_core::scoring::Scoring;
use genasm_engine::{
    CancelToken, DcDispatch, DistanceJob, Engine, EngineConfig, GotohKernel, Job, JobError,
    KeyedResult, LaneCount,
};
use genasm_obs::{SpanBuffer, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the per-read end-to-end latency histogram the mapper
/// records (microseconds). The sequential path records each read's
/// true wall time; the batch path records the batch wall divided by
/// its read count — an amortized per-read figure, since batched reads
/// have no individual wall clock.
pub const READ_LATENCY_HISTOGRAM: &str = "map.read_latency_us";

/// Counter: reads the resilient batch path marked
/// [`ReadOutcome::Poisoned`] because a kernel panicked on one of their
/// candidates.
pub const READS_POISONED_COUNTER: &str = "map.reads_poisoned";

/// Counter: reads the resilient batch path marked
/// [`ReadOutcome::Incomplete`] because the engine's deadline expired
/// (or its token was cancelled) before they fully resolved.
pub const READS_DEADLINE_DROPPED_COUNTER: &str = "map.reads_deadline_dropped";

/// Which aligner the pipeline uses for step 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignerKind {
    /// The GenASM windowed aligner (DC + TB).
    #[default]
    GenAsm,
    /// The affine-gap DP baseline (BWA-MEM / Minimap2 stand-in).
    Gotoh,
}

/// Execution model of the batch pipeline's alignment step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignMode {
    /// Distance-first candidate resolution with deferred, batched
    /// traceback: every candidate runs the distance-only lock-step
    /// kernel, per-read best resolution happens on the
    /// distances, and only winners re-run in full (TB-storing) mode.
    /// Bit-identical to [`AlignMode::Full`]; traceback rows drop by
    /// roughly the candidate-to-winner ratio. Applies to the GenASM
    /// aligner (the Gotoh baseline has no distance-only mode and
    /// always runs single-phase).
    #[default]
    TwoPhase,
    /// Full TB-storing alignment of every candidate (the single-phase
    /// shape).
    Full,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Seed length for indexing and seeding.
    pub seed_len: usize,
    /// Seeding parameters.
    pub seeder: Seeder,
    /// Aligner selection.
    pub aligner: AlignerKind,
    /// Edit-distance budget as a fraction of read length: the filter
    /// threshold and post-alignment certificate `k`, and the
    /// candidate-region slack.
    pub error_fraction: f64,
    /// Scoring used when the aligner reports a score.
    pub scoring: Scoring,
    /// GenASM aligner configuration.
    pub genasm: GenAsmConfig,
    /// Whether to also try the reverse-complement strand of each read.
    pub both_strands: bool,
    /// Shard count of the reference index (`0` = automatic: host
    /// parallelism rounded to a power of two).
    pub index_shards: usize,
    /// Execution model of the batch alignment step (two-phase by
    /// default; mappings are bit-identical in both modes).
    pub align_mode: AlignMode,
}

impl Default for MapperConfig {
    /// Seed length 12, GenASM aligner, 15% error budget, BWA-MEM
    /// scoring.
    fn default() -> Self {
        MapperConfig {
            seed_len: 12,
            seeder: Seeder::default(),
            aligner: AlignerKind::GenAsm,
            error_fraction: 0.15,
            scoring: Scoring::bwa_mem(),
            genasm: GenAsmConfig::default(),
            both_strands: true,
            index_shards: 0,
            align_mode: AlignMode::default(),
        }
    }
}

/// A successful mapping of one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// Mapping position in the reference.
    pub position: usize,
    /// `true` when the read mapped on the reverse-complement strand.
    pub reverse: bool,
    /// The alignment transcript.
    pub cigar: Cigar,
    /// Edit distance of the alignment.
    pub edit_distance: usize,
    /// Affine score of the alignment under the configured scoring.
    pub score: i64,
}

/// Per-read outcome of the resilient batch path
/// ([`ReadMapper::map_batch_resilient`]): what the pipeline produced
/// for the read, or why it could not.
///
/// The fault variants carry precedence: a kernel panic on any of a
/// read's candidates makes the whole read [`Poisoned`](Self::Poisoned)
/// (its other candidates may have aligned, but the set is no longer
/// provably complete), and a deadline expiry makes it
/// [`Incomplete`](Self::Incomplete) with whatever mapping had resolved
/// by then.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The read mapped; the pipeline ran every stage for it.
    Mapped(Mapping),
    /// The pipeline ran every stage and found no mapping.
    Unmapped,
    /// A kernel panicked while aligning one of the read's candidates;
    /// the panic was contained to this read (its batch-mates are
    /// unaffected) and the read must be treated as unmapped.
    Poisoned {
        /// The panic payload, for diagnostics.
        message: String,
    },
    /// The engine's deadline expired (or its [`CancelToken`] fired)
    /// before the read fully resolved.
    Incomplete {
        /// The best mapping resolved before the cutoff, when any stage
        /// completed for this read. Not guaranteed to be the mapping a
        /// full run would select.
        partial: Option<Mapping>,
    },
}

impl ReadOutcome {
    /// The mapping, when the read fully resolved ([`Self::Mapped`]
    /// only — a partial mapping is not a resolved one).
    pub fn mapping(&self) -> Option<&Mapping> {
        match self {
            ReadOutcome::Mapped(m) => Some(m),
            _ => None,
        }
    }

    /// Collapses to the lossy `Option<Mapping>` shape of
    /// [`ReadMapper::map_batch_with_engine`]: the mapping for
    /// [`Self::Mapped`], the partial for [`Self::Incomplete`], `None`
    /// otherwise.
    pub fn into_mapping(self) -> Option<Mapping> {
        match self {
            ReadOutcome::Mapped(m) => Some(m),
            ReadOutcome::Incomplete { partial } => partial,
            _ => None,
        }
    }

    /// Whether the read hit a fault (panic or deadline) rather than
    /// resolving normally.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            ReadOutcome::Poisoned { .. } | ReadOutcome::Incomplete { .. }
        )
    }
}

/// Phase-1 distance jobs built and scanned per engine call (see
/// `resolve_two_phase`): each job owns a copy of its window and read,
/// so slicing caps that memory at a few hundred KiB per batch.
const DISTANCE_SLICE: usize = 1024;

/// Per-read fault state accumulated while a batch runs: which reads
/// were poisoned by a kernel panic and which were cut off by the
/// deadline. Poisoning wins over dropping when both happen.
#[derive(Debug)]
struct BatchFaults {
    poisoned: Vec<Option<String>>,
    dropped: Vec<bool>,
}

impl BatchFaults {
    fn new(reads: usize) -> Self {
        BatchFaults {
            poisoned: vec![None; reads],
            dropped: vec![false; reads],
        }
    }

    /// Marks `read` poisoned, keeping the first panic's message.
    fn poison(&mut self, read: usize, message: &str) {
        if self.poisoned[read].is_none() {
            self.poisoned[read] = Some(message.to_string());
        }
    }

    fn drop_deadline(&mut self, read: usize) {
        self.dropped[read] = true;
    }

    fn is_faulted(&self, read: usize) -> bool {
        self.poisoned[read].is_some() || self.dropped[read]
    }
}

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Seeding time.
    pub seeding: Duration,
    /// Pre-alignment filtering time: every candidate in the sequential
    /// path; only the fallback reads' candidates in the batch path.
    pub filtering: Duration,
    /// Phase-1 wall time: the distance-only candidate scans of the
    /// two-phase path. Zero in full mode and the sequential path.
    pub distance: Duration,
    /// Full-mode (TB-storing) alignment wall time: all of the align
    /// step in full mode; only the per-read winners' alignments (plus
    /// verification and fallback re-runs) in two-phase mode.
    pub traceback: Duration,
    /// Candidates examined, candidates kept. The sequential path keeps
    /// the filter's survivors; the batch path keeps the candidates
    /// whose phase-1 bound is within the budget (all of them in full
    /// mode and for reads outside the certificate's ACGT domain).
    pub candidates: (usize, usize),
    /// Lock-step DC lane-slots `(issued, useful)` reported by the
    /// alignment engine — zero in the sequential path and under scalar
    /// dispatch. See
    /// [`BatchStats::lane_occupancy`](genasm_engine::BatchStats::lane_occupancy).
    pub dc_rows: (u64, u64),
    /// Traceback volume `(windows walked, distance rows those walks
    /// had)` — the number two-phase execution shrinks by tracing only
    /// per-read winners.
    pub tb_rows: (u64, u64),
    /// Distance-only (phase-1) scans issued.
    pub distance_jobs: u64,
    /// Full-mode alignments issued (every candidate in full mode; the
    /// resolved winners plus verification and fallback re-runs in
    /// two-phase mode).
    pub traceback_jobs: u64,
    /// Filter-stage Bitap row-slots `(issued, useful)` from the
    /// pre-alignment scans ([`genasm_core::bitap::ScanMetrics`]): the
    /// same issued/useful convention as the align stage's `dc_rows`,
    /// so the filter's lane occupancy is a first-class, comparable
    /// figure. Reads over 64 bases scan on the multi-word fallback,
    /// whose exact recurrence-word volume counts as issued = useful
    /// (occupancy 1.0 — a scalar scan pads nothing). In the batch path
    /// only fallback reads issue filter rows.
    pub filter_rows: (u64, u64),
    /// Always 0: the filter cascade these counters described is gone.
    /// Kept, with the five fields below, so the benchmark harness that
    /// reads them compiles unchanged; they go when it stops reading
    /// them.
    pub tier0_rejects: u64,
    /// Always 0 (see [`tier0_rejects`](Self::tier0_rejects)).
    pub tier1_rejects: u64,
    /// Always 0 (see [`tier0_rejects`](Self::tier0_rejects)).
    pub cascade_accepts: u64,
    /// Always 0 (see [`tier0_rejects`](Self::tier0_rejects)).
    pub cascade_fallbacks: u64,
    /// Always 0 (see [`tier0_rejects`](Self::tier0_rejects)).
    pub bound_reuse_hits: u64,
    /// Always 0 (see [`tier0_rejects`](Self::tier0_rejects)).
    pub tier0_probes: u64,
}

impl StageTimings {
    /// Sum of all stage times.
    pub fn total(&self) -> Duration {
        self.seeding + self.filtering + self.distance + self.traceback
    }

    /// The whole alignment step's wall time: distance plus traceback
    /// phases (the pre-split `alignment` bucket).
    pub fn align_total(&self) -> Duration {
        self.distance + self.traceback
    }

    /// Fraction of examined candidates not kept (0 when no candidate
    /// was examined).
    pub fn reject_rate(&self) -> f64 {
        if self.candidates.0 == 0 {
            0.0
        } else {
            1.0 - self.candidates.1 as f64 / self.candidates.0 as f64
        }
    }

    /// Lock-step lane occupancy of the alignment stage: useful DC
    /// row-slots over issued, `None` when no lock-step rows ran.
    pub fn lane_occupancy(&self) -> Option<f64> {
        genasm_engine::lane_occupancy_ratio(self.dc_rows.0, self.dc_rows.1)
    }

    /// Lane occupancy of the pre-alignment filter stage: useful
    /// row-slots over issued, `None` when no filter rows ran. Exactly
    /// 1.0 when every pair scanned on the pad-free multi-word
    /// fallback.
    pub fn filter_occupancy(&self) -> Option<f64> {
        genasm_engine::lane_occupancy_ratio(self.filter_rows.0, self.filter_rows.1)
    }

    /// Accumulates another read's timings.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.seeding += other.seeding;
        self.filtering += other.filtering;
        self.distance += other.distance;
        self.traceback += other.traceback;
        self.candidates.0 += other.candidates.0;
        self.candidates.1 += other.candidates.1;
        self.dc_rows.0 += other.dc_rows.0;
        self.dc_rows.1 += other.dc_rows.1;
        self.tb_rows.0 += other.tb_rows.0;
        self.tb_rows.1 += other.tb_rows.1;
        self.distance_jobs += other.distance_jobs;
        self.traceback_jobs += other.traceback_jobs;
        self.filter_rows.0 += other.filter_rows.0;
        self.filter_rows.1 += other.filter_rows.1;
    }
}

/// One oriented read after the batch path's seed stage: its
/// sequence, error budget and candidate positions (in seeder order),
/// and whether the read and every candidate window are pure ACGT — the
/// domain where the post-alignment certificate holds.
struct Seeded {
    read: usize,
    reverse: bool,
    seq: Vec<u8>,
    budget: usize,
    positions: Vec<usize>,
    acgt: bool,
}

/// One candidate in the batch path's flat candidate table: the
/// coordinates both alignment phases, the resolution and the fallback
/// need. Engine job keys are indices into this table.
struct Cand<'a> {
    read: usize,
    reverse: bool,
    pos: usize,
    seq: &'a [u8],
    budget: usize,
}

/// Reusable seeding buffers, threaded alongside [`SeedScratch`]
/// through every per-read call so the hot loop performs no per-read
/// allocations beyond its output.
#[derive(Debug, Default)]
struct CandidateScratch {
    /// Raw seeder output of the current oriented read.
    raw: Vec<Candidate>,
    /// Clamped candidate positions of the current oriented read.
    positions: Vec<usize>,
}

/// Folds one engine batch's lane and traceback accounting into the
/// pipeline timings.
fn absorb_engine_stats(timings: &mut StageTimings, stats: &genasm_engine::BatchStats) {
    timings.dc_rows.0 += stats.dc_rows_issued;
    timings.dc_rows.1 += stats.dc_rows_useful;
    timings.tb_rows.0 += stats.tb_windows;
    timings.tb_rows.1 += stats.tb_rows;
}

/// The read mapper.
///
/// # Examples
///
/// ```
/// use genasm_mapper::pipeline::{MapperConfig, ReadMapper};
/// use genasm_seq::genome::GenomeBuilder;
///
/// let genome = GenomeBuilder::new(20_000).seed(3).build();
/// let mapper = ReadMapper::build(genome.sequence(), MapperConfig::default());
/// let read = genome.region(5_000, 5_150).to_vec();
/// let (mapping, _timings) = mapper.map_read(&read);
/// let mapping = mapping.expect("exact read must map");
/// assert!(mapping.position.abs_diff(5_000) <= 16);
/// assert_eq!(mapping.edit_distance, 0);
/// ```
#[derive(Debug, Clone)]
pub struct ReadMapper {
    reference: Vec<u8>,
    index: ShardedIndex,
    /// 2-bit packed copy of the reference whose validity bitmap tells
    /// which candidate windows are pure ACGT (the index builds and
    /// drops its own packing, so the mapper retains one).
    packed: PackedRef,
    config: MapperConfig,
    telemetry: Telemetry,
}

impl ReadMapper {
    /// Indexes `reference` (sharded per `config.index_shards`) and
    /// prepares the pipeline.
    pub fn build(reference: &[u8], config: MapperConfig) -> Self {
        let index =
            ShardedIndex::build_with_shards(reference, config.seed_len, config.index_shards);
        ReadMapper {
            reference: reference.to_vec(),
            index,
            packed: PackedRef::pack(reference),
            config,
            telemetry: Telemetry::default(),
        }
    }

    /// Attaches a telemetry handle: the pipeline records per-read
    /// end-to-end latencies into [`READ_LATENCY_HISTOGRAM`] and emits
    /// stage spans — the coordinator (trace tid 0) marks
    /// seeding/distance/resolve/traceback/verify (plus filter/fallback
    /// when a read falls back to the filter), the batch seed workers
    /// (tids `100 + worker`) mark each oriented read's seed work. Share the same handle with the engine
    /// ([`Engine::with_telemetry`](genasm_engine::Engine::with_telemetry))
    /// to interleave the engine workers' claim/dc/tb/drain spans in
    /// one trace. The default handle is fully disabled and costs one
    /// atomic load per batch.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The mapper's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// The underlying index.
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// An [`Engine`] whose kernel matches the configured aligner: the
    /// GenASM kernel under `dispatch` for [`AlignerKind::GenAsm`], the
    /// Gotoh kernel under the configured scoring for
    /// [`AlignerKind::Gotoh`] (where `dispatch` is ignored). Use this
    /// to drive [`map_batch_with_engine`](Self::map_batch_with_engine)
    /// so the batch path aligns with exactly the aligner the
    /// sequential path would use.
    pub fn engine(&self, workers: usize, dispatch: DcDispatch) -> Engine {
        self.engine_with_lanes(workers, dispatch, LaneCount::default())
    }

    /// [`engine`](Self::engine) with an explicit lock-step lane width
    /// (the CLI's `--lanes` flag).
    pub fn engine_with_lanes(
        &self,
        workers: usize,
        dispatch: DcDispatch,
        lanes: LaneCount,
    ) -> Engine {
        let config = EngineConfig::default()
            .with_workers(workers)
            .with_genasm(self.config.genasm.clone())
            .with_dispatch(dispatch)
            .with_lanes(lanes);
        match self.config.aligner {
            AlignerKind::GenAsm => Engine::new(config),
            AlignerKind::Gotoh => {
                Engine::with_kernel(config, Arc::new(GotohKernel::new(self.config.scoring)))
            }
        }
    }

    /// Maps one read: seeding, filtering, then alignment of surviving
    /// candidates — on the forward strand and, when configured, on the
    /// reverse-complement strand. Returns the best mapping (lowest
    /// edit distance, ties broken by forward strand then position) and
    /// per-stage timings.
    pub fn map_read(&self, read: &[u8]) -> (Option<Mapping>, StageTimings) {
        let started = self.telemetry.metrics.is_enabled().then(Instant::now);
        let result = self.map_read_inner(read);
        if let Some(t0) = started {
            // Sequential mapping has a true per-read wall clock; record
            // it end to end (seeding through traceback, both strands).
            self.telemetry
                .metrics
                .histogram(READ_LATENCY_HISTOGRAM)
                .record_duration(t0.elapsed());
        }
        result
    }

    /// [`map_read`](Self::map_read) minus the telemetry wrapper.
    fn map_read_inner(&self, read: &[u8]) -> (Option<Mapping>, StageTimings) {
        let mut spans = self
            .telemetry
            .tracer
            .is_enabled()
            .then(|| self.telemetry.tracer.buffer(0));
        let (forward, mut timings) = self.map_oriented(read, false, &mut spans);
        if !self.config.both_strands {
            return (forward, timings);
        }
        let rc = reverse_complement(read);
        let (backward, rc_timings) = self.map_oriented(&rc, true, &mut spans);
        timings.accumulate(&rc_timings);
        let best = match (forward, backward) {
            (None, b) => b,
            (f, None) => f,
            (Some(f), Some(b)) => {
                if (b.edit_distance, 1, b.position) < (f.edit_distance, 0, f.position) {
                    Some(b)
                } else {
                    Some(f)
                }
            }
        };
        (best, timings)
    }

    /// Maps one read orientation (the read as given, labelled with
    /// `reverse`).
    fn map_oriented(
        &self,
        read: &[u8],
        reverse: bool,
        spans: &mut Option<SpanBuffer>,
    ) -> (Option<Mapping>, StageTimings) {
        let mut timings = StageTimings::default();
        let k = self.error_budget(read);
        let mut scratch = SeedScratch::default();
        let mut cscratch = CandidateScratch::default();
        let surviving =
            self.seed_and_filter(read, k, &mut timings, &mut scratch, &mut cscratch, spans);

        let t2 = Instant::now();
        if let Some(s) = spans.as_mut() {
            s.begin("traceback");
        }
        let mut best: Option<Mapping> = None;
        for pos in surviving {
            let region = self.region(pos, read.len(), k);
            let mapping = match self.config.aligner {
                AlignerKind::GenAsm => {
                    let aligner = GenAsmAligner::new(self.config.genasm.clone());
                    match aligner.align_with_stats(region, read) {
                        Ok((a, stats)) => {
                            timings.tb_rows.0 += stats.windows as u64;
                            timings.tb_rows.1 += stats.tb_rows as u64;
                            timings.traceback_jobs += 1;
                            Mapping {
                                position: pos,
                                reverse,
                                score: self.config.scoring.score_cigar(&a.cigar),
                                edit_distance: a.edit_distance,
                                cigar: a.cigar,
                            }
                        }
                        Err(_) => continue,
                    }
                }
                AlignerKind::Gotoh => {
                    let aligner = GotohAligner::new(self.config.scoring, GotohMode::TextSuffixFree);
                    let a = aligner.align(region, read);
                    timings.traceback_jobs += 1;
                    Mapping {
                        position: pos,
                        reverse,
                        score: a.score,
                        edit_distance: a.cigar.edit_distance(),
                        cigar: a.cigar,
                    }
                }
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    (mapping.edit_distance, mapping.position) < (b.edit_distance, b.position)
                }
            };
            if better {
                best = Some(mapping);
            }
        }
        if let Some(s) = spans.as_mut() {
            s.end("traceback");
        }
        timings.traceback = t2.elapsed();
        (best, timings)
    }

    /// Maps a batch of reads, accumulating stage timings.
    pub fn map_batch<'a, I>(&self, reads: I) -> (Vec<Option<Mapping>>, StageTimings)
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut total = StageTimings::default();
        let mut mappings = Vec::new();
        for read in reads {
            let (mapping, timings) = self.map_read(read);
            total.accumulate(&timings);
            mappings.push(mapping);
        }
        (mappings, total)
    }

    /// Batch mode: maps many reads through explicit stages instead of
    /// recursing read by read.
    ///
    /// 1. **Seed** — the batch's reads are sharded across the engine's
    ///    worker count: each worker seeds a read (and, when configured,
    ///    its reverse complement) against the sharded index — lookups
    ///    are read-only over flat arrays. Each read's candidate list is
    ///    produced wholly by one worker and merged in read order, so
    ///    results are deterministic and identical at any worker count.
    /// 2. **Distance** (two-phase mode) — contested reads' candidates
    ///    become key-tagged [`DistanceJob`]s and run the engine's
    ///    distance-only machinery ([`Engine::distance_batch_keyed`]):
    ///    no row storage, no TB-SRAM. Uncontested reads (a single
    ///    candidate) skip the scan entirely — with one candidate there
    ///    is nothing to resolve. A candidate whose bound exceeds the
    ///    budget drops out here: the filter would reject it.
    /// 3. **Resolve** — per-read best resolution happens on the
    ///    distances, *before* any traceback, with deterministic
    ///    tie-breaking identical to the full path's ordering (lowest
    ///    edit distance, forward strand preferred, then lowest
    ///    position). Ties are kept: every candidate achieving its
    ///    read's minimum advances.
    /// 4. **Traceback** — only the resolved winners re-run in full
    ///    (TB-storing) mode through
    ///    [`Engine::align_batch_keyed_with_stats`] and walk traceback.
    ///    Because each phase-1 distance is a *lower bound* of the full
    ///    windowed alignment's edit distance, one bounded verification
    ///    round — re-aligning any candidate whose bound still permits
    ///    beating the winners' realized distances, normally none —
    ///    makes the selection provably identical to aligning every
    ///    candidate within the budget.
    /// 5. **Fallback** — a read whose best alignment overshoots the
    ///    budget, or whose sequence or candidate windows hold a
    ///    non-ACGT byte, runs the pre-alignment filter over its
    ///    candidates within the bound, aligns the ones it accepts and
    ///    picks again among them (see the [module docs](self)).
    ///
    /// In [`AlignMode::Full`] (and for the Gotoh aligner, which has no
    /// distance-only mode) stages 2–4 collapse into the single-phase
    /// shape: every candidate aligns in full mode and resolution runs
    /// on the complete results. Stage 5 runs unchanged.
    ///
    /// With an engine from [`Self::engine`] the selected mappings are
    /// bit-identical to [`map_read`](Self::map_read)'s for every
    /// aligner and align-mode combination. [`StageTimings`] reports
    /// each stage's batch wall-clock time — `filtering` is the
    /// fallback's filter time, and the align step's wall splits into
    /// `distance` and `traceback` — plus the traceback volume
    /// (`tb_rows`) each mode issued.
    pub fn map_batch_with_engine(
        &self,
        reads: &[&[u8]],
        engine: &Engine,
    ) -> (Vec<Option<Mapping>>, StageTimings) {
        let (outcomes, timings) = self.map_batch_resilient(reads, engine);
        let mappings = outcomes
            .into_iter()
            .map(ReadOutcome::into_mapping)
            .collect();
        (mappings, timings)
    }

    /// The fault-tolerant batch path: identical stages and mappings to
    /// [`map_batch_with_engine`](Self::map_batch_with_engine), but each
    /// read resolves to a [`ReadOutcome`] instead of a bare
    /// `Option<Mapping>`, so faults are reportable per read instead of
    /// silently reading as "unmapped":
    ///
    /// * a kernel panic on any candidate is contained by the engine to
    ///   that job and surfaces here as [`ReadOutcome::Poisoned`] on the
    ///   owning read — every other read's outcome is bit-identical to
    ///   a fault-free run;
    /// * when the engine's [`CancelToken`] (see
    ///   [`EngineConfig::with_deadline`]) expires mid-batch, the batch
    ///   returns early with [`ReadOutcome::Incomplete`] for the reads
    ///   that had not fully resolved — carrying any partial mapping —
    ///   instead of blocking past its budget. The seed stage checks
    ///   the token at read-claim boundaries, the engine at chunk-claim
    ///   boundaries; neither pays a per-base cost.
    ///
    /// Faulted reads are counted into [`READS_POISONED_COUNTER`] and
    /// [`READS_DEADLINE_DROPPED_COUNTER`] when telemetry is enabled.
    pub fn map_batch_resilient(
        &self,
        reads: &[&[u8]],
        engine: &Engine,
    ) -> (Vec<ReadOutcome>, StageTimings) {
        let started = (self.telemetry.metrics.is_enabled() && !reads.is_empty()).then(Instant::now);
        let out = self.map_batch_engine_inner(reads, engine);
        if let Some(t0) = started {
            // Batched reads have no individual wall clock; record the
            // batch wall divided by the read count once per read (the
            // amortized figure READ_LATENCY_HISTOGRAM documents).
            let hist = self.telemetry.metrics.histogram(READ_LATENCY_HISTOGRAM);
            let per_read = t0.elapsed().div_f64(reads.len() as f64);
            for _ in reads {
                hist.record_duration(per_read);
            }
        }
        out
    }

    /// [`map_batch_with_engine`](Self::map_batch_with_engine) minus
    /// the telemetry wrapper.
    fn map_batch_engine_inner(
        &self,
        reads: &[&[u8]],
        engine: &Engine,
    ) -> (Vec<ReadOutcome>, StageTimings) {
        let mut timings = StageTimings::default();
        let mut faults = BatchFaults::new(reads.len());
        let cancel = engine.config().cancel.clone();
        // Coordinator stage spans trace as tid 0.
        let mut coord = self
            .telemetry
            .tracer
            .is_enabled()
            .then(|| self.telemetry.tracer.buffer(0));

        // Stage 1 — seed every read, sharded across the engine's
        // workers. The cancel token is checked at read-claim
        // boundaries: reads not yet claimed when it expires stay
        // unseeded and resolve to `Incomplete`.
        let t0 = Instant::now();
        if let Some(c) = coord.as_mut() {
            c.begin("seeding");
        }
        let workers = engine.config().effective_workers(reads.len().max(1));
        let (seeded, seeded_ok) = if workers <= 1 || reads.len() <= 1 {
            let mut scratch = SeedScratch::default();
            let mut cscratch = CandidateScratch::default();
            let mut seeded = Vec::new();
            let mut ok = vec![false; reads.len()];
            for (idx, read) in reads.iter().enumerate() {
                if cancel.as_ref().is_some_and(CancelToken::expired) {
                    break;
                }
                seeded.extend(self.seed_read(idx, read, &mut scratch, &mut cscratch, &mut coord));
                ok[idx] = true;
            }
            (seeded, ok)
        } else {
            self.seed_parallel(reads, workers, cancel.as_ref())
        };
        for (idx, &ok) in seeded_ok.iter().enumerate() {
            if !ok {
                faults.drop_deadline(idx);
            }
        }
        if let Some(c) = coord.as_mut() {
            c.end("seeding");
        }
        timings.seeding = t0.elapsed();

        // Flatten the candidates into one table; engine keys are plain
        // candidate indices, so results route back without a side
        // table. Only reads inside the certificate's ACGT domain are
        // resolved by alignment; the rest go straight to the fallback.
        let cands: Vec<Cand<'_>> = seeded
            .iter()
            .flat_map(|s| {
                s.positions.iter().map(|&pos| Cand {
                    read: s.read,
                    reverse: s.reverse,
                    pos,
                    seq: &s.seq,
                    budget: s.budget,
                })
            })
            .collect();
        let mut acgt = vec![true; reads.len()];
        for s in &seeded {
            acgt[s.read] &= s.acgt;
        }
        let live: Vec<usize> = (0..cands.len())
            .filter(|&idx| acgt[cands[idx].read])
            .collect();
        let mut best: Vec<Option<Mapping>> = vec![None; reads.len()];

        // Each candidate's certified lower bound of its alignment's
        // edit distance; 0 wherever no scan ran.
        let two_phase = self.config.align_mode == AlignMode::TwoPhase
            && self.config.aligner == AlignerKind::GenAsm;
        let bound = if two_phase {
            self.resolve_two_phase(
                &cands,
                &live,
                engine,
                &mut timings,
                &mut coord,
                &mut best,
                &mut faults,
            )
        } else {
            // Single-phase: align every candidate in full mode.
            let keyed =
                self.align_stage(engine, &cands, live, "traceback", &mut timings, &mut coord);
            self.fold_keyed(&cands, keyed, &mut best, &mut faults);
            vec![0; cands.len()]
        };
        timings.candidates = (
            cands.len(),
            (0..cands.len())
                .filter(|&idx| bound[idx] <= cands[idx].budget)
                .count(),
        );

        // Stage 5 — fallback: the filter decides, among the candidates
        // within the bound, for every read the certificate does not
        // cover. Faulted reads are left as they are.
        let fallback: Vec<bool> = (0..reads.len())
            .map(|read| {
                !faults.is_faulted(read)
                    && (!acgt[read]
                        || best[read]
                            .as_ref()
                            .is_some_and(|m| m.edit_distance > self.error_budget(reads[read])))
            })
            .collect();
        for (slot, &redo) in best.iter_mut().zip(&fallback) {
            if redo {
                *slot = None;
            }
        }
        let pending: Vec<usize> = (0..cands.len())
            .filter(|&idx| fallback[cands[idx].read] && bound[idx] <= cands[idx].budget)
            .collect();
        if !pending.is_empty() {
            let t = Instant::now();
            if let Some(c) = coord.as_mut() {
                c.begin("filter");
            }
            let mut rows = ScanMetrics::default();
            let mut accepted = Vec::new();
            // Candidates of one oriented read are contiguous and share
            // its pattern and budget.
            for group in pending.chunk_by(|&a, &b| {
                cands[a].read == cands[b].read && cands[a].reverse == cands[b].reverse
            }) {
                let c = &cands[group[0]];
                let positions: Vec<usize> = group.iter().map(|&idx| cands[idx].pos).collect();
                let keep = self.filter_keeps(c.seq, c.budget, &positions, &mut rows);
                accepted.extend(
                    group
                        .iter()
                        .zip(keep)
                        .filter_map(|(&idx, k)| k.then_some(idx)),
                );
            }
            if let Some(c) = coord.as_mut() {
                c.end("filter");
            }
            timings.filtering = t.elapsed();
            timings.filter_rows = (rows.rows_issued, rows.rows_useful);
            let keyed = self.align_stage(
                engine,
                &cands,
                accepted,
                "fallback",
                &mut timings,
                &mut coord,
            );
            self.fold_keyed(&cands, keyed, &mut best, &mut faults);
        }
        (self.assemble_outcomes(best, faults), timings)
    }

    /// Stages 2–4 of the two-phase path over the `live` candidates:
    /// phase-1 distances, per-read resolution, traceback of the winners
    /// and the verification round, folded into the per-read `best`
    /// mappings and `faults`. Returns every candidate's bound (0 where
    /// no scan ran).
    #[allow(clippy::too_many_arguments)]
    fn resolve_two_phase(
        &self,
        cands: &[Cand<'_>],
        live: &[usize],
        engine: &Engine,
        timings: &mut StageTimings,
        coord: &mut Option<SpanBuffer>,
        best: &mut [Option<Mapping>],
        faults: &mut BatchFaults,
    ) -> Vec<usize> {
        // Stage 2 — distance-only scans (phase 1). Only contested
        // reads need them: a read with a single candidate has no
        // resolution to run, so its candidate goes straight to
        // traceback (bound 0, trivially a lower bound).
        let mut bound = vec![0usize; cands.len()];
        let mut cand_count = vec![0usize; best.len()];
        for &idx in live {
            cand_count[cands[idx].read] += 1;
        }
        let contested: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&idx| cand_count[cands[idx].read] > 1)
            .collect();
        // Phase-1 jobs own copies of their window and read, so they are
        // built and scanned a slice at a time to bound that memory.
        for slice in contested.chunks(DISTANCE_SLICE) {
            let djobs: Vec<DistanceJob> = slice
                .iter()
                .map(|&idx| {
                    let c = &cands[idx];
                    DistanceJob::new(self.region(c.pos, c.seq.len(), c.budget), c.seq, c.budget)
                        .with_key(idx as u64)
                })
                .collect();
            // Time only the engine call, as in full mode: the serial
            // job copies must not dilute the stage's multi-worker
            // shrinkage.
            let t2 = Instant::now();
            if let Some(c) = coord.as_mut() {
                c.begin("distance");
            }
            let (distances, dstats) = engine.distance_batch_keyed(&djobs);
            if let Some(c) = coord.as_mut() {
                c.end("distance");
            }
            timings.distance += t2.elapsed();
            timings.distance_jobs += djobs.len() as u64;
            absorb_engine_stats(timings, &dstats);
            // The scanned distance, `k + 1` when the scan exhausted its
            // budget, and 0 (align unconditionally) when the scan
            // failed. A panicked or cancelled scan additionally faults
            // its read.
            for kd in &distances {
                let idx = kd.key as usize;
                bound[idx] = match &kd.result {
                    Ok(Some(d)) => *d,
                    Ok(None) => cands[idx].budget + 1,
                    Err(JobError::Panicked { message }) => {
                        faults.poison(cands[idx].read, message);
                        0
                    }
                    Err(JobError::Cancelled) => {
                        faults.drop_deadline(cands[idx].read);
                        0
                    }
                    Err(JobError::Align(_)) => 0,
                };
            }
        }

        // Stage 3 — per-read best resolution on the bounds. A bound
        // past the budget certifies no occurrence within it, so the
        // candidate is out. Faulted reads' candidates are dropped too:
        // a poisoned read is no longer provably resolvable and a
        // deadline-dropped one would only be cancelled again, so
        // neither spends traceback work.
        if let Some(c) = coord.as_mut() {
            c.begin("resolve");
        }
        let contending: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&idx| bound[idx] <= cands[idx].budget && !faults.is_faulted(cands[idx].read))
            .collect();
        let mut min_bound = vec![usize::MAX; best.len()];
        for &idx in &contending {
            let read = cands[idx].read;
            min_bound[read] = min_bound[read].min(bound[idx]);
        }
        let (winners, rest): (Vec<usize>, Vec<usize>) = contending
            .into_iter()
            .partition(|&idx| bound[idx] == min_bound[cands[idx].read]);
        if let Some(c) = coord.as_mut() {
            c.end("resolve");
        }

        // Stage 4 — traceback: full-mode alignment of the winners
        // only.
        let keyed = self.align_stage(engine, cands, winners, "traceback", timings, coord);
        self.fold_keyed(cands, keyed, best, faults);

        // Verification round: a winner's realized distance can exceed
        // its bound (the windowed walk is a heuristic), so re-align any
        // candidate whose lower bound still permits beating — or
        // tying — the realized best. Unaligned candidates then satisfy
        // `E(c) >= bound(c) > realized best`, which proves the
        // selection identical to aligning every candidate. On
        // realistic workloads bounds are exact and this round is empty.
        let verify: Vec<usize> = rest
            .into_iter()
            .filter(|&idx| {
                let read = cands[idx].read;
                !faults.is_faulted(read)
                    && bound[idx] <= best[read].as_ref().map_or(usize::MAX, |b| b.edit_distance)
            })
            .collect();
        let keyed = self.align_stage(engine, cands, verify, "verify", timings, coord);
        self.fold_keyed(cands, keyed, best, faults);
        bound
    }

    /// Aligns the given candidates in full mode on `engine` under the
    /// coordinator span `span`, charging the engine call's wall time
    /// and volume to the traceback stage. Only the engine call is
    /// timed, as `map_read` times only the aligner: the serial job
    /// copies must not dilute the multi-worker shrinkage of the stage
    /// wall.
    fn align_stage(
        &self,
        engine: &Engine,
        cands: &[Cand<'_>],
        indices: Vec<usize>,
        span: &'static str,
        timings: &mut StageTimings,
        coord: &mut Option<SpanBuffer>,
    ) -> Vec<KeyedResult> {
        if indices.is_empty() {
            return Vec::new();
        }
        let jobs = self.full_jobs(cands, indices);
        let t = Instant::now();
        if let Some(c) = coord.as_mut() {
            c.begin(span);
        }
        let (keyed, stats) = engine.align_batch_keyed_with_stats(&jobs);
        if let Some(c) = coord.as_mut() {
            c.end(span);
        }
        timings.traceback += t.elapsed();
        timings.traceback_jobs += jobs.len() as u64;
        absorb_engine_stats(timings, &stats);
        keyed
    }

    /// Folds the per-read mappings and fault state into final
    /// [`ReadOutcome`]s (poisoning wins over deadline-dropping) and
    /// bumps the fault counters when telemetry is enabled.
    fn assemble_outcomes(
        &self,
        best: Vec<Option<Mapping>>,
        faults: BatchFaults,
    ) -> Vec<ReadOutcome> {
        let mut poisoned = 0u64;
        let mut dropped = 0u64;
        let outcomes: Vec<ReadOutcome> = best
            .into_iter()
            .zip(faults.poisoned)
            .zip(faults.dropped)
            .map(|((mapping, poison), drop)| match (poison, drop) {
                (Some(message), _) => {
                    poisoned += 1;
                    ReadOutcome::Poisoned { message }
                }
                (None, true) => {
                    dropped += 1;
                    ReadOutcome::Incomplete { partial: mapping }
                }
                (None, false) => match mapping {
                    Some(m) => ReadOutcome::Mapped(m),
                    None => ReadOutcome::Unmapped,
                },
            })
            .collect();
        if self.telemetry.metrics.is_enabled() {
            if poisoned > 0 {
                self.telemetry
                    .metrics
                    .counter(READS_POISONED_COUNTER)
                    .add(poisoned);
            }
            if dropped > 0 {
                self.telemetry
                    .metrics
                    .counter(READS_DEADLINE_DROPPED_COUNTER)
                    .add(dropped);
            }
        }
        outcomes
    }

    /// Full-mode engine jobs for the given candidate indices, keyed by
    /// candidate index.
    fn full_jobs(&self, cands: &[Cand<'_>], indices: Vec<usize>) -> Vec<Job> {
        indices
            .into_iter()
            .map(|idx| {
                let c = &cands[idx];
                Job::new(self.region(c.pos, c.seq.len(), c.budget), c.seq).with_key(idx as u64)
            })
            .collect()
    }

    /// Folds keyed full-alignment results into the per-read best
    /// mappings with the sequential path's tie-breaking (lowest edit
    /// distance, forward strand preferred, then lowest position).
    /// Per-job alignment failures are skipped, exactly as `map_read`
    /// skips them; panicked jobs poison their read and cancelled jobs
    /// mark it deadline-dropped.
    fn fold_keyed(
        &self,
        cands: &[Cand<'_>],
        keyed: Vec<KeyedResult>,
        best: &mut [Option<Mapping>],
        faults: &mut BatchFaults,
    ) {
        for KeyedResult { key, result } in keyed {
            let c = &cands[key as usize];
            let alignment = match result {
                Ok(alignment) => alignment,
                Err(JobError::Panicked { message }) => {
                    faults.poison(c.read, &message);
                    continue;
                }
                Err(JobError::Cancelled) => {
                    faults.drop_deadline(c.read);
                    continue;
                }
                Err(JobError::Align(_)) => continue,
            };
            let mapping = Mapping {
                position: c.pos,
                reverse: c.reverse,
                score: self.config.scoring.score_cigar(&alignment.cigar),
                edit_distance: alignment.edit_distance,
                cigar: alignment.cigar,
            };
            let key = (
                mapping.edit_distance,
                usize::from(mapping.reverse),
                mapping.position,
            );
            let better = match &best[c.read] {
                None => true,
                Some(b) => key < (b.edit_distance, usize::from(b.reverse), b.position),
            };
            if better {
                best[c.read] = Some(mapping);
            }
        }
    }

    /// The edit-distance budget `k` for one oriented read.
    fn error_budget(&self, seq: &[u8]) -> usize {
        (seq.len() as f64 * self.config.error_fraction).ceil() as usize
    }

    /// Stage 1 for one read of a batch: both orientations seeded, with
    /// candidate work shared with the sequential path via
    /// [`clamped_candidates`](Self::clamped_candidates) so the two
    /// shapes can never diverge.
    fn seed_read(
        &self,
        read_idx: usize,
        read: &[u8],
        scratch: &mut SeedScratch,
        cscratch: &mut CandidateScratch,
        spans: &mut Option<SpanBuffer>,
    ) -> Vec<Seeded> {
        let mut out = Vec::with_capacity(1 + usize::from(self.config.both_strands));
        let mut oriented: Vec<(Vec<u8>, bool)> = vec![(read.to_vec(), false)];
        if self.config.both_strands {
            oriented.push((reverse_complement(read), true));
        }
        for (seq, reverse) in oriented {
            if let Some(s) = spans.as_mut() {
                s.begin("seed");
            }
            let budget = self.error_budget(&seq);
            self.clamped_candidates(&seq, scratch, cscratch);
            let acgt = seq.iter().all(|&b| Dna::index(b).is_some())
                && cscratch
                    .positions
                    .iter()
                    .all(|&pos| self.packed.is_acgt(pos, seq.len() + budget));
            if let Some(s) = spans.as_mut() {
                s.end("seed");
            }
            out.push(Seeded {
                read: read_idx,
                reverse,
                positions: cscratch.positions.clone(),
                seq,
                budget,
                acgt,
            });
        }
        out
    }

    /// The batch seed stage sharded across `workers` scoped threads.
    /// Reads are claimed from an atomic cursor; each read is processed
    /// wholly by one worker and the per-read outputs are merged back in
    /// read order, so the result is identical at any worker count. The
    /// cancel token is checked at each read claim: workers stop
    /// claiming once it expires, leaving the remaining reads unseeded.
    /// Returns the seeded reads and a per-read flag of which reads were
    /// seeded.
    fn seed_parallel(
        &self,
        reads: &[&[u8]],
        workers: usize,
        cancel: Option<&CancelToken>,
    ) -> (Vec<Seeded>, Vec<bool>) {
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<Vec<Seeded>>> = Vec::new();
        slots.resize_with(reads.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let cursor = &cursor;
                    let tracer = &self.telemetry.tracer;
                    scope.spawn(move || {
                        // Seed workers trace in their own tid namespace
                        // (100 + worker), clear of the coordinator (0)
                        // and the engine workers (1 + worker).
                        let mut spans = tracer
                            .is_enabled()
                            .then(|| tracer.buffer(100 + worker as u32));
                        let mut scratch = SeedScratch::default();
                        let mut cscratch = CandidateScratch::default();
                        let mut produced: Vec<(usize, Vec<Seeded>)> = Vec::new();
                        loop {
                            if cancel.is_some_and(CancelToken::expired) {
                                break;
                            }
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= reads.len() {
                                break;
                            }
                            produced.push((
                                idx,
                                self.seed_read(
                                    idx,
                                    reads[idx],
                                    &mut scratch,
                                    &mut cscratch,
                                    &mut spans,
                                ),
                            ));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                for (idx, seeded) in handle.join().expect("seed worker panicked") {
                    slots[idx] = Some(seeded);
                }
            }
        });
        let mut seeded_ok = vec![false; reads.len()];
        let mut seeded = Vec::new();
        for (idx, slot) in slots.into_iter().enumerate() {
            if let Some(s) = slot {
                seeded_ok[idx] = true;
                seeded.extend(s);
            }
        }
        (seeded, seeded_ok)
    }

    /// Pipeline steps 1–2 of the sequential path for one oriented read:
    /// seeding, then the GenASM-DC pre-alignment filter. Returns the
    /// surviving candidate positions (clamped into the reference) and
    /// accumulates stage timings and candidate counters.
    fn seed_and_filter(
        &self,
        seq: &[u8],
        k: usize,
        timings: &mut StageTimings,
        scratch: &mut SeedScratch,
        cscratch: &mut CandidateScratch,
        spans: &mut Option<SpanBuffer>,
    ) -> Vec<usize> {
        let t0 = Instant::now();
        if let Some(s) = spans.as_mut() {
            s.begin("seed");
        }
        self.clamped_candidates(seq, scratch, cscratch);
        if let Some(s) = spans.as_mut() {
            s.end("seed");
        }
        timings.seeding += t0.elapsed();
        timings.candidates.0 += cscratch.positions.len();

        let t1 = Instant::now();
        if let Some(s) = spans.as_mut() {
            s.begin("filter");
        }
        let mut rows = ScanMetrics::default();
        let keep = self.filter_keeps(seq, k, &cscratch.positions, &mut rows);
        let surviving: Vec<usize> = cscratch
            .positions
            .iter()
            .zip(keep)
            .filter_map(|(&pos, k)| k.then_some(pos))
            .collect();
        if let Some(s) = spans.as_mut() {
            s.end("filter");
        }
        timings.filtering += t1.elapsed();
        timings.filter_rows.0 += rows.rows_issued;
        timings.filter_rows.1 += rows.rows_useful;
        timings.candidates.1 += surviving.len();
        surviving
    }

    /// The GenASM-DC pre-alignment filter over one oriented read's
    /// candidate positions: one keep flag per position. Candidates
    /// stream through in stack groups of [`SCAN_LANES`] — the batch
    /// kernel's own grouping, since all of a read's pairs share its
    /// pattern and are therefore uniformly lock-step-eligible or
    /// uniformly scalar.
    fn filter_keeps(
        &self,
        seq: &[u8],
        k: usize,
        positions: &[usize],
        rows: &mut ScanMetrics,
    ) -> Vec<bool> {
        let filter = PreAlignmentFilter::new(k);
        let mut keep = Vec::with_capacity(positions.len());
        for chunk in positions.chunks(SCAN_LANES) {
            let mut group: [(&[u8], &[u8]); SCAN_LANES] = [(&[], &[]); SCAN_LANES];
            for (slot, &pos) in group.iter_mut().zip(chunk) {
                *slot = (self.region(pos, seq.len(), k), seq);
            }
            keep.extend(
                filter
                    .accepts_many_counted(&group[..chunk.len()], rows)
                    .into_iter()
                    .map(|decision| decision.unwrap_or(false)),
            );
        }
        keep
    }

    /// Seeding for one oriented read: candidate positions in seeder
    /// order, clamped into the reference, filled into the filter
    /// scratch (no per-read allocation). Shared by the sequential and
    /// batch paths so their candidate sets can never diverge.
    fn clamped_candidates(
        &self,
        seq: &[u8],
        scratch: &mut SeedScratch,
        cscratch: &mut CandidateScratch,
    ) {
        self.config
            .seeder
            .candidates_into(&self.index, seq, scratch, &mut cscratch.raw);
        cscratch.positions.clear();
        cscratch.positions.extend(
            cscratch
                .raw
                .iter()
                .map(|c| c.position.min(self.reference.len().saturating_sub(1))),
        );
    }

    /// The candidate region for a read of length `m` at `pos`: length
    /// `m + k`, clamped to the reference end.
    fn region(&self, pos: usize, m: usize, k: usize) -> &[u8] {
        let end = (pos + m + k).min(self.reference.len());
        &self.reference[pos..end]
    }
}

/// The reverse complement of a DNA read.
fn reverse_complement(read: &[u8]) -> Vec<u8> {
    read.iter()
        .rev()
        .map(|&b| genasm_core::alphabet::Dna::complement(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genasm_seq::genome::GenomeBuilder;
    use genasm_seq::profile::ErrorProfile;
    use genasm_seq::readsim::{LengthModel, ReadSimulator, SimConfig};

    fn genome() -> Vec<u8> {
        GenomeBuilder::new(30_000)
            .seed(11)
            .build()
            .sequence()
            .to_vec()
    }

    #[test]
    fn exact_reads_map_to_origin() {
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        for start in [100usize, 7_000, 25_000] {
            let read = &reference[start..start + 150];
            let (mapping, _) = mapper.map_read(read);
            let mapping = mapping.expect("exact read must map");
            assert!(mapping.position.abs_diff(start) <= 16, "start={start}");
            assert_eq!(mapping.edit_distance, 0, "start={start}");
        }
    }

    #[test]
    fn noisy_reads_map_with_both_aligners() {
        let reference = genome();
        let sim = ReadSimulator::new(SimConfig {
            read_length: 200,
            count: 20,
            profile: ErrorProfile::illumina(),
            seed: 5,
            both_strands: false,
            length_model: LengthModel::Fixed,
        });
        let reads = sim.simulate(&reference);
        for aligner in [AlignerKind::GenAsm, AlignerKind::Gotoh] {
            let config = MapperConfig {
                aligner,
                ..MapperConfig::default()
            };
            let mapper = ReadMapper::build(&reference, config);
            let mut mapped = 0;
            for read in &reads {
                let (mapping, _) = mapper.map_read(&read.seq);
                if let Some(m) = mapping {
                    if m.position.abs_diff(read.origin) <= 24 {
                        mapped += 1;
                    }
                }
            }
            assert!(
                mapped >= 18,
                "aligner {aligner:?}: only {mapped}/20 mapped near origin"
            );
        }
    }

    #[test]
    fn filter_reduces_candidates() {
        let reference = genome();
        let config = MapperConfig {
            error_fraction: 0.05,
            ..MapperConfig::default()
        };
        let mapper = ReadMapper::build(&reference, config);
        let read = &reference[12_000..12_150];
        let (_, timings) = mapper.map_read(read);
        assert!(timings.candidates.1 <= timings.candidates.0);
        assert!(timings.candidates.1 >= 1);
    }

    #[test]
    fn reverse_strand_reads_are_mapped_and_flagged() {
        use genasm_core::alphabet::Dna;
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        let forward = &reference[9_000..9_180];
        let rc: Vec<u8> = forward.iter().rev().map(|&b| Dna::complement(b)).collect();
        let (mapping, _) = mapper.map_read(&rc);
        let mapping = mapping.expect("reverse-complement read must map");
        assert!(mapping.reverse);
        assert!(mapping.position.abs_diff(9_000) <= 16);
        assert_eq!(mapping.edit_distance, 0);
        // A forward read maps without the flag.
        let (mapping, _) = mapper.map_read(forward);
        assert!(!mapping.unwrap().reverse);
    }

    #[test]
    fn unmappable_read_returns_none() {
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        // A read of a foreign pattern: homopolymer runs absent from the
        // GC-balanced random reference.
        let read = vec![b'A'; 200];
        let (mapping, _) = mapper.map_read(&read);
        assert!(mapping.is_none());
    }

    #[test]
    fn engine_batch_mode_matches_sequential_mapping() {
        use genasm_engine::{Engine, EngineConfig};
        let reference = genome();
        let config = MapperConfig::default();
        let sim = ReadSimulator::new(SimConfig {
            read_length: 150,
            count: 12,
            profile: ErrorProfile::illumina(),
            seed: 9,
            both_strands: true,
            length_model: LengthModel::Fixed,
        });
        let reads = sim.simulate(&reference);
        let refs: Vec<&[u8]> = reads.iter().map(|r| r.seq.as_slice()).collect();

        let mapper = ReadMapper::build(&reference, config.clone());
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(4)
                .with_genasm(config.genasm.clone()),
        );
        let (batch, timings) = mapper.map_batch_with_engine(&refs, &engine);
        assert_eq!(batch.len(), reads.len());
        assert!(timings.candidates.0 >= timings.candidates.1);

        for (read, got) in refs.iter().zip(&batch) {
            let (want, _) = mapper.map_read(read);
            assert_eq!(
                &want, got,
                "engine batch must reproduce the sequential mapping"
            );
        }
    }

    #[test]
    fn filter_rows_are_counted_and_occupancy_is_sane() {
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        // Lock-step filter lanes require single-word reads (<= 64
        // bases); the padding gap only exists on this path.
        let (_, timings) = mapper.map_read(&reference[12_000..12_060]);
        let (issued, useful) = timings.filter_rows;
        assert!(issued > 0, "the GenASM filter must issue lock-step rows");
        assert!(useful > 0 && useful <= issued);
        let occ = timings.filter_occupancy().expect("rows ran");
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
        // Long reads fall back to the scalar multi-word scan pair by
        // pair: exact word volume, fully useful (occupancy 1.0).
        let (_, timings) = mapper.map_read(&reference[12_000..12_150]);
        let (issued, useful) = timings.filter_rows;
        assert!(issued > 0, "multi-word fallback rows must be counted");
        assert_eq!(useful, issued);
        assert_eq!(timings.filter_occupancy(), Some(1.0));
        // With no filter rows, occupancy stays None instead of dividing
        // by zero.
        assert!(StageTimings::default().filter_occupancy().is_none());
    }

    #[test]
    fn batch_path_filters_only_reads_the_certificate_cannot_decide() {
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        let engine = mapper.engine(1, DcDispatch::default());
        // Exact reads: each best alignment is within the budget, so no
        // filter row is issued.
        let exact: Vec<&[u8]> = vec![&reference[100..250], &reference[5_000..5_150]];
        let (mappings, timings) = mapper.map_batch_with_engine(&exact, &engine);
        assert!(mappings.iter().all(Option::is_some));
        assert_eq!(timings.filter_rows, (0, 0));
        // A read whose best alignment overshoots the budget (30
        // substitutions in its first 60 bases, k = 23): the filter
        // decides for it, exactly as on the sequential path.
        let mut noisy = reference[9_000..9_150].to_vec();
        for i in (0..60).step_by(2) {
            noisy[i] = if noisy[i] == b'A' { b'C' } else { b'A' };
        }
        let (mappings, timings) = mapper.map_batch_with_engine(&[&noisy], &engine);
        assert!(
            timings.filter_rows.0 > 0,
            "the fallback must run the filter"
        );
        assert_eq!(mappings[0], mapper.map_read(&noisy).0);
        // An `N` inside a candidate window puts the read outside the
        // certificate's domain, with the same outcome.
        let mut with_n = reference.clone();
        with_n[9_160] = b'N';
        let mapper = ReadMapper::build(&with_n, MapperConfig::default());
        let read = &with_n[9_000..9_150];
        let (mappings, _) = mapper.map_batch_with_engine(&[read], &engine);
        assert_eq!(mappings[0], mapper.map_read(read).0);
    }

    #[test]
    fn telemetry_records_read_latency_and_stage_spans() {
        use genasm_obs::Telemetry;
        let reference = genome();
        let telemetry = Telemetry::enabled();
        let mapper = ReadMapper::build(&reference, MapperConfig::default())
            .with_telemetry(telemetry.clone());
        let engine = mapper
            .engine(2, DcDispatch::default())
            .with_telemetry(telemetry.clone());
        let reads: Vec<&[u8]> = vec![
            &reference[100..250],
            &reference[5_000..5_150],
            &reference[9_000..9_160],
        ];
        let (mappings, _) = mapper.map_batch_with_engine(&reads, &engine);
        assert!(mappings.iter().all(Option::is_some));

        // One amortized latency observation per batched read.
        let snapshot = telemetry.metrics.snapshot();
        let hist = snapshot
            .histogram(READ_LATENCY_HISTOGRAM)
            .expect("read latency histogram exists");
        assert_eq!(hist.count, reads.len() as u64);

        // Sequential mapping adds true per-read observations.
        mapper.map_read(reads[0]);
        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(
            snapshot.histogram(READ_LATENCY_HISTOGRAM).unwrap().count,
            reads.len() as u64 + 1
        );

        // Stage spans are present and balanced per name.
        let events = telemetry.tracer.take_events();
        let mut names: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
        for event in &events {
            let slot = names.entry(event.name).or_default();
            match event.phase {
                genasm_obs::Phase::Begin => slot.0 += 1,
                genasm_obs::Phase::End => slot.1 += 1,
            }
        }
        for (name, (begins, ends)) in &names {
            assert_eq!(begins, ends, "span {name} must balance");
        }
        for required in ["seeding", "resolve", "traceback", "seed", "filter"] {
            assert!(names.contains_key(required), "missing {required} spans");
        }

        // A disabled mapper records nothing.
        let off = Telemetry::off();
        let quiet =
            ReadMapper::build(&reference, MapperConfig::default()).with_telemetry(off.clone());
        quiet.map_read(reads[0]);
        assert_eq!(off.tracer.event_count(), 0);
        assert!(off.metrics.snapshot().histograms.is_empty());
    }

    #[test]
    fn resilient_outcomes_match_plain_batch_when_fault_free() {
        use genasm_engine::{Engine, EngineConfig};
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(3)
                .with_genasm(mapper.config().genasm.clone()),
        );
        let reads: Vec<&[u8]> = vec![
            &reference[100..250],
            &reference[5_000..5_150],
            &reference[9_000..9_160],
        ];
        let (outcomes, _) = mapper.map_batch_resilient(&reads, &engine);
        let (mappings, _) = mapper.map_batch_with_engine(&reads, &engine);
        assert_eq!(outcomes.len(), mappings.len());
        for (outcome, mapping) in outcomes.iter().zip(&mappings) {
            assert!(
                !outcome.is_fault(),
                "fault on a fault-free run: {outcome:?}"
            );
            assert_eq!(outcome.mapping(), mapping.as_ref());
        }
    }

    #[test]
    fn pre_expired_deadline_yields_incomplete_outcomes() {
        use genasm_engine::{CancelToken, Engine, EngineConfig};
        use genasm_obs::Telemetry;
        let reference = genome();
        let telemetry = Telemetry::enabled();
        let mapper = ReadMapper::build(&reference, MapperConfig::default())
            .with_telemetry(telemetry.clone());
        let token = CancelToken::new();
        token.cancel();
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_genasm(mapper.config().genasm.clone())
                .with_cancel(token),
        );
        let reads: Vec<&[u8]> = vec![&reference[100..250], &reference[5_000..5_150]];
        let (outcomes, _) = mapper.map_batch_resilient(&reads, &engine);
        assert_eq!(outcomes.len(), reads.len());
        for outcome in &outcomes {
            assert_eq!(
                outcome,
                &ReadOutcome::Incomplete { partial: None },
                "a pre-expired deadline must drop every read, not crash"
            );
            assert_eq!(outcome.clone().into_mapping(), None);
        }
        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(
            snapshot.counter(READS_DEADLINE_DROPPED_COUNTER),
            Some(reads.len() as u64)
        );
        assert_eq!(snapshot.counter(READS_POISONED_COUNTER), None);

        // A generous deadline resolves everything, identically to an
        // un-deadlined run.
        let generous = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_genasm(mapper.config().genasm.clone())
                .with_deadline(Duration::from_secs(3600)),
        );
        let (outcomes, _) = mapper.map_batch_resilient(&reads, &generous);
        assert!(outcomes.iter().all(|o| !o.is_fault()));
        let plain = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_genasm(mapper.config().genasm.clone()),
        );
        let (want, _) = mapper.map_batch_with_engine(&reads, &plain);
        for (outcome, mapping) in outcomes.iter().zip(&want) {
            assert_eq!(outcome.mapping(), mapping.as_ref());
        }
    }

    #[test]
    fn batch_accumulates_timings() {
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        let reads: Vec<&[u8]> = vec![&reference[100..250], &reference[5_000..5_150]];
        let (mappings, timings) = mapper.map_batch(reads);
        assert_eq!(mappings.len(), 2);
        assert!(mappings.iter().all(|m| m.is_some()));
        assert!(timings.total() > Duration::ZERO);
        assert!(timings.candidates.0 >= 2);
    }
}
