//! The two map workloads: a pool of short reads through
//! `map_batch_resilient` and the SAM renderer, on one compute thread.

use std::hint::black_box;
use std::time::Instant;

use crate::adapter::{self, Engine, FastqRecord, ReadMapper, ReadOutcome, StageFigures, Telemetry};
use crate::check;
use crate::gen::{self, reverse_complement, ErrorProfile, Repeats, SimRead};
use crate::metrics::Values;
use crate::run::{
    complain, median_of, probe_parsers, sample_indices, timed, timed_setups, Opts, Outcome,
    PassClock, MIN_PASSES,
};
use crate::stats::{fnv1a, median, ratio};
use crate::trace::Tracer;

pub struct Spec {
    pub genome_len: usize,
    pub repeats: Option<Repeats>,
    pub reads: usize,
    pub read_len: usize,
}

/// Sizes of a map workload; smoke runs take 1/20 of each.
pub fn spec(workload: &str, smoke: bool) -> Spec {
    let scale = if smoke { 20 } else { 1 };
    let (genome_len, repeats) = match workload {
        // 35 % of the genome is covered by 420 bp copies diverged by 8 %:
        // repeat-borne reads survive tier 0 at several loci that only
        // tier-1 rows, distance jobs and traceback can tell apart.
        "map_short_repeat" => (
            200_000,
            Some(Repeats {
                fraction: 0.35,
                unit: 420,
                divergence: 0.08,
            }),
        ),
        // Uniform and large: ~16 MB of index postings, past the 2 MiB
        // per-core L2, and chance seed hits that tier 0 must reject.
        _ => (4_000_000, None),
    };
    Spec {
        genome_len: genome_len / scale,
        repeats,
        reads: 4000 / scale,
        read_len: 150,
    }
}

/// What the program receives (bytes) and what the checkers keep (truth).
pub struct Inputs {
    pub fasta: Vec<u8>,
    pub fastq: Vec<u8>,
    pub truth: Vec<SimRead>,
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let genome = gen::genome(spec.genome_len, spec.repeats, gen::derive_seed(seed, 1));
    let truth = gen::reads(
        &genome,
        spec.reads,
        spec.read_len,
        ErrorProfile::illumina(),
        true,
        gen::derive_seed(seed, 2),
    );
    Inputs {
        fasta: gen::fasta_bytes([(adapter::REFERENCE_NAME.to_string(), &genome[..])]),
        fastq: gen::fastq_bytes(truth.iter().map(|r| &r.seq[..])),
        truth,
    }
}

/// Every long-lived object the passes reuse.
pub struct Setup {
    pub reference: Vec<u8>,
    pub reads: Vec<FastqRecord>,
    pub mapper: ReadMapper,
    pub engine: Engine,
}

pub fn setup(inputs: &Inputs, tracer: &mut Tracer) -> Setup {
    let (mut records, _) = tracer.timed("seq.parse_fasta", || {
        adapter::parse_fasta(&inputs.fasta).expect("generated FASTA parses")
    });
    let reference = records.swap_remove(0).seq;
    let (reads, _) = tracer.timed("seq.parse_fastq", || {
        adapter::parse_fastq(&inputs.fastq).expect("generated FASTQ parses")
    });
    let (mapper, _) = tracer.timed("mapper.build", || adapter::build_mapper(&reference));
    let (engine, _) = tracer.timed("engine.new", || adapter::engine_for(&mapper));
    Setup {
        reference,
        reads,
        mapper,
        engine,
    }
}

pub struct PassResult {
    pub outcomes: Vec<ReadOutcome>,
    pub figures: StageFigures,
    pub map_s: f64,
    pub render_s: f64,
}

/// One pass: the whole pool through the batch mapper, then every
/// outcome rendered as SAM into the reused buffer.
pub fn pass(setup: &Setup, sam: &mut Vec<u8>, tracer: &mut Tracer) -> PassResult {
    let reads: Vec<&[u8]> = setup.reads.iter().map(|r| &r.seq[..]).collect();
    let ((outcomes, figures), map_s) = tracer.timed("mapper.map_batch", || {
        adapter::map_batch(&setup.mapper, black_box(&reads), &setup.engine)
    });
    let ((), render_s) = tracer.timed("mapper.sam_render", || {
        sam.clear();
        for (record, outcome) in setup.reads.iter().zip(&outcomes) {
            adapter::render_sam(&record.id, &record.seq, outcome, sam);
        }
        black_box(&*sam);
    });
    PassResult {
        outcomes,
        figures,
        map_s,
        render_s,
    }
}

/// What checking one pass's outcomes against the truth yields.
pub struct Verdict {
    /// Reads that faulted or whose mapping does not replay.
    pub failed: usize,
    pub mapped: usize,
    pub origin_recall: f64,
    pub optimal_frac: f64,
    /// Sample mappings that differ from the scalar aligner's.
    pub oracle_mismatches: usize,
    pub complaints: Vec<String>,
}

/// Checks every outcome (fault-free, CIGAR replays, edit count), the
/// origin of every read, and — on a fixed 256-read sample — the DP
/// optimum and the scalar-aligner oracle.
pub fn verify(
    mapper: &ReadMapper,
    reference: &[u8],
    truth: &[SimRead],
    outcomes: &[ReadOutcome],
) -> Verdict {
    let mut v = Verdict {
        failed: 0,
        mapped: 0,
        origin_recall: 0.0,
        optimal_frac: 0.0,
        oracle_mismatches: 0,
        complaints: Vec::new(),
    };
    let mut recovered = 0usize;
    for (i, (read, outcome)) in truth.iter().zip(outcomes).enumerate() {
        match outcome {
            ReadOutcome::Mapped(m) => {
                v.mapped += 1;
                if let Err(why) = check::check_mapping(reference, &read.seq, m) {
                    v.failed += 1;
                    complain(&mut v.complaints, format!("read {i}: {why}"));
                    continue;
                }
                let k = adapter::error_budget(mapper, read.seq.len());
                recovered += usize::from(check::recovers_origin(read, m, k));
            }
            ReadOutcome::Unmapped => {}
            ReadOutcome::Poisoned { .. } | ReadOutcome::Incomplete { .. } => {
                v.failed += 1;
                complain(
                    &mut v.complaints,
                    format!("read {i}: faulted ({outcome:?})"),
                );
            }
        }
    }
    v.origin_recall = recovered as f64 / truth.len() as f64;

    let scalar = adapter::scalar_aligner_for(mapper);
    let sample = sample_indices(truth.len(), 256);
    let mut optimal = 0usize;
    for &i in &sample {
        let ReadOutcome::Mapped(m) = &outcomes[i] else {
            continue;
        };
        let oriented = if m.reverse {
            reverse_complement(&truth[i].seq)
        } else {
            truth[i].seq.clone()
        };
        let k = adapter::error_budget(mapper, oriented.len());
        let end = (m.position + oriented.len() + k).min(reference.len());
        let region = &reference[m.position..end];
        optimal +=
            usize::from(adapter::optimal_edit_distance(region, &oriented) == m.edit_distance);
        match scalar.align(region, &oriented) {
            Ok(a) if a.cigar == m.cigar && a.edit_distance == m.edit_distance => {}
            other => {
                v.oracle_mismatches += 1;
                complain(
                    &mut v.complaints,
                    format!("read {i}: engine {m:?} but scalar oracle {other:?}"),
                );
            }
        }
    }
    v.optimal_frac = optimal as f64 / sample.len() as f64;
    v
}

/// The end-to-end run: telemetry off, passes for `--seconds`.
pub fn run_end_to_end(opts: &Opts) -> Outcome {
    let mut tracer = Tracer::new(false);
    let spec = spec(&opts.workload, opts.smoke);
    let inputs = generate(&spec, opts.seed);
    let (setup, setup_times) = timed_setups(|| timed(|| setup(&inputs, &mut tracer)));
    let mut sam = Vec::new();

    let cold = pass(&setup, &mut sam, &mut tracer);
    let pass0 = fnv1a(&sam);
    let verdict = verify(
        &setup.mapper,
        &setup.reference,
        &inputs.truth,
        &cold.outcomes,
    );

    let mut clock = PassClock::start(opts);
    let mut pass_s = Vec::new();
    let mut outputs_equal = true;
    while clock.another_pass() {
        let p = pass(&setup, &mut sam, &mut tracer);
        pass_s.push(p.map_s + p.render_s);
        outputs_equal &= check::same_output(pass0, &sam);
    }

    let n = setup.reads.len() as f64;
    let mut values = Values::end_to_end();
    values.set_summary("setup_s", &setup_times);
    let rates: Vec<f64> = pass_s.iter().map(|s| n / s).collect();
    values.set_summary("reads_per_s", &rates);
    let mapped_share = verdict.mapped as f64 / n;
    values.set("pairs_per_s", median(&rates) * mapped_share);
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    // Every read of a pass completes with the pass, so the per-pass p50
    // and p99 of read latency are both the pass time.
    values.set_summary("request_latency_p50_ms", &pass_ms);
    values.set("request_latency_p99_ms", median(&pass_ms));
    values.set("origin_recall", verdict.origin_recall);
    values.set("optimal_frac", verdict.optimal_frac);

    let mut out = Outcome::new(values);
    // Passes that hash equal to pass 0 carry pass 0's verdict.
    out.attempted = (setup.reads.len() * pass_s.len()) as u64;
    out.failed = (verdict.failed * pass_s.len()) as u64;
    out.require(outputs_equal, "a pass's SAM bytes differ from pass 0's");
    out.require(
        verdict.oracle_mismatches == 0,
        "engine results differ from the scalar oracle",
    );
    out.require(
        pass_s.len() >= MIN_PASSES || opts.smoke,
        "fewer than 10 timed passes",
    );
    out.notes.extend(verdict.complaints);
    out
}

/// The traced run: fixed work, spans around every call into a layer,
/// telemetry on for the passes the layer figures come from.
pub fn run_traced(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let spec = spec(&opts.workload, opts.smoke);
    let span = tracer.begin("bench.generate");
    let inputs = generate(&spec, opts.seed);
    tracer.end(span);

    let span = tracer.begin("bench.setup");
    let mut setup = setup(&inputs, tracer);
    tracer.end(span);
    let mut values = Values::per_layer();

    // seq and mapper.index: each long-lived object's build, timed alone.
    let span = tracer.begin("bench.layer_probes");
    probe_parsers(&inputs.fasta, &inputs.fastq, &mut values, tracer);
    let index_s = median_of(3, || {
        tracer
            .timed("mapper.index_build", || {
                black_box(adapter::build_index(
                    black_box(&setup.reference),
                    &setup.mapper,
                ));
            })
            .1
    });
    let pack_s = median_of(3, || {
        tracer
            .timed("mapper.ref_pack", || {
                black_box(adapter::PackedRef::pack(black_box(&setup.reference)));
            })
            .1
    });
    values.set("mapper.index.build_s", index_s);
    values.set("mapper.index.pack_s", pack_s);
    values.set(
        "mapper.index.postings",
        setup.mapper.index().postings() as f64,
    );
    values.set(
        "mapper.index.distinct_seeds",
        setup.mapper.index().distinct_seeds() as f64,
    );

    // mapper.seed: the seeder alone over the pool, both orientations,
    // timed from outside.
    let both = adapter::maps_both_strands(&setup.mapper);
    let oriented: Vec<(usize, bool, Vec<u8>)> = inputs
        .truth
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            let mut v = vec![(i, false, r.seq.clone())];
            if both {
                v.push((i, true, reverse_complement(&r.seq)));
            }
            v
        })
        .collect();
    let mut scratch = adapter::SeedScratch::default();
    let mut candidates = Vec::new();
    let mut total_candidates = 0usize;
    let mut found = vec![false; inputs.truth.len()];
    let seed_s = median_of(3, || {
        total_candidates = 0;
        let span = tracer.begin("mapper.seed_pool");
        let t = Instant::now();
        for (i, reverse, seq) in &oriented {
            adapter::seed_candidates(&setup.mapper, seq, &mut scratch, &mut candidates);
            total_candidates += candidates.len();
            let truth = &inputs.truth[*i];
            let k = adapter::error_budget(&setup.mapper, seq.len());
            if *reverse == truth.reverse
                && candidates
                    .iter()
                    .any(|c| c.position.abs_diff(truth.origin) <= k)
            {
                found[*i] = true;
            }
        }
        let dt = t.elapsed().as_secs_f64();
        tracer.end(span);
        dt
    });
    let n = setup.reads.len() as f64;
    values.set("mapper.seed.ns_per_read", seed_s * 1e9 / n);
    values.set(
        "mapper.seed.candidates_per_read",
        total_candidates as f64 / n,
    );
    values.set(
        "mapper.seed.truth_recall",
        found.iter().filter(|&&f| f).count() as f64 / n,
    );
    tracer.end(span);

    // Untraced passes: cold, then three with telemetry off.
    let mut sam = Vec::new();
    let mut quiet = Tracer::new(false);
    tracer.set_pass(0);
    let span = tracer.begin("bench.cold_pass");
    let cold = pass(&setup, &mut sam, &mut quiet);
    tracer.end(span);
    let pass0 = fnv1a(&sam);
    values.set("mapper.cold_pass_s", cold.map_s + cold.render_s);
    let span = tracer.begin("bench.untraced_passes");
    let untraced: Vec<f64> = (0..3)
        .map(|_| {
            let p = pass(&setup, &mut sam, &mut quiet);
            p.map_s + p.render_s
        })
        .collect();
    tracer.end(span);
    tracer.set_pass(-1);

    // Traced passes: telemetry on in mapper and engine, spans around
    // each call. The layer figures come from these.
    let telemetry = Telemetry::enabled();
    setup.mapper = setup.mapper.with_telemetry(telemetry.clone());
    setup.engine = setup.engine.with_telemetry(telemetry.clone());
    let mut traced = Vec::new();
    let mut outputs_equal = true;
    for i in 0..3 {
        tracer.set_pass(i + 1);
        let span = tracer.begin("bench.pass");
        let p = pass(&setup, &mut sam, tracer);
        outputs_equal &= check::same_output(pass0, &sam);
        // Spans inside the program are a later issue; drop them so the
        // sink does not grow across passes.
        drop(telemetry.tracer.take_events());
        tracer.end(span);
        traced.push(p);
    }
    tracer.set_pass(-1);

    let med = |f: &dyn Fn(&PassResult) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let figures = traced[0].figures;
    let filter_s = med(&|p| p.figures.filter_s);
    let traceback_s = med(&|p| p.figures.traceback_s);
    let render_s = med(&|p| p.render_s);
    values.set("mapper.stage.seed_s", med(&|p| p.figures.seed_s));
    values.set("mapper.stage.filter_s", filter_s);
    values.set("mapper.stage.distance_s", med(&|p| p.figures.distance_s));
    values.set("mapper.stage.traceback_s", traceback_s);
    let sum_over_wall = med(&|p| p.figures.stage_sum_s() / p.map_s);
    values.set("mapper.stage.sum_over_wall", sum_over_wall);
    values.set("mapper.filter.candidates", figures.candidates as f64);
    values.set("mapper.filter.survivors", figures.survivors as f64);
    values.set_ratio(
        "mapper.filter.reject_frac",
        ratio(
            (figures.candidates - figures.survivors) as f64,
            figures.candidates as f64,
        ),
    );
    values.set("mapper.filter.tier0_probes", figures.tier0_probes as f64);
    values.set("mapper.filter.tier0_rejects", figures.tier0_rejects as f64);
    values.set("mapper.filter.tier1_rejects", figures.tier1_rejects as f64);
    values.set("mapper.filter.accepts", figures.accepts as f64);
    values.set("mapper.filter.fallbacks", figures.fallbacks as f64);
    values.set(
        "mapper.filter.rows_issued",
        figures.filter_rows_issued as f64,
    );
    values.set(
        "mapper.filter.rows_useful",
        figures.filter_rows_useful as f64,
    );
    values.set_ratio(
        "mapper.filter.occupancy",
        ratio(
            figures.filter_rows_useful as f64,
            figures.filter_rows_issued as f64,
        ),
    );
    values.set(
        "mapper.filter.bound_reuse_hits",
        figures.bound_reuse_hits as f64,
    );
    values.set_ratio(
        "mapper.filter.ns_per_candidate",
        ratio(filter_s * 1e9, figures.candidates as f64),
    );
    values.set_ratio(
        "mapper.filter.ns_per_row",
        ratio(filter_s * 1e9, figures.filter_rows_issued as f64),
    );
    values.set_ratio(
        "mapper.filter.probes_per_candidate",
        ratio(figures.tier0_probes as f64, figures.candidates as f64),
    );
    values.set("mapper.align.distance_jobs", figures.distance_jobs as f64);
    values.set("mapper.align.traceback_jobs", figures.traceback_jobs as f64);
    values.set("mapper.align.tb_rows", figures.tb_rows as f64);
    values.set("mapper.align.dc_rows_issued", figures.dc_rows_issued as f64);
    values.set("mapper.align.dc_rows_useful", figures.dc_rows_useful as f64);
    values.set_ratio(
        "mapper.align.dc_occupancy",
        ratio(figures.dc_rows_useful as f64, figures.dc_rows_issued as f64),
    );
    values.set_ratio(
        "mapper.align.ns_per_tb_row",
        ratio(traceback_s * 1e9, figures.tb_rows as f64),
    );
    values.set("mapper.sam.render_s", render_s);
    values.set("mapper.sam.ns_per_record", render_s * 1e9 / n);
    values.set("mapper.sam.bytes", sam.len() as f64);
    let traced_s: Vec<f64> = traced.iter().map(|p| p.map_s + p.render_s).collect();
    values.set_ratio(
        "obs.overhead_frac",
        ratio(median(&traced_s), median(&untraced)).map(|r| (r - 1.0).max(0.0)),
    );
    values.set("bench.passes", traced.len() as f64);

    let span = tracer.begin("bench.verify");
    let verdict = verify(
        &setup.mapper,
        &setup.reference,
        &inputs.truth,
        &cold.outcomes,
    );
    tracer.end(span);

    let counts_repeat = traced.iter().all(|p| {
        p.figures.candidates == figures.candidates
            && p.figures.filter_rows_issued == figures.filter_rows_issued
            && p.figures.dc_rows_issued == figures.dc_rows_issued
    });
    let mut out = Outcome::new(values);
    out.attempted = (setup.reads.len() * traced.len()) as u64;
    out.failed = (verdict.failed * traced.len()) as u64;
    out.require(
        outputs_equal,
        "a traced pass's SAM bytes differ from the untraced pass 0's",
    );
    out.require(
        verdict.oracle_mismatches == 0,
        "engine results differ from the scalar oracle",
    );
    out.require(
        counts_repeat,
        "layer counters differ between passes over the same input",
    );
    out.require(
        sum_over_wall >= 0.9,
        "mapper stage times sum to less than 0.9 of the map_batch wall",
    );
    out.notes.extend(verdict.complaints);
    out
}
