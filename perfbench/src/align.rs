//! The two align workloads: read/region pairs through
//! `Engine::align_batch` on one worker — the mapper and the server do
//! nothing here.

use std::hint::black_box;
use std::io::Write;

use crate::adapter::{self, AlignArena, Alignment, DistanceJob, Engine, Job, Telemetry};
use crate::check;
use crate::gen::{self, ErrorProfile, SimRead};
use crate::metrics::Values;
use crate::run::{
    complain, median_of, probe_parsers, sample_indices, timed, timed_setups, Opts, Outcome,
    PassClock, MIN_PASSES,
};
use crate::stats::{fnv1a, median, ratio};
use crate::trace::Tracer;

pub struct Spec {
    pub pairs: usize,
    pub read_len: usize,
    pub profile: ErrorProfile,
    /// Pairs checked against the quadratic DP oracle.
    pub dp_sample: usize,
    /// Pairs the distance-only probe of the traced run scans.
    pub distance_sample: usize,
}

pub fn spec(workload: &str, smoke: bool) -> Spec {
    let scale = if smoke { 20 } else { 1 };
    match workload {
        // The paper's headline use case. The DP oracle fills ~10^8 cells
        // (over a second) per 10 kbp pair, and a distance-only scan runs
        // every 64-base block over the whole region, so both take a
        // smaller sample here than on the short workload.
        "align_long" => Spec {
            pairs: 256 / scale,
            read_len: 10_000,
            profile: ErrorProfile::pacbio_15(),
            dp_sample: if smoke { 1 } else { 4 },
            distance_sample: 32,
        },
        _ => Spec {
            pairs: 4096 / scale,
            read_len: 250,
            profile: ErrorProfile::illumina(),
            dp_sample: 256,
            distance_sample: usize::MAX,
        },
    }
}

/// Slack appended to a read's template region, as the mapper cuts its
/// candidate regions: 15 % of the read length.
fn slack(read_len: usize) -> usize {
    (read_len as f64 * 0.15).ceil() as usize
}

pub struct Inputs {
    /// One FASTA record per pair: the read's origin region plus slack.
    pub texts: Vec<u8>,
    /// One FASTQ record per pair: the read.
    pub patterns: Vec<u8>,
    pub truth: Vec<SimRead>,
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let genome = gen::genome(
        20 * spec.read_len.max(10_000),
        None,
        gen::derive_seed(seed, 1),
    );
    let truth = gen::reads(
        &genome,
        spec.pairs,
        spec.read_len,
        spec.profile,
        false,
        gen::derive_seed(seed, 2),
    );
    let regions: Vec<&[u8]> = truth
        .iter()
        .map(|r| {
            let end = (r.origin + r.template_len + slack(r.seq.len())).min(genome.len());
            &genome[r.origin..end]
        })
        .collect();
    Inputs {
        texts: gen::fasta_bytes(
            regions
                .iter()
                .enumerate()
                .map(|(i, t)| (format!("t{i}"), *t)),
        ),
        patterns: gen::fastq_bytes(truth.iter().map(|r| &r.seq[..])),
        truth,
    }
}

pub struct Setup {
    pub jobs: Vec<Job>,
    pub engine: Engine,
}

pub fn setup(inputs: &Inputs, tracer: &mut Tracer) -> Setup {
    let (texts, _) = tracer.timed("seq.parse_fasta", || {
        adapter::parse_fasta(&inputs.texts).expect("generated FASTA parses")
    });
    let (patterns, _) = tracer.timed("seq.parse_fastq", || {
        adapter::parse_fastq(&inputs.patterns).expect("generated FASTQ parses")
    });
    let (jobs, _) = tracer.timed("engine.job_new", || {
        texts
            .iter()
            .zip(&patterns)
            .map(|(t, p)| Job::new(&t.seq, &p.seq))
            .collect()
    });
    let (engine, _) = tracer.timed("engine.new", || adapter::engine(1));
    Setup { jobs, engine }
}

type Results = Vec<Result<Alignment, String>>;

/// The pass's output as bytes, for the pass-0 fingerprint.
fn render(results: &Results, out: &mut Vec<u8>) {
    out.clear();
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(a) => writeln!(
                out,
                "{i}\t{}\t{}\t{}",
                a.edit_distance, a.text_consumed, a.cigar
            ),
            Err(e) => writeln!(out, "{i}\terror\t{e}"),
        }
        .expect("writing to a Vec cannot fail");
    }
}

pub struct Verdict {
    pub failed: usize,
    pub origin_recall: f64,
    pub optimal_frac: f64,
    pub oracle_mismatches: usize,
    pub complaints: Vec<String>,
}

pub fn verify(spec: &Spec, jobs: &[Job], truth: &[SimRead], results: &Results) -> Verdict {
    let mut v = Verdict {
        failed: 0,
        origin_recall: 0.0,
        optimal_frac: 0.0,
        oracle_mismatches: 0,
        complaints: Vec::new(),
    };
    let mut at_origin = 0usize;
    for (i, ((job, read), result)) in jobs.iter().zip(truth).zip(results).enumerate() {
        let checked = match result {
            Ok(a) => check::check_alignment(&job.text, &job.pattern, a).map(|()| a),
            Err(e) => Err(e.clone()),
        };
        match checked {
            Ok(a) => {
                let k = slack(job.pattern.len());
                at_origin += usize::from(a.text_consumed.abs_diff(read.template_len) <= k);
            }
            Err(why) => {
                v.failed += 1;
                complain(&mut v.complaints, format!("pair {i}: {why}"));
            }
        }
    }
    v.origin_recall = at_origin as f64 / jobs.len() as f64;

    let scalar = adapter::default_scalar_aligner();
    let mut arena = AlignArena::new();
    for &i in &sample_indices(jobs.len(), 256) {
        let expected = scalar.align_with_arena(&jobs[i].text, &jobs[i].pattern, &mut arena);
        match (&results[i], expected) {
            (Ok(a), Ok(e)) if *a == e => {}
            (got, expected) => {
                v.oracle_mismatches += 1;
                complain(
                    &mut v.complaints,
                    format!("pair {i}: engine {got:?} but scalar oracle {expected:?}"),
                );
            }
        }
    }
    let dp_sample = sample_indices(jobs.len(), spec.dp_sample);
    let optimal = dp_sample
        .iter()
        .filter(|&&i| {
            results[i].as_ref().is_ok_and(|a| {
                adapter::optimal_edit_distance(&jobs[i].text, &jobs[i].pattern) == a.edit_distance
            })
        })
        .count();
    v.optimal_frac = optimal as f64 / dp_sample.len() as f64;
    v
}

fn timed_pass(setup: &Setup, tracer: &mut Tracer) -> (Results, f64) {
    tracer.timed("engine.align_batch", || {
        adapter::align_batch(&setup.engine, black_box(&setup.jobs))
    })
}

pub fn run_end_to_end(opts: &Opts) -> Outcome {
    let mut tracer = Tracer::new(false);
    let spec = spec(&opts.workload, opts.smoke);
    let inputs = generate(&spec, opts.seed);
    let (setup, setup_times) = timed_setups(|| timed(|| setup(&inputs, &mut tracer)));
    let mut bytes = Vec::new();

    let (cold, _) = timed_pass(&setup, &mut tracer);
    render(&cold, &mut bytes);
    let pass0 = fnv1a(&bytes);
    let verdict = verify(&spec, &setup.jobs, &inputs.truth, &cold);
    drop(cold);

    let mut clock = PassClock::start(opts);
    let mut pass_s = Vec::new();
    let mut outputs_equal = true;
    while clock.another_pass() {
        let (results, dt) = timed_pass(&setup, &mut tracer);
        pass_s.push(dt);
        render(&results, &mut bytes);
        outputs_equal &= check::same_output(pass0, &bytes);
    }

    let n = setup.jobs.len() as f64;
    let mut values = Values::end_to_end();
    values.set_summary("setup_s", &setup_times);
    let rates: Vec<f64> = pass_s.iter().map(|s| n / s).collect();
    values.set_summary("pairs_per_s", &rates);
    values.set("reads_per_s", median(&rates));
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    // Every pair of a pass completes with the pass, so the per-pass p50
    // and p99 of latency are both the pass time.
    values.set_summary("request_latency_p50_ms", &pass_ms);
    values.set("request_latency_p99_ms", median(&pass_ms));
    values.set("origin_recall", verdict.origin_recall);
    values.set("optimal_frac", verdict.optimal_frac);

    let mut out = Outcome::new(values);
    out.attempted = (setup.jobs.len() * pass_s.len()) as u64;
    out.failed = (verdict.failed * pass_s.len()) as u64;
    out.require(outputs_equal, "a pass's alignments differ from pass 0's");
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

pub fn run_traced(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let spec = spec(&opts.workload, opts.smoke);
    let span = tracer.begin("bench.generate");
    let inputs = generate(&spec, opts.seed);
    tracer.end(span);
    let span = tracer.begin("bench.setup");
    let mut setup = setup(&inputs, tracer);
    tracer.end(span);
    let mut values = Values::per_layer();
    let mut quiet = Tracer::new(false);
    let mut bytes = Vec::new();

    let span = tracer.begin("bench.layer_probes");
    probe_parsers(&inputs.texts, &inputs.patterns, &mut values, tracer);
    tracer.end(span);

    tracer.set_pass(0);
    let span = tracer.begin("bench.cold_pass");
    let (cold, cold_s) = timed_pass(&setup, &mut quiet);
    render(&cold, &mut bytes);
    let pass0 = fnv1a(&bytes);
    tracer.end(span);
    values.set("engine.cold_pass_s", cold_s);
    let span = tracer.begin("bench.untraced_passes");
    let untraced_s = median_of(3, || timed_pass(&setup, &mut quiet).1);
    tracer.end(span);
    tracer.set_pass(-1);

    // The plain baseline: the same jobs, one at a time, through the
    // scalar aligner on this thread.
    let scalar = adapter::default_scalar_aligner();
    let mut arena = AlignArena::new();
    let scalar_s = median_of(3, || {
        tracer
            .timed("core.scalar_align_all", || {
                for job in &setup.jobs {
                    black_box(scalar.align_with_arena(&job.text, &job.pattern, &mut arena)).ok();
                }
            })
            .1
    });

    // Distance-only scans of the same pairs: the no-traceback use of
    // the same kernels.
    let distance_jobs: Vec<DistanceJob> = sample_indices(setup.jobs.len(), spec.distance_sample)
        .into_iter()
        .map(|i| &setup.jobs[i])
        .map(|j| DistanceJob::new(&j.text, &j.pattern, slack(j.pattern.len())))
        .collect();
    let mut distance_ok = 0usize;
    let distance_s = median_of(3, || {
        let (ok, dt) = tracer.timed("engine.distance_batch", || {
            adapter::distance_batch(&setup.engine, black_box(&distance_jobs))
        });
        distance_ok = ok;
        dt
    });

    // Two workers over one: informational on a shared 2-core host.
    let two_workers = adapter::engine(2);
    let two_s = median_of(3, || {
        tracer
            .timed("engine.align_batch_2w", || {
                black_box(adapter::align_batch(&two_workers, black_box(&setup.jobs)));
            })
            .1
    });

    // Traced passes: telemetry on, the engine's own batch figures.
    let telemetry = Telemetry::enabled();
    setup.engine = setup.engine.with_telemetry(telemetry.clone());
    let mut traced = Vec::new();
    let mut outputs_equal = true;
    for i in 0..3 {
        tracer.set_pass(i + 1);
        let span = tracer.begin("bench.pass");
        let ((results, figures), dt) = tracer.timed("engine.align_batch", || {
            adapter::align_batch_with_figures(&setup.engine, black_box(&setup.jobs))
        });
        render(&results, &mut bytes);
        outputs_equal &= check::same_output(pass0, &bytes);
        drop(telemetry.tracer.take_events());
        tracer.end(span);
        traced.push((dt, figures));
    }
    tracer.set_pass(-1);

    let n = setup.jobs.len() as f64;
    let pass_s = median(&traced.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());
    let figures = traced[0].1;
    values.set("engine.align_pass_s", pass_s);
    values.set_ratio(
        "engine.ns_per_base",
        ratio(pass_s * 1e9, figures.pattern_bases as f64),
    );
    values.set_ratio(
        "engine.ns_per_window",
        ratio(pass_s * 1e9, figures.tb_windows as f64),
    );
    values.set_ratio(
        "engine.ns_per_dc_row",
        ratio(pass_s * 1e9, figures.dc_rows_issued as f64),
    );
    values.set("engine.dc_rows_issued", figures.dc_rows_issued as f64);
    values.set("engine.dc_rows_useful", figures.dc_rows_useful as f64);
    values.set_ratio(
        "engine.dc_occupancy",
        ratio(figures.dc_rows_useful as f64, figures.dc_rows_issued as f64),
    );
    values.set("engine.tb_windows", figures.tb_windows as f64);
    values.set("engine.tb_rows", figures.tb_rows as f64);
    let utilization: Vec<f64> = traced
        .iter()
        .filter_map(|(_, f)| ratio(f.busy_s, f.wall_s * f.workers as f64))
        .collect();
    if !utilization.is_empty() {
        values.set("engine.utilization", median(&utilization));
    }
    values.set("engine.failures", figures.failures as f64);
    values.set_ratio(
        "engine.distance_pairs_per_s",
        ratio(distance_jobs.len() as f64, distance_s),
    );
    values.set_ratio("engine.speedup_2w", ratio(untraced_s, two_s));
    values.set_ratio(
        "core.scalar.ns_per_window",
        ratio(scalar_s * 1e9, figures.tb_windows as f64),
    );
    values.set_ratio("core.scalar.pairs_per_s", ratio(n, scalar_s));
    values.set_ratio("engine.speedup_vs_scalar", ratio(scalar_s, untraced_s));
    values.set_ratio(
        "obs.overhead_frac",
        ratio(pass_s, untraced_s).map(|r| (r - 1.0).max(0.0)),
    );
    values.set("bench.passes", traced.len() as f64);

    let span = tracer.begin("bench.verify");
    let verdict = verify(&spec, &setup.jobs, &inputs.truth, &cold);
    tracer.end(span);

    let counts_repeat = traced
        .iter()
        .all(|(_, f)| f.dc_rows_issued == figures.dc_rows_issued && f.tb_rows == figures.tb_rows);
    let mut out = Outcome::new(values);
    out.attempted = (setup.jobs.len() * traced.len()) as u64;
    out.failed = (verdict.failed * traced.len()) as u64;
    out.require(
        outputs_equal,
        "a traced pass's alignments differ from the untraced pass 0's",
    );
    out.require(
        verdict.oracle_mismatches == 0,
        "engine results differ from the scalar oracle",
    );
    out.require(
        counts_repeat,
        "engine counters differ between passes over the same input",
    );
    out.require(
        distance_ok == distance_jobs.len(),
        "a distance-only scan returned an error",
    );
    out.notes.extend(verdict.complaints);
    out
}
