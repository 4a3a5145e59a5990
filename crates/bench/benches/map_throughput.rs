//! End-to-end read-mapping throughput: the sequential reference
//! pipeline (`map_read` in a loop) against the staged engine-backed
//! batch pipeline at 1 and 4 workers — full (align-everything) vs
//! two-phase (distance-first resolution, traceback winners only)
//! execution, scalar vs chunked vs persistent-lane DC dispatch, with
//! DC lane occupancy, the distance/traceback stage split and the
//! traceback-row volume recorded per configuration.
//!
//! Writes `BENCH_map.json` at the workspace root alongside the other
//! artifacts. Pass `--smoke` (as `scripts/ci.sh` does) for a fast
//! verification run that leaves the committed artifact untouched.
//! Every measured batch configuration is asserted bit-identical to
//! the sequential mappings before it is timed, and the two-phase
//! configurations are asserted to issue strictly fewer traceback rows
//! than their full-mode counterparts.

use criterion::{criterion_group, criterion_main, Criterion};
use genasm_bench::harness::{histogram_fields, JsonReport};
use genasm_engine::{CancelToken, DcDispatch};
use genasm_mapper::pipeline::{
    AlignMode, MapperConfig, ReadMapper, ReadOutcome, StageTimings, READ_LATENCY_HISTOGRAM,
};
use genasm_obs::Telemetry;
use genasm_seq::genome::GenomeBuilder;
use genasm_seq::profile::ErrorProfile;
use genasm_seq::readsim::{LengthModel, ReadSimulator, SimConfig};
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// One timed whole-pipeline pass in reads/second.
fn one_rate<F: FnOnce()>(reads: usize, work: F) -> f64 {
    let t0 = Instant::now();
    work();
    reads as f64 / t0.elapsed().as_secs_f64()
}

const N_CONFIGS: usize = 6;

/// Appends one normalized `pipeline` row. Every row carries the
/// identical field set so consumers need no per-row schema detection;
/// ratios that do not exist for a configuration (the lane occupancies
/// when no lock-step rows ran, e.g. the sequential and scalar rows)
/// are `null` — a documented "did not run" marker, distinct from 0.
#[allow(clippy::too_many_arguments)]
fn pipeline_row(
    report: &mut JsonReport,
    batch: f64,
    workers: f64,
    lockstep: f64,
    persistent: f64,
    two_phase: f64,
    rate: f64,
    sequential_rate: f64,
    timings: &StageTimings,
) {
    report.record(
        "pipeline",
        &[
            ("batch", batch),
            ("workers", workers),
            ("lockstep", lockstep),
            ("persistent", persistent),
            ("two_phase", two_phase),
            ("reads_per_sec", rate),
            ("speedup_vs_sequential", rate / sequential_rate),
            ("seed_seconds", timings.seeding.as_secs_f64()),
            ("filter_seconds", timings.filtering.as_secs_f64()),
            ("align_seconds", timings.align_total().as_secs_f64()),
            ("distance_secs", timings.distance.as_secs_f64()),
            ("traceback_secs", timings.traceback.as_secs_f64()),
            ("occupancy", timings.lane_occupancy().unwrap_or(f64::NAN)),
            ("tb_rows", timings.tb_rows.1 as f64),
            ("distance_jobs", timings.distance_jobs as f64),
            ("traceback_jobs", timings.traceback_jobs as f64),
            ("candidates", timings.candidates.0 as f64),
            ("survivors", timings.candidates.1 as f64),
            ("reject_rate", timings.reject_rate()),
            ("filter_rows_issued", timings.filter_rows.0 as f64),
            ("filter_rows_useful", timings.filter_rows.1 as f64),
            (
                "filter_occupancy",
                timings.filter_occupancy().unwrap_or(f64::NAN),
            ),
        ],
    );
}

fn bench_map_throughput(c: &mut Criterion) {
    let smoke = smoke();
    // Best-of-N wall-clock on a shared-CPU container jitters ±20%
    // between runs (see ROADMAP); more reps full-size steadies the
    // committed artifact.
    let reps = if smoke { 2 } else { 7 };
    let genome_size = if smoke { 60_000 } else { 200_000 };
    let n_reads = if smoke { 32 } else { 192 };

    // A repetitive reference (like real genomes, ~1/3 repeat-covered,
    // repeat copies diverged by ~8% as real repeat families are):
    // reads from repeat regions survive the filter at several loci
    // whose paralogs carry measurably more edits than the true locus,
    // so the candidate-to-winner ratio — the quantity two-phase
    // execution converts into skipped tracebacks — is realistic
    // instead of the degenerate 1.0 a uniform random genome yields
    // (and instead of the all-ties case exact copies yield).
    let genome = GenomeBuilder::new(genome_size)
        .seed(0x3A9)
        .repeat_fraction(0.35)
        .repeat_unit(420)
        .repeat_divergence(0.08)
        .build();
    let sim = ReadSimulator::new(SimConfig {
        read_length: 150,
        count: n_reads,
        profile: ErrorProfile::illumina(),
        seed: 0x3AA,
        both_strands: true,
        length_model: LengthModel::Fixed,
    });
    let reads = sim.simulate(genome.sequence());
    let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.seq.as_slice()).collect();
    let full_mapper = ReadMapper::build(
        genome.sequence(),
        MapperConfig {
            align_mode: AlignMode::Full,
            ..MapperConfig::default()
        },
    );
    let two_phase_mapper = ReadMapper::build(genome.sequence(), MapperConfig::default());

    let mut report = JsonReport::new();
    report.field_str("bench", "map_throughput");
    report.field_str("simd_level", genasm_core::simd::simd_level().name());
    report.field_str(
        "workload",
        "150bp illumina-profile reads, both strands, default mapper, \
         35% repeat-covered reference (8% diverged copies)",
    );
    report.field_num("reads", n_reads as f64);
    report.field_num("genome_bp", genome_size as f64);
    report.field_num("smoke", f64::from(u8::from(smoke)));
    report.field_num(
        "host_parallelism",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as f64,
    );

    // The sequential (old-shape) mappings are the identity baseline;
    // every batch configuration must reproduce them bit-identically
    // before it is timed.
    let mut sequential_timings = StageTimings::default();
    let sequential: Vec<_> = read_refs
        .iter()
        .map(|r| {
            let (mapping, timings) = full_mapper.map_read(r);
            sequential_timings.accumulate(&timings);
            mapping
        })
        .collect();
    let mapped = sequential.iter().filter(|m| m.is_some()).count();
    assert!(
        mapped * 10 >= n_reads * 9,
        "bench workload must map: {mapped}/{n_reads}"
    );
    // (workers, dispatch, two-phase?)
    let batch_configs: [(usize, DcDispatch, bool); N_CONFIGS] = [
        (1, DcDispatch::Scalar, false),
        (1, DcDispatch::Chunked, false),
        (1, DcDispatch::Lockstep, false),
        (1, DcDispatch::Lockstep, true),
        (4, DcDispatch::Lockstep, false),
        (4, DcDispatch::Lockstep, true),
    ];
    let runs: Vec<(&ReadMapper, genasm_engine::Engine)> = batch_configs
        .iter()
        .map(|&(workers, dispatch, two_phase)| {
            let mapper = if two_phase {
                &two_phase_mapper
            } else {
                &full_mapper
            };
            (mapper, mapper.engine(workers, dispatch))
        })
        .collect();
    let mut identity_timings = [StageTimings::default(); N_CONFIGS];
    for (((workers, dispatch, two_phase), (mapper, engine)), timings) in batch_configs
        .iter()
        .zip(&runs)
        .zip(identity_timings.iter_mut())
    {
        let (batch, t) = mapper.map_batch_with_engine(&read_refs, engine);
        assert_eq!(
            batch, sequential,
            "batch pipeline must be bit-identical \
             (workers={workers}, {dispatch:?}, two_phase={two_phase})"
        );
        *timings = t;
    }
    // The headline structural win: two-phase execution issues strictly
    // fewer traceback rows than the identically-configured full path.
    for (i, &(workers, dispatch, two_phase)) in batch_configs.iter().enumerate() {
        if !two_phase {
            continue;
        }
        let full_slot = batch_configs
            .iter()
            .position(|&(w, d, tp)| w == workers && d == dispatch && !tp)
            .expect("every two-phase config has a full-mode counterpart");
        assert!(
            identity_timings[i].tb_rows.1 < identity_timings[full_slot].tb_rows.1,
            "two-phase must issue fewer TB rows: {} vs {}",
            identity_timings[i].tb_rows.1,
            identity_timings[full_slot].tb_rows.1
        );
    }
    // Interleave the repetitions — one sequential pass then one pass
    // per batch configuration, `reps` times over — so slow drift in
    // the shared-CPU container's load hits every configuration alike
    // instead of whichever happened to run first.
    let mut sequential_rate = f64::MIN;
    let mut batch_rates = [f64::MIN; N_CONFIGS];
    let mut batch_timings = [StageTimings::default(); N_CONFIGS];
    for _ in 0..reps {
        sequential_rate = sequential_rate.max(one_rate(n_reads, || {
            let mut total = StageTimings::default();
            for r in &read_refs {
                let (mapping, timings) = full_mapper.map_read(r);
                criterion::black_box(mapping);
                total.accumulate(&timings);
            }
        }));
        for ((rate, timings), (mapper, engine)) in batch_rates
            .iter_mut()
            .zip(batch_timings.iter_mut())
            .zip(&runs)
        {
            let mut pass_timings = StageTimings::default();
            let pass_rate = one_rate(n_reads, || {
                let (mappings, t) = mapper.map_batch_with_engine(&read_refs, engine);
                criterion::black_box(mappings);
                pass_timings = t;
            });
            // Keep the stage timings of the same pass the reported
            // best rate came from, so the JSON row is self-consistent.
            if pass_rate > *rate {
                *rate = pass_rate;
                *timings = pass_timings;
            }
        }
    }

    pipeline_row(
        &mut report,
        0.0,
        1.0,
        0.0,
        0.0,
        0.0,
        sequential_rate,
        sequential_rate,
        &sequential_timings,
    );
    println!("sequential: {sequential_rate:.0} reads/s");
    for (((workers, dispatch, two_phase), rate), timings) in
        batch_configs.iter().zip(batch_rates).zip(&batch_timings)
    {
        let lockstep = f64::from(u8::from(*dispatch != DcDispatch::Scalar));
        let persistent = f64::from(u8::from(*dispatch == DcDispatch::Lockstep));
        pipeline_row(
            &mut report,
            1.0,
            *workers as f64,
            lockstep,
            persistent,
            f64::from(u8::from(*two_phase)),
            rate,
            sequential_rate,
            timings,
        );
        println!(
            "batch {workers}w {dispatch:?}{}: {rate:.0} reads/s ({:.2}x sequential, \
             occupancy {}, tb-rows {}, filter-rows {})",
            if *two_phase { " two-phase" } else { " full" },
            rate / sequential_rate,
            match timings.lane_occupancy() {
                Some(o) => format!("{:.1}%", o * 100.0),
                None => "-".to_string(),
            },
            timings.tb_rows.1,
            timings.filter_rows.0
        );
    }

    // ---- Per-read latency percentiles --------------------------------
    // Recorded by the instrumented pipeline itself: a telemetry-enabled
    // sequential pass gives exact per-read wall times (the batch path
    // would amortize the batch wall across reads).
    let latency_telemetry = Telemetry::with_flags(true, false);
    let latency_mapper = ReadMapper::build(
        genome.sequence(),
        MapperConfig {
            align_mode: AlignMode::Full,
            ..MapperConfig::default()
        },
    )
    .with_telemetry(latency_telemetry.clone());
    for r in &read_refs {
        criterion::black_box(latency_mapper.map_read(r));
    }
    let latency_snapshot = latency_telemetry.metrics.snapshot();
    histogram_fields(
        &mut report,
        &latency_snapshot,
        READ_LATENCY_HISTOGRAM,
        "read_latency",
    );

    // ---- Telemetry overhead A/B --------------------------------------
    // The same 1-worker persistent-lane two-phase configuration with
    // telemetry fully off (the default mapper/engine, atomic-flag
    // gated) and fully on (metrics + span tracing), interleaved
    // best-of-reps. The disabled path is the product path: it must not
    // cost measurable throughput against the identically-configured
    // main-loop measurement above (0.5x bounds generously for the
    // shared-CPU container's ±20% wall-clock jitter).
    let on_telemetry = Telemetry::with_flags(true, true);
    let on_mapper = ReadMapper::build(genome.sequence(), MapperConfig::default())
        .with_telemetry(on_telemetry.clone());
    let on_engine = on_mapper
        .engine(1, DcDispatch::Lockstep)
        .with_telemetry(on_telemetry.clone());
    let off_engine = two_phase_mapper.engine(1, DcDispatch::Lockstep);
    let mut off_rate = f64::MIN;
    let mut on_rate = f64::MIN;
    for _ in 0..reps {
        off_rate = off_rate.max(one_rate(n_reads, || {
            criterion::black_box(two_phase_mapper.map_batch_with_engine(&read_refs, &off_engine));
        }));
        on_rate = on_rate.max(one_rate(n_reads, || {
            criterion::black_box(on_mapper.map_batch_with_engine(&read_refs, &on_engine));
        }));
        // Drain the span sink between repetitions so the enabled run
        // measures steady-state recording, not sink growth.
        on_telemetry.tracer.take_events();
    }
    report.field_num("telemetry_off_reads_per_sec", off_rate);
    report.field_num("telemetry_on_reads_per_sec", on_rate);
    report.field_num("telemetry_overhead", 1.0 - on_rate / off_rate);
    let main_slot = batch_configs
        .iter()
        .position(|&(w, d, tp)| w == 1 && d == DcDispatch::Lockstep && tp)
        .expect("the A/B configuration is one of the measured configs");
    let main_rate = batch_rates[main_slot];
    assert!(
        off_rate >= 0.5 * main_rate,
        "telemetry-disabled path regressed: {off_rate:.0} vs main-loop {main_rate:.0} reads/s"
    );
    println!(
        "telemetry A/B: off {off_rate:.0} reads/s, on {on_rate:.0} reads/s \
         (overhead {:.1}%)",
        (1.0 - on_rate / off_rate) * 100.0
    );

    // ---- Containment overhead A/B ------------------------------------
    // The fault-containment plumbing (per-chunk catch_unwind, the
    // resilient per-read outcome assembly, and — for the "on" leg — a
    // cancellation token consulted at every claim boundary) must cost
    // ~nothing on the happy path. This binary builds without the
    // `chaos` feature, so the "off" leg is also the proof that a
    // default build carries no failpoint code. Same 1-worker
    // persistent-lane two-phase configuration as the telemetry A/B.
    let deadline_engine = two_phase_mapper
        .engine(1, DcDispatch::Lockstep)
        .with_cancel(CancelToken::with_deadline(Duration::from_secs(3600)));
    let (outcomes, _) = two_phase_mapper.map_batch_resilient(&read_refs, &deadline_engine);
    let resolved: Vec<_> = outcomes
        .into_iter()
        .map(ReadOutcome::into_mapping)
        .collect();
    assert_eq!(
        resolved, sequential,
        "the resilient path must stay bit-identical on a fault-free run"
    );
    let mut containment_off_rate = f64::MIN;
    let mut containment_on_rate = f64::MIN;
    for _ in 0..reps {
        containment_off_rate = containment_off_rate.max(one_rate(n_reads, || {
            criterion::black_box(two_phase_mapper.map_batch_with_engine(&read_refs, &off_engine));
        }));
        containment_on_rate = containment_on_rate.max(one_rate(n_reads, || {
            criterion::black_box(
                two_phase_mapper.map_batch_resilient(&read_refs, &deadline_engine),
            );
        }));
    }
    report.field_num("containment_off_reads_per_sec", containment_off_rate);
    report.field_num("containment_on_reads_per_sec", containment_on_rate);
    report.field_num(
        "containment_overhead",
        1.0 - containment_on_rate / containment_off_rate,
    );
    assert!(
        containment_off_rate >= 0.5 * main_rate,
        "containment-off path regressed: {containment_off_rate:.0} vs \
         main-loop {main_rate:.0} reads/s"
    );
    assert!(
        containment_on_rate >= 0.5 * containment_off_rate,
        "deadline-token plumbing is too expensive: on {containment_on_rate:.0} vs \
         off {containment_off_rate:.0} reads/s"
    );
    println!(
        "containment A/B: off {containment_off_rate:.0} reads/s, \
         on {containment_on_rate:.0} reads/s (overhead {:.1}%)",
        (1.0 - containment_on_rate / containment_off_rate) * 100.0
    );

    // Smoke runs verify the bench executes but keep the committed
    // full-size artifact intact.
    if smoke {
        println!("smoke run: BENCH_map.json left untouched");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_map.json");
        report.write_to(path).expect("writing BENCH_map.json");
        println!("wrote {path}");
    }

    // Console-visible criterion entries for the headline pair.
    let mut group = c.benchmark_group("map_throughput_headline");
    group.bench_function("batch_1w_full", |b| {
        let engine = full_mapper.engine(1, DcDispatch::Lockstep);
        b.iter(|| criterion::black_box(full_mapper.map_batch_with_engine(&read_refs, &engine)));
    });
    group.bench_function("batch_1w_two_phase", |b| {
        let engine = two_phase_mapper.engine(1, DcDispatch::Lockstep);
        b.iter(|| {
            criterion::black_box(two_phase_mapper.map_batch_with_engine(&read_refs, &engine))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_map_throughput);
criterion_main!(benches);
