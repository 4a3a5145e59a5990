//! Throughput of the batch alignment engine across worker counts, and
//! kernel head-to-head (GenASM vs Gotoh) on the identical harness.
//!
//! Besides the criterion-style console output, this bench writes
//! `BENCH_engine.json` (pairs/sec at 1, N/2, and N workers, where N is
//! the host parallelism) so later PRs have a machine-readable perf
//! trajectory to compare against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use genasm_bench::harness::{histogram_fields, JsonReport};
use genasm_engine::obs::{CHUNK_LATENCY_HISTOGRAM, JOB_LATENCY_HISTOGRAM};
use genasm_engine::{DistanceJob, Engine, EngineConfig, GotohKernel, Job};
use genasm_obs::Telemetry;
use genasm_seq::genome::GenomeBuilder;
use genasm_seq::profile::ErrorProfile;
use genasm_seq::readsim::{LengthModel, ReadSimulator, SimConfig};
use std::sync::Arc;

/// The measured workload: short-read-sized jobs off a simulated genome.
fn jobs(count: usize, read_length: usize, seed: u64) -> Vec<Job> {
    let genome = GenomeBuilder::new((read_length * 8).max(60_000))
        .seed(seed)
        .build();
    let sim = ReadSimulator::new(SimConfig {
        read_length,
        count,
        profile: ErrorProfile::illumina(),
        seed: seed + 1,
        both_strands: false,
        length_model: LengthModel::Fixed,
    });
    sim.simulate(genome.sequence())
        .into_iter()
        .map(|r| {
            let end = (r.origin + r.template_len + 24).min(genome.len());
            Job::new(genome.region(r.origin, end), &r.seq)
        })
        .collect()
}

/// The worker counts the JSON report tracks: 1, N/2, and N (host
/// parallelism), always including 4 so the >= 4-worker scaling figure
/// exists in every report regardless of host shape.
fn tracked_worker_counts() -> Vec<usize> {
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 4, n / 2, n];
    counts.retain(|&w| w >= 1);
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn bench_worker_scaling(c: &mut Criterion) {
    let batch = jobs(256, 250, 0xBE9C);
    let mut group = c.benchmark_group("engine_throughput_250bp");
    group.throughput(Throughput::Elements(batch.len() as u64));

    let mut report = JsonReport::new();
    report.field_str("bench", "engine_throughput");
    report.field_str("workload", "256 jobs x 250bp illumina-profile reads");
    report.field_str("simd_level", genasm_core::simd::simd_level().name());
    report.field_num(
        "host_parallelism",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as f64,
    );
    let mut single_thread_rate = f64::NAN;

    // Phase-1 counterparts of the batch: the distance-only scans the
    // two-phase mapper resolves candidates on.
    let distance_batch: Vec<DistanceJob> = batch
        .iter()
        .map(|job| {
            let k = (job.pattern.len() as f64 * 0.15).ceil() as usize;
            DistanceJob::new(&job.text, &job.pattern, k)
        })
        .collect();
    for workers in tracked_worker_counts() {
        let engine = Engine::new(EngineConfig::default().with_workers(workers));
        // Measured out-of-band (not inside the criterion timing loop)
        // so the JSON numbers come from full-batch runs with stats.
        let warm = engine.align_batch_with_stats(&batch);
        assert!(
            warm.stats.failures == 0,
            "bench workload must align cleanly"
        );
        let tb_rows = warm.stats.tb_rows as f64;
        let best = (0..3)
            .map(|_| engine.align_batch_with_stats(&batch).stats.pairs_per_sec())
            .fold(f64::MIN, f64::max);
        let distance_secs = (0..3)
            .map(|_| {
                engine
                    .distance_batch_keyed(&distance_batch)
                    .1
                    .wall
                    .as_secs_f64()
            })
            .fold(f64::MAX, f64::min);
        if workers == 1 {
            single_thread_rate = best;
        }
        report.record(
            "threads",
            &[
                ("workers", workers as f64),
                ("pairs_per_sec", best),
                (
                    "speedup_vs_1",
                    if single_thread_rate > 0.0 {
                        best / single_thread_rate
                    } else {
                        f64::NAN
                    },
                ),
                ("tb_rows", tb_rows),
                ("distance_secs", distance_secs),
            ],
        );

        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let engine = Engine::new(EngineConfig::default().with_workers(workers));
                b.iter(|| criterion::black_box(engine.align_batch(&batch)));
            },
        );
    }
    group.finish();

    // True per-job and per-chunk latency percentiles from a
    // telemetry-enabled single-worker pass (one worker so queueing
    // delay does not smear the per-job figures), recorded by the
    // engine's own instrumentation and serialized through the shared
    // snapshot serializer.
    let telemetry = Telemetry::with_flags(true, false);
    let obs_engine =
        Engine::new(EngineConfig::default().with_workers(1)).with_telemetry(telemetry.clone());
    let out = obs_engine.align_batch_with_stats(&batch);
    assert_eq!(out.stats.failures, 0, "latency pass must align cleanly");
    let snapshot = telemetry.metrics.snapshot();
    histogram_fields(&mut report, &snapshot, JOB_LATENCY_HISTOGRAM, "job_latency");
    histogram_fields(
        &mut report,
        &snapshot,
        CHUNK_LATENCY_HISTOGRAM,
        "chunk_latency",
    );

    // Land the artifact at the workspace root (cargo bench runs with
    // the package directory as CWD).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    report.write_to(path).expect("writing BENCH_engine.json");
    println!("wrote {path}");
}

fn bench_kernels_head_to_head(c: &mut Criterion) {
    let batch = jobs(64, 250, 0x90a7);
    let mut group = c.benchmark_group("engine_kernels_250bp");
    group.throughput(Throughput::Elements(batch.len() as u64));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let genasm = Engine::new(EngineConfig::default().with_workers(workers));
    group.bench_function(BenchmarkId::from_parameter("genasm"), |b| {
        b.iter(|| criterion::black_box(genasm.align_batch(&batch)))
    });

    let gotoh = Engine::with_kernel(
        EngineConfig::default().with_workers(workers),
        Arc::new(GotohKernel::default()),
    );
    group.bench_function(BenchmarkId::from_parameter("gotoh"), |b| {
        b.iter(|| criterion::black_box(gotoh.align_batch(&batch)))
    });
    group.finish();
}

criterion_group!(benches, bench_worker_scaling, bench_kernels_head_to_head);
criterion_main!(benches);
