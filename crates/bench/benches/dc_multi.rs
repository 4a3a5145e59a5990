//! Lock-step multi-window DC kernel throughput: scalar vs lock-step at
//! 1/4/8/16 lanes, full vs distance-only mode, chunked vs
//! persistent-lane scheduling (with lane occupancy), fused vs scanned
//! occurrence hit-tests, and the end-to-end engine effect (scalar vs
//! chunked vs persistent dispatch at one worker — with and without
//! cross-claim lane persistence — each with its full-alignment vs
//! distance-only-scan A/B, the two halves of the mapper's two-phase
//! execution model).
//!
//! Writes `BENCH_dc_multi.json` at the workspace root alongside
//! `BENCH_engine.json`. Pass `--smoke` (as `scripts/ci.sh` does) for a
//! fast verification run with smaller workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use genasm_bench::harness::{histogram_fields, measure_throughput, JsonReport};
use genasm_core::alphabet::Dna;
use genasm_core::dc::{window_dc_distance_into, window_dc_into, DcArena};
use genasm_core::dc_multi::{
    window_dc_multi_distance_into, window_dc_multi_into, DcLaneStream, LaneLoad, MultiDcArena,
    MultiLane,
};
use genasm_core::simd::{simd_level, SimdLevel};
use genasm_engine::obs::JOB_LATENCY_HISTOGRAM;
use genasm_engine::{DcDispatch, DistanceJob, Engine, EngineConfig, Job, LaneCount};
use genasm_obs::Telemetry;
use genasm_seq::genome::GenomeBuilder;
use genasm_seq::profile::ErrorProfile;
use genasm_seq::readsim::{LengthModel, ReadSimulator, SimConfig};

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Illumina-profile window pairs: 56bp reads against 64bp reference
/// windows, the shape every interior window of the aligner sees.
fn window_pairs(count: usize, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let genome = GenomeBuilder::new(60_000).seed(seed).build();
    let sim = ReadSimulator::new(SimConfig {
        read_length: 56,
        count,
        profile: ErrorProfile::illumina(),
        seed: seed + 1,
        both_strands: false,
        length_model: LengthModel::Fixed,
    });
    sim.simulate(genome.sequence())
        .into_iter()
        .map(|r| {
            let end = (r.origin + 64).min(genome.len());
            (genome.region(r.origin, end).to_vec(), r.seq)
        })
        .collect()
}

/// Engine jobs: 250bp Illumina-profile reads, the BENCH_engine.json
/// workload.
fn engine_jobs(count: usize, seed: u64) -> Vec<Job> {
    let genome = GenomeBuilder::new(60_000).seed(seed).build();
    let sim = ReadSimulator::new(SimConfig {
        read_length: 250,
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

/// Best pairs/sec over `reps` runs of `work`.
fn best_rate<F: FnMut()>(pairs: usize, reps: usize, mut work: F) -> f64 {
    (0..reps)
        .map(|_| measure_throughput(pairs, &mut work).0)
        .fold(f64::MIN, f64::max)
}

fn run_lockstep<const L: usize, const STORE: bool>(
    pairs: &[(Vec<u8>, Vec<u8>)],
    arena: &mut MultiDcArena<L>,
) {
    let mut lanes: Vec<MultiLane> = Vec::with_capacity(L);
    for chunk in pairs.chunks(L) {
        lanes.clear();
        lanes.extend(chunk.iter().map(|(t, p)| MultiLane {
            text: t,
            pattern: p,
            k_max: p.len(),
        }));
        if STORE {
            window_dc_multi_into::<Dna, L>(&lanes, arena);
        } else {
            window_dc_multi_distance_into::<Dna, L>(&lanes, arena);
        }
        criterion::black_box(arena.outcomes());
    }
}

/// Streams every pair through a persistent-lane [`DcLaneStream`],
/// refilling each lane the moment it resolves — the full-mode
/// (edge-storing) kernel under the persistent scheduler.
fn run_stream<const L: usize>(pairs: &[(Vec<u8>, Vec<u8>)], stream: &mut DcLaneStream<L>) {
    let mut next = 0usize;
    let mut resolved = Vec::with_capacity(L);
    let feed = |stream: &mut DcLaneStream<L>, lane: usize, next: &mut usize| loop {
        if *next >= pairs.len() {
            stream.release_lane(lane);
            return;
        }
        let (t, p) = &pairs[*next];
        *next += 1;
        match stream.refill_lane::<Dna>(lane, t, p, p.len()) {
            Ok(LaneLoad::Pending) => return,
            Ok(LaneLoad::Resolved) => {
                criterion::black_box(stream.outcome(lane));
            }
            Err(_) => {}
        }
    };
    for lane in 0..L {
        feed(stream, lane, &mut next);
    }
    while stream.active_lanes() > 0 {
        resolved.clear();
        stream.step(&mut resolved);
        for &lane in &resolved {
            criterion::black_box(stream.outcome(lane));
            feed(stream, lane, &mut next);
        }
    }
}

/// `useful / issued` as a fraction, NaN-free.
fn occupancy(counters: (u64, u64)) -> f64 {
    if counters.0 == 0 {
        0.0
    } else {
        counters.1 as f64 / counters.0 as f64
    }
}

fn bench_dc_multi(c: &mut Criterion) {
    let smoke = smoke();
    let reps = if smoke { 2 } else { 3 };
    let n_windows = if smoke { 512 } else { 8192 };
    let n_jobs = if smoke { 64 } else { 256 };

    let mut report = JsonReport::new();
    report.field_str("bench", "dc_multi");
    report.field_str(
        "workload",
        "illumina-profile 56bp windows (kernel) / 250bp reads (engine)",
    );
    report.field_num("windows", n_windows as f64);
    report.field_num("engine_jobs", n_jobs as f64);
    report.field_num("smoke", f64::from(u8::from(smoke)));
    report.field_num(
        "host_parallelism",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as f64,
    );
    // The detected SIMD tier behind every `LaneCount::Auto` figure
    // below, so cross-host comparisons know which lane width `auto`
    // resolved to (0 = portable, 1 = AVX2, 2 = AVX-512).
    let tier = simd_level();
    report.field_str("simd_level", tier.name());
    report.field_num("simd_level_rank", tier.rank() as f64);
    // Auto-pick contract: full mode follows the tier's vector width;
    // distance-only scans pin `auto` at 4 lanes (their 64-bit state
    // occupies one quarter of a lane's registers, so wider rows only
    // add drain-tail waste).
    let auto_full = match tier {
        SimdLevel::Avx512 => 16,
        SimdLevel::Avx2 => 8,
        SimdLevel::Portable => 4,
    };
    assert_eq!(
        LaneCount::Auto.resolve(),
        auto_full,
        "full-mode Auto must follow the detected SIMD tier"
    );
    assert_eq!(
        LaneCount::Auto.resolve_distance(),
        4,
        "distance-only Auto must stay at 4 lanes"
    );
    report.field_num("auto_lanes_full", auto_full as f64);
    report.field_num("auto_lanes_distance", 4.0);

    // ---- Kernel level: full (edge-storing) mode ----------------------
    let pairs = window_pairs(n_windows, 0xD0C5);
    let mut scalar_arena = DcArena::new();
    let scalar_full = best_rate(pairs.len(), reps, || {
        for (t, p) in &pairs {
            criterion::black_box(window_dc_into::<Dna>(t, p, p.len(), &mut scalar_arena).unwrap());
        }
    });
    let mut a1 = MultiDcArena::<1>::new();
    let mut a4 = MultiDcArena::<4>::new();
    let mut a8 = MultiDcArena::<8>::new();
    let mut a16 = MultiDcArena::<16>::new();
    let rate1 = best_rate(pairs.len(), reps, || {
        run_lockstep::<1, true>(&pairs, &mut a1)
    });
    let occ1 = occupancy(a1.take_row_counters());
    let rate4 = best_rate(pairs.len(), reps, || {
        run_lockstep::<4, true>(&pairs, &mut a4)
    });
    let occ4 = occupancy(a4.take_row_counters());
    let rate8 = best_rate(pairs.len(), reps, || {
        run_lockstep::<8, true>(&pairs, &mut a8)
    });
    let occ8 = occupancy(a8.take_row_counters());
    let rate16 = best_rate(pairs.len(), reps, || {
        run_lockstep::<16, true>(&pairs, &mut a16)
    });
    let occ16 = occupancy(a16.take_row_counters());
    report.record(
        "kernel_full",
        &[
            ("lanes", 1.0),
            ("scalar", 1.0),
            ("pairs_per_sec", scalar_full),
            ("speedup_vs_scalar", 1.0),
            ("occupancy", 1.0),
        ],
    );
    for (lanes, rate, occ) in [
        (1usize, rate1, occ1),
        (4, rate4, occ4),
        (8, rate8, occ8),
        (16, rate16, occ16),
    ] {
        report.record(
            "kernel_full",
            &[
                ("lanes", lanes as f64),
                ("scalar", 0.0),
                ("pairs_per_sec", rate),
                ("speedup_vs_scalar", rate / scalar_full),
                ("occupancy", occ),
            ],
        );
        println!(
            "kernel full chunked x{lanes}: {rate:.0} pairs/s ({:.2}x scalar, occupancy {:.1}%)",
            rate / scalar_full,
            occ * 100.0
        );
    }
    println!("kernel full scalar: {scalar_full:.0} pairs/s");

    // ---- Kernel level: chunked vs persistent-lane A/B ----------------
    // The same edge-storing windows through the persistent-lane
    // stream: lanes refill the moment they resolve, so the row-slot
    // waste the chunked scheduler pays on divergent window distances
    // (the `occupancy` gap above) is recovered.
    let mut s4 = DcLaneStream::<4>::new();
    let mut s8 = DcLaneStream::<8>::new();
    let mut s16 = DcLaneStream::<16>::new();
    let stream4 = best_rate(pairs.len(), reps, || run_stream::<4>(&pairs, &mut s4));
    let stream4_occ = occupancy(s4.take_row_counters());
    let stream8 = best_rate(pairs.len(), reps, || run_stream::<8>(&pairs, &mut s8));
    let stream8_occ = occupancy(s8.take_row_counters());
    let stream16 = best_rate(pairs.len(), reps, || run_stream::<16>(&pairs, &mut s16));
    let stream16_occ = occupancy(s16.take_row_counters());
    for (lanes, rate, occ, chunked_rate) in [
        (4usize, stream4, stream4_occ, rate4),
        (8, stream8, stream8_occ, rate8),
        (16, stream16, stream16_occ, rate16),
    ] {
        report.record(
            "kernel_stream",
            &[
                ("lanes", lanes as f64),
                ("pairs_per_sec", rate),
                ("speedup_vs_scalar", rate / scalar_full),
                ("speedup_vs_chunked", rate / chunked_rate),
                ("occupancy", occ),
            ],
        );
        println!(
            "kernel full persistent x{lanes}: {rate:.0} pairs/s ({:.2}x scalar, \
             {:.2}x chunked, occupancy {:.1}%)",
            rate / scalar_full,
            rate / chunked_rate,
            occ * 100.0
        );
    }

    // ---- Kernel level: distance-only mode (the filter workload) ------
    let scalar_distance = best_rate(pairs.len(), reps, || {
        for (t, p) in &pairs {
            criterion::black_box(
                window_dc_distance_into::<Dna>(t, p, p.len(), &mut scalar_arena).unwrap(),
            );
        }
    });
    let distance_4 = best_rate(pairs.len(), reps, || {
        run_lockstep::<4, false>(&pairs, &mut a4)
    });
    let distance_8 = best_rate(pairs.len(), reps, || {
        run_lockstep::<8, false>(&pairs, &mut a8)
    });
    let distance_16 = best_rate(pairs.len(), reps, || {
        run_lockstep::<16, false>(&pairs, &mut a16)
    });
    for (lanes, rate) in [
        (1usize, scalar_distance),
        (4, distance_4),
        (8, distance_8),
        (16, distance_16),
    ] {
        report.record(
            "kernel_distance_only",
            &[
                ("lanes", lanes as f64),
                ("pairs_per_sec", rate),
                ("speedup_vs_full_scalar", rate / scalar_full),
            ],
        );
        println!(
            "kernel distance-only x{lanes}: {rate:.0} pairs/s ({:.2}x full scalar)",
            rate / scalar_full
        );
    }

    // ---- Kernel level: fused vs scanned occurrence hit-tests ---------
    // The occurrence-scan stream's hit-test A/B: the fused path folds
    // each lane's "MSB clear anywhere?" probe into the distance row it
    // just computed (one AND accumulator per word), while the unfused
    // baseline re-scans every text column of the resolved row. Rows
    // issued are bit-identical by construction — only the scan-op
    // volume moves, and it must move down.
    let mut fused_stream = DcLaneStream::<4>::occurrence_scan();
    let mut unfused_stream = DcLaneStream::<4>::occurrence_scan_unfused();
    run_stream::<4>(&pairs, &mut fused_stream);
    let (fused_rows, _) = fused_stream.take_row_counters();
    let fused_ops = fused_stream.take_scan_ops();
    run_stream::<4>(&pairs, &mut unfused_stream);
    let (unfused_rows, _) = unfused_stream.take_row_counters();
    let unfused_ops = unfused_stream.take_scan_ops();
    assert_eq!(
        fused_rows, unfused_rows,
        "fusing the hit-test must not change the rows issued"
    );
    assert!(
        fused_ops < unfused_ops,
        "fused hit-tests must scan strictly fewer columns: {fused_ops} vs {unfused_ops}"
    );
    let fused_rate = best_rate(pairs.len(), reps, || {
        run_stream::<4>(&pairs, &mut fused_stream)
    });
    let unfused_rate = best_rate(pairs.len(), reps, || {
        run_stream::<4>(&pairs, &mut unfused_stream)
    });
    report.field_num("fused_scan_ops", fused_ops as f64);
    report.field_num("unfused_scan_ops", unfused_ops as f64);
    for (fused, rate, ops) in [
        (1.0, fused_rate, fused_ops),
        (0.0, unfused_rate, unfused_ops),
    ] {
        report.record(
            "kernel_fused_hit_test",
            &[
                ("fused", fused),
                ("lanes", 4.0),
                ("pairs_per_sec", rate),
                ("rows_issued", fused_rows as f64),
                ("scan_ops", ops as f64),
                ("scan_ops_vs_unfused", ops as f64 / unfused_ops as f64),
            ],
        );
    }
    println!(
        "kernel occurrence hit-test fused: {fused_rate:.0} pairs/s ({fused_ops} scan ops); \
         unfused: {unfused_rate:.0} pairs/s ({unfused_ops} scan ops)"
    );

    // ---- Engine level: scalar vs chunked vs persistent, one worker ---
    let jobs = engine_jobs(n_jobs, 0xBE9C);
    // (dispatch, lanes, json `persistent` flag, cross-claim persistence)
    let engine_configs = [
        (DcDispatch::Scalar, LaneCount::Four, 0.0, false),
        (DcDispatch::Chunked, LaneCount::Four, 0.0, false),
        (DcDispatch::Lockstep, LaneCount::Four, 1.0, false),
        (DcDispatch::Lockstep, LaneCount::Four, 1.0, true),
        (DcDispatch::Lockstep, LaneCount::Eight, 1.0, true),
        (DcDispatch::Lockstep, LaneCount::Sixteen, 1.0, true),
    ];
    // Phase-1 counterparts of the same jobs: the distance-only scans
    // the two-phase mapper resolves candidates on (budget = the 15%
    // error fraction the mapper would use).
    let djobs: Vec<DistanceJob> = jobs
        .iter()
        .map(|job| {
            let k = (job.pattern.len() as f64 * 0.15).ceil() as usize;
            DistanceJob::new(&job.text, &job.pattern, k)
        })
        .collect();
    let mut engine_rates = [0.0f64; 6];
    let mut engine_occupancy = [f64::NAN; 6];
    let mut engine_tb_rows = [0.0f64; 6];
    let mut engine_distance_secs = [f64::MAX; 6];
    let mut engine_distance_rates = [0.0f64; 6];
    for (slot, &(dispatch, lanes, _, cross_claim)) in engine_configs.iter().enumerate() {
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_dispatch(dispatch)
                .with_lanes(lanes)
                .with_persist_lanes(cross_claim),
        );
        let warm = engine.align_batch_with_stats(&jobs);
        assert_eq!(warm.stats.failures, 0, "bench workload must align cleanly");
        for _ in 0..reps {
            let stats = engine.align_batch_with_stats(&jobs).stats;
            engine_rates[slot] = engine_rates[slot].max(stats.pairs_per_sec());
            engine_occupancy[slot] = stats.lane_occupancy().unwrap_or(f64::NAN);
            engine_tb_rows[slot] = stats.tb_rows as f64;
            // The distance-only half of the A/B: identical pairs, no
            // row storage, no traceback. Phase-1 scans always run the
            // persistent-lane occurrence stream under both lock-step
            // dispatches (DcDispatch only selects the full-mode
            // scheduler); only the Scalar row's distance figure is the
            // per-job block metric.
            let (_, dstats) = engine.distance_batch_keyed(&djobs);
            engine_distance_secs[slot] = engine_distance_secs[slot].min(dstats.wall.as_secs_f64());
            engine_distance_rates[slot] = engine_distance_rates[slot].max(dstats.pairs_per_sec());
        }
    }
    let scalar_engine = engine_rates[0];
    for (slot, &(dispatch, lanes, persistent, cross_claim)) in engine_configs.iter().enumerate() {
        let rate = engine_rates[slot];
        report.record(
            "engine",
            &[
                (
                    "lockstep",
                    f64::from(u8::from(dispatch != DcDispatch::Scalar)),
                ),
                ("persistent", persistent),
                ("cross_claim", f64::from(u8::from(cross_claim))),
                ("lanes", lanes.resolve() as f64),
                ("workers", 1.0),
                ("pairs_per_sec", rate),
                ("speedup_vs_scalar", rate / scalar_engine),
                ("occupancy", engine_occupancy[slot]),
                ("tb_rows", engine_tb_rows[slot]),
                ("distance_secs", engine_distance_secs[slot]),
                ("distance_pairs_per_sec", engine_distance_rates[slot]),
                (
                    "distance_speedup_vs_full",
                    engine_distance_rates[slot] / rate,
                ),
            ],
        );
        println!(
            "engine 1 worker {dispatch:?} x{}{}: {rate:.0} pairs/s ({:.2}x scalar, \
             occupancy {:.1}%); distance-only {:.0} pairs/s ({:.2}x full)",
            lanes.resolve(),
            if cross_claim { " cross-claim" } else { "" },
            rate / scalar_engine,
            engine_occupancy[slot] * 100.0,
            engine_distance_rates[slot],
            engine_distance_rates[slot] / rate
        );
    }
    // The tentpole's occupancy contract: keeping lanes loaded across
    // work-queue claims (slot 3) must waste fewer row slots than
    // draining at every claim boundary (slot 2) on the identical
    // dispatch, lane width and workload. The counters behind these
    // ratios are deterministic.
    let per_claim_occupancy = engine_occupancy[2];
    let cross_claim_occupancy = engine_occupancy[3];
    assert!(
        cross_claim_occupancy > per_claim_occupancy,
        "cross-claim lane persistence must lift occupancy: \
         {cross_claim_occupancy:.4} vs per-claim {per_claim_occupancy:.4}"
    );
    report.field_num("per_claim_occupancy", per_claim_occupancy);
    report.field_num("cross_claim_occupancy", cross_claim_occupancy);
    let lockstep_engine = engine_rates[3];
    // The lock-step PR's shared kernel optimizations (branchless
    // alphabet LUT, allocation-free pattern masks, zero-fill elision)
    // also sped up the scalar baseline itself; the pre-PR engine
    // figure (BENCH_engine.json at the seed of this change) was
    // ~65k pairs/s at one worker on this host.
    report.field_num("engine_pairs_per_sec_pre_pr", 64_675.0);
    report.field_num("engine_speedup_vs_pre_pr", lockstep_engine / 64_675.0);

    // True per-job latency percentiles under the persistent-lane
    // scheduler at one worker, from the engine's own instrumentation,
    // through the shared snapshot serializer.
    let telemetry = Telemetry::with_flags(true, false);
    let obs_engine = Engine::new(
        EngineConfig::default()
            .with_workers(1)
            .with_dispatch(DcDispatch::Lockstep),
    )
    .with_telemetry(telemetry.clone());
    let out = obs_engine.align_batch_with_stats(&jobs);
    assert_eq!(out.stats.failures, 0, "latency pass must align cleanly");
    let snapshot = telemetry.metrics.snapshot();
    histogram_fields(&mut report, &snapshot, JOB_LATENCY_HISTOGRAM, "job_latency");

    // Smoke runs verify the bench executes but keep the committed
    // full-size artifact intact.
    if smoke {
        println!("smoke run: BENCH_dc_multi.json left untouched");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dc_multi.json");
        report.write_to(path).expect("writing BENCH_dc_multi.json");
        println!("wrote {path}");
    }

    // Console-visible criterion entries for the two headline numbers.
    let mut group = c.benchmark_group("dc_multi_headline");
    group.bench_function("engine_scalar_1w", |b| {
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_dispatch(DcDispatch::Scalar),
        );
        b.iter(|| criterion::black_box(engine.align_batch(&jobs)));
    });
    group.bench_function("engine_lockstep_1w", |b| {
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_dispatch(DcDispatch::Lockstep),
        );
        b.iter(|| criterion::black_box(engine.align_batch(&jobs)));
    });
    group.finish();
}

criterion_group!(benches, bench_dc_multi);
criterion_main!(benches);
