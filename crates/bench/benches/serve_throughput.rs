//! Streaming front-end throughput: reads pushed through a full
//! `genasm-serve` session — admission, work-conserving micro-batch
//! claims, the pipeline workers, and response reordering — measured as
//! sustained reads per second, with the server's own per-request
//! latency histogram exported as percentiles. A second leg offers
//! exactly twice the admission capacity while every pipeline worker is
//! held inside a gate sink, proving overload behaviour is bounded:
//! every offered read gets exactly one response, the overflow is shed
//! with a structured rejection, and the shed rate lands at precisely
//! one half.
//!
//! Writes `BENCH_serve.json` at the workspace root alongside the other
//! artifacts. Pass `--smoke` (as `scripts/ci.sh` does) for a fast
//! verification run that leaves the committed artifact untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use genasm_bench::harness::{histogram_fields, JsonReport};
use genasm_engine::DcDispatch;
use genasm_mapper::pipeline::{MapperConfig, ReadMapper};
use genasm_obs::Telemetry;
use genasm_seq::genome::GenomeBuilder;
use genasm_seq::profile::ErrorProfile;
use genasm_seq::readsim::{LengthModel, ReadSimulator, SimConfig};
use genasm_serve::{
    CollectSink, GateSink, ResponseSink, ServeConfig, Server, READS_ADMITTED_COUNTER,
    READS_SHED_COUNTER, REQUEST_LATENCY_HISTOGRAM,
};
use std::sync::Arc;
use std::time::Instant;

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// One timed whole-session pass in reads/second.
fn one_rate<F: FnOnce()>(reads: usize, work: F) -> f64 {
    let t0 = Instant::now();
    work();
    reads as f64 / t0.elapsed().as_secs_f64()
}

/// Submits every read and drains the server; the sink ends up holding
/// exactly one response per submission (asserted by the caller). The
/// first `held` reads go through a closed gate, one idle pipeline
/// worker each, so that many workers sit inside `deliver` — and every
/// later admitted read stays pending — until all reads are offered.
fn serve_session(
    mapper: &ReadMapper,
    workers: usize,
    config: ServeConfig,
    reads: &[Vec<u8>],
    held: usize,
) -> Arc<CollectSink> {
    let mapper = mapper.clone();
    let engine = mapper.engine(workers, DcDispatch::default());
    let server = Server::start(mapper, engine, config);
    let collect = Arc::new(CollectSink::default());
    let sink: Arc<dyn ResponseSink> = collect.clone();
    let gate = Arc::new(GateSink::new(Arc::clone(&sink)));
    let gated: Arc<dyn ResponseSink> = gate.clone();
    for (i, read) in reads.iter().enumerate() {
        let through = if i < held { &gated } else { &sink };
        server.submit(i as u64, format!("r{i}"), read.clone(), through);
        gate.wait_entered(held.min(i + 1));
    }
    gate.open();
    server.drain();
    collect
}

fn bench_serve_throughput(c: &mut Criterion) {
    let smoke = smoke();
    let reps = if smoke { 2 } else { 7 };
    let genome_size = if smoke { 60_000 } else { 200_000 };
    let n_reads = if smoke { 32 } else { 192 };

    let genome = GenomeBuilder::new(genome_size)
        .seed(0x53E)
        .repeat_fraction(0.35)
        .repeat_unit(420)
        .repeat_divergence(0.08)
        .build();
    let sim = ReadSimulator::new(SimConfig {
        read_length: 150,
        count: n_reads,
        profile: ErrorProfile::illumina(),
        seed: 0x53F,
        both_strands: true,
        length_model: LengthModel::Fixed,
    });
    let reads: Vec<Vec<u8>> = sim
        .simulate(genome.sequence())
        .into_iter()
        .map(|r| r.seq)
        .collect();

    let telemetry = Telemetry::with_flags(true, false);
    let mapper = ReadMapper::build(genome.sequence(), MapperConfig::default())
        .with_telemetry(telemetry.clone());

    let mut report = JsonReport::new();
    report.field_str("bench", "serve_throughput");
    report.field_str(
        "workload",
        "150bp illumina-profile reads, both strands, default mapper, \
         35% repeat-covered reference (8% diverged copies), full serve \
         session per pass (admission, micro-batching, reorder)",
    );
    report.field_num("reads", n_reads as f64);
    report.field_num("genome_bp", genome_size as f64);
    report.field_num("smoke", f64::from(u8::from(smoke)));

    // ---- Sustained throughput ----------------------------------------
    // Capacity comfortably above the offered load: nothing sheds, the
    // rate is the pipeline's, and the per-request latency histogram
    // accumulates real queue+service times across every repetition.
    let sustained_config = ServeConfig {
        batch_reads: 32,
        max_inflight_reads: 4 * n_reads,
        pipeline_workers: 4,
        ..ServeConfig::default()
    };
    let mut sustained_rate = f64::MIN;
    for _ in 0..reps {
        sustained_rate = sustained_rate.max(one_rate(n_reads, || {
            let collect = serve_session(&mapper, 4, sustained_config.clone(), &reads, 0);
            let responses = collect.take();
            assert_eq!(responses.len(), n_reads, "one response per submission");
            assert!(
                responses.iter().all(|r| !r.is_degraded()),
                "an under-capacity session must not degrade any response"
            );
        }));
    }
    report.field_num("sustained_reads_per_sec", sustained_rate);
    let snapshot = telemetry.metrics.snapshot();
    histogram_fields(
        &mut report,
        &snapshot,
        REQUEST_LATENCY_HISTOGRAM,
        "request_latency",
    );
    println!("sustained: {sustained_rate:.0} reads/s through the serve front-end");

    // ---- Overload at 2x capacity -------------------------------------
    // All four pipeline workers are held inside a gate sink (their
    // reads and every pending one keep their admission slots), so
    // offering twice `max_inflight_reads` deterministically admits the
    // first half and sheds the second with a structured rejection; the
    // gate then opens and drain() answers every admitted read. This is
    // the bounded-overload acceptance gate in bench form.
    let capacity = n_reads / 2;
    let overload_telemetry = Telemetry::with_flags(true, false);
    let overload_mapper = mapper.clone().with_telemetry(overload_telemetry.clone());
    let overload_config = ServeConfig {
        batch_reads: 32,
        max_inflight_reads: capacity,
        pipeline_workers: 4,
        ..ServeConfig::default()
    };
    let overload_rate = one_rate(n_reads, || {
        let collect = serve_session(&overload_mapper, 4, overload_config.clone(), &reads, 4);
        let mut responses = collect.take();
        assert_eq!(responses.len(), n_reads, "one response per offered read");
        responses.sort_by_key(|r| r.order);
        let shed = responses.iter().filter(|r| r.is_shed()).count();
        assert_eq!(shed, n_reads - capacity, "overflow beyond capacity sheds");
        assert!(
            responses[..capacity].iter().all(|r| !r.is_shed()),
            "reads inside the admission budget are served"
        );
    });
    let overload_snapshot = overload_telemetry.metrics.snapshot();
    let admitted = overload_snapshot
        .counter(READS_ADMITTED_COUNTER)
        .unwrap_or(0);
    let shed = overload_snapshot.counter(READS_SHED_COUNTER).unwrap_or(0);
    assert_eq!(
        admitted + shed,
        n_reads as u64,
        "every offered read is either admitted or shed"
    );
    report.field_num("overload_offered_reads", n_reads as f64);
    report.field_num("overload_admitted_reads", admitted as f64);
    report.field_num("overload_shed_reads", shed as f64);
    report.field_num("overload_shed_rate", shed as f64 / n_reads as f64);
    report.field_num("overload_responses_per_sec", overload_rate);
    println!(
        "overload 2x: {admitted} admitted, {shed} shed \
         (shed rate {:.2}), {overload_rate:.0} responses/s",
        shed as f64 / n_reads as f64
    );

    if smoke {
        println!("smoke run: BENCH_serve.json left untouched");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        report.write_to(path).expect("writing BENCH_serve.json");
        println!("wrote {path}");
    }

    // Console-visible criterion entry for the headline number.
    let mut group = c.benchmark_group("serve_throughput_headline");
    group.bench_function("serve_session_4w", |b| {
        b.iter(|| {
            let collect = serve_session(&mapper, 4, sustained_config.clone(), &reads, 0);
            criterion::black_box(collect.take());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
