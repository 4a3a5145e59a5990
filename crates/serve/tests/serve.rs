//! Serving-layer behavior, end to end over real threads:
//! work-conserving micro-batch claims, the latency split, bounded
//! admission with structured shedding, per-request deadlines,
//! exactly-one-response accounting, graceful drain, response
//! reordering, and the TCP front-end.

use genasm_engine::DcDispatch;
use genasm_mapper::{MapperConfig, ReadMapper};
use genasm_obs::Telemetry;
use genasm_seq::genome::{Genome, GenomeBuilder};
use genasm_seq::ParseMode;
use genasm_serve::{
    serve_listener, Admission, CollectSink, GateSink, Response, ResponseKind, ResponseSink,
    SamStreamWriter, ServeConfig, Server, BATCHES_COUNTER, DELIVER_HISTOGRAM, EXECUTE_HISTOGRAM,
    QUEUE_WAIT_HISTOGRAM, READS_ADMITTED_COUNTER, READS_DEADLINE_DROPPED_COUNTER,
    READS_SHED_COUNTER, REQUEST_LATENCY_HISTOGRAM,
};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const RNAME: &str = "chr_synth";

/// A genome and reads that map cleanly, so every admitted read's
/// outcome is deterministic.
fn fixture() -> (Genome, Vec<Vec<u8>>) {
    let genome = GenomeBuilder::new(12_000).seed(77).build();
    let reads = (0..32)
        .map(|i| {
            let start = 31 + 317 * i;
            genome.region(start, start + 120).to_vec()
        })
        .collect();
    (genome, reads)
}

fn server_with(config: ServeConfig, telemetry: Telemetry) -> (Server, Vec<Vec<u8>>) {
    let (genome, reads) = fixture();
    let mapper =
        ReadMapper::build(genome.sequence(), MapperConfig::default()).with_telemetry(telemetry);
    let engine = mapper.engine(1, DcDispatch::default());
    (Server::start(mapper, engine, config), reads)
}

fn collect_sink() -> (Arc<CollectSink>, Arc<dyn ResponseSink>) {
    let collect = Arc::new(CollectSink::default());
    let sink: Arc<dyn ResponseSink> = collect.clone();
    (collect, sink)
}

/// A closed gate in front of `inner`: the worker that delivers through
/// it is held until `open()`.
fn gate_sink(inner: &Arc<dyn ResponseSink>) -> (Arc<GateSink>, Arc<dyn ResponseSink>) {
    let gate = Arc::new(GateSink::new(Arc::clone(inner)));
    let sink: Arc<dyn ResponseSink> = gate.clone();
    (gate, sink)
}

/// Every order number 0..n appears exactly once — the
/// exactly-one-response invariant.
fn assert_one_response_each(responses: &[Response], n: u64) {
    assert_eq!(responses.len() as u64, n, "one response per submission");
    let mut orders: Vec<u64> = responses.iter().map(|r| r.order).collect();
    orders.sort_unstable();
    assert_eq!(orders, (0..n).collect::<Vec<u64>>());
}

#[test]
fn an_idle_server_answers_a_single_read_at_once() {
    let telemetry = Telemetry::enabled();
    let (server, reads) = server_with(
        ServeConfig {
            // One read can never fill this cap, and nothing follows it:
            // were anything in the serve path waiting on a count or a
            // clock, the answer would never come before the drain.
            batch_reads: 10_000,
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    let (collect, inner) = collect_sink();
    let (gate, sink) = gate_sink(&inner);
    gate.open();
    let verdict = server.submit(0, "q0", reads[0].clone(), &sink);
    assert_eq!(verdict, Admission::Admitted);
    gate.wait_entered(1); // delivered, with the server still running
    server.drain();
    let responses = collect.take();
    assert_one_response_each(&responses, 1);
    assert!(!responses[0].is_degraded());
    let snapshot = telemetry.metrics.snapshot();
    assert_eq!(snapshot.counter(READS_ADMITTED_COUNTER), Some(1));
    assert_eq!(snapshot.counter(READS_SHED_COUNTER), Some(0));
    assert_eq!(snapshot.counter(BATCHES_COUNTER), Some(1));
}

#[test]
fn reads_arriving_while_the_worker_is_busy_coalesce_into_one_batch() {
    let telemetry = Telemetry::enabled();
    let (server, reads) = server_with(
        ServeConfig {
            pipeline_workers: 1,
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    let (collect, plain) = collect_sink();
    let (gate, gated) = gate_sink(&plain);
    // The idle worker claims read 0 alone and is then held inside its
    // delivery...
    server.submit(0, "q0", reads[0].clone(), &gated);
    gate.wait_entered(1);
    // ...so these five can only queue up behind it.
    let late = 5usize;
    for (i, read) in reads.iter().enumerate().skip(1).take(late) {
        let verdict = server.submit(i as u64, format!("q{i}"), read.clone(), &plain);
        assert_eq!(verdict, Admission::Admitted);
    }
    assert_eq!(server.inflight(), 1 + late);
    assert_eq!(collect.len(), 0);
    gate.open();
    server.drain();
    let responses = collect.take();
    assert_one_response_each(&responses, (1 + late) as u64);
    assert!(responses.iter().all(|r| !r.is_degraded()));
    // One batch of 1, then one batch of all five: batch size followed
    // the load with no knob involved.
    let snapshot = telemetry.metrics.snapshot();
    assert_eq!(snapshot.counter(BATCHES_COUNTER), Some(2));
}

#[test]
fn latency_stages_sum_to_the_request_latency() {
    let telemetry = Telemetry::enabled();
    let (server, reads) = server_with(
        ServeConfig {
            pipeline_workers: 1,
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    let (_collect, sink) = collect_sink();
    // A lone request first, so the sum is checked request by request...
    server.submit(0, "q0", reads[0].clone(), &sink);
    let stage_names = [QUEUE_WAIT_HISTOGRAM, EXECUTE_HISTOGRAM, DELIVER_HISTOGRAM];
    let sums = |expect_count: u64| {
        let snapshot = telemetry.metrics.snapshot();
        let hist = |name: &str| {
            let h = snapshot.histogram(name).expect("pre-registered").clone();
            assert_eq!(h.count, expect_count, "{name}");
            h.sum
        };
        let stages: u64 = stage_names.iter().map(|&name| hist(name)).sum();
        (stages, hist(REQUEST_LATENCY_HISTOGRAM))
    };
    // A read leaves `inflight` only after its histograms are recorded.
    while server.inflight() > 0 {
        std::thread::yield_now();
    }
    let (stages, latency) = sums(1);
    // Each stage truncates to whole microseconds on its own.
    assert!(
        stages <= latency && latency <= stages + 3,
        "{stages} vs {latency}"
    );
    let bucket = |v: u64| 64 - v.leading_zeros();
    assert!(
        bucket(latency) - bucket(stages) <= 1,
        "within one log2 bucket"
    );
    // ...then a burst, so it is checked in aggregate with real queueing.
    for (i, read) in reads.iter().enumerate().skip(1) {
        server.submit(i as u64, format!("q{i}"), read.clone(), &sink);
    }
    server.drain();
    let n = reads.len() as u64;
    let (stages, latency) = sums(n);
    assert!(
        stages <= latency && latency <= stages + 3 * n,
        "{stages} vs {latency}"
    );
}

#[test]
fn overload_at_twice_capacity_sheds_with_structured_rejections() {
    let telemetry = Telemetry::enabled();
    let capacity = 8usize;
    let (server, reads) = server_with(
        ServeConfig {
            max_inflight_reads: capacity,
            pipeline_workers: 1,
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    let (collect, plain) = collect_sink();
    let (gate, gated) = gate_sink(&plain);
    // Read 0 holds the only worker inside its delivery (and keeps its
    // admission slot), so every later admitted read stays pending and
    // the admission ledger is deterministic.
    let offered = capacity * 2;
    let verdicts: Vec<Admission> = reads
        .iter()
        .take(offered)
        .enumerate()
        .map(|(i, read)| {
            let sink = if i == 0 { &gated } else { &plain };
            let verdict = server.submit(i as u64, format!("q{i}"), read.clone(), sink);
            gate.wait_entered(1);
            verdict
        })
        .collect();
    // Exactly the first `capacity` fit; the second half sheds, each
    // with its rejection delivered before submit returned.
    assert!(verdicts[..capacity]
        .iter()
        .all(|v| *v == Admission::Admitted));
    assert!(verdicts[capacity..].iter().all(|v| *v == Admission::Shed));
    assert_eq!(collect.len(), capacity);
    assert_eq!(server.inflight(), capacity);

    gate.open();
    server.drain();
    let responses = collect.take();
    assert_one_response_each(&responses, offered as u64);
    for response in &responses {
        let shed = matches!(response.kind, ResponseKind::Shed);
        assert_eq!(shed, response.order >= capacity as u64);
        let mut line = Vec::new();
        genasm_mapper::sam::write_record(&mut line, &response.sam_record(RNAME)).unwrap();
        let line = String::from_utf8(line).unwrap();
        assert_eq!(shed, line.contains("XE:Z:shed"), "line: {line}");
    }
    let snapshot = telemetry.metrics.snapshot();
    assert_eq!(
        snapshot.counter(READS_ADMITTED_COUNTER),
        Some(capacity as u64)
    );
    assert_eq!(snapshot.counter(READS_SHED_COUNTER), Some(capacity as u64));
}

#[test]
fn expired_deadlines_tag_partials_and_count() {
    let telemetry = Telemetry::enabled();
    let (server, reads) = server_with(
        ServeConfig {
            batch_reads: 4,
            // Already expired at admission: every read must come back
            // Incomplete, tagged, and counted — never lost.
            request_deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    let (collect, sink) = collect_sink();
    for (i, read) in reads.iter().take(4).enumerate() {
        server.submit(i as u64, format!("q{i}"), read.clone(), &sink);
    }
    server.drain();
    let responses = collect.take();
    assert_one_response_each(&responses, 4);
    for response in &responses {
        assert!(response.is_degraded());
        let mut line = Vec::new();
        genasm_mapper::sam::write_record(&mut line, &response.sam_record(RNAME)).unwrap();
        assert!(String::from_utf8(line).unwrap().contains("XE:Z:deadline"));
    }
    let snapshot = telemetry.metrics.snapshot();
    assert_eq!(snapshot.counter(READS_DEADLINE_DROPPED_COUNTER), Some(4));
}

#[test]
fn drain_answers_every_admitted_read() {
    let (server, reads) = server_with(
        ServeConfig {
            batch_reads: 5,
            pipeline_workers: 1,
            ..ServeConfig::default()
        },
        Telemetry::off(),
    );
    let (collect, plain) = collect_sink();
    let (gate, gated) = gate_sink(&plain);
    for (i, read) in reads.iter().enumerate() {
        let sink = if i == 0 { &gated } else { &plain };
        let verdict = server.submit(i as u64, format!("q{i}"), read.clone(), sink);
        assert_eq!(verdict, Admission::Admitted);
        gate.wait_entered(1);
    }
    // All but read 0 are still pending behind the held worker (31
    // reads, batches of 5): drain must claim and answer all of them.
    assert_eq!(collect.len(), 0);
    gate.open();
    server.drain();
    let responses = collect.take();
    assert_one_response_each(&responses, reads.len() as u64);
    assert!(responses.iter().all(|r| !r.is_degraded()));
}

/// A `Write` target that can be inspected from outside the sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn sam_writer_restores_submission_order() {
    let buf = SharedBuf::default();
    let writer = SamStreamWriter::new(buf.clone(), RNAME);
    for order in [2u64, 0, 1] {
        writer.deliver(Response {
            order,
            name: format!("q{order}"),
            seq: b"ACGT".to_vec(),
            kind: ResponseKind::Shed,
        });
    }
    writer.wait_delivered(3);
    assert_eq!(writer.delivered(), 3);
    assert_eq!(writer.write_errors(), 0);
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let qnames: Vec<&str> = text
        .lines()
        .map(|l| l.split('\t').next().unwrap())
        .collect();
    assert_eq!(qnames, ["q0", "q1", "q2"]);
}

#[test]
fn tcp_round_trip_returns_ordered_sam_per_connection() {
    let telemetry = Telemetry::enabled();
    let (genome, reads) = fixture();
    let rlen = genome.sequence().len();
    let mapper =
        ReadMapper::build(genome.sequence(), MapperConfig::default()).with_telemetry(telemetry);
    let engine = mapper.engine(1, DcDispatch::default());
    let server = Server::start(
        mapper,
        engine,
        ServeConfig {
            batch_reads: 3,
            ..ServeConfig::default()
        },
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let n_reads = 5usize;

    let client_output = std::thread::scope(|scope| {
        let listener_thread = scope.spawn(|| {
            serve_listener(
                &server,
                &listener,
                RNAME,
                rlen,
                ParseMode::Strict,
                &shutdown,
            )
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        for (i, read) in reads.iter().take(n_reads).enumerate() {
            let seq = String::from_utf8(read.clone()).unwrap();
            let qual = "I".repeat(read.len());
            write!(client, "@q{i}\n{seq}\n+\n{qual}\n").expect("send FASTQ");
        }
        // Closing the write half is the client's end-of-stream; the
        // server answers everything in flight, then closes.
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut output = String::new();
        BufReader::new(&client)
            .read_to_string(&mut output)
            .expect("read SAM stream to EOF");
        shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
        listener_thread.join().expect("listener thread").unwrap();
        output
    });
    server.drain();

    let lines: Vec<&str> = client_output.lines().collect();
    let (header, records): (Vec<&str>, Vec<&str>) = lines.iter().partition(|l| l.starts_with('@'));
    assert!(
        header.iter().any(|l| l.contains(&format!("SN:{RNAME}"))),
        "SAM header names the reference: {header:?}"
    );
    let qnames: Vec<&str> = records
        .iter()
        .map(|l| l.split('\t').next().unwrap())
        .collect();
    let expected: Vec<String> = (0..n_reads).map(|i| format!("q{i}")).collect();
    assert_eq!(qnames, expected, "one record per read, in send order");
}
