//! The two serve workloads: an open-loop arrival schedule into an
//! in-process `Server` (one pipeline worker) over the `map_short_unique`
//! genome and read pool.
//!
//! Open loop: request `i` of a segment is due at `i / rate` seconds,
//! whatever the server is doing, and its latency is timed from that due
//! instant — so a stall charges every request it delays. The generator
//! sleeps until 200 µs before a due time and spins the rest; how late it
//! still ran is reported (`bench.gen_lag_p99_us`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Admission, FastqRecord, ReadOutcome, Response, ResponseKind, ResponseSink, Server,
    Telemetry,
};
use crate::check;
use crate::gen::SimRead;
use crate::map;
use crate::metrics::{Values, RUN_SECONDS};
use crate::run::{complain, timed_setups, Opts, Outcome, PassClock, MIN_PASSES};
use crate::stats::{median, quantile_sorted, ratio, sorted};
use crate::trace::Tracer;

/// Offered load in reads per second.
fn rate(workload: &str) -> f64 {
    match workload {
        "serve_light" => 1000.0,
        _ => 2500.0,
    }
}

/// Length of one segment of the arrival schedule — one pass. A tenth of
/// the run, so a run has at least ten.
fn segment_seconds(opts: &Opts) -> f64 {
    if opts.smoke {
        0.25
    } else if opts.trace {
        RUN_SECONDS as f64 / 10.0
    } else {
        opts.seconds / 10.0
    }
}

#[derive(Default)]
struct Slot {
    deliveries: u32,
    at: Duration,
    response: Option<Response>,
}

/// Timestamps every delivery against the segment's start.
struct TimedSink {
    started: Instant,
    slots: Mutex<Vec<Slot>>,
    delivered: AtomicUsize,
}

impl ResponseSink for TimedSink {
    fn deliver(&self, response: Response) {
        let at = self.started.elapsed();
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = slots.get_mut(response.order as usize) {
            slot.deliveries += 1;
            slot.at = at;
            slot.response = Some(response);
        }
        drop(slots);
        self.delivered.fetch_add(1, Ordering::Release);
    }
}

struct Segment {
    /// Due-time-to-delivery latency of every answered request, ms.
    latency_ms: Vec<f64>,
    /// How late after its due time each request was submitted, µs.
    lag_us: Vec<f64>,
    /// Answers per second between the first and the last delivery.
    achieved_per_s: Option<f64>,
    requests: usize,
    failed: usize,
    mapped: usize,
    at_origin: usize,
    complaints: Vec<String>,
}

/// What each served answer is compared with: the batch path's outcome
/// for the same read and its SAM bytes — themselves checked like a map
/// pass's output.
struct Expected {
    outcomes: Vec<ReadOutcome>,
    sam: Vec<Vec<u8>>,
    verdict: map::Verdict,
}

fn batch_path_answers(setup: &map::Setup, truth: &[SimRead]) -> Expected {
    let reads: Vec<&[u8]> = setup.reads.iter().map(|r| &r.seq[..]).collect();
    let (outcomes, _) = adapter::map_batch(&setup.mapper, &reads, &setup.engine);
    let verdict = map::verify(&setup.mapper, &setup.reference, truth, &outcomes);
    let sam = setup
        .reads
        .iter()
        .zip(&outcomes)
        .map(|(record, outcome)| {
            let mut line = Vec::new();
            adapter::render_sam(&record.id, &record.seq, outcome, &mut line);
            line
        })
        .collect();
    Expected {
        outcomes,
        sam,
        verdict,
    }
}

struct Client<'a> {
    server: &'a Server,
    pool: &'a [FastqRecord],
    truth: &'a [SimRead],
    expected: &'a Expected,
    budget: usize,
    rate: f64,
}

impl<'a> Client<'a> {
    fn new(built: &'a Built, inputs: &'a map::Inputs, expected: &'a Expected, rate: f64) -> Self {
        Client {
            server: &built.server,
            pool: &built.pool,
            truth: &inputs.truth,
            expected,
            budget: built.budget,
            rate,
        }
    }

    /// Plays `count` requests starting at pool index `first`, waits for
    /// every answer, and checks each one.
    fn segment(&self, first: usize, count: usize, tracer: &mut Tracer) -> Segment {
        let sink = Arc::new(TimedSink {
            started: Instant::now(),
            slots: Mutex::new((0..count).map(|_| Slot::default()).collect()),
            delivered: AtomicUsize::new(0),
        });
        let handle: Arc<dyn ResponseSink> = sink.clone();
        let spin = Duration::from_micros(200);
        let mut lag_us = Vec::with_capacity(count);
        let mut shed = 0usize;
        let schedule = tracer.begin("bench.arrival_schedule");
        for i in 0..count {
            let due = Duration::from_secs_f64(i as f64 / self.rate);
            let now = loop {
                let now = sink.started.elapsed();
                if now >= due {
                    break now;
                }
                let left = due - now;
                if left > spin {
                    std::thread::sleep(left - spin);
                } else {
                    std::hint::spin_loop();
                }
            };
            lag_us.push((now - due).as_secs_f64() * 1e6);
            let record = &self.pool[(first + i) % self.pool.len()];
            let span = tracer.begin("serve.submit");
            let admission =
                self.server
                    .submit(i as u64, record.id.clone(), record.seq.clone(), &handle);
            tracer.end(span);
            shed += usize::from(admission == Admission::Shed);
        }
        tracer.end(schedule);

        // Every request is owed exactly one answer; allow the stragglers
        // ten seconds before calling them lost.
        let span = tracer.begin("serve.await_answers");
        let patience = Instant::now();
        while sink.delivered.load(Ordering::Acquire) < count
            && patience.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_micros(500));
        }
        tracer.end(span);

        let slots = std::mem::take(&mut *sink.slots.lock().unwrap_or_else(|e| e.into_inner()));
        let deliveries: Vec<u32> = slots.iter().map(|s| s.deliveries).collect();
        let (dropped, duplicated) = check::delivery_faults(&deliveries);
        let mut seg = Segment {
            latency_ms: Vec::with_capacity(count),
            lag_us,
            achieved_per_s: None,
            requests: count,
            failed: 0,
            mapped: 0,
            at_origin: 0,
            complaints: Vec::new(),
        };
        if dropped + duplicated + shed > 0 {
            seg.complaints.push(format!(
                "{dropped} requests never answered, {duplicated} answered twice, {shed} shed"
            ));
        }
        let mut line = Vec::new();
        let (mut first_at, mut last_at) = (Duration::MAX, Duration::ZERO);
        let mut answered = 0usize;
        for (i, slot) in slots.iter().enumerate() {
            let pool_index = (first + i) % self.pool.len();
            let Some(response) = &slot.response else {
                seg.failed += 1;
                continue;
            };
            answered += 1;
            first_at = first_at.min(slot.at);
            last_at = last_at.max(slot.at);
            let due = Duration::from_secs_f64(i as f64 / self.rate);
            seg.latency_ms
                .push(slot.at.saturating_sub(due).as_secs_f64() * 1e3);
            line.clear();
            adapter::render_response_sam(response, &mut line);
            let clean = match &response.kind {
                ResponseKind::Outcome(ReadOutcome::Mapped(m)) => {
                    seg.mapped += 1;
                    seg.at_origin += usize::from(check::recovers_origin(
                        &self.truth[pool_index],
                        m,
                        self.budget,
                    ));
                    true
                }
                ResponseKind::Outcome(ReadOutcome::Unmapped) => true,
                // Shed, poisoned and deadline-dropped reads are failures.
                _ => false,
            };
            let same = match &response.kind {
                ResponseKind::Outcome(o) => *o == self.expected.outcomes[pool_index],
                ResponseKind::Shed => false,
            } && line == self.expected.sam[pool_index];
            if slot.deliveries != 1 || !clean || !same {
                seg.failed += 1;
                complain(&mut seg.complaints, format!(
                        "request {i} (read {pool_index}): deliveries {}, clean {clean}, equals batch path {same}",
                        slot.deliveries
                    ));
            }
        }
        if answered >= 2 {
            seg.achieved_per_s = ratio((answered - 1) as f64, (last_at - first_at).as_secs_f64());
        }
        seg
    }
}

fn percentile(values: &[f64], q: f64) -> Option<f64> {
    (!values.is_empty()).then(|| quantile_sorted(&sorted(values), q))
}

/// A started server, the read pool it is fed from, and the mapper's
/// edit budget for a pool read (all reads share a length class).
struct Built {
    server: Server,
    pool: Vec<FastqRecord>,
    budget: usize,
}

/// Builds everything the passes reuse, ending with `Server::start`, and
/// returns it with the seconds that count as set-up. While `expected` is
/// still empty it also maps the pool on the batch path (untimed) to get
/// the answers every served response must equal.
fn build(
    inputs: &map::Inputs,
    expected: &mut Option<Expected>,
    telemetry: Option<&Telemetry>,
    tracer: &mut Tracer,
) -> (Built, f64) {
    let t = Instant::now();
    let mut setup = map::setup(inputs, tracer);
    let mut seconds = t.elapsed().as_secs_f64();
    if expected.is_none() {
        *expected = Some(batch_path_answers(&setup, &inputs.truth));
    }
    let budget = adapter::error_budget(&setup.mapper, inputs.truth[0].seq.len());
    let t = Instant::now();
    if let Some(telemetry) = telemetry {
        setup.mapper = setup.mapper.with_telemetry(telemetry.clone());
        setup.engine = setup.engine.with_telemetry(telemetry.clone());
    }
    let span = tracer.begin("serve.start");
    let server = adapter::start_server(setup.mapper, setup.engine);
    tracer.end(span);
    seconds += t.elapsed().as_secs_f64();
    let built = Built {
        server,
        pool: setup.reads,
        budget,
    };
    (built, seconds)
}

/// What both run kinds conclude from the batch path's verdict and the
/// segments: the requirements on the expected answers, the overload
/// flag, and the checkers' complaints.
fn conclude(
    out: &mut Outcome,
    verdict: &map::Verdict,
    segments: &[Segment],
    achieved: &[f64],
    offered: f64,
) {
    out.require(
        verdict.failed == 0,
        "the batch path's own mappings fail the checkers",
    );
    out.require(
        verdict.oracle_mismatches == 0,
        "engine results differ from the scalar oracle",
    );
    if !achieved.is_empty() && median(achieved) < 0.98 * offered {
        out.notes.push(format!(
            "OVERLOADED: achieved {:.1} reads/s of {offered} offered",
            median(achieved)
        ));
    }
    out.notes.extend(verdict.complaints.iter().cloned());
    out.notes
        .extend(segments.iter().flat_map(|s| s.complaints.iter().cloned()));
}

pub fn run_end_to_end(opts: &Opts) -> Outcome {
    let mut tracer = Tracer::new(false);
    let spec = map::spec("map_short_unique", opts.smoke);
    let inputs = map::generate(&spec, opts.seed);
    let mut expected = None;
    let (built, setup_times) = timed_setups(|| build(&inputs, &mut expected, None, &mut tracer));
    let expected = expected.expect("the first build maps the pool");
    let verdict = &expected.verdict;
    let client = Client::new(&built, &inputs, &expected, rate(&opts.workload));
    let pool = &built.pool;
    let count = (client.rate * segment_seconds(opts)).round() as usize;
    // One untimed cold segment, then segments for `--seconds`.
    client.segment(0, count, &mut tracer);
    let mut clock = PassClock::start(opts);
    let mut segments = Vec::new();
    while clock.another_pass() {
        let first = (segments.len() + 1) * count % pool.len();
        segments.push(client.segment(first, count, &mut tracer));
    }

    let mut values = Values::end_to_end();
    values.set_summary("setup_s", &setup_times);
    let collect = |f: &dyn Fn(&Segment) -> Option<f64>| -> Vec<f64> {
        segments.iter().filter_map(f).collect()
    };
    let achieved = collect(&|s| s.achieved_per_s);
    let p50 = collect(&|s| percentile(&s.latency_ms, 0.50));
    let p99 = collect(&|s| percentile(&s.latency_ms, 0.99));
    let requests: usize = segments.iter().map(|s| s.requests).sum();
    let mapped: usize = segments.iter().map(|s| s.mapped).sum();
    let at_origin: usize = segments.iter().map(|s| s.at_origin).sum();
    let mut out;
    if achieved.is_empty() || p50.is_empty() {
        out = Outcome::new(values);
        out.require(false, "no segment delivered any answer");
    } else {
        values.set_summary("reads_per_s", &achieved);
        values.set(
            "pairs_per_s",
            median(&achieved) * mapped as f64 / requests as f64,
        );
        values.set_summary("request_latency_p50_ms", &p50);
        values.set_summary("request_latency_p99_ms", &p99);
        values.set("origin_recall", at_origin as f64 / requests as f64);
        values.set("optimal_frac", verdict.optimal_frac);
        out = Outcome::new(values);
    }
    out.attempted = requests as u64;
    out.failed = segments.iter().map(|s| s.failed as u64).sum::<u64>();
    out.require(
        segments.len() >= MIN_PASSES || opts.smoke,
        "fewer than 10 timed segments",
    );
    let lag = segments
        .iter()
        .flat_map(|s| s.lag_us.iter().copied())
        .collect::<Vec<_>>();
    if let Some(lag_p99) = percentile(&lag, 0.99) {
        out.notes
            .push(format!("generator lateness p99 {lag_p99:.1} us"));
    }
    conclude(
        &mut out,
        verdict,
        &segments,
        &achieved,
        rate(&opts.workload),
    );
    out
}

pub fn run_traced(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let spec = map::spec("map_short_unique", opts.smoke);
    let span = tracer.begin("bench.generate");
    let inputs = map::generate(&spec, opts.seed);
    tracer.end(span);
    let offered = rate(&opts.workload);
    let count = (offered * segment_seconds(opts)).round() as usize;
    let mut expected = None;
    let mut quiet = Tracer::new(false);

    // Untraced segments first: a server with telemetry off, no spans.
    let span = tracer.begin("bench.untraced_passes");
    let (built, _) = build(&inputs, &mut expected, None, &mut quiet);
    let expected_answers = expected.as_ref().expect("the first build maps the pool");
    let untraced_p50: Vec<f64> = {
        let client = Client::new(&built, &inputs, expected_answers, offered);
        client.segment(0, count, &mut quiet);
        (1..=3)
            .filter_map(|s| {
                let first = s * count % built.pool.len();
                percentile(&client.segment(first, count, &mut quiet).latency_ms, 0.5)
            })
            .collect()
    };
    drop(built);
    tracer.end(span);

    // Traced segments: telemetry on in mapper, engine and server.
    let telemetry = Telemetry::enabled();
    let span = tracer.begin("bench.setup");
    let (built, _) = build(&inputs, &mut expected, Some(&telemetry), tracer);
    let expected = expected.expect("the first build maps the pool");
    tracer.end(span);
    let pool = &built.pool;
    let client = Client::new(&built, &inputs, &expected, offered);
    tracer.set_pass(0);
    let span = tracer.begin("bench.cold_pass");
    client.segment(0, count, &mut quiet);
    tracer.end(span);
    let before = adapter::serve_figures(&telemetry);
    let mut segments = Vec::new();
    for s in 1..=3usize {
        tracer.set_pass(s as i64);
        let span = tracer.begin("bench.pass");
        segments.push(client.segment(s * count % pool.len(), count, tracer));
        tracer.end(span);
        drop(telemetry.tracer.take_events());
    }
    tracer.set_pass(-1);
    let after = adapter::serve_figures(&telemetry);

    let mut values = Values::per_layer();
    let requests: usize = segments.iter().map(|s| s.requests).sum();
    let batches = after.batches - before.batches;
    let mean_batch = ratio(requests as f64, batches as f64);
    values.set("serve.batches", batches as f64);
    values.set_ratio("serve.mean_batch_reads", mean_batch);
    values.set(
        "serve.reads_shed",
        (after.reads_shed - before.reads_shed) as f64,
    );
    values.set(
        "serve.reads_deadline_dropped",
        (after.reads_deadline_dropped - before.reads_deadline_dropped) as f64,
    );
    values.set(
        "serve.reads_poisoned",
        (after.reads_poisoned - before.reads_poisoned) as f64,
    );

    // serve.exec: the batch path on consecutive slices of the observed
    // mean batch size, timed from outside, on this thread.
    let span = tracer.begin("bench.layer_probes");
    let probe = map::setup(&inputs, &mut quiet);
    let slice = mean_batch.map_or(1, |m| (m.round() as usize).max(1));
    let reads: Vec<&[u8]> = probe.reads.iter().map(|r| &r.seq[..]).collect();
    let exec_us: Vec<f64> = reads
        .chunks_exact(slice)
        .map(|batch| {
            let timed = tracer.timed("mapper.map_batch", || {
                std::hint::black_box(adapter::map_batch(&probe.mapper, batch, &probe.engine));
            });
            timed.1 * 1e6
        })
        .collect();
    drop(probe);
    let verdict = &expected.verdict;
    tracer.end(span);

    let collect = |f: &dyn Fn(&Segment) -> Option<f64>| -> Vec<f64> {
        segments.iter().filter_map(f).collect()
    };
    let p50_ms = collect(&|s| percentile(&s.latency_ms, 0.50));
    let achieved = collect(&|s| s.achieved_per_s);
    if !exec_us.is_empty() {
        let exec = median(&exec_us);
        values.set("serve.exec_us_per_batch", exec);
        if !p50_ms.is_empty() {
            // Derived: what a median request spent not executing.
            let wait_ms = (median(&p50_ms) - exec / 1e3).max(0.0);
            values.set("serve.wait_ms_p50", wait_ms);
            values.set_ratio("serve.wait_over_exec", ratio(wait_ms, exec / 1e3));
        }
    }
    if let Some(server_p50) = after.server_latency_p50_us {
        values.set("serve.server_latency_p50_us", server_p50);
        if !p50_ms.is_empty() {
            values.set(
                "serve.client_minus_server_p50_us",
                (median(&p50_ms) * 1e3 - server_p50).max(0.0),
            );
        }
    }
    if !p50_ms.is_empty() && !untraced_p50.is_empty() {
        values.set_ratio(
            "obs.overhead_frac",
            ratio(median(&p50_ms), median(&untraced_p50)).map(|r| (r - 1.0).max(0.0)),
        );
    }
    let lag: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.lag_us.iter().copied())
        .collect();
    if let Some(lag_p99) = percentile(&lag, 0.99) {
        values.set("bench.gen_lag_p99_us", lag_p99);
    }
    values.set("bench.offered_reads_per_s", offered);
    if !achieved.is_empty() {
        values.set("bench.achieved_reads_per_s", median(&achieved));
    }
    values.set("bench.passes", segments.len() as f64);

    let mut out = Outcome::new(values);
    out.attempted = requests as u64;
    out.failed = segments.iter().map(|s| s.failed as u64).sum::<u64>();
    conclude(&mut out, verdict, &segments, &achieved, offered);
    out
}
