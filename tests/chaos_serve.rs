//! Serve-layer containment, end to end (compiled only with
//! `--features chaos`): under any seeded fault plan — kernel panics,
//! stalled micro-batches, dropped connections — every submitted read
//! still gets exactly one response, and reads the server does *not*
//! flag as degraded produce SAM output byte-identical to a fault-free
//! run.
//!
//! The chaos registry is process-global, so every test serializes on
//! one mutex and clears the plan through a drop guard.
#![cfg(feature = "chaos")]

use genasm::engine::DcDispatch;
use genasm::mapper::sam;
use genasm::mapper::{MapperConfig, ReadMapper};
use genasm::seq::genome::{Genome, GenomeBuilder};
use genasm::seq::ParseMode;
use genasm::serve::{
    serve_listener, CollectSink, Response, ResponseSink, ServeConfig, Server, CONNS_DROPPED_COUNTER,
};
use genasm_chaos::{sites, Fault, FaultPlan};
use genasm_obs::Telemetry;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::time::Duration;

const RNAME: &str = "chr_synth";

/// Serializes tests that install plans into the global registry.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Keeps the intentional panics out of the test output.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("chaos:"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("chaos:"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// Clears the installed plan when the test ends, pass or fail.
struct PlanGuard;

impl Drop for PlanGuard {
    fn drop(&mut self) {
        genasm_chaos::clear();
    }
}

/// A genome plus reads with clean, noisy, and unmappable members, so
/// faults can land in every pipeline stage.
fn fixture() -> (Genome, Vec<Vec<u8>>) {
    let genome = GenomeBuilder::new(30_000).seed(2020).build();
    let mut reads: Vec<Vec<u8>> = (0..18)
        .map(|i| {
            let start = 61 + 1_543 * i;
            let mut read = genome.region(start, start + 150).to_vec();
            if i % 2 == 1 {
                read[40] = match read[40] {
                    b'A' => b'C',
                    _ => b'A',
                };
            }
            read
        })
        .collect();
    reads.push(vec![b'T'; 150]);
    (genome, reads)
}

/// Runs every read through a serve session (small batches, several in
/// flight) and returns the responses in submission order.
fn serve_run(genome: &Genome, reads: &[Vec<u8>]) -> Vec<Response> {
    let mapper = ReadMapper::build(genome.sequence(), MapperConfig::default());
    let engine = mapper.engine(2, DcDispatch::default());
    let server = Server::start(
        mapper,
        engine,
        ServeConfig {
            batch_reads: 5,
            pipeline_workers: 2,
            ..ServeConfig::default()
        },
    );
    let collect = Arc::new(CollectSink::default());
    let sink: Arc<dyn ResponseSink> = collect.clone();
    for (i, read) in reads.iter().enumerate() {
        server.submit(i as u64, format!("read{i}"), read.clone(), &sink);
    }
    server.drain();
    let mut responses = collect.take();
    responses.sort_by_key(|r| r.order);
    responses
}

/// The exact SAM bytes a response renders to.
fn sam_line(response: &Response) -> String {
    let mut buf = Vec::new();
    sam::write_record(&mut buf, &response.sam_record(RNAME)).expect("in-memory write");
    String::from_utf8(buf).expect("SAM is ASCII")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// For any plan seed, with kernel panics and micro-batch stalls
    /// armed at once: every submitted read gets exactly one response,
    /// and every response the server does not flag as degraded is
    /// byte-identical to the fault-free run — regardless of how the
    /// faults reshaped batch boundaries and completion order.
    #[test]
    fn unaffected_requests_are_bit_identical_under_any_fault_plan(plan_seed in any::<u64>()) {
        let _serial = chaos_lock();
        quiet_injected_panics();
        genasm_chaos::clear();

        let (genome, reads) = fixture();
        let baseline = serve_run(&genome, &reads);
        prop_assert_eq!(baseline.len(), reads.len());
        prop_assert!(baseline.iter().all(|r| !r.is_degraded()));
        let expected: BTreeMap<&str, String> = baseline
            .iter()
            .map(|r| (r.name.as_str(), sam_line(r)))
            .collect();

        genasm_chaos::install(
            FaultPlan::new(plan_seed)
                .panic_at(sites::ENGINE_KERNEL_PANIC, 1, 6)
                .with_fault(sites::SERVE_BATCH_DELAY, Fault::Delay(Duration::from_millis(1)), 1, 3),
        );
        let _cleanup = PlanGuard;
        let faulted = serve_run(&genome, &reads);
        genasm_chaos::clear();

        // Exactly one response per submission, every submission.
        prop_assert_eq!(faulted.len(), reads.len());
        for (i, response) in faulted.iter().enumerate() {
            prop_assert_eq!(response.order, i as u64);
            if response.is_degraded() {
                continue; // quarantined or cut off: reported, not compared
            }
            prop_assert_eq!(
                &sam_line(response),
                &expected[response.name.as_str()],
                "read {} diverged from the fault-free run", i
            );
        }
    }
}

#[test]
fn a_poisoned_micro_batch_never_takes_down_its_neighbors() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    genasm_chaos::clear();

    let (genome, reads) = fixture();
    let baseline = serve_run(&genome, &reads);
    let expected: BTreeMap<&str, String> = baseline
        .iter()
        .map(|r| (r.name.as_str(), sam_line(r)))
        .collect();

    // Panic at the serve batch site itself: whole micro-batches are
    // quarantined before the pipeline even runs. The workers must
    // survive, every read must still be answered, and reads in
    // untouched batches must render identically. Batch sequence
    // numbers are contiguous from 0, so a seed whose plan mixes
    // armed/unarmed among the first four keys poisons a proper subset
    // for any batch count the 19-read run can produce (at least 4).
    let plan = (0..64)
        .map(|seed| FaultPlan::new(seed).with_fault(sites::SERVE_BATCH_DELAY, Fault::Panic, 1, 2))
        .find(|plan| {
            let armed = (0..4)
                .filter(|&k| plan.fault_at(sites::SERVE_BATCH_DELAY, k).is_some())
                .count();
            armed > 0 && armed < 4
        })
        .expect("some seed in 0..64 arms a proper subset of the first four batches");
    genasm_chaos::install(plan);
    let _cleanup = PlanGuard;
    let faulted = serve_run(&genome, &reads);
    genasm_chaos::clear();

    assert_eq!(faulted.len(), reads.len());
    let poisoned = faulted.iter().filter(|r| r.is_degraded()).count();
    assert!(
        poisoned > 0 && poisoned < reads.len(),
        "the plan must poison a proper subset of reads, got {poisoned}/{}",
        reads.len()
    );
    for response in faulted.iter().filter(|r| !r.is_degraded()) {
        assert_eq!(
            sam_line(response),
            expected[response.name.as_str()],
            "read in an untouched batch diverged"
        );
    }
}

#[test]
fn dropped_connections_leave_surviving_connections_untouched() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    genasm_chaos::clear();

    let (genome, reads) = fixture();
    let telemetry = Telemetry::enabled();
    let mapper = ReadMapper::build(genome.sequence(), MapperConfig::default())
        .with_telemetry(telemetry.clone());
    let engine = mapper.engine(2, DcDispatch::default());
    let server = Server::start(
        mapper,
        engine,
        ServeConfig {
            batch_reads: 4,
            ..ServeConfig::default()
        },
    );

    // Pick a seed whose plan drops a proper subset of the first six
    // accepted connections (fault selection is pure, so this scan is
    // deterministic).
    let conns = 6u64;
    let (seed, plan) = (0..64)
        .map(|seed| {
            (
                seed,
                FaultPlan::new(seed).with_fault(sites::SERVE_CONN_DROP, Fault::Truncate, 1, 2),
            )
        })
        .find(|(_, plan)| {
            let dropped = (0..conns)
                .filter(|&k| plan.fault_at(sites::SERVE_CONN_DROP, k).is_some())
                .count() as u64;
            dropped > 0 && dropped < conns
        })
        .expect("some seed in 0..64 drops a proper subset");
    let expect_dropped: Vec<bool> = (0..conns)
        .map(|k| plan.fault_at(sites::SERVE_CONN_DROP, k).is_some())
        .collect();
    genasm_chaos::install(plan);
    let _cleanup = PlanGuard;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let per_conn_reads = 3usize;

    let outputs: Vec<std::io::Result<String>> = std::thread::scope(|scope| {
        let listener_thread = scope.spawn(|| {
            serve_listener(
                &server,
                &listener,
                RNAME,
                genome.sequence().len(),
                ParseMode::Strict,
                &shutdown,
            )
        });
        // Strictly sequential connections, so client i is accept
        // index i and the plan's predictions line up. A dropped
        // connection resets mid-conversation, so every client IO step
        // tolerates errors — an IO error counts as "dropped" below.
        // Nothing in this closure may panic: an unwind would skip the
        // shutdown store and deadlock the scope on the listener join.
        let outputs = (0..conns as usize)
            .map(|_| {
                let talk = || -> std::io::Result<String> {
                    let mut client = TcpStream::connect(addr)?;
                    for (i, read) in reads.iter().take(per_conn_reads).enumerate() {
                        let seq = String::from_utf8(read.clone()).unwrap();
                        let qual = "I".repeat(read.len());
                        write!(client, "@q{i}\n{seq}\n+\n{qual}\n")?;
                    }
                    let _ = client.shutdown(Shutdown::Write);
                    let mut output = String::new();
                    client.read_to_string(&mut output)?;
                    Ok(output)
                };
                talk()
            })
            .collect();
        shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
        listener_thread.join().expect("listener thread").unwrap();
        outputs
    });
    server.drain();
    genasm_chaos::clear();

    for (k, output) in outputs.iter().enumerate() {
        if expect_dropped[k] {
            // A dropped connection either resets (IO error client-side)
            // or closes before any response bytes went out.
            assert!(
                output.as_ref().map_or(true, String::is_empty),
                "conn {k} (seed {seed}) was armed to drop but got data: {output:?}"
            );
        } else {
            let output = output
                .as_ref()
                .unwrap_or_else(|e| panic!("surviving conn {k} hit an IO error: {e}"));
            let records: Vec<&str> = output.lines().filter(|l| !l.starts_with('@')).collect();
            assert_eq!(
                records.len(),
                per_conn_reads,
                "surviving conn {k} must get one record per read"
            );
            let qnames: Vec<&str> = records
                .iter()
                .map(|l| l.split('\t').next().unwrap())
                .collect();
            let expected: Vec<String> = (0..per_conn_reads).map(|i| format!("q{i}")).collect();
            assert_eq!(qnames, expected, "surviving conn {k} order");
        }
    }
    let snapshot = telemetry.metrics.snapshot();
    let dropped = expect_dropped.iter().filter(|&&d| d).count() as u64;
    assert_eq!(snapshot.counter(CONNS_DROPPED_COUNTER), Some(dropped));
}
