//! # genasm-serve
//!
//! A fault-contained streaming front-end over the GenASM mapping
//! pipeline: reads arrive continuously (FASTQ on stdin or a
//! line-framed TCP socket) and flow through the staged pipeline as
//! micro-batches — each pipeline worker claims whatever is pending the
//! moment it is idle — with multiple micro-batches in flight at once.
//! Where `genasm map` is a batch job — everything-in, everything-out —
//! `genasm serve` is a long-running process with the robustness
//! properties a front-end needs:
//!
//! * **Bounded admission.** At most `max_inflight_reads` admitted
//!   reads are unresponded at any instant; memory under overload is
//!   bounded by configuration, not offered load.
//! * **Explicit load-shedding.** A read refused at admission is never
//!   silently dropped — it gets an immediate structured rejection
//!   (SAM record tagged `XE:Z:shed`) through the same response path
//!   as served reads, so *every* submitted read gets exactly one
//!   response.
//! * **Per-request deadlines.** Each admitted read carries an
//!   admission-stamped deadline ([`ServeConfig::request_deadline`]);
//!   a micro-batch runs under its earliest member's deadline via the
//!   engine's [`CancelToken`](genasm_engine::CancelToken), and
//!   cut-off reads resolve as partials tagged `XE:Z:deadline`.
//! * **Panic quarantine.** A kernel panic poisons only its own read
//!   (the engine's per-job containment); a panic anywhere else in
//!   batch processing poisons only that micro-batch. The worker pool
//!   and every other in-flight request are unaffected.
//! * **Damaged-input resilience.** Lenient parse mode resynchronizes
//!   at the next record boundary instead of tearing the session down.
//! * **Graceful drain.** Shutdown stops admission, finishes every
//!   in-flight read, flushes the response stream, and exits cleanly —
//!   no admitted read is ever lost.
//!
//! The serving core is thread-based and std-only, like the engine's
//! [`EngineStream`](genasm_engine::EngineStream): `pipeline_workers`
//! persistent workers each claim up to `batch_reads` pending reads
//! whenever they are idle and drive them as one micro-batch through
//! [`ReadMapper::map_batch_resilient`](genasm_mapper::ReadMapper::map_batch_resilient).
//! The serve path is work-conserving: no timer, no hand-off thread — a
//! read waits only while every worker is busy, and that is also the
//! only time batches grow.
//! Responses return through per-client [`ResponseSink`]s;
//! [`SamStreamWriter`] restores submission order with a reorder
//! buffer keyed on front-end-assigned sequence numbers.
//!
//! Observability rides on `genasm-obs` (`serve.*` counters, gauges,
//! and the `serve.request_latency_us` histogram with its queue-wait /
//! execute / deliver split — see `docs/TELEMETRY.md`), and the `chaos` feature arms two serve-layer
//! failpoints (`serve.conn.drop`, `serve.batch.delay`) so the
//! containment story is testable end to end. See `docs/SERVING.md`
//! for the protocol, the degradation taxonomy, and capacity planning.
//!
//! # Quick example
//!
//! ```
//! use genasm_engine::DcDispatch;
//! use genasm_mapper::{MapperConfig, ReadMapper};
//! use genasm_serve::{Admission, CollectSink, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let reference = b"ACGTTTGCATTTACGGTTACATTGCAACGTTTGCATTTACGGATTACATTGCA".repeat(4);
//! let mapper = ReadMapper::build(&reference, MapperConfig::default());
//! let engine = mapper.engine(1, DcDispatch::Lockstep);
//! let server = Server::start(mapper, engine, ServeConfig::default());
//!
//! let sink = Arc::new(CollectSink::default());
//! let handle: Arc<dyn genasm_serve::ResponseSink> = sink.clone();
//! let admitted = server.submit(0, "r0", reference[8..40].to_vec(), &handle);
//! assert_eq!(admitted, Admission::Admitted);
//! server.drain(); // finishes in-flight reads; exactly one response
//! assert_eq!(sink.take().len(), 1);
//! ```

pub mod net;
pub mod respond;
pub mod server;

pub use net::{pump, serve_listener, PumpReport, CONNS_COUNTER, CONNS_DROPPED_COUNTER};
pub use respond::{Response, ResponseKind, ResponseSink, SamStreamWriter};
pub use server::{
    Admission, ServeConfig, Server, BATCHES_COUNTER, BATCHES_INFLIGHT_GAUGE, DELIVER_HISTOGRAM,
    EXECUTE_HISTOGRAM, QUEUE_DEPTH_GAUGE, QUEUE_WAIT_HISTOGRAM, READS_ADMITTED_COUNTER,
    READS_DEADLINE_DROPPED_COUNTER, READS_POISONED_COUNTER, READS_SHED_COUNTER,
    REQUEST_LATENCY_HISTOGRAM,
};

use std::sync::{Arc, Condvar, Mutex};

/// A [`ResponseSink`] that buffers responses in memory — the building
/// block for tests and for callers that post-process rather than
/// stream (order is *delivery* order; sort by [`Response::order`] to
/// recover submission order).
#[derive(Default)]
pub struct CollectSink {
    responses: Mutex<Vec<Response>>,
}

impl CollectSink {
    /// Takes everything delivered so far.
    pub fn take(&self) -> Vec<Response> {
        std::mem::take(&mut self.responses.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Responses delivered so far.
    pub fn len(&self) -> usize {
        self.responses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Whether nothing has been delivered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ResponseSink for CollectSink {
    fn deliver(&self, response: Response) {
        self.responses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(response);
    }
}

/// A [`ResponseSink`] that holds every delivering thread inside
/// `deliver` until the gate is [`open`](GateSink::open)ed, then
/// forwards to `inner`. It is how tests and benches keep a pipeline
/// worker busy without a clock: reads submitted while a worker is held
/// stay pending (and keep their admission slots), so coalescing and
/// overload ledgers are deterministic.
pub struct GateSink {
    inner: Arc<dyn ResponseSink>,
    /// Deliveries that have entered the gate, and whether it is open.
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl GateSink {
    /// A closed gate in front of `inner`.
    pub fn new(inner: Arc<dyn ResponseSink>) -> Self {
        GateSink {
            inner,
            state: Mutex::new((0, false)),
            changed: Condvar::new(),
        }
    }

    /// Blocks until `n` deliveries have entered the gate — while it is
    /// closed, that many workers are being held.
    pub fn wait_entered(&self, n: usize) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        drop(
            self.changed
                .wait_while(state, |(entered, _)| *entered < n)
                .unwrap_or_else(|e| e.into_inner()),
        );
    }

    /// Opens the gate for good: held deliveries proceed, later ones
    /// pass straight through.
    pub fn open(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
        self.changed.notify_all();
    }
}

impl ResponseSink for GateSink {
    fn deliver(&self, response: Response) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.0 += 1;
        self.changed.notify_all();
        drop(
            self.changed
                .wait_while(state, |(_, open)| !*open)
                .unwrap_or_else(|e| e.into_inner()),
        );
        self.inner.deliver(response);
    }
}
