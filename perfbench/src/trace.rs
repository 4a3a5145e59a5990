//! Harness-side spans around each call into a layer.
//!
//! Spans are kept in memory and written as Chrome trace-event JSON when
//! the run ends. A span's layer is the part of its name before the first
//! dot (`mapper.map_batch` belongs to `mapper`; `bench.*` is the
//! harness's own work). Recording is off for end-to-end runs: `begin`
//! and `end` then do nothing and never read the clock.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Pass index the span belongs to; -1 outside any pass.
    pub pass: i64,
}

/// Handle of an open span (`None` while recording is off).
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: i64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: -1,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `pass` (-1 = outside passes).
    pub fn set_pass(&mut self, pass: i64) {
        self.pass = pass;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the seconds it took (measured whether or not spans are recorded).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.begin(name);
        let started = Instant::now();
        let out = f();
        let seconds = started.elapsed().as_secs_f64();
        self.end(span);
        (out, seconds)
    }

    /// Share of the time since the tracer was created that top-level
    /// spans cover.
    pub fn coverage(&self) -> Option<f64> {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        crate::stats::ratio(covered as f64, self.now_ns() as f64)
    }

    /// Per span name: `(calls, total seconds, self seconds)`, where self
    /// time is the span minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 / 1e9;
            entry.2 += total.saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`ph: X`) event per span, timestamps in microseconds.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"pass\":{}}}}}",
                span.name,
                layer,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                i,
                parent,
                workload,
                span.pass,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
