//! What every workload's run shares: options, the outcome record, the
//! pass clock, repeated set-up, and fixed samples.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use crate::adapter;
use crate::metrics::Values;
use crate::stats::{median, ratio};
use crate::trace::Tracer;

/// A run with fewer timed passes than this is flagged: its medians rest
/// on too few samples.
pub const MIN_PASSES: usize = 10;

#[derive(Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/20-size inputs, 1 cold + 2 timed passes; numbers meaningless.
    pub smoke: bool,
    pub work_dir: PathBuf,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(values: Values) -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            values,
            notes: Vec::new(),
        }
    }

    /// The result line's `correct`: every check held and nothing failed.
    pub fn is_correct(&self) -> bool {
        self.correct && self.failed == 0
    }

    /// Marks the run incorrect, with the reason, unless `ok`.
    pub fn require(&mut self, ok: bool, otherwise: &str) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("INCORRECT: {otherwise}"));
        }
    }
}

/// Decides whether a run makes another timed pass: two in smoke mode,
/// otherwise until `--seconds` of measuring have elapsed.
pub struct PassClock {
    started: Instant,
    seconds: f64,
    smoke: bool,
    passes: usize,
}

impl PassClock {
    pub fn start(opts: &Opts) -> Self {
        PassClock {
            started: Instant::now(),
            seconds: opts.seconds,
            smoke: opts.smoke,
            passes: 0,
        }
    }

    pub fn another_pass(&mut self) -> bool {
        let go = if self.smoke {
            self.passes < 2
        } else {
            self.started.elapsed().as_secs_f64() < self.seconds
        };
        self.passes += usize::from(go);
        go
    }
}

/// How many times a run builds its long-lived objects; `setup_s` is the
/// median. Fixed, so every run of a workload allocates the same way.
pub const SETUP_BUILDS: usize = 5;

/// Builds the long-lived objects [`SETUP_BUILDS`] times, dropping each
/// build before the next so peak memory stays one build's. `build`
/// returns what it built and the seconds it counts as set-up. Returns
/// the last build and every build's seconds.
pub fn timed_setups<T>(mut build: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    loop {
        let (built, seconds) = build();
        times.push(seconds);
        if times.len() == SETUP_BUILDS {
            return (built, times);
        }
        drop(built);
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Keeps the first few complaints of a checker; the count of failures
/// is kept elsewhere, these are only for the report.
pub fn complain(complaints: &mut Vec<String>, complaint: String) {
    if complaints.len() < 5 {
        complaints.push(complaint);
    }
}

/// The `seq` layer metrics: each parser alone over the run's input
/// bytes, median of three.
pub fn probe_parsers(fasta: &[u8], fastq: &[u8], values: &mut Values, tracer: &mut Tracer) {
    let fasta_s = median_of(3, || {
        tracer
            .timed("seq.parse_fasta", || {
                black_box(adapter::parse_fasta(black_box(fasta)).expect("generated FASTA parses"));
            })
            .1
    });
    let fastq_s = median_of(3, || {
        tracer
            .timed("seq.parse_fastq", || {
                black_box(adapter::parse_fastq(black_box(fastq)).expect("generated FASTQ parses"));
            })
            .1
    });
    values.set("seq.fasta_parse_s", fasta_s);
    values.set("seq.fastq_parse_s", fastq_s);
    values.set_ratio(
        "seq.fastq_parse_mb_per_s",
        ratio(fastq.len() as f64 / 1e6, fastq_s),
    );
}

/// Median of `reps` timings returned by `once`.
pub fn median_of(reps: usize, mut once: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| once()).collect::<Vec<_>>())
}

/// A fixed, evenly spread sample of at most `want` of `n` items.
pub fn sample_indices(n: usize, want: usize) -> Vec<usize> {
    let take = want.min(n);
    (0..take).map(|i| i * n / take).collect()
}
