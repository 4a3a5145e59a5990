//! The unit of work the engine schedules.

use genasm_core::align::Alignment;
use genasm_core::error::AlignError;

/// One alignment job: a reference region (text) and a read (pattern),
/// both owned so jobs can cross thread boundaries and outlive their
/// producer in the streaming API. The `key` is an opaque caller tag
/// carried through scheduling untouched, so batch producers (the read
/// mapper tags jobs with candidate-table indices) can route results
/// without keeping a side table in job order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The text (reference region) the pattern is aligned against,
    /// anchored at its start.
    pub text: Vec<u8>,
    /// The pattern (read).
    pub pattern: Vec<u8>,
    /// Caller-assigned tag returned with the job's result by
    /// [`Engine::align_batch_keyed`](crate::Engine::align_batch_keyed).
    pub key: u64,
}

impl Job {
    /// Builds a job from borrowed sequences (key 0).
    pub fn new(text: &[u8], pattern: &[u8]) -> Self {
        Job {
            text: text.to_vec(),
            pattern: pattern.to_vec(),
            key: 0,
        }
    }

    /// Builds a job from owned sequences without copying (key 0).
    pub fn from_owned(text: Vec<u8>, pattern: Vec<u8>) -> Self {
        Job {
            text,
            pattern,
            key: 0,
        }
    }

    /// Tags the job with a caller key.
    #[must_use]
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = key;
        self
    }

    /// Pattern length in bases — the per-job work unit used for
    /// base-throughput accounting.
    pub fn pattern_bases(&self) -> usize {
        self.pattern.len()
    }
}

/// Why one job produced no alignment. The per-job granularity is the
/// fault-containment contract: a panicking or cancelled job is
/// quarantined into its own `Err` slot while the rest of the batch
/// completes and drains normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The kernel rejected the job's inputs (the ordinary per-job
    /// error path; see [`AlignError`]).
    Align(AlignError),
    /// The kernel panicked while executing this job. The worker caught
    /// the unwind, discarded and rebuilt its scratch arenas, and
    /// completed the rest of its work; only this job is poisoned.
    Panicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The batch's deadline expired or its [`CancelToken`]
    /// (crate::CancelToken) fired before this job was claimed. The
    /// job never ran; results for claimed jobs are still returned.
    Cancelled,
}

impl JobError {
    /// The underlying kernel error, when this is an ordinary
    /// [`Align`](Self::Align) failure.
    pub fn as_align(&self) -> Option<&AlignError> {
        match self {
            JobError::Align(e) => Some(e),
            _ => None,
        }
    }

    /// Whether the job was quarantined after a kernel panic.
    pub fn is_panic(&self) -> bool {
        matches!(self, JobError::Panicked { .. })
    }

    /// Whether the job was skipped by a deadline or cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, JobError::Cancelled)
    }
}

impl From<AlignError> for JobError {
    fn from(e: AlignError) -> Self {
        JobError::Align(e)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Align(e) => write!(f, "{e}"),
            JobError::Panicked { message } => write!(f, "kernel panicked: {message}"),
            JobError::Cancelled => write!(f, "cancelled before execution (deadline expired)"),
        }
    }
}

impl std::error::Error for JobError {}

/// One job's outcome paired with the job's caller key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedResult {
    /// The key of the job that produced this result.
    pub key: u64,
    /// The alignment outcome.
    pub result: Result<Alignment, JobError>,
}

/// One **phase-1** unit of work of the two-phase alignment path: a
/// distance-only anchored scan of `pattern` against `text`, bounded by
/// `k_max` distance rows. No traceback state is ever stored for a
/// distance job — the mapper resolves each read's best candidate on
/// these distances and only per-read winners become full [`Job`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceJob {
    /// The text (reference region) the pattern is scanned against,
    /// anchored at its start.
    pub text: Vec<u8>,
    /// The pattern (read).
    pub pattern: Vec<u8>,
    /// Distance-row budget: scans report `None` past this depth.
    pub k_max: usize,
    /// Caller-assigned tag returned with the job's result by
    /// [`Engine::distance_batch_keyed`](crate::Engine::distance_batch_keyed).
    pub key: u64,
}

impl DistanceJob {
    /// Builds a distance job from borrowed sequences (key 0).
    pub fn new(text: &[u8], pattern: &[u8], k_max: usize) -> Self {
        DistanceJob {
            text: text.to_vec(),
            pattern: pattern.to_vec(),
            k_max,
            key: 0,
        }
    }

    /// Tags the job with a caller key.
    #[must_use]
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = key;
        self
    }

    /// Pattern length in bases — the per-job work unit used for
    /// base-throughput accounting.
    pub fn pattern_bases(&self) -> usize {
        self.pattern.len()
    }
}

/// One distance job's outcome paired with the job's caller key.
/// `Ok(None)` means the anchored distance exceeds the job's `k_max`
/// (so `k_max + 1` is a valid lower bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedDistance {
    /// The key of the job that produced this result.
    pub key: u64,
    /// The distance outcome.
    pub result: Result<Option<usize>, JobError>,
}
