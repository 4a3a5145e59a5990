//! Per-batch throughput and latency accounting.

use crate::job::JobError;
use genasm_core::align::Alignment;
use std::time::Duration;

/// Throughput and latency figures for one completed batch.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Jobs whose kernel returned an error.
    pub failures: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Total pattern bases aligned (successful and failed jobs).
    pub pattern_bases: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Sum of per-job kernel times across all workers (>= `wall` once
    /// more than one worker is busy).
    pub busy: Duration,
    /// Slowest single job under per-job (scalar) dispatch. Batched
    /// lock-step chunks interleave their jobs, so there this records
    /// the largest per-chunk mean instead — a lower bound on the
    /// slowest job. For exact per-job latencies (and percentiles)
    /// under any dispatch, attach a [`Telemetry`](genasm_obs::Telemetry)
    /// handle via [`Engine::with_telemetry`](crate::Engine::with_telemetry):
    /// the schedulers stamp each job as it enters a lane and record
    /// its true latency into the
    /// [`JOB_LATENCY_HISTOGRAM`](crate::obs::JOB_LATENCY_HISTOGRAM)
    /// when it retires.
    pub max_job: Duration,
    /// Lock-step DC lane-slots issued across all workers (every
    /// full-width recurrence row issues one slot per lane). Zero under
    /// scalar dispatch and for kernels without lock-step scheduling.
    pub dc_rows_issued: u64,
    /// The subset of issued lane-slots that advanced a loaded, still
    /// unresolved window — the rows that did useful work. The gap to
    /// `dc_rows_issued` is the waste from divergent window distances
    /// (chunked dispatch) and tail drain.
    pub dc_rows_useful: u64,
    /// Windows whose traceback was walked across the batch. Zero for
    /// distance-only batches and kernels without TB accounting.
    pub tb_windows: u64,
    /// Distance rows the walked tracebacks had available (`d + 1` per
    /// walked window) — the TB-SRAM row pressure the two-phase mapper
    /// cuts by tracing only per-read winners.
    pub tb_rows: u64,
    /// Distance-only (phase-1) jobs this batch ran; zero for full
    /// alignment batches.
    pub dc_distance_jobs: u64,
    /// Jobs quarantined after a kernel panic
    /// ([`JobError::Panicked`]); included in `failures`.
    pub jobs_poisoned: u64,
    /// Jobs skipped by a deadline or cancellation
    /// ([`JobError::Cancelled`]); included in `failures`.
    pub jobs_cancelled: u64,
    /// Whether the batch's deadline/cancellation fired before every
    /// job was claimed (the batch returned partial results).
    pub deadline_hit: bool,
}

impl BatchStats {
    /// Jobs per wall-clock second.
    pub fn pairs_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return f64::INFINITY;
        }
        self.jobs as f64 / self.wall.as_secs_f64()
    }

    /// Pattern bases per wall-clock second.
    pub fn bases_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return f64::INFINITY;
        }
        self.pattern_bases as f64 / self.wall.as_secs_f64()
    }

    /// Mean per-job kernel latency.
    pub fn mean_latency(&self) -> Duration {
        if self.jobs == 0 {
            return Duration::ZERO;
        }
        self.busy / self.jobs as u32
    }

    /// Lock-step lane occupancy: useful row-slots over issued
    /// row-slots, `None` when no lock-step rows ran (scalar dispatch,
    /// non-lock-step kernels). 1.0 means every lane of every lock-step
    /// recurrence row advanced an unresolved window; the chunked
    /// scheduler loses ~30% of slots to divergent window distances,
    /// which the persistent-lane scheduler recovers.
    pub fn lane_occupancy(&self) -> Option<f64> {
        lane_occupancy_ratio(self.dc_rows_issued, self.dc_rows_useful)
    }

    /// Parallel efficiency: busy time over `workers × wall`; 1.0 means
    /// every worker computed for the whole batch duration.
    pub fn utilization(&self) -> f64 {
        if self.wall.is_zero() || self.workers == 0 {
            return 0.0;
        }
        self.busy.as_secs_f64() / (self.wall.as_secs_f64() * self.workers as f64)
    }
}

/// Lock-step lane occupancy as a ratio — the one shared guard against
/// a 0/0 NaN when no lock-step rows ran. Every occupancy figure
/// ([`BatchStats::lane_occupancy`], the mapper's stage timings, the
/// bench JSONs) derives from this helper so the accounting cannot
/// silently diverge between layers.
pub fn lane_occupancy_ratio(issued: u64, useful: u64) -> Option<f64> {
    if issued == 0 {
        None
    } else {
        Some(useful as f64 / issued as f64)
    }
}

/// A batch's per-job results (input order) plus its stats.
#[derive(Debug)]
pub struct BatchOutput {
    /// One result per job, in the order the jobs were given.
    pub results: Vec<Result<Alignment, JobError>>,
    /// Aggregate batch statistics.
    pub stats: BatchStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar and Gotoh batches issue no lock-step rows; the occupancy
    /// accessor must report `None` instead of a 0/0 NaN that could leak
    /// into bench JSON.
    #[test]
    fn lane_occupancy_guards_zero_rows() {
        let stats = BatchStats::default();
        assert_eq!(stats.dc_rows_issued, 0);
        assert_eq!(stats.lane_occupancy(), None);
        let some = BatchStats {
            dc_rows_issued: 8,
            dc_rows_useful: 6,
            ..BatchStats::default()
        };
        assert_eq!(some.lane_occupancy(), Some(0.75));
    }
}
