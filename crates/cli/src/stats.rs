//! Unified stderr stat reporting.
//!
//! Every mapping-flavoured subcommand records its run figures into the
//! telemetry [`MetricsRegistry`] and renders exactly one snapshot to
//! stderr at exit — `--metrics human` (default) prints `name = value`
//! lines plus one percentile line per histogram, `--metrics json`
//! prints the snapshot as a JSON object, and `--quiet` suppresses the
//! whole report. Because the report is a registry snapshot, anything
//! the instrumented pipeline already recorded (e.g. the
//! `map.read_latency_us` histogram) appears alongside the
//! command-level figures without extra plumbing.
//!
//! Scalar conventions: durations are gauges in microseconds (`*_us`),
//! ratios are gauges in basis points (`*_bp`, 10000 = 100%), event
//! totals are counters.

use crate::args::Args;
use genasm_mapper::pipeline::StageTimings;
use genasm_obs::MetricsRegistry;
use std::time::Duration;

/// Output format of the stderr metrics report (`--metrics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsMode {
    /// `name = value` lines (default).
    Human,
    /// One JSON object with `counters`/`gauges`/`histograms` maps.
    Json,
}

/// Parses `--metrics human|json` (default `human`).
///
/// # Errors
///
/// Returns a message naming the unknown mode.
pub fn parse_metrics_mode(args: &Args) -> Result<MetricsMode, String> {
    match args.get("metrics").unwrap_or("human") {
        "human" => Ok(MetricsMode::Human),
        "json" => Ok(MetricsMode::Json),
        other => Err(format!(
            "unknown metrics mode {other:?} (use human or json)"
        )),
    }
}

/// Records a duration as a microsecond gauge.
pub fn gauge_us(metrics: &MetricsRegistry, name: &str, value: Duration) {
    metrics.gauge(name).set(value.as_micros() as u64);
}

/// Records a `[0, 1]` ratio as a basis-point gauge (10000 = 100%);
/// `None` records nothing, so absent ratios are absent from the
/// report rather than rendered as a misleading zero.
pub fn gauge_ratio_bp(metrics: &MetricsRegistry, name: &str, ratio: Option<f64>) {
    if let Some(r) = ratio {
        metrics.gauge(name).set((r * 10_000.0).round() as u64);
    }
}

/// Records the full per-stage breakdown of a mapping run. The `map.*`
/// namespace is shared by `map` and `batch` so the two commands emit
/// one schema.
pub fn record_stage_timings(metrics: &MetricsRegistry, timings: &StageTimings) {
    gauge_us(metrics, "map.seed_us", timings.seeding);
    gauge_us(metrics, "map.filter_us", timings.filtering);
    gauge_us(metrics, "map.distance_us", timings.distance);
    gauge_us(metrics, "map.traceback_us", timings.traceback);
    gauge_us(metrics, "map.stage_total_us", timings.total());
    metrics
        .gauge("map.candidates_examined")
        .set(timings.candidates.0 as u64);
    metrics
        .gauge("map.candidates_surviving")
        .set(timings.candidates.1 as u64);
    gauge_ratio_bp(
        metrics,
        "map.filter_reject_rate_bp",
        Some(timings.reject_rate()),
    );
    metrics.gauge("map.dc_rows_issued").set(timings.dc_rows.0);
    metrics.gauge("map.dc_rows_useful").set(timings.dc_rows.1);
    gauge_ratio_bp(metrics, "map.dc_occupancy_bp", timings.lane_occupancy());
    metrics
        .gauge("map.filter_rows_issued")
        .set(timings.filter_rows.0);
    metrics
        .gauge("map.filter_rows_useful")
        .set(timings.filter_rows.1);
    gauge_ratio_bp(
        metrics,
        "map.filter_occupancy_bp",
        timings.filter_occupancy(),
    );
    metrics.gauge("map.tb_windows").set(timings.tb_rows.0);
    metrics.gauge("map.tb_rows").set(timings.tb_rows.1);
    // The SIMD tier the lock-step kernels dispatched on (0 = portable,
    // 1 = AVX2, 2 = AVX-512) — pins occupancy/row figures to the lane
    // width that produced them when comparing runs across hosts.
    metrics
        .gauge("map.simd_level")
        .set(genasm_core::simd::simd_level().rank() as u64);
    metrics
        .gauge("map.distance_jobs")
        .set(timings.distance_jobs);
    metrics
        .gauge("map.traceback_jobs")
        .set(timings.traceback_jobs);
}

/// Renders the registry snapshot to stderr in the chosen mode;
/// `--quiet` prints nothing at all.
pub fn emit(metrics: &MetricsRegistry, quiet: bool, mode: MetricsMode) {
    if quiet {
        return;
    }
    let snapshot = metrics.snapshot();
    match mode {
        MetricsMode::Human => eprint!("{}", snapshot.render_human()),
        MetricsMode::Json => eprintln!("{}", snapshot.to_json()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_mode_parses_and_rejects() {
        let default = Args::parse(["map"]).unwrap();
        assert_eq!(parse_metrics_mode(&default).unwrap(), MetricsMode::Human);
        let json = Args::parse(["map", "--metrics", "json"]).unwrap();
        assert_eq!(parse_metrics_mode(&json).unwrap(), MetricsMode::Json);
        let bad = Args::parse(["map", "--metrics", "csv"]).unwrap();
        assert!(parse_metrics_mode(&bad).unwrap_err().contains("csv"));
    }

    #[test]
    fn stage_timings_land_in_the_registry() {
        let metrics = MetricsRegistry::new(true);
        let timings = StageTimings {
            seeding: Duration::from_micros(1_500),
            candidates: (40, 10),
            dc_rows: (100, 75),
            filter_rows: (64, 16),
            tb_rows: (7, 900),
            ..StageTimings::default()
        };
        record_stage_timings(&metrics, &timings);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("map.seed_us"), Some(1_500));
        assert_eq!(snap.gauge("map.candidates_examined"), Some(40));
        // 30/40 rejected = 75% = 7500 bp.
        assert_eq!(snap.gauge("map.filter_reject_rate_bp"), Some(7_500));
        assert_eq!(snap.gauge("map.dc_occupancy_bp"), Some(7_500));
        assert_eq!(snap.gauge("map.filter_occupancy_bp"), Some(2_500));
        assert_eq!(snap.gauge("map.tb_rows"), Some(900));
    }

    #[test]
    fn absent_ratios_are_not_rendered() {
        let metrics = MetricsRegistry::new(true);
        // No lock-step rows ran: occupancies are None and must not
        // appear (a zero would read as "0% useful", which is wrong).
        record_stage_timings(&metrics, &StageTimings::default());
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("map.dc_occupancy_bp"), None);
        assert_eq!(snap.gauge("map.filter_occupancy_bp"), None);
        // The reject rate of zero candidates is a well-defined 0.
        assert_eq!(snap.gauge("map.filter_reject_rate_bp"), Some(0));
    }
}
