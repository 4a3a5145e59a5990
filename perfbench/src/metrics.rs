//! The benchmark's metric and workload tables — the single source that
//! `BENCHMARK.json` (`--print-manifest`), the glossary
//! (`--list-metrics`) and every run's output are generated from — and
//! the value set a run fills in.

use crate::stats::Summary;

/// How long one run measures (the manifest's `run_seconds`). The issue
/// sized runs at 20 s; the contract's cap on the driver's 4 + 22 × 6
/// runs scales that down uniformly, never the workload list.
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "map_short_repeat",
        why: "4000x150bp reads on a 200 kbp 35%-repeat genome: tier-1 filter rows, distance jobs and traceback do the work",
    },
    Workload {
        name: "map_short_unique",
        why: "same reads spec on a 4 Mbp uniform genome (index past L2): seeding, index lookups and tier-0 probes do the work",
    },
    Workload {
        name: "align_long",
        why: "256 pairs of 10 kbp PacBio-15% reads: ~250 windows per job, lanes in steady state, pure DC/TB kernel cost",
    },
    Workload {
        name: "align_short",
        why: "4096 pairs of 250 bp reads: ~7 windows per job, so job churn, lane refill and claim bookkeeping dominate",
    },
    Workload {
        name: "serve_light",
        why: "open loop at 1000 reads/s (~15% of one worker): latency is the 20 ms batch timer, the batcher does the work",
    },
    Workload {
        name: "serve_loaded",
        why: "open loop at 2500 reads/s (~40%): batches fill, execution and queueing dominate, the timer rarely fires",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression. Set from the repeat table
    /// in README.md: three times the widest run-to-run spread seen on
    /// this host, capped at the contract's 0.25.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median over 5 builds of every long-lived object the passes reuse: input bytes -> parsed records, ReadMapper::build / job list, Engine::new, Server::start",
    },
    EndToEnd {
        name: "reads_per_s",
        unit: "reads/s",
        better: "higher",
        bound: 0.25,
        what: "map: reads through map_batch_resilient + SAM render per second; align: same as pairs_per_s (a pair is a read and its region); serve: responses delivered per second of schedule",
    },
    EndToEnd {
        name: "pairs_per_s",
        unit: "pairs/s",
        better: "higher",
        bound: 0.25,
        what: "align: pairs through Engine::align_batch per second; map and serve: read-locus pairs carried to a reported alignment (mapped reads) per second",
    },
    EndToEnd {
        name: "request_latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "serve: due-time-to-delivery p50 of a segment; map and align: every read of a pass completes with the pass, so a pass's p50 is the pass time. Median over passes",
    },
    EndToEnd {
        name: "request_latency_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "serve: due-time-to-delivery p99 of a segment (>=12 samples beyond it); map and align: a pass's p99 is again the pass time, so it equals _p50_ms there. Median over passes",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
        what: "VmHWM of the workload's own process at exit",
    },
    EndToEnd {
        name: "origin_recall",
        unit: "fraction",
        better: "higher",
        bound: 0.002,
        what: "map and serve: reads mapped within k of their simulated origin, or to a locus with no more edits than the simulator introduced; align: pairs whose alignment ends within k of the template's end",
    },
    EndToEnd {
        name: "optimal_frac",
        unit: "fraction",
        better: "higher",
        bound: 0.005,
        what: "share of a fixed sample whose reported edit distance equals the DP optimum (Gotoh, unit costs, text suffix free)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this layer metric should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SEQ: &str = "setup_s on map_short_unique";
const INDEX: &str = "setup_s and peak_rss_mb on map_short_unique and serve_*";
const SEED: &str = "reads_per_s on map_short_unique";
const STAGE: &str = "reads_per_s on both map workloads";
const TIER0: &str = "reads_per_s on map_short_unique";
const TIER1: &str = "reads_per_s on map_short_repeat";
const FILTER: &str = "reads_per_s on both map workloads";
const MALIGN: &str = "reads_per_s on map_short_repeat";
const SAM: &str = "reads_per_s on both map workloads (small share; a regression signal)";
const ROW: &str = "pairs_per_s on align_long";
const JOB: &str = "pairs_per_s on align_short";
const ALIGN: &str = "pairs_per_s on both align workloads";
const WAIT: &str = "request_latency_p50_ms and _p99_ms on serve_light";
const EXEC: &str = "request_latency_p50_ms and _p99_ms on serve_loaded";
const VALID: &str = "validity of every other number";

pub const PER_LAYER: &[PerLayer] = &[
    layer("seq.fasta_parse_s", "s", "lower", SEQ),
    layer("seq.fastq_parse_s", "s", "lower", SEQ),
    layer("seq.fastq_parse_mb_per_s", "MB/s", "higher", SEQ),
    layer("mapper.index.build_s", "s", "lower", INDEX),
    layer("mapper.index.pack_s", "s", "lower", INDEX),
    layer("mapper.index.postings", "count", "lower", INDEX),
    layer("mapper.index.distinct_seeds", "count", "lower", INDEX),
    layer("mapper.seed.ns_per_read", "ns", "lower", SEED),
    layer("mapper.seed.candidates_per_read", "count", "lower", SEED),
    layer("mapper.seed.truth_recall", "fraction", "higher", "origin_recall on both map workloads"),
    layer("mapper.stage.seed_s", "s", "lower", SEED),
    layer("mapper.stage.filter_s", "s", "lower", "reads_per_s on both map workloads; the share to watch"),
    layer("mapper.stage.distance_s", "s", "lower", MALIGN),
    layer("mapper.stage.traceback_s", "s", "lower", MALIGN),
    layer("mapper.stage.sum_over_wall", "ratio", "higher", VALID),
    layer("mapper.cold_pass_s", "s", "lower", STAGE),
    layer("mapper.filter.candidates", "count", "lower", FILTER),
    layer("mapper.filter.survivors", "count", "lower", MALIGN),
    layer("mapper.filter.reject_frac", "fraction", "higher", FILTER),
    layer("mapper.filter.tier0_probes", "count", "lower", TIER0),
    layer("mapper.filter.tier0_rejects", "count", "higher", TIER0),
    layer("mapper.filter.tier1_rejects", "count", "lower", TIER1),
    layer("mapper.filter.accepts", "count", "lower", TIER1),
    layer("mapper.filter.fallbacks", "count", "lower", FILTER),
    layer("mapper.filter.rows_issued", "count", "lower", TIER1),
    layer("mapper.filter.rows_useful", "count", "lower", TIER1),
    layer("mapper.filter.occupancy", "fraction", "higher", TIER1),
    layer("mapper.filter.bound_reuse_hits", "count", "higher", TIER1),
    layer("mapper.filter.ns_per_candidate", "ns", "lower", FILTER),
    layer("mapper.filter.ns_per_row", "ns", "lower", TIER1),
    layer("mapper.filter.probes_per_candidate", "count", "lower", TIER0),
    layer("mapper.align.distance_jobs", "count", "lower", MALIGN),
    layer("mapper.align.traceback_jobs", "count", "lower", MALIGN),
    layer("mapper.align.tb_rows", "count", "lower", MALIGN),
    layer("mapper.align.dc_rows_issued", "count", "lower", MALIGN),
    layer("mapper.align.dc_rows_useful", "count", "lower", MALIGN),
    layer("mapper.align.dc_occupancy", "fraction", "higher", MALIGN),
    layer("mapper.align.ns_per_tb_row", "ns", "lower", MALIGN),
    layer("mapper.sam.render_s", "s", "lower", SAM),
    layer("mapper.sam.ns_per_record", "ns", "lower", SAM),
    layer("mapper.sam.bytes", "bytes", "lower", SAM),
    layer("engine.align_pass_s", "s", "lower", ALIGN),
    layer("engine.cold_pass_s", "s", "lower", ALIGN),
    layer("engine.ns_per_base", "ns", "lower", ROW),
    layer("engine.ns_per_window", "ns", "lower", JOB),
    layer("engine.ns_per_dc_row", "ns", "lower", ROW),
    layer("engine.dc_rows_issued", "count", "lower", ROW),
    layer("engine.dc_rows_useful", "count", "lower", ROW),
    layer("engine.dc_occupancy", "fraction", "higher", JOB),
    layer("engine.tb_windows", "count", "lower", ALIGN),
    layer("engine.tb_rows", "count", "lower", ALIGN),
    layer("engine.utilization", "fraction", "higher", JOB),
    layer("engine.failures", "count", "lower", VALID),
    layer("engine.distance_pairs_per_s", "pairs/s", "higher", "none directly: the no-traceback use of the same kernels; reads_per_s on map_short_repeat through phase 1"),
    layer("engine.speedup_2w", "ratio", "higher", "none: informational, two workers over one on a shared 2-core host"),
    layer("core.scalar.ns_per_window", "ns", "lower", "none: the plain single-threaded baseline"),
    layer("core.scalar.pairs_per_s", "pairs/s", "higher", "none: the plain single-threaded baseline"),
    layer("engine.speedup_vs_scalar", "ratio", "higher", "pairs_per_s on both align workloads; must stay above 1"),
    layer("serve.exec_us_per_batch", "us", "lower", EXEC),
    layer("serve.batches", "count", "lower", EXEC),
    layer("serve.mean_batch_reads", "count", "higher", EXEC),
    layer("serve.wait_ms_p50", "ms", "lower", WAIT),
    layer("serve.wait_over_exec", "ratio", "lower", WAIT),
    layer("serve.server_latency_p50_us", "us", "lower", WAIT),
    layer("serve.client_minus_server_p50_us", "us", "lower", "request_latency_p50_ms on both serve workloads: submit-side and delivery cost outside the server's own clock"),
    layer("serve.reads_shed", "count", "lower", VALID),
    layer("serve.reads_deadline_dropped", "count", "lower", VALID),
    layer("serve.reads_poisoned", "count", "lower", VALID),
    layer("obs.overhead_frac", "fraction", "lower", VALID),
    layer("trace.coverage", "fraction", "higher", VALID),
    layer("bench.gen_lag_p99_us", "us", "lower", VALID),
    layer("bench.offered_reads_per_s", "reads/s", "higher", VALID),
    layer("bench.achieved_reads_per_s", "reads/s", "higher", VALID),
    layer("bench.passes", "count", "higher", VALID),
];

/// The metric values of one run, in table order.
pub struct Values {
    table: Vec<(&'static str, &'static str)>,
    values: Vec<Option<f64>>,
    /// Per-pass dispersion of the timings that have one.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Finite-numbers violations and other complaints; any entry makes
    /// the run incorrect.
    pub violations: Vec<String>,
}

impl Values {
    pub fn end_to_end() -> Self {
        Self::over(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    pub fn per_layer() -> Self {
        Self::over(PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    }

    fn over(table: Vec<(&'static str, &'static str)>) -> Self {
        Values {
            values: vec![None; table.len()],
            table,
            summaries: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Records `value` for `name`. A name outside the table, a repeated
    /// name, and a NaN, infinite or negative value are violations: none
    /// of the benchmark's metrics can be negative, and a number that is
    /// not finite must never be printed.
    pub fn set(&mut self, name: &str, value: f64) {
        let Some(slot) = self.table.iter().position(|(n, _)| *n == name) else {
            self.violations
                .push(format!("{name}: not in the metric table"));
            return;
        };
        if !value.is_finite() || value < 0.0 {
            self.violations.push(format!(
                "{name}: {value} is not a finite non-negative number"
            ));
            return;
        }
        if self.values[slot].replace(value).is_some() {
            self.violations.push(format!("{name}: set twice"));
        }
    }

    /// Records a ratio whose denominator may be zero; `None` leaves the
    /// metric out as "layer not exercised".
    pub fn set_ratio(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Records the median of per-pass values and keeps their dispersion.
    pub fn set_summary(&mut self, name: &'static str, per_pass: &[f64]) {
        let summary = Summary::of(per_pass);
        self.set(name, summary.median);
        self.summaries.push((name, summary));
    }

    /// `(name, unit, value)` in table order; `None` = not exercised.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, Option<f64>)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &value)| (name, unit, value))
    }

    /// The contract's `metrics` object: every metric of the table. A
    /// layer this workload does not exercise reads 0 here (the contract
    /// wants every key on every run); the human report omits it.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .rows()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    value.unwrap_or(0.0)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// The glossary: every metric with what it measures or should move.
pub fn glossary_markdown() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what it measures |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.bound, m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | end-to-end metric it should move, and where |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.moves
        ));
    }
    out
}
