#!/usr/bin/env bash
# Tier-1 verification for the GenASM reproduction workspace.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> cargo test -q (core, portable fallback: no lockstep-avx2)"
cargo test -p genasm-core --no-default-features -q

echo "==> cargo test -q (mapper identity suites, portable fallback)"
cargo test -p genasm-mapper --no-default-features -q \
    --test batch_identity --test index_identity --test two_phase --test sam_identity

echo "==> 16-lane + fused hit-test kernel paths (default and portable fallback)"
# The wide-lane and fused-accumulator properties must hold on both the
# explicit SIMD build and the portable fallback (where every width
# runs the plain lane loop) — see docs/KERNELS.md.
cargo test -p genasm-core -q --test proptests -- sixteen_lane fused_occurrence
cargo test -p genasm-core --no-default-features -q --test proptests -- \
    sixteen_lane fused_occurrence

echo "==> chaos suites (--features chaos: deterministic fault injection)"
# The workspace build above is the proof the default build carries no
# chaos code; these runs prove the containment invariant holds when
# the failpoints are compiled in and armed at fixed seeds.
cargo test -p genasm-engine --features chaos -q --test chaos
cargo test -p genasm-chaos -q
cargo test --features chaos -q --test chaos_containment
cargo test --features chaos -q --test chaos_serve

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> map --trace-out smoke (Chrome trace must be non-empty and balanced)"
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
target/release/genasm simulate --genome-size 20000 --count 8 --length 100 \
    --seed 11 --out-prefix "$tracedir/t" 2>/dev/null
target/release/genasm map --ref "$tracedir/t_ref.fa" --reads "$tracedir/t_reads.fq" \
    --trace-out "$tracedir/trace.json" --quiet >/dev/null
[[ -s "$tracedir/trace.json" ]] \
    || { echo "map --trace-out wrote an empty trace" >&2; exit 1; }
grep -q '"traceEvents"' "$tracedir/trace.json" \
    || { echo "trace is not Chrome trace-event JSON" >&2; exit 1; }
begins=$(grep -c '"ph": "B"' "$tracedir/trace.json" || true)
ends=$(grep -c '"ph": "E"' "$tracedir/trace.json" || true)
[[ "$begins" -gt 0 && "$begins" -eq "$ends" ]] \
    || { echo "trace spans unbalanced: $begins begins vs $ends ends" >&2; exit 1; }

echo "==> lenient-mode error counters surface in --metrics json"
# Damage the simulated reads (a truncated trailing record), then map
# leniently: the run must succeed, and every map.errors.* counter the
# docs promise must appear in the JSON metrics report (which goes to
# stderr; --quiet would suppress metrics collection entirely).
printf '@truncated\nACGTACGT\n' >> "$tracedir/t_reads.fq"
target/release/genasm map --ref "$tracedir/t_ref.fa" --reads "$tracedir/t_reads.fq" \
    --lenient --metrics json >/dev/null 2> "$tracedir/metrics.json"
for field in map.errors.skipped map.errors.truncated map.errors.length_mismatch \
             map.errors.bad_separator map.errors.empty_sequence \
             map.errors.missing_header map.errors.soft_non_acgt; do
    grep -q "\"$field\"" "$tracedir/metrics.json" \
        || { echo "--metrics json: missing counter \"$field\"" >&2; exit 1; }
done
grep -q '"map.errors.truncated": 1' "$tracedir/metrics.json" \
    || { echo "--metrics json: truncated record was not counted" >&2; exit 1; }
# The same damaged input must fail fast in strict mode with the
# malformed-data exit code (4).
if target/release/genasm map --ref "$tracedir/t_ref.fa" --reads "$tracedir/t_reads.fq" \
    --strict --quiet >/dev/null 2>&1; then
    echo "strict mode accepted a truncated record" >&2; exit 1
fi
rc=0
target/release/genasm map --ref "$tracedir/t_ref.fa" --reads "$tracedir/t_reads.fq" \
    --strict --quiet >/dev/null 2>&1 || rc=$?
[[ "$rc" -eq 4 ]] || { echo "strict parse failure exited $rc, want 4" >&2; exit 1; }

echo "==> batch vs sequential oracle (map == map --pipeline sequential)"
# The batch pipeline checks the edit budget after alignment and runs
# the pre-alignment filter only for reads that check cannot decide;
# the sequential reference path filters every candidate, then aligns
# every survivor. Both must write the same SAM byte for byte (the @PG
# line echoes the options, so it is left out). The Illumina set is
# decided almost entirely by the budget check; the 15%-error PacBio
# set has many reads whose best alignment overshoots the budget, so
# the filter fallback runs.
target/release/genasm simulate --genome-size 200000 --count 192 --length 150 \
    --seed 11 --out-prefix "$tracedir/ab" 2>/dev/null
target/release/genasm simulate --genome-size 200000 --count 192 --length 150 \
    --seed 11 --profile pacbio15 --out-prefix "$tracedir/pb" 2>/dev/null
for set in ab pb; do
    target/release/genasm map --ref "$tracedir/${set}_ref.fa" --reads "$tracedir/${set}_reads.fq" \
        --quiet | grep -v '^@PG' > "$tracedir/${set}_batch.sam"
    target/release/genasm map --ref "$tracedir/${set}_ref.fa" --reads "$tracedir/${set}_reads.fq" \
        --pipeline sequential --quiet | grep -v '^@PG' > "$tracedir/${set}_sequential.sam"
    cmp -s "$tracedir/${set}_batch.sam" "$tracedir/${set}_sequential.sam" \
        || { echo "$set: batch and sequential SAM outputs differ" >&2; exit 1; }
done
# The filter modes are gone; a script still passing the flag must be
# told (exit 2), not silently ignored like an unknown option.
rc=0
target/release/genasm map --ref "$tracedir/ab_ref.fa" --reads "$tracedir/ab_reads.fq" \
    --filter-mode legacy --quiet > /dev/null 2> "$tracedir/removed_filter_mode.txt" || rc=$?
[[ "$rc" -eq 2 ]] && grep -q 'filter-mode was removed' "$tracedir/removed_filter_mode.txt" \
    || { echo "map --filter-mode: want exit 2 naming the removed flag, got $rc" >&2; exit 1; }

echo "==> map --lanes identity smoke (lane width changes speed, never output)"
# The same reads at every lock-step lane width, plus the tier-resolved
# auto width, must produce byte-identical SAM (docs/KERNELS.md: width
# decides who computes a row, never what it contains). Reuses the
# Illumina oracle inputs; the map.simd_level gauge must surface
# alongside.
target/release/genasm map --ref "$tracedir/ab_ref.fa" --reads "$tracedir/ab_reads.fq" \
    --lanes 4 --quiet > "$tracedir/lanes4.sam"
for width in 8 16 auto; do
    target/release/genasm map --ref "$tracedir/ab_ref.fa" --reads "$tracedir/ab_reads.fq" \
        --lanes "$width" --metrics json \
        > "$tracedir/lanes_w.sam" 2> "$tracedir/lanes_w.json"
    cmp -s "$tracedir/lanes4.sam" "$tracedir/lanes_w.sam" \
        || { echo "--lanes $width SAM differs from --lanes 4" >&2; exit 1; }
    grep -q '"map.simd_level"' "$tracedir/lanes_w.json" \
        || { echo "--metrics json: missing map.simd_level gauge" >&2; exit 1; }
done

echo "==> genasm serve smoke (stdin FASTQ in, ordered SAM out, serve.* metrics)"
# Pipe the simulated reads through the streaming front-end: the run
# must exit 0, answer every read with exactly one record, and surface
# the serving metrics the docs promise in the JSON report (stderr).
target/release/genasm simulate --genome-size 20000 --count 16 --length 100 \
    --seed 12 --out-prefix "$tracedir/s" 2>/dev/null
target/release/genasm serve --ref "$tracedir/s_ref.fa" \
    --batch-reads 4 --metrics json \
    < "$tracedir/s_reads.fq" > "$tracedir/s.sam" 2> "$tracedir/s_metrics.json"
records=$(grep -cv '^@' "$tracedir/s.sam" || true)
[[ "$records" -eq 16 ]] \
    || { echo "serve answered $records/16 reads" >&2; exit 1; }
for field in serve.reads serve.reads_shed serve.reads_deadline_dropped \
             serve.batches serve.queue_depth serve.batches_inflight \
             serve.request_latency_us serve.queue_wait_us serve.execute_us \
             serve.deliver_us; do
    grep -q "\"$field" "$tracedir/s_metrics.json" \
        || { echo "serve --metrics json: missing \"$field\"" >&2; exit 1; }
done
grep -q '"serve.reads": 16' "$tracedir/s_metrics.json" \
    || { echo "serve --metrics json: admitted-read count wrong" >&2; exit 1; }
# The flush timer is gone; a script still passing its flag must be told
# (exit 2), not silently ignored like an unknown option.
rc=0
target/release/genasm serve --ref "$tracedir/s_ref.fa" --batch-wait-ms 5 \
    < /dev/null > /dev/null 2> "$tracedir/s_removed_flag.txt" || rc=$?
[[ "$rc" -eq 2 ]] && grep -q 'timer is gone' "$tracedir/s_removed_flag.txt" \
    || { echo "serve --batch-wait-ms: want exit 2 naming the removed timer, got $rc" >&2; exit 1; }

echo "==> perfbench --smoke (the repo benchmark as the truth gate)"
# All six benchmark workloads at 1/20 size. Each run checks its output
# against independent truth: CIGARs that replay, simulated read
# origins, exactly-once serve delivery, engine == scalar on a sample.
# Any incorrect run exits non-zero.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke

echo "==> OK"
