#!/usr/bin/env bash
# Repo health gate: formatting, lints, the full test suite, the bounded
# differential-fuzz stage, the optimizer-equivalence fuzz stage (every
# case runs the oracle with and without the standard pass pipeline and
# the discrete traces must match bit-for-bit, with per-pass fire
# coverage asserted), a release build, fmt check and clippy lint of the
# perfbench benchmark package (its own workspace, so a library signature
# change would otherwise go unnoticed until the benchmark runs), a live
# scrape of a 4-shard scaling run
# (/metrics, /health, /profile, the /timeseries collector history, the
# /audit guarantee ledger, and the /trace.json Perfetto export), the
# observability overhead gates (obs_bench min-of-batches deltas for
# metrics, profiler-on suppressed path, the profiler's violation-path
# percentage, and the guarantee auditor's suppressed-path and
# violation-path costs; the criterion bench `cargo bench -p pulse-bench
# --bench obs_overhead` gives distributions for humans on a quiet
# machine), and the bench_diff regression gate comparing both result
# files against the checked-in baselines in scripts/baselines/ (band
# ±PULSE_BENCH_BAND_PCT%, default 50).
#
# `./scripts/check.sh soak` raises the differential-fuzz budget to 1024
# generated cases; PULSE_QA_CASES overrides either default explicitly.
set -euo pipefail
cd "$(dirname "$0")/.."

qa_cases="${PULSE_QA_CASES:-64}"
[[ "${1:-}" == "soak" ]] && qa_cases="${PULSE_QA_CASES:-1024}"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --workspace -q (differential suite at its default budget)"
cargo test --workspace -q

echo "== differential fuzz: $qa_cases generated cases + unconditional corpus replay"
PULSE_QA_CASES="$qa_cases" cargo test -p pulse-qa -q

echo "== optimizer-equivalence fuzz: $qa_cases opt-biased cases (every pass must fire)"
PULSE_QA_CASES="$qa_cases" cargo test -p pulse-qa --test opt_equiv -q

echo "== cargo build --release --bins --benches"
cargo build --release --workspace --bins --benches

echo "== benchmark package build (perfbench is its own workspace, so no stage above compiles it)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark package fmt --check and clippy -D warnings (the workspace stages skip it too)"
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings

echo "== scaling smoke (4-shard sweep) with live scrape of the full serving surface"
# The curl loop below steals CPU from the sweep it is scraping, so this
# run validates the serving surface, not timings (coverage floor relaxed;
# the bench_diff gate run further down is quiet and rep-median'd).
PULSE_SCALING_SMOKE=1 PULSE_SCALING_SHARDS=4 PULSE_SCALING_COVERAGE_FLOOR=0.75 \
PULSE_SERVE_ADDR=127.0.0.1:9187 PULSE_SERVE_LINGER=6 \
  ./target/release/scaling &
scaling_pid=$!
metrics="" health="" profile="" timeseries="" trace="" audit="" audited=""
for _ in $(seq 1 60); do
  metrics=$(curl -sf --max-time 2 http://127.0.0.1:9187/metrics || true)
  # No -f: /health legitimately answers 503 while shards are saturated,
  # and a degraded verdict is still a healthy serving surface.
  health=$(curl -s --max-time 2 http://127.0.0.1:9187/health || true)
  profile=$(curl -sf --max-time 2 http://127.0.0.1:9187/profile || true)
  # The guarantee auditor shadow-compares 1-in-64 symbols; the merged
  # per-key ledger must be non-empty (and clean) on a live sweep.
  audit=$(curl -s --max-time 2 http://127.0.0.1:9187/audit || true)
  # `|| true`: grep exits 1 before the route is serving, which would trip
  # set -e inside the assignment.
  audited=$(grep -o '"audited_keys":[0-9]*' <<<"$audit" | head -1 | cut -d: -f2 || true)
  # The collector ticks every 2.5k tuples, so by the time the sweep's
  # phases have run the violations family has a dense history. (Reading
  # the ring store is cheap; /trace.json is NOT polled here because a
  # live render stops every shard to copy its ring — one scrape after
  # the loop is enough and keeps the smoke timings honest.)
  timeseries=$(curl -sf --max-time 2 \
    'http://127.0.0.1:9187/timeseries?metric=runtime.violations' || true)
  samples=$(sed -n 's/.*"samples":\([0-9]*\).*/\1/p' <<<"$timeseries")
  [[ "$metrics" == *'pulse_runtime_tuples_in{shard="'* \
     && "$health" == *'"verdict"'* \
     && "$profile" == *'"phases"'* \
     && "${audited:-0}" -ge 1 \
     && "${samples:-0}" -ge 10 ]] && break
  sleep 0.25
done
# One trace scrape: served live while a sharded phase runs, and from the
# cached final snapshot of the last completed phase afterwards.
trace=$(curl -sf --max-time 5 http://127.0.0.1:9187/trace.json || true)
wait "$scaling_pid"
if [[ "$metrics" != *'pulse_runtime_tuples_in{shard="'* ]]; then
  echo "FAIL: live /metrics scrape returned no per-shard labelled series" >&2
  exit 1
fi
if [[ "$health" != *'"verdict"'* ]]; then
  echo "FAIL: live /health scrape returned no verdict" >&2
  exit 1
fi
if [[ "$profile" != *'"phases"'* ]]; then
  echo "FAIL: live /profile scrape returned no phase breakdown" >&2
  exit 1
fi
if [[ -z "$samples" || "$samples" -lt 10 ]]; then
  echo "FAIL: /timeseries served ${samples:-0} runtime.violations samples (need >= 10)" >&2
  exit 1
fi
if [[ "$trace" != *'"traceEvents"'* ]]; then
  echo "FAIL: /trace.json scrape returned no Chrome trace" >&2
  exit 1
fi
if [[ -z "$audited" || "$audited" -lt 1 ]]; then
  echo "FAIL: live /audit scrape reported no audited keys" >&2
  exit 1
fi
breaches=$(grep -o '"breaches":[0-9]*' <<<"$audit" | head -1 | cut -d: -f2 || true)
if [[ "${breaches:-1}" -ne 0 ]]; then
  echo "FAIL: live /audit reported $breaches guarantee breaches on a clean run" >&2
  echo "$audit" >&2
  exit 1
fi
echo "live /metrics + /health + /profile + /timeseries ($samples samples) + /audit ($audited keys, 0 breaches) + /trace.json scrape OK"

echo "== bench-diff: scaling-smoke trajectory vs checked-in baseline (3-rep median, quiet)"
PULSE_SCALING_SMOKE=1 PULSE_SCALING_SHARDS=4 PULSE_SCALING_REPS=3 \
  ./target/release/scaling
# The scaling band is tighter than the obs one (±30% vs ±50%): the smoke
# rows are rep-medians of multi-second runs, far less jittery than the
# few-ns obs deltas, and the batched+VM violation path this PR landed
# should not quietly give its win back. PULSE_BENCH_BAND_PCT still
# overrides both gates.
PULSE_BENCH_BAND_PCT="${PULSE_BENCH_BAND_PCT:-30}" \
  ./target/release/bench_diff check scaling target/BENCH_scaling_smoke.json

echo "== observability overhead gates (suppressed fast path + profiler postures)"
# PULSE_OBS_OUT keeps the gate run from clobbering the tracked repo-root
# BENCH_obs.json (that file is regenerated deliberately, on quiet runs).
PULSE_OBS_GATE=1 PULSE_OBS_OUT=target/BENCH_obs_fresh.json ./target/release/obs_bench

echo "== bench-diff: obs-overhead trajectory vs checked-in baseline"
./target/release/bench_diff check obs target/BENCH_obs_fresh.json

echo "All checks passed."
