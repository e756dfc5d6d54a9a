#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, the benchmark build, and
# the smoke runs of the crash-point torture, group-commit, and
# server-overload harnesses.
# Every experiment invocation runs under a hard timeout so a wedged
# harness fails the gate instead of hanging it.
#
#   --stress       additionally run the E18 concurrency stress smoke
#                  (schedule-perturbed serializability sweep + algebra
#                  differential fuzz; see crates/bench/src/bin/exp_stress.rs)
#   --bench-check  additionally run the E13 throughput, E21 index, and
#                  E22 distributed-commit smokes and fail if any lands
#                  >10% below its committed gate (gate_events_per_s in
#                  BENCH_E13.json, gate_lookups_per_s in BENCH_E21.json,
#                  gate_commits_per_s in BENCH_E22.json)
set -euo pipefail
cd "$(dirname "$0")/.."

STRESS=0
BENCH_CHECK=0
for arg in "$@"; do
  case "$arg" in
    --stress) STRESS=1 ;;
    --bench-check) BENCH_CHECK=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Hard wall-clock bound per experiment run (seconds). The smokes all
# finish in well under a minute; ten is a hang, not a slow machine.
EXP_TIMEOUT=600

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

# reachbench is a package of its own that builds against the crates'
# public APIs: an API change that breaks it fails here, not in the
# benchmark run.
echo "== tier-1: benchmark build (reachbench) =="
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path reachbench/Cargo.toml

echo "== tier-1: crash-point torture smoke (200 ops, every WAL frame) =="
timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_torture -- 12648430 200

echo "== tier-1: group-commit smoke (batching + visibility invariants) =="
timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_commit -- --smoke

echo "== tier-1: server overload smoke (explicit shedding + bounded p99) =="
timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_serve -- --smoke

echo "== tier-1: snapshot-read smoke (zero reader locks under writer churn) =="
timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_snapshot -- --smoke

echo "== tier-1: distributed-commit smoke (2PC invariants at 2/4 shards) =="
timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_dist -- --smoke

if [[ "$STRESS" == 1 ]]; then
  echo "== tier-1: concurrency stress smoke (perturbed schedules + differential fuzz) =="
  timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --features sched --bin exp_stress -- --smoke
fi

# bench_gate NAME FILE GATE_KEY VALUE_KEY UNIT BIN: run the --smoke of
# experiment BIN and fail if the VALUE_KEY it writes to FILE lands below
# 90% of the committed GATE_KEY. The gate is read BEFORE the run, because
# the experiment rewrites FILE.
bench_gate() {
  local name=$1 file=$2 gate_key=$3 value_key=$4 unit=$5 bin=$6
  echo "== tier-1: ${name} gate (>10% regression vs committed gate fails) =="
  local gate fresh floor
  gate=$(sed -n "s/^  \"${gate_key}\": \([0-9]*\).*/\1/p" "$file")
  if [[ -z "$gate" ]]; then
    echo "${file} missing or has no ${gate_key}" >&2; exit 1
  fi
  timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin "$bin" -- --smoke
  fresh=$(sed -n "s/^  \"${value_key}\": \([0-9]*\).*/\1/p" "$file")
  floor=$((gate * 9 / 10))
  echo "   measured ${fresh} ${unit}, gate ${gate} (floor ${floor})"
  if (( fresh < floor )); then
    echo "${name} regression: ${fresh} ${unit} < ${floor} (90% of gate ${gate})" >&2
    exit 1
  fi
}

if [[ "$BENCH_CHECK" == 1 ]]; then
  bench_gate "E13 throughput" BENCH_E13.json gate_events_per_s events_per_s \
    "events/s" exp_throughput
  bench_gate "E21 index-lookup" BENCH_E21.json gate_lookups_per_s lookups_per_s \
    "lookups/s" exp_index
  bench_gate "E22 distributed-commit" BENCH_E22.json gate_commits_per_s commits_per_s \
    "cross-shard commits/s" exp_dist
fi

echo "== tier-1: OK =="
