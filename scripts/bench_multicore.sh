#!/usr/bin/env bash
# Multicore perf baseline: runs the full (non-quick) mis-bench suites on
# real multicore hardware and appends env-tagged records to the
# committed BENCH_HISTORY.jsonl, so numbers taken off the CI host enter
# the perf trajectory with their environment named. Any future claim
# about parallel speedup must rest on such a record, never on a 1-CPU
# model.
#
# This script is deliberately NOT part of scripts/ci.sh: it is slow, and
# the tier-1 gate may run on 1-CPU containers. Run it manually on a real
# machine and commit the BENCH_HISTORY.jsonl growth (the BENCH_*.json
# baselines stay pinned to the CI environment — this records history,
# it does not overwrite them).
#
# Usage:
#   scripts/bench_multicore.sh               # bench, then append history
#   scripts/bench_multicore.sh <fresh_dir>   # append pre-existing results
#
# Environment:
#   BENCH_MULTICORE_ENV   history env tag (default "multicore")
#   BENCH_MULTICORE_MIN   minimum CPU count to proceed (default 2)
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
ENV_TAG="${BENCH_MULTICORE_ENV:-multicore}"
MIN_CPUS="${BENCH_MULTICORE_MIN:-2}"

cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [[ "${cpus}" -lt "${MIN_CPUS}" ]]; then
    echo "bench_multicore.sh: ${cpus} CPU(s) < ${MIN_CPUS}; skipping" \
         "(a 1-CPU run would record scheduling overhead as 'speedup')" >&2
    exit 0
fi

if [[ -n "${1:-}" ]]; then
    FRESH_DIR="$1"
else
    FRESH_DIR="$(mktemp -d)"
    trap 'rm -rf "${FRESH_DIR}"' EXIT
    echo "== full bench run on ${cpus} CPUs into ${FRESH_DIR}"
    TESTKIT_BENCH_DIR="${FRESH_DIR}" cargo bench -p mis-bench --offline
fi

shopt -s nullglob
snapshots=("${FRESH_DIR}"/BENCH_*.json)
if [[ ${#snapshots[@]} -eq 0 ]]; then
    echo "bench_multicore.sh: no BENCH_*.json snapshots in ${FRESH_DIR}" >&2
    exit 2
fi

echo "== appending ${ENV_TAG} records to BENCH_HISTORY.jsonl"
cargo run --release -q -p mis-bench --bin bench_diff --offline -- \
    --history BENCH_HISTORY.jsonl --env "${ENV_TAG}" "${snapshots[@]}"
echo "bench_multicore.sh: done (commit the BENCH_HISTORY.jsonl growth)"
