#!/usr/bin/env bash
# Tier-1 CI gate: configure, build warning-free (-Werror), and run the full
# unit/property/golden test suite. Usage:
#   ci/run_tier1.sh [build-dir]
# Environment:
#   LACHESIS_SANITIZE  forwarded to cmake (e.g. address,undefined)
#   CMAKE_BUILD_TYPE   defaults to RelWithDebInfo (asserts stay on)
set -euo pipefail

SRC_DIR=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$SRC_DIR/build-ci"}
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}" \
  -DLACHESIS_SANITIZE="${LACHESIS_SANITIZE:-}" \
  -DLACHESIS_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"

status=0
ctest --test-dir "$BUILD_DIR" -L tier1 --no-tests=error --output-on-failure ||
  status=$?
if [ "$status" -ne 0 ]; then
  echo "run_tier1.sh: ctest exited with status $status" >&2
fi

# Perf trajectory: the benches below in quick mode, then list and parse
# every machine-readable BENCH_*.json under the build dir. A bench that exits non-zero, or a BENCH file that
# does not parse as JSON, fails the script after the listing: bench_fleet
# and bench_hetero gate themselves.
failed_benches=()
run_bench() {
  local name=$1
  shift
  (cd "$BUILD_DIR" && "$@") || {
    echo "run_tier1.sh: $name failed" >&2
    failed_benches+=("$name")
  }
}
if [ "$status" -eq 0 ]; then
  # Control-plane tick: delta on/off, recorder off/on/verbose and health
  # off/on/injected tables plus the 1M-target sweep; writes
  # BENCH_runner.json, BENCH_obs.json and BENCH_fault.json.
  run_bench bench_runner_tick env LACHESIS_BENCH_MODE=quick ./bench/bench_runner_tick
  # Fleet stepper: worker-count sweep with a hard digest-equality gate
  # (exits non-zero on any determinism break), writes BENCH_fleet.json.
  run_bench bench_fleet ./bench/bench_fleet
  # Heterogeneous cores + SCHED_DEADLINE: capacity-aware vs capacity-blind
  # placement, mixed-criticality SLO check, and deadline admission
  # micro-bench. Self-gating (non-zero when aware placement stops beating
  # blind or the deadline variant misses its SLO), writes
  # BENCH_hetero.json.
  run_bench bench_hetero env LACHESIS_BENCH_MODE=quick ./bench/bench_hetero
  # Native SPE executor: lock-free ring throughput (same-thread and
  # cross-thread) and tuples/sec through 1/2/4-operator chains; records
  # hw_cores so single-core CI numbers are not misread. Self-gating
  # (non-zero when any run woke a ring more often than a waiter
  # advertised itself), writes BENCH_native.json.
  run_bench bench_native_spe env LACHESIS_BENCH_MODE=quick ./bench/bench_native_spe
  echo "run_tier1.sh: BENCH artifacts:"
  malformed=()
  while IFS= read -r file; do
    echo "  $file"
    python3 -m json.tool "$file" >/dev/null || malformed+=("$file")
  done < <(find "$BUILD_DIR" -maxdepth 1 -name 'BENCH_*.json' -print | sort)
  if [ "${#failed_benches[@]}" -ne 0 ]; then
    echo "run_tier1.sh: failed benches: ${failed_benches[*]}" >&2
    status=1
  fi
  if [ "${#malformed[@]}" -ne 0 ]; then
    echo "run_tier1.sh: malformed BENCH files: ${malformed[*]}" >&2
    status=1
  fi
fi
exit "$status"
