#!/usr/bin/env bash
# ThreadSanitizer gate for the parallel fleet stepper: builds the fleet
# tests under TSan and runs them, then a short fleet chaos soak with the
# worker pool saturated. The stepper's only cross-thread edges are the
# epoch-barrier handshake and the mailbox drain, both on the coordinator
# thread -- TSan proves those edges carry every happens-before the shards
# rely on. The suites are seeded and deterministic modulo thread timing;
# the golden digests inside them additionally prove timing never leaks into
# simulation results. Usage:
#   ci/run_tsan.sh [build-dir]
# Environment:
#   CMAKE_BUILD_TYPE          defaults to RelWithDebInfo (asserts stay on)
#   LACHESIS_FLEET_SOAK_SCALE soak length multiplier (default 3)
set -euo pipefail

SRC_DIR=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$SRC_DIR/build-tsan"}
JOBS=$(nproc 2>/dev/null || echo 2)

# The suites this lane runs. They build in parallel as one target,
# ci_suites (tests/CMakeLists.txt).
SUITES=(
  fleet_sim_test fleet_golden_test fleet_chaos_test
  hash_index_test hetero_machine_test
  native_queue_test native_runtime_test
)
cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}" \
  -DLACHESIS_SANITIZE=thread \
  -DLACHESIS_CI_SUITES="${SUITES[*]}"
cmake --build "$BUILD_DIR" -j "$JOBS" --target ci_suites

status=0
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
"$BUILD_DIR/tests/fleet_sim_test" --gtest_brief=1 || status=$?

# Storage-layer container suite under TSan: the containers are
# single-writer by contract, but the recorder's interner is called under
# the recorder lock from concurrent contexts -- build and run the property
# suite in this lane so any future cross-thread use is instrumented.
"$BUILD_DIR/tests/hash_index_test" --gtest_brief=1 || status=$?

# Native SPE executor: the SPSC ring's entire correctness story is its
# acquire/release pairs and the eventcount sleep/wake fences -- TSan over
# the randomized FIFO-linearization and park/wake suites is the strongest
# check we have that no edge is missing. The runtime suite then instruments
# the thread-per-operator executor end to end (source -> rings -> egress,
# metric scrapes racing live operator threads).
"$BUILD_DIR/tests/native_queue_test" --gtest_brief=1 || status=$?
"$BUILD_DIR/tests/native_runtime_test" --gtest_brief=1 || status=$?

# Heterogeneous-core suite: capacity scaling, misfit migration, and
# deadline admission are single-threaded sim code, but fleet shards run
# hetero machines concurrently -- instrument the suite in this lane so any
# cross-shard sharing shows up under TSan.
"$BUILD_DIR/tests/hetero_machine_test" --gtest_brief=1 || status=$?

# Chaos soak: longer measurement window, churn on, pool saturated.
LACHESIS_FLEET_SOAK_SCALE="${LACHESIS_FLEET_SOAK_SCALE:-3}" \
  "$BUILD_DIR/tests/fleet_golden_test" --gtest_brief=1 || status=$?

# Fleet failure domain under TSan: dark shards freeze and catch up, agents
# die and reboot mid-run, and the coordinator re-places bindings on the
# barrier lane -- all while the worker pool steps survivors. The soak is
# trimmed (the fault schedule is a pure hash of (seed, machine, epoch), so
# the short run is an exact prefix of the default-length chaos).
LACHESIS_FLEET_CHAOS_EPOCHS="${LACHESIS_FLEET_CHAOS_EPOCHS:-2000}" \
  "$BUILD_DIR/tests/fleet_chaos_test" --gtest_brief=1 || status=$?

if [ "$status" -ne 0 ]; then
  echo "run_tsan.sh: fleet suites exited with status $status" >&2
fi
exit "$status"
