#!/usr/bin/env bash
# Chaos gate: builds the fault-tolerance and chaos-soak tests under
# ASan/UBSan and runs them. Everything in these suites is seeded and
# deterministic, so a failure here reproduces byte-identically with a plain
# local rerun of the same binaries. Usage:
#   ci/run_chaos.sh [build-dir]
# Environment:
#   LACHESIS_SANITIZE  sanitizer list (default address,undefined)
#   CMAKE_BUILD_TYPE   defaults to RelWithDebInfo (asserts stay on)
set -euo pipefail

SRC_DIR=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$SRC_DIR/build-chaos"}
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}" \
  -DLACHESIS_SANITIZE="${LACHESIS_SANITIZE:-address,undefined}"
# The container property suites (stable_pool_test, hash_index_test) run
# here too: linear-probing deletions, pool free-list reuse, and arena
# block recycling are exactly the code ASan/UBSan catches lying about.
# The heterogeneous-core suites run here too: the conformance fuzzer
# drives random capacity vectors and deadline triples through the sim, and
# ASan/UBSan is where queue index arithmetic and budget accounting get
# caught lying.
# fleet_chaos_test is the fleet-level failure domain: seeded machine
# crash/restart, partitions and slow shards against real per-shard control
# planes, with replay-determinism and reconvergence gates. ASan/UBSan is
# where the reboot path (retired runner graveyard, re-placed bindings,
# catch-up replay) would leak or index out of bounds.
# tsdb_test and sim_driver_test cover the metric store's sample rings and
# the series handles the scraper and drivers cache: ring index arithmetic,
# trimming and growth are where an off-by-one reads outside a ring.
# spe_physical_test covers the egress state only egress operators allocate
# and the chunked latency reservoirs: a null egress pointer or a reservoir
# slot past the end is what ASan catches. spe_runtime_test and
# spe_property_test fill the same 4-byte reservoirs from deployed queries.
# Schedules borrow entity pointers from the metric provider's snapshot, and
# the delta layer keys health and recorder state by target id: the
# policy, translator, transform, provider, runner and HR + shares golden
# suites would read a stale snapshot here, and sim_os_adapter_test and
# obs_ring_test cover the hashed group index and the recorder's id path.
# native_queue_test and native_runtime_test run here as well as under TSan:
# the executor's parks hand the futex syscall a pointer derived from an
# atomic, and ring slot indexing wraps on every lap.
# native_driver_test, daemon_config_test and raw_metric_mapping_test parse
# text from outside the program (graphite lines, config files) and drive the
# raw-metric reader's series-handle table from the file driver.
# osctl_test parses /proc fixtures, text from outside the program, and
# covers the resolver that picks an operator's thread among them.
# exp_report_test indexes the letter-value name table by depth.
# integration_test runs exp::RunScenario, whose egresses keep only the
# processing reservoir, and ulss_test deploys passive operators and reads
# their egresses: an unkept reservoir read past its end is what ASan
# catches.
SUITES=(
  fault_tolerance_test failure_injection_test
  schedule_delta_test runner_dynamic_test
  stable_pool_test hash_index_test alloc_regression_test
  hetero_machine_test conformance_test
  tsdb_test sim_driver_test spe_physical_test
  spe_runtime_test spe_property_test
  policies_test translators_test transform_test
  metric_provider_test runner_test hr_shares_golden_test
  sim_os_adapter_test obs_ring_test
  native_queue_test native_runtime_test
  native_driver_test daemon_config_test raw_metric_mapping_test
  osctl_test exp_report_test
  integration_test ulss_test
  fleet_sim_test fleet_chaos_test
)
cmake --build "$BUILD_DIR" -j "$JOBS" --target "${SUITES[@]}"

# The fleet soak's epoch count is trimmed under sanitizers: the schedule is
# a pure hash of (seed, machine, epoch), so the shorter run replays an exact
# prefix of the default-length chaos.
export LACHESIS_FLEET_CHAOS_EPOCHS="${LACHESIS_FLEET_CHAOS_EPOCHS:-4000}"
status=0
for t in "${SUITES[@]}"; do
  "$BUILD_DIR/tests/$t" --gtest_brief=1 || status=$?
done
if [ "$status" -ne 0 ]; then
  echo "run_chaos.sh: chaos suites exited with status $status" >&2
fi
exit "$status"
