#!/usr/bin/env bash
# Native control-plane smoke: proves the SAME runner that drives the
# simulator also drives a live Linux host.
#
#   1. lachesisd --dry-run over a real process (a spawned `sleep`),
#      discovered via /proc -- needs no privileges; its tick lines must
#      reach a redirected log before the SIGTERM that stops it, and a
#      series in its metrics file must reach the policy.
#   2. The sim-vs-native conformance differential (real setpriority /
#      cgroupfs where permitted; the test skips internally otherwise).
#   3. lachesisd serving two [native-query] chains itself: a short soak of
#      the native executor under the control loop.
#
# Usage:
#   ci/run_native_smoke.sh [build-dir]
# Steps that need privileges the host lacks (CAP_SYS_NICE, a writable
# cgroupfs) are SKIPPED with an explicit message, not failed: an
# unprivileged CI container still validates discovery, config parsing, the
# wake loop, and delta accounting.
set -euo pipefail

SRC_DIR=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$SRC_DIR/build-ci"}

if [ ! -x "$BUILD_DIR/examples/lachesisd" ]; then
  echo "run_native_smoke.sh: building $BUILD_DIR first"
  cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
    -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}"
  cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)" \
    --target lachesisd conformance_differential_test
fi
LACHESISD="$BUILD_DIR/examples/lachesisd"

WORK_DIR=$(mktemp -d /tmp/lachesis-native-smoke.XXXXXX)
SLEEP_PID=
cleanup() {
  [ -n "$SLEEP_PID" ] && kill "$SLEEP_PID" 2>/dev/null || true
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# --- 1. lachesisd dry-run against a real discovered process ----------------
sleep 30 &
SLEEP_PID=$!
touch "$WORK_DIR/metrics.log"
cat > "$WORK_DIR/config.ini" <<EOF
[lachesis]
period_ms = 100
policy = queue-size
translator = nice
metrics_file = $WORK_DIR/metrics.log
provides = queue_size

[query smoke]
pid = $SLEEP_PID
operator main = sleep smoke.main ingress
EOF

echo "run_native_smoke.sh: lachesisd --dry-run (2 iterations)"
"$LACHESISD" "$WORK_DIR/config.ini" --dry-run --iterations 2

# --iterations takes a whole count >= 1; anything else is a usage error.
status=0
"$LACHESISD" "$WORK_DIR/config.ini" --dry-run --iterations 5x || status=$?
if [ "$status" -ne 2 ]; then
  echo "run_native_smoke.sh: FAIL --iterations 5x exited $status, not 2" >&2
  exit 1
fi

# --- 1b. Chrome-trace export from the same dry run --------------------------
# The daemon must dump a Perfetto-loadable trace on exit when --trace is
# given; validating the header proves the observability plumbing is wired
# through the native path, not just the simulator.
echo "run_native_smoke.sh: lachesisd --trace export"
"$LACHESISD" "$WORK_DIR/config.ini" --dry-run \
  --iterations 2 --trace "$WORK_DIR/trace.json"
if [ ! -s "$WORK_DIR/trace.json" ]; then
  echo "run_native_smoke.sh: FAIL --trace produced no file" >&2
  exit 1
fi
case "$(head -c 16 "$WORK_DIR/trace.json")" in
  '{"traceEvents"'*) echo "run_native_smoke.sh: trace export OK" ;;
  *)
    echo "run_native_smoke.sh: FAIL trace.json is not a Chrome trace:" >&2
    head -c 200 "$WORK_DIR/trace.json" >&2
    exit 1
    ;;
esac

# --- 1c. an operator thread discovery never resolved ------------------------
# An op on an entity whose pattern matched no thread fails, in LinuxOsAdapter
# and in the dry run alike: the log must say that nothing is set instead of a
# would-set line, and the exit line must count no op as applied.
cat > "$WORK_DIR/unresolved.ini" <<EOF
[lachesis]
period_ms = 100
metrics_file = $WORK_DIR/metrics.log
provides = queue_size

[query unresolved]
pid = $SLEEP_PID
operator main = no-such-thread smoke.main ingress
EOF
echo "run_native_smoke.sh: lachesisd --dry-run, pattern matching no thread"
"$LACHESISD" "$WORK_DIR/unresolved.ini" --dry-run --iterations 2 |
  tee "$WORK_DIR/unresolved.out"
if ! grep -q "thread not resolved" "$WORK_DIR/unresolved.out" ||
  grep -q "would set nice(-1)" "$WORK_DIR/unresolved.out"; then
  echo "run_native_smoke.sh: FAIL dry run logs a write to an unresolved" \
    "thread" >&2
  exit 1
fi
if ! grep -q "^lachesisd: .* ops applied=0 " "$WORK_DIR/unresolved.out"; then
  echo "run_native_smoke.sh: FAIL an op on an unresolved thread counts as" \
    "applied" >&2
  exit 1
fi

# --- 1d. tick lines reach a redirected log as they happen -------------------
# stdout is line-buffered, so a daemon logging to a file shows each tick when
# it runs, and the SIGTERM that stops it loses none of them.
echo "run_native_smoke.sh: lachesisd --dry-run into a file, stopped by SIGTERM"
status=0
timeout 2 "$LACHESISD" "$WORK_DIR/config.ini" --dry-run \
  --iterations 9223372036854775807 >"$WORK_DIR/ticks.log" || status=$?
if [ "$status" -ne 124 ] || ! grep -q "^tick " "$WORK_DIR/ticks.log"; then
  echo "run_native_smoke.sh: FAIL lachesisd exited $status (124 = stopped" \
    "by timeout) with $(grep -c "^tick " "$WORK_DIR/ticks.log") tick lines" \
    "in its redirected log" >&2
  exit 1
fi

# --- 1e. a metric read from the file through the [query] path ---------------
# FCFS ranks by head_tuple_age, which the raw-metric table serves from the
# operator's head_tuple_age_ns series; the verbose trace records each value
# the provider read, so the file's 5000 must appear under the entity path.
echo "smoke.main.head_tuple_age_ns 5000 1" >"$WORK_DIR/fcfs_metrics.log"
cat > "$WORK_DIR/fcfs.ini" <<EOF
[lachesis]
period_ms = 100
policy = fcfs
metrics_file = $WORK_DIR/fcfs_metrics.log
provides = head_tuple_age_ns
obs_verbose = true

[query smoke]
pid = $SLEEP_PID
operator main = sleep smoke.main ingress
EOF
echo "run_native_smoke.sh: lachesisd --dry-run reads a metric from the file"
"$LACHESISD" "$WORK_DIR/fcfs.ini" --dry-run --iterations 2 \
  --trace "$WORK_DIR/fcfs_trace.json"
if ! grep -qF '"metric:head_tuple_age","args":{"smoke.main":5000}' \
  "$WORK_DIR/fcfs_trace.json"; then
  echo "run_native_smoke.sh: FAIL the trace holds no head_tuple_age of" \
    "5000 for smoke.main read from the metrics file" >&2
  exit 1
fi

# --- 2. sim-vs-native differential on real OS mechanisms --------------------
# Needs permission to renice within [0,19] (usually available) and, for the
# cgroup half, a writable cgroupfs; the gtest skips internally per-case.
if renice -n 5 -p $$ >/dev/null 2>&1 && renice -n 0 -p $$ >/dev/null 2>&1; then
  echo "run_native_smoke.sh: running sim-vs-native conformance differential"
  "$BUILD_DIR/tests/conformance_differential_test"
else
  echo "run_native_smoke.sh: SKIP conformance differential:" \
    "host does not permit renice (no CAP_SYS_NICE / restricted container)"
fi

# --- 3. lachesisd serving native queries: short soak ------------------------
# Real operator threads, lock-free rings, rate-controlled sources, and the
# LachesisRunner scheduling the live kernel tids each tick. Every native
# query's exit line must show ingested tuples and a positive throughput read
# back from the driver's time-series store, so this asserts the full
# ingest -> scrape -> schedule loop, not just that threads started.
cat > "$WORK_DIR/native.ini" <<EOF
[lachesis]
period_ms = 250

[native-query light]
rate_tps = 1000
operators = in:5 filter:20 out:5

[native-query heavy]
rate_tps = 500
operators = in:5 work:200 out:5
EOF

soak() {
  "$LACHESISD" "$WORK_DIR/native.ini" "$@" --iterations 8 |
    tee "$WORK_DIR/soak.out"
  local idle='(ingested=0 |scraped_tps=(-|nan|0\.0$))'
  if ! grep -q "^lachesisd: native query" "$WORK_DIR/soak.out" ||
    grep -qE "^lachesisd: native query .*$idle" "$WORK_DIR/soak.out"; then
    echo "run_native_smoke.sh: FAIL a native query carried no traffic" >&2
    exit 1
  fi
}

echo "run_native_smoke.sh: lachesisd native soak (--dry-run, 8 periods)"
soak --dry-run

# Without --dry-run lachesisd renices its own executor threads for real;
# gate it on the same privilege probe as the conformance differential.
if renice -n 5 -p $$ >/dev/null 2>&1 && renice -n 0 -p $$ >/dev/null 2>&1; then
  echo "run_native_smoke.sh: lachesisd native soak (real OS, 8 periods)"
  soak
else
  echo "run_native_smoke.sh: SKIP lachesisd real-OS native soak:" \
    "host does not permit renice (no CAP_SYS_NICE / restricted container)"
fi

echo "run_native_smoke.sh: OK"
