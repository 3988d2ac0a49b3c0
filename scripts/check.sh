#!/usr/bin/env bash
# Correctness gate: lint + sanitized builds + deterministic-replay
# verification.
#
# Stage 0 runs the static-analysis pass (spiderlint, plus clang-tidy when
# installed — see docs/static-analysis.md); it is the cheapest stage, so it
# goes first. Then the address and undefined sanitizer presets build and run
# the full test suite, the thread preset runs the `threaded` tests (the
# tests that run pool workers or sharded-engine lanes concurrently: the
# project's one concurrency check), and finally the deterministic-replay
# test runs twice in fresh processes and the replay hashes are diffed —
# proving the simulation core is reproducible across process boundaries,
# not just within one. A fault-campaign smoke stage then replays the plans/ smoke
# scenarios under ASan and diffs the JSON verdicts the same way, a
# parallel-campaign stage proves spiderfault --jobs=8 emits bytes identical
# to the serial run, a fsck stage runs the corrupt -> detect -> repair ->
# re-verify loop under ASan (spiderfsck JSON diffed across two processes,
# plus spiderfault --fsck over the smoke plans, docs/fsck.md), a
# changelog-churn stage runs the billion-file churn -> crash -> replay ->
# oracle loop under ASan (spiderfault --churn, docs/metadata-changelog.md),
# and a bench-smoke stage runs the five gated benches against their
# checked-in baselines (scripts/bench.sh --smoke).
#
# Usage: scripts/check.sh [build-root]   (default: build-check/)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_ROOT="${1:-build-check}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# The lint stage is load-bearing: a missing spiderlint binary must fail the
# gate loudly, never silently degrade into a lint-free run.
echo "=== [lint] spiderlint + clang-tidy ==="
BUILD_DIR="${BUILD_ROOT}/lint" scripts/lint.sh
if [ ! -x "${BUILD_ROOT}/lint/tools/spiderlint" ]; then
  echo "FATAL: lint stage finished without a spiderlint binary at" \
       "${BUILD_ROOT}/lint/tools/spiderlint — the gate cannot vouch for" \
       "this tree" >&2
  exit 2
fi

# run_preset <preset> <ctest label>: the same preset/label pairs as CI's
# `sanitized` matrix.
run_preset() {
  local preset="$1"
  local label="$2"
  local dir="${BUILD_ROOT}/${preset}"
  echo "=== [${preset}] configure + build ==="
  cmake -B "${dir}" -S . -DSPIDER_SANITIZE="${preset}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${preset}] ctest (label: ${label}) ==="
  ctest --test-dir "${dir}" -L "${label}" --output-on-failure -j "${JOBS}"
}

run_preset address sanitized
run_preset undefined sanitized
run_preset thread threaded

# Cross-process replay determinism: the replay test prints a
# "replay-hash: ..." line; two fresh processes must print the same value.
# This catches cross-process nondeterminism (ASLR-dependent hashing,
# uninitialized reads) that in-process same-seed comparison cannot see.
REPLAY_BIN="${BUILD_ROOT}/address/tests/replay_test"
echo "=== cross-process replay determinism ==="
"${REPLAY_BIN}" --gtest_filter='Replay.SameSeedRunsAreBitIdentical' \
    | tee "${BUILD_ROOT}/replay_run1.log"
"${REPLAY_BIN}" --gtest_filter='Replay.SameSeedRunsAreBitIdentical' \
    | tee "${BUILD_ROOT}/replay_run2.log"
if ! diff <(grep '^replay-hash:' "${BUILD_ROOT}/replay_run1.log") \
          <(grep '^replay-hash:' "${BUILD_ROOT}/replay_run2.log"); then
  echo "FAIL: replay hashes diverged across processes" >&2
  exit 1
fi
if ! grep -q '^replay-hash:' "${BUILD_ROOT}/replay_run1.log"; then
  echo "FAIL: replay test emitted no hash line" >&2
  exit 1
fi

# Fault-campaign smoke: the ASan-built spiderfault runs the three smoke
# plans under two seeds each, twice in fresh processes, and the full JSON
# verdict streams (replay hashes included) must be byte-identical — the
# campaign engine's cross-process determinism guarantee from
# docs/fault-injection.md. Every run must also come back oracle-clean.
FAULT_BIN="${BUILD_ROOT}/address/tools/spiderfault"
echo "=== fault-campaign smoke (3 plans x 2 seeds, ASan) ==="
"${FAULT_BIN}" --seeds=2 \
    plans/smoke_rebuild.fplan plans/smoke_failover.fplan \
    plans/smoke_netstorm.fplan \
    | tee "${BUILD_ROOT}/faults_run1.jsonl"
"${FAULT_BIN}" --seeds=2 \
    plans/smoke_rebuild.fplan plans/smoke_failover.fplan \
    plans/smoke_netstorm.fplan \
    > "${BUILD_ROOT}/faults_run2.jsonl"
if ! diff "${BUILD_ROOT}/faults_run1.jsonl" "${BUILD_ROOT}/faults_run2.jsonl"
then
  echo "FAIL: fault-campaign verdicts diverged across processes" >&2
  exit 1
fi
if grep -q '"clean": false' "${BUILD_ROOT}/faults_run1.jsonl"; then
  echo "FAIL: fault-campaign smoke found oracle violations" >&2
  exit 1
fi

# Parallel-campaign determinism: --jobs=N buffers verdicts and emits them in
# enumeration order, so its stdout must be byte-identical to the serial run
# — including mutation fan-out, which exercises the job-list enumeration.
echo "=== parallel fault campaigns (--jobs=8 vs serial, ASan) ==="
"${FAULT_BIN}" --seeds=2 --mutations=3 \
    plans/smoke_rebuild.fplan plans/smoke_failover.fplan \
    plans/smoke_netstorm.fplan \
    > "${BUILD_ROOT}/faults_serial.jsonl"
"${FAULT_BIN}" --seeds=2 --mutations=3 --jobs=8 \
    plans/smoke_rebuild.fplan plans/smoke_failover.fplan \
    plans/smoke_netstorm.fplan \
    > "${BUILD_ROOT}/faults_jobs8.jsonl"
if ! diff "${BUILD_ROOT}/faults_serial.jsonl" \
          "${BUILD_ROOT}/faults_jobs8.jsonl"; then
  echo "FAIL: spiderfault --jobs=8 output diverged from the serial run" >&2
  exit 1
fi

# Corrupt -> fsck -> oracle loop under ASan (docs/fsck.md): spiderfsck must
# flag a seeded-corrupt tree (dry run exits 1), repair it in one pass (exit
# 0), and emit byte-identical dry-run JSON from two fresh processes;
# spiderfault --fsck then runs the repair stage after every plans/ campaign
# and each verdict's repair section must report post_repair_clean.
FSCK_BIN="${BUILD_ROOT}/address/tools/spiderfsck"
echo "=== fsck corrupt/repair loop (ASan) ==="
if "${FSCK_BIN}" --corrupt=10 --dry-run --json \
    > "${BUILD_ROOT}/fsck_dry.json" 2>/dev/null; then
  echo "FAIL: spiderfsck --dry-run reported a corrupt tree clean" >&2
  exit 1
fi
if ! "${FSCK_BIN}" --corrupt=10 --json \
    > "${BUILD_ROOT}/fsck_repair.json" 2>/dev/null; then
  echo "FAIL: spiderfsck repair did not converge on the corrupt tree" >&2
  exit 1
fi
"${FSCK_BIN}" --corrupt=10 --dry-run --json \
    > "${BUILD_ROOT}/fsck_dry2.json" 2>/dev/null || true
if ! diff "${BUILD_ROOT}/fsck_dry.json" "${BUILD_ROOT}/fsck_dry2.json"; then
  echo "FAIL: spiderfsck dry-run JSON diverged across processes" >&2
  exit 1
fi
echo "=== campaign fsck stage (spiderfault --fsck, ASan) ==="
"${FAULT_BIN}" --fsck \
    plans/smoke_rebuild.fplan plans/smoke_failover.fplan \
    plans/smoke_netstorm.fplan \
    > "${BUILD_ROOT}/faults_fsck.jsonl"
if grep -q '"post_repair_clean": false' "${BUILD_ROOT}/faults_fsck.jsonl" \
    || ! grep -q '"post_repair_clean": true' \
         "${BUILD_ROOT}/faults_fsck.jsonl"; then
  echo "FAIL: a campaign's repaired state re-checked dirty" >&2
  exit 1
fi

# Changelog churn -> crash -> replay -> oracle loop under ASan
# (docs/metadata-changelog.md): DNE namespaces churn on one serial
# Simulator while the incremental purge engine and LustreDU answer from the
# changelog; the consistency oracle audits every epoch barrier and the
# verdict proves the query paths took zero namespace walks. Two fresh
# processes must emit byte-identical verdicts, and the acceptance run
# must clear a billion logical files. The crash variant truncates the
# committed log mid-run and must detect the rewound cursor and resync.
echo "=== changelog churn -> crash -> replay -> oracle (ASan) ==="
"${FAULT_BIN}" --churn --churn-min-logical=1000000000 \
    | tee "${BUILD_ROOT}/churn_run1.json"
"${FAULT_BIN}" --churn --churn-min-logical=1000000000 \
    > "${BUILD_ROOT}/churn_run2.json"
if ! diff "${BUILD_ROOT}/churn_run1.json" "${BUILD_ROOT}/churn_run2.json"
then
  echo "FAIL: churn verdicts diverged across processes" >&2
  exit 1
fi
if ! grep -q '"ok": true' "${BUILD_ROOT}/churn_run1.json"; then
  echo "FAIL: changelog churn run was not oracle-clean at 1e9 files" >&2
  exit 1
fi
if ! grep -q '"query_walks": 0' "${BUILD_ROOT}/churn_run1.json"; then
  echo "FAIL: a changelog-era query path walked the namespace" >&2
  exit 1
fi
"${FAULT_BIN}" --churn --churn-crash \
    > "${BUILD_ROOT}/churn_crash.json"
if ! grep -q '"crash_detected": true' "${BUILD_ROOT}/churn_crash.json" \
    || ! grep -q '"ok": true' "${BUILD_ROOT}/churn_crash.json"; then
  echo "FAIL: churn crash variant did not detect + resync cleanly" >&2
  exit 1
fi

# Bench smoke: seconds-long runs of the five gated benches, each
# shape-checked against its ci/bench-baseline-*.json (0.60x floor). Catches
# perf collapses — an accidental per-event allocation, a serialized pool —
# not single-digit drift; see docs/performance.md.
echo "=== bench smoke (five gated benches vs ci/ baselines) ==="
scripts/bench.sh --smoke "${BUILD_ROOT}/bench"

echo "OK: sanitized and threaded suites passed, replay hashes and fault" \
     "verdicts stable, parallel campaigns deterministic, fsck repairs" \
     "converged, changelog churn oracle-clean at 1e9 logical files," \
     "bench smoke within baseline"
