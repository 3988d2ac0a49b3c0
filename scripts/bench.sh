#!/usr/bin/env bash
# Perf trajectory: build the gated benches in Release and write their
# machine-readable reports to the repo root, each gated against its
# checked-in baseline. Every entry of BENCHES is "<binary> <x>": the binary
# writes BENCH_<x>.json, gated against ci/bench-baseline-<x>.json.
#
# Usage: scripts/bench.sh [--smoke] [build-dir]
#   --smoke     seconds-long run sized for CI; full mode is the default and
#               is what PR before/after records should quote.
#   build-dir   defaults to build-bench/ (kept separate from build/ so a
#               sanitizer or Debug tree never pollutes perf numbers).
#
# Stops at the first bench whose shape check fails or whose metric drops
# below the 0.60x regression floor of its baseline (docs/performance.md).
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHES=(
  "bench_micro_engine engine"
  "bench_macro_scale scale"
  "bench_fsck fsck"
  "bench_changelog changelog"
  "bench_lint lint"
)

SMOKE=""
BUILD_DIR="build-bench"
for arg in "$@"; do
  case "${arg}" in
    --smoke) SMOKE="--smoke" ;;
    --*) echo "usage: scripts/bench.sh [--smoke] [build-dir]" >&2; exit 2 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"
echo "=== [bench] configure + build (Release) ==="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target "${BENCHES[@]%% *}"

for entry in "${BENCHES[@]}"; do
  read -r bin x <<< "${entry}"
  echo "=== [bench] ${bin} -> BENCH_${x}.json ==="
  "${BUILD_DIR}/bench/${bin}" \
      --spider-json="BENCH_${x}.json" \
      --baseline="ci/bench-baseline-${x}.json" \
      ${SMOKE}
done
