#!/usr/bin/env bash
# Static-analysis driver: spiderlint (always) + clang-tidy (when installed).
#
# spiderlint is the in-tree determinism, unit-safety, and architecture pass
# (rules L1-L5, L7 and L8, see docs/static-analysis.md);
# clang-tidy adds the generic bugprone / concurrency / performance checks
# configured in .clang-tidy.
#
# Usage: scripts/lint.sh [options] [path...]
#   --fix-hints       print spiderlint fix-it hints and the per-rule digest
#   --json            shorthand for --format=json
#   --format=FMT      spiderlint output format: text (default), json, sarif
#   --baseline=FILE   baseline file (default: ci/spiderlint-baseline.txt
#                     when it exists; --baseline= with no file disables)
#   --changed         the pre-commit hook's fast path: clang-tidy checks only
#                     the files touched vs HEAD (staged + unstaged +
#                     untracked) plus every file that includes them, found
#                     by a fixpoint over the in-tree include spellings.
#                     spiderlint still lints the full tree (<0.1 s); HEAD is
#                     baseline-clean, so whatever it reports comes from the
#                     change. Ignores path args; exits 0 at once when no
#                     lintable file changed.
#   --prune           rewrite the baseline dropping stale entries (full-tree
#                     runs only: pruning against a partial run deletes
#                     entries for files that simply were not linted)
#   --stale=MODE      warn (default) or error on stale baseline entries
#   --stats           print the spiderlint-stats line (files/findings/ms)
#   path...           files or directories (default: src tests bench)
#
# Exit codes: 0 clean, 1 findings (either tool), 2 environment/usage error.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

SPIDERLINT_ARGS=()
PATHS=()
BASELINE="__default__"
CHANGED=0
PRUNE=0
STALE_MODE=""
for arg in "$@"; do
  case "$arg" in
    --fix-hints)   SPIDERLINT_ARGS+=(--fix-hints) ;;
    --json)        SPIDERLINT_ARGS+=(--format=json) ;;
    --format=*)    SPIDERLINT_ARGS+=("$arg") ;;
    --stats)       SPIDERLINT_ARGS+=(--stats) ;;
    --changed)     CHANGED=1 ;;
    --prune)       PRUNE=1 ;;
    --stale=*)     STALE_MODE="${arg#--stale=}" ;;
    --baseline=*)  BASELINE="${arg#--baseline=}" ;;
    --*)           echo "unknown option: $arg" >&2; exit 2 ;;
    *)             PATHS+=("$arg") ;;
  esac
done
if [ "${#PATHS[@]}" -eq 0 ]; then PATHS=(src tests bench); fi
if [ "$BASELINE" = "__default__" ] && [ -f ci/spiderlint-baseline.txt ]; then
  BASELINE=ci/spiderlint-baseline.txt
fi
if [ -n "$BASELINE" ] && [ "$BASELINE" != "__default__" ]; then
  SPIDERLINT_ARGS+=("--baseline=${BASELINE}")
fi
if [ "$PRUNE" -eq 1 ]; then SPIDERLINT_ARGS+=(--prune-baseline); fi
if [ -n "$STALE_MODE" ]; then SPIDERLINT_ARGS+=("--stale=${STALE_MODE}"); fi

# --changed: collect files touched vs HEAD, then close over their includers
# so a header edit re-checks every translation unit it can break. Include
# edges are matched by include spelling (the same key spiderlint's L5 include
# graph uses), iterated to a fixpoint. The closure decides what clang-tidy
# checks; spiderlint lints the full default path set either way.
if [ "$CHANGED" -eq 1 ]; then
  declare -A SELECTED=()
  while IFS= read -r f; do
    case "$f" in
      src/*|tests/*|bench/*) ;;
      *) continue ;;
    esac
    case "$f" in
      */lint_fixtures/*) continue ;;
      *.cpp|*.hpp|*.h|*.hh|*.cc) [ -f "$f" ] && SELECTED["$f"]=1 ;;
    esac
  done < <({ git diff --name-only HEAD; git ls-files --others --exclude-standard; } | sort -u)

  grown=1
  while [ "$grown" -eq 1 ]; do
    grown=0
    # Include spellings are repo paths minus the src/ prefix ("sim/time.hpp").
    spellings=()
    for f in "${!SELECTED[@]}"; do
      case "$f" in
        src/*.hpp|src/*.h|src/*.hh) spellings+=("${f#src/}") ;;
      esac
    done
    [ "${#spellings[@]}" -eq 0 ] && break
    pattern="$(printf '#include "%s"\n' "${spellings[@]}")"
    while IFS= read -r f; do
      case "$f" in */lint_fixtures/*) continue ;; esac
      if [ -z "${SELECTED[$f]:-}" ]; then
        SELECTED["$f"]=1
        grown=1
      fi
    done < <(grep -rlF "$pattern" src tests bench \
               --include='*.cpp' --include='*.hpp' --include='*.h' \
               --include='*.hh' --include='*.cc' 2>/dev/null || true)
  done

  if [ "${#SELECTED[@]}" -eq 0 ]; then
    echo "OK: no lintable changes vs HEAD"
    exit 0
  fi
  mapfile -t CHANGED_FILES < <(printf '%s\n' "${!SELECTED[@]}" | sort)
  PATHS=(src tests bench)
  echo "=== lint --changed: clang-tidy on ${#CHANGED_FILES[@]} file(s), spiderlint on the full tree ==="
fi

# Build (or refresh) the spiderlint binary; export compile commands so a
# clang-tidy pass can piggyback on the same build tree.
if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
fi
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target spiderlint > /dev/null

if [ ! -x "${BUILD_DIR}/tools/spiderlint" ]; then
  echo "FATAL: spiderlint binary missing at ${BUILD_DIR}/tools/spiderlint" >&2
  echo "       (the build above should have produced it — check the cmake output)" >&2
  exit 2
fi

echo "=== spiderlint ==="
status=0
"${BUILD_DIR}/tools/spiderlint" "${SPIDERLINT_ARGS[@]+"${SPIDERLINT_ARGS[@]}"}" \
    "${PATHS[@]}" || status=$?
if [ "$status" -ge 2 ]; then exit "$status"; fi

# clang-tidy is optional tooling (not in every container image): run it when
# present, note the skip when not — never fail for a missing binary.
if command -v clang-tidy > /dev/null 2>&1; then
  if [ ! -f "${BUILD_DIR}/compile_commands.json" ]; then
    cmake -B "${BUILD_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  fi
  echo "=== clang-tidy ==="
  if [ "$CHANGED" -eq 1 ]; then
    mapfile -t tidy_sources < <(printf '%s\n' "${CHANGED_FILES[@]}" | grep '\.cpp$' || true)
  else
    mapfile -t tidy_sources < <(find "${PATHS[@]}" -name '*.cpp' ! -path '*/lint_fixtures/*' | sort)
  fi
  if [ "${#tidy_sources[@]}" -gt 0 ]; then
    clang-tidy -p "${BUILD_DIR}" --quiet "${tidy_sources[@]}" || status=1
  fi
else
  echo "=== clang-tidy: not installed, skipping (spiderlint still ran) ==="
fi

if [ "$status" -eq 0 ]; then
  echo "OK: lint clean"
else
  echo "FAIL: lint findings above" >&2
fi
exit "$status"
