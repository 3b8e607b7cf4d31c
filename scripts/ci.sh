#!/usr/bin/env bash
# Tier-1 verification + strict-warnings build + docs checks, exactly what
# CI runs.
#
#   $ scripts/ci.sh            # from the repo root
#   $ scripts/ci.sh --fast     # skip the slow analysis extras (clang-tidy
#                              # and the fuzz-corpus replay build)
#
# 0. Static analysis: bcfl-lint self-check + full-tree pass (always);
#    clang-tidy via scripts/run_tidy.sh, an ASan+UBSan fuzz-corpus
#    replay of fuzz/corpus/, and a clang -Wthread-safety=error build of
#    the whole tree (BCFL_THREAD_SAFETY=ON — the capability annotations
#    in src/common/thread_annotations.hpp). All three skipped under
#    --fast; run_tidy.sh self-skips when clang-tidy is not installed
#    unless BCFL_TIDY_STRICT=1 (CI sets it), and the thread-safety build
#    self-skips without clang++ (its CI job always has clang).
# 1. Docs: markdown links resolve, every factory policy spec, scenario
#    key and lint rule is documented.
# 2. Default configure, full build, then ctest twice: once with the
#    parallel engine pinned serial (BCFL_THREADS=1) and once at the default
#    width — the suite must be green in both worlds.
# 3. Parallel determinism: the micro_substrates serial-vs-parallel bench
#    runs under both thread settings; the fitness fingerprints in
#    BENCH_micro_substrates.json must be byte-identical.
# 3b. Hash kernels: logs the SHA-256 and PoW-search tiers this CPU
#    dispatches to (crypto/hash_kernels.hpp), so the log records which
#    tier produced the scenario documents the cmp gates below compare.
#    Every tier computes the same bits; runners differ in SHA-NI and
#    AVX-512.
# 4. Scenario smoke: the checked-in ci_smoke spec (flat), the
#    hierarchical_ci_smoke spec (flat-vs-clustered sweep), the paper's
#    own wait-for-K sweep (paper_tradeoff) and async_staleness (the only
#    spec that drives staleness_fedavg and reputation through the
#    stale-backfill path) run end-to-end at BCFL_THREADS=1 and 8 — each
#    pair of JSON documents must be byte-identical (the scenario engine's
#    determinism contract). The paper's claim is then checked as
#    relations on paper_tradeoff: mean round time strictly falls
#    wait_all > K=2 > K=1, and final accuracy does not rise
#    wait_all >= K=2 >= K=1.
# 5. Chain parity: the deterministic long-chain and peers-axis scaling
#    sections of the chain bench run
#    (BCFL_CHAIN_BENCH_SECTIONS=long_chain,scaling) so their counts and
#    digests can be gated against the baseline.
# 6. Analyzer parity: the vm_analysis bench section runs so its verdict
#    table, analysis-cache hit counts and registry block-table digest can
#    be gated against the baseline.
# 7. Bench-baseline gate: scripts/bench_compare.py diffs the fresh
#    BENCH_*.json against bench/baselines/ and fails on any
#    accuracy/fitness regression or chain/analyzer-parity mismatch. Then
#    the four fresh scenario documents must be byte-identical (cmp) to
#    their baselines: bench_compare.py passes accuracies within a
#    tolerance, so only cmp catches a kernel that changes results in the
#    last bits (e.g. a GEMM that reorders its sums). Likewise the
#    micro_substrates fitness fingerprint must equal the baseline's string
#    exactly (bench_compare.py skips string leaves under a tolerance
#    path). The baselines come from gcc, so these exact checks run on gcc
#    builds only.
# 8. A second configure with -Wall -Wextra -Werror to keep the tree
#    warning-clean.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "ci.sh: unknown argument '$arg' (supported: --fast)" >&2; exit 2 ;;
  esac
done

echo "== docs: links + policy-spec + scenario-key + lint-rule coverage =="
scripts/check_docs.sh

echo "== lint: bcfl-lint self-check + full tree =="
python3 scripts/bcfl_lint.py --self-check
python3 scripts/bcfl_lint.py

if [ "${FAST}" -eq 1 ]; then
  echo "== tidy + fuzz replay + thread-safety: skipped (--fast) =="
else
  echo "== tidy: curated clang-tidy set over all first-party TUs =="
  scripts/run_tidy.sh

  echo "== fuzz replay: checked-in corpora under ASan+UBSan =="
  cmake -B build-fuzz -S . -DBCFL_FUZZ=ON -DBCFL_ASAN=ON \
    -DBCFL_BUILD_TESTS=OFF -DBCFL_BUILD_BENCHES=OFF -DBCFL_BUILD_EXAMPLES=OFF
  cmake --build build-fuzz -j "${JOBS}"
  for target in json rlp asm model analysis tx node; do
    ./build-fuzz/fuzz/fuzz_${target} fuzz/corpus/${target}/*
  done

  echo "== thread-safety: clang -Wthread-safety as errors =="
  # The BCFL_* capability annotations are checkable by clang only; on a
  # gcc-only box this is skipped (the dedicated CI job always has clang).
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-threadsafety -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DBCFL_THREAD_SAFETY=ON -DBCFL_WERROR=ON
    cmake --build build-threadsafety -j "${JOBS}"
  else
    echo "thread-safety: clang++ not found; skipping (CI runs it)"
  fi
fi

echo "== tier-1: configure + build =="
cmake -B build -S . -DBCFL_BUILD_BENCHES=ON
cmake --build build -j "${JOBS}"

echo "== tier-1: ctest (BCFL_THREADS=1, serial engine) =="
BCFL_THREADS=1 ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== tier-1: ctest (default engine width) =="
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== parallel determinism: bench fitness fingerprint, 1 vs 8 threads =="
fingerprint() {
  # `|| true`: a missing file/field must reach the empty-fingerprint check
  # below (with its diagnostic), not silently kill the script via set -e.
  grep -o '"fitness_fingerprint":"[^"]*"' build/BENCH_micro_substrates.json \
    2>/dev/null || true
}
(cd build && BCFL_THREADS=1 ./bench/micro_substrates \
  --benchmark_filter=AggregationSerialVsParallel >/dev/null)
serial_fp="$(fingerprint)"
(cd build && BCFL_THREADS=8 ./bench/micro_substrates \
  --benchmark_filter=AggregationSerialVsParallel >/dev/null)
parallel_fp="$(fingerprint)"
if [ "${serial_fp}" != "${parallel_fp}" ] || [ -z "${serial_fp}" ]; then
  echo "FITNESS DIVERGENCE between BCFL_THREADS=1 and BCFL_THREADS=8:"
  echo "  1: ${serial_fp}"
  echo "  8: ${parallel_fp}"
  exit 1
fi
echo "fingerprints identical: ${serial_fp}"

echo "== hash kernels: tiers dispatched on this CPU =="
kernels="$(cd build && ./bench/micro_substrates --benchmark_filter='^BM_PowHashRate$' \
  2>&1 >/dev/null | grep '^hash_kernels:' || true)"
if [ -z "${kernels}" ]; then
  echo "micro_substrates printed no hash_kernels context line"
  exit 1
fi
echo "${kernels}"

# Runs scenarios/<name>.json at BCFL_THREADS=1 and 8 into build/; the two
# JSON documents must be byte-identical.
scenario_determinism() {
  local name="$1"
  (cd build && BCFL_THREADS=1 ./examples/bcfl_scenario "../scenarios/${name}.json" \
    --out="BENCH_scenario_${name}.threads1.json")
  (cd build && BCFL_THREADS=8 ./examples/bcfl_scenario "../scenarios/${name}.json" \
    --out="BENCH_scenario_${name}.json" >/dev/null)
  if ! cmp -s "build/BENCH_scenario_${name}.threads1.json" \
              "build/BENCH_scenario_${name}.json"; then
    echo "SCENARIO DIVERGENCE (${name}) between BCFL_THREADS=1 and 8:"
    diff "build/BENCH_scenario_${name}.threads1.json" \
         "build/BENCH_scenario_${name}.json" || true
    exit 1
  fi
  echo "${name}: scenario JSON byte-identical across thread counts"
}

echo "== scenario smoke: ci_smoke, hierarchical_ci_smoke, paper_tradeoff, async_staleness at 1 vs 8 threads =="
scenario_determinism ci_smoke
scenario_determinism hierarchical_ci_smoke
scenario_determinism paper_tradeoff
scenario_determinism async_staleness

echo "== paper claim: async shortens rounds, waiting keeps accuracy =="
python3 - build/BENCH_scenario_paper_tradeoff.json <<'PY'
import json, sys
points = {p["wait_policy"]: p for p in json.load(open(sys.argv[1]))["points"]}
order = ["wait_all,timeout=600s", "wait_for=2,timeout=600s",
         "wait_for=1,timeout=600s"]
rounds = [points[w]["mean_round_s"] for w in order]
accuracy = [points[w]["final_accuracy"] for w in order]
print("mean_round_s   wait_all, K=2, K=1:", rounds)
print("final_accuracy wait_all, K=2, K=1:", accuracy)
if not (rounds[0] > rounds[1] > rounds[2]
        and accuracy[0] >= accuracy[1] >= accuracy[2]):
    sys.exit("PAPER CLAIM BROKEN: expected rounds strictly falling and "
             "accuracy non-rising from wait_all to K=1")
PY

echo "== chain parity: deterministic long-chain + peers-axis scaling sections =="
(cd build && BCFL_CHAIN_BENCH_SECTIONS=long_chain,scaling \
  ./bench/chain_performance >/dev/null)

echo "== analyzer parity: verdicts, cache hits, registry block-table digest =="
(cd build && ./bench/micro_substrates --benchmark_filter=VmAnalysis >/dev/null)

echo "== bench-baseline gate: fresh JSON vs bench/baselines =="
python3 scripts/bench_compare.py build/BENCH_micro_substrates.json \
  build/BENCH_scenario_ci_smoke.json \
  build/BENCH_scenario_hierarchical_ci_smoke.json \
  build/BENCH_scenario_paper_tradeoff.json \
  build/BENCH_scenario_async_staleness.json \
  build/BENCH_chain_performance.json \
  build/BENCH_vm_analysis.json

echo "== bit-exactness: fresh scenario JSON and fitness fingerprint identical to bench/baselines =="
# The baselines were recorded with gcc. Another compiler may evaluate
# function arguments in another order or fold constants differently;
# bench_compare.py's tolerances absorb that, cmp would not.
cxx_id="$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' \
  build/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1)"
if [ "${cxx_id}" != "GNU" ]; then
  echo "bit-exactness: baselines come from gcc, this build is ${cxx_id:-unknown}; skipped"
else
  for name in ci_smoke hierarchical_ci_smoke paper_tradeoff async_staleness; do
    if ! cmp -s "bench/baselines/BENCH_scenario_${name}.json" \
                "build/BENCH_scenario_${name}.json"; then
      echo "BASELINE DRIFT (${name}): output is not byte-identical:"
      diff "bench/baselines/BENCH_scenario_${name}.json" \
           "build/BENCH_scenario_${name}.json" || true
      exit 1
    fi
    echo "${name}: byte-identical to bench/baselines"
  done
  baseline_fp="$(grep -o '"fitness_fingerprint":"[^"]*"' \
    bench/baselines/BENCH_micro_substrates.json || true)"
  if [ -z "${baseline_fp}" ] || [ "${parallel_fp}" != "${baseline_fp}" ]; then
    echo "BASELINE DRIFT (micro_substrates fitness_fingerprint):"
    echo "  baseline: ${baseline_fp}"
    echo "  fresh:    ${parallel_fp}"
    exit 1
  fi
  echo "micro_substrates: fitness fingerprint identical to bench/baselines"
fi

echo "== strict: -Wall -Wextra -Werror build =="
cmake -B build-werror -S . -DBCFL_WERROR=ON
cmake --build build-werror -j "${JOBS}"

echo "ci.sh: all green"
