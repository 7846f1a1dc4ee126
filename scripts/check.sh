#!/usr/bin/env bash
# Sanitizer sweep: builds and runs the test suite under ASan+UBSan, then
# builds the concurrency-sensitive tests (thread pool, kernels, autograd,
# encoding cache, metrics/tracing, training pipeline) under TSan and runs
# them at several pool sizes, checks the observability docs gate, and
# finishes with the perf-smoke bench label. Each configuration gets its own
# build tree so the trees stay incremental across runs.
#
# Usage:
#   scripts/check.sh            # all configurations
#   scripts/check.sh address    # ASan/UBSan only
#   scripts/check.sh thread     # TSan only
#   scripts/check.sh scalar     # full test suite with -DROTOM_SIMD=OFF
#   scripts/check.sh docs       # observability docs gate only
#   scripts/check.sh perf       # perf-smoke benches, then the suite mode
#   scripts/check.sh suite      # repo benchmark: bench/suite smoke + tests
#   scripts/check.sh regress    # bench regression gate vs bench/baseline/
#
# The scalar mode rebuilds and retests everything with the SIMD dispatch
# disabled, proving the mandatory scalar fallback passes the identical
# suite the vectorized build does (DESIGN.md §7 "SIMD dispatch").
#
# The suite mode runs the benchmark of record (bench/suite, BENCHMARK.json)
# at reduced size: bench/suite/run.sh --smoke builds it in its own Release
# tree and checks every declared metric and correctness check, then the
# suite's own CTest label bench-suite runs its unit tests (the label's
# bench_suite_smoke entry is excluded: it is the run.sh --smoke just done).
#
# The regress mode is not part of "all": it needs a quiet machine to be
# meaningful and takes several bench runs. It repeats every gated bench
# (figure-4 smoke, kernel microbench, serve bench, stream bench)
# ROTOM_REGRESS_RUNS
# times (default 3) with the same pinned environment the committed
# baselines were produced with, then feeds the best-of merge to
# scripts/check_bench_regress.sh (see that script and EXPERIMENTS.md for
# the noise model and tolerances).

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"

generator=()
if command -v ninja >/dev/null 2>&1; then
  generator=(-G Ninja)
fi

if [[ "$mode" == "all" || "$mode" == "address" ]]; then
  echo "== ASan/UBSan: full test suite =="
  # An existing tree may predate this script's generator choice; keep it.
  asan_generator=("${generator[@]}")
  if [[ -f build-asan/CMakeCache.txt ]]; then asan_generator=(); fi
  cmake -B build-asan -S . "${asan_generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DROTOM_SANITIZE=address
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j
fi

if [[ "$mode" == "all" || "$mode" == "thread" ]]; then
  echo "== TSan: thread pool + parallel kernel tests =="
  tsan_generator=("${generator[@]}")
  if [[ -f build-tsan/CMakeCache.txt ]]; then tsan_generator=(); fi
  cmake -B build-tsan -S . "${tsan_generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DROTOM_SANITIZE=thread
  cmake --build build-tsan -j \
    --target thread_pool_test kernels_test autograd_test \
             encoding_cache_test obs_test pipeline_determinism_test \
             serve_test registry_test obs_http_test servelog_test \
             stream_test
  # Force a multi-threaded pool even on single-CPU hosts so TSan actually
  # sees concurrent kernel execution, cache hammering, sharded metric
  # writes, prefetch threads, the micro-batching server's worker +
  # 8 closed-loop submitter threads, the registry's client threads
  # racing repeated hot-swaps, and the serving observability surface
  # (the /metrics listener thread + the flight recorder's lock-free
  # append path), and the streaming pipeline's producer thread feeding
  # batches across the prefetch ring, live under that same load.
  for threads in 2 4; do
    echo "-- ROTOM_NUM_THREADS=$threads"
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/thread_pool_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/kernels_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/autograd_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/encoding_cache_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/obs_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/pipeline_determinism_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/serve_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/registry_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/obs_http_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/servelog_test
    ROTOM_NUM_THREADS=$threads ./build-tsan/tests/stream_test
  done
fi

if [[ "$mode" == "all" || "$mode" == "scalar" ]]; then
  echo "== scalar: full test suite with ROTOM_SIMD=OFF =="
  scalar_generator=("${generator[@]}")
  if [[ -f build-scalar/CMakeCache.txt ]]; then scalar_generator=(); fi
  cmake -B build-scalar -S . "${scalar_generator[@]}" -DROTOM_SIMD=OFF
  cmake --build build-scalar -j
  ctest --test-dir build-scalar --output-on-failure -j
fi

if [[ "$mode" == "all" || "$mode" == "docs" ]]; then
  echo "== docs: observability catalog gate =="
  scripts/check_obs_docs.sh
fi

if [[ "$mode" == "all" || "$mode" == "perf" ]]; then
  echo "== perf-smoke: fast bench sanity runs =="
  # The main tree may predate this script; keep whatever generator it used.
  perf_generator=("${generator[@]}")
  if [[ -f build/CMakeCache.txt ]]; then perf_generator=(); fi
  cmake -B build -S . "${perf_generator[@]}"
  cmake --build build -j \
    --target bench_micro_substrate bench_figure4_training_time bench_opspace \
             bench_stream rotom_inspect rotom_serve_bench
  ctest --test-dir build -L perf-smoke --output-on-failure
fi

if [[ "$mode" == "all" || "$mode" == "perf" || "$mode" == "suite" ]]; then
  echo "== suite: repo benchmark smoke + bench-suite tests =="
  bash bench/suite/run.sh --smoke
  cmake --build .bench_build/suite -j --target suite_test
  ctest --test-dir .bench_build/suite -L bench-suite -E '^bench_suite_smoke$' \
    --output-on-failure
fi

if [[ "$mode" == "regress" ]]; then
  echo "== regress: bench regression gate vs bench/baseline =="
  regress_generator=("${generator[@]}")
  if [[ -f build/CMakeCache.txt ]]; then regress_generator=(); fi
  cmake -B build -S . "${regress_generator[@]}"
  cmake --build build -j \
    --target bench_figure4_training_time bench_micro_substrate bench_stream \
             rotom_serve_bench
  runs="${ROTOM_REGRESS_RUNS:-3}"
  regress_tmp="$(mktemp -d)"
  trap 'rm -rf "$regress_tmp"' EXIT
  dirs=()
  for ((i = 1; i <= runs; i++)); do
    echo "-- bench run $i/$runs"
    mkdir -p "$regress_tmp/run$i"
    # Pin the environment the committed baselines were produced with
    # (EXPERIMENTS.md "Refreshing bench baselines"). The microbench sizes
    # its own compute pool per cell, so only the measurement budget needs
    # pinning there.
    ROTOM_SMOKE=1 ROTOM_SEEDS=1 ROTOM_NUM_THREADS=1 \
      ROTOM_BENCH_DIR="$regress_tmp/run$i" \
      ./build/bench/bench_figure4_training_time >/dev/null
    ROTOM_NUM_THREADS=1 ROTOM_BENCH_DIR="$regress_tmp/run$i" \
      ./build/bench/bench_micro_substrate \
      --benchmark_min_time=0.1 >/dev/null
    ROTOM_SMOKE=1 ROTOM_NUM_THREADS=1 \
      ROTOM_BENCH_DIR="$regress_tmp/run$i" \
      ./build/tools/rotom_serve_bench >/dev/null
    ROTOM_SMOKE=1 ROTOM_NUM_THREADS=1 \
      ROTOM_BENCH_DIR="$regress_tmp/run$i" \
      ./build/bench/bench_stream >/dev/null
    dirs+=("$regress_tmp/run$i")
  done
  scripts/check_bench_regress.sh "${dirs[@]}"
fi

echo "check.sh: all requested configurations passed"
