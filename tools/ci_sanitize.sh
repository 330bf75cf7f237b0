#!/usr/bin/env bash
# CI sanitizer gate: build the whole tree with ASan+UBSan and run the full
# ctest suite under both runtimes, the unit tests and the `gate` checks of
# tests/gates.py alike. The event-driven dataflow paths (EventBus dispatch,
# GranuleTracker, streaming EomlWorkflow) are exactly the kind of
# callback-heavy code where lifetime bugs hide; this catches them before they
# reach a barrier-mode reproduction run.
#
# A second ThreadSanitizer build (TSan cannot coexist with ASan) covers the
# thread-pool data-parallel ML paths (parallel_for, encode_batch replicas,
# the chunked gradient reduction) and the serving tier's lock-free
# read-during-ingest path (serve_test's ConcurrentReadDuringIngest, the one
# check that pins the shard memory-ordering protocol), and the synthetic
# MODIS samplers shared across threads (modis_test's
# SharedArchiveMaterializesSameBytes: their lattice cursors and row geometry
# must stay call-local).
#
# The paper-run pins run in every plain `ctest` (label gate); the host-timing
# floors run in Release trees (`ctest -L perf`).
#
# Usage: tools/ci_sanitize.sh [build-dir] [tsan-build-dir]
#        (defaults: build-sanitize, build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-sanitize"}"
tsan_dir="${2:-"${repo_root}/build-tsan"}"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

cmake -B "${build_dir}" -S "${repo_root}" -DMFW_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${build_dir}" -j "$(nproc)"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

cmake -B "${tsan_dir}" -S "${repo_root}" -DMFW_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${tsan_dir}" -j "$(nproc)" --target \
      ml_test ml_tensor_test ml_train_test ml_cluster_test ml_continual_test \
      ml_quant_test util_test serve_test modis_test
ctest --test-dir "${tsan_dir}" -R '^(ml_|util_|serve_|modis_)' --output-on-failure
