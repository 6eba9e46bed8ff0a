#!/bin/sh
# Builds a sanitizer-specific slice of the test suite in a nested build
# tree and runs it with halt_on_error=1. Usage:
#
#   scripts/run_sanitizer_tests.sh thread|address|undefined
#
# Registered as the ctest jobs `tsan_concurrency`, `asan_memory` and
# `ubsan_arith`; exits 77 (ctest SKIP) when the toolchain cannot link a
# binary under the requested sanitizer. Per-sanitizer target sets stay
# small on purpose: nested builds run serially on CI boxes, and each
# sanitizer earns its keep on a different slice (TSan on the concurrent
# paths, ASan on allocation-heavy tree maintenance and paging, UBSan on
# the arithmetic-dense cost models).
#
# MCM_SANITIZER_BUILD_DIR overrides the nested build directory; for
# thread, the historical MCM_TSAN_BUILD_DIR is honored too.
set -eu

SANITIZER=${1:-}
case "${SANITIZER}" in
  thread)
    TARGETS="engine_executor_test executor_shutdown_test buffer_pool_test page_file_test bounded_metric_test node_cache_test telemetry_export_test witness_test witness_reuse_test bulk_stream_test readahead_test shard_router_test"
    ;;
  address)
    TARGETS="buffer_pool_test node_test node_store_test page_file_test mtree_insert_test mtree_delete_test persist_test check_invariants_test bounded_metric_test string_metrics_test node_cache_test phase_timer_test explain_test witness_test witness_reuse_test mtree_search_identity_test"
    ;;
  undefined)
    TARGETS="histogram_test nmcm_test lmcm_test vp_model_test check_invariants_test kernels_test bounded_metric_test string_metrics_test node_test node_store_test page_file_test node_cache_test phase_timer_test explain_test witness_test witness_reuse_test mtree_search_identity_test"
    ;;
  *)
    echo "usage: $0 thread|address|undefined" >&2
    exit 2
    ;;
esac

SOURCE_DIR=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
DEFAULT_BUILD_DIR="${SOURCE_DIR}/build-${SANITIZER}"
if [ "${SANITIZER}" = "thread" ]; then
  DEFAULT_BUILD_DIR=${MCM_TSAN_BUILD_DIR:-"${SOURCE_DIR}/build-tsan"}
fi
BUILD_DIR=${MCM_SANITIZER_BUILD_DIR:-"${DEFAULT_BUILD_DIR}"}

# Probe: can this toolchain link a binary under this sanitizer at all?
probe_dir=$(mktemp -d)
trap 'rm -rf "${probe_dir}"' EXIT
printf 'int main(){return 0;}\n' > "${probe_dir}/probe.cc"
if ! c++ "-fsanitize=${SANITIZER}" "${probe_dir}/probe.cc" \
    -o "${probe_dir}/probe" 2>/dev/null; then
  echo "-fsanitize=${SANITIZER} unsupported by this toolchain; skipping." >&2
  exit 77
fi

cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DMCM_SANITIZE=${SANITIZER}" \
  -DMCM_BUILD_BENCHMARKS=OFF \
  -DMCM_BUILD_EXAMPLES=OFF \
  -DMCM_BUILD_TOOLS=OFF
# shellcheck disable=SC2086  # TARGETS is a deliberate word list.
cmake --build "${BUILD_DIR}" --target ${TARGETS} -j "${MCM_SANITIZER_JOBS:-2}"

# Fail on the first report, even ones the sanitizer would tolerate by
# default. UBSan additionally needs print_stacktrace for usable output.
for target in ${TARGETS}; do
  TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    "${BUILD_DIR}/tests/${target}"
done
echo "${SANITIZER} sanitizer suite clean."
