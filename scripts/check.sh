#!/usr/bin/env bash
# Quick quality gate: the tier-1 test label (fast suites) plus an
# AddressSanitizer/UBSan build of the observability, core, hot-path and
# decoder suites.
#
#   scripts/check.sh           # tier1 ctest + sanitized suites
#   scripts/check.sh --fast    # tier1 ctest only
#
# Tier layout (see tests/CMakeLists.txt):
#   tier1 — every fast suite; the gate that must stay green.
#   slow  — long fault-schedule/sweep suites (stress, lossy network,
#           determinism); run by plain `ctest` but skipped here.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== tier-1 tests =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build -L tier1 --output-on-failure

echo
echo "== chaos scenario matrix (smoke) =="
# Composed-fault sweep: every scenario must come back InvariantChecker-clean
# (bench_chaos exits non-zero on a violation or a hung recovery).
(cd build && ./bench/bench_chaos --smoke)

echo
echo "== exec-engine slow-servant bench (smoke) =="
# Sync-vs-FOM head-of-line row; writes BENCH_exec_engine.json next to the
# other BENCH_* artifacts (acceptance: fom bystander p99 < 0.5x sync).
(cd build && ./bench/bench_throughput --smoke)

echo
echo "== bulk state-transfer bench (smoke) =="
# Chunked-vs-bulk recovery sweep; the binary exits non-zero on a hang, an
# invariant violation, an extent digest mismatch, or a silent in-band
# fallback faking the bulk rows.
(cd build && ./bench/bench_bulk_transfer --smoke)

echo
echo "== multi-ring scale-out bench (smoke) =="
# 1/2/4-ring sweep plus the isolated-reform row; the binary exits non-zero
# on an invariant violation, a missing reformation, a reformation leaking
# onto a bystander ring, or a scale-up ratio below 2.5x.
(cd build && ./bench/bench_multi_ring --smoke)

echo
echo "== critical-path attribution bench (smoke) =="
# Per-segment latency decomposition across the saturation knee; the binary
# itself exits non-zero if any invocation's segments fail to sum to its
# end-to-end latency.
(cd build && ./bench/bench_critical_path --smoke)

echo
echo "== bench regression gate =="
# Diff the fresh smoke results against the committed baselines; fails on
# any gated metric moving past its tolerance (scripts/bench_gate.py).
python3 scripts/bench_gate.py --results build --baselines bench/baselines

if [[ "${1:-}" == "--fast" ]]; then
  echo "check.sh: tier-1 gate passed (sanitizer stage skipped)"
  exit 0
fi

echo
echo "== ASan/UBSan: obs, core, hot-path and decoder suites =="
cmake -B build-asan -S . -DETERNAL_SANITIZE=ON >/dev/null
cmake --build build-asan -j"$JOBS" --target \
  obs_test spans_test integration_smoke_test recovery_edge_test quiescence_test \
  batching_equivalence_test exec_conformance_test bulk_transfer_conformance_test \
  chaos_script_test fleet_stats_test \
  sim_test totem_test totem_protocol_test util_test giop_test placement_test \
  decode_fuzz_test
# sim_test: simulator slab + small-buffer callables, Ethernet in-flight slots;
# totem_test/totem_protocol_test: frames and the seq-indexed frame store;
# util_test/giop_test: CDR in-place readers and GIOP inspection;
# placement_test: the memoised ring map.
for t in obs_test spans_test integration_smoke_test recovery_edge_test quiescence_test \
         chaos_script_test fleet_stats_test \
         sim_test totem_test totem_protocol_test util_test giop_test placement_test; do
  "build-asan/tests/$t"
done
# Every decoder under the sanitizers, with the tier-1 fuzz budget.
ETERNAL_FUZZ_ITERS=64 "build-asan/tests/decode_fuzz_test"
# Batch packing/unpacking moves raw payload bytes on the hot path; run the
# fast ordering-equivalence seeds under the sanitizers too.
"build-asan/tests/batching_equivalence_test" --gtest_filter='BatchingEquivalenceFast.*'
# FOM engine conformance: the fast seeds exercise the full enqueue/phase/
# reply-sequencer machinery (including the overlap scenario) under ASan/UBSan.
"build-asan/tests/exec_conformance_test" --gtest_filter='ExecConformanceFast.*'
# Bulk-lane conformance: the fast seeds move real extent payloads over the
# lane (descriptor/ack/marker, digest stash, fallback) under ASan/UBSan.
"build-asan/tests/bulk_transfer_conformance_test" --gtest_filter='BulkConformanceFast.*'

echo "check.sh: all gates passed"
