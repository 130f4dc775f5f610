#!/usr/bin/env bash
# Quick quality gate: the tier-1 test label (fast suites), the smoke
# benches and their regression gate, then the tier-1 label again under an
# AddressSanitizer/UBSan build.
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
# Concurrency 1 ("c1") vs 1024 ("c1024") head-of-line rows; writes
# BENCH_exec_engine.json next to the other BENCH_* artifacts (acceptance:
# c1024 bystander p99 < 0.5x c1).
(cd build && ./bench/bench_throughput --smoke)

echo
echo "== bulk state-transfer bench (smoke) =="
# Chunked-vs-bulk recovery sweep; the binary exits non-zero on a hang, an
# invariant violation, an extent digest mismatch, or a silent in-band
# fallback faking the bulk rows.
(cd build && ./bench/bench_bulk_transfer --smoke)

echo
echo "== fast-path state-transfer bench (smoke) =="
# Seed/chunked/delta recovery sweep, bystander p99 under a concurrent
# transfer, and stable-storage bytes per logged message; writes
# BENCH_state_transfer.json for the gate below.
(cd build && ./bench/bench_state_transfer --smoke)

echo
echo "== multi-ring scale-out bench (smoke) =="
# 1/2/4-ring sweep plus the isolated-reform row; the binary exits non-zero
# on an invariant violation, a missing reformation, a reformation leaking
# onto a bystander ring, or a scale-up ratio below 2.5x. Its wall time (the
# largest tier-1 item, dominated by tracing and the InvariantChecker) is
# printed for the record, not gated: wall time is too noisy to gate.
multi_ring_start_ms=$(( $(date +%s%N) / 1000000 ))
(cd build && ./bench/bench_multi_ring --smoke)
multi_ring_ms=$(( $(date +%s%N) / 1000000 - multi_ring_start_ms ))
printf 'bench_multi_ring --smoke wall time: %d.%03d s (reported, not gated)\n' \
  $((multi_ring_ms / 1000)) $((multi_ring_ms % 1000))

echo
echo "== critical-path attribution bench (smoke) =="
# Per-segment latency decomposition across the saturation knee; the binary
# itself exits non-zero if any invocation's segments fail to sum to its
# end-to-end latency.
(cd build && ./bench/bench_critical_path --smoke)

echo
echo "== bench regression gate =="
# Diff the fresh smoke results against the committed baselines; fails on
# any gated metric moving past its tolerance (scripts/bench_gate.py). The
# selftest first proves the gate's pass and fail paths still work.
python3 scripts/bench_gate.py --selftest >/dev/null
python3 scripts/bench_gate.py --results build --baselines bench/baselines

echo
echo "== source size (reported, not gated) =="
# The design aim's two numbers, which every change reports as it moves them.
printf 'src/ .cpp/.hpp lines: %s\n' \
  "$(find src \( -name '*.cpp' -o -name '*.hpp' \) -exec cat {} + | wc -l)"
printf 'src/core/mechanisms* + src/core/exec/ lines: %s\n' \
  "$(cat src/core/mechanisms* src/core/exec/* | wc -l)"

if [[ "${1:-}" == "--fast" ]]; then
  echo "check.sh: tier-1 gate passed (sanitizer stage skipped)"
  exit 0
fi

echo
echo "== ASan/UBSan: the tier-1 suites =="
cmake -B build-asan -S . -DETERNAL_SANITIZE=ON >/dev/null
cmake --build build-asan -j"$JOBS"
# Every tier-1 case except the bench smokes, decode_fuzz_bounded's
# ETERNAL_FUZZ_ITERS=64 budget included.
ctest --test-dir build-asan -L tier1 -E 'bench_' --output-on-failure
# Not labelled tier1, run here too: the lossy-network suite and the
# warm-passive promotion seeds of the execution-engine conformance sweep.
"build-asan/tests/lossy_network_test"
"build-asan/tests/exec_conformance_test" \
  --gtest_filter='Seeds/ExecConformance.WarmPassivePromotion/*'

echo "check.sh: all gates passed"
