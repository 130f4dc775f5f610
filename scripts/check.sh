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
echo "== ASan/UBSan: obs, core, hot-path and decoder suites =="
cmake -B build-asan -S . -DETERNAL_SANITIZE=ON >/dev/null
cmake --build build-asan -j"$JOBS" --target \
  obs_test spans_test integration_smoke_test recovery_edge_test quiescence_test \
  orb_state_test three_kinds_state_test \
  batching_equivalence_test exec_engine_test exec_conformance_test \
  bulk_transfer_conformance_test \
  chaos_script_test fleet_stats_test trace_export_golden \
  sim_test totem_test totem_protocol_test util_test giop_test placement_test \
  core_unit_test passive_test stable_storage_test recovery_hazards_test \
  fast_state_transfer_test critpath_test decode_fuzz_test lossy_network_test \
  mechanisms_stats_test deployment_test orb_test orb_locate_test transport_test \
  multitier_test interceptor_test property_test workload_test checkpointable_test
# sim_test: simulator slab + small-buffer callables, Ethernet in-flight slots;
# totem_test/totem_protocol_test: frames and the seq-indexed frame store;
# util_test/giop_test: CDR in-place readers, GIOP inspection, request-id
# patching; placement_test: the memoised ring map.
# Delivery dispatches envelope views that borrow from the Totem delivery, so
# a view kept past its callback is a use-after-free: core_unit_test (the
# envelope view and SeqWindow), passive_test and stable_storage_test (logged
# and persisted messages), recovery_hazards_test and fast_state_transfer_test
# (state, chunk and bulk envelopes), critpath_test (traced replies, and the
# span-on/span-off neutrality run over an active and a log-replaying
# passive group).
# What is kept past a delivery is a slice of the frame's one shared buffer:
# core_unit_test (RetainedDelivery: a queue item, a log entry, the reply
# cache and a pending ORB event each outlive the frame's Ethernet slot,
# store entry and stale replacement) and totem_test (TotemSharedFrames)
# would read freed memory if a holder kept a plain view instead.
# exec_engine_test: the reply sequencer keeps FOMs and parked replies in
# vectors, so a Fom& held across a re-entrant admission would dangle.
# lossy_network_test: the whole stack over a lossy segment, through Totem's
# retransmission and token flow-control paths.
# orb_state_test and three_kinds_state_test drive the fabricated set_state
# with ORB/infrastructure piggyback and handshake replay (the state-op
# barrier and the restore queue).
# mechanisms_stats_test: the first delivered copy of an active group's reply
# or replicated client's request withdraws its siblings, erasing from
# Totem's send deque inside the delivery upcall.
# recovery_hazards_test (InfraStateRestore.*) and core_unit_test
# (SeqWindow.MergeMatchesSetUnionReference): a recovered replica's
# duplicate filters are merged with its node's own, not replaced.
# deployment_test: a partitioned node that rejoins the ring fresh drops
# the ring's state (reset_ring_state), filters included, which a later
# recovery's merge fills in again.
# orb_test, orb_locate_test and transport_test: the ORB reads each inbound
# message in place and a dispatched request keeps a view of its arguments
# into the inbound frame's shared buffer across scheduled events, until the
# servant completes it; a request that kept a plain view instead would read
# freed memory (OrbSharedFrame.ArgsOutliveEveryOtherHolderOfTheFrame).
# multitier_test: a slow active sibling's late nested call is answered
# from the reply cache, a retained slice of an earlier delivery.
# A client's ReplyOutcome body is a slice of the inbound reply, and a queued
# Totem message keeps its body until its last fragment is sent:
# interceptor_test, property_test, workload_test and checkpointable_test
# consume replies through the whole stack, so a handler that kept a view of
# a reply, or a body freed before its last fragment, reads freed memory.
# Trace fields hold views of literals and of names the trace interns:
# chaos_script_test exports a trace after its ChaosScript is destroyed, and
# trace_export_golden renders every producer's fields.
for t in obs_test spans_test integration_smoke_test recovery_edge_test quiescence_test \
         orb_state_test three_kinds_state_test chaos_script_test fleet_stats_test trace_export_golden exec_engine_test \
         sim_test totem_test totem_protocol_test util_test giop_test placement_test \
         core_unit_test passive_test stable_storage_test recovery_hazards_test \
         fast_state_transfer_test critpath_test lossy_network_test mechanisms_stats_test \
         deployment_test orb_test orb_locate_test transport_test multitier_test \
         interceptor_test property_test workload_test checkpointable_test; do
  "build-asan/tests/$t"
done
# Every decoder under the sanitizers, with the tier-1 fuzz budget.
ETERNAL_FUZZ_ITERS=64 "build-asan/tests/decode_fuzz_test"
# Batch packing/unpacking moves raw payload bytes on the hot path; run the
# fast ordering-equivalence seeds under the sanitizers too.
"build-asan/tests/batching_equivalence_test" --gtest_filter='BatchingEquivalenceFast.*'
# Execution-engine conformance: the fast seeds exercise the full enqueue/
# phase/reply-sequencer machinery (including the overlap scenario), and the
# warm-passive promotion seeds replay the message log through the engine,
# under ASan/UBSan.
"build-asan/tests/exec_conformance_test" \
  --gtest_filter='ExecConformanceFast.*:Seeds/ExecConformance.WarmPassivePromotion/*'
# Bulk-lane conformance: the fast seeds move real extent payloads over the
# lane (descriptor/ack/marker, digest stash, fallback) under ASan/UBSan.
"build-asan/tests/bulk_transfer_conformance_test" --gtest_filter='BulkConformanceFast.*'

echo "check.sh: all gates passed"
