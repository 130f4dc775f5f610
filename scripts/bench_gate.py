#!/usr/bin/env python3
"""Regression gate over the BENCH_*.json result files.

Each bench binary writes a machine-readable result file (schema in
bench/support.hpp: {"bench", "schema_version", "rows": [flat objects]}).
This script diffs freshly produced results against the committed baselines
in bench/baselines/ and exits non-zero when a gated metric moved past its
tolerance in the bad direction — so `scripts/check.sh` fails on a
performance or correctness regression the unit tests cannot see.

Rows are matched by a per-bench key (e.g. chaos rows by scenario,
throughput rows by (system, offered_per_s)). For every gated metric:

    direction "min": regression when current < baseline * (1 - rel) - abs
    direction "max": regression when current > baseline * (1 + rel) + abs

The simulation is deterministic, so on unchanged code current == baseline
exactly; the tolerances are headroom for legitimate code changes, and
correctness-style metrics (invariant violations, partition sum errors) get
zero tolerance. Rows present in the baseline but missing from the current
results fail the gate (a silently skipped scenario is a regression too);
rows only in the current results are informational (new coverage is fine).

Usage:
    bench_gate.py --results build --baselines bench/baselines
    bench_gate.py --selftest          # prove both the pass and fail paths
"""

import argparse
import json
import os
import sys
import tempfile

# metric -> (direction, relative tolerance, absolute tolerance)
# Gates compare row-by-row, so tolerances can stay tight: the bench harness
# is a deterministic discrete-event simulation, not a noisy wall clock.
GATES = {
    "chaos": {
        "key": ["scenario"],
        "metrics": {
            "violations": ("max", 0.0, 0.0),        # invariant-clean, always
            "completed": ("min", 0.30, 0.0),
            "throughput_per_s": ("min", 0.30, 0.0),
            # The median is tight where the tail is loose: the passive
            # scenarios' replies leave on the token visit the primary
            # holds (DESIGN.md, "Output-aware token hold"), and a return to
            # waiting out a rotation moves their p50 by 20-30 %.
            "p50_ms": ("max", 0.15, 0.0),
            "p99_ms": ("max", 0.50, 0.25),
            "cp_partial": ("max", 0.0, 0.0),        # no broken span trees
            # bulk_reform: the promoted holder's re-serve must keep reviving
            # already-acked extents from the digest stash.
            "bulk_resumed": ("min", 0.30, 0.0),
            # ring_isolated_reform: the crashed ring must still reform
            # (loose floor — the exact span count is membership detail),
            # no reformation may ever leak onto a bystander ring, and the
            # bystander tail must stay flat through the foreign outage.
            "crashed_ring_reform_spans": ("min", 0.75, 0.0),
            "bystander_reform_spans": ("max", 0.0, 0.0),
            "bystander_p99_reform_ms": ("max", 0.50, 0.25),
        },
    },
    "bulk_transfer": {
        "key": ["mode", "state_bytes"],
        "metrics": {
            "violations": ("max", 0.0, 0.0),         # invariant-clean, always
            "digest_mismatches": ("max", 0.0, 0.0),  # lane corruption is a bug
            "bulk_fallbacks": ("max", 0.0, 0.0),     # no silent in-band fallback
            "recovered": ("min", 0.0, 0.0),
            "recovery_ms": ("max", 0.50, 0.25),
            "ring_bytes": ("max", 0.30, 0.0),        # the headline reduction
            "bystander_p99_us": ("max", 0.50, 50.0),
            # claim row: chunked/bulk ring-byte ratio must stay an order of
            # magnitude, and bulk must not regress the bystander's p99.
            "ring_bytes_reduction": ("min", 0.30, 0.0),
            "bystander_p99_bulk_over_chunked": ("max", 0.50, 0.05),
        },
    },
    "state_transfer": {
        # Recovery rows key on (section, mode, state_bytes); bystander,
        # claim and storage rows carry no state_bytes and key on
        # (section, mode, None) — row_key reads a missing column as None.
        "key": ["section", "mode", "state_bytes"],
        "metrics": {
            "recovery_ms": ("max", 0.50, 0.25),
            "wire_bytes": ("max", 0.30, 0.0),
            "p99_us": ("max", 0.50, 50.0),
            "max_gap_ms": ("max", 0.50, 0.25),
            # claim row: chunked transfers keep the bystander's p99 under
            # 2x the fault-free baseline (1.42x when recorded).
            "chunked_over_baseline": ("max", 0.30, 0.0),
            "bytes_per_msg": ("max", 0.30, 0.0),     # append-only segment
        },
    },
    "throughput": {
        "key": ["system", "offered_per_s"],
        "metrics": {
            "achieved_per_s": ("min", 0.15, 0.0),
            "p99_ms": ("max", 0.50, 0.20),
            "cp_partial": ("max", 0.0, 0.0),
            # Heap allocations per invocation: a deterministic host-cost
            # proxy, so the tolerance is tight. One allocation put back on
            # the per-operation path (about 4 % of the replicated rows) fails.
            "allocs_per_op": ("max", 0.02, 0.0),
        },
    },
    "exec_engine": {
        "key": ["mode"],
        "metrics": {
            "bystander_achieved_per_s": ("min", 0.20, 0.0),
            "bystander_p99_ms": ("max", 0.50, 0.50),
            # The headline claim of the FOM engine: bystanders are not
            # head-of-line blocked. Keep the ratio from drifting back up.
            "bystander_p99_fom_over_sync": ("max", 0.50, 0.05),
        },
    },
    "multi_ring": {
        # Row kinds share one file: sweep/ring rows carry achieved/p99,
        # saturation rows the per-ring-count ceiling, the scaleup row the
        # headline ratio, the reform row the isolation columns. Metrics
        # missing from a row kind are skipped per the usual rule.
        "key": ["kind", "rings", "offered_per_s", "ring"],
        "metrics": {
            "violations": ("max", 0.0, 0.0),        # invariant-clean, always
            "achieved_per_s": ("min", 0.15, 0.0),
            "p99_ms": ("max", 0.50, 0.25),
            "saturation_per_s": ("min", 0.15, 0.0),
            # The headline claim: 4 independent rings must keep buying
            # multiples of the single ring's saturation throughput.
            "scaleup_4_over_1": ("min", 0.10, 0.0),
            "crashed_reform_spans": ("min", 0.75, 0.0),
            "bystander_reform_spans": ("max", 0.0, 0.0),
            "bystander_p99_after_ms": ("max", 0.50, 0.25),
        },
    },
    "critical_path": {
        "key": ["kind", "mode", "offered_per_s", "window_start_ms"],
        "metrics": {
            # Correctness of the attribution itself: segments + residual
            # must sum to end-to-end latency for every analyzed invocation.
            "sum_errors": ("max", 0.0, 0.0),
            "max_sum_error_ns": ("max", 0.0, 1.0),  # within 1 virtual tick
            "partial_traces": ("max", 0.0, 0.0),
            "dropped_spans": ("max", 0.0, 0.0),
            "throughput_per_s": ("min", 0.25, 0.0),
            "e2e_p50_ms": ("max", 0.50, 0.05),
        },
    },
}


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    for key in ("bench", "rows"):
        if key not in doc:
            raise ValueError(f"{path}: not a bench result file (no '{key}')")
    return doc["bench"], doc["rows"]


def row_key(row, key_cols):
    return tuple(row.get(c) for c in key_cols)


def check_bench(bench, gate, baseline_rows, current_rows):
    """Returns a list of human-readable failure lines (empty = pass)."""
    failures = []
    key_cols = gate["key"]
    current_by_key = {}
    for row in current_rows:
        current_by_key[row_key(row, key_cols)] = row

    for base in baseline_rows:
        key = row_key(base, key_cols)
        label = f"{bench} {dict(zip(key_cols, key))}"
        cur = current_by_key.get(key)
        if cur is None:
            failures.append(f"{label}: row missing from current results")
            continue
        for metric, (direction, rel, abs_tol) in gate["metrics"].items():
            if metric not in base or metric not in cur:
                continue  # column not produced on this row (e.g. ratio rows)
            b, c = base[metric], cur[metric]
            if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
                continue
            if b < 0 or c < 0:
                continue  # -1 sentinel: metric not measured on this row
            if direction == "min":
                floor = b * (1.0 - rel) - abs_tol
                if c < floor:
                    failures.append(
                        f"{label}: {metric} regressed: {c:g} < floor {floor:g}"
                        f" (baseline {b:g}, -{rel:.0%}/-{abs_tol:g})")
            else:
                ceil = b * (1.0 + rel) + abs_tol
                if c > ceil:
                    failures.append(
                        f"{label}: {metric} regressed: {c:g} > ceiling {ceil:g}"
                        f" (baseline {b:g}, +{rel:.0%}/+{abs_tol:g})")
    return failures


def run_gate(results_dir, baselines_dir):
    compared = 0
    failures = []
    for name, gate in sorted(GATES.items()):
        filename = f"BENCH_{name}.json"
        base_path = os.path.join(baselines_dir, filename)
        cur_path = os.path.join(results_dir, filename)
        if not os.path.exists(base_path):
            print(f"bench_gate: no baseline for {name} ({base_path}), skipping")
            continue
        if not os.path.exists(cur_path):
            failures.append(f"{name}: {cur_path} missing — bench did not run")
            continue
        try:
            _, baseline_rows = load_rows(base_path)
            _, current_rows = load_rows(cur_path)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            failures.append(f"{name}: {err}")
            continue
        compared += 1
        failures.extend(check_bench(name, gate, baseline_rows, current_rows))

    if failures:
        print(f"bench_gate: FAIL — {len(failures)} regression(s):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"bench_gate: OK — {compared} bench file(s) within tolerance")
    return 0


def selftest():
    """Proves both gate paths: identical results pass, a regression fails."""

    def write(dirname, rows, bench="throughput"):
        doc = {"bench": bench, "schema_version": 1, "rows": rows}
        with open(os.path.join(dirname, f"BENCH_{bench}.json"), "w",
                  encoding="utf-8") as f:
            json.dump(doc, f)

    baseline = [
        {"system": "eternal-1", "offered_per_s": 500.0,
         "achieved_per_s": 500.0, "p99_ms": 0.8, "cp_partial": 0,
         "allocs_per_op": 27.7},
        {"system": "eternal-1", "offered_per_s": 2400.0,
         "achieved_per_s": 2400.0, "p99_ms": 2.0, "cp_partial": 0,
         "allocs_per_op": 28.2},
    ]
    regressed = [
        {"system": "eternal-1", "offered_per_s": 500.0,
         "achieved_per_s": 500.0, "p99_ms": 0.8, "cp_partial": 0,
         "allocs_per_op": 27.7},
        {"system": "eternal-1", "offered_per_s": 2400.0,
         "achieved_per_s": 1100.0, "p99_ms": 9.0, "cp_partial": 0,
         "allocs_per_op": 28.2},  # both gates
    ]
    # One more allocation per invocation on an otherwise unchanged row.
    allocs = [dict(baseline[0]), dict(baseline[1], allocs_per_op=29.2)]
    # A chaos row whose median returns to a whole token rotation (0.274 ->
    # 0.355 ms) fails on p50_ms alone: its tail stays inside p99_ms's
    # looser tolerance.
    chaos = [{"scenario": "torn_storage", "violations": 0, "completed": 146,
              "throughput_per_s": 146, "p50_ms": 0.274, "p99_ms": 0.543,
              "cp_partial": 0}]
    chaos_p50 = [dict(chaos[0], p50_ms=0.355, p99_ms=0.600)]
    with tempfile.TemporaryDirectory() as base_dir, \
            tempfile.TemporaryDirectory() as good_dir, \
            tempfile.TemporaryDirectory() as bad_dir, \
            tempfile.TemporaryDirectory() as bad_p50_dir, \
            tempfile.TemporaryDirectory() as bad_allocs_dir:
        write(base_dir, baseline)
        write(good_dir, baseline)
        write(bad_dir, regressed)
        write(bad_p50_dir, baseline)
        write(bad_allocs_dir, allocs)
        for dirname, rows in ((base_dir, chaos), (good_dir, chaos),
                              (bad_dir, chaos), (bad_p50_dir, chaos_p50),
                              (bad_allocs_dir, chaos)):
            write(dirname, rows, bench="chaos")
        print("-- selftest: identical results must pass")
        ok_pass = run_gate(good_dir, base_dir) == 0
        print("-- selftest: regressed results must fail")
        ok_fail = run_gate(bad_dir, base_dir) != 0
        print("-- selftest: a regressed chaos median must fail")
        ok_p50 = run_gate(bad_p50_dir, base_dir) != 0
        print("-- selftest: one more allocation per op must fail")
        ok_allocs = run_gate(bad_allocs_dir, base_dir) != 0
        print("-- selftest: missing result file must fail")
        with tempfile.TemporaryDirectory() as empty_dir:
            ok_missing = run_gate(empty_dir, base_dir) != 0
    if ok_pass and ok_fail and ok_p50 and ok_allocs and ok_missing:
        print("bench_gate: selftest OK (pass path passes, fail paths fail)")
        return 0
    print("bench_gate: selftest FAILED "
          f"(pass={ok_pass} fail={ok_fail} p50={ok_p50} allocs={ok_allocs} "
          f"missing={ok_missing})")
    return 1


def main():
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json results against committed baselines")
    parser.add_argument("--results", default=".",
                        help="directory with fresh BENCH_*.json (default: cwd)")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory with committed baselines")
    parser.add_argument("--selftest", action="store_true",
                        help="exercise the pass and fail paths, then exit")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    sys.exit(run_gate(args.results, args.baselines))


if __name__ == "__main__":
    main()
