#!/usr/bin/env python3
"""Check perf_pipeline's counter gates on one google-benchmark JSON file.

Timings swing from run to run, but some counters must hold exactly on every
run: how many suspects a fleet yields, how many of them replay, how many
snapshots a warm path builds, how many verdicts a warm store serves. Each
gate below pins one such counter. A gate fails when its benchmark or its
counter is missing from the file, or when the value differs.

    python3 scripts/bench_gates.py build-release/BENCH_pipeline.json

Prints one line per gate and exits 1 when any gate fails, 0 otherwise.
Benchmarks are matched by name with or without google-benchmark's
"/real_time" suffix; a counter's value is its median over repetitions, read
with bench_compare.py's loader. Standard library only.
"""
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_compare import load, summarize  # noqa: E402

# (benchmark, counter, required value)
GATES = [
    ("BM_FleetCheck/1", "total_suspects", 50),
    ("BM_FleetCheck/1", "unique_replays", 15),
    ("BM_FleetCheck/1", "dedup_ratio", 0.7),
    ("BM_FleetCheck/1", "snapshots_built_warm", 0),
    ("BM_FleetCheck/0", "total_suspects", 50),
    ("BM_FleetCheck/0", "unique_replays", 15),
    ("BM_FleetCheck/0", "dedup_ratio", 0.7),
    ("BM_FleetCheck/0", "snapshots_built_warm", 0),
    ("BM_FleetCheckRecheck/1", "unique_replays", 0),
    ("BM_FleetCheckRecheck/1", "store_hits", 1400),
    ("BM_RepeatedCampaign", "snapshots_built_warm", 0),
    ("BM_DynamicCheckWarm", "snapshots_built_warm", 0),
    ("BM_VersionMatrix/1", "unique_replays_unchanged", 0),
    ("BM_HangReplay", "steps_used", 2000001),
]


def check(summary):
    """Returns one (ok, message) pair per gate."""
    results = []
    for name, counter, want in GATES:
        entry = summary.get(name) or summary.get(name + "/real_time")
        if entry is None:
            results.append((False, f"{name}: benchmark missing"))
            continue
        counters = entry[1]
        if counter not in counters:
            results.append((False, f"{name}: counter {counter} missing"))
            continue
        got = counters[counter]
        ok = math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        results.append((ok, f"{name}: {counter} = {got:g} (gate {want:g})"))
    return results


def main(argv):
    if len(argv) != 1:
        print(f"usage: {os.path.basename(__file__)} BENCH_pipeline.json", file=sys.stderr)
        return 2
    results = check(summarize(load(argv[0])))
    for ok, message in results:
        print(("ok    " if ok else "FAIL  ") + message)
    failed = sum(1 for ok, _ in results if not ok)
    print(f"{len(results) - failed}/{len(results)} counter gates hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
