#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload fleet|recheck --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds the shipped tools plus perfbench_probe into .bench_build/ (see
CMakeLists.txt here); later runs only rebuild what changed. Each run
generates its inputs from --seed in a temporary directory under
.bench_build/, drives fresh spexcheck processes (traced runs also a
spexcheckd) for --seconds, checks every verdict against the reference,
and removes what it wrote.

Output: a table of every metric with its unit and sample count, then, as
the last line, one JSON object {correct, attempted, failed, metrics}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the traced run. Exit status 1 when an output check
failed, 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # Nothing lands in the source tree.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BUILD, HERE, ROOT, Context, log  # noqa: E402


def build():
    """Configures once, then builds; every tool's output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def print_report(ctx, trace):
    print("perfbench %s seed=%d seconds=%g%s" % (ctx.workload, ctx.seed, ctx.seconds,
                                                 " (traced)" if trace else ""))
    print("%-34s %14s  %-6s %8s  %s" % ("metric", "value", "unit", "samples", "note"))
    for name, value, unit, samples, note in ctx.rows:
        print("%-34s %14.6g  %-6s %8s  %s" % (name, value, unit, samples, note))
    share = ctx.failed / ctx.attempted if ctx.attempted else 0.0
    print("%-34s %14.6g  %-6s %8d  %s" % ("failed_share", share, "ratio", ctx.attempted,
                                          "failed / attempted operations"))
    for problem in ctx.problems:
        print("check failed: " + problem)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["fleet", "recheck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (os.path.exists(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no source tree next to %s: run from the root of a checkout" % HERE)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 2

    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=runs)
    ctx = Context(args, work)
    try:
        if args.trace:
            import traced
            traced.run(ctx)
        else:
            import batch
            batch.run(ctx)
    finally:
        ctx.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    print_report(ctx, args.trace)
    correct = ctx.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, ctx.attempted),
                      "failed": ctx.failed, "metrics": ctx.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
