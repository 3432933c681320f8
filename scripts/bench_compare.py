#!/usr/bin/env python3
"""Compare two google-benchmark JSON files: a parent run and a change run.

For every benchmark it prints the median real time on each side, the ratio
change/parent (below 1 means the change is faster), and every counter whose
value differs between the two sides. The median is the `_median` aggregate
when the file has one (`--benchmark_repetitions=N`), otherwise the median of
the per-repetition entries. Counters are compared the same way.

    python3 scripts/bench_compare.py bench/baseline/BENCH_pipeline.json \\
        build/BENCH_pipeline.json [--filter REGEX]

The header names each file's box from its `context` (the `box` key that
`--benchmark_context=box=...` sets, else host name, CPU count and MHz).
Standard library only.
"""
import argparse
import json
import re
import statistics
import sys

# Keys every entry carries; everything else that is a number is a counter.
STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "aggregate_unit",
    "error_occurred", "error_message", "label",
}
TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def describe_box(context):
    parts = []
    if "box" in context:
        parts.append(context["box"])
    else:
        parts.append(f"host {context.get('host_name', '?')}")
    parts.append(f"{context.get('num_cpus', '?')} cpus @ {context.get('mhz_per_cpu', '?')} MHz")
    if "build" in context:
        parts.append(f"build {context['build']}")
    if "date" in context:
        parts.append(context["date"])
    return ", ".join(parts)


def summarize(doc):
    """Returns {run_name: (median_real_ns, {counter: median value})}, in file order."""
    iterations = {}
    medians = {}
    for entry in doc.get("benchmarks", []):
        if entry.get("error_occurred"):
            continue
        name = entry.get("run_name", entry["name"])
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[name] = entry
            iterations.setdefault(name, [])
        else:
            iterations.setdefault(name, []).append(entry)
    result = {}
    for name, entries in iterations.items():
        if name in medians:
            entries = [medians[name]]
        if not entries:
            continue
        real = statistics.median(e["real_time"] * TO_NS[e.get("time_unit", "ns")] for e in entries)
        counters = {}
        for key in entries[0]:
            if key in STANDARD_KEYS or not isinstance(entries[0][key], (int, float)):
                continue
            counters[key] = statistics.median(e[key] for e in entries if key in e)
        result[name] = (real, counters)
    return result


def format_time(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def format_value(value):
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="google-benchmark JSON of the parent commit")
    parser.add_argument("change", help="google-benchmark JSON of the change")
    parser.add_argument("--filter", default="", help="only benchmarks matching this regex")
    args = parser.parse_args(argv)

    parent_doc, change_doc = load(args.parent), load(args.change)
    parent, change = summarize(parent_doc), summarize(change_doc)
    pattern = re.compile(args.filter)

    print(f"parent: {args.parent} ({describe_box(parent_doc.get('context', {}))})")
    print(f"change: {args.change} ({describe_box(change_doc.get('context', {}))})")
    names = [n for n in parent if n in change] + [n for n in change if n not in parent]
    names += [n for n in parent if n not in change]
    names = [n for n in names if pattern.search(n)]
    width = max([len(n) for n in names] + [len("benchmark")])
    print(f"{'benchmark':<{width}}  {'parent':>10}  {'change':>10}  change/parent")
    for name in names:
        if name not in change or name not in parent:
            side = "parent" if name in parent else "change"
            print(f"{name:<{width}}  only in {side}")
            continue
        (p_real, p_counters), (c_real, c_counters) = parent[name], change[name]
        ratio = c_real / p_real if p_real > 0 else float("inf")
        speed = f"{1 / ratio:.1f}x faster" if ratio < 1 else f"{ratio:.2f}x slower"
        print(f"{name:<{width}}  {format_time(p_real):>10}  {format_time(c_real):>10}  "
              f"{ratio:.3f} ({speed})")
        for key in sorted(set(p_counters) | set(c_counters)):
            p_value, c_value = p_counters.get(key), c_counters.get(key)
            if p_value != c_value:
                p_text = "-" if p_value is None else format_value(p_value)
                c_text = "-" if c_value is None else format_value(c_value)
                print(f"{'':<{width}}    {key}: {p_text} -> {c_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
