"""The traced run (--trace 1): per-layer metrics on a workload's inputs.

perfbench_probe calls each layer's public functions on the same generated
inputs the untraced run uses and records one span per call. Self time is
a span's duration minus its children's. Around it, this module times the
shipped CLI on the same inputs (the CLI's own cost is its wall time minus
the in-process load and batch) and runs a serve segment: spexcheckd takes
an open loop of the workload's configs at SEGMENT_RATE while /statz is
polled for queue and replay gauges.

Layers are named after the modules under src/. Each per-layer metric is
reported on every workload; a layer a workload bypasses reports the cost
it has on that workload's inputs when called directly (for example a
one-file include resolution on fleet), and verdict_store.hit_ratio is 0
where the workload runs without a store.
"""

import json
import os
import random
import statistics
import subprocess
import threading

import batch
import common
import openloop
import serve
import workloads

SEGMENT_SECONDS = 4.0   # Serve segment length.
SEGMENT_RATE = 80.0     # Offered requests per second, well under capacity.
STATZ_POLL_S = 0.02
CLI_REPEATS = 3         # CLI runs per command; the median wall is compared.


class StatzPoller(threading.Thread):
    """Samples the daemon's queue and replay gauges while a segment runs."""

    def __init__(self, daemon):
        super().__init__(daemon=True)
        self.port = daemon.port
        self.stop_event = threading.Event()
        self.queue_depth_max = 0
        self.inflight_max = 0

    def run(self):
        while not self.stop_event.wait(STATZ_POLL_S):
            statz = openloop.get_json(self.port, "/statz")[1]
            self.queue_depth_max = max(self.queue_depth_max, statz["queue_depth"])
            self.inflight_max = max(self.inflight_max, statz["inflight_replays"])

    def stop(self):
        self.stop_event.set()
        self.join()


def serve_segment(ctx, workload):
    """Runs the segment against a fresh warm daemon; returns (rung, gauges, statz delta)."""
    daemon, _ = serve.start_warm(ctx, workload.templates)
    before = daemon.statz()
    poller = StatzPoller(daemon)
    poller.start()
    try:
        rung = serve.drive(ctx, daemon, "segment", SEGMENT_RATE, workload.due, workload.requests,
                           workload.reference)
    finally:
        poller.stop()
    after = daemon.statz()
    daemon.stop()
    delta = {k: after[k] - before[k] for k in ("shed", "degraded")}
    delta["target_loads"] = after["target_loads"]
    return rung, poller, delta


def write_list(path, rows):
    with open(path, "w") as f:
        for row in rows:
            f.write("\t".join(row) + "\n")


class Workload:
    """What the traced run needs from one workload's inputs."""

    def __init__(self, ctx):
        inputs = batch.inputs_for(ctx)
        self.templates = {inputs.target: inputs.template}
        self.store = ""
        if ctx.workload == "fleet":
            self.group = (inputs.target, "files",
                          [(os.path.basename(n), n) for n in inputs.names])
            self.reference = {os.path.basename(n): inputs.reference[n] for n in inputs.names}
        else:
            rows = []
            for root in inputs.names:
                files = [path for path, _ in inputs.sets[root].files]
                rows.append((os.path.basename(root), root, ",".join(files)))
            self.group = (inputs.target, "sets", rows)
            self.store = inputs.pristine
            self.reference = inputs.reference
        self.cli = (inputs.command, inputs.check, inputs.before)
        rng = random.Random("segment:%d" % ctx.seed)
        due = workloads.poisson_schedule(rng, SEGMENT_RATE, SEGMENT_SECONDS)
        self.requests = []
        for name, text in inputs.flat_configs()[:len(due)]:
            path = os.path.join(ctx.work, "segment", name)
            workloads.write(path, text)
            self.requests.append(workloads.ServeRequest(inputs.target, "dynamic", name,
                                                        text.encode()))
        self.due = due[:len(self.requests)]
        self.inproc = []


def run_probe(ctx, workload):
    manifest = os.path.join(ctx.work, "trace.manifest")
    scratch = os.path.join(ctx.work, "trace-scratch")
    os.makedirs(scratch)
    lines = [("scratch", scratch)]
    if workload.store:
        lines.append(("store", workload.store))
    target, kind, rows = workload.group
    path = os.path.join(ctx.work, "trace_group.lst")
    write_list(path, rows)
    lines.append(("group", target, kind, path))
    for request in workload.inproc:
        lines.append(("inproc", request.name,
                      os.path.join(ctx.work, "segment", request.name)))
    write_list(manifest, lines)
    out = os.path.join(ctx.work, "trace.jsonl")
    subprocess.run([ctx.probe, "trace", manifest, out], check=True)
    spans, counters, inproc_us = [], {}, []
    with open(out) as f:
        for line in f:
            record = json.loads(line)
            if "span" in record:
                spans.append(record)
            elif "counters" in record:
                counters = record["counters"]
            else:
                inproc_us = record["inproc_us"]
    return spans, counters, inproc_us


def self_times(spans):
    """{span name: [(op, self ns), ...]}; self = duration minus children."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end"] - span["start"]
    by_name = {}
    for span, children in zip(spans, child_ns):
        by_name.setdefault(span["span"], []).append(
            (span["op"], span["end"] - span["start"] - children))
    return by_name


def run(ctx):
    workload = Workload(ctx)

    command, check, before = workload.cli
    walls = []
    for _ in range(CLI_REPEATS):
        before()
        wall, code, _, lines = common.run_cli(ctx, command())
        check(code, lines)
        walls.append(wall)

    rung, gauges, statz = serve_segment(ctx, workload)
    # The in-process side of serve.overhead_ms: the segment's requests.
    workload.inproc = rung.requests
    spans, counters, inproc_us = run_probe(ctx, workload)
    layers = self_times(spans)

    def total(name, scale):
        return sum(ns for _, ns in layers.get(name, [])) / scale

    def median(name, scale):
        per_op = {}
        for op, ns in layers.get(name, []):
            per_op[op] = per_op.get(op, 0) + ns
        return statistics.median(per_op.values()) / scale if per_op else 0.0

    def count(name):
        return len(layers.get(name, []))

    ms, us = 1e6, 1e3
    target = workload.group[0]
    inferred, correct = counters.get("core.inferred", 0), counters.get("core.correct", 0)
    accuracy = correct / inferred if inferred else 1.0
    if counters["core.constraints"] != ctx.expected[target]["constraints"]:
        ctx.problem("traced inference found %d constraints on %s" % (
            counters["core.constraints"], target))

    ctx.metric("corpus.synthesize_ms", total("corpus.synthesize", ms), "ms", count("corpus.synthesize"),
           "target: " + target)
    ctx.metric("lang.parse_ms", total("lang.parse", ms), "ms", count("lang.parse"))
    ctx.metric("ir.lower_ms", total("ir.lower", ms), "ms", count("ir.lower"))
    ctx.metric("ir.instructions", counters["ir.instructions"], "count", 1)
    ctx.metric("core.infer_ms", total("core.infer", ms), "ms", count("core.infer"),
           "analysis + mapping + inference")
    ctx.metric("core.constraints", counters["core.constraints"], "count", 1)
    ctx.metric("core.accuracy", accuracy, "ratio", int(inferred), "EvaluateAccuracy, kinds pooled")

    ctx.metric("confgen.parse_us", median("confgen.parse", us), "us", count("config"), "per config")
    ctx.metric("api.resolve_us", median("api.resolve", us), "us", count("api.resolve"),
           "ResolveConfigSet per config")
    ctx.metric("api.static_check_us", median("api.static_check", us), "us",
           count("api.static_check"), "per config")
    ctx.metric("api.suspects_us", median("api.suspects", us), "us", count("api.suspects"),
           "BuildDynamicSuspects per dynamic config")

    serial, parallel = total("api.batch.serial", ms), total("api.batch.parallel", ms)
    suspects, unique = counters["api.total_suspects"], counters["api.unique_replays"]
    ctx.metric("api.batch_ms", parallel, "ms", count("api.batch.parallel"),
           "CheckConfigBatch, num_threads 0")
    ctx.metric("api.batch_speedup", serial / parallel, "ratio", count("api.batch.serial"),
           "num_threads 1 time / num_threads 0 time (%.1f / %.1f ms)" % (serial, parallel))
    ctx.metric("api.total_suspects", suspects, "count", 1)
    ctx.metric("api.unique_replays", unique, "count", 1)
    ctx.metric("api.dedup_ratio", 1.0 - unique / suspects if suspects else 0.0, "ratio", int(suspects))
    ctx.metric("api.finalized_overlapped", counters["api.finalized_overlapped"], "count", 1)

    delta, full = counters["inject.delta_replays"], counters["inject.full_replays"]
    ctx.metric("inject.replay_us", median("inject.replay", us), "us", count("inject.replay"),
           "ReplayExternal per unique execution")
    ctx.metric("inject.snapshots_built", counters["inject.snapshots_built"], "count", 1)
    ctx.metric("inject.delta_replays", delta, "count", 1)
    ctx.metric("inject.full_replays", full, "count", 1)
    ctx.metric("inject.verifications", counters["inject.verifications"], "count", 1)
    ctx.metric("inject.delta_share", delta / (delta + full) if delta + full else 0.0, "ratio",
           int(delta + full))

    hits, misses = counters.get("store.hits", 0), counters.get("store.misses", 0)
    if counters["verdict_store.dropped_bytes"] != 0:
        ctx.problem("verdict store dropped %d bytes at open" % counters["verdict_store.dropped_bytes"])
    ctx.metric("verdict_store.open_ms", median("verdict_store.open", ms), "ms",
           count("verdict_store.open"))
    ctx.metric("verdict_store.loaded_records", counters["verdict_store.loaded_records"], "count", 1)
    ctx.metric("verdict_store.lookup_us", median("verdict_store.lookup", us), "us",
           count("verdict_store.lookup"))
    ctx.metric("verdict_store.append_ms", total("verdict_store.append", ms), "ms",
           count("verdict_store.lookup"), "one AppendBatch of every traced verdict")
    ctx.metric("verdict_store.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio",
           int(hits + misses), "store hits / lookups in the workload's batch")
    ctx.metric("verdict_store.dropped_bytes", counters["verdict_store.dropped_bytes"], "count", 1)

    # The same requests on both sides: those the daemon answered in full.
    client = [latency for _, latency in rung.full]
    checked = [inproc_us[i] / us for i, _ in rung.full]
    overhead = statistics.median(client) - statistics.median(checked)
    ctx.metric("serve.overhead_ms", overhead, "ms", len(client),
           "client p50 minus in-process check p50, %g req/s" % rung.rate)
    ctx.metric("serve.shed", statz["shed"], "count", 1)
    ctx.metric("serve.degraded", statz["degraded"], "count", 1)
    ctx.metric("serve.queue_depth_max", gauges.queue_depth_max, "count", 1, "/statz polled")
    ctx.metric("serve.inflight_replays_max", gauges.inflight_max, "count", 1, "/statz polled")
    ctx.metric("serve.target_loads", statz["target_loads"], "count", 1)
    ctx.metric("gen.late_ms_p99", common.percentile(rung.late_ms, 99), "ms", len(rung.late_ms),
           "backlog grows" if rung.backlog_grows else "backlog steady")
    ctx.metric("gen.sent", rung.sent, "count", 1)

    sets = workload.group[1] == "sets"
    in_process = (total("api.load.parallel", 1e9) + total("api.batch.parallel", 1e9)
                  + (total("api.resolve", 1e9) if sets else 0.0))
    ctx.metric("tools.cli_overhead_s", statistics.median(walls) - in_process, "s", len(walls),
           "median spexcheck wall minus in-process load + batch")
    untraced, traced = counters["trace.untraced_ns"], counters["trace.traced_ns"]
    ctx.metric("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%",
           int(counters["trace.spans"]),
           "per-config stage traced minus untraced, median over passes (%.1f / %.1f ms)" % (
               traced / ms, untraced / ms))

    print("self time per layer (ms):")
    for name in sorted(layers):
        print("  %-28s %10.3f  (%d spans)" % (name, total(name, ms), len(layers[name])))
