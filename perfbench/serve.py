"""Driving spexcheckd: the traced run's serve segment.

A fresh daemon on an ephemeral loopback port, at default flags, takes an
open loop of Poisson arrivals (see openloop.py). Every answer is checked
against the reference, and the daemon's /statz counters must move exactly
as the client saw.
"""

import re
import signal
import statistics
import subprocess
import time

import openloop
import verdicts


def check_path(request):
    return "/check?target=%s&mode=%s&name=%s" % (request.target, request.mode, request.name)


class Daemon:
    """One spexcheckd process on an ephemeral loopback port."""

    def __init__(self, ctx):
        self.proc = ctx.spawn([ctx.spexcheckd, "--port", "0"], stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        match = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
        if not match:
            raise RuntimeError("spexcheckd did not start: %r" % line)
        self.port = int(match.group(1))

    def warm(self, templates):
        """One dynamic /check per target."""
        for target, template in sorted(templates.items()):
            path = "/check?target=%s&mode=dynamic&name=warmup.conf" % target
            status, _ = openloop.post(self.port, path, template.render({}).encode())
            if status != 200:
                raise RuntimeError("warm-up /check on %s answered %d" % (target, status))

    def statz(self):
        return openloop.get_json(self.port, "/statz")[1]

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=30)
        self.proc.stderr.close()


def start_warm(ctx, templates):
    """A fresh daemon, warm; returns it with the seconds that took."""
    start = time.perf_counter()
    daemon = Daemon(ctx)
    daemon.warm(templates)
    return daemon, time.perf_counter() - start


class Rung:
    """Client-side accounting of one offered rate."""

    def __init__(self, name, rate, results, reference, ctx):
        self.name = name
        self.rate = rate
        self.sent = len(results)
        self.requests = [r.request for r in results]
        self.failed = self.degraded = 0
        self.full = []   # (position in the rung, latency) of full answers.
        for index, result in enumerate(results):
            summary = None if result.error else result.summary()
            if summary is None or summary.get("status") != "ok":
                self.failed += 1
                continue
            degraded = bool(summary.get("degraded"))
            self.degraded += degraded
            want = "dynamic" if result.request.mode == "dynamic" and not degraded else "static"
            if summary.get("mode") != want or not verdicts.same(
                    result.violations(), reference[result.request.name][want], False):
                self.failed += 1
                continue
            if not degraded:
                self.full.append((index, result.latency_ms))
        self.late_ms = [(r.sent - r.due) * 1000.0 for r in results]
        # A backlog grows when the last quarter's requests wait far longer
        # than the first quarter's.
        ordered = sorted((r.due, r.latency_ms) for r in results if r.done is not None)
        quarter = max(1, len(ordered) // 4)
        first = statistics.median(l for _, l in ordered[:quarter])
        last = statistics.median(l for _, l in ordered[-quarter:])
        self.backlog_grows = last > 2.0 * first + 10.0
        ctx.tally(self.sent, self.failed, "serve %s: %d of %d requests failed or wrong" % (
            name, self.failed, self.sent))


def reconcile(ctx, name, results, before, after):
    """The daemon's /statz counters moved exactly as the client saw."""
    summaries = [None if r.error else r.summary() for r in results]
    client = {
        "served_ok": sum(1 for s in summaries if s and s.get("status") == "ok"),
        "shed": sum(1 for r in results if r.status == 503),
        "degraded": sum(1 for s in summaries if s and s.get("degraded")),
    }
    for counter, seen in client.items():
        delta = after[counter] - before[counter]
        if delta != seen:
            ctx.problem("serve %s: /statz %s moved by %d, the client saw %d" % (
                name, counter, delta, seen))


def drive(ctx, daemon, name, rate, due, requests, reference):
    """Offers `requests` at the times `due`; returns their Rung."""
    before = daemon.statz()
    results, _ = openloop.run(daemon.port, requests, due, check_path)
    reconcile(ctx, name, results, before, daemon.statz())
    return Rung(name, rate, results, reference, ctx)
