"""Shared pieces of the benchmark: paths, the per-run context, CLI runs."""

import json
import os
import signal
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def percentile(values, q):
    """The q-th percentile (0..100), interpolated between samples."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = (len(values) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (pos - low)


class Context:
    """One benchmark run: its inputs, its processes and its tallies."""

    def __init__(self, args, work):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.work = work
        self.probe = os.path.join(BIN, "perfbench_probe")
        self.spexcheck = os.path.join(BIN, "spexcheck")
        self.spexcheckd = os.path.join(BIN, "spexcheckd")
        with open(os.path.join(HERE, "expected.json")) as f:
            self.expected = json.load(f)["targets"]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.procs = []
        self.rows = []
        self.metrics = {}
        self._templates = {}

    def tally(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if failed and problem and len(self.problems) < 20:
            self.problems.append(problem)

    def problem(self, message):
        """An output check that failed outside the per-operation tallies."""
        self.tally(0, 1, message)

    def metric(self, name, value, unit, samples, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.rows.append((name, value, unit, samples, note))

    def template(self, target):
        """The target's template config, dumped by the program under test."""
        if target not in self._templates:
            text = subprocess.run([self.spexcheck, "--target", target, "--dump-template"],
                                  check=True, capture_output=True, text=True).stdout
            self._templates[target] = workloads.Template(target, text)
        return self._templates[target]

    def check_target(self, header):
        """Asserts a reference header's constraints and accuracy match the seed."""
        want = self.expected[header["target"]]
        ok = (header["constraints"] == want["constraints"]
              and abs(header["accuracy"] - want["accuracy"]) < 1e-6)
        self.tally(1, 0 if ok else 1,
                   "%s: %d constraints at accuracy %.9f, expected %d at %.9f" % (
                       header["target"], header["constraints"], header["accuracy"],
                       want["constraints"], want["accuracy"]))

    def spawn(self, cmd, **kwargs):
        proc = subprocess.Popen(cmd, **kwargs)
        self.procs.append(proc)
        return proc

    def stop_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()


def run_cli(ctx, cmd):
    """Runs one CLI invocation to completion.

    Returns (wall_s, exit_code, peak_rss_mb, lines), lines being stdout's.
    """
    err_path = os.path.join(ctx.work, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = ctx.spawn(cmd, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode not in (0, 1):
        with open(err_path) as f:
            log("%s exited %d: %s" % (os.path.basename(cmd[0]), proc.returncode, f.read()[-500:]))
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out.decode().splitlines()
