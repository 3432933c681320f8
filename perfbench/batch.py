"""The spexcheck workloads: `fleet` and `recheck`.

Both run the shipped CLI over the whole generated fleet, a fresh process
per invocation, until the run's time is spent. Throughput is configs per
second over whole invocations, set-up included, so work moved into set-up
cannot raise it. spexcheck writes its reports in bulk (include trees only
after the whole batch; files through a block-buffered stdout), so the
time at which a verdict line reaches the pipe says nothing about when that
config was checked: the workloads report no per-config latency.
"""

import json
import os
import random
import shutil
import statistics

import common
import verdicts
import workloads

SETUP_REPEATS = 15
RECHECK_ORDERS = 16   # Copies of the include roots, each named in its own order.


class FleetInputs:
    """Thousands of squid configs in one directory; no verdict store.

    Each invocation names the configs in a fresh seeded order. spexcheck
    splits the unique executions into one contiguous shard per thread in
    first-seen order, so one order's wall time is a draw of how the costly
    replays fall across shards (about 15% apart between orders). The median
    over many orders measures what that costs on average.
    """

    target = workloads.FLEET_TARGET

    def __init__(self, ctx):
        self.ctx = ctx
        self.template = ctx.template(self.target)
        self.configs, self.mix = workloads.make_fleet(self.template, ctx.seed,
                                                      os.path.join(ctx.work, "fleet"))
        self.names = sorted(self.configs)
        self.base = [ctx.spexcheck, "--target", self.target, "--mode", "dynamic",
                     "--threads", "0", "--format", "jsonl"]
        self.order = random.Random("order:%d" % ctx.seed)
        self.setup_command = [ctx.spexcheck, "--target", self.target, "--dump-template"]
        self.summary = None
        self.reference, header = verdicts.reference(
            ctx, self.target, [("both", n, n) for n in self.names])
        ctx.check_target(header)

    def before(self):
        pass

    def command(self):
        names = list(self.names)
        self.order.shuffle(names)
        return self.base + names

    def flat_configs(self):
        """(name, text) of every config as one file."""
        return [(os.path.basename(n), self.configs[n]) for n in self.names]

    def wrong(self, record):
        expected = self.reference.get(record["config"])
        return expected is None or not verdicts.same(record["violations"], expected["dynamic"])

    def check(self, code, lines):
        """Checks one run's output against the reference."""
        size = len(self.names)
        failed = 0 if code in (0, 1) else size
        seen = 0
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "config_set":
                failed += bool(record["errors"])
            elif "config" in record:
                seen += 1
                if "status" in record or "error" in record or self.wrong(record):
                    failed += 1
            elif "summary" in record:
                self.summary = record["summary"]
        failed += abs(size - seen)
        self.ctx.tally(size, failed, "%s run: %d of %d configs wrong" % (
            self.ctx.workload, failed, size))

    def describe(self):
        s = self.summary
        return ("fleet inputs: %d configs, %d shared + %d user-unique mistakes; "
                "%d suspects, %d unique replays, dedup ratio %.3f" % (
                    len(self.names), self.mix["shared_mistakes"], self.mix["unique_mistakes"],
                    s["total_suspects"], s["unique_replays"], s["dedup_ratio"]))


class RecheckInputs(FleetInputs):
    """Include trees over storage_a, re-checked against a seeded store.

    Set-up runs the pristine trees cold to fill the store, then edits a
    seeded 5% of the sets with values never seen before. Every run starts
    from a copy of that pristine store. spexcheck reads the roots in name
    order, so, as on `fleet`, invocations cycle through RECHECK_ORDERS
    copies of the roots whose names are shuffled: which shard the edited
    sets' replays fall into is then averaged, not drawn once per seed.
    """

    target = workloads.RECHECK_TARGET

    def __init__(self, ctx):
        self.ctx = ctx
        self.template = ctx.template(self.target)
        self.roots = os.path.join(ctx.work, "roots")
        sets, edits, self.mix = workloads.make_recheck(self.template, ctx.seed, self.roots)
        self.pristine = os.path.join(ctx.work, "pristine.vst")
        self.store = os.path.join(ctx.work, "run.vst")
        base = [ctx.spexcheck, "--target", self.target, "--mode", "dynamic", "--threads", "0",
                "--format", "jsonl"]
        _, code, _, lines = common.run_cli(
            ctx, base + ["--include-roots", self.roots, "--store", self.pristine])
        if code not in (0, 1) or not lines:
            raise RuntimeError("seeding the recheck store failed")
        workloads.apply_edits(self.template, edits)
        self.sets = dict(sets)
        self.sets.update(edits)
        self.names = sorted(self.sets)

        self.base = base + ["--store", self.store]
        self.orders = self._orders(random.Random("order:%d" % ctx.seed))
        self.invocations = 0
        self.renamed = None
        self.setup_command = [ctx.spexcheck, "--target", self.target, "--store", self.store,
                              "--dump-template"]
        self.summary = None

        flat_dir = os.path.join(ctx.work, "flat")
        os.makedirs(flat_dir)
        items, self.origins, self.flat = [], {}, []
        for root in self.names:
            text, origin = self.sets[root].flatten(self.template)
            name = os.path.basename(root)
            path = os.path.join(flat_dir, name)
            with open(path, "w") as f:
                f.write(text)
            items.append(("both", name, path))
            self.flat.append((name, text))
            self.origins[name] = {k: (os.path.relpath(p, self.roots), line)
                                  for k, (p, line) in origin.items()}
        self.reference, header = verdicts.reference(ctx, self.target, items)
        ctx.check_target(header)

    def before(self):
        shutil.copyfile(self.pristine, self.store)
        if os.path.exists(self.store + ".lock"):
            os.remove(self.store + ".lock")

    def flat_configs(self):
        return self.flat

    def _orders(self, rng):
        """[(roots dir, {name there: generated name})], the fragments shared."""
        names = [os.path.basename(root) for root in self.names]
        orders = []
        for k in range(RECHECK_ORDERS):
            path = os.path.join(self.ctx.work, "roots_%02d" % k)
            os.makedirs(path)
            os.symlink(os.path.join(self.roots, "shared"), os.path.join(path, "shared"))
            shuffled = list(names)
            rng.shuffle(shuffled)
            for name, renamed in zip(names, shuffled):
                shutil.copyfile(os.path.join(self.roots, name), os.path.join(path, renamed))
            orders.append((path, dict(zip(shuffled, names))))
        return orders

    def command(self):
        """The next invocation's command; check() reads its output by its names."""
        path, self.renamed = self.orders[self.invocations % len(self.orders)]
        self.invocations += 1
        return self.base + ["--include-roots", path]

    def wrong(self, record):
        """Verdicts as the flattened config's, located at the winning assignment."""
        name = self.renamed.get(os.path.basename(record["config"]))
        expected = self.reference.get(name)
        if expected is None:
            return True
        where = self.origins[name]
        root_dir = os.path.dirname(record["config"])

        def generated(path):
            relative = os.path.relpath(path, root_dir)
            return self.renamed.get(relative, relative)

        located = all(where.get(v["param"]) == (generated(v["file"]), v["line"])
                      for v in record["violations"])
        return not located or not verdicts.same(record["violations"], expected["dynamic"],
                                                with_location=False)

    def describe(self):
        s = self.summary
        return ("recheck inputs: %d include trees (%d shared + %d user-unique mistakes), "
                "%d edited; re-check: %d suspects, %d store hits, %d replayed (%.1f%%)" % (
                    len(self.names), self.mix["shared_mistakes"], self.mix["unique_mistakes"],
                    self.mix["edited_sets"], s["total_suspects"], s["store_hits"],
                    s["unique_replays"], 100.0 * s["unique_replays"] / max(1, s["total_suspects"])))


def inputs_for(ctx):
    return FleetInputs(ctx) if ctx.workload == "fleet" else RecheckInputs(ctx)


def run(ctx):
    inputs = inputs_for(ctx)

    walls = []
    for _ in range(SETUP_REPEATS):
        inputs.before()
        wall, code, _, _ = common.run_cli(ctx, inputs.setup_command)
        ctx.tally(1, 0 if code == 0 else 1, "set-up launch exited %d" % code)
        walls.append(wall)
    ctx.metric("setup_s", statistics.median(walls), "s", len(walls),
               "launch until the target is loaded (median); p99 %.4f s" % common.percentile(walls, 99))

    # One untimed run first: a fresh process's first touches of memory the
    # machine has not handed out lately are slow, and that is the machine
    # warming up, not the program.
    inputs.before()
    common.run_cli(ctx, inputs.command())

    walls, rss = [], []
    while sum(walls) < ctx.seconds:
        inputs.before()
        wall, code, peak, lines = common.run_cli(ctx, inputs.command())
        inputs.check(code, lines)
        walls.append(wall)
        rss.append(peak)

    ctx.metric("configs_per_s", len(inputs.names) / statistics.median(walls), "1/s", len(walls),
               "%d configs per run, set-up included; median run %.3f s, p99 %.3f s" % (
                   len(inputs.names), statistics.median(walls), common.percentile(walls, 99)))
    ctx.metric("peak_rss_mb", statistics.median(rss), "MB", len(rss),
               "kernel high-water mark, median over runs; p99 %.2f MB" % common.percentile(rss, 99))
    print(inputs.describe())
