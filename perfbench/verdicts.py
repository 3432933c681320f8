"""Reference verdicts and the comparison every program output goes through.

The reference is perfbench_probe's `reference` mode: a fresh Session that
checks each config on its own, serially, with no verdict store and
use_parse_snapshot=false, the ground-truth path of the repository's
bit-identity tests. It guards prefix snapshots, cross-config dedup, the
verdict store, batch sharding and serving; it does not guard interpreter
semantics, which both sides share.
"""

import json
import os

# Violation fields compared one for one. `file`, `line` and `note` are
# compared separately where the output is an include tree.
FIELDS = ("category", "param", "value", "message", "reaction", "prediction")


def canon(violation, with_location=True):
    key = tuple(violation.get(f) for f in FIELDS)
    if with_location:
        key += (violation.get("file"), violation.get("line"), violation.get("note", ""))
    return key


def reference(ctx, target, items, shards=4):
    """Reference verdicts for `items` = [(mode, name, path)], sharded over processes.

    Returns ({name: {"static": [...], "dynamic": [...]}}, header) where
    header holds the target's constraint count and inference accuracy.
    """
    shards = max(1, min(shards, len(items)))
    procs = []
    for s in range(shards):
        lst = os.path.join(ctx.work, "ref_%s_%d.lst" % (target, s))
        out = os.path.join(ctx.work, "ref_%s_%d.jsonl" % (target, s))
        with open(lst, "w") as f:
            for mode, name, path in items[s::shards]:
                f.write("%s\t%s\t%s\n" % (mode, name, path))
        procs.append((ctx.spawn([ctx.probe, "reference", target, lst, out]), out))
    verdicts, header = {}, None
    failed = False
    for proc, out in procs:
        failed |= proc.wait() != 0
    if failed:
        raise RuntimeError("reference run for %s failed" % target)
    for _, out in procs:
        with open(out) as f:
            lines = f.read().splitlines()
        header = json.loads(lines[0])
        for line in lines[1:]:
            record = json.loads(line)
            verdicts[record.pop("name")] = record
    return verdicts, header


def same(actual, expected, with_location=True):
    return [canon(v, with_location) for v in actual] == [canon(v, with_location) for v in expected]
