"""Seeded input generators for the benchmark's workloads.

Every generator is a pure function of the target templates (dumped by the
program under test with --dump-template) and the seed: the same seed gives
byte-identical inputs. Mistakes take the qualitative shape misconfiguration
studies describe (for example "Rethinking Software Misconfigurations in the
Real World", arXiv 2412.11121): a few mistakes shared by many users, drawn
Zipf-wise from a catalog, and a tail of values unique to one user.

No study gives the numbers, so every parameter below is an assumption
chosen for this benchmark, not a measurement of real traffic: the Zipf
exponent, the shares of user-unique mistakes, the mistakes per config, the
number of site fragments, the edit share and the catalog of mistake
values itself. They set the dedup ratio and store-hit share the workloads
run at, so a gain on these inputs need not carry over to real fleets.
"""

import os
import random

FLEET_TARGET = "squid"
FLEET_CONFIGS = 2000
RECHECK_TARGET = "storage_a"
RECHECK_SETS = 600
RECHECK_SITES = 16          # Assumed: shared site fragments per fleet.
RECHECK_EDIT_SHARE = 0.05   # Assumed: share of sets edited between checks.

MISTAKE_ZIPF = 1.1      # Assumed skew of the shared-mistake catalog.
FLEET_TAIL = 0.25       # Assumed share of fleet mistakes unique to one user.
RECHECK_TAIL = 0.2      # The same for the include trees.
FLEET_MISTAKES = (1, 1, 2, 2, 2, 3, 3, 4, 5)   # Assumed mistakes per config, dealt.
RECHECK_MISTAKES = (1, 1, 2, 2, 3)


class Template:
    """A target's template config: ordered (key, value) settings."""

    def __init__(self, target, text):
        self.target = target
        lines = [l for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")]
        self.sep = " = " if " = " in lines[0] else " "
        self.entries = [tuple(l.split(self.sep, 1)) for l in lines]
        counts = {}
        for key, _ in self.entries:
            counts[key] = counts.get(key, 0) + 1
        # Keys set more than once in the template are multi-valued; leaving
        # them alone keeps the last-wins flattening of include trees
        # identical to the single-file view.
        self.mutable = [(k, v) for k, v in self.entries if counts[k] == 1]
        self.catalog = [(k, m) for k, v in self.mutable for m in shared_mistakes(k, v)]

    def line(self, key, value):
        return key + self.sep + value

    def render(self, overrides):
        """The template with `overrides` applied in place."""
        return "".join(self.line(k, overrides.get(k, v)) + "\n" for k, v in self.entries)


def shared_mistakes(key, value):
    """Mistakes many users make on one setting, by the shape of its value.

    An invented catalog: unit slips, sign and case errors, bad paths.
    """
    if value.isdigit():
        n = int(value)
        return [str(n * 1000000000), "-1", value + "ms", value + "G", str(n * 1000)]
    if value in ("on", "off"):
        return ["maybe", value.upper(), "enabled"]
    if value.startswith("/"):
        return ["/nonexistent" + value, "relative" + value]
    return [value.upper(), value + "x"]


EDIT_UIDS = 10 ** 6     # Uids of the recheck edits start here.


def unique_mistake(key, value, uid, shape):
    """A value of the same shape as a shared mistake that no other user writes.

    Shape 0 bumps a number by a bounded amount, since a loop bound costs
    replays its size: below 1000 for users, from 1000 up for the edits, so
    an edit never repeats a user's value. 997 is prime, so uids a whole
    number of deck rounds apart do not bump alike.
    """
    if value.isdigit():
        n = int(value)
        bump = 1 + uid % 997 + (1000 if uid >= EDIT_UIDS else 0)
        return [str(n + bump), "%dms" % (1000 + uid), "-%d" % (1 + uid),
                "%d.%d" % (n, uid)][shape]
    if value in ("on", "off"):
        return "maybe%d" % uid
    if value.startswith("/"):
        return "/srv/u%d%s" % (uid, value)
    return "%s%d" % (value, uid)


UNIQUE_SHAPES = 4


class Deck:
    """Weighted draws whose counts are fixed and whose order the seed sets.

    The deck holds each item round(size * weight / total) times (largest
    remainder), shuffled by the run's rng and dealt in turn, reshuffled
    when spent. How often a rare, expensive mistake appears in a run is so
    the same for every seed; only who makes it changes.
    """

    def __init__(self, items, weights, rng, size=1024):
        total = sum(weights)
        quotas = [size * w / total for w in weights]
        counts = [int(q) for q in quotas]
        by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - quotas[i])
        for i in by_remainder[:size - sum(counts)]:
            counts[i] += 1
        self.cards = [item for item, count in zip(items, counts) for _ in range(count)]
        self.rng = rng
        self.dealt = len(self.cards)
        self.round = -1   # Rounds dealt before the current one.

    def draw(self):
        if self.dealt == len(self.cards):
            self.rng.shuffle(self.cards)
            self.dealt = 0
            self.round += 1
        self.dealt += 1
        return self.cards[self.dealt - 1]


def zipf_weights(n, s):
    return [rank ** -s for rank in range(1, n + 1)]


class MistakeSource:
    """Draws mistakes for one template: Zipf-shared or unique to a user."""

    def __init__(self, template, rng, tail_share, uid_base=0):
        self.template = template
        # Which mistakes are common is a property of the user population,
        # not of the seed: the ranking is the same in every run, and the seed
        # only draws who makes which mistake.
        catalog = list(template.catalog)
        random.Random("catalog:" + template.target).shuffle(catalog)
        self.shared = Deck(catalog, zipf_weights(len(catalog), MISTAKE_ZIPF), rng)
        # The unique tail is dealt too: every (setting, value shape) once per
        # round, so a seed cannot draw more of the costly shapes than another.
        # A card's uid is fixed by its place in the unshuffled deck and the
        # round it is dealt in, so every seed writes the same unique values
        # (and pays for the same loop bounds); only who writes them changes.
        tail = [(k, v, s, i) for i, (k, v, s) in enumerate(
            (k, v, s) for k, v in template.mutable for s in range(UNIQUE_SHAPES))]
        self.tail_deck = Deck(tail, [1] * len(tail), rng, size=len(tail))
        self.uid_base = uid_base
        # Whether a draw is shared or unique is dealt too, in exact shares.
        self.unique = Deck([True, False], [tail_share, 1.0 - tail_share], rng, size=20)

    def draw(self):
        if self.unique.draw():
            key, value, shape, card = self.tail_deck.draw()
            uid = self.uid_base + 1 + self.tail_deck.round * len(self.tail_deck.cards) + card
            return key, unique_mistake(key, value, uid, shape), False
        key, value = self.shared.draw()
        return key, value, True

    def draw_settings(self, count):
        """Up to `count` mistakes on distinct keys; returns (overrides, shared, unique)."""
        overrides = {}
        shared = unique = 0
        for _ in range(count):
            key, value, is_shared = self.draw()
            if key in overrides:
                continue
            overrides[key] = value
            shared += is_shared
            unique += not is_shared
        return overrides, shared, unique


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def make_fleet(template, seed, out_dir, count=FLEET_CONFIGS):
    """`count` single-file configs; returns {name: text} and the mistake mix."""
    rng = random.Random(seed)
    source = MistakeSource(template, rng, FLEET_TAIL)
    counts = Deck(FLEET_MISTAKES, [1] * len(FLEET_MISTAKES), rng, size=len(FLEET_MISTAKES))
    configs = {}
    shared = unique = 0
    for i in range(count):
        overrides, s, u = source.draw_settings(counts.draw())
        shared += s
        unique += u
        name = os.path.join(out_dir, "user_%05d.conf" % i)
        configs[name] = template.render(overrides)
        write(name, configs[name])
    return configs, {"shared_mistakes": shared, "unique_mistakes": unique}


class ConfigSet:
    """One include tree: a root including the template and a site fragment."""

    def __init__(self, root, files):
        self.root = root
        # [(path, [(key, value), ...])]; ("include", path) lines include.
        self.files = files

    def texts(self, template):
        """{path: text} of every file of the set."""
        return {path: "".join(template.line(k, v) + "\n" for k, v in lines)
                for path, lines in self.files}

    def flatten(self, template):
        """The last-wins effective config and each key's winning file:line."""
        order, values, origin = [], {}, {}

        def apply(path):
            lines = dict(self.files)[path]
            for number, (key, value) in enumerate(lines, start=1):
                if key == "include":
                    apply(os.path.join(os.path.dirname(path), value))
                    continue
                if key not in values:
                    order.append(key)
                values[key] = value
                origin[key] = (path, number)

        apply(self.root)
        text = "".join(template.line(k, values[k]) + "\n" for k in order)
        return text, origin


def make_recheck(template, seed, out_dir, count=RECHECK_SETS):
    """Include trees under out_dir, written, and the edit for the re-checks.

    Returns (sets, edits, mix): `sets` maps root path -> ConfigSet as
    written; `edits` maps the edited roots to their new form, which
    apply_edits writes.
    """
    rng = random.Random(seed)
    source = MistakeSource(template, rng, RECHECK_TAIL)
    counts = Deck(RECHECK_MISTAKES, [1] * len(RECHECK_MISTAKES), rng, size=len(RECHECK_MISTAKES))
    base = os.path.join(out_dir, "shared", "base.conf")
    base_lines = list(template.entries)
    sites = []
    for s in range(RECHECK_SITES):
        overrides, _, _ = source.draw_settings(3)
        sites.append((os.path.join(out_dir, "shared", "site_%02d.conf" % s), list(overrides.items())))
    sets = {}
    shared = unique = 0
    for i in range(count):
        root = os.path.join(out_dir, "set_%05d.conf" % i)
        site_path, site_lines = sites[rng.randrange(RECHECK_SITES)]
        own, s, u = source.draw_settings(counts.draw())
        shared += s
        unique += u
        root_lines = [("include", "shared/base.conf"),
                      ("include", "shared/" + os.path.basename(site_path))] + list(own.items())
        sets[root] = ConfigSet(root, [(root, root_lines), (base, base_lines), (site_path, site_lines)])
    for config_set in sets.values():
        for path, text in config_set.texts(template).items():
            if path == config_set.root or not os.path.exists(path):
                write(path, text)
    edited = sorted(rng.sample(sorted(sets), max(1, round(count * RECHECK_EDIT_SHARE))))
    # The new values are one fixed list for every seed; the seed picks the
    # sets that receive them. What the re-check must replay then costs the
    # same in every run.
    edit_source = MistakeSource(template, random.Random("edits"), tail_share=1.0,
                                uid_base=EDIT_UIDS)
    edits = {}
    for root in edited:
        key, value, _ = edit_source.draw()
        old = sets[root]
        files = [(p, l + [(key, value)] if p == root else l) for p, l in old.files]
        edits[root] = ConfigSet(root, files)
    mix = {"shared_mistakes": shared, "unique_mistakes": unique, "edited_sets": len(edited)}
    return sets, edits, mix


def apply_edits(template, edits):
    for root, config_set in edits.items():
        write(root, config_set.texts(template)[root])


class ServeRequest:
    """One single-config /check request."""

    __slots__ = ("target", "mode", "name", "body")

    def __init__(self, target, mode, name, body):
        self.target = target
        self.mode = mode
        self.name = name
        self.body = body


def poisson_schedule(rng, rate, seconds):
    """Arrival times of an open-loop Poisson process at `rate` per second."""
    due = []
    t = rng.expovariate(rate)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(rate)
    return due
