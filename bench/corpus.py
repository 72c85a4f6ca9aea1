"""Seeded workload corpora.

A run makes whole passes over a workload's slots.  Each slot has a fixed
size (an expansion length, a geodesic count, a ladder size, a box bound), so
the cost of a pass hardly depends on the seed or the pass.  The seed and the
pass pick each slot's input: entries, Möbius moves and order.  No input is
drawn twice in a run, except where a workload states its repeats, so a
cache that outlives one call can only gain on the stated share.  An
operation (a JSON-able dict) carries its inputs and the expected answer, both
computed here with bench/reference.py, so the worker only compares.  Each
workload also has a short list of known-defect probes.  The same
(workload, seed) always gives the same passes and probes.

A pass holds 15, 35, 105 or 25 operations.  With N operations of different
cost in a pass, the nearest-rank p50 and p90 over all samples fall N/2 and
9N/10 operations up the cost order.  For these N that is halfway through one
operation's samples, so each percentile is close to that operation's median
time; at a whole number it would sit on the edge between two operations
and jump between their times from run to run.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

import reference as R

WORKLOADS = ("distance-long", "geodesics-branchy", "cli-json", "oracle-check")

# Fixed inputs for the warm-up before the first timed operation and for the
# fresh CLI processes; never part of a timed corpus.
WARMUP_SEED = "warm-up"

_CLI_PROCESS = {
    "distance-long": ([], "distance", (79, 182)),
    "geodesics-branchy": ([], "geodesics", (79, 182)),
    "cli-json": (["--json"], "geodesics", (79, 182)),
    "oracle-check": (["--oracle"], "geodesics", (19, 42)),
}


class _Draw:
    """A run's random source.  fresh(make, *args) calls make(rng, *args),
    which returns a hashable input, until it gives one not drawn before in
    the run; after TRIES repeats in a row it takes the repeat."""

    TRIES = 100

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self.seen = set()

    def fresh(self, make, *args):
        for _ in range(self.TRIES):
            v = make(self.rng, *args)
            if v not in self.seen:
                break
        self.seen.add(v)
        return v


def _moved(rng, t, digits):
    """A pair (x, y) = m(1/0), m(t) for a random unimodular m, both finite."""
    m = R.random_unimodular(rng, digits)
    return R.apply(m, R.INF), R.apply(m, t)


def _pair_op(op, x, y, **extra):
    d, n = R.distance_count(x, y)
    return {"op": op, "x": R.fmt(x), "y": R.fmt(y), "d": d, "n": n, **extra}


def _link_op(op, t):
    """classify ops take S(q, p) for the slope t = p/q."""
    d, n = R.distance_count(R.INF, t)
    return {"op": op, "q": t[1], "p": t[0], "d": d, "n": n}


def _entries(rng, k, choices):
    es = [rng.choice(choices) for _ in range(k)]
    es[-1] = max(es[-1], 2)
    return tuple(es)


def _slope_with_count(rng, n):
    """A slope p/q like 79/182: q in 100..1000, every entry at most 4, so
    that its ladder has 11-20 triangles, and exactly n geodesics from 1/0."""
    while True:
        t = _small_slope(rng, 1000)
        if t[1] >= 100 and max(R.cf(*t)) <= 4 and R.distance_count(R.INF, t)[1] == n:
            return t


def _small_slope(rng, qmax):
    while True:
        q = rng.randint(2, qmax)
        p = rng.randrange(1, q)
        if gcd(p, q) == 1:
            return (p, q)


# ---------------------------------------------------------------- distance-long

# (kind, size, digits of the Möbius move) per slot.  Sorted by cost, the
# slots' times are spread out, and the middle one, which sets the p50, is a
# [3]*180 slot, whose cost hardly varies, with the slots next to it at
# least a fifth cheaper and dearer.
_DISTANCE_SLOTS = (
    ("threes", 60, 12), ("threes", 120, 24), ("threes", 180, 6), ("threes", 270, 12),
    ("threes", 360, 24), ("random", 40, 6), ("random", 60, 24), ("random", 100, 12),
    ("random", 150, 6), ("random", 300, 48), ("wide", 300, 48), ("wide", 1000, 6),
    ("wide", 3000, 12), ("wide", 10000, 24), ("wide", 30000, 48),
)


def _threes(rng, k):
    """[3]*k with one entry changed to 1, 2 or 4."""
    es = [3] * k
    es[rng.randrange(k)] = rng.choice((1, 2, 4))
    es[-1] = max(es[-1], 2)
    return tuple(es)


def _wide(rng, a):
    """[a', m]: a' within a tenth above a, m small, so about a triangles."""
    return (a + rng.randrange(a // 10), rng.randint(2, 9))


def _ones_to_fours(rng, k):
    return _entries(rng, k, (1, 2, 3, 4))


_SHAPES = {"threes": _threes, "random": _ones_to_fours, "wide": _wide}


def _distance_long(draw, n):
    ops = []
    for kind, size, digits in _DISTANCE_SLOTS:
        es = draw.fresh(_SHAPES[kind], size)
        ops.append(_pair_op("distance", *_moved(draw.rng, R.evaluate(es), digits)))
    draw.rng.shuffle(ops)
    return ops


def _distance_long_probes(rng):
    probes = []
    for name, es in (
        ("entry-1e7", [10**7 + rng.randrange(1000)]),
        ("entry-1e7-inner", [3, 2, 10**7 + rng.randrange(1000), 4]),
        ("entry-1e8-tail", [3] * 5 + [10**8 + rng.randrange(1000)]),
    ):
        x, y = _moved(rng, R.evaluate(es), 12)
        probes.append(_pair_op("distance", x, y, probe=f"LadderTooLarge:{name}"))
    return probes


# ------------------------------------------------------------ geodesics-branchy

_GEO_OPS = ("geodesics", "classify", "classify-nogeo", "unique")


_SMALL_COUNTS = (1, 2, 3, 4, 6, 8)


def _twos(rng, k):
    """[a] + [2]*k + [b] with a, b >= 3: as many geodesics as [2]*k, since
    only entries 1 and 2 branch."""
    return (rng.randint(3, 20),) + (2,) * k + (rng.randint(3, 20),)


def _geo_op(rng, op, t):
    if op.startswith("classify"):
        return _link_op(op, t)
    x, y = _moved(rng, t, 3)
    return _pair_op(op, x, y)


def _geodesics_branchy(draw, n):
    ops = []
    # The op kind cycles with k so that the fourth dearest slot, which sets
    # the p90, costs under half the next dearer one and over 1.5 times the
    # next cheaper one.
    for k in range(2, 17):
        ops.append(_geo_op(draw.rng, _GEO_OPS[(k + 2) % 4], R.evaluate(draw.fresh(_twos, k))))
    for i in range(20):
        t = draw.fresh(_slope_with_count, _SMALL_COUNTS[i % 6])
        ops.append(_geo_op(draw.rng, _GEO_OPS[i % 4], t))
    draw.rng.shuffle(ops)
    return ops


def _geodesics_branchy_probes(rng):
    deep = R.evaluate([3] * 600)
    wide = R.evaluate([2, 3, 3, 2, 3] * 10)
    probes = [{**_geo_op(rng, op, t), "probe": name} for name, op, t in (
        ("RecursionError:all_geodesics-d601", "geodesics", deep),
        ("RecursionError:classify_02-d601", "classify", deep),
        ("EnumerationOverflow:classify_02-nogeo", "classify-nogeo", wide),
        ("EnumerationOverflow:is_unique_geodesic", "unique", wide),
    )]
    return probes


# --------------------------------------------------------------------- cli-json


def _cli_op(argv, want, exit_code=0):
    return {"op": "cli", "argv": argv, "exit": exit_code, "want": want}


def _with_slopes(argv, *slopes):
    """argv + slopes, after '--' when one is negative, as a user must write it."""
    texts = [R.fmt(s) for s in slopes]
    return argv + (["--"] if any(t.startswith("-") for t in texts) else []) + texts


# Per-slot sizes: slot i of each subcommand always gets the same size, so
# the cost of a pass hardly depends on the seed or the pass.
_CLI_GEODESIC_COUNTS = (1, 1, 2, 2, 3, 4, 4, 6)
_CLI_TRIANGLES = (16, 24, 32, 40, 48, 56, 64, 72)


def _composition(rng, n):
    """Entries of a slope whose ladder from 1/0 has exactly n triangles."""
    es, left = [], n - 1
    while left:
        es.append(rng.randint(1, min(left, 6)))
        left -= es[-1]
    es[-1] += 1
    return tuple(es)


def _summands(rng):
    """One or two (q, p) summands of a composite link, q <= 60."""
    out = []
    for _ in range(rng.randint(1, 2)):
        r = rng.random()
        out.append((0, 1) if r < 0.1 else (1, 0) if r < 0.25
                   else tuple(reversed(_small_slope(rng, 60))))
    return tuple(out)


def _keen_entries(rng, k):
    return tuple(rng.randint(3, 40) for _ in range(k))


def _cli_subcommand(draw, cmd, js, slot):
    rng = draw.rng
    flag = ["--json"] if js else []
    if cmd == "cf":
        t = draw.fresh(_small_slope, 500)
        return _cli_op(flag + ["cf", R.fmt(t)], {"cmd": cmd, "json": js, "cf": R.cf(*t)})
    if cmd == "eval":
        es = draw.fresh(lambda r: _entries(r, r.randint(1, 8), (1, 2, 3, 4, 5)))
        return _cli_op(
            flag + ["eval", ",".join(map(str, es))],
            {"cmd": cmd, "json": js, "slope": R.fmt(R.evaluate(es))},
        )
    if cmd in ("distance", "geodesics"):
        x, y = _moved(rng, draw.fresh(_slope_with_count, _CLI_GEODESIC_COUNTS[slot]), 1)
        d, n = R.distance_count(x, y)
        return _cli_op(
            _with_slopes(flag + [cmd], x, y),
            {"cmd": cmd, "json": js, "x": R.fmt(x), "y": R.fmt(y), "d": d, "n": n},
        )
    if cmd.startswith("ladder"):
        x, y = _moved(rng, R.evaluate(draw.fresh(_composition, _CLI_TRIANGLES[slot])), 1)
        _, t = R.normalize(x, y)
        es = R.cf(*t)
        render = cmd[7:] or None
        argv = ["ladder", "--render", render] if render else flag + ["ladder"]
        argv = _with_slopes(argv, x, y)
        want = {"cmd": "ladder", "json": js and not render, "render": render,
                "type": es, "triangles": sum(es)}
        return _cli_op(argv, want)
    if cmd == "classify-2bridge":
        t = draw.fresh(_slope_with_count, _CLI_GEODESIC_COUNTS[slot])
        d, n = R.distance_count(R.INF, t)
        return _cli_op(
            flag + [cmd, str(t[1]), str(t[0])],
            {"cmd": cmd, "json": js, "slope": R.fmt(t), "d": d, "n": n,
             "components": 2 if t[1] % 2 == 0 else 1},
        )
    if cmd == "classify-03":
        summands = draw.fresh(_summands)
        if any(q == 0 for q, _ in summands):
            case, d = "0", 0
        else:
            case, d = ("i", "ii", "iii")[sum(q != 1 for q, _ in summands)], 1
        return _cli_op(
            flag + [cmd] + [f"{q}/{p}" for q, p in summands],
            {"cmd": cmd, "json": js, "d": d, "case": case},
        )
    if cmd == "gen-keen":
        n = 3 + slot
        es = draw.fresh(_keen_entries, n - 1)
        t = R.evaluate(es)
        return _cli_op(
            flag + [cmd, str(n), "--entries", ",".join(map(str, es))],
            {"cmd": cmd, "json": js, "link": f"S({t[1]},{t[0]})", "slope": R.fmt(t), "d": n},
        )
    raise ValueError(cmd)


_CLI_COMMANDS = (
    "cf", "eval", "distance", "geodesics", "geodesics", "ladder", "ladder-ascii",
    "ladder-svg", "classify-2bridge", "classify-2bridge", "classify-03", "gen-keen",
)

# The same in every pass: error paths, repeated by design.
_BAD_ARGV = (
    (["distance", "1/0"], 64),
    (["cf", "abc"], 64),
    (["frobnicate", "1/2"], 64),
    (["ladder", "1/0", "1/3", "--render", "png"], 64),
    (["ladder", "0/1", "1/2"], 1),
    (["cf", "3/2"], 1),
    (["classify-2bridge", "4", "2"], 1),
    (["--json", "gen-keen", "1"], 1),
    (["gen-keen", "3", "--entries", "3,2"], 1),
)


def _cli_json(draw, n):
    ops = []
    for i in range(8):
        for cmd in _CLI_COMMANDS:
            ops.append(_cli_subcommand(draw, cmd, (i + len(cmd)) % 2 == 0, i))
    for argv, code in _BAD_ARGV:
        ops.append(_cli_op(argv, {"cmd": "error"}, code))
    draw.rng.shuffle(ops)
    return ops


def _cli_json_probes(rng):
    deep = R.evaluate([3] * 600)
    huge = R.evaluate([2, 10**7 + rng.randrange(1000), 3])
    return [
        {**_cli_op(["distance", "1/0", R.fmt(huge)],
                   {"cmd": "distance", "json": False, "x": "1/0", "y": R.fmt(huge),
                    "d": R.distance_count(R.INF, huge)[0], "n": 1}),
         "probe": "LadderTooLarge:cli-distance-1e7"},
        {**_cli_op(["geodesics", "1/0", R.fmt(deep)],
                   {"cmd": "geodesics", "json": False, "x": "1/0", "y": R.fmt(deep),
                    "d": 601, "n": 1}),
         "probe": "RecursionError:cli-geodesics-d601"},
    ]


# ----------------------------------------------------------------- oracle-check

# 20 slots; slot i's box bound lies in 30 + 6i .. 35 + 6i and steps through
# all six in six passes, so a box comes back only after the 119 other boxes
# of 30..149 have been searched.
_ORACLE_SLOTS = 20
_ORACLE_BAND = 6
_ORACLE_REPEAT_SHARE = 0.2


def _oracle_bound(slot, n):
    return 30 + _ORACLE_BAND * slot + (n + 2 * slot) % _ORACLE_BAND


def _oracle_source(rng, cmd, bound):
    """The inputs of an --oracle query whose box bound is `bound`."""
    if cmd == "classify-2bridge":
        while True:
            p = rng.randrange(1, bound)
            if gcd(p, bound) == 1 and R.distance_count(R.INF, (p, bound))[1] <= 64:
                return cmd, (p, bound)
    while True:
        x = R.canonical(rng.randint(-8, 8), rng.randint(1, 8))
        y = R.canonical(rng.randint(-bound, bound), rng.randint(1, bound))
        if (x != y and not R.adjacent(x, y) and R.oracle_bound(x, y) == bound
                and R.distance_count(x, y)[1] <= 64):
            return cmd, x, y


def _oracle_query(source):
    """--oracle argv and expected answer for one _oracle_source."""
    cmd = source[0]
    if cmd == "classify-2bridge":
        t = source[1]
        d, n = R.distance_count(R.INF, t)
        return _cli_op(
            ["--oracle", "--json", cmd, str(t[1]), str(t[0])],
            {"cmd": cmd, "json": True, "slope": R.fmt(t), "d": d, "n": n,
             "components": 2 if t[1] % 2 == 0 else 1},
        )
    x, y = source[1:]
    d, n = R.distance_count(x, y)
    js = cmd == "geodesics"
    return _cli_op(
        _with_slopes(["--oracle"] + (["--json"] if js else []) + [cmd], x, y),
        {"cmd": cmd, "json": js, "x": R.fmt(x), "y": R.fmt(y), "d": d, "n": n},
    )


def _oracle_check(draw, n):
    cmds = ("distance", "geodesics", "classify-2bridge")
    ops = [_oracle_query(draw.fresh(_oracle_source, cmds[i % 3], _oracle_bound(i, n)))
           for i in range(_ORACLE_SLOTS)]
    # The order and the repeats are the same in every pass and do not
    # depend on the seed, so the sizes of the boxes held in the 8-box
    # subgraph cache at any point, and so peak memory, hardly move.  Each
    # repeat comes a few places after its original.
    fixed = random.Random("oracle-order")
    fixed.shuffle(ops)
    n_repeat = round(len(ops) * _ORACLE_REPEAT_SHARE / (1 - _ORACLE_REPEAT_SHARE))
    for src in sorted(fixed.sample(range(len(ops)), n_repeat), reverse=True):
        ops.insert(src + 1 + fixed.randrange(3), {**ops[src], "repeat": True})
    return ops


_GENERATORS = {
    "distance-long": (_distance_long, _distance_long_probes),
    "geodesics-branchy": (_geodesics_branchy, _geodesics_branchy_probes),
    "cli-json": (_cli_json, _cli_json_probes),
    "oracle-check": (_oracle_check, lambda rng: []),
}


def passes(workload: str, seed):
    """Endless passes of one workload and seed, each a list of operations."""
    draw = _Draw(f"{workload}:{seed}")
    for n in itertools.count():
        yield _GENERATORS[workload][0](draw, n)


def probes(workload: str, seed) -> list:
    """The workload's known-defect probes for one seed."""
    return _GENERATORS[workload][1](random.Random(f"{workload}:{seed}:probes"))


def cli_process_op(workload: str) -> dict:
    """The small query each fresh CLI process of the workload answers."""
    flags, cmd, y = _CLI_PROCESS[workload]
    d, n = R.distance_count(R.INF, y)
    return _cli_op(flags + [cmd, "1/0", R.fmt(y)],
                   {"cmd": cmd, "json": "--json" in flags, "x": "1/0", "y": R.fmt(y),
                    "d": d, "n": n})


def warmup(workload: str) -> list:
    """A few small fixed operations of the workload's kinds."""
    draw = _Draw(WARMUP_SEED)
    rng = draw.rng
    if workload == "distance-long":
        return [_pair_op("distance", *_moved(rng, R.evaluate(es), 6))
                for es in ([2, 3, 3, 2, 3], [3] * 10, [50])]
    if workload == "geodesics-branchy":
        return [_geo_op(rng, op, (79, 182)) for op in _GEO_OPS]
    if workload == "cli-json":
        return [_cli_subcommand(draw, cmd, js, 0) for cmd in _CLI_COMMANDS for js in (False, True)]
    return [_oracle_query(_oracle_source(rng, cmd, 12))
            for cmd in ("distance", "geodesics", "classify-2bridge")]
