"""Seeded argv fuzz for cli.run: every argv exits 0, 1, 2 or 64, with no
uncaught exception and nothing on the wrong stream.

Each argv runs well under a second: an --oracle box is small, lies between
500 and the oracle budget (the oracle searches from both ends, so it maps
only their neighborhoods, not the box), or goes over the budget and is
refused; ladder entries stay within a few hundred or go over the ladder
cap, gen-keen sizes stay within a few dozen or do not fit in memory, and at
most one slope of a pair is huge.
"""

from __future__ import annotations

import io
import math
import random

from fareybridge import cli
from fareybridge.oracle import DEFAULT_ORACLE_BUDGET
from fareybridge.rationals import cf_eval, parse_slope, reduce

BIG = "9" * 5000  # past Python's int<->str digit limit
MALFORMED = ("", "abc", "1/", "/2", "1/0/2", "1.5", "0/0", "-", "3,", ",", "1e3", "0x10",
             BIG + "x")
CAPS = ("1", "3", "1000", "0", "-2", "x")
GEN_KEEN_N = ("-3", "0", "1", "2", "3", "17", "40", str(2**62), str(10**20), BIG)
ORACLE_COMMANDS = ("distance", "geodesics", "classify-2bridge")
PREFIX = {1: "error: ", 2: "resource limit: ", 64: "usage error: "}


def _small_slope(rng: random.Random) -> str:
    """A slope whose oracle box stays small."""
    if rng.random() < 0.1:
        return rng.choice(("1/0", "0/1"))
    q = rng.randint(1, 30)
    return str(reduce(rng.randint(-2 * q, 2 * q), q))


def _slope(rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind <= 1:
        return _small_slope(rng)
    if kind == 2:  # long expansion, moved by a translation and a sign
        s = cf_eval([rng.randint(1, 5) for _ in range(rng.randint(1, 30))])
        k = rng.randint(-3, 3)
        return str(reduce(rng.choice((1, -1)) * (s.p + k * s.q), s.q))
    if kind == 3:  # wide: within the ladder cap, or far over it
        return "1/" + str(rng.choice((rng.randint(2, 300), 10**7, 2**40)))
    if kind == 4:
        return rng.choice(("1/" + BIG, BIG, "-" + BIG + "/7", BIG + "/" + BIG))
    if kind == 5:
        return _over_budget_slope(rng)
    return rng.choice(MALFORMED)


def _wide_box_slope(rng: random.Random) -> str:
    """A slope whose oracle box mostly lies between 500 and the budget."""
    q = rng.randint(500, DEFAULT_ORACLE_BUDGET)
    return str(reduce(rng.randint(-q, q), q))


def _oracle_slope(rng: random.Random) -> str:
    return rng.choice((_small_slope, _wide_box_slope, _wide_box_slope, _slope))(rng)


def _over_budget_slope(rng: random.Random) -> str:
    """A slope in (0, 1) whose oracle box is over the budget, with a short ladder."""
    return str(cf_eval([3] * rng.randint(8, 14)))


def _int_token(rng: random.Random) -> str:
    return rng.choice((str(rng.randint(-5, 60)), str(rng.randint(61, 999)), BIG,
                       "-" + BIG, rng.choice(MALFORMED)))


def _qp_token(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:  # a 2-bridge link S(q, p), or S(0, 1)
        q = rng.randint(0, 40)
        if q == 0:
            return "0/1"
        return f"{q}/{rng.choice([p for p in range(q + 1) if math.gcd(p, q) == 1])}"
    if kind == 1:
        return f"{_int_token(rng)}/{_int_token(rng)}"
    return rng.choice(MALFORMED)


def _entries(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return ",".join(str(rng.randint(1, 6)) for _ in range(rng.randint(1, 30)))
    if kind == 1:
        return ",".join(rng.choice(("3", "4", BIG, "0", "-2")) for _ in range(rng.randint(1, 4)))
    if kind == 2:
        return " ".join(str(rng.randint(3, 9)) for _ in range(rng.randint(1, 4)))
    return rng.choice(MALFORMED)


def _positionals(rng: random.Random, command: str, oracle: bool) -> list[str]:
    if command in ("distance", "geodesics", "ladder"):
        pick = _oracle_slope if oracle else _slope
        x, y = pick(rng), pick(rng)
        if len(x) > 40 and len(y) > 40:  # geodesics between two huge slopes take seconds
            y = _small_slope(rng)
        return [x, y]
    if command == "cf":
        return [_slope(rng)]
    if command == "eval":
        return [_entries(rng)]
    if command == "classify-2bridge":
        if oracle and rng.random() < 0.8:
            pick = rng.choice((_small_slope, _wide_box_slope, _over_budget_slope))
            s = parse_slope(pick(rng))
            return [str(s.q), str(abs(s.p) % max(s.q, 1))]
        return [_int_token(rng), rng.choice(("1", "0", _int_token(rng)))]
    if command == "classify-03":
        return [_qp_token(rng) for _ in range(rng.randint(0, 3))]
    if command == "gen-keen":
        return [rng.choice(GEN_KEEN_N)]
    return [_slope(rng)]


def _options(rng: random.Random, command: str) -> list[str]:
    if command == "ladder" and rng.random() < 0.4:
        return ["--render", rng.choice(("ascii", "svg", "png"))]
    if command == "gen-keen" and rng.random() < 0.4:
        return ["--entries", _entries(rng)]
    return []


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(tuple(cli._COMMANDS) + ("frobnicate",))
    oracle = rng.random() < (0.6 if command in ORACLE_COMMANDS else 0.1)
    groups = [["--oracle"]] if oracle else []
    if rng.random() < 0.5:
        groups.append(["--json"])
    if rng.random() < 0.15:
        groups.append(["--geo-cap", rng.choice(CAPS)])
    if rng.random() < 0.15:
        groups.append(["--ladder-cap", rng.choice(CAPS)])
    rng.shuffle(groups)
    flags = [token for group in groups for token in group]
    args = _positionals(rng, command, oracle)
    if any(a.startswith("-") for a in args) and rng.random() < 0.8:
        args = ["--"] + args  # negative slopes and integers need the separator
    return flags + [command] + _options(rng, command) + args


def test_seeded_argv_fuzz(monkeypatch):
    boxes = []
    oracle_bound = cli._oracle_bound

    def recorded(x, y):
        boxes.append(oracle_bound(x, y))
        return boxes[-1]

    monkeypatch.setattr(cli, "_oracle_bound", recorded)
    rng = random.Random(20241018)
    seen = set()
    wide = 0
    for _ in range(700):
        argv = _argv(rng)
        out, err = io.StringIO(), io.StringIO()
        del boxes[:]
        code = cli.run(argv, out=out, err=err)
        wide += code == 0 and any(b >= 500 for b in boxes)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 64), argv
        assert "Traceback" not in err, argv
        if code == 0:
            assert out and not err, argv
        else:
            assert not out and err.startswith(PREFIX[code]), (argv, err)
        command = next(a for a in argv if a in cli._COMMANDS or a == "frobnicate")
        seen.add((command, "--json" in argv, "--oracle" in argv and command in ORACLE_COMMANDS,
                  code))
    for command in cli._COMMANDS:
        for js in (False, True):
            assert any(c == command and j == js and code == 0 for c, j, _, code in seen), command
    for command in ORACLE_COMMANDS:
        for code in (0, 2):
            assert (command, False, True, code) in seen or (command, True, True, code) in seen
    assert {code for *_, code in seen} == {0, 1, 2, 64}
    assert wide >= 40
