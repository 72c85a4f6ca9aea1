"""Inputs are validated once, where they enter the package.  The values the
library builds from checked values skip their constructors' checks, and
each of them equals what its constructor builds from the same fields."""

from __future__ import annotations

import collections
import io
import math
import random

import pytest

import fareybridge as fb
from fareybridge import cli, oracle
from fareybridge.rationals import _Frozen

INF = fb.INFINITY
MOVE = fb.MobiusMap(-3, 2, 2, -1)
X, Y = MOVE.apply(INF), MOVE.apply(fb.cf_eval([5, 2, 2, 1, 3, 7]))
LINK = fb.TwoBridgeLink(42, 19)
COMPOSITE = fb.CompositeLink((fb.TwoBridgeLink(3, 1), fb.TwoBridgeLink(5, 2)))


def _value_types() -> list[type]:
    assert oracle.BoundedSubgraph  # imported, so it is among the subclasses
    todo, found = [_Frozen], []
    while todo:
        subs = todo.pop().__subclasses__()
        found += subs
        todo += subs
    return found


@pytest.fixture
def validated(monkeypatch):
    """Counts the validated constructions of every value type, by name."""
    counts: collections.Counter = collections.Counter()

    def counting(init, name):
        def __init__(self, *args, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)

        return __init__

    for cls in _value_types():
        if "__init__" in cls.__dict__:
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__, cls.__name__))
    return counts


def _run(*argv: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(list(argv), out=out, err=err) == 0, err.getvalue()


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: fb.distance(X, Y), {}),
        (lambda: fb.spine(fb.ladder(X, Y)), {}),
        (lambda: fb.all_geodesics(X, Y), {}),
        (lambda: fb.all_geodesics(X, X), {}),
        (lambda: fb.is_unique_geodesic(X, Y), {}),
        (lambda: fb.classify_02(LINK), {}),
        (lambda: fb.classify_02(LINK, include_geodesics=False), {}),
        (lambda: fb.classify_03(COMPOSITE), {}),
        (lambda: fb.make_strongly_keen_example(5), {}),
        (lambda: fb.make_strongly_keen_example(3, [4, 5]), {}),
        (lambda: fb.normalize_pair(X, Y), {}),
        (lambda: fb.convergents(fb.cf_expand(fb.reduce(79, 182))), {}),
        (lambda: fb.cf_eval([2, 3, 3, 2, 3]), {}),
        # The oracle checks the bound it is given, as its public calls do.
        (lambda: _run("--oracle", "distance", "--", str(X), str(Y)), {"BoundedSubgraph": 1}),
        (lambda: _run("--json", "ladder", "--", str(X), str(Y)), {}),
        (lambda: _run("gen-keen", "5"), {}),
        # q and p come from outside and are checked where they enter.
        (lambda: _run("--json", "classify-2bridge", "42", "19"), {"TwoBridgeLink": 1}),
    ],
    ids=[
        "distance", "ladder+spine", "all_geodesics", "all_geodesics x=y",
        "is_unique_geodesic", "classify_02", "classify_02 without geodesics", "classify_03",
        "make_strongly_keen_example", "make_strongly_keen_example entries", "normalize_pair",
        "convergents", "cf_eval", "cli --oracle distance", "cli ladder", "cli gen-keen 5",
        "cli classify-2bridge",
    ],
)
def test_library_built_values_are_not_revalidated(validated, call, expected):
    call()
    assert dict(validated) == expected


def _moved_pairs(seed: int, n: int):
    """(x, y) pairs: y = [a1, ..., ak], entries from {1, 2, 3, 5} and k <= 7,
    with 1/0 and y moved together by a unimodular map of up to 30 digits."""
    rng = random.Random(seed)
    for i in range(n):
        y = fb.cf_eval([rng.choice((1, 2, 3, 5)) for _ in range(rng.randint(0, 7))])
        a, c = rng.randrange(1, 10 ** rng.randint(1, 30)), rng.randrange(1, 10**3)
        a, c = a // math.gcd(a, c), c // math.gcd(a, c)
        d = pow(a, -1, c) if c > 1 else 0
        m = fb.MobiusMap(a, (a * d - 1) // c, c, d)
        if i % 2:
            m = m.compose(fb.MobiusMap(0, 1, 1, 0))  # orientation reversing
        x, y = m.apply(INF), m.apply(y)
        yield (y, x) if i % 3 == 0 else (x, y)


def _rebuilt(v):
    """v built again through its constructor, from its fields."""
    return type(v)(*v._values(v))


def _trusted_values(x, y):
    m, image = fb.normalize_pair(x, y)
    cf = fb.cf_expand(image)
    yield from (m, m.inverse(), m.compose(m.inverse()), fb.MobiusMap.translation(-3), image)
    yield from (cf, fb.cf_eval(cf), fb.cf_eval(list(cf)), fb.reduce(3 * y.p, 3 * y.q))
    yield from fb.convergents(cf)
    yield fb.TwoBridgeLink(image.q, image.p).slope
    if not fb.is_adjacent(x, y):
        l = fb.ladder(x, y)
        yield l
        yield from l.triangles
        if l.triangle_count >= 3:
            yield fb.spine(l)
    gs = fb.all_geodesics(x, y)
    yield gs
    yield from gs.paths


def test_trusted_values_equal_their_validated_rebuilds():
    kinds: collections.Counter = collections.Counter()
    for x, y in _moved_pairs(20261018, 2000):
        for v in _trusted_values(x, y):
            w = _rebuilt(v)
            assert w == v and repr(w) == repr(v), (x, y, v)
            kinds[type(v).__name__] += 1
    assert set(kinds) == {
        "MobiusMap", "ExtendedRational", "ContinuedFraction", "Ladder", "FareyTriangle",
        "FareyPath", "GeodesicSet",
    }
    assert kinds["Ladder"] >= 1500


def test_trusted_links_and_reports_equal_their_validated_rebuilds():
    for n in range(2, 12):
        link = fb.make_strongly_keen_example(n)
        assert _rebuilt(link) == link and _rebuilt(link.slope) == link.slope
        for rep in (fb.classify_02(link), fb.classify_02(link, include_geodesics=False)):
            assert _rebuilt(rep) == rep and repr(_rebuilt(rep)) == repr(rep)
    for summands in ((fb.TwoBridgeLink(0, 1),), (fb.TwoBridgeLink(1, 0),), COMPOSITE.summands):
        rep = fb.classify_03(fb.CompositeLink(summands))
        assert _rebuilt(rep) == rep and repr(_rebuilt(rep)) == repr(rep)


def test_each_ladder_vertex_is_one_object():
    ladders = 0
    for x, y in _moved_pairs(7, 500):
        if fb.is_adjacent(x, y):
            continue
        l = fb.ladder(x, y)
        objects = {id(v) for t in l.triangles for v in t.vertices}
        objects |= {id(v) for rim in l.rims for v in rim} | {id(v) for v in l.pivots}
        assert len(objects) == len(l.vertices()) == sum(l.runs) + 2, (x, y)
        ladders += 1
    assert ladders >= 300
