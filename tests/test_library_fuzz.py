"""Seeded fuzz of the library's public calls: each call gives an answer or
raises a FareyBridgeError, and never an untyped exception.

Every callable in fareybridge.__all__ is called, and so are the public
methods of its value types, the oracle's public calls, cli's four JSON
helpers and render's two drawings.  Each argument is drawn from the valid
values of its parameter or, one time in three, from values of the wrong
kind: other types, bools, floats, strs, None, lists in place of tuples,
values of the library's other types, and zero, negative or huge ints.
Answers are cross-checked where a second way to reach them exists.

Each call stays well under a second.  Ladders are small or over their cap,
and no vertex cap is huge; an oracle box is small, or its slope lies
outside it, or it is huge, where the oracle refuses any layer over its work
budget; a huge int is drawn only where it cannot make a ladder or a walk
that large; at most one slope of a pair is huge; and no set of more than
DEFAULT_GEO_CAP paths has its rows or paths read.
"""

from __future__ import annotations

import math
import random

import pytest

import fareybridge as fb
from fareybridge import cli, farey, oracle, render
from fareybridge.errors import DomainError, EnumerationOverflow, FareyBridgeError
from fareybridge.farey import DEFAULT_GEO_CAP
from fareybridge.rationals import INFINITY, ZERO, MobiusMap, _repr_text, cf_eval, reduce

BIG = 10**5000  # past Python's int<->str digit limit
HUGE = (10**20, 2**62, BIG, -BIG, -(10**40))
WRONG = (None, True, False, 2.5, float("nan"), "1/2", "", [1, 2], [], (1, 2), (), {}, b"1/2",
         object(), 0, -3)
READ_LIMIT = 1000  # paths read off an answer at most, far under DEFAULT_GEO_CAP
HUGE_BOUNDS = (10**12, 10**30, BIG)


def _map(rng: random.Random) -> MobiusMap:
    digits = rng.choice((1, 3, 30, 48))
    while True:
        a, c = rng.randrange(1, 10**digits), rng.randrange(1, 10**digits)
        if math.gcd(a, c) == 1:
            d = pow(a, -1, c)
            return MobiusMap(a, (a * d - 1) // c, c, d)


def _small_slope(rng: random.Random) -> fb.ExtendedRational:
    if rng.random() < 0.15:
        return rng.choice((INFINITY, ZERO))
    q = rng.randint(1, 30)
    return reduce(rng.randint(-2 * q, 2 * q), q)


def _huge_slope(rng: random.Random) -> fb.ExtendedRational:
    """A slope of 5,000 digits, one giant entry away from a small one."""
    return rng.choice((reduce(1, BIG), reduce(BIG, 1), reduce(BIG, BIG + 1), reduce(-BIG, 7)))


def _pair(rng: random.Random) -> tuple[fb.ExtendedRational, fb.ExtendedRational]:
    kind = rng.randrange(6)
    if kind == 0:
        return _small_slope(rng), _small_slope(rng)
    if kind == 1:  # a short expansion moved by a map of up to 48 digits
        m = _map(rng)
        y = cf_eval([rng.randint(1, 6) for _ in range(rng.randint(1, 12))] + [2])
        return m.apply(INFINITY), m.apply(y)
    if kind == 2:  # a wide fan under a map: within the ladder cap or far over it
        m = _map(rng)
        a = rng.choice((rng.randint(2, 300), 10**7, 2**40))
        return m.apply(INFINITY), m.apply(reduce(1, a))
    if kind == 3:  # branchy: many geodesics, sometimes past the default cap
        return INFINITY, cf_eval([3] + [2] * rng.randint(1, 40) + [5])
    if kind == 4:
        pair = [_huge_slope(rng), _small_slope(rng)]
        rng.shuffle(pair)
        return pair[0], pair[1]
    return _small_slope(rng), _map(rng).apply(_small_slope(rng))


def _entries(rng: random.Random):
    es = [rng.randint(1, 6) for _ in range(rng.randint(0, 12))]
    if es and rng.random() < 0.2:
        es[rng.randrange(len(es))] = rng.choice((0, -2, BIG, True, 2.5, "3"))
    return es if rng.random() < 0.5 else tuple(es)


def _link(rng: random.Random) -> fb.TwoBridgeLink:
    if rng.random() < 0.1:
        return rng.choice((fb.TwoBridgeLink(0, 1), fb.TwoBridgeLink(1, 0),
                           fb.TwoBridgeLink(BIG + 1, 1)))
    q = rng.randint(1, 40)
    return fb.TwoBridgeLink(q, rng.choice([p for p in range(q + 1) if math.gcd(p, q) == 1]))


def _composite(rng: random.Random) -> fb.CompositeLink:
    return fb.CompositeLink(tuple(_link(rng) for _ in range(rng.randint(1, 2))))


def _int(rng: random.Random) -> int:
    return rng.choice(HUGE) if rng.random() < 0.2 else rng.randint(-5, 60)


def _geo_cap(rng: random.Random):
    return rng.choice((None, 1, 3, 1000, 10**20, BIG, 0, -2))


def _vertex_cap(rng: random.Random):
    return rng.choice((None, 1, 3, 30, 1000, 0, -2))


class Pools:
    """Valid values of the library's types, built once from small inputs."""

    def __init__(self, rng: random.Random):
        pairs = [(x, y) for x, y in (_pair(rng) for _ in range(80))
                 if x != y and not fb.is_adjacent(x, y)
                 and farey._ladder_box(x, y, 10**60) < 10**60
                 and sum(_entries_of(x, y)) < 400
                 and farey._length_and_count(x, y)[1] <= READ_LIMIT]
        self.ladders = [fb.ladder(x, y) for x, y in pairs[:25]]
        self.ladders.append(fb.ladder(INFINITY, reduce(19, 42)))
        self.sets = [fb.all_geodesics(x, y) for x, y in pairs[:25]]
        gs = fb.all_geodesics(INFINITY, reduce(79, 182))
        self.sets += [
            fb.all_geodesics(INFINITY, INFINITY),
            fb.all_geodesics(INFINITY, cf_eval([3] + [2] * 9 + [5])),
            fb.GeodesicSet(gs.source, gs.target, gs.length, gs.paths),
        ]
        # about 7.3e41 paths: len() refuses it, and nothing reads its paths
        self.huge_set = fb.all_geodesics(INFINITY, cf_eval([2] * 200), cap=10**60)
        self.paths = [p for gs in self.sets[:10] for p in gs.paths[:2]]
        self.triangles = [t for l in self.ladders[:5] for t in l.triangles[:3]]
        self.links = [_link(rng) for _ in range(20)]
        self.composites = [_composite(rng) for _ in range(10)]
        self.reports = [fb.classify_02(link) for link in self.links[:8]]
        self.reports += [fb.classify_02(link, include_geodesics=False) for link in self.links[8:12]]
        self.reports += [fb.classify_03(c) for c in self.composites]
        self.maps = [_map(rng) for _ in range(10)]
        self.boxes = [oracle.BoundedSubgraph(rng.randint(1, 20)) for _ in range(5)]
        self.docs = [cli.geodesic_set_to_jsonable(gs) for gs in self.sets]
        self.report_docs = [cli.report_to_jsonable(r) for r in self.reports]
        self.others = [*self.ladders[:3], *self.sets[:3], *self.paths[:3], *self.triangles[:3],
                       *self.links[:3], *self.composites[:3], *self.reports[:3], *self.maps[:3],
                       *self.boxes[:2], fb.ContinuedFraction((2, 3)), INFINITY, reduce(1, 3)]


def _entries_of(x, y):
    _, image = fb.normalize_pair(x, y)
    return fb.cf_expand(image).entries


def _or_wrong(rng: random.Random, pools: Pools, valid):
    """valid(), or, one time in three, a value of the wrong kind."""
    if rng.random() < 2 / 3:
        return valid()
    if rng.random() < 0.3:
        return rng.choice(pools.others)
    return rng.choice(WRONG)


def _tampered(rng: random.Random, doc: dict) -> dict:
    """doc, or doc with one field dropped, retyped or with a path tampered."""
    doc = dict(doc)
    kind = rng.randrange(4)
    key = rng.choice(list(doc))
    if kind == 1:
        del doc[key]
    elif kind == 2:
        doc[key] = rng.choice(WRONG + (BIG, "1/0", "x"))
    elif kind == 3 and doc.get("geodesics"):
        rows = [list(row) for row in doc["geodesics"]]
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice(("2/3", "1/0", "0/0", "x", 7, None, "9" * 5000))
        doc["geodesics"] = rows
    return doc


def _calls(pools: Pools):
    """name -> a function of rng that draws (callable, args, kwargs)."""
    w = _or_wrong

    def slope(rng):
        return w(rng, pools, lambda: _small_slope(rng))

    def pair(rng):
        x, y = _pair(rng)
        return w(rng, pools, lambda: x), w(rng, pools, lambda: y)

    def pick(rng, pool):
        return w(rng, pools, lambda: rng.choice(pool))

    def ints(rng, k):
        return [w(rng, pools, lambda: _int(rng)) for _ in range(k)]

    def box_slope(rng):  # small, or outside any box drawn but the huge ones
        return w(rng, pools, lambda: _small_slope(rng) if rng.random() < 0.9 else _huge_slope(rng))

    def bound(rng):  # small, or one time in five huge
        return w(rng, pools, lambda: rng.choice(HUGE_BOUNDS) if rng.random() < 0.2
                 else rng.randint(1, 60))

    def box(rng):
        if rng.random() < 0.2:
            return oracle.BoundedSubgraph(rng.choice(HUGE_BOUNDS))
        return rng.choice(pools.boxes)

    def any_set(rng):  # one time in ten, the set too large to read
        return pools.huge_set if rng.random() < 0.1 else rng.choice(pools.sets)

    def report_fields(rng):
        r = rng.choice(pools.reports)
        fields = [r.subject, r.splitting, r.distance, r.case, r.keen, r.strongly_keen, r.exact,
                  r.note, r.geodesics]
        return [w(rng, pools, lambda v=v: v) for v in fields]

    return {
        "ExtendedRational": lambda rng: (fb.ExtendedRational, ints(rng, 2), {}),
        "ContinuedFraction": lambda rng: (fb.ContinuedFraction,
                                          [w(rng, pools, lambda: _entries(rng))], {}),
        "MobiusMap": lambda rng: (fb.MobiusMap, ints(rng, 4) if rng.random() < 0.5 else [
            w(rng, pools, lambda v=v: v) for v in _values(rng.choice(pools.maps))], {}),
        "reduce": lambda rng: (fb.reduce, ints(rng, 2), {}),
        "parse_slope": lambda rng: (fb.parse_slope, [w(rng, pools, lambda: rng.choice(
            ("1/0", "-3/7", " 4/6 ", "9" * 5000 + "/7", "1.5", "0/0", "x", "", "3")))], {}),
        "det": lambda rng: (fb.det, pair(rng), {}),
        "is_adjacent": lambda rng: (fb.is_adjacent, pair(rng), {}),
        "mediant": lambda rng: (fb.mediant, pair(rng), {}),
        "cf_expand": lambda rng: (fb.cf_expand, [slope(rng)], {}),
        "cf_eval": lambda rng: (fb.cf_eval, [w(rng, pools, lambda: _entries(rng))], {}),
        "convergents": lambda rng: (fb.convergents, [w(rng, pools, lambda: _entries(rng))], {}),
        "mobius_apply": lambda rng: (fb.mobius_apply, [pick(rng, pools.maps), slope(rng)], {}),
        "normalize_pair": lambda rng: (fb.normalize_pair, pair(rng), {}),
        "FareyTriangle": lambda rng: (fb.FareyTriangle, [
            w(rng, pools, lambda: rng.choice(pools.triangles).vertices),
            w(rng, pools, lambda: rng.choice("LR"))], {}),
        "Ladder": lambda rng: (fb.Ladder, [
            w(rng, pools, lambda v=v: v) for v in _values(rng.choice(pools.ladders))], {}),
        "FareyPath": lambda rng: (fb.FareyPath, [
            w(rng, pools, lambda: rng.choice(pools.paths).vertices)], {}),
        "GeodesicSet": lambda rng: (fb.GeodesicSet, [
            w(rng, pools, lambda v=v: v) for v in _values(rng.choice(pools.sets))], {}),
        "ladder": lambda rng: (fb.ladder, pair(rng),
                               {"vertex_cap": w(rng, pools, lambda: _vertex_cap(rng))}),
        "ladder_type": lambda rng: (fb.ladder_type, [pick(rng, pools.ladders)], {}),
        "spine": lambda rng: (fb.spine, [pick(rng, pools.ladders)], {}),
        "distance": lambda rng: (fb.distance, pair(rng),
                                 {"vertex_cap": w(rng, pools, lambda: _vertex_cap(rng))}),
        "all_geodesics": lambda rng: (fb.all_geodesics, pair(rng),
                                      {"cap": w(rng, pools, lambda: _geo_cap(rng))}),
        "is_unique_geodesic": lambda rng: (fb.is_unique_geodesic, pair(rng), {}),
        "TwoBridgeLink": lambda rng: (fb.TwoBridgeLink, ints(rng, 2), {}),
        "CompositeLink": lambda rng: (fb.CompositeLink, [w(rng, pools, lambda: tuple(
            rng.choice(pools.links) for _ in range(rng.randint(0, 3))))], {}),
        "SplittingReport": lambda rng: (fb.SplittingReport, report_fields(rng), {}),
        "components": lambda rng: (fb.components, [pick(rng, pools.links)], {}),
        "splitting_distance_02": lambda rng: (fb.splitting_distance_02,
                                              [pick(rng, pools.links)], {}),
        "is_keen_02": lambda rng: (fb.is_keen_02, [pick(rng, pools.links)], {}),
        "is_strongly_keen_02": lambda rng: (fb.is_strongly_keen_02, [pick(rng, pools.links)], {}),
        "classify_02": lambda rng: (fb.classify_02, [pick(rng, pools.links)], {
            "include_geodesics": w(rng, pools, lambda: rng.random() < 0.7),
            "cap": w(rng, pools, lambda: _geo_cap(rng))}),
        "classify_03": lambda rng: (fb.classify_03, [pick(rng, pools.composites)], {}),
        "make_strongly_keen_example": lambda rng: (fb.make_strongly_keen_example, [
            w(rng, pools, lambda: rng.choice((-3, 0, 1, 2, 3, 17, 40, 2**62, 10**20, BIG))),
            w(rng, pools, lambda: None if rng.random() < 0.5 else _entries(rng))], {}),
        # errors: any message makes an instance
        **{name: (lambda cls: lambda rng: (cls, [rng.choice(WRONG)], {}))(getattr(fb, name))
           for name in fb.errors.__all__},
        # methods of the value types
        "ExtendedRational.floor": lambda rng: (lambda x: x.floor(), [_small_slope(rng)], {}),
        "MobiusMap.apply": lambda rng: (lambda m, x: m.apply(x),
                                        [rng.choice(pools.maps), slope(rng)], {}),
        "MobiusMap.compose": lambda rng: (lambda m, n: m.compose(n),
                                          [rng.choice(pools.maps), pick(rng, pools.maps)], {}),
        "MobiusMap.inverse": lambda rng: (lambda m: m.inverse(), [rng.choice(pools.maps)], {}),
        "MobiusMap.identity": lambda rng: (MobiusMap.identity, [], {}),
        "MobiusMap.translation": lambda rng: (MobiusMap.translation, ints(rng, 1), {}),
        "Ladder.vertices": lambda rng: (lambda l: l.vertices(), [rng.choice(pools.ladders)], {}),
        "Ladder.edges": lambda rng: (lambda l: l.edges(), [rng.choice(pools.ladders)], {}),
        "GeodesicSet.unique": lambda rng: (lambda gs: gs.unique, [any_set(rng)], {}),
        "GeodesicSet.len": lambda rng: (len, [any_set(rng)], {}),
        "GeodesicSet.paths": lambda rng: (lambda gs: gs.paths, [rng.choice(pools.sets)], {}),
        "TwoBridgeLink.slope": lambda rng: (lambda k: k.slope, [rng.choice(pools.links)], {}),
        # the oracle
        "BoundedSubgraph": lambda rng: (oracle.BoundedSubgraph, ints(rng, 1), {}),
        "BoundedSubgraph.contains": lambda rng: (lambda sg, v: sg.contains(v), [
            oracle.BoundedSubgraph(rng.choice((1, 5, 30, BIG))), slope(rng)], {}),
        "BoundedSubgraph.neighbors": lambda rng: (lambda sg, v: sg.neighbors(v), [
            box(rng), box_slope(rng)], {}),
        "BoundedSubgraph.distances_from": lambda rng: (lambda sg, v: sg.distances_from(v), [
            box(rng), w(rng, pools, lambda: rng.choice(
                ((1, 0), (0, 1), (-1, 2), (2, 4), (1, 2, 3), (BIG, 1), (True, 1))))], {}),
        "bounded_distance": lambda rng: (oracle.bounded_distance, [
            box_slope(rng), box_slope(rng), bound(rng)], {}),
        "stabilized_distance": lambda rng: (oracle.stabilized_distance, [
            box_slope(rng), box_slope(rng)], {} if rng.random() < 0.5 else {
            "max_bound": w(rng, pools, lambda: rng.choice((1, 100, 2000, -5)))}),
        "bruteforce_geodesics": lambda rng: (oracle.bruteforce_geodesics, [
            box_slope(rng), box_slope(rng), bound(rng)],
            {"cap": w(rng, pools, lambda: _geo_cap(rng))}),
        # the JSON helpers and the drawings
        "geodesic_set_to_jsonable": lambda rng: (cli.geodesic_set_to_jsonable, [
            w(rng, pools, lambda: any_set(rng))], {}),
        "geodesic_set_from_jsonable": lambda rng: (cli.geodesic_set_from_jsonable, [
            w(rng, pools, lambda: _tampered(rng, rng.choice(pools.docs)))], {}),
        "report_to_jsonable": lambda rng: (cli.report_to_jsonable, [pick(rng, pools.reports)], {}),
        "report_from_jsonable": lambda rng: (cli.report_from_jsonable, [
            w(rng, pools, lambda: _tampered(rng, rng.choice(pools.report_docs)))], {}),
        "render_ascii": lambda rng: (render.render_ascii, [pick(rng, pools.ladders)], {}),
        "render_svg": lambda rng: (render.render_svg, [pick(rng, pools.ladders)], {}),
    }


def _values(obj) -> tuple:
    return obj._values(obj)


def _count(gs) -> int:
    return gs._count()


def _small(value) -> bool:
    """Whether reading the value's paths is cheap."""
    gs = value.geodesics if isinstance(value, fb.SplittingReport) else value
    return not isinstance(gs, fb.GeodesicSet) or _count(gs) <= READ_LIMIT


def _check_answer(name: str, args: list, value) -> None:
    """Cross-check an answer against a second way to reach it."""
    slopes = all(type(a) is fb.ExtendedRational for a in args[:2])
    if name == "distance" and slopes:
        assert value == farey._length_and_count(*args[:2])[0]
    elif name == "ladder":
        x, y = args
        assert value.runs == _entries_of(x, y)
        if value.triangle_count <= 2000:
            # the validated constructor accepts the fans, and each vertex is canonical
            assert fb.Ladder(x, y, value.runs, value.pivots, value.rims) == value
            for rim in value.rims:
                for v in rim:
                    assert fb.ExtendedRational(v.p, v.q) == v
    elif name == "all_geodesics":
        assert value.length == farey._length_and_count(*args)[0]
        if _count(value) <= READ_LIMIT:
            paths = tuple(fb.FareyPath(p.vertices) for p in value.paths)
            assert fb.GeodesicSet(*args, value.length, paths) == value
    elif name == "stabilized_distance":
        assert value == fb.distance(*args[:2])
    elif name == "bounded_distance":
        assert value >= farey._length_and_count(*args[:2])[0]
    elif name == "bruteforce_geodesics":
        x, y, bound = args
        if farey._ladder_box(x, y, bound) <= bound:
            assert value._rows() == fb.all_geodesics(x, y)._rows()
    elif name == "geodesic_set_to_jsonable":
        assert cli.geodesic_set_from_jsonable(value) == args[0]
    elif name == "report_to_jsonable":
        assert cli.report_from_jsonable(value) == args[0]
    elif name.startswith("render_"):
        assert type(value) is str and value


def _short(v) -> str:
    """repr(v) cut to 200 characters; the type's name for a set or a report,
    or for a list holding an int past the int<->str digit limit."""
    try:
        text = repr(v) if not isinstance(v, (fb.GeodesicSet, fb.SplittingReport)) else ""
    except ValueError:
        text = ""
    text = text or type(v).__name__
    return text if len(text) < 200 else text[:200] + "..."


# calls whose every drawn argument is valid, so that they only answer
CANNOT_REFUSE = {*fb.errors.__all__, "MobiusMap.identity", "MobiusMap.inverse",
                 "Ladder.vertices", "Ladder.edges", "GeodesicSet.unique", "GeodesicSet.paths",
                 "TwoBridgeLink.slope"}


def test_seeded_library_fuzz():
    rng = random.Random(20241019)
    pools = Pools(rng)
    calls = _calls(pools)
    public = {name for name in fb.__all__ if callable(getattr(fb, name))}
    assert public <= set(calls)
    answered, refused = set(), set()
    for _ in range(8000):
        name = rng.choice(sorted(calls))
        fn, args, kwargs = calls[name](rng)
        try:
            value = fn(*args, **kwargs)
        except FareyBridgeError:
            refused.add(name)
            continue
        except Exception as e:  # an untyped failure, the fault looked for: shown with its call
            shown = ", ".join([*map(_short, args), *(f"{k}={_short(v)}" for k, v in kwargs.items())])
            raise AssertionError(f"{name}({shown}) raised {type(e).__name__}") from e
        answered.add(name)
        _check_answer(name, args, value)
        if _small(value):
            _repr_text(value)  # repr, with ints past the int<->str digit limit
    assert answered == set(calls)
    assert refused >= set(calls) - CANNOT_REFUSE, set(calls) - CANNOT_REFUSE - refused


# Fixed cases: probes that once raised an untyped exception, or that the
# typed-errors work named.
@pytest.mark.parametrize("call, error", [
    (lambda: oracle.bounded_distance(2.5, INFINITY, 10), DomainError),
    (lambda: oracle.bounded_distance(INFINITY, "1/2", 10), DomainError),
    (lambda: oracle.stabilized_distance(None, INFINITY), DomainError),
    (lambda: oracle.bruteforce_geodesics(INFINITY, (1, 2), 10), DomainError),
    (lambda: oracle.BoundedSubgraph(5).neighbors((1, 2)), DomainError),
    (lambda: oracle.BoundedSubgraph(5).contains("1/2"), DomainError),
    (lambda: oracle.BoundedSubgraph(5).distances_from(None), DomainError),
    (lambda: oracle.BoundedSubgraph(5).distances_from((2, 4)), DomainError),
    (lambda: cli.geodesic_set_to_jsonable(None), DomainError),
    (lambda: cli.geodesic_set_to_jsonable(fb.ladder(INFINITY, reduce(1, 3))), DomainError),
    (lambda: cli.report_to_jsonable(None), DomainError),
    (lambda: cli.report_to_jsonable({"distance": 1}), DomainError),
    (lambda: cli.geodesic_set_from_jsonable([]), DomainError),
    (lambda: cli.report_from_jsonable(None), DomainError),
    (lambda: fb.SplittingReport("S(3,1)", "02", "2", "02", True, True), DomainError),
    (lambda: fb.SplittingReport("S(3,1)", "02", 2, "02", 1, 1), DomainError),
    (lambda: fb.SplittingReport(None, "02", 2, "02", True, True), DomainError),
    (lambda: fb.GeodesicSet(INFINITY, ZERO, True, (fb.FareyPath((INFINITY, ZERO)),)),
     DomainError),
    (lambda: MobiusMap.translation(None), DomainError),
    (lambda: MobiusMap.translation(2.5), DomainError),
    (lambda: fb.cf_eval(None), DomainError),
    (lambda: fb.convergents(5), DomainError),
    (lambda: fb.ContinuedFraction(5), DomainError),
    (lambda: fb.make_strongly_keen_example(3, 5), DomainError),
    (lambda: MobiusMap(1, 0, 0, 1).apply(None), DomainError),
    (lambda: MobiusMap(1, 0, 0, 1).compose(None), DomainError),
    (lambda: fb.ExtendedRational(BIG, -1), DomainError),
    (lambda: MobiusMap(BIG, 0, 0, 1), DomainError),
    (lambda: len(fb.all_geodesics(INFINITY, cf_eval([2] * 200), cap=10**60)),
     EnumerationOverflow),
    (lambda: fb.make_strongly_keen_example(2**62), fb.ResourceLimit),
    (lambda: oracle.bounded_distance(INFINITY, reduce(1, 2), 10**30), fb.OracleBudget),
    (lambda: oracle.bruteforce_geodesics(INFINITY, reduce(1, 2), 10**30), fb.OracleBudget),
    (lambda: oracle.BoundedSubgraph(10**30).neighbors(INFINITY), fb.OracleBudget),
], ids=["bounded_distance(float)", "bounded_distance(str)", "stabilized_distance(None)",
        "bruteforce_geodesics(tuple)", "neighbors(tuple)", "contains(str)",
        "distances_from(None)", "distances_from(non-canonical)", "geodesic_set_to_jsonable(None)",
        "geodesic_set_to_jsonable(ladder)", "report_to_jsonable(None)",
        "report_to_jsonable(dict)", "geodesic_set_from_jsonable(list)",
        "report_from_jsonable(None)", "SplittingReport(str distance)",
        "SplittingReport(int keen)", "SplittingReport(None subject)", "GeodesicSet(bool length)",
        "translation(None)", "translation(float)", "cf_eval(None)", "convergents(5)",
        "ContinuedFraction(5)", "make_strongly_keen_example(3, 5)", "apply(None)",
        "compose(None)", "ExtendedRational(BIG, -1)", "MobiusMap(BIG, 0, 0, 1)",
        "len(7.3e41 paths)", "make_strongly_keen_example(2**62)",
        "bounded_distance(10^30)", "bruteforce_geodesics(10^30)", "neighbors(10^30)"])
def test_probes_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()
