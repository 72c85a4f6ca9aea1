from __future__ import annotations

import copy
import gc
import io
import math
import pickle
import random
import time
import tracemalloc
from collections import deque
from itertools import chain

import pytest

import fareybridge.farey as farey
import fareybridge.rationals as rationals
from fareybridge import cli
from fareybridge.bridge import TwoBridgeLink, classify_02
from fareybridge.errors import (
    DegenerateLadder,
    DomainError,
    EmptyLadder,
    EnumerationOverflow,
    LadderTooLarge,
    SpineUndefined,
)
from fareybridge.farey import (
    FareyPath,
    FareyTriangle,
    GeodesicSet,
    all_geodesics,
    distance,
    is_unique_geodesic,
    ladder,
    ladder_type,
    spine,
)
from fareybridge.rationals import (
    INFINITY,
    ZERO,
    ExtendedRational,
    MobiusMap,
    cf_eval,
    cf_expand,
    convergents,
    is_adjacent,
    normalize_pair,
    parse_slope,
    reduce,
)
from fareybridge.render import render_ascii

sl = parse_slope


def path_strs(gs: GeodesicSet) -> list[str]:
    return [str(p) for p in gs.paths]


# ---------------------------------------------------------------- building blocks

def test_triangle_requires_pairwise_adjacency():
    a, b, c = INFINITY, ZERO, sl("1/1")
    FareyTriangle((a, b, c), "L")
    with pytest.raises(DomainError):
        FareyTriangle((a, b, sl("1/2")), "L")  # 1/0 and 1/2 not adjacent
    with pytest.raises(DomainError):
        FareyTriangle((a, b, c), "X")


def test_path_validation():
    FareyPath((INFINITY, ZERO, sl("1/2")))
    with pytest.raises(DomainError):
        FareyPath((INFINITY, sl("1/2")))  # not an edge
    with pytest.raises(DomainError):
        FareyPath((INFINITY, ZERO, INFINITY))  # revisits a vertex
    with pytest.raises(DomainError):
        FareyPath(())
    assert FareyPath((ZERO,)).length == 0


# ---------------------------------------------------------------- ladders

def test_ladder_19_42():
    l = ladder(INFINITY, sl("19/42"))
    assert ladder_type(l) == (2, 4, 1, 3)
    assert l.triangle_count == 10
    assert [str(p) for p in l.pivots] == ["0/1", "1/2", "4/9", "5/11"]
    assert len(l.vertices()) == 12  # sum of entries + 2
    assert str(spine(l)) == "1/0 -> 0/1 -> 1/2 -> 4/9 -> 5/11 -> 19/42"


def test_ladder_labels_group_into_runs():
    l = ladder(INFINITY, sl("19/42"))
    labels = "".join(t.label for t in l.triangles)
    assert labels == "LL" + "RRRR" + "L" + "RRR"
    assert l.runs == (2, 4, 1, 3)


def test_ladder_3_10():
    l = ladder(INFINITY, sl("3/10"))
    assert ladder_type(l) == (3, 3)
    assert [str(p) for p in l.pivots] == ["0/1", "1/3"]
    assert str(spine(l)) == "1/0 -> 0/1 -> 1/3 -> 3/10"


def test_ladder_first_run_of_length_one():
    # 7/10 = [1,2,3]: the first fan is a single triangle, but its centre
    # still counts as a pivot so that #pivots == #runs
    l = ladder(INFINITY, sl("7/10"))
    assert ladder_type(l) == (1, 2, 3)
    assert [str(p) for p in l.pivots] == ["0/1", "1/1", "2/3"]
    assert str(spine(l)) == "1/0 -> 0/1 -> 1/1 -> 2/3 -> 7/10"
    # here the spine is strictly longer than the distance
    assert spine(l).length == 4
    assert distance(INFINITY, sl("7/10")) == 3


def test_ladder_between_finite_slopes():
    l = ladder(sl("1/3"), sl("3/4"))
    assert sum(l.runs) == l.triangle_count
    assert l.x == sl("1/3") and l.y == sl("3/4")
    verts = l.vertices()
    assert l.x in verts and l.y in verts
    # every triangle is a genuine Farey triangle containing ladder vertices
    for t in l.triangles:
        assert all(v in verts for v in t.vertices)


def test_ladder_rejects_trivial_pairs():
    with pytest.raises(EmptyLadder):
        ladder(INFINITY, INFINITY)
    with pytest.raises(DegenerateLadder):
        ladder(INFINITY, ZERO)


def test_ladder_vertex_cap():
    with pytest.raises(LadderTooLarge):
        ladder(INFINITY, sl("19/42"), vertex_cap=5)


def test_ladder_cap_from_environment(monkeypatch):
    monkeypatch.setenv(farey.LADDER_CAP_ENV, "5")
    with pytest.raises(LadderTooLarge):
        ladder(INFINITY, sl("19/42"))
    # explicit argument beats the environment
    ladder(INFINITY, sl("19/42"), vertex_cap=100)


def test_spine_undefined_for_two_triangles():
    with pytest.raises(SpineUndefined):
        spine(ladder(INFINITY, sl("1/2")))


# ---------------------------------------------------------------- distances

def test_distance_basics():
    assert distance(sl("1/2"), sl("1/2")) == 0
    assert distance(INFINITY, ZERO) == 1
    assert distance(INFINITY, sl("1/2")) == 2
    assert distance(INFINITY, sl("3/10")) == 3
    assert distance(INFINITY, sl("19/42")) == 4
    assert distance(INFINITY, sl("79/182")) == 6
    assert distance(sl("1/3"), sl("3/4")) == 3


def test_distance_is_symmetric_on_samples():
    pairs = [("1/0", "19/42"), ("1/3", "3/4"), ("2/5", "7/10"), ("-1/2", "3/1")]
    for a, b in pairs:
        assert distance(sl(a), sl(b)) == distance(sl(b), sl(a))


def test_distance_can_beat_expansion_length():
    # [1,1,1] has three entries but 2/3 is only two steps from 1/0
    assert distance(INFINITY, sl("2/3")) == 2


def _ladder_bfs_distance(x: ExtendedRational, y: ExtendedRational) -> int:
    """The distance by breadth-first search over the ladder's edges: every
    geodesic lies in the ladder, so its shortest path is a geodesic."""
    if x == y:
        return 0
    if is_adjacent(x, y):
        return 1
    adj: dict[ExtendedRational, list[ExtendedRational]] = {}
    for a, b in ladder(x, y).edges():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    dist = {x: 0}
    queue = deque((x,))
    while queue:
        u = queue.popleft()
        if u == y:
            return dist[u]
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    raise AssertionError(f"ladder disconnected between {x} and {y}")


@pytest.mark.parametrize("source", ["1/0", "1/3", "-2/5"])
def test_distance_matches_the_ladder_bfs_on_small_slopes(source):
    x = sl(source)
    checked = 0
    for q in range(1, 81):
        for p in range(-q, 2 * q + 1):
            if math.gcd(p, q) == 1:
                y = ExtendedRational(p, q)
                assert distance(x, y) == _ladder_bfs_distance(x, y), (x, y)
                checked += 1
    assert checked > 5000


def test_distance_matches_the_ladder_bfs_on_moved_pairs():
    pairs = _moved_pairs(13, 200, sizes=(30,))
    assert all(max(abs(x.p), x.q) >= 10**20 for x, _ in pairs)
    for x, y in pairs:
        assert distance(x, y) == _ladder_bfs_distance(x, y), (x, y)
        assert distance(y, x) == _ladder_bfs_distance(y, x), (y, x)


@pytest.mark.parametrize("entries", [[3] * 500, [30000, 5]], ids=["[3]*500", "[30000,5]"])
def test_distance_matches_the_ladder_bfs_on_long_and_wide_targets(entries):
    y = cf_eval(entries)
    assert distance(INFINITY, y) == _ladder_bfs_distance(INFINITY, y)


def test_distance_reads_no_ladder_edge(monkeypatch):
    def no_edges(self):
        raise AssertionError("ladder edges listed")

    monkeypatch.setattr(farey.Ladder, "edges", no_edges)
    assert distance(INFINITY, sl("19/42")) == 4
    assert distance(sl("1/3"), sl("3/4")) == 3
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["distance", "1/0", "19/42"], out=out, err=err) == 0
    assert (out.getvalue(), err.getvalue()) == ("4\n", "")


# ---------------------------------------------------------------- geodesics

def test_all_geodesics_1_2():
    gs = all_geodesics(INFINITY, sl("1/2"))
    assert gs.length == 2
    assert not gs.unique
    assert path_strs(gs) == ["1/0 -> 0/1 -> 1/2", "1/0 -> 1/1 -> 1/2"]


def test_all_geodesics_trivial_cases():
    same = all_geodesics(sl("2/5"), sl("2/5"))
    assert same.length == 0 and same.unique and path_strs(same) == ["2/5"]
    edge = all_geodesics(ZERO, INFINITY)
    assert edge.length == 1 and edge.unique and path_strs(edge) == ["0/1 -> 1/0"]


def test_all_geodesics_79_182():
    gs = all_geodesics(INFINITY, sl("79/182"))
    assert gs.length == 6
    assert len(gs.paths) == 4
    assert path_strs(gs) == [
        "1/0 -> 0/1 -> 1/2 -> 3/7 -> 10/23 -> 23/53 -> 79/182",
        "1/0 -> 0/1 -> 1/2 -> 3/7 -> 13/30 -> 23/53 -> 79/182",
        "1/0 -> 1/1 -> 1/2 -> 3/7 -> 10/23 -> 23/53 -> 79/182",
        "1/0 -> 1/1 -> 1/2 -> 3/7 -> 13/30 -> 23/53 -> 79/182",
    ]


def test_all_geodesics_finite_pair():
    gs = all_geodesics(sl("1/3"), sl("3/4"))
    assert gs.length == 3
    assert path_strs(gs) == [
        "1/3 -> 0/1 -> 1/1 -> 3/4",
        "1/3 -> 1/2 -> 1/1 -> 3/4",
        "1/3 -> 1/2 -> 2/3 -> 3/4",
    ]


def test_geodesic_enumeration_cap():
    with pytest.raises(EnumerationOverflow):
        all_geodesics(INFINITY, sl("1/2"), cap=1)


def test_geo_cap_from_environment(monkeypatch):
    monkeypatch.setenv(farey.GEO_CAP_ENV, "1")
    with pytest.raises(EnumerationOverflow):
        all_geodesics(INFINITY, sl("1/2"))
    assert len(all_geodesics(INFINITY, sl("1/2"), cap=10).paths) == 2


def test_geo_cap_from_environment_past_the_int_str_digit_limit(monkeypatch):
    monkeypatch.setenv(farey.GEO_CAP_ENV, "9" * 5000)
    assert len(all_geodesics(INFINITY, sl("1/2")).paths) == 2
    monkeypatch.setenv(farey.LADDER_CAP_ENV, "9" * 5000)
    assert ladder(INFINITY, sl("19/42")).triangle_count == 10
    for env in (farey.GEO_CAP_ENV, farey.LADDER_CAP_ENV):
        monkeypatch.setenv(env, "-1" + "0" * 5000)
        with pytest.raises(DomainError, match=f"^{env} must be positive, got -10{{5000}}$"):
            farey._resolve_cap(None, env, 1)


@pytest.mark.parametrize("call, kind", [
    (lambda: all_geodesics(INFINITY, sl("1/2"), cap=0.5), "float"),
    (lambda: ladder(INFINITY, sl("19/42"), vertex_cap="5"), "str"),
    (lambda: ladder(INFINITY, sl("19/42"), vertex_cap=True), "bool"),
    (lambda: distance(INFINITY, sl("19/42"), vertex_cap=True), "bool"),
    # checked before the answers that need no ladder
    (lambda: distance(INFINITY, ZERO, vertex_cap="5"), "str"),
    (lambda: distance(INFINITY, INFINITY, vertex_cap=0.5), "float"),
    (lambda: ladder(INFINITY, ZERO, vertex_cap="5"), "str"),
], ids=["cap=0.5", "vertex_cap='5'", "vertex_cap=True", "distance vertex_cap=True",
        "adjacent distance vertex_cap='5'", "equal distance vertex_cap=0.5",
        "adjacent ladder vertex_cap='5'"])
def test_caps_must_be_exact_ints(call, kind):
    with pytest.raises(DomainError, match=f"^cap must be an int, got {kind}$"):
        call()


def test_is_unique_geodesic():
    assert is_unique_geodesic(INFINITY, sl("3/10"))  # all entries >= 3
    assert is_unique_geodesic(INFINITY, sl("2/3"))  # unique without the shortcut
    assert is_unique_geodesic(INFINITY, sl("5/8"))
    assert not is_unique_geodesic(INFINITY, sl("1/2"))
    assert not is_unique_geodesic(INFINITY, sl("19/42"))
    assert is_unique_geodesic(sl("1/2"), sl("1/2"))  # trivial path


def test_geodesic_set_invariants():
    p = FareyPath((INFINITY, ZERO))
    with pytest.raises(DomainError):
        GeodesicSet(INFINITY, ZERO, 2, (p,))  # wrong length
    with pytest.raises(DomainError):
        GeodesicSet(INFINITY, sl("1/2"), 1, (p,))  # wrong endpoint
    with pytest.raises(DomainError):
        GeodesicSet(INFINITY, ZERO, 1, (p, p))  # duplicate path


def test_geodesics_visit_only_ladder_vertices():
    # the strip between the endpoints already contains every shortest path
    l = ladder(INFINITY, sl("19/42"))
    allowed = set(l.vertices())
    for path in all_geodesics(INFINITY, sl("19/42")).paths:
        assert set(path.vertices) <= allowed


def _moved_pairs(seed: int, n: int, sizes=(1, 3, 30, 36)):
    """Seeded finite, non-adjacent pairs: a random unimodular map applied to
    1/0 and to a short expansion.  A map's entries have up to a number of
    digits drawn from sizes; by default half of the maps have entries of 30
    or more digits."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        digits = rng.choice(sizes)
        a, c = rng.randrange(1, 10**digits), rng.randrange(1, 10**digits)
        if math.gcd(a, c) != 1:
            continue
        d = pow(a, -1, c)  # a*d = 1 mod c, so a*d - b*c = 1
        m = MobiusMap(a, (a * d - 1) // c, c, d)
        entries = [rng.choice((1, 1, 2, 2, 3, 5)) for _ in range(rng.randint(1, 9))]
        entries[-1] = max(entries[-1], 2)
        pairs.append((m.apply(INFINITY), m.apply(cf_eval(entries))))
    return pairs


def test_geodesics_visit_only_ladder_vertices_of_moved_pairs():
    # the ladder BFS stays a second reference for the convergent skeleton
    pairs = _moved_pairs(2024, 60)
    assert any(max(abs(x.p), x.q) >= 10**29 for x, _ in pairs)
    for x, y in pairs:
        allowed = set(ladder(x, y).vertices())
        gs = all_geodesics(x, y)
        assert gs.length == distance(x, y)
        for path in gs.paths:
            assert set(path.vertices) <= allowed


def test_geodesic_queries_build_no_ladder(monkeypatch):
    def no_ladder(*args, **kwargs):
        raise AssertionError("ladder built")

    monkeypatch.setattr(farey, "ladder", no_ladder)
    for y in ("79/182", "19/42", "1/2", "0/1", "1/0", "999/1000"):
        all_geodesics(INFINITY, sl(y))
        is_unique_geodesic(INFINITY, sl(y))
    for x, y in _moved_pairs(5, 10):
        all_geodesics(x, y)
        is_unique_geodesic(x, y)
    for q, p in ((182, 79), (42, 19), (0, 1), (1, 0), (10, 3)):
        classify_02(TwoBridgeLink(q, p))
        classify_02(TwoBridgeLink(q, p), include_geodesics=False)


def test_long_expansion_has_the_spine_as_its_one_geodesic():
    y = cf_eval([3] * 600)
    gs = all_geodesics(INFINITY, y)
    assert gs.length == 601 and gs.unique
    assert gs.paths[0] == spine(ladder(INFINITY, y))
    assert is_unique_geodesic(INFINITY, y)


def test_uniqueness_is_answered_from_the_count_alone():
    y = cf_eval([2, 3, 3, 2, 3] * 20)  # 4**20 geodesics
    assert not is_unique_geodesic(INFINITY, y)
    with pytest.raises(EnumerationOverflow, match=f"^{4**20} geodesics"):
        all_geodesics(INFINITY, y)


def test_enumeration_cap_is_checked_against_the_count():
    cases = ([2], [2, 3, 3, 2, 3], [2, 4, 1, 3], [2] * 6, [1, 2, 1, 2, 2], [3] * 599 + [2])
    for entries in cases:
        y = cf_eval(entries)
        n = len(all_geodesics(INFINITY, y).paths)
        assert n > 1
        assert len(all_geodesics(INFINITY, y, cap=n).paths) == n
        with pytest.raises(EnumerationOverflow, match=f"^{n} geodesics.*cap is {n - 1}$"):
            all_geodesics(INFINITY, y, cap=n - 1)


def test_library_built_objects_are_not_rechecked(monkeypatch):
    pairs = [(INFINITY, cf_eval([5] + [2] * 8 + [7])), (sl("1/3"), sl("3/4"))]
    pairs += _moved_pairs(11, 4)
    want = [(ladder(x, y), all_geodesics(x, y)) for x, y in pairs]
    for l, gs in want:  # the public constructors accept what the library built
        for t in l.triangles:
            assert FareyTriangle(t.vertices, t.label) == t
        paths = tuple(FareyPath(p.vertices) for p in gs.paths)
        assert GeodesicSet(gs.source, gs.target, gs.length, paths) == gs

    real_is_adjacent = farey._is_adjacent

    def endpoints_only(u, v):
        if {u, v} not in ({x, y} for x, y in pairs):
            raise AssertionError(f"edge {u} -- {v} re-checked")
        return real_is_adjacent(u, v)

    def no_det(u, v):
        raise AssertionError("triangle re-checked")

    monkeypatch.setattr(farey, "_is_adjacent", endpoints_only)
    monkeypatch.setattr(farey, "_det", no_det)
    assert [(ladder(x, y), all_geodesics(x, y)) for x, y in pairs] == want


def test_ladder_keeps_the_rim_of_each_fan():
    l = ladder(INFINITY, sl("19/42"))
    assert [" ".join(map(str, rim)) for rim in l.rims] == [
        "1/0 1/1 1/2",
        "0/1 1/3 2/5 3/7 4/9",
        "1/2 5/11",
        "4/9 9/20 14/31 19/42",
    ]
    assert farey.Ladder(l.x, l.y, l.runs, l.pivots, l.rims) == l
    with pytest.raises(DomainError):
        farey.Ladder(l.x, l.y, l.runs, l.pivots, l.rims[:-1])
    with pytest.raises(DomainError):
        farey.Ladder(l.x, l.y, l.runs, l.pivots, l.rims[:-1] + (l.rims[-1][1:],))


def _fan(*texts: str) -> tuple[ExtendedRational, ...]:
    return tuple(sl(t) for t in texts)


@pytest.mark.parametrize("y, runs, pivots, rims, message", [
    # 2/3 lies on a path from 1/0 to 1/4, but not around 0/1
    ("1/4", (5,), ("0/1",), [("1/0", "1/1", "2/3", "1/2", "1/3", "1/4")],
     "rim vertex 2/3 is not adjacent to its pivot 0/1"),
    # the second rim starts at 1/2, one step before the previous pivot 0/1
    ("3/10", (3, 4), ("0/1", "1/3"),
     [("1/0", "1/1", "1/2", "1/3"), ("1/2", "0/1", "1/4", "2/7", "3/10")],
     "the rim around 1/3 must run from 0/1 to 3/10"),
    ("1/3", (3,), ("0/1",), [("1/1", "1/2", "1/3", "1/4")],
     "the rim around 0/1 must run from 1/0 to 1/3"),
    ("3/10", (3, 3), ("0/1", "1/3"),
     [("1/0", "1/1", "1/2", "1/3"), ("0/1", "1/4", "2/7", "3/11")],
     "the rim around 1/3 must run from 0/1 to 3/10"),
    ("3/10", (3, 3), ("0/1", "1/3"),
     [("1/0", "1/1", "1/2", "1/4"), ("0/1", "1/4", "2/7", "3/10")],
     "the rim around 0/1 must run from 1/0 to 1/3"),
    ("1/3", (3,), ("0/1",), [("1/0", "1/1", "1/4", "1/3")],
     "rim vertices 1/1 and 1/4 are not adjacent"),
    ("1/2", (4,), ("0/1",), [("1/0", "1/1", "1/2", "1/1", "1/2")],
     "the rim around 0/1 repeats a vertex"),
    ("1/3", (True, 1), ("0/1", "1/3"), [("1/0", "1/3"), ("0/1", "1/3")],
     "entries must be integers, got True"),
], ids=["rim off its pivot", "rim not from the previous pivot", "first rim not from x",
        "last rim not to y", "rim not to the next pivot", "rim not a path", "rim repeats",
        "bool run"])
def test_ladder_constructor_checks_the_fans(y, runs, pivots, rims, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        farey.Ladder(INFINITY, sl(y), runs, _fan(*pivots), tuple(_fan(*rim) for rim in rims))


def _reference_triangles(x, y) -> tuple[FareyTriangle, ...]:
    """The ladder's triangles rebuilt from the expansion, without its fans:
    fan i pivots around c_{i-1} and its rim runs c_{i-2} + j*c_{i-1},
    each vertex mapped back by a validated reduce and each triangle built
    by the validated constructor, with its vertices sorted by (p, q)."""
    m, image = normalize_pair(x, y)
    entries = cf_expand(image).entries
    inv = m.inverse()
    conv = [(1, 0), (0, 1)] + [(c.p, c.q) for c in convergents(entries)]

    def back(p, q):
        return reduce(inv.a * p + inv.b * q, inv.c * p + inv.d * q)

    triangles = []
    for i, a in enumerate(entries):
        (p0, q0), (p1, q1) = conv[i], conv[i + 1]
        pivot = back(p1, q1)
        rim = [back(p0 + j * p1, q0 + j * q1) for j in range(a + 1)]
        for u, v in zip(rim, rim[1:]):
            vs = tuple(sorted((pivot, u, v), key=lambda w: (w.p, w.q)))
            triangles.append(FareyTriangle(vs, "R" if i % 2 else "L"))
    return tuple(triangles)


def _unimodular(rng: random.Random, digits: int) -> MobiusMap:
    """A seeded unimodular map whose first column has entries of up to digits digits."""
    while True:
        a, c = rng.randrange(1, 10**digits), rng.randrange(1, 10**digits)
        if math.gcd(a, c) == 1:
            d = pow(a, -1, c)
            return MobiusMap(a, (a * d - 1) // c, c, d)


def _map_to_infinity(v: ExtendedRational, k: int) -> MobiusMap:
    """A unimodular map that sends v to 1/0, then translates by k."""
    u = pow(v.p, -1, v.q) if v.q > 1 else 1
    b = (1 - u * v.p) // v.q
    return MobiusMap(u - k * v.q, b + k * v.p, -v.q, v.p)


def test_triangles_are_read_off_the_fans():
    rng = random.Random(14)
    pairs = _moved_pairs(1414, 150)
    pairs += [(INFINITY, cf_eval([rng.randint(1, 6) for _ in range(rng.randint(1, 12))] + [2]))
              for _ in range(150)]
    # wide fans, up to about 5,000 triangles, under maps of 30 to 48 digits
    for digits in (30, 36, 42, 48):
        for entries in ([rng.randint(1000, 5000), rng.randint(2, 5)],
                        [rng.randint(1, 4), rng.randint(2000, 5000), 1, rng.randint(2, 9)]):
            m = _unimodular(rng, digits)
            pairs.append((m.apply(INFINITY), m.apply(cf_eval(entries))))
    # runs of 1s, alone and between wider entries
    pairs += [(INFINITY, cf_eval([1] * k + [2])) for k in (1, 2, 7, 40)]
    pairs += [(INFINITY, cf_eval([3] + [1] * k + [4, 1, 1, 2])) for k in (1, 5, 30)]
    pairs += _moved_pairs(1415, 20, sizes=(30, 48))
    # rims through 1/0, where a vertex's image is (-1, 0) before its sign is
    # fixed: between two integers, and wherever a map sends a mediant to 1/0
    through = [(reduce(-15, 1), reduce(-13, 1))]
    for entries in ([5, 5, 3], [2, 7, 4], [1, 1, 6, 2]):
        y = cf_eval(entries)
        for v in chain.from_iterable(rim[1:-1] for rim in ladder(INFINITY, y).rims):
            m = _map_to_infinity(v, rng.randint(-10**30, 10**30))
            through.append((m.apply(INFINITY), m.apply(y)))
    for x, y in through:
        assert any(INFINITY in rim[1:-1] for rim in ladder(x, y).rims), (x, y)
    pairs += through
    for x, y in pairs:
        l = ladder(x, y)
        assert l._triangles is None
        assert l.triangles == _reference_triangles(x, y), (x, y)
        assert l.triangles is l.triangles  # built once, then kept
        assert l.triangle_count == len(l.triangles) == sum(l.runs)
        assert "".join(t.label for t in l.triangles) == "".join(
            "LR"[k % 2] * a for k, a in enumerate(l.runs))


def test_ladders_map_no_vertex_back(monkeypatch):
    # a ladder's vertices, its distance and the --oracle box are run up by
    # the convergents' own recurrence on the images of 1/0 and 0/1, so they
    # answer, and the same, with rationals._map_coprime refused under every
    # name it is imported by.  MobiusMap.apply and the references map pairs
    # through it, so everything is built first.
    def refused(*args):
        raise AssertionError("mapped back")

    pairs = _moved_pairs(2525, 200)
    want = [(_reference_triangles(x, y), farey._length_and_count(x, y)[0]) for x, y in pairs]
    small = _moved_pairs(2526, 200, sizes=(1, 2))

    def oracle_run(x, y):
        out = io.StringIO()
        code = cli.run(["--oracle", "geodesics", "--", str(x), str(y)], out=out, err=out)
        return code, out.getvalue()

    # most are checked by the oracle, the rest refused on the box's size
    checked = [oracle_run(x, y) for x, y in small]
    assert all(code in (0, 2) for code, _ in checked)
    assert sum(code == 0 for code, _ in checked) >= 100
    monkeypatch.setattr(rationals._map_coprime, "__code__", refused.__code__)
    for (x, y), (triangles, d) in zip(pairs, want):
        l = ladder(x, y)
        assert l.triangles == triangles, (x, y)
        assert distance(x, y) == d, (x, y)
    assert [oracle_run(x, y) for x, y in small] == checked


def test_only_drawings_vertices_and_edges_build_triangles(monkeypatch):
    built = []
    real_ladder = farey._ladder

    def recording(*args, **kwargs):
        built.append(real_ladder(*args, **kwargs))
        return built[-1]

    # the public ladder and distance both build through the unchecked core
    monkeypatch.setattr(farey, "_ladder", recording)
    pairs = [(INFINITY, sl("19/42")), (INFINITY, sl("1/2")), (INFINITY, cf_eval([30000, 5]))]
    pairs += _moved_pairs(3, 6)
    for x, y in pairs:
        distance(x, y)
        l = farey.ladder(x, y)
        if l.triangle_count >= 3:
            spine(l)
        render_ascii(l)
        for argv in (["--json", "ladder"], ["ladder"], ["ladder", "--render", "ascii"]):
            out, err = io.StringIO(), io.StringIO()
            assert cli.run([*argv, "--", str(x), str(y)], out=out, err=err) == 0
    assert len(built) == 5 * len(pairs)
    assert all(l._triangles is None for l in built)
    for l in built[:4]:
        l.vertices()
    assert all(l._triangles is None for l in built)
    for l in built[:4]:
        l.edges()
    assert all(l._triangles is not None for l in built[:4])


# ---------------------------------------------------------------- enumeration

def _reference_geodesics(x, y) -> list[tuple[ExtendedRational, ...]]:
    """A second enumeration over the same skeleton, built from the public
    normalize_pair, cf_expand and convergents: the distance to each node is
    the shortest of its in-skeleton edges, every vertex is mapped back by a
    validated reduce, paths are walked backwards from the target as tuples
    of the vertices' sort ranks, then sorted as rank tuples."""
    if x == y:
        return [(x,)]
    m, image = normalize_pair(x, y)
    entries = cf_expand(image).entries
    conv = [(1, 0), (0, 1)] + [(c.p, c.q) for c in convergents(entries)]
    dist = [0, 1]
    for i, a in enumerate(entries, 2):
        # c_{k-1} -- c_k is an edge; c_{k-2} -- c_k is one when a_k = 1, and
        # two through their mediant when a_k = 2
        routes = [dist[i - 1] + 1] + ([dist[i - 2] + a] if a <= 2 else [])
        dist.append(min(routes))
    points = conv + [(p0 + p1, q0 + q1) for (p0, q0), (p1, q1) in zip(conv, conv[1:])]
    inv = m.inverse()
    vertices = [reduce(inv.a * p + inv.b * q, inv.c * p + inv.d * q) for p, q in points]
    order = sorted(range(len(points)), key=lambda j: (vertices[j].p, vertices[j].q))
    rank = {j: r for r, j in enumerate(order)}
    raw = []
    target = len(conv) - 1
    stack = [(target, (rank[target],))]
    while stack:
        i, tail = stack.pop()
        if i == 0:
            raw.append(tail)
            continue
        if dist[i - 1] + 1 == dist[i]:
            stack.append((i - 1, (rank[i - 1],) + tail))
        a = entries[i - 2] if i >= 2 else 0
        if a == 1 and dist[i - 2] + 1 == dist[i]:
            stack.append((i - 2, (rank[i - 2],) + tail))
        elif a == 2 and dist[i - 2] + 2 == dist[i]:
            stack.append((i - 2, (rank[i - 2], rank[len(conv) + i - 2]) + tail))
    raw.sort()
    return [tuple(vertices[order[r]] for r in path) for path in raw]


def _assert_matches_reference(x, y):
    # == on slopes compares (p, q), so this also checks that the vertices,
    # built without validation, are in canonical form
    got = [p.vertices for p in all_geodesics(x, y).paths]
    assert got == _reference_geodesics(x, y), (x, y)


def test_enumeration_matches_the_sorted_reference_on_moved_pairs():
    pairs = _moved_pairs(909, 2000)
    for x, y in pairs:
        _assert_matches_reference(x, y)
        _assert_matches_reference(y, x)


def test_enumeration_matches_the_sorted_reference_on_branchy_slopes():
    # the benchmark's shape [a] + [2]*k + [b], as is and under 3-digit moves
    rng = random.Random(17)
    for k in range(17):
        y = cf_eval([rng.randint(3, 20)] + [2] * k + [rng.randint(3, 20)])
        _assert_matches_reference(INFINITY, y)
        a, c = 1, 1
        while math.gcd(a, c) != 1:
            a, c = rng.randrange(100, 1000), rng.randrange(100, 1000)
        d = pow(a, -1, c)
        m = MobiusMap(a, (a * d - 1) // c, c, d)
        _assert_matches_reference(m.apply(INFINITY), m.apply(y))
        _assert_matches_reference(m.apply(y), m.apply(INFINITY))


def _walk_cases():
    """Every p/q with q <= 60 from 1/0, 200 seeded moved pairs, each both
    ways, and one pair past _NAMED_BITS; then, from 1/0, expansions on both
    sides of the row walk's gate and budget: [a] + [2]*k + [b] for k <= 18
    (up to 6,765 paths), a forced run then branching, branching then a
    forced run, [1]*40 + [2], and 40 seeded expansions of 1 to 40 entries
    from 1 to 4 with at most 10,000 paths."""
    pairs = [(INFINITY, INFINITY)]
    pairs += [(INFINITY, reduce(p, q)) for q in range(1, 61) for p in range(q + 1)
              if math.gcd(p, q) == 1]
    for x, y in _moved_pairs(424, 200):
        pairs += [(x, y), (y, x)]
    y = cf_eval([3] * 300 + [2] * 4 + [5])
    assert y.q.bit_length() > farey._NAMED_BITS
    pairs.append((INFINITY, y))
    rng = random.Random(18)
    shapes = [[rng.randint(3, 20)] + [2] * k + [rng.randint(3, 20)] for k in range(19)]
    shapes += [[3] * k + [2] * j + [5] for k in (1, 5, 40) for j in (2, 5, 6, 8)]
    shapes += [[2] * j + [3] * k for j in (4, 6, 9) for k in (1, 10, 40, 120)]
    shapes.append([1] * 40 + [2])
    while len(shapes) < 19 + 12 + 12 + 1 + 40:
        entries = [rng.randint(1, 4) for _ in range(rng.randint(1, 40))]
        if entries[-1] > 1 and farey._length_and_count(INFINITY, cf_eval(entries))[1] <= 10**4:
            shapes.append(entries)
    return pairs + [(INFINITY, cf_eval(entries)) for entries in shapes]


def test_geodesic_set_keeps_its_walk():
    for x, y in _walk_cases():
        gs = all_geodesics(x, y)
        n, unique = len(gs), gs.unique
        # the count, uniqueness and rows are read off the walk, which names
        # its vertices, past _NAMED_BITS on the first output
        assert (gs._paths is None) is (x != y), (x, y)
        rows, again = gs._rows(), gs._rows()
        assert (gs._paths is None) is (x != y), (x, y)
        assert rows == again and rows is not again
        assert all(a is not b for a, b in zip(rows, again))
        if gs._paths is None:
            # a new list per row, sharing the strings the walk made
            first, last = gs._walk[0][1][0], rows[0][-1]
            assert all(r[0] is first and r[-1] is last for r in rows), (x, y)
        assert rows == [[str(v) for v in p.vertices] for p in gs.paths], (x, y)
        assert [p.vertices for p in gs.paths] == _reference_geodesics(x, y), (x, y)
        assert (n, unique) == (len(gs.paths), len(gs.paths) == 1)
        built = GeodesicSet(gs.source, gs.target, gs.length, gs.paths)
        assert gs == built and hash(gs) == hash(built) and repr(gs) == repr(built)
        assert built._rows() == rows and len(built) == n
        for w in (pickle.loads(pickle.dumps(gs)), copy.copy(gs), copy.deepcopy(gs)):
            assert type(w) is GeodesicSet and w == gs and hash(w) == hash(gs)
            assert repr(w) == repr(gs) and w._rows() == rows


def _slope_count() -> int:
    return sum(type(o) is ExtendedRational for o in gc.get_objects())


def test_walked_paths_share_one_slope_per_vertex(monkeypatch):
    made = 0
    real_slope = farey._slope

    def counting_slope(p, q):
        nonlocal made
        made += 1
        return real_slope(p, q)

    def refused(*args):
        raise AssertionError("slope made by the walk")

    # MobiusMap.apply makes the moved pairs through _map_coprime: built first
    cases = list(_walk_cases())
    monkeypatch.setattr(farey, "_slope", counting_slope)
    monkeypatch.setattr(rationals, "_map_coprime", refused)
    for x, y in cases:
        made = 0
        gs = all_geodesics(x, y)
        # the walk, its count and its rows make no slope
        gs._rows(), len(gs), gs.unique
        assert made == 0, (x, y)
        paths = gs.paths
        assert [p.vertices for p in paths] == _reference_geodesics(x, y), (x, y)
        assert all(p.vertices[0] is x and p.vertices[-1] is y for p in paths), (x, y)
        # one object per distinct vertex, shared by the paths
        objects = {id(v): v for p in paths for v in p.vertices}
        assert len(objects) == len(set(objects.values())), (x, y)
        assert made == len(objects) - len({x, y}) if x != y else made == 0, (x, y)
        assert gs.paths is paths
    # no slope is made anywhere before paths are read, also past _NAMED_BITS
    monkeypatch.undo()
    m = MobiusMap(123, 47, 34, 13)
    gs = paths = objects = None
    for x, y in ((m.apply(INFINITY), m.apply(cf_eval([5] + [2] * 8 + [7]))),
                 (INFINITY, cf_eval([3] * 300 + [2] * 4 + [5]))):
        gc.collect()
        gc.disable()
        try:
            before = _slope_count()
            gs = all_geodesics(x, y)
            gs._rows()
            assert _slope_count() == before
            distinct = {v for p in gs.paths for v in p}
            assert _slope_count() == before + len(distinct) - 2
            gs = distinct = None
        finally:
            gc.enable()


def test_row_walk_crosses_each_forced_run_once():
    # 55 paths branch over [2]*8, then all run forced through [3]*250 to the
    # target: the rows read each step of the run once, not once a path
    reads = {}

    class Counted(tuple):
        def __iter__(self):
            reads[id(self)] += 1
            return super().__iter__()

    gs = all_geodesics(INFINITY, cf_eval([2] * 8 + [3] * 250))
    root, steps, t, count, counts = gs._walk
    rows = gs._rows()
    assert (count, t, len(rows[0])) == (55, 259, 260) and root[1]
    forced = [i for i, out in enumerate(steps) if len(out) == 1 and i > 20]
    assert len(forced) > 200
    for i in forced:
        (items, texts, j), = steps[i]
        steps[i] = [(items, Counted(texts), j)]
        reads[id(steps[i][0][1])] = 0
    assert gs._rows() == rows
    assert set(reads.values()) == {1}


@pytest.mark.parametrize("branches", [
    {0: (1, 2), 1: (2, 3)},  # node 1 enters the run from node 2 at node 3
    {0: (1, 2), 1: (3,)},  # the run from node 2 joins the one from node 1
])
def test_row_walk_reads_a_forced_run_once_wherever_a_branch_enters_it(branches):
    # a synthetic walk: node i steps to i + 1, or to the nodes in branches
    t = 80
    reads = {}

    class Counted(tuple):
        def __iter__(self):
            reads[id(self)] += 1
            return super().__iter__()

    steps = [[] for _ in range(t + 1)]
    for i in range(t):
        for j in branches.get(i, (i + 1,)):
            items = Counted(((i, j),))
            steps[i].append((items, items, j))
            reads[id(items)] = 0
    counts = [0] * t + [1]
    for i in range(t - 1, -1, -1):
        counts[i] = sum(counts[j] for _, _, j in steps[i])
    root = (("root",), ("root",), 0)
    rows = farey._follow((root, steps, t, counts[0], counts), 0)
    assert len(rows) == counts[0] < farey._BLOCK_GATE
    reads.update((id(step[0]), 0) for out in steps for step in out)
    gated = farey._follow((root, steps, t, farey._BLOCK_GATE, counts), 0)
    assert gated == rows
    assert set(reads.values()) == {1}


def test_suffix_counts_and_row_blocks():
    # each node's suffix count is its number of geodesics to the target,
    # and the rows listed next to the target hold at most the budget
    shapes = ([5] + [2] * 20 + [7], [2] * 12, [2] * 6 + [3] * 400, [3] * 400 + [2] * 6 + [5],
              [1] * 40 + [2])
    for entries in shapes:
        y = cf_eval(entries)
        root, steps, t, count, counts = all_geodesics(INFINITY, y, cap=10**9)._walk
        assert counts[0] == count and counts[t] == 1
        assert all(c == sum(counts[s[2]] for s in out) for c, out in zip(counts[:t], steps))
        for k in (0, 1):
            nodes, blocks = farey._blocks(steps, counts, t, k)
            assert len(nodes) == t + 1
            assert sum(map(len, chain.from_iterable(blocks.values()))) <= farey._BLOCK_REFS
            for i, rows in blocks.items():
                assert len(rows) == counts[i] and nodes[i] == ()
    # a long forced run next to the target is listed only as far as the budget
    root, steps, t, count, counts = all_geodesics(INFINITY, cf_eval([2] * 6 + [3] * 3000))._walk
    assert count >= farey._BLOCK_GATE and len(farey._blocks(steps, counts, t, 0)[1]) < 30


def test_row_walk_does_the_same_on_both_sides_of_the_gate(monkeypatch):
    sets = [all_geodesics(INFINITY, cf_eval(entries)) for entries in (
        [5] + [2] * 12 + [7], [2] * 6 + [3] * 40, [3] * 40 + [2] * 6 + [5], [1] * 40 + [2])]
    walked = [(farey._follow(gs._walk, 0), farey._follow(gs._walk, 1)) for gs in sets]
    assert all(len(gs) >= farey._BLOCK_GATE for gs in sets)
    monkeypatch.setattr(farey, "_BLOCK_GATE", 10**9)
    assert walked == [(farey._follow(gs._walk, 0), farey._follow(gs._walk, 1)) for gs in sets]
    monkeypatch.setattr(farey, "_BLOCK_GATE", 1)
    monkeypatch.setattr(farey, "_BLOCK_REFS", 10**9)
    assert walked == [(farey._follow(gs._walk, 0), farey._follow(gs._walk, 1)) for gs in sets]


def test_rows_peak_at_what_they_retain():
    gs = all_geodesics(INFINITY, cf_eval([5] + [2] * 20 + [7]))
    gc.collect()
    tracemalloc.start()
    try:
        rows = gs._rows()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 17711
    assert peak <= 1.25 * retained, (peak, retained)


def test_a_walked_set_compares_hashes_and_copies_as_its_pair(monkeypatch):
    def refused(*args):
        raise AssertionError("walked")

    # about 7.3e41 paths: ==, hash, copy and pickle must not walk them
    monkeypatch.setattr(farey, "_follow", refused)
    monkeypatch.setenv(farey.GEO_CAP_ENV, "1")
    y = cf_eval([2] * 200)
    gs, again = (all_geodesics(INFINITY, y, cap=10**60) for _ in range(2))
    assert gs == again and hash(gs) == hash(again) == hash((INFINITY, y, 201))
    for w in (copy.copy(gs), pickle.loads(pickle.dumps(gs)), copy.deepcopy(gs)):
        assert type(w) is GeodesicSet and w is not gs and w == gs and hash(w) == hash(gs)
        assert w._walk[3] == gs._walk[3]
    assert gs != all_geodesics(INFINITY, cf_eval([2] * 199), cap=10**60)
    monkeypatch.undo()
    # a set built from its paths compares them, also with a walked set
    gs = all_geodesics(INFINITY, cf_eval([2] * 4))
    some = GeodesicSet(gs.source, gs.target, gs.length, gs.paths[:3])
    assert some != gs and gs != some and hash(some) == hash(gs)
    assert GeodesicSet(gs.source, gs.target, gs.length, gs.paths) == gs
    assert pickle.loads(pickle.dumps(some)) == some


def test_a_listed_walked_set_compares_unread_with_another_walked_set(monkeypatch):
    def refused(*args):
        raise AssertionError("walked")

    y = cf_eval([3] + [2] * 14 + [5])
    listed, unread = all_geodesics(INFINITY, y), all_geodesics(INFINITY, y)
    assert len(listed.paths) == 987
    monkeypatch.setattr(farey, "_follow", refused)
    assert listed == unread and unread == listed
    assert unread._paths is None


def test_enumeration_overflow_is_raised_before_any_walk(monkeypatch):
    def refused(*args):
        raise AssertionError("walked or mapped back")

    monkeypatch.setattr(farey, "_follow", refused)
    monkeypatch.setattr(rationals, "_map_coprime", refused)
    y = cf_eval([5] + [2] * 20 + [7])
    with pytest.raises(EnumerationOverflow):
        all_geodesics(INFINITY, y, cap=1000)
    with pytest.raises(EnumerationOverflow):
        classify_02(TwoBridgeLink(y.q, y.p), cap=1000)


def test_a_set_past_sys_maxsize_reads_its_count_and_refuses_len(monkeypatch):
    def refused(*args):
        raise AssertionError("walked")

    # about 7.3e41 paths, under the cap: built in milliseconds.  Its paths
    # must never be walked, not even by a repr in a failure report.
    monkeypatch.setattr(farey, "_follow", refused)
    gs = all_geodesics(INFINITY, cf_eval([2] * 200), cap=10**60)
    assert (gs.length, gs.unique) == (201, False)
    assert gs._walk[3] == 734544867157818093234908902110449296423351
    with pytest.raises(EnumerationOverflow, match="^7345448671.*more than len"):
        len(gs)
    with pytest.raises(EnumerationOverflow):
        cli.geodesic_set_to_jsonable(gs)
    report = classify_02(TwoBridgeLink(gs.target.q, gs.target.p), cap=10**60)
    assert (report.distance, report.strongly_keen) == (201, False)


def test_repr_names_the_count_past_the_default_cap(monkeypatch):
    def refused(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(farey, "_follow", refused)
    gs = all_geodesics(INFINITY, cf_eval([2] * 200), cap=10**60)
    assert repr(gs) == (
        f"GeodesicSet(source={INFINITY!r}, target={gs.target!r}, length=201, "
        f"paths=<734544867157818093234908902110449296423351 paths>)"
    )
    monkeypatch.undo()
    # at the cap the paths are printed, as for any value; one past it, the count
    monkeypatch.setattr(farey, "DEFAULT_GEO_CAP", 2)
    two = all_geodesics(INFINITY, cf_eval([2]), cap=10)
    three = all_geodesics(INFINITY, cf_eval([2, 2]), cap=10)
    assert (len(two), len(three)) == (2, 3)
    assert repr(two) == repr(GeodesicSet(two.source, two.target, two.length, two.paths))
    assert "FareyPath" in repr(two)
    assert repr(three).endswith(", length=3, paths=<3 paths>)")
    assert repr(GeodesicSet(three.source, three.target, three.length, three.paths)) == repr(three)


def test_all_geodesics_walks_no_path(monkeypatch):
    def refused(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(farey, "_follow", refused)
    gs = all_geodesics(INFINITY, cf_eval([5] + [2] * 20 + [7]))
    assert (gs.length, len(gs), gs.unique) == (23, 17711, False)
    assert gs._paths is None


def test_long_expansion_enumerates_in_linear_time():
    y = cf_eval([3] * 8000)
    t0 = time.perf_counter()
    gs = all_geodesics(INFINITY, y)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    spine = [(1, 0), (0, 1)]  # 1/0, 0/1 and the convergents
    for _ in range(8000):
        (p0, q0), (p1, q1) = spine[-2:]
        spine.append((3 * p1 + p0, 3 * q1 + q0))
    assert gs.unique and [(v.p, v.q) for v in gs.paths[0]] == spine


def test_geodesic_count_reads_no_convergent():
    y = cf_eval([3] * 30000)  # 30000 convergents of up to 15,000 digits
    tracemalloc.start()
    try:
        assert farey._length_and_count(INFINITY, y) == (30001, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


def test_refused_geodesic_set_reads_no_convergent():
    # about 10^356 geodesics, refused under the default cap on the count alone
    rng = random.Random(8)
    y = cf_eval([rng.choice((1, 3, 4)) for _ in range(20000)] + [3])
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationOverflow, match=r"^\d{300,} geodesics for 1/0 -> "):
            all_geodesics(INFINITY, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


def test_long_unique_geodesic_peaks_at_what_the_set_retains():
    # one path of 20,001 vertices of up to 10,500 digits each: the set is the floor
    y = cf_eval([3] * 20000)
    gc.collect()
    tracemalloc.start()
    try:
        gs = all_geodesics(INFINITY, y)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gs.unique and gs.length == 20001
    assert peak <= 1.25 * retained, (peak, retained)


def test_enumeration_validates_no_vertex(monkeypatch):
    counted = 0
    real_init = ExtendedRational.__init__

    def counting_init(self, p, q):
        nonlocal counted
        counted += 1
        real_init(self, p, q)

    ys = [cf_eval([3] * n) for n in (50, 500)]
    monkeypatch.setattr(ExtendedRational, "__init__", counting_init)
    counts = []
    for y in ys:
        counted = 0
        assert all_geodesics(INFINITY, y).unique
        counts.append(counted)
    assert counts[0] == counts[1]


def test_enumeration_memory_is_what_the_paths_retain():
    y = cf_eval([2] * 20)
    all_geodesics(INFINITY, y)
    gc.collect()
    tracemalloc.start()
    try:
        gs = all_geodesics(INFINITY, y)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gs.paths) == 17711
    assert peak <= 1.5 * retained, (peak, retained)
