from __future__ import annotations

import math
import random

import pytest

import fareybridge.farey as farey
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
from fareybridge.rationals import INFINITY, ZERO, MobiusMap, cf_eval, parse_slope

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


def _moved_pairs(seed: int, n: int):
    """Seeded finite, non-adjacent pairs: a random unimodular map applied to
    1/0 and to a short expansion; half of the maps have entries of 30 or
    more digits."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        digits = rng.choice((1, 3, 30, 36))
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

    real_is_adjacent = farey.is_adjacent

    def endpoints_only(u, v):
        if {u, v} not in ({x, y} for x, y in pairs):
            raise AssertionError(f"edge {u} -- {v} re-checked")
        return real_is_adjacent(u, v)

    def no_det(u, v):
        raise AssertionError("triangle re-checked")

    monkeypatch.setattr(farey, "is_adjacent", endpoints_only)
    monkeypatch.setattr(farey, "det", no_det)
    assert [(ladder(x, y), all_geodesics(x, y)) for x, y in pairs] == want
