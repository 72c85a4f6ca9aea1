from __future__ import annotations

import gc
import math
import random
import time
import tracemalloc

import pytest

from fareybridge import farey, oracle
from fareybridge.errors import EnumerationOverflow, OracleBudget, OutOfBound
from fareybridge.oracle import (
    DEFAULT_ORACLE_BUDGET,
    UNREACHABLE,
    BoundedSubgraph,
    bounded_distance,
    bruteforce_geodesics,
    stabilized_distance,
)
from fareybridge.rationals import (
    INFINITY,
    ZERO,
    ExtendedRational,
    det,
    is_adjacent,
    parse_slope,
)

sl = parse_slope


def test_contains():
    sg = BoundedSubgraph(10)
    assert sg.contains(INFINITY)
    assert sg.contains(sl("-10/7"))
    assert not sg.contains(sl("11/3"))
    assert not sg.contains(sl("3/11"))


def test_neighbors_of_zero_small_bound():
    sg = BoundedSubgraph(3)
    nbrs = sg.neighbors(ZERO)
    assert [str(v) for v in nbrs] == ["-1/1", "-1/2", "-1/3", "1/3", "1/2", "1/1", "1/0"]


def test_neighbors_of_infinity_are_integers():
    nbrs = BoundedSubgraph(2).neighbors(INFINITY)
    assert [str(v) for v in nbrs] == ["-2/1", "-1/1", "0/1", "1/1", "2/1"]


def test_neighbors_are_adjacent_in_bound_and_symmetric():
    sg = BoundedSubgraph(7)
    for text in ["1/0", "0/1", "2/7", "-3/5", "5/2"]:
        v = sl(text)
        for w in sg.neighbors(v):
            assert is_adjacent(v, w)
            assert sg.contains(w)
            assert v in sg.neighbors(w)


def test_adjacent_yields_each_box_neighbor_once():
    for n in range(1, 17):
        sg = BoundedSubgraph(n)
        box = [INFINITY] + [
            ExtendedRational(p, q)
            for q in range(1, n + 1)
            for p in range(-n, n + 1)
            if math.gcd(p, q) == 1
        ]
        for v in box:
            got = list(sg._adjacent(v.p, v.q))
            assert len(got) == len(set(got)), (n, v)
            want = tuple(sorted(w for w in box if abs(det(v, w)) == 1))
            assert sg.neighbors(v) == want, (n, v)


def test_neighbors_out_of_bound_input():
    with pytest.raises(OutOfBound):
        BoundedSubgraph(3).neighbors(sl("5/4"))


def test_bounded_distance_examples():
    assert bounded_distance(INFINITY, ZERO, 5) == 1
    assert bounded_distance(INFINITY, sl("3/10"), 50) == 3
    assert bounded_distance(INFINITY, sl("1/2"), 2) == 2
    assert bounded_distance(sl("2/5"), sl("2/5"), 5) == 0
    assert bounded_distance(INFINITY, sl("5/398"), 400) == farey.distance(INFINITY, sl("5/398"))


def test_bounded_distance_out_of_bound():
    with pytest.raises(OutOfBound):
        bounded_distance(INFINITY, sl("79/182"), 10)


def test_bounded_distance_monotone_in_bound():
    # restricting vertices can only lengthen paths
    values = [bounded_distance(sl("0/1"), sl("5/7"), n) for n in (7, 14, 28, 56)]
    assert values == sorted(values, reverse=True)
    assert values[-1] == farey.distance(ZERO, sl("5/7"))
    values = [bounded_distance(INFINITY, sl("19/42"), n) for n in (42, 84, 168)]
    assert values == sorted(values, reverse=True)
    assert values[-1] == 4


def test_unreachable_is_a_singleton_sentinel():
    assert repr(UNREACHABLE) == "Unreachable"
    assert UNREACHABLE is type(UNREACHABLE)()


def test_stabilized_distance_examples():
    assert stabilized_distance(INFINITY, sl("1/2")) == 2
    assert stabilized_distance(INFINITY, sl("3/10")) == 3
    assert stabilized_distance(INFINITY, INFINITY) == 0
    assert stabilized_distance(sl("1/3"), sl("3/4")) == 3


def test_stabilized_distance_budget():
    with pytest.raises(OracleBudget):
        stabilized_distance(INFINITY, sl("79/182"), max_bound=100)


def test_stabilized_agrees_with_ladder_distance():
    for text in ["0/1", "1/2", "2/3", "2/5", "7/10", "5/8", "3/10"]:
        y = sl(text)
        assert stabilized_distance(INFINITY, y) == farey.distance(INFINITY, y)


def test_bruteforce_geodesics_match_ladder_enumeration():
    for xs, ys in [("1/0", "1/2"), ("1/0", "19/42"), ("1/3", "3/4"), ("1/0", "3/10")]:
        x, y = sl(xs), sl(ys)
        bound = max(abs(x.p), x.q, abs(y.p), y.q, 1)
        assert bruteforce_geodesics(x, y, bound) == farey.all_geodesics(x, y)


def test_bruteforce_geodesics_examples():
    assert len(bruteforce_geodesics(INFINITY, sl("1/2"), 10).paths) == 2
    assert len(bruteforce_geodesics(INFINITY, sl("3/10"), 50).paths) == 1
    trivial = bruteforce_geodesics(INFINITY, ZERO, 2)
    assert len(trivial.paths) == 1 and trivial.length == 1


def test_bruteforce_geodesics_cap():
    with pytest.raises(EnumerationOverflow):
        bruteforce_geodesics(INFINITY, sl("1/2"), 10, cap=1)


def _box(n: int) -> list[tuple[int, int]]:
    return [(1, 0)] + [
        (p, q) for q in range(1, n + 1) for p in range(-n, n + 1) if math.gcd(p, q) == 1
    ]


def test_two_ended_distance_matches_the_full_map():
    for n in range(1, 11):
        box = _box(n)
        for xv in box:
            full = BoundedSubgraph(n).distances_from(xv)
            assert len(full) == len(box)
            x = ExtendedRational(*xv)
            for yv in box:
                assert bounded_distance(x, ExtendedRational(*yv), n) == full[yv], (n, xv, yv)


def _full_map(n: int, xv: tuple[int, int]) -> dict[tuple[int, int], int]:
    """Plain BFS over the whole box from xv."""
    adjacent = BoundedSubgraph(n)._adjacent
    dist, frontier = {xv: 0}, [xv]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adjacent(*u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _reference_geodesics(n: int, dist: dict, xv: tuple[int, int], yv: tuple[int, int]):
    """Every xv->yv geodesic in the box, walked back off dist, the full map
    of xv."""
    sg = BoundedSubgraph(n)
    paths, stack = [], [(yv, (yv,))]
    while stack:
        v, tail = stack.pop()
        if v == xv:
            paths.append(tail)
            continue
        stack += [(u, (u,) + tail) for u in sg._adjacent(*v) if dist.get(u) == dist[v] - 1]
    return dist[yv], sorted(paths)


def test_two_ended_geodesics_match_a_full_map_walk():
    rng = random.Random(6)
    pairs = [(n, xv, yv) for n in range(1, 6) for xv in _box(n) for yv in _box(n)]
    for n in range(6, 80, 3):
        box = _box(n)
        xs = rng.sample(box[:40], 3)
        pairs += [(n, rng.choice(xs), rng.choice(box)) for _ in range(20)]
    maps: dict = {}
    for n, xv, yv in pairs:
        x, y = ExtendedRational(*xv), ExtendedRational(*yv)
        if (n, xv) not in maps:
            maps[n, xv] = _full_map(n, xv)
        length, paths = _reference_geodesics(n, maps[n, xv], xv, yv)
        gs = bruteforce_geodesics(x, y, n)
        assert gs.length == length, (n, xv, yv)
        assert [tuple((v.p, v.q) for v in p.vertices) for p in gs.paths] == paths


def test_oracle_keeps_nothing_between_queries():
    # each query drops its balls on return, so a seeded sweep over boxes of
    # three sizes leaves no memory behind once it is warm
    rng = random.Random(7)

    def query(i: int) -> None:
        n = rng.choice((60, 150, 400))
        x = ExtendedRational(*rng.choice(_box(6)))
        q = rng.randint(1, n)
        p = rng.choice([p for p in range(-n, n + 1) if math.gcd(p, q) == 1])
        if i % 2:
            bruteforce_geodesics(x, ExtendedRational(p, q), n, cap=10**6)
        else:
            bounded_distance(x, ExtendedRational(p, q), n)

    for i in range(20):
        query(i)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(200):
            query(i)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, f"{retained} bytes retained"


def test_meet_grows_the_side_whose_next_layer_is_cheaper(monkeypatch):
    # 1/0's first layer is the 16,385 integers of the box, whose neighbors
    # are nearly the whole box; growing the target's side instead meets it
    # after discovering fewer than half as many vertices.
    found = []
    grow = oracle._Ball.grow

    def counted(ball):
        new = grow(ball)
        found.append(len(new))
        return new

    monkeypatch.setattr(oracle._Ball, "grow", counted)
    gs = bruteforce_geodesics(INFINITY, sl("4999/8192"), 8192)
    assert (gs.length, len(gs)) == (8, 6)
    assert sum(found) <= 160_000


def test_geodesic_walk_tests_small_layers_by_determinant(monkeypatch):
    # in box 200 each geodesic layer holds a few vertices, fewer than the
    # neighbors of any vertex on it, so the walk reads no neighbors at all
    def no_reads(self, p, q):
        raise AssertionError(f"neighbors of {p}/{q} read")

    sg = BoundedSubgraph(200)
    for y in map(sl, ("79/182", "19/42", "55/89", "3/10", "1/2", "101/200")):
        bx, by = oracle._Ball(sg, (1, 0)), oracle._Ball(sg, (y.p, y.q))
        d = oracle._meet(bx, by)
        with monkeypatch.context() as m:
            m.setattr(BoundedSubgraph, "_adjacent", no_reads)
            levels, preds = oracle._geodesic_dag(bx, by, d)
        counts = {(1, 0): 1}
        for level in levels[1:]:
            for v in level:
                counts[v] = sum(counts[u] for u in preds[v])
        assert (d, counts[y.p, y.q]) == farey._length_and_count(INFINITY, y), y


@pytest.mark.parametrize("call", [
    lambda: bounded_distance(INFINITY, sl("1/2"), 10**30),
    lambda: bruteforce_geodesics(INFINITY, sl("1/2"), 10**30),
    lambda: bounded_distance(sl("1/3"), sl("2/5"), 10**12),
    lambda: bruteforce_geodesics(sl("-7/9"), sl("2/5"), 10**12, cap=1),
    lambda: BoundedSubgraph(10**30).neighbors(INFINITY),
    lambda: BoundedSubgraph(10**12).neighbors(sl("2/5")),
    lambda: BoundedSubgraph(DEFAULT_ORACLE_BUDGET + 1).distances_from((1, 0)),
    lambda: BoundedSubgraph(10**30).distances_from((1, 2)),
], ids=["bounded_distance(10^30)", "bruteforce_geodesics(10^30)", "bounded_distance(10^12)",
        "bruteforce_geodesics(10^12)", "neighbors(1/0, 10^30)", "neighbors(2/5, 10^12)",
        "distances_from(budget + 1)", "distances_from(10^30)"])
def test_bare_calls_refuse_a_huge_box_before_any_work(call, monkeypatch):
    def refused(*args):
        raise AssertionError("a layer grown or a neighbor read")

    monkeypatch.setattr(oracle._Ball, "grow", refused)
    monkeypatch.setattr(BoundedSubgraph, "_adjacent", refused)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(OracleBudget):
            call()
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 2**20, (elapsed, peak)


def test_work_budget_is_over_every_layer_of_the_budget_box():
    # _next_cost counts p/q at 2N // max(|p|, q); summed over a whole box,
    # which bounds any one layer, that stays under 8 N^2, so no query in a
    # box of at most DEFAULT_ORACLE_BUDGET is refused
    assert oracle._WORK_BUDGET == 8 * DEFAULT_ORACLE_BUDGET**2
    for n in (1, 2, 3, 7, 30, 200):
        assert sum(2 * n // max(abs(p), q) for p, q in _box(n)) <= 8 * n * n, n
    sg = BoundedSubgraph(DEFAULT_ORACLE_BUDGET)
    assert len(sg.neighbors(INFINITY)) == 2 * DEFAULT_ORACLE_BUDGET + 1
    assert bounded_distance(INFINITY, sl("1/2"), DEFAULT_ORACLE_BUDGET) == 2
