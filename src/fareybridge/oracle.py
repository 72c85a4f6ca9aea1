"""Brute-force cross-check: BFS in a bounded piece of the Farey graph.

Deliberately independent of the ladder machinery: vertices are all
canonical slopes with |p| <= N and q <= N, neighbors are generated
directly from the determinant condition (the solutions of p*s - q*r = +-1
are, up to sign, one arithmetic family), and distances/geodesics come from
plain BFS.  Distances in the bounded graph can only overshoot the true ones,
and they stop changing once N is large enough to contain every vertex a
shortest path needs, which is what stabilized_distance waits for.

One BFS distance map is cached per (bound, source), and it is what a
fresh run would return.  Distances are read from it, and geodesics are
walked back off it one layer at a time, without recursion.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

from .errors import DomainError, EnumerationOverflow, OracleBudget, OutOfBound
from .farey import DEFAULT_GEO_CAP, GEO_CAP_ENV, FareyPath, GeodesicSet, _resolve_cap
from .rationals import ExtendedRational

__all__ = [
    "UNREACHABLE",
    "BoundedSubgraph",
    "subgraph",
    "bounded_distance",
    "stabilized_distance",
    "bruteforce_geodesics",
    "DEFAULT_ORACLE_BUDGET",
]

DEFAULT_ORACLE_BUDGET = 8192  # largest bound stabilized_distance or the CLI check may visit


class _Unreachable:
    """Sentinel for 'no path inside this bound'."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Unreachable"


UNREACHABLE = _Unreachable()


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def _t_range(x0: int, step: int, lo: int, hi: int) -> tuple[int, int]:
    """Integers t with lo <= x0 + t*step <= hi; step != 0."""
    if step > 0:
        return _ceil_div(lo - x0, step), (hi - x0) // step
    s = -step
    return _ceil_div(x0 - hi, s), (x0 - lo) // s


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    return old_r, old_u, old_v


@dataclass
class BoundedSubgraph:
    """Induced subgraph on slopes with |p| <= bound and q <= bound.

    Adjacency is generated on the fly from the determinant condition —
    nothing per-vertex is stored beyond one cached BFS distance map per
    source, from which both distances and geodesics are read.
    """

    bound: int
    _dist_maps: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.bound < 1:
            raise DomainError(f"bound must be >= 1, got {self.bound}")

    def contains(self, v: ExtendedRational) -> bool:
        return abs(v.p) <= self.bound and v.q <= self.bound

    def _adjacent(self, p: int, q: int):
        """Yield each in-bound (r, s) with |p*s - q*r| = 1 exactly once.

        With u*p + v*q = g = +-1, the solutions of p*s - q*r = g are the one
        family (t*p - v, t*q + u), and those of -g are the same pairs negated;
        so t runs over the range keeping |r|, |s| <= bound and each pair gets
        its canonical sign.
        """
        n = self.bound
        _, u, v = _xgcd(p, q)
        if p:
            t_lo, t_hi = _t_range(-v, p, -n, n)
            if q:
                s_lo, s_hi = _t_range(u, q, -n, n)
                t_lo, t_hi = max(t_lo, s_lo), min(t_hi, s_hi)
        else:
            t_lo, t_hi = _t_range(u, q, -n, n)
        for t in range(t_lo, t_hi + 1):
            r, s = t * p - v, t * q + u
            if s < 0 or (s == 0 and r < 0):
                r, s = -r, -s
            yield r, s

    def neighbors(self, v: ExtendedRational) -> tuple[ExtendedRational, ...]:
        """All in-bound slopes adjacent to v, in slope order."""
        pq = _check_inside(self, v)
        return tuple(sorted(ExtendedRational(r, s) for r, s in self._adjacent(*pq)))

    def distances_from(self, src: tuple[int, int]) -> dict[tuple[int, int], int]:
        """BFS distance map over the whole bounded component of src."""
        cached = self._dist_maps.get(src)
        if cached is not None:
            return cached
        adjacent = self._adjacent
        dist = {src: 0}
        queue = deque((src,))
        while queue:
            u = queue.popleft()
            nd = dist[u] + 1
            for w in adjacent(*u):
                if w not in dist:
                    dist[w] = nd
                    queue.append(w)
        self._dist_maps[src] = dist
        return dist


_SUBGRAPHS: OrderedDict[int, BoundedSubgraph] = OrderedDict()
_SUBGRAPH_KEEP = 8


def subgraph(bound: int) -> BoundedSubgraph:
    """Shared BoundedSubgraph instances, a few most recent bounds kept."""
    sg = _SUBGRAPHS.get(bound)
    if sg is None:
        sg = BoundedSubgraph(bound)
        _SUBGRAPHS[bound] = sg
    _SUBGRAPHS.move_to_end(bound)
    while len(_SUBGRAPHS) > _SUBGRAPH_KEEP:
        _SUBGRAPHS.popitem(last=False)
    return sg


def _check_inside(sg: BoundedSubgraph, v: ExtendedRational) -> tuple[int, int]:
    if not sg.contains(v):
        raise OutOfBound(f"{v} lies outside the bound {sg.bound}")
    return (v.p, v.q)


def bounded_distance(
    x: ExtendedRational, y: ExtendedRational, bound: int
):
    """BFS distance within the bound, or UNREACHABLE.

    The bounded graph is connected in practice (the convergent path to 1/0
    stays inside any box containing its endpoint), so UNREACHABLE is
    defensive surface.
    """
    sg = subgraph(bound)
    xv = _check_inside(sg, x)
    yv = _check_inside(sg, y)
    if xv == yv:
        return 0
    d = sg.distances_from(xv).get(yv)
    return UNREACHABLE if d is None else d


def stabilized_distance(
    x: ExtendedRational,
    y: ExtendedRational,
    *,
    max_bound: int = DEFAULT_ORACLE_BUDGET,
):
    """bounded_distance at N = 4*max(|p|, q), doubling N until the value is
    unchanged across two consecutive doublings; returns the settled value.

    Bounded distances can only overshoot the true ones and are monotone in
    the bound, so agreement across doublings is the stopping signal.  Raises
    OracleBudget before computing at any bound above max_bound.
    """
    bound = 4 * max(1, abs(x.p), x.q, abs(y.p), y.q)
    values: list = []
    while True:
        if bound > max_bound:
            raise OracleBudget(
                f"stabilization would need bound {bound} > budget {max_bound}"
            )
        values.append(bounded_distance(x, y, bound))
        if (
            len(values) >= 3
            and values[-1] is not UNREACHABLE
            and values[-1] == values[-2] == values[-3]
        ):
            return values[-1]
        bound *= 2


def bruteforce_geodesics(
    x: ExtendedRational,
    y: ExtendedRational,
    bound: int,
    *,
    cap: int | None = None,
) -> GeodesicSet:
    """Every shortest x->y path within the bound, as a GeodesicSet.

    Read back off the cached distance map of x: the predecessors of a vertex
    are its in-bound neighbors one BFS layer closer to x.  Paths are counted
    forward over those layers, the cap is checked against the count, and
    then they are listed with an explicit stack, no recursion; no
    path-listing code is shared with the ladder side.
    """
    cap_value = _resolve_cap(cap, GEO_CAP_ENV, DEFAULT_GEO_CAP)
    sg = subgraph(bound)
    xv = _check_inside(sg, x)
    yv = _check_inside(sg, y)
    if xv == yv:
        return GeodesicSet(x, y, 0, (FareyPath((x,)),))
    dist = sg.distances_from(xv)
    length = dist.get(yv)
    if length is None:
        raise DomainError(f"{y} unreachable from {x} at bound {bound}")

    preds: dict[tuple[int, int], list[tuple[int, int]]] = {}
    layer = {yv}
    for k in range(length - 1, -1, -1):
        for v in layer:
            preds[v] = [u for u in sg._adjacent(*v) if dist[u] == k]
        layer = {u for v in layer for u in preds[v]}
    # preds was filled from y back, one layer at a time, so its reverse
    # meets every vertex after all of its predecessors.
    counts = {xv: 1}
    for v in reversed(preds):
        counts[v] = sum(counts[u] for u in preds[v])
    if counts[yv] > cap_value:
        raise EnumerationOverflow(
            f"{counts[yv]} geodesics for {x} -> {y} at bound {bound}, cap is {cap_value}"
        )

    raw: list[tuple[tuple[int, int], ...]] = []
    stack = [(yv, (yv,))]
    while stack:
        v, tail = stack.pop()
        if v == xv:
            raw.append(tail)
            continue
        for u in preds[v]:
            stack.append((u, (u,) + tail))
    raw.sort()
    paths = tuple(FareyPath(tuple(ExtendedRational(*v) for v in p)) for p in raw)
    return GeodesicSet(x, y, length, paths)
