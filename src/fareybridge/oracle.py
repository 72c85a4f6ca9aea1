"""Brute-force cross-check: BFS in a bounded piece of the Farey graph.

Deliberately independent of the ladder machinery: vertices are all
canonical slopes with |p| <= N and q <= N, neighbors are generated
directly from the determinant condition (the solutions of p*s - q*r = +-1
are, up to sign, one arithmetic family), and distances/geodesics come from
plain BFS.  Distances in the bounded graph can only overshoot the true ones,
and they stop changing once N is large enough to contain every vertex a
shortest path needs, which is what stabilized_distance waits for.

A query grows one BFS ball from each end, a layer at a time, and stops
where the two meet, so it maps the neighborhoods of its two ends and not
the whole box.  The balls belong to the query and are dropped when it
returns: nothing is kept between queries.  Geodesics are walked off the
two balls one layer at a time, without recursion.

Work is bounded at any bound.  A query raises OracleBudget before it grows
a layer that would read more than _WORK_BUDGET = 8 B^2 neighbors, for B =
DEFAULT_ORACLE_BUDGET, and neighbors() for a vertex with more.  No layer
of a box of at most B reads that many (at most 4m of its slopes have
max(|p|, q) = m, each read at 2B // m), so only larger boxes are refused.
distances_from(), which maps a whole component, refuses a box over B.
"""

from __future__ import annotations

from .errors import DomainError, EnumerationOverflow, OracleBudget, OutOfBound
from .farey import DEFAULT_GEO_CAP, GEO_CAP_ENV, FareyPath, GeodesicSet, _resolve_cap
from .rationals import ExtendedRational, _check_ints, _check_type, _Frozen, _int_text, _set

__all__ = [
    "UNREACHABLE",
    "BoundedSubgraph",
    "bounded_distance",
    "stabilized_distance",
    "bruteforce_geodesics",
    "DEFAULT_ORACLE_BUDGET",
]

DEFAULT_ORACLE_BUDGET = 8192  # largest bound stabilized_distance or the CLI check may visit
# neighbors one layer, or one neighbors() call, may read (module docstring)
_WORK_BUDGET = 8 * DEFAULT_ORACLE_BUDGET**2


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


class BoundedSubgraph(_Frozen):
    """Induced subgraph on slopes with |p| <= bound and q <= bound.

    Adjacency is generated on the fly from the determinant condition, so
    the instance stores only its bound.
    """

    __slots__ = ("bound",)

    def __init__(self, bound: int):
        _set(self, "bound", bound)
        _check_ints("bound", bound)
        if bound < 1:
            raise DomainError(f"bound must be >= 1, got {_int_text(bound)}")

    def contains(self, v: ExtendedRational) -> bool:
        _check_type("the slope", ExtendedRational, v)
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
        """All in-bound slopes adjacent to v, in slope order; OracleBudget
        when v has more than the work budget of them (about 2N / max(|p|,
        q), as in _next_cost)."""
        pq = _check_inside(self, v)
        cost = 2 * self.bound // max(abs(v.p), v.q)
        if cost > _WORK_BUDGET:
            raise OracleBudget(
                f"{v} has about {_int_text(cost)} neighbors at bound {_int_text(self.bound)}, "
                f"more than the work budget {_int_text(_WORK_BUDGET)}"
            )
        return tuple(sorted(ExtendedRational(r, s) for r, s in self._adjacent(*pq)))

    def distances_from(self, src: tuple[int, int]) -> dict[tuple[int, int], int]:
        """BFS distance map over the whole bounded component of src, the
        int pair (p, q) of an in-bound slope: its ball, grown until it is
        exhausted.  OracleBudget for a bound over DEFAULT_ORACLE_BUDGET."""
        if type(src) is not tuple or len(src) != 2:
            raise DomainError(f"src must be a pair (p, q), got {type(src).__name__}")
        if self.bound > DEFAULT_ORACLE_BUDGET:
            raise OracleBudget(
                f"mapping a whole component at bound {_int_text(self.bound)} "
                f"> budget {DEFAULT_ORACLE_BUDGET}"
            )
        ball = _Ball(self, _check_inside(self, ExtendedRational(*src)))
        while not ball.exhausted:
            ball.grow()
        return ball.dist


class _Ball:
    """The BFS from one source in one box, grown a layer at a time: dist
    maps every vertex of the completed layers to its layer.  cost is the
    _next_cost of the last layer once asked for, None until then."""

    __slots__ = ("sg", "dist", "layers", "exhausted", "cost")

    def __init__(self, sg: BoundedSubgraph, src: tuple[int, int]):
        self.sg = sg
        self.dist = {src: 0}
        self.layers = [[src]]
        self.exhausted = False  # dist holds src's whole bounded component
        self.cost = None

    def grow(self) -> list[tuple[int, int]]:
        """Discover the next layer and return it; empty once exhausted."""
        dist, k, new = self.dist, len(self.layers), []
        adjacent = self.sg._adjacent
        for u in self.layers[-1]:
            for w in adjacent(*u):
                if w not in dist:
                    dist[w] = k
                    new.append(w)
        if new:
            self.layers.append(new)
            self.cost = None
        else:
            self.exhausted = True
        return new


def _next_cost(ball: _Ball) -> int:
    """About how many neighbors growing the ball's next layer reads: p/q
    has about 2N / max(|p|, q) neighbors in box N.  Summed once a layer."""
    if ball.cost is None:
        n2 = 2 * ball.sg.bound
        ball.cost = sum(n2 // max(abs(p), q) for p, q in ball.layers[-1])
    return ball.cost


def _check_inside(sg: BoundedSubgraph, v: ExtendedRational) -> tuple[int, int]:
    """v's int pair; DomainError unless v is a slope, OutOfBound unless it
    lies in the box."""
    if not sg.contains(v):
        raise OutOfBound(f"{v} lies outside the bound {_int_text(sg.bound)}")
    return (v.p, v.q)


def _meet(bx: _Ball, by: _Ball) -> int | None:
    """Distance between the sources of two fresh balls in one box, or None
    when they lie in different components.

    Once the balls share a vertex, the least dx + dy over the shared
    vertices is the distance d: every shared vertex gives a walk, and the
    vertex of a geodesic at min(x's radius, d) from x lies in both balls.
    Distinct sources share nothing, so each step grows the ball whose next
    layer is cheaper to discover, and only the new layer can meet the
    other ball.  The order of growth cannot change d, only the work done
    to reach it.  OracleBudget, before the layer is grown, when even the
    cheaper layer costs more than the work budget.
    """
    d = None
    while d is None:
        if bx.exhausted or by.exhausted:
            return None
        cx, cy = _next_cost(bx), _next_cost(by)
        ball, other, cost = (bx, by.dist, cx) if cx <= cy else (by, bx.dist, cy)
        if cost > _WORK_BUDGET:
            raise OracleBudget(
                f"the next BFS layer at bound {_int_text(bx.sg.bound)} would read about "
                f"{_int_text(cost)} neighbors, more than the work budget {_int_text(_WORK_BUDGET)}"
            )
        k = len(ball.layers)
        d = min((k + other[v] for v in ball.grow() if v in other), default=None)
    return d


def bounded_distance(
    x: ExtendedRational, y: ExtendedRational, bound: int
):
    """BFS distance within the bound, or UNREACHABLE.

    Searched from both ends at once: the balls of x and y grow until they
    meet, so the search maps the neighborhoods of the two ends, not the
    whole box.  The bounded graph is connected in practice (the
    convergent path to 1/0 stays inside any box containing its endpoint),
    so UNREACHABLE is defensive surface.
    """
    sg = BoundedSubgraph(bound)
    xv = _check_inside(sg, x)
    yv = _check_inside(sg, y)
    if xv == yv:
        return 0
    d = _meet(_Ball(sg, xv), _Ball(sg, yv))
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
    OracleBudget before computing at any bound above max_bound, and, above
    DEFAULT_ORACLE_BUDGET, where bounded_distance passes its work budget.
    """
    _check_type("each slope", ExtendedRational, x, y)
    _check_ints("max_bound", max_bound)
    bound = 4 * max(1, abs(x.p), x.q, abs(y.p), y.q)
    values: list = []
    while True:
        if bound > max_bound:
            raise OracleBudget(
                f"stabilization would need bound {_int_text(bound)} "
                f"> budget {_int_text(max_bound)}"
            )
        values.append(bounded_distance(x, y, bound))
        if (
            len(values) >= 3
            and values[-1] is not UNREACHABLE
            and values[-1] == values[-2] == values[-3]
        ):
            return values[-1]
        bound *= 2


def _adjacent_in_layer(sg: BoundedSubgraph, v, layer, dist, k: int):
    """The neighbors of v in layer, the vertices at distance k in a ball
    whose distance map is dist.  The layer's members are tested by
    determinant when they are fewer than v's neighbors (about
    2N / max(|p|, q), as in _next_cost); otherwise v's neighbors are read."""
    p, q = v
    if len(layer) < 2 * sg.bound // max(abs(p), q):
        return [u for u in layer if abs(p * u[1] - q * u[0]) == 1]
    return [u for u in sg._adjacent(p, q) if dist.get(u) == k]


def _geodesic_dag(bx: _Ball, by: _Ball, d: int):
    """The vertices of the x->y geodesics, position by position from x,
    and each one's predecessors on them.

    Every geodesic crosses the middle M, the vertices with dx = s and
    dy = d - s for s = min(x's radius, d), all of which lie in both balls.
    From M, predecessors are walked back to x on x's ball (neighbors one
    layer nearer x) and forward to y on y's ball (neighbors one layer
    nearer y).  One step from an end no neighbors are read: x is the only
    predecessor at dx = 1, and y the only successor at dy = 1.
    """
    sg = bx.sg
    dx, dy = bx.dist, by.dist
    xv, yv = bx.layers[0][0], by.layers[0][0]
    s = min(len(bx.layers) - 1, d)
    xs, ys = bx.layers[s], by.layers[d - s]
    if len(xs) <= len(ys):
        middle = [m for m in xs if dy.get(m) == d - s]
    else:
        middle = [m for m in ys if dx.get(m) == s]
    levels: list[list[tuple[int, int]]] = [[]] * (d + 1)
    levels[s] = middle
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k in range(s, 1, -1):
        for v in levels[k]:
            preds[v] = _adjacent_in_layer(sg, v, bx.layers[k - 1], dx, k - 1)
        levels[k - 1] = list({u for v in levels[k] for u in preds[v]})
    if s:
        preds.update((v, [xv]) for v in levels[1])
        levels[0] = [xv]
    for k in range(s, d - 1):
        above: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for u in levels[k]:
            for w in _adjacent_in_layer(sg, u, by.layers[d - k - 1], dy, d - k - 1):
                above.setdefault(w, []).append(u)
        preds.update(above)
        levels[k + 1] = list(above)
    if s < d:
        preds[yv] = levels[d - 1]
        levels[d] = [yv]
    return levels, preds


def bruteforce_geodesics(
    x: ExtendedRational,
    y: ExtendedRational,
    bound: int,
    *,
    cap: int | None = None,
) -> GeodesicSet:
    """Every shortest x->y path within the bound, as a GeodesicSet.

    The balls of x and y grow until they meet, as in bounded_distance.
    Every geodesic crosses the vertices M at a fixed distance from x that
    both balls hold; predecessors are walked back from M to x on x's ball
    and forward from M to y on y's ball.  Paths are counted forward over
    those layers, so the count at y is the sum over m in M of the x->m
    count times the m->y count; the cap is checked against it, and then
    the paths are listed with an explicit stack, no recursion, and sorted.
    No path-listing code is shared with the ladder side.
    """
    cap_value = _resolve_cap(cap, GEO_CAP_ENV, DEFAULT_GEO_CAP)
    sg = BoundedSubgraph(bound)
    xv = _check_inside(sg, x)
    yv = _check_inside(sg, y)
    if xv == yv:
        return GeodesicSet(x, y, 0, (FareyPath((x,)),))
    bx, by = _Ball(sg, xv), _Ball(sg, yv)
    length = _meet(bx, by)
    if length is None:
        raise DomainError(f"{y} unreachable from {x} at bound {_int_text(bound)}")

    levels, preds = _geodesic_dag(bx, by, length)
    counts = {xv: 1}
    for level in levels[1:]:
        for v in level:
            counts[v] = sum(counts[u] for u in preds[v])
    if counts[yv] > cap_value:
        raise EnumerationOverflow(
            f"{_int_text(counts[yv])} geodesics for {x} -> {y} at bound {_int_text(bound)}, "
            f"cap is {_int_text(cap_value)}"
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
