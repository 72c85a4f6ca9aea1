"""The Farey graph: ladders of triangles, spines, distances, geodesics.

Vertices are canonical slopes, edges are pairs with |det| = 1.  A pair is
normalized so the source is 1/0 and the target is p/q in [0, 1), and p/q
is expanded as [a1, ..., an] with convergents c_{-1} = 1/0, c_0 = 0/1,
..., c_n = p/q.  Geodesics run along these: c_{k-1} to c_k is an edge,
c_{k-2} to c_k is an edge when a_k = 1 and two edges through the mediant
c_{k-2} + c_{k-1} when a_k = 2, and a recurrence over them gives the
distance and the geodesic count in O(n) steps.

Ladders lay down n fans of triangles, fan i with a_i triangles around its
pivot c_{i-1}; its rim walks the intermediate mediants from the previous
pivot to the next, so the L/R run lengths are (a1, ..., an), first run L.
Every geodesic lies in the ladder; distance is found by BFS inside it.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

from .errors import (
    DegenerateLadder,
    DomainError,
    EmptyLadder,
    EnumerationOverflow,
    LadderTooLarge,
    SpineUndefined,
)
from .rationals import (
    ZERO,
    ExtendedRational,
    cf_expand,
    det,
    is_adjacent,
    normalize_pair,
)

__all__ = [
    "FareyTriangle",
    "Ladder",
    "FareyPath",
    "GeodesicSet",
    "ladder",
    "ladder_type",
    "spine",
    "distance",
    "all_geodesics",
    "is_unique_geodesic",
    "DEFAULT_LADDER_CAP",
    "DEFAULT_GEO_CAP",
    "LADDER_CAP_ENV",
    "GEO_CAP_ENV",
]

DEFAULT_LADDER_CAP = 10**6  # ladder vertices
DEFAULT_GEO_CAP = 10**5  # enumerated geodesics
LADDER_CAP_ENV = "FAREY_LADDER_CAP"
GEO_CAP_ENV = "FAREY_GEO_CAP"


def _resolve_cap(explicit: int | None, env_name: str, default: int) -> int:
    if explicit is not None:
        if explicit < 1:
            raise DomainError(f"cap must be positive, got {explicit}")
        return explicit
    raw = os.environ.get(env_name)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise DomainError(f"{env_name} must be an integer, got {raw!r}") from None
        if value < 1:
            raise DomainError(f"{env_name} must be positive, got {value}")
        return value
    return default


def _sort_key(v: ExtendedRational) -> tuple[int, int]:
    return (v.p, v.q)


def _trusted(cls, **fields):
    """An instance of a frozen dataclass built without __post_init__, for
    values this module constructed and that hold its invariants already."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, slots=True)
class FareyTriangle:
    """Three pairwise adjacent slopes plus the side label of its fan."""

    vertices: tuple[ExtendedRational, ExtendedRational, ExtendedRational]
    label: str

    def __post_init__(self):
        vs = self.vertices
        if len(vs) != 3 or len(set(vs)) != 3:
            raise DomainError("triangle needs three distinct vertices")
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(det(vs[i], vs[j])) != 1:
                    raise DomainError(f"not a Farey triangle: {vs[i]}, {vs[j]}")
        if self.label not in ("L", "R"):
            raise DomainError(f"label must be L or R, got {self.label!r}")

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.vertices) + "}:" + self.label


@dataclass(frozen=True, slots=True)
class FareyPath:
    """A simplicial path: consecutive vertices adjacent, no repeats."""

    vertices: tuple[ExtendedRational, ...]

    def __post_init__(self):
        vs = self.vertices
        if not vs:
            raise DomainError("path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise DomainError("path repeats a vertex")
        for u, v in zip(vs, vs[1:]):
            if not is_adjacent(u, v):
                raise DomainError(f"not an edge: {u} -- {v}")

    @property
    def length(self) -> int:
        """Edge count."""
        return len(self.vertices) - 1

    def __iter__(self):
        return iter(self.vertices)

    def __str__(self) -> str:
        return " -> ".join(str(v) for v in self.vertices)


@dataclass(frozen=True, slots=True)
class Ladder:
    """Ordered triangle strip between two non-adjacent slopes.

    runs are the L/R run lengths (the type); pivots are the fan centers,
    one per run, in strip order.  Triangle i and triangle i+1 always share
    an edge; triangles further apart share at most one vertex.
    """

    x: ExtendedRational
    y: ExtendedRational
    triangles: tuple[FareyTriangle, ...]
    runs: tuple[int, ...]
    pivots: tuple[ExtendedRational, ...]

    def __post_init__(self):
        if len(self.pivots) != len(self.runs):
            raise DomainError("one pivot per run required")
        if sum(self.runs) != len(self.triangles):
            raise DomainError("run lengths must sum to the triangle count")

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def vertices(self) -> tuple[ExtendedRational, ...]:
        """All distinct vertices in first-appearance order."""
        seen: dict[ExtendedRational, None] = {}
        for t in self.triangles:
            for v in t.vertices:
                seen.setdefault(v)
        return tuple(seen)

    def edges(self) -> tuple[tuple[ExtendedRational, ExtendedRational], ...]:
        """All distinct edges, each as a sorted pair, in first-appearance order."""
        seen: dict[tuple, None] = {}
        for t in self.triangles:
            vs = t.vertices
            for a, b in ((vs[0], vs[1]), (vs[0], vs[2]), (vs[1], vs[2])):
                if _sort_key(b) < _sort_key(a):
                    a, b = b, a
                seen.setdefault((a, b))
        return tuple(seen)


@dataclass(frozen=True, slots=True)
class GeodesicSet:
    """Every shortest path between two slopes, in deterministic order."""

    source: ExtendedRational
    target: ExtendedRational
    length: int
    paths: tuple[FareyPath, ...]

    def __post_init__(self):
        if not self.paths:
            raise DomainError("a geodesic set is never empty")
        for p in self.paths:
            if p.vertices[0] != self.source or p.vertices[-1] != self.target:
                raise DomainError("path endpoints disagree with the set")
            if p.length != self.length:
                raise DomainError("path length disagrees with the set")
        if len(set(self.paths)) != len(self.paths):
            raise DomainError("duplicate geodesic")

    @property
    def unique(self) -> bool:
        return len(self.paths) == 1

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def ladder(
    x: ExtendedRational,
    y: ExtendedRational,
    *,
    vertex_cap: int | None = None,
) -> Ladder:
    """The triangle strip between non-adjacent x and y.

    Raises EmptyLadder for x = y, DegenerateLadder for adjacent endpoints,
    LadderTooLarge when the strip would exceed the vertex cap
    (FAREY_LADDER_CAP, default 10**6 vertices).
    """
    if x == y:
        raise EmptyLadder(f"no ladder between equal slopes {x}")
    if is_adjacent(x, y):
        raise DegenerateLadder(f"{x} and {y} are adjacent; the ladder is empty")
    cap = _resolve_cap(vertex_cap, LADDER_CAP_ENV, DEFAULT_LADDER_CAP)

    m, image = normalize_pair(x, y)
    # image = 0/1 would mean adjacency, excluded above; so image is in (0,1).
    cf = cf_expand(image)
    n_vertices = sum(cf.entries) + 2
    if n_vertices > cap:
        raise LadderTooLarge(
            f"ladder needs {n_vertices} vertices, cap is {cap}"
        )

    inv = m.inverse()
    back: dict[tuple[int, int], ExtendedRational] = {}

    def mapped(p: int, q: int) -> ExtendedRational:
        v = back.get((p, q))
        if v is None:
            v = inv.apply(ExtendedRational(p, q))
            back[(p, q)] = v
        return v

    triangles: list[FareyTriangle] = []
    pivots: list[ExtendedRational] = []
    # Convergent frame: c_{-1} = 1/0, c_0 = 0/1; fan i pivots around c_{i-1}
    # and its rim walks the mediants from c_{i-2} up to c_i.
    cp, cq = 1, 0
    dp, dq = 0, 1
    for i, a in enumerate(cf.entries):
        label = "L" if i % 2 == 0 else "R"
        pivot = mapped(dp, dq)
        pivots.append(pivot)
        sp, sq = cp, cq
        for j in range(1, a + 1):
            tp, tq = cp + j * dp, cq + j * dq
            vs = sorted(
                (pivot, mapped(sp, sq), mapped(tp, tq)), key=_sort_key
            )
            triangles.append(_trusted(FareyTriangle, vertices=tuple(vs), label=label))
            sp, sq = tp, tq
        cp, cq, dp, dq = dp, dq, sp, sq

    return Ladder(x, y, tuple(triangles), cf.entries, tuple(pivots))


def ladder_type(l: Ladder) -> tuple[int, ...]:
    """Run lengths of the L/R labels, first run labelled L."""
    return l.runs


def spine(l: Ladder) -> FareyPath:
    """The path from x to y through every pivot in strip order.

    Defined only for ladders with at least 3 triangles (SpineUndefined
    otherwise; the sole 2-triangle shape is the type-(2) ladder).
    """
    if l.triangle_count < 3:
        raise SpineUndefined(
            f"spine needs >= 3 triangles, ladder has {l.triangle_count}"
        )
    return FareyPath((l.x,) + l.pivots + (l.y,))


def _adjacency(l: Ladder) -> dict[ExtendedRational, list[ExtendedRational]]:
    adj: dict[ExtendedRational, list[ExtendedRational]] = {}
    for a, b in l.edges():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def distance(
    x: ExtendedRational,
    y: ExtendedRational,
    *,
    vertex_cap: int | None = None,
) -> int:
    """Graph distance in the Farey graph.

    0 and 1 are answered directly; otherwise BFS inside the ladder, whose
    internal shortest paths realize the true distance.
    """
    if x == y:
        return 0
    if is_adjacent(x, y):
        return 1
    l = ladder(x, y, vertex_cap=vertex_cap)
    adj = _adjacency(l)
    dist = {x: 0}
    queue = deque((x,))
    while queue:
        u = queue.popleft()
        if u == y:
            return dist[u]
        nd = dist[u] + 1
        for v in adj[u]:
            if v not in dist:
                dist[v] = nd
                queue.append(v)
    raise DomainError(f"ladder disconnected between {x} and {y}; invariant broken")


def _skeleton(x: ExtendedRational, y: ExtendedRational):
    """(m, entries, conv, dist, count) for distinct x, y: m normalizes the
    pair, conv holds the convergents from 1/0 to m(y) as integer pairs, and
    dist[i], count[i] are the distance from 1/0 to conv[i] and the number of
    geodesics realizing it.  A skip past a_k = 2 through the pivot is the
    two steps already counted, so only the mediant route adds to it.
    """
    m, image = normalize_pair(x, y)
    entries = cf_expand(image).entries
    conv = [(1, 0), (0, 1)]
    dist = [0, 1]
    count = [1, 1]
    for i, a in enumerate(entries, start=2):
        (p0, q0), (p1, q1) = conv[i - 2], conv[i - 1]
        conv.append((a * p1 + p0, a * q1 + q0))
        d, c = dist[i - 1] + 1, count[i - 1]
        if a <= 2:
            skip = dist[i - 2] + a
            if skip < d:
                d, c = skip, count[i - 2]
            elif skip == d:
                c += count[i - 2]
        dist.append(d)
        count.append(c)
    return m, entries, conv, dist, count


def _length_and_count(x: ExtendedRational, y: ExtendedRational) -> tuple[int, int]:
    """Distance from x to y and the number of geodesics realizing it."""
    if x == y:
        return 0, 1
    _, _, _, dist, count = _skeleton(x, y)
    return dist[-1], count[-1]


def all_geodesics(
    x: ExtendedRational,
    y: ExtendedRational,
    *,
    cap: int | None = None,
) -> GeodesicSet:
    """Every geodesic from x to y, sorted, capped at FAREY_GEO_CAP (10**5).

    The cap is checked against the geodesic count before any path is
    built.  x = y yields the single empty path (one vertex, zero edges).
    """
    cap_value = _resolve_cap(cap, GEO_CAP_ENV, DEFAULT_GEO_CAP)
    if x == y:
        return GeodesicSet(x, y, 0, (FareyPath((x,)),))
    m, entries, conv, dist, count = _skeleton(x, y)
    if count[-1] > cap_value:
        raise EnumerationOverflow(
            f"{count[-1]} geodesics for {x} -> {y}, cap is {cap_value}"
        )
    # Every vertex a geodesic can visit, each mapped back once: the
    # convergents, then the mediant before node i at len(conv) + i - 2.
    # Paths are tuples of the vertices' ranks in sort-key order, so sorting
    # them sorts the mapped paths.
    points = conv + [(p0 + p1, q0 + q1) for (p0, q0), (p1, q1) in zip(conv, conv[1:])]
    inv = m.inverse()
    vertices = [inv.apply(ExtendedRational(p, q)) for p, q in points]
    order = sorted(range(len(points)), key=lambda j: _sort_key(vertices[j]))
    rank = {j: r for r, j in enumerate(order)}

    # Walk the skeleton backwards from the target; every predecessor that
    # keeps the distance tight continues a geodesic.
    raw: list[tuple[int, ...]] = []
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
    ordered = [vertices[j] for j in order]
    paths = tuple(
        _trusted(FareyPath, vertices=tuple(map(ordered.__getitem__, path))) for path in raw
    )
    return _trusted(GeodesicSet, source=x, target=y, length=dist[-1], paths=paths)


def is_unique_geodesic(x: ExtendedRational, y: ExtendedRational) -> bool:
    """Whether exactly one geodesic joins x and y.

    Reads the geodesic count off the convergent skeleton; nothing is
    enumerated, so no cap applies.
    """
    return _length_and_count(x, y)[1] == 1
