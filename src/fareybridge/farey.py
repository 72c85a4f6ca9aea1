"""The Farey graph: ladders of triangles, spines, distances, geodesics.

Vertices are canonical slopes, edges are pairs with |det| = 1.  A pair is
normalized so the source is 1/0 and the target is p/q in [0, 1), and p/q
is expanded as [a1, ..., an] with convergents c_{-1} = 1/0, c_0 = 0/1,
..., c_n = p/q: this is the frame (_frame) every answer is read off.
Geodesics run along it: c_{k-1} to c_k is an edge,
c_{k-2} to c_k is an edge when a_k = 1 and two edges through the mediant
c_{k-2} + c_{k-1} when a_k = 2, and a recurrence over them gives the
distance and the geodesic count in O(n) steps.  The geodesics themselves are
listed in sorted order as they are built, in time and memory linear in the
output: each vertex they visit is mapped back once, without a gcd.

Ladders lay down n fans of triangles, fan i with a_i triangles around its
pivot c_{i-1}; its rim walks the intermediate mediants from the previous
pivot to the next, so the L/R run lengths are (a1, ..., an), first run L.
Every geodesic lies in the ladder; distance is found by BFS inside it, and
the --oracle box (_ladder_box) is the ladder's, read off the frame.  The
values built here are built unchecked (rationals._trusted).
"""

from __future__ import annotations

import os
from collections import deque

from .errors import (
    DegenerateLadder,
    DomainError,
    EmptyLadder,
    EnumerationOverflow,
    LadderTooLarge,
    SpineUndefined,
)
from .rationals import (
    ExtendedRational,
    _Frozen,
    _int_text,
    _map_coprime,
    _parse_int,
    _set,
    _trusted,
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
            raise DomainError(f"cap must be positive, got {_int_text(explicit)}")
        return explicit
    raw = os.environ.get(env_name)
    if raw:
        try:
            value = _parse_int(raw)
        except ValueError:
            raise DomainError(f"{env_name} must be an integer, got {raw!r}") from None
        if value < 1:
            raise DomainError(f"{env_name} must be positive, got {_int_text(value)}")
        return value
    return default


def _sort_key(v: ExtendedRational) -> tuple[int, int]:
    return (v.p, v.q)


def _first_vertex_key(step) -> tuple[int, int]:
    return _sort_key(step[0][0])


class FareyTriangle(_Frozen):
    """Three pairwise adjacent slopes plus the side label of its fan."""

    __slots__ = ("vertices", "label")

    def __init__(
        self, vertices: tuple[ExtendedRational, ExtendedRational, ExtendedRational], label: str
    ):
        _set(self, "vertices", vertices)
        _set(self, "label", label)
        vs = vertices
        if len(vs) != 3 or len(set(vs)) != 3:
            raise DomainError("triangle needs three distinct vertices")
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(det(vs[i], vs[j])) != 1:
                    raise DomainError(f"not a Farey triangle: {vs[i]}, {vs[j]}")
        if label not in ("L", "R"):
            raise DomainError(f"label must be L or R, got {label!r}")

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.vertices) + "}:" + self.label


class FareyPath(_Frozen):
    """A simplicial path: consecutive vertices adjacent, no repeats."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[ExtendedRational, ...]):
        _set(self, "vertices", vertices)
        vs = vertices
        if not vs:
            raise DomainError("path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise DomainError("path repeats a vertex")
        for u, v in zip(vs, vs[1:]):
            if not is_adjacent(u, v):
                raise DomainError(f"not an edge: {u} -- {v}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertices,) == (other.vertices,)
        return NotImplemented

    def __hash__(self):
        return hash((self.vertices,))

    @property
    def length(self) -> int:
        """Edge count."""
        return len(self.vertices) - 1

    def __iter__(self):
        return iter(self.vertices)

    def __str__(self) -> str:
        return " -> ".join(str(v) for v in self.vertices)


class Ladder(_Frozen):
    """Ordered triangle strip between two non-adjacent slopes.

    runs are the L/R run lengths (the type); pivots are the fan centers,
    one per run, in strip order; rims are the fans' outer chains, run k's
    from x (k = 0) or the previous pivot through run length + 1 vertices.
    Triangle i and triangle i+1 always share an edge; triangles further
    apart share at most one vertex.
    """

    __slots__ = ("x", "y", "triangles", "runs", "pivots", "rims")

    def __init__(
        self,
        x: ExtendedRational,
        y: ExtendedRational,
        triangles: tuple[FareyTriangle, ...],
        runs: tuple[int, ...],
        pivots: tuple[ExtendedRational, ...],
        rims: tuple[tuple[ExtendedRational, ...], ...],
    ):
        for name, value in zip(self.__slots__, (x, y, triangles, runs, pivots, rims)):
            _set(self, name, value)
        if len(pivots) != len(runs):
            raise DomainError("one pivot per run required")
        if sum(runs) != len(triangles):
            raise DomainError("run lengths must sum to the triangle count")
        if len(rims) != len(runs) or any(len(rim) != a + 1 for rim, a in zip(rims, runs)):
            raise DomainError("one rim of run length + 1 vertices per run required")

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


class GeodesicSet(_Frozen):
    """Every shortest path between two slopes, in deterministic order."""

    __slots__ = ("source", "target", "length", "paths")

    def __init__(
        self,
        source: ExtendedRational,
        target: ExtendedRational,
        length: int,
        paths: tuple[FareyPath, ...],
    ):
        for name, value in zip(self.__slots__, (source, target, length, paths)):
            _set(self, name, value)
        if not paths:
            raise DomainError("a geodesic set is never empty")
        for p in paths:
            if p.vertices[0] != source or p.vertices[-1] != target:
                raise DomainError("path endpoints disagree with the set")
            if p.length != length:
                raise DomainError("path length disagrees with the set")
        if len(set(paths)) != len(paths):
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

    m, entries, conv = _frame(x, y)
    # m(y) = 0/1 would mean adjacency, excluded above; so entries is not empty.
    n_vertices = sum(entries) + 2
    if n_vertices > cap:
        raise LadderTooLarge(
            f"ladder needs {_int_text(n_vertices)} vertices, cap is {cap}"
        )

    # The convergents are mapped back once, into cv, which the fans share;
    # each interior mediant lies on one fan only and is mapped there.  Fan i
    # pivots around c_{i-1}, and its rim walks c_{i-2} + j*c_{i-1} up to c_i.
    inv = m.inverse()
    cv = [x, *[_map_coprime(inv, p, q) for p, q in conv[1:-1]], y]
    triangles: list[FareyTriangle] = []
    rims: list[tuple[ExtendedRational, ...]] = []
    for i, a in enumerate(entries):
        label, pivot = "R" if i % 2 else "L", cv[i + 1]
        (p0, q0), (p1, q1) = conv[i], conv[i + 1]
        mediants = [_map_coprime(inv, p0 + j * p1, q0 + j * q1) for j in range(1, a)]
        rim = (cv[i], *mediants, cv[i + 2])
        for u, v in zip(rim, rim[1:]):  # _trusted inlined, as it runs once a triangle
            t = object.__new__(FareyTriangle)
            _set(t, "vertices", tuple(sorted((pivot, u, v), key=_sort_key)))
            _set(t, "label", label)
            triangles.append(t)
        rims.append(rim)
    return _trusted(Ladder, x, y, tuple(triangles), entries, tuple(cv[1:-1]), tuple(rims))


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
    return _trusted(FareyPath, (l.x,) + l.pivots + (l.y,))


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


def _frame(x: ExtendedRational, y: ExtendedRational):
    """(m, entries, conv) for distinct x, y: m normalizes the pair, entries
    expand m(y), and conv holds the convergents c_{-1} = 1/0, c_0 = 0/1,
    ..., c_n = m(y) as integer pairs."""
    m, image = normalize_pair(x, y)
    entries = cf_expand(image).entries
    conv = [(1, 0), (0, 1)]
    for a in entries:
        (p0, q0), (p1, q1) = conv[-2], conv[-1]
        conv.append((a * p1 + p0, a * q1 + q0))
    return m, entries, conv


def _ladder_box(x: ExtendedRational, y: ExtendedRational) -> int:
    """max(|p|, q) over the vertices of the ladder between x and y, and over
    x alone when x = y; no ladder is built.

    The ladder's vertices are c_{k-2} + j*c_{k-1}, 0 <= j <= a_k, mapped back
    linearly, so their |p| and q are convex in j and peak at a convergent:
    the box of x and the mapped-back convergents 0/1, c_1, ..., c_n holds
    the ladder, and so every geodesic.
    """
    bound = max(abs(x.p), x.q)
    if x == y:
        return bound
    m, _, conv = _frame(x, y)
    inv = m.inverse()
    for p, q in conv[1:]:
        bound = max(bound, abs(inv.a * p + inv.b * q), abs(inv.c * p + inv.d * q))
    return bound


def _skeleton(x: ExtendedRational, y: ExtendedRational):
    """(m, entries, conv, dist, count) for distinct x, y: _frame's m, entries
    and conv, and dist[i], count[i], the distance from 1/0 to conv[i] and
    the number of geodesics realizing it.  A skip past a_k = 2 through the
    pivot is the two steps already counted, so only the mediant route adds
    to it.
    """
    m, entries, conv = _frame(x, y)
    dist = [0, 1]
    count = [1, 1]
    for i, a in enumerate(entries, start=2):
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
    built.  The paths are listed in sorted order as they are built, and
    they share their vertex objects; time and memory are linear in the
    output.  x = y yields the single empty path (one vertex, zero edges).
    """
    cap_value = _resolve_cap(cap, GEO_CAP_ENV, DEFAULT_GEO_CAP)
    if x == y:
        return _trusted(GeodesicSet, x, y, 0, (_trusted(FareyPath, (x,)),))
    m, entries, conv, dist, count = _skeleton(x, y)
    if count[-1] > cap_value:
        raise EnumerationOverflow(
            f"{_int_text(count[-1])} geodesics for {x} -> {y}, cap is {_int_text(cap_value)}"
        )
    # One backward pass lists the steps out of each skeleton node that lie
    # on a geodesic, as (vertices the step adds, node it reaches), sorted by
    # the first vertex each adds.  A node is on a geodesic when it has such
    # a step, and only those nodes and their mediants are mapped back, once.
    inv = m.inverse()
    t = len(conv) - 1
    steps: list[list] = [[] for _ in conv]
    for j in range(t, 0, -1):
        if j == t:
            v = y
        elif steps[j]:
            steps[j].sort(key=_first_vertex_key)
            v = _map_coprime(inv, *conv[j])
        else:
            continue
        if dist[j - 1] + 1 == dist[j]:
            steps[j - 1].append(((v,), j))
        a = entries[j - 2] if j >= 2 else 0
        if a == 1 and dist[j - 2] + 1 == dist[j]:
            steps[j - 2].append(((v,), j))
        elif a == 2 and dist[j - 2] + 2 == dist[j]:
            (p0, q0), (p1, q1) = conv[j - 2], conv[j - 1]
            steps[j - 2].append(((_map_coprime(inv, p0 + p1, q0 + q1), v), j))
    steps[0].sort(key=_first_vertex_key)

    # Walk forward from x, one prefix in place: the steps out of a node add
    # distinct vertices, so taking them in order lists the paths sorted.  A
    # forced run is followed without branching, and each path is copied
    # once, when it reaches the target.  A node has at most two steps, to
    # the next node and the one after.
    paths = []
    prefix = [x]
    todo = [((), 0)]  # steps still to take
    kept = [1]  # the length of the prefix each of them extends
    while todo:
        head, i = todo.pop()
        del prefix[kept.pop():]
        prefix += head
        while len(steps[i]) == 1:
            (head, i), = steps[i]
            prefix += head
        if i == t:  # _trusted(FareyPath, ...) inlined, as it runs once a path
            path = object.__new__(FareyPath)
            _set(path, "vertices", tuple(prefix))
            paths.append(path)
        else:
            first, second = steps[i]
            todo += second, first
            kept += len(prefix), len(prefix)
    return _trusted(GeodesicSet, x, y, dist[-1], tuple(paths))


def is_unique_geodesic(x: ExtendedRational, y: ExtendedRational) -> bool:
    """Whether exactly one geodesic joins x and y.

    Reads the geodesic count off the convergent skeleton; nothing is
    enumerated, so no cap applies.
    """
    return _length_and_count(x, y)[1] == 1
