"""The Farey graph: ladders of triangles, spines, distances, geodesics.

Vertices are canonical slopes, edges are pairs with |det| = 1.  A pair is
normalized so the source is 1/0 and the target is p/q in [0, 1), and p/q
is expanded as [a1, ..., an] with convergents c_{-1} = 1/0, c_0 = 0/1,
..., c_n = p/q: every answer is read off this skeleton.  The normal form
(rationals._normal_form) is ints only: the inverse map's four entries,
which map a skeleton point back, and p and q.  Geodesics run along the
skeleton: c_{k-1} to c_k is an edge,
c_{k-2} to c_k is an edge when a_k = 1 and two edges through the mediant
c_{k-2} + c_{k-1} when a_k = 2, and a recurrence over them gives the
distance and the geodesic count in O(n) steps.  The --oracle box
(_ladder_box) is read off the images of the convergents, and stops once it
passes the budget.

all_geodesics makes two walks over the expansion.  The forward walk reads
the entries off Euclid one at a time and keeps them with each node's
distance, and the count; the cap is checked against the count before any
convergent is made.  The backward walk starts from c_n = p/q and c_{n-1},
whose denominator one pass over the entries runs up and whose numerator
the determinant of the two gives, maps those two back, and runs the
images down, c_{k-2} = c_k - a_k c_{k-1}, keeping only the last two: the
inverse map is linear, so the recurrence holds for the images too, and a
vertex on a geodesic only has its sign fixed, without a gcd.  It lists
the steps out of each node that lie on a geodesic, and each node's
suffix count N(v), the number of geodesics from it to the target.  A
vertex is held as the int pair (p, q) of its slope, one tuple a vertex,
which the steps that add it share; the walk calls no helper per node and
makes no slope.  The set keeps those steps and counts.  Its paths are
listed from them in sorted order, in time linear in the output, only when
they are first read: then one ExtendedRational is made per distinct pair,
the set's own source and target at the ends (GeodesicSet.paths).

The rows are walked depth first (_follow).  A set of _BLOCK_GATE or more
paths first lists the suffix rows of the nodes next to the target, taken
back from the target while they hold at most _BLOCK_REFS refs together:
node v's hold N(v) L(v), where L(v) is its distance to the target.  The
walk stops at those nodes and emits prefix + suffix for each of their
rows, a copy in C, so a branchy set costs about what copying its rows
does.  The budget is a constant, so the listing costs at most that much
whatever the set.  It is 256 refs: on sets of 34 to 2,584 paths, a
smaller budget left more of the walk, and a larger one cost the smaller
sets more than it saved.  Above those nodes, a forced run (nodes of one
step each) that a branch enters is listed the first time the walk
crosses it, and later paths cross it in one list concatenation (_run):
so a long forced run costs its length once a set, not once a path, and a
set with no such run lists nothing.  The gate is a constant too: under
about 20 paths the listing costs more than it saves, so a smaller set
walks every path to the target and looks nothing up on the way.

Vertex texts are made in the backward walk too, from the ints of each
pair, once a vertex, and the steps keep them beside the pairs.  Output
walks the rows straight off the texts (GeodesicSet._rows), one new list
per path sharing the strings, and builds no path and no slope.  Vertices
past _NAMED_BITS, where str costs time quadratic in the digits, are not
named in the walk: the first output names each distinct pair once and the
set keeps the texts in its walk, so nothing is formatted for a set that
is never output, and nothing twice.  A set built by the public
constructor, as the JSON reader and the oracle build theirs, has no
steps: its rows are made from its paths, a str per vertex, as no two of
its paths share a vertex object.

Ladders lay down n fans of triangles, fan i with a_i triangles around its
pivot c_{i-1}; its rim walks the intermediate mediants from the previous
pivot to the next, so the L/R run lengths are (a1, ..., an), first run L.
No vertex is mapped back: the map back is linear, so the images of the
convergents keep their recurrence and are run up from its two columns
(rationals._convergent_pairs); a pivot is an image with its sign fixed
(rationals._signed_slope), and a rim adds its pivot's image, no product.
A ladder keeps only its fans (pivots and rims); its triangles are derived
from them when they are first read, which only the SVG drawing and
edges() do.  Every geodesic lies in the ladder; distance builds one
only for its cap, and so builds no triangle.

The values built here are built unchecked, each by one builder: every
value by rationals._trusted, but a slope by rationals._slope (or
_signed_slope, which fixes the sign of a mapped pair first) and a walked
path by _path, as those are built once a vertex or once a path.  A walk
memoizes by int pair in one dict type, _Memo: slopes for paths, texts
for a deferred naming.  The rationals they are built from are read with
the unchecked cores (_det, _is_adjacent, _normal_form, _quotients) behind
the public names.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable
from itertools import chain, starmap

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
    _check_ints,
    _check_type,
    _checked_entries,
    _convergent_pairs,
    _det,
    _Frozen,
    _int_text,
    _is_adjacent,
    _normal_form,
    _parse_int,
    _quotients,
    _set,
    _signed_slope,
    _slope,
    _slope_text,
    _trusted,
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
# all_geodesics names vertices as it walks while they have at most this many
# bits, where str of p and q costs about 1 us each, like mapping them back.
_NAMED_BITS = 512
# _follow lists the suffix rows next to the target, up to _BLOCK_REFS refs
# together, for sets of at least _BLOCK_GATE paths.
_BLOCK_REFS = 256
_BLOCK_GATE = 20


def _resolve_cap(explicit: int | None, env_name: str, default: int) -> int:
    if explicit is not None:
        _check_ints("cap", explicit)
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


class FareyTriangle(_Frozen):
    """Three pairwise adjacent slopes plus the side label of its fan."""

    __slots__ = ("vertices", "label")

    def __init__(
        self, vertices: tuple[ExtendedRational, ExtendedRational, ExtendedRational], label: str
    ):
        _set(self, "vertices", vertices)
        _set(self, "label", label)
        _check_type("vertices", tuple, vertices)
        _check_type("each vertex", ExtendedRational, *vertices)
        vs = vertices
        if len(vs) != 3 or len(set(vs)) != 3:
            raise DomainError("triangle needs three distinct vertices")
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(_det(vs[i], vs[j])) != 1:
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
        _check_type("vertices", tuple, vertices)
        _check_type("each vertex", ExtendedRational, *vertices)
        vs = vertices
        if not vs:
            raise DomainError("path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise DomainError("path repeats a vertex")
        for u, v in zip(vs, vs[1:]):
            if not _is_adjacent(u, v):
                raise DomainError(f"not an edge: {u} -- {v}")

    @property
    def length(self) -> int:
        """Edge count."""
        return len(self.vertices) - 1

    def __iter__(self):
        return iter(self.vertices)

    def __str__(self) -> str:
        return " -> ".join(str(v) for v in self.vertices)


class Ladder(_Frozen):
    """Ordered triangle strip between two non-adjacent slopes, kept as fans.

    runs are the L/R run lengths (the type); pivots are the fan centers,
    one per run, in strip order; rims are the fans' outer chains, run k's
    from x (k = 0) or the previous pivot to the next pivot, or to y for the
    last run, through run length + 1 vertices.  The triangles are derived
    from the fans: fan k's are (pivot, rim[j], rim[j+1]), labelled L for
    even k and R for odd k, built on first read and kept in _triangles.
    Triangle i and triangle i+1 always share an edge; triangles further
    apart share at most one vertex.
    """

    __slots__ = ("x", "y", "runs", "pivots", "rims", "_triangles")

    def __init__(
        self,
        x: ExtendedRational,
        y: ExtendedRational,
        runs: tuple[int, ...],
        pivots: tuple[ExtendedRational, ...],
        rims: tuple[tuple[ExtendedRational, ...], ...],
    ):
        for name, value in zip(self.__slots__, (x, y, runs, pivots, rims, None)):
            _set(self, name, value)
        _check_type("runs", tuple, runs)
        _check_type("pivots", tuple, pivots)
        _check_type("rims", tuple, rims)
        _check_type("each rim", tuple, *rims)
        _check_type("each vertex", ExtendedRational, x, y, *pivots, *chain.from_iterable(rims))
        _checked_entries(runs)
        if len(pivots) != len(runs):
            raise DomainError("one pivot per run required")
        if len(rims) != len(runs) or any(len(rim) != a + 1 for rim, a in zip(rims, runs)):
            raise DomainError("one rim of run length + 1 vertices per run required")
        starts, ends = (x, *pivots[:-1]), (*pivots[1:], y)
        for pivot, rim, start, end in zip(pivots, rims, starts, ends):
            if rim[0] != start or rim[-1] != end:
                raise DomainError(f"the rim around {pivot} must run from {start} to {end}")
            if len(set(rim)) != len(rim):
                raise DomainError(f"the rim around {pivot} repeats a vertex")
            for u in rim:
                if not _is_adjacent(pivot, u):
                    raise DomainError(f"rim vertex {u} is not adjacent to its pivot {pivot}")
            for u, v in zip(rim, rim[1:]):
                if not _is_adjacent(u, v):
                    raise DomainError(f"rim vertices {u} and {v} are not adjacent")

    @property
    def triangles(self) -> tuple[FareyTriangle, ...]:
        """Fan by fan, (pivot, rim[j], rim[j+1]) with sorted vertices."""
        if self._triangles is None:
            triangles = []
            for k, (pivot, rim) in enumerate(zip(self.pivots, self.rims)):
                label = "R" if k % 2 else "L"
                for u, v in zip(rim, rim[1:]):
                    vertices = tuple(sorted((pivot, u, v), key=_sort_key))
                    triangles.append(_trusted(FareyTriangle, vertices, label))
            _set(self, "_triangles", tuple(triangles))
        return self._triangles

    @property
    def triangle_count(self) -> int:
        return sum(self.runs)

    def vertices(self) -> tuple[ExtendedRational, ...]:
        """All distinct vertices in the order the triangles first list them,
        read off the fans: a fan's first triangle lists its pivot and first
        two rim vertices, sorted, and each later one adds the next rim
        vertex."""
        seen: dict[ExtendedRational, None] = {}
        for pivot, rim in zip(self.pivots, self.rims):
            for v in (*sorted((pivot, rim[0], rim[1]), key=_sort_key), *rim[2:]):
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
    """Every shortest path between two slopes, in deterministic order.

    A set that all_geodesics walked keeps its walk, (root, steps, t,
    count, counts), in _walk: steps[i] lists the steps out of skeleton
    node i that lie on a geodesic, as (vertices the step adds, their texts,
    node it reaches), each vertex an int pair (p, q) shared by the steps
    that add it; root is the step into node 0 that adds the source; t is
    the target's node and count the number of paths; counts[i] is node i's
    suffix count, its number of geodesics to the target, 0 off them.  The
    texts are empty past _NAMED_BITS until the first _rows() call makes
    them, once a vertex, and keeps them in _walk.  The walk holds no
    slope: paths, on first read, makes one per distinct pair (a _Memo of
    _slope), with the set's own source and target at the ends, and keeps
    the paths in _paths.  For one path it makes a slope of each pair on
    the path's row; under _BLOCK_GATE paths it maps each row of pairs;
    from there on it maps the steps and walks those, so that the rows copy
    the slopes in C.  _rows() walks the texts afresh on each call, so output builds no
    path and no slope.  Both walks read whole suffix blocks next to the
    target, and cross each forced run above them once a set, once the set
    has _BLOCK_GATE paths (_follow).  A set built from its paths has them
    in _paths and _walk None.  A walked set's count and uniqueness are
    read off its walk; len() refuses a count past sys.maxsize, which it
    cannot return, and repr names a count past DEFAULT_GEO_CAP instead of
    the paths.

    == and hash read the pair and the length; a walked set holds every
    geodesic of its pair, so two walked sets are equal on those alone,
    listed or not, and any other two compare their paths too.  A walked
    set pickles and copies as its pair, walked again under a cap of its
    count, so none of these walks its paths.
    """

    __slots__ = ("source", "target", "length", "_paths", "_walk")
    _fields = ("source", "target", "length", "paths")
    _compared = ("source", "target", "length")

    def __init__(
        self,
        source: ExtendedRational,
        target: ExtendedRational,
        length: int,
        paths: tuple[FareyPath, ...],
    ):
        for name, value in zip(self.__slots__, (source, target, length, paths, None)):
            _set(self, name, value)
        _check_ints("length", length)
        _check_type("paths", tuple, paths)
        _check_type("each path", FareyPath, *paths)
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
    def paths(self) -> tuple[FareyPath, ...]:
        """Walked on first read: one slope per distinct vertex, the set's
        own source and target at the ends, shared by the paths."""
        if self._paths is None:
            walk, x, y = self._walk, self.source, self.target
            if walk[3] == 1:  # one path: no vertex repeats
                row = _follow(walk, 0)[0]
                paths = [_path((x, *starmap(_slope, row[1:-1]), y))]
            else:
                get = _Memo(_slope, {(x.p, x.q): x, (y.p, y.q): y}).__getitem__
                if walk[3] < _BLOCK_GATE:  # few rows: each is mapped
                    paths = [_path(map(get, row)) for row in _follow(walk, 0)]
                else:  # many rows: the steps are mapped, then walked
                    paths = [*map(_path, _follow(_mapped(walk, get), 1))]
            _set(self, "_paths", tuple(paths))
        return self._paths

    def _rows(self) -> list[list[str]]:
        """Each path's vertices as text, in a new list per path, walked off
        the steps' texts.  A set walked past _NAMED_BITS names its vertices
        on the first call, each distinct one once, and keeps the texts in
        its walk; a set built from its paths makes its rows from them, a
        str per vertex."""
        walk = self._walk
        if walk is None:
            return [[str(v) for v in p.vertices] for p in self.paths]
        if not walk[0][1]:
            walk = _mapped(walk, _Memo(_slope_text).__getitem__)
            _set(self, "_walk", walk)
        return _follow(walk, 1)

    @property
    def unique(self) -> bool:
        return self._count() == 1

    def _count(self) -> int:
        return len(self._paths) if self._paths is not None else self._walk[3]

    def __len__(self) -> int:
        count = self._count()
        if count > sys.maxsize:
            raise EnumerationOverflow(
                f"{_int_text(count)} geodesics for {self.source} -> {self.target}, "
                f"more than len() can return"
            )
        return count

    def __iter__(self):
        return iter(self.paths)

    def __eq__(self, other):
        """Equal pairs and lengths, then equal paths.  Two walked sets each
        hold every geodesic of their pair, so their paths are equal unread."""
        if other.__class__ is not GeodesicSet:
            return NotImplemented
        if self._key(self) != other._key(other):
            return False
        return (self._walk is not None and other._walk is not None) or self.paths == other.paths

    __hash__ = _Frozen.__hash__

    def __reduce__(self):
        """A walked set pickles and copies as its pair, walked again under
        a cap of its own count; a set built from its paths as its fields."""
        if self._walk is None:
            return super().__reduce__()
        return _rewalk, (self.source, self.target, self._walk[3])

    def __repr__(self) -> str:
        """The fields, as for any value; past DEFAULT_GEO_CAP paths, the
        count in place of the paths, so that no repr walks a set which the
        default cap would refuse."""
        count = self._count()
        if count <= DEFAULT_GEO_CAP:
            return super().__repr__()
        return (
            f"GeodesicSet(source={self.source!r}, target={self.target!r}, "
            f"length={self.length!r}, paths=<{_int_text(count)} paths>)"
        )


class _Memo(dict):
    """Maps an int pair (p, q) to make(p, q), made on its first lookup."""

    __slots__ = ("make",)

    def __init__(self, make, known=()):
        super().__init__(known)
        self.make = make

    def __missing__(self, pair):
        made = self[pair] = self.make(*pair)
        return made


def _mapped(walk, get):
    """walk with item 1 of each step, its texts, replaced by get of each
    vertex the step adds: a walk whose rows, _follow(..., 1), hold those."""
    root, steps, t, count, counts = walk
    return (
        (root[0], tuple(map(get, root[0])), root[2]),
        [[(vs, tuple(map(get, vs)), j) for vs, _, j in node] for node in steps],
        t,
        count,
        counts,
    )


def _follow(walk, k: int) -> list[list]:
    """Each geodesic of walk as a new list, in sorted order, of item k of
    each step the path takes: 0 its vertices, the int pairs, or 1 their
    texts.  GeodesicSet.paths maps the pair rows to slopes.

    One prefix is kept in place and walked depth first.  The steps out of
    a node add distinct vertices, so taking them in order lists the paths
    sorted.  A node has at most two steps, to the next node and the one
    after: a forced run is followed without branching, and a branch takes
    its first step at once and pushes only its second.  A set of
    _BLOCK_GATE or more paths first lists the suffix rows of the nodes
    next to the target (_blocks); the walk stops at those nodes and emits
    prefix + suffix for each of their rows, one C-level concatenation a
    path.  Such a set also lists each forced run that a branch enters the
    first time the walk crosses it (_run), so later paths cross it in one
    concatenation too.  A smaller set walks every path to the target and
    copies its prefix there, looking nothing up on the way.  Either way
    each row is a new list that shares the steps' objects.  Both constants
    are measured (see the module docstring): the budget bounds the
    listing, so the walk stays linear in the output, and under the gate
    the listing costs more than it saves.
    """
    root, steps, t, count, counts = walk
    nodes, blocks, runs = steps, None, None
    if count >= _BLOCK_GATE:
        nodes, blocks = _blocks(steps, counts, t, k)
        runs = {}
    out = []
    prefix = [*root[k]]
    i = root[2]
    todo = []  # the second step of each branch taken, with the prefix length it extends
    while True:
        node = nodes[i]
        while len(node) == 1:
            step = node[0]
            prefix += step[k]
            i = step[2]
            node = nodes[i]
        if node:
            step, second = node
            todo.append((second, len(prefix)))
        else:
            if i == t:
                out.append(prefix[:])
            else:
                out += map(prefix.__add__, blocks[i])
            if not todo:
                return out
            step, kept = todo.pop()
            del prefix[kept:]
        # a step out of a branch: the forced run it enters is listed once
        prefix += step[k]
        i = step[2]
        if runs is not None and len(nodes[i]) == 1:
            if i not in runs:
                _run(nodes, i, k, runs)
            run, offset, i = runs[i]
            prefix += run[offset:]


def _run(nodes: list, i: int, k: int, runs: dict) -> None:
    """List the forced run from node i, nodes of one step each, in runs:
    the items k of its steps in one list, to the node where it ends, a
    branch, a blocked node or the target.  Each node crossed maps to
    (list, offset of its items, end), so a step that enters the run
    further on takes the list from there, and a run that joins one listed
    before takes that one's rest: each step is read once a set.
    """
    run, crossed = [], []
    while len(nodes[i]) == 1 and i not in runs:
        crossed.append((i, len(run)))
        step = nodes[i][0]
        run += step[k]
        i = step[2]
    if i in runs:
        rest, offset, i = runs[i]
        run += rest[offset:]
    for node, offset in crossed:
        runs[node] = run, offset, i


def _blocks(steps: list, counts: list[int], t: int, k: int) -> tuple[list, dict]:
    """The suffix rows, item k of each step from a node to the target, of
    the nodes next to the target, and the steps with those nodes cut off.

    The nodes are taken from the target back, in index order, while the
    rows listed so far hold at most _BLOCK_REFS refs together: node v's
    rows hold N(v) L(v), its suffix count times its distance to the
    target, and are its steps' items laid before the rows of the nodes
    they reach.  So the memo costs at most _BLOCK_REFS refs whatever the
    set, and a long forced run next to the target, such as [3]*k, is
    listed only that far; the walk lists the rest of it once (_run).  Steps
    reach the next node or the one after, so every node past the first one
    left out is listed; in the steps returned, those nodes have no steps,
    and the walk stops there.
    """
    blocks = {t: [[]]}
    held = 0
    j = t - 1
    while j >= 0:
        out = steps[j]
        if out:
            first = out[0]
            held += counts[j] * (len(first[0]) + len(blocks[first[2]][0]))
            if held > _BLOCK_REFS:
                break
            blocks[j] = [[*step[k], *row] for step in out for row in blocks[step[2]]]
        j -= 1
    return steps[: j + 1] + [()] * (t - j), blocks


def _path(vertices: Iterable[ExtendedRational]) -> FareyPath:
    """A walked path, built unchecked; not through _trusted, whose call and
    loop over the slots cost about as much again (0.65 against 0.30 us a
    path on CPython 3.11), once a path."""
    path = object.__new__(FareyPath)
    _set(path, "vertices", tuple(vertices))
    return path


def ladder(
    x: ExtendedRational,
    y: ExtendedRational,
    *,
    vertex_cap: int | None = None,
) -> Ladder:
    """The triangle strip between non-adjacent x and y.

    Raises DomainError for a bad vertex cap, then EmptyLadder for x = y,
    DegenerateLadder for adjacent endpoints, LadderTooLarge when the strip
    would exceed the vertex cap (FAREY_LADDER_CAP, default 10**6 vertices).
    """
    _check_type("each slope", ExtendedRational, x, y)
    return _ladder(x, y, vertex_cap)


def _ladder(x: ExtendedRational, y: ExtendedRational, vertex_cap: int | None) -> Ladder:
    """ladder, for slopes the library holds."""
    cap = _resolve_cap(vertex_cap, LADDER_CAP_ENV, DEFAULT_LADDER_CAP)
    if x == y:
        raise EmptyLadder(f"no ladder between equal slopes {x}")
    if _is_adjacent(x, y):
        raise DegenerateLadder(f"{x} and {y} are adjacent; the ladder is empty")

    a, b, c, d, p, q = _normal_form(x, y)
    # p/q = 0/1 would mean adjacency, excluded above; so entries is not empty.
    entries = tuple(_quotients(p, q))
    n_vertices = sum(entries) + 2
    if n_vertices > cap:
        raise LadderTooLarge(
            f"ladder needs {_int_text(n_vertices)} vertices, cap is {_int_text(cap)}"
        )

    # Fan i pivots around c_{i-1}, and its rim walks c_{i-2} + j*c_{i-1} up
    # to c_i.  The map back is linear, so the images of the skeleton, ws, keep
    # the convergents' recurrence from its columns, the images of 1/0 and
    # 0/1: no vertex is mapped back and no fan takes a product.  The pivots
    # are images with their signs fixed, and each rim adds its pivot's image:
    # a unimodular image of a coprime pair is coprime, so no gcd is taken.
    ws = [*_convergent_pairs(entries, a, b, c, d)]
    cv = [x, *starmap(_signed_slope, ws[1:-1]), y]
    rims = []
    for i, e in enumerate(entries):
        rim = [cv[i]]
        if e > 1:
            (r, s), (dr, ds) = ws[i], ws[i + 1]
            for _ in range(1, e):
                r += dr
                s += ds
                rim.append(_signed_slope(r, s))
        rim.append(cv[i + 2])
        rims.append(tuple(rim))
    return _trusted(Ladder, x, y, entries, tuple(cv[1:-1]), tuple(rims))


def ladder_type(l: Ladder) -> tuple[int, ...]:
    """Run lengths of the L/R labels, first run labelled L."""
    _check_type("the ladder", Ladder, l)
    return l.runs


def spine(l: Ladder) -> FareyPath:
    """The path from x to y through every pivot in strip order.

    Defined only for ladders with at least 3 triangles (SpineUndefined
    otherwise; the sole 2-triangle shape is the type-(2) ladder).
    """
    _check_type("the ladder", Ladder, l)
    if l.triangle_count < 3:
        raise SpineUndefined(
            f"spine needs >= 3 triangles, ladder has {l.triangle_count}"
        )
    return _trusted(FareyPath, (l.x,) + l.pivots + (l.y,))


def distance(
    x: ExtendedRational,
    y: ExtendedRational,
    *,
    vertex_cap: int | None = None,
) -> int:
    """Graph distance in the Farey graph.

    The vertex cap is checked first; then 0 and 1 are answered directly,
    else it is read off the runs of the ladder, built only for its cap.
    """
    _check_type("each slope", ExtendedRational, x, y)
    cap = _resolve_cap(vertex_cap, LADDER_CAP_ENV, DEFAULT_LADDER_CAP)
    if x == y:
        return 0
    if _is_adjacent(x, y):
        return 1
    return _geodesic_counts(_ladder(x, y, cap).runs)[0][-1]


def _ladder_box(x: ExtendedRational, y: ExtendedRational, limit: int) -> int:
    """max(|p|, q) over the vertices of the ladder between x and y, and over
    x alone when x = y; or, as soon as the running maximum passes limit,
    that maximum.  No ladder is built, and the expansion is read only as
    far as that.

    The ladder's vertices are c_{k-2} + j*c_{k-1}, 0 <= j <= a_k, mapped back
    linearly, so their |p| and q are convex in j and peak at a convergent:
    the box of the images of the skeleton 1/0, 0/1, c_1, ..., c_n (1/0's
    is x), run up by its own recurrence, holds the ladder, and so every
    geodesic.
    """
    bound = max(abs(x.p), x.q)
    if x == y or bound > limit:
        return bound
    a, b, c, d, p, q = _normal_form(x, y)
    for r, s in _convergent_pairs(_quotients(p, q), a, b, c, d):
        bound = max(bound, abs(r), abs(s))
        if bound > limit:
            break
    return bound


def _geodesic_counts(entries) -> tuple[list[int], int]:
    """The distance from 1/0 to each skeleton node c_{-1} = 1/0, c_0 = 0/1,
    c_1, ..., c_n, and the number of geodesics from 1/0 to c_n, read off
    the entries in one pass, from (0, 1) at c_{-1} and (1, 1) at c_0.  A
    skip past a_k = 2 through the pivot is the two steps already counted,
    so only the mediant route adds to it.
    """
    dist = [0, 1]
    keep = dist.append
    d0, n0, d1, n1 = 0, 1, 1, 1
    for a in entries:
        d, n = d1 + 1, n1
        if a <= 2:
            skip = d0 + a
            if skip < d:
                d, n = skip, n0
            elif skip == d:
                n += n0
        d0, n0, d1, n1 = d1, n1, d, n
        keep(d)
    return dist, n1


def _length_and_count(x: ExtendedRational, y: ExtendedRational) -> tuple[int, int]:
    """Distance from x to y and the number of geodesics realizing it, read
    off the expansion one entry at a time; no convergent is built."""
    if x == y:
        return 0, 1
    dist, count = _geodesic_counts(_quotients(*_normal_form(x, y)[4:]))
    return dist[-1], count


def all_geodesics(
    x: ExtendedRational,
    y: ExtendedRational,
    *,
    cap: int | None = None,
) -> GeodesicSet:
    """Every geodesic from x to y, sorted, capped at FAREY_GEO_CAP (10**5).

    The cap is checked against the geodesic count before any vertex is
    mapped back.  Then one backward pass over the convergent skeleton lists
    the steps that lie on a geodesic, and the set keeps them: its paths are
    walked on first read and its rows on output, in time linear in what is
    read.  x = y yields the single empty path (one vertex, zero edges).
    """
    _check_type("each slope", ExtendedRational, x, y)
    return _all_geodesics(x, y, cap)


def _all_geodesics(x: ExtendedRational, y: ExtendedRational, cap: int | None) -> GeodesicSet:
    """all_geodesics, for slopes the library holds."""
    cap_value = _resolve_cap(cap, GEO_CAP_ENV, DEFAULT_GEO_CAP)
    if x == y:
        return _trusted(GeodesicSet, x, y, 0, (_trusted(FareyPath, (x,)),))
    # The forward walk reads the entries of the image p/q and the distance
    # from 1/0 to each skeleton node conv[j] = c_{j-1}: conv[0] = 1/0,
    # conv[1] = 0/1, ..., conv[t] = p/q.  The count is checked before any
    # convergent is made.
    a, b, c, d, p, q = _normal_form(x, y)
    entries = [*_quotients(p, q)]
    dist, count = _geodesic_counts(entries)
    if count > cap_value:
        raise EnumerationOverflow(
            f"{_int_text(count)} geodesics for {x} -> {y}, cap is {_int_text(cap_value)}"
        )
    # Each vertex on a geodesic is named here, once, from its ints, while
    # that costs about a microsecond.  A vertex has at most one
    # bit more than the inverse map's largest entry and the target's
    # convergent together; past _NAMED_BITS, str grows quadratic in the
    # digits, and the texts are left to the first output (GeodesicSet._rows).
    named = max(map(abs, (a, b, c, d))).bit_length() + q.bit_length() <= _NAMED_BITS

    # The backward walk runs the convergents down from the last two,
    # conv[j-2] = conv[j] - a_{j-1} conv[j-1].  conv[t-1] = h/k is read
    # off p k - h q = (-1)^t, once a pass over the entries has run the
    # denominators up to k: on long expansions that costs a third of what
    # pow(p, -1, q) does.  The walk lists the steps out of each node that
    # lie on a geodesic, as (vertices the step adds, their texts, node it
    # reaches), in the order of the first vertex each adds.  A vertex is
    # the int pair (p, q) of its slope: a node is on a geodesic when it has
    # such a step, and only those nodes and their mediants have their sign
    # fixed and are named, once, and shared by the steps that add them.
    # Each node's suffix count, the number of geodesics from it to the
    # target, is summed in as its steps are listed: a node's count is
    # complete once the two nodes after it are done.
    t = len(dist) - 1
    k0, k1 = 0, 1  # the denominators of conv[0] and conv[1]
    for e in entries:
        k0, k1 = k1, e * k1 + k0
    h = (p * k0 - (-1 if t % 2 else 1)) // q
    # conv[j-1] and conv[j], mapped back as vectors: the map is linear, so
    # the recurrence runs on them as on the convergents
    p0, q0, p1, q1 = a * h + b * k0, c * h + d * k0, a * p + b * q, c * p + d * q
    steps: list[list] = [[] for _ in dist]
    counts = [0] * t + [1]
    for j in range(t, 0, -1):
        e = entries[j - 2] if j >= 2 else 0
        n = counts[j]
        if n:
            # unimodular, so coprime: only the sign is fixed
            r, s = p1, q1
            if s < 0 or (s == 0 and r < 0):
                r, s = -r, -s
            v = (r, s)
            # the texts are _slope_text's, written out: no call per vertex,
            # and under _NAMED_BITS no int passes sys.int_max_str_digits
            vs, said = (v,), (f"{r}/{s}",) if named else ()
            if dist[j - 1] + 1 == dist[j]:
                steps[j - 1].append((vs, said, j))
                counts[j - 1] += n
            if e == 1 and dist[j - 2] + 1 == dist[j]:
                steps[j - 2].append((vs, said, j))
                counts[j - 2] += n
            elif e == 2 and dist[j - 2] + 2 == dist[j]:
                # the mediant conv[j-2] + conv[j-1] is conv[j] - conv[j-1]
                r, s = p1 - p0, q1 - q0
                if s < 0 or (s == 0 and r < 0):
                    r, s = -r, -s
                steps[j - 2].append((((r, s), v), (f"{r}/{s}", *said) if named else (), j))
                counts[j - 2] += n
        # node j-1's steps are all listed now: put them in order, by the
        # first vertex each adds, comparing the pairs
        node = steps[j - 1]
        if len(node) == 2 and node[1][0][0] < node[0][0][0]:
            node.reverse()
        p0, q0, p1, q1 = p1 - e * p0, q1 - e * q0, p0, q0
    root = (((x.p, x.q),), (_slope_text(x.p, x.q),) if named else (), 0)
    return _trusted(GeodesicSet, x, y, dist[-1], None, (root, steps, t, count, counts))


def _rewalk(x: ExtendedRational, y: ExtendedRational, count: int) -> GeodesicSet:
    """A walked set, unpickled or copied: its pair walked again."""
    return all_geodesics(x, y, cap=count)


def is_unique_geodesic(x: ExtendedRational, y: ExtendedRational) -> bool:
    """Whether exactly one geodesic joins x and y.

    Reads the geodesic count off the convergent skeleton; nothing is
    enumerated, so no cap applies.
    """
    _check_type("each slope", ExtendedRational, x, y)
    return _length_and_count(x, y)[1] == 1
