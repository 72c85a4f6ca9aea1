"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports fareybridge.  Slopes are (p, q) integer pairs in
canonical form (gcd 1, q >= 0, infinity is (1, 0)).

Distance and geodesic count come from a recurrence over the convergents
c[-1] = 1/0, c[0] = 0/1, c[1], ..., c[n] = y of the normalized target:

- step k-1 -> k costs 1 (consecutive convergents are adjacent);
- skip k-2 -> k costs 1 when a[k] = 1 (then c[k] = c[k-1] + c[k-2]), and 2
  through the mediant c[k-2] + c[k-1] when a[k] = 2; the path through the
  pivot c[k-1] is already counted by the steps.

The distance is the shortest total cost and the count the number of ways
to reach it.  bench/test_reference.py checks both against the brute-force
oracle for every slope up to a small denominator.
"""

from __future__ import annotations

from functools import cache
from math import gcd

INF = (1, 0)


def canonical(p: int, q: int) -> tuple[int, int]:
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a slope")
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def parse(text: str) -> tuple[int, int]:
    p, _, q = text.partition("/")
    return canonical(int(p), int(q) if q else 1)


def fmt(v: tuple[int, int]) -> str:
    return f"{v[0]}/{v[1]}"


def det(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def adjacent(u: tuple[int, int], v: tuple[int, int]) -> bool:
    return abs(det(u, v)) == 1


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        t, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - t * u1
        v0, v1 = v1, v0 - t * v1
    return a, u0, v0


def apply(m: tuple[int, int, int, int], v: tuple[int, int]) -> tuple[int, int]:
    a, b, c, d = m
    return canonical(a * v[0] + b * v[1], c * v[0] + d * v[1])


def random_unimodular(rng, digits: int) -> tuple[int, int, int, int]:
    """A determinant-1 matrix whose first column has about `digits` digits."""
    lo, hi = 10 ** (digits - 1), 10**digits
    while True:
        a, c = rng.randrange(lo, hi), rng.randrange(lo, hi)
        g, u, v = xgcd(a, c)
        if g == 1:
            # [[a, -v], [c, u]] has det a*u + v*c = 1.
            k = rng.randrange(0, 7)
            return (a, -v + k * a, c, u + k * c)


def normalizer(x: tuple[int, int]) -> tuple[int, int, int, int]:
    """A unimodular matrix sending x to 1/0."""
    if x == INF:
        return (1, 0, 0, 1)
    _, u, v = xgcd(x[0], x[1])
    return (u, v, -x[1], x[0])


def normalize(x: tuple[int, int], y: tuple[int, int]):
    """(m, t): m sends x to 1/0 and y to t = (p, q) with 0 <= p/q < 1."""
    m = normalizer(x)
    t = apply(m, y)
    if t[1] == 0:
        raise ValueError("endpoints are equal")
    k = t[0] // t[1]
    a, b, c, d = m
    return (a - k * c, b - k * d, c, d), (t[0] - k * t[1], t[1])


def cf(p: int, q: int) -> list[int]:
    """Canonical continued fraction of p/q in [0, 1)."""
    out = []
    while p:
        a, r = divmod(q, p)
        out.append(a)
        p, q = r, p
    return out


def evaluate(entries) -> tuple[int, int]:
    p, q = 0, 1
    for a in reversed(entries):
        p, q = q, a * q + p
    return (p, q)


def recurrence(entries) -> tuple[int, int]:
    """(distance, geodesic count) from 1/0 to [a1, ..., an], n >= 1."""
    # (dist, count) at c[k-2] and c[k-1]; c[-1] = 1/0, c[0] = 0/1.
    d2, n2, d1, n1 = 0, 1, 1, 1
    for a in entries:
        d, n = d1 + 1, n1
        if a <= 2:
            skip = d2 + a
            if skip < d:
                d, n = skip, n2
            elif skip == d:
                n += n2
        d2, n2, d1, n1 = d1, n1, d, n
    return d1, n1


def distance_count(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Farey distance and number of geodesics between canonical slopes."""
    if x == y:
        return 0, 1
    if adjacent(x, y):
        return 1, 1
    _, t = normalize(x, y)
    return recurrence(cf(*t))


def ladder_vertices(x: tuple[int, int], y: tuple[int, int]) -> set:
    """Every vertex of the triangle strip between non-adjacent x and y."""
    m, t = normalize(x, y)
    a, b, c, d = m
    inv = (d, -b, -c, a)
    out = {x, y}
    cp, cq, dp, dq = 1, 0, 0, 1
    for e in cf(*t):
        out.add(apply(inv, (dp, dq)))
        for j in range(1, e + 1):
            out.add(apply(inv, (cp + j * dp, cq + j * dq)))
        cp, cq, dp, dq = dp, dq, cp + e * dp, cq + e * dq
    return out


def oracle_bound(x: tuple[int, int], y: tuple[int, int]) -> int:
    """The box the CLI's --oracle check searches: it holds the ladder."""
    verts = (x, y) if x == y or adjacent(x, y) else ladder_vertices(x, y)
    return max(1, *(max(abs(p), q) for p, q in verts))


@cache
def box_vertices(n: int) -> int:
    """Number of slopes p/q with |p| <= n and q <= n, 1/0 included."""
    total = 1
    for q in range(1, n + 1):
        total += sum(1 for p in range(-n, n + 1) if gcd(p, q) == 1)
    return total


def check_paths(paths, x, y, length: int, count: int) -> str | None:
    """None when `paths` are exactly `count` distinct geodesics from x to y of
    the given length, each a valid simplicial path, in increasing (p, q)
    order; otherwise a description of the first problem found."""
    if len(paths) != count:
        return f"{len(paths)} paths, reference count {count}"
    prev = None
    for path in paths:
        if len(path) != length + 1:
            return f"path of {len(path) - 1} edges, reference distance {length}"
        if path[0] != x or path[-1] != y:
            return f"path {path[0]} .. {path[-1]} has the wrong endpoints"
        if len(set(path)) != len(path):
            return "path repeats a vertex"
        for u, v in zip(path, path[1:]):
            if not adjacent(u, v):
                return f"{fmt(u)} -- {fmt(v)} is not an edge"
        if prev is not None and not prev < path:
            return "paths are not distinct and sorted"
        prev = path
    return None
