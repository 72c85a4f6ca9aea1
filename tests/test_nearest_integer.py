"""An independent check of Farey distances and geodesics at any size.

The nearest-integer continued fraction of p/q is geodesic in the Farey
graph: the number of its steps is the distance from 1/0 to p/q, and its
convergents are the vertices of one geodesic (Beardon, Hockman and
Short, Geodesic continued fractions, Michigan Math. J. 61, 2012).  It
shares nothing with the library's convergent skeleton, so it checks
_length_and_count, classify_02, distance and the rows of all_geodesics on
pairs far past any breadth-first box: long, wide, huge-entry and moved.
Pairs are moved with this file's own unimodular maps and normalized with
its own pow.
"""

from __future__ import annotations

import math
import random

import fareybridge as fb
from fareybridge import farey


def _nearest_integer_quotients(p: int, q: int):
    """The quotients of the nearest-integer continued fraction of p/q,
    q >= 1, b = round(p/q) each: p/q = b0 + 1/(b1 + 1/(b2 + ...))."""
    while True:
        b = (2 * p + q) // (2 * q)
        yield b
        r = p - b * q
        if r == 0:
            return
        p, q = (q, r) if r > 0 else (-q, -r)


def _nearest_integer_steps(p: int, q: int) -> int:
    """The Farey distance from 1/0 to p/q, q >= 1: the steps of the
    nearest-integer continued fraction."""
    return sum(1 for _ in _nearest_integer_quotients(p, q))


def _canonical(p: int, q: int) -> tuple[int, int]:
    return (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)


def _nearest_integer_path(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """A geodesic from 1/0 to p/q, q >= 1, as int pairs: the convergents
    of the nearest-integer continued fraction, from c_-2 = 0/1 and c_-1 =
    1/0, each b times the last plus the one before, then signed so that
    q >= 0."""
    cs = [(0, 1), (1, 0)]
    for b in _nearest_integer_quotients(p, q):
        (r0, s0), (r1, s1) = cs[-2:]
        cs.append((b * r1 + r0, b * s1 + s0))
    return tuple(_canonical(r, s) for r, s in cs[1:])


def _to_infinity(x: fb.ExtendedRational) -> tuple[int, int, int, int]:
    """This file's own map sending x = a/c to 1/0: rows (u, v) and (-c, a),
    where u a + v c = 1."""
    a, c = x.p, x.q
    if not c:
        return 1, 0, 0, 1
    u = pow(a, -1, c)
    return u, (1 - u * a) // c, -c, a


def _apply(m: tuple[int, int, int, int], p: int, q: int) -> tuple[int, int]:
    a, b, c, d = m
    return _canonical(a * p + b * q, c * p + d * q)


def _independent_distance(x: fb.ExtendedRational, y: fb.ExtendedRational) -> int:
    """The distance from x to y, with x sent to 1/0 by _to_infinity."""
    if x == y:
        return 0
    return _nearest_integer_steps(*_apply(_to_infinity(x), y.p, y.q))


def _independent_geodesic(x: fb.ExtendedRational, y: fb.ExtendedRational) -> tuple:
    """A geodesic from x to y, x != y, as int pairs: the nearest-integer
    path from 1/0 to y's image under _to_infinity, mapped back."""
    m = _to_infinity(x)
    u, v, c, a = m
    back = (a, -v, -c, u)  # m's inverse, as m has determinant 1
    return tuple(_apply(back, *w) for w in _nearest_integer_path(*_apply(m, y.p, y.q)))


def _rows(x: fb.ExtendedRational, y: fb.ExtendedRational) -> set:
    """all_geodesics(x, y)'s paths, as tuples of int pairs."""
    return {tuple((v.p, v.q) for v in path.vertices) for path in fb.all_geodesics(x, y).paths}


def _unimodular(rng: random.Random, digits: int, reverse: bool) -> fb.MobiusMap:
    while True:
        a, c = rng.randrange(1, 10**digits), rng.randrange(1, 10**digits)
        if math.gcd(a, c) == 1:
            break
    d = pow(a, -1, c)
    m = fb.MobiusMap(a, (a * d - 1) // c, c, d)
    return m.compose(fb.MobiusMap(0, 1, 1, 0)) if reverse else m


def _entry_cases(rng: random.Random) -> list[list[int]]:
    huge = 10**5000
    cases = [
        [3] * 30000,  # long
        [rng.randint(1, 4) for _ in range(5000)] + [3],  # long, every entry branching
        [10**6], [10**50], [huge],  # wide
        [huge, 2, huge + 1, 1, 1, 3], [2, 1, 10**300, 2, 2, 1, huge - 1],  # huge entries
        [1] * 3000 + [2],
        [2] * 2000 + [3],
    ]
    cases += [[rng.choice((1, 1, 2, 2, 3, rng.randint(4, 10**rng.randint(1, 40))))
               for _ in range(rng.randint(1, 60))] + [rng.randint(2, 9)] for _ in range(60)]
    return cases


def test_nearest_integer_steps_on_small_slopes():
    # from 1/0 every slope p/q with q < 250 and -q <= p <= 2q, and from 0/1
    # those with q < 40 and |p| <= q
    for q in range(1, 250):
        for p in range(-q, 2 * q + 1):
            if math.gcd(p, q) != 1:
                continue
            y = fb.reduce(p, q)
            assert farey._length_and_count(fb.INFINITY, y)[0] == _nearest_integer_steps(p, q), y
    near = [fb.reduce(p, q) for q in range(1, 40) for p in range(-q, q + 1) if math.gcd(p, q) == 1]
    for y in near:
        assert farey._length_and_count(fb.ZERO, y)[0] == _independent_distance(fb.ZERO, y), y


def test_nearest_integer_steps_agree_far_past_any_box():
    rng = random.Random(26)
    for entries in _entry_cases(rng):
        y = fb.cf_eval(entries)
        want = _nearest_integer_steps(y.p, y.q)
        assert farey._length_and_count(fb.INFINITY, y)[0] == want, entries[:8]
        link = fb.TwoBridgeLink(y.q, y.p)
        assert fb.classify_02(link, include_geodesics=False).distance == want, entries[:8]
        if sum(entries) <= 20000:  # a ladder well under the cap, built in milliseconds
            assert fb.distance(fb.INFINITY, y) == want, entries[:8]
        # moved by maps of up to 48 digits, either way round and reversed;
        # [3]*30000 once, as each move of it costs about 0.3 s
        for digits in (48,) if len(entries) > 10000 else (1, 24, 48):
            m = _unimodular(rng, digits, rng.random() < 0.5)
            x, z = m.apply(fb.INFINITY), m.apply(y)
            if rng.random() < 0.5:
                x, z = z, x
            assert _independent_distance(x, z) == want, (entries[:8], digits)
            assert farey._length_and_count(x, z)[0] == want, (entries[:8], digits)
            if sum(entries) <= 2000:
                assert fb.distance(x, z) == want, (entries[:8], digits)


def test_nearest_integer_steps_on_random_pairs():
    # pairs that are not of the form (m(1/0), m(y)) for a map of this file
    rng = random.Random(2012)
    slopes = [fb.reduce(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) for _ in range(600)]
    for x, y in zip([fb.INFINITY, fb.ZERO] + slopes[::2], [fb.ZERO, fb.INFINITY] + slopes[1::2]):
        want = _independent_distance(x, y)
        assert farey._length_and_count(x, y)[0] == want, (x, y)
        assert farey._length_and_count(y, x)[0] == want == _independent_distance(y, x), (x, y)


def test_nearest_integer_path_is_a_geodesic_row():
    # from 1/0 every slope p/q with q < 120 and -q <= p <= 2q
    for q in range(1, 120):
        for p in range(-q, 2 * q + 1):
            if math.gcd(p, q) == 1:
                y = fb.reduce(p, q)
                assert _nearest_integer_path(p, q) in _rows(fb.INFINITY, y), y
    rng = random.Random(11)
    cases = [[3] * 3000, [4] * 1000 + [2], [rng.randint(1, 4) for _ in range(60)],
             [10**50, 3, 2, 10**20]]
    for entries in cases:
        y = fb.cf_eval(entries)
        assert _nearest_integer_path(y.p, y.q) in _rows(fb.INFINITY, y), entries[:8]
        # moved, either way round, and mapped back with this file's own map
        m = _unimodular(rng, 24, rng.random() < 0.5)
        x, z = m.apply(fb.INFINITY), m.apply(y)
        if rng.random() < 0.5:
            x, z = z, x
        assert _independent_geodesic(x, z) in _rows(x, z), entries[:8]
