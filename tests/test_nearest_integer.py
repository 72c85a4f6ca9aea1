"""An independent check of Farey distances at any size.

The nearest-integer continued fraction of p/q is geodesic in the Farey
graph: the number of its steps is the distance from 1/0 to p/q (Beardon,
Hockman and Short, Geodesic continued fractions, Michigan Math. J. 61,
2012).  It shares nothing with the library's convergent skeleton, so it
checks _length_and_count, classify_02 and distance on pairs far past any
breadth-first box: long, wide, huge-entry and moved.  Pairs are moved with
this file's own unimodular maps and normalized with its own pow.
"""

from __future__ import annotations

import math
import random

import fareybridge as fb
from fareybridge import farey


def _nearest_integer_steps(p: int, q: int) -> int:
    """The Farey distance from 1/0 to p/q, q >= 1: the steps of the
    nearest-integer continued fraction, b = round(p/q) each."""
    n = 0
    while True:
        b = (2 * p + q) // (2 * q)
        r = p - b * q
        n += 1
        if r == 0:
            return n
        p, q = (q, r) if r > 0 else (-q, -r)


def _independent_distance(x: fb.ExtendedRational, y: fb.ExtendedRational) -> int:
    """The distance from x to y, with x sent to 1/0 by a map of this file's
    own: rows (u, v) and (-c, a) for x = a/c, where u a + v c = 1."""
    if x == y:
        return 0
    a, c = x.p, x.q
    if c:
        u = pow(a, -1, c)
        v = (1 - u * a) // c
        p, q = u * y.p + v * y.q, a * y.q - c * y.p
    else:
        p, q = y.p, y.q
    if q < 0:
        p, q = -p, -q
    return _nearest_integer_steps(p, q)


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
