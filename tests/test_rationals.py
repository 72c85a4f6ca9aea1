from __future__ import annotations

import math
import random

import pytest

from fareybridge.errors import DomainError
from fareybridge.rationals import (
    INFINITY,
    ZERO,
    ContinuedFraction,
    ExtendedRational,
    MobiusMap,
    cf_eval,
    cf_expand,
    convergents,
    det,
    is_adjacent,
    mediant,
    mobius_apply,
    normalize_pair,
    parse_slope,
    reduce,
    _convergent_pairs,
)


def sl(text: str) -> ExtendedRational:
    return parse_slope(text)


# ---------------------------------------------------------------- canonical form

def test_reduce_normalizes_sign_and_gcd():
    assert reduce(4, 6) == ExtendedRational(2, 3)
    assert reduce(-4, 6) == ExtendedRational(-2, 3)
    assert reduce(4, -6) == ExtendedRational(-2, 3)
    assert reduce(-4, -6) == ExtendedRational(2, 3)
    assert reduce(5, 0) == INFINITY
    assert reduce(-5, 0) == INFINITY
    assert reduce(0, 7) == ZERO


def test_zero_over_zero_rejected():
    with pytest.raises(DomainError):
        reduce(0, 0)


@pytest.mark.parametrize("p,q", [(2, 4), (1, -2), (-3, 0), (0, 0), (0, 3), (2, 2)])
def test_constructor_rejects_noncanonical(p, q):
    with pytest.raises(DomainError):
        ExtendedRational(p, q)


def test_parse_slope_accepts_fractions_and_integers():
    assert sl("19/42") == ExtendedRational(19, 42)
    assert sl("-2/4") == ExtendedRational(-1, 2)
    assert sl("3") == ExtendedRational(3, 1)
    assert sl("-7") == ExtendedRational(-7, 1)
    assert sl(" 1/0 ") == INFINITY
    assert sl("-1/0") == INFINITY


@pytest.mark.parametrize("text", ["", "abc", "1/2/3", "1.5", "2/", "/3"])
def test_parse_slope_rejects_garbage(text):
    with pytest.raises(DomainError):
        parse_slope(text)


def test_ordering_puts_infinity_on_top():
    slopes = [sl(s) for s in ["1/2", "-1/2", "1/0", "0/1", "2/3", "1/3", "1/1", "3/2"]]
    assert [str(v) for v in sorted(slopes)] == [
        "-1/2", "0/1", "1/3", "1/2", "2/3", "1/1", "3/2", "1/0",
    ]


def test_floor():
    assert sl("7/3").floor() == 2
    assert sl("-7/3").floor() == -3
    assert sl("19/42").floor() == 0
    assert sl("-3").floor() == -3
    with pytest.raises(DomainError):
        INFINITY.floor()


# ---------------------------------------------------------------- adjacency

def test_det_and_adjacency():
    assert det(sl("79/182"), INFINITY) == -182
    assert det(INFINITY, sl("79/182")) == 182
    assert is_adjacent(sl("1/2"), sl("1/3"))
    assert is_adjacent(INFINITY, sl("5/1"))
    assert not is_adjacent(INFINITY, sl("1/2"))
    assert not is_adjacent(sl("1/2"), sl("1/2"))  # det 0


def test_mediant():
    assert mediant(sl("1/2"), sl("1/3")) == sl("2/5")
    assert mediant(INFINITY, ZERO) == sl("1/1")


# ---------------------------------------------------------------- continued fractions

def test_cf_expand_known_values():
    assert cf_expand(sl("79/182")).entries == (2, 3, 3, 2, 3)
    assert cf_expand(sl("19/42")).entries == (2, 4, 1, 3)
    assert cf_expand(sl("3/10")).entries == (3, 3)
    assert cf_expand(sl("7/10")).entries == (1, 2, 3)
    assert cf_expand(sl("1/2")).entries == (2,)
    assert cf_expand(ZERO).entries == ()


@pytest.mark.parametrize("text", ["1/0", "1/1", "-1/2", "3/2"])
def test_cf_expand_domain_is_unit_interval(text):
    with pytest.raises(DomainError):
        cf_expand(sl(text))


def test_cf_eval_inverts_expand():
    assert cf_eval(ContinuedFraction((2, 3, 3, 2, 3))) == sl("79/182")
    assert cf_eval((2, 4, 1, 3)) == sl("19/42")
    assert cf_eval(()) == ZERO


def test_cf_eval_accepts_raw_positive_sequences():
    # [1,1] is not canonical but still evaluates (to the same slope as [2])
    assert cf_eval([1, 1]) == sl("1/2")
    assert cf_eval([3, 1]) == sl("1/4")


def test_cf_eval_rejects_nonpositive_entries():
    with pytest.raises(DomainError):
        cf_eval([2, 0, 3])
    with pytest.raises(DomainError):
        cf_eval([-1])


@pytest.mark.parametrize("bad", [2.5, "3", None, True])
@pytest.mark.parametrize("entry_point", [ContinuedFraction, cf_eval, convergents])
def test_entries_must_be_integers(entry_point, bad):
    with pytest.raises(DomainError, match="^entries must be integers, got "):
        entry_point((2, bad, 3))


def test_nonpositive_entry_message():
    for entry_point in (ContinuedFraction, cf_eval, convergents):
        with pytest.raises(DomainError, match=r"^entries must be positive: \[0, 2\]$"):
            entry_point([0, 2])


@pytest.mark.parametrize("entries", [(0,), (1,), (2, 1), (1, 2, 0), (3, 1)])
def test_continued_fraction_type_rejects_noncanonical(entries):
    with pytest.raises(DomainError):
        ContinuedFraction(entries)


def test_convergents_recurrence():
    cs = convergents((2, 3, 3, 2, 3))
    assert [str(c) for c in cs] == ["1/2", "3/7", "10/23", "23/53", "79/182"]
    # neighbouring convergents are Farey-adjacent
    for a, b in zip(cs, cs[1:]):
        assert is_adjacent(a, b)
    assert convergents(()) == ()


def test_convergent_pairs_run_up_the_images_of_a_map():
    # the images of the skeleton c_{-1} = 1/0, c_0 = 0/1, c_1, ... under a
    # linear map keep its recurrence from the map's two columns:
    # (a r + b s, c r + d s) of each unmapped pair, unnormalized
    rng = random.Random(25)
    cases = [[1] * k + [2] for k in (1, 2, 9, 40)]
    cases += [[rng.randint(2, 10**6)] + [1] * rng.randint(1, 30) + [rng.randint(2, 10**6)]
              for _ in range(10)]
    cases += [[rng.choice((1, 1, 2, 3, rng.randint(1, 10**6))) for _ in range(rng.randint(1, 40))]
              for _ in range(30)]
    maps = [(1, 0, 0, 1), (0, 1, 1, 0), (1, -7, 0, 1), (-3, 2, 5, -3)]
    for digits in (1, 6, 24, 36, 48):
        for _ in range(4):
            maps.append(tuple(rng.randint(-(10**digits), 10**digits) for _ in range(4)))
            a = c = 0
            while math.gcd(a, c) != 1:
                a, c = rng.randrange(1, 10**digits), rng.randrange(1, 10**digits)
            d = pow(a, -1, c)
            maps.append((d, -((a * d - 1) // c), -c, a))  # the inverse of a unimodular map
    for entries in cases:
        plain = list(_convergent_pairs(entries))
        assert plain == [(1, 0), (0, 1)] + [(v.p, v.q) for v in convergents(entries)]
        for a, b, c, d in maps:
            want = [(a * r + b * s, c * r + d * s) for r, s in plain]
            got = list(_convergent_pairs(entries, a, b, c, d))
            assert got[:2] == [(a, c), (b, d)] and got == want, (entries, a, b, c, d)


# ---------------------------------------------------------------- mobius maps

def test_mobius_validates_determinant():
    with pytest.raises(DomainError):
        MobiusMap(1, 1, 1, 1)  # det 0
    with pytest.raises(DomainError):
        MobiusMap(2, 0, 0, 1)  # det 2
    MobiusMap(0, 1, 1, 0)  # det -1 is fine


def test_mobius_apply():
    t = MobiusMap.translation(1)
    assert mobius_apply(t, sl("1/2")) == sl("3/2")
    s = MobiusMap(0, 1, 1, 0)  # z -> 1/z
    assert mobius_apply(s, INFINITY) == ZERO
    assert mobius_apply(s, ZERO) == INFINITY
    assert mobius_apply(MobiusMap.identity(), sl("19/42")) == sl("19/42")


def test_mobius_compose_and_inverse():
    m = MobiusMap(2, 1, 1, 1).compose(MobiusMap.translation(-3))
    assert m.compose(m.inverse()) == MobiusMap.identity()
    x = sl("5/7")
    assert mobius_apply(m.inverse(), mobius_apply(m, x)) == x


def test_mobius_preserves_adjacency():
    m = MobiusMap(3, 2, 1, 1)
    x, y = sl("1/2"), sl("1/3")
    assert is_adjacent(mobius_apply(m, x), mobius_apply(m, y))


# ---------------------------------------------------------------- normalization

def test_normalize_pair_sends_x_to_infinity():
    x, y = sl("1/3"), sl("2/5")
    m, image = normalize_pair(x, y)
    assert mobius_apply(m, x) == INFINITY
    assert mobius_apply(m, y) == image
    assert image == ZERO  # adjacent pair lands on 0/1


def test_normalize_pair_fixes_standard_position():
    m, image = normalize_pair(INFINITY, sl("19/42"))
    assert image == sl("19/42")
    assert mobius_apply(m, INFINITY) == INFINITY


def test_normalize_pair_image_in_unit_interval():
    for xs, ys in [("3/7", "15/4"), ("-2/5", "9/2"), ("1/0", "-8/3"), ("22/7", "1/0")]:
        m, image = normalize_pair(sl(xs), sl(ys))
        assert mobius_apply(m, sl(xs)) == INFINITY
        assert not image.is_infinity
        assert ZERO <= image < ExtendedRational(1, 1)


def test_normalize_pair_reversal_reverses_expansion():
    # swapping the endpoints reverses the continued fraction
    _, image = normalize_pair(INFINITY, sl("19/42"))
    _, reversed_image = normalize_pair(sl("19/42"), INFINITY)
    assert cf_expand(image).entries == (2, 4, 1, 3)
    assert cf_expand(reversed_image).entries == (3, 1, 4, 2)


def test_normalize_pair_rejects_equal_slopes():
    with pytest.raises(DomainError):
        normalize_pair(sl("1/2"), sl("1/2"))


def test_parse_slope_and_str_past_the_int_str_digit_limit():
    # Python refuses int <-> str past 4,300 digits by default; slopes of any
    # size still parse and print exactly.
    v = parse_slope("1/" + "9" * 5000)
    assert v == ExtendedRational(1, 10**5000 - 1)
    assert str(v) == "1/" + "9" * 5000
    assert repr(v) == f"ExtendedRational(1, {'9' * 5000})"
    w = cf_eval([3] * 9000)
    assert parse_slope(str(w)) == w
    assert str(cf_expand(reduce(1, 10**5000))) == "[1" + "0" * 5000 + "]"
