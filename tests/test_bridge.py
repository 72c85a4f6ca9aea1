from __future__ import annotations

import pytest

from fareybridge.bridge import (
    CompositeLink,
    SplittingReport,
    TwoBridgeLink,
    classify_02,
    classify_03,
    components,
    is_keen_02,
    is_strongly_keen_02,
    make_strongly_keen_example,
    splitting_distance_02,
)
from fareybridge.errors import DomainError
from fareybridge.rationals import INFINITY, cf_eval, parse_slope

sl = parse_slope


# ---------------------------------------------------------------- link model

def test_link_validation():
    TwoBridgeLink(0, 1)
    TwoBridgeLink(1, 0)
    TwoBridgeLink(1, 1)
    TwoBridgeLink(10, 3)
    with pytest.raises(DomainError):
        TwoBridgeLink(0, 2)
    with pytest.raises(DomainError):
        TwoBridgeLink(4, 2)  # not coprime
    with pytest.raises(DomainError):
        TwoBridgeLink(3, 4)  # p > q
    with pytest.raises(DomainError):
        TwoBridgeLink(-3, 1)
    with pytest.raises(DomainError):
        TwoBridgeLink(5, -1)


def test_link_slope_and_names():
    assert TwoBridgeLink(10, 3).slope == sl("3/10")
    assert TwoBridgeLink(0, 1).slope == INFINITY
    assert TwoBridgeLink(1, 0).slope == sl("0/1")
    assert str(TwoBridgeLink(10, 3)) == "S(10,3)"
    assert TwoBridgeLink(1, 0).is_trivial_knot
    assert TwoBridgeLink(0, 1).is_trivial_2component
    assert not TwoBridgeLink(10, 3).is_trivial_knot


def test_components_parity():
    assert components(TwoBridgeLink(0, 1)) == 2
    assert components(TwoBridgeLink(1, 0)) == 1
    assert components(TwoBridgeLink(2, 1)) == 2  # Hopf link
    assert components(TwoBridgeLink(3, 1)) == 1  # trefoil
    assert components(TwoBridgeLink(10, 3)) == 2


# ---------------------------------------------------------------- (0,2)-splittings

def test_splitting_distance_02_values():
    assert splitting_distance_02(TwoBridgeLink(0, 1)) == 0
    assert splitting_distance_02(TwoBridgeLink(1, 0)) == 1
    assert splitting_distance_02(TwoBridgeLink(3, 1)) == 2
    assert splitting_distance_02(TwoBridgeLink(10, 3)) == 3
    assert splitting_distance_02(TwoBridgeLink(42, 19)) == 4
    assert splitting_distance_02(TwoBridgeLink(182, 79)) == 6


def test_keenness_02():
    assert is_keen_02(TwoBridgeLink(2, 1))
    assert is_keen_02(TwoBridgeLink(10, 3))
    assert is_strongly_keen_02(TwoBridgeLink(10, 3))
    assert not is_strongly_keen_02(TwoBridgeLink(2, 1))  # 1/2 has two geodesics
    assert not is_strongly_keen_02(TwoBridgeLink(42, 19))
    assert is_strongly_keen_02(TwoBridgeLink(1, 0))  # distance 1 is unique


def test_classify_02_report():
    rep = classify_02(TwoBridgeLink(10, 3))
    assert rep.subject == "S(10,3)"
    assert rep.splitting == "02"
    assert rep.distance == 3
    assert rep.keen is True
    assert rep.strongly_keen is True
    assert rep.exact is True
    assert rep.note
    assert rep.geodesics is not None
    assert [str(p) for p in rep.geodesics.paths] == ["1/0 -> 0/1 -> 1/3 -> 3/10"]


def test_classify_02_without_geodesics():
    rep = classify_02(TwoBridgeLink(10, 3), include_geodesics=False)
    assert rep.geodesics is None
    assert rep.distance == 3


def test_classify_02_hopf_link():
    rep = classify_02(TwoBridgeLink(2, 1))
    assert rep.distance == 2
    assert rep.keen is True
    assert rep.strongly_keen is False
    assert len(rep.geodesics.paths) == 2


def test_report_invariants():
    with pytest.raises(DomainError):
        SplittingReport("x", "02", 2, "02", keen=False, strongly_keen=True)
    with pytest.raises(DomainError):
        SplittingReport("x", "02", 1, "02", keen=True, strongly_keen=False)
    with pytest.raises(DomainError):
        SplittingReport("x", "02", -1, "02", keen=True, strongly_keen=True)


# ---------------------------------------------------------------- (0,3)-splittings

def test_classify_03_distance_zero():
    rep = classify_03(CompositeLink((TwoBridgeLink(0, 1),)))
    assert rep.distance == 0
    assert rep.case == "0"
    assert rep.keen is None
    assert rep.strongly_keen is None

    rep = classify_03(CompositeLink((TwoBridgeLink(0, 1), TwoBridgeLink(10, 3))))
    assert rep.distance == 0 and rep.case == "0"


def test_classify_03_distance_one_cases():
    unknot = classify_03(CompositeLink((TwoBridgeLink(1, 0),)))
    assert (unknot.distance, unknot.case, unknot.keen) == (1, "i", False)

    single = classify_03(CompositeLink((TwoBridgeLink(3, 1),)))
    assert (single.distance, single.case, single.keen) == (1, "ii", False)

    sum2 = classify_03(CompositeLink((TwoBridgeLink(3, 1), TwoBridgeLink(5, 2))))
    assert (sum2.distance, sum2.case, sum2.keen) == (1, "iii", False)
    assert sum2.subject == "S(3,1)#S(5,2)"
    assert sum2.strongly_keen is False


def test_classify_03_trivial_knot_summand_does_not_raise_case():
    # an unknot next to a genuine summand is still case (ii)
    rep = classify_03(CompositeLink((TwoBridgeLink(1, 0), TwoBridgeLink(3, 1))))
    assert (rep.distance, rep.case) == (1, "ii")


def test_composite_arity():
    with pytest.raises(DomainError):
        CompositeLink(())
    with pytest.raises(DomainError):
        CompositeLink((TwoBridgeLink(3, 1),) * 3)


# ---------------------------------------------------------------- constructions

def test_make_strongly_keen_example_defaults():
    assert str(make_strongly_keen_example(2)) == "S(3,1)"
    assert str(make_strongly_keen_example(3)) == "S(10,3)"
    assert str(make_strongly_keen_example(4)) == "S(33,10)"
    assert str(make_strongly_keen_example(5)) == "S(109,33)"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_make_strongly_keen_example_is_strongly_keen(n):
    link = make_strongly_keen_example(n)
    assert splitting_distance_02(link) == n
    assert is_strongly_keen_02(link)


def test_make_strongly_keen_example_custom_entries():
    link = make_strongly_keen_example(3, (4, 4))
    assert str(link) == "S(17,4)"
    assert splitting_distance_02(link) == 3
    assert is_strongly_keen_02(link)


def test_make_strongly_keen_example_rejects_bad_input():
    with pytest.raises(DomainError):
        make_strongly_keen_example(1)
    with pytest.raises(DomainError):
        make_strongly_keen_example(3, (3,))  # wrong length
    with pytest.raises(DomainError):
        make_strongly_keen_example(3, (3, 2))  # entry below 3


@pytest.mark.parametrize("bad", [2.5, 3.5, "3", None])
def test_make_strongly_keen_example_rejects_non_integer_entries(bad):
    with pytest.raises(DomainError, match="^entries must be integers, got "):
        make_strongly_keen_example(3, [bad, 3])


def test_classify_02_long_expansion():
    y = cf_eval([3] * 600)
    rep = classify_02(TwoBridgeLink(y.q, y.p))
    assert rep.distance == 601 and rep.strongly_keen
    assert len(rep.geodesics) == 1


def test_classify_02_without_geodesics_needs_no_enumeration():
    y = cf_eval([2, 3, 3, 2, 3] * 20)  # 4**20 geodesics, over the default cap
    link = TwoBridgeLink(y.q, y.p)
    rep = classify_02(link, include_geodesics=False)
    assert rep.distance == splitting_distance_02(link)
    assert rep.keen and not rep.strongly_keen and rep.geodesics is None
    assert not is_strongly_keen_02(link)
