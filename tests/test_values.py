"""The contract of the package's value types: frozen, compared and hashed by
their fields, printed in field=value form, and rebuilt exactly by pickle and
copy, with every constructor still validating its input."""

from __future__ import annotations

import copy
import pickle

import pytest

import fareybridge as fb
from fareybridge.errors import DomainError
from fareybridge.oracle import BoundedSubgraph
from fareybridge.rationals import _trusted

sl = fb.parse_slope
INF, ZERO = fb.INFINITY, fb.ZERO


def _ladder_fields(y: str) -> dict:
    l = fb.ladder(INF, sl(y))
    return {name: getattr(l, name) for name in ("x", "y", "triangles", "runs", "pivots", "rims")}


def _geodesic_fields(y: str) -> dict:
    gs = fb.all_geodesics(INF, sl(y))
    return {"source": gs.source, "target": gs.target, "length": gs.length, "paths": gs.paths}


def _report(**changes) -> dict:
    fields = dict(subject="S(3,1)", splitting="03", distance=1, case="ii", keen=False,
                  strongly_keen=False, exact=True, note="", geodesics=None)
    return {**fields, **changes}


# (class, fields of a sample, fields of a different sample, invalid fields)
CASES = [
    (fb.ExtendedRational, dict(p=19, q=42), dict(p=19, q=43), dict(p=2, q=4)),
    (fb.ContinuedFraction, dict(entries=(2, 4, 1, 3)), dict(entries=(3,)), dict(entries=(2, 1))),
    (fb.MobiusMap, dict(a=1, b=2, c=0, d=1), dict(a=0, b=1, c=1, d=0), dict(a=1, b=1, c=1, d=1)),
    (fb.FareyTriangle, dict(vertices=(ZERO, INF, sl("1/1")), label="L"),
     dict(vertices=(ZERO, INF, sl("1/1")), label="R"),
     dict(vertices=(ZERO, INF, sl("1/2")), label="L")),
    (fb.FareyPath, dict(vertices=(INF, ZERO, sl("1/2"))), dict(vertices=(INF, ZERO)),
     dict(vertices=(INF, sl("1/2")))),
    (fb.Ladder, _ladder_fields("3/10"), _ladder_fields("19/42"),
     {**_ladder_fields("3/10"), "runs": (3, 2)}),
    (fb.GeodesicSet, _geodesic_fields("3/7"), _geodesic_fields("79/182"),
     {**_geodesic_fields("3/7"), "length": 4}),
    (fb.TwoBridgeLink, dict(q=33, p=10), dict(q=7, p=3), dict(q=4, p=2)),
    (fb.CompositeLink, dict(summands=(fb.TwoBridgeLink(3, 1),)),
     dict(summands=(fb.TwoBridgeLink(3, 1), fb.TwoBridgeLink(5, 2))), dict(summands=())),
    (fb.SplittingReport, _report(), _report(note="x"), _report(distance=-1)),
    (BoundedSubgraph, dict(bound=5), dict(bound=6), dict(bound=0)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_equal_values_are_equal_and_hash_alike(case):
    cls, fields, other, _ = case
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # The hash is the hash of the compared fields' tuple, so sets and dicts
    # of values iterate in the same order as before.
    compared = tuple(v for k, v in fields.items() if k != "geodesics")
    assert hash(a) == hash(compared)
    assert a != cls(**other) and hash(a) != hash(cls(**other))


def test_values_of_different_types_differ(case):
    cls, fields, _, _ = case
    v = cls(**fields)
    assert v != tuple(fields.values())
    for other_cls, other_fields, _, _ in CASES:
        if other_cls is not cls:
            assert v != other_cls(**other_fields)


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, fields, other, _ = case
    v = cls(**fields)
    for name, value in other.items():
        with pytest.raises(AttributeError):
            setattr(v, name, value)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == cls(**fields)


@pytest.mark.parametrize("copier", [
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "pickle-0", "copy", "deepcopy"])
def test_pickle_and_copy_round_trip(case, copier):
    cls, fields, _, _ = case
    v = cls(**fields)
    w = copier(v)
    assert type(w) is cls and w == v and hash(w) == hash(v)
    assert repr(w) == repr(v)


def test_keyword_and_positional_construction_agree(case):
    cls, fields, _, _ = case
    v = cls(**fields)
    assert v == cls(*fields.values())
    assert cls.__match_args__ == tuple(fields)
    for name, value in fields.items():
        assert getattr(v, name) == value


def test_invalid_input_raises_domain_error(case):
    cls, _, _, bad = case
    with pytest.raises(DomainError):
        cls(**bad)


@pytest.mark.parametrize("value, text", [
    (fb.ExtendedRational(19, 42), "ExtendedRational(19, 42)"),
    (fb.ContinuedFraction((2, 4, 1, 3)), "ContinuedFraction(entries=(2, 4, 1, 3))"),
    (fb.MobiusMap(1, 2, 0, 1), "MobiusMap(a=1, b=2, c=0, d=1)"),
    (fb.FareyTriangle((ZERO, INF, sl("1/1")), "L"),
     "FareyTriangle(vertices=(ExtendedRational(0, 1), ExtendedRational(1, 0), "
     "ExtendedRational(1, 1)), label='L')"),
    (fb.FareyPath((INF, ZERO)),
     "FareyPath(vertices=(ExtendedRational(1, 0), ExtendedRational(0, 1)))"),
    (fb.ladder(INF, sl("1/3")),
     "Ladder(x=ExtendedRational(1, 0), y=ExtendedRational(1, 3), triangles=("
     "FareyTriangle(vertices=(ExtendedRational(0, 1), ExtendedRational(1, 0), "
     "ExtendedRational(1, 1)), label='L'), "
     "FareyTriangle(vertices=(ExtendedRational(0, 1), ExtendedRational(1, 1), "
     "ExtendedRational(1, 2)), label='L'), "
     "FareyTriangle(vertices=(ExtendedRational(0, 1), ExtendedRational(1, 2), "
     "ExtendedRational(1, 3)), label='L')), runs=(3,), pivots=(ExtendedRational(0, 1),), "
     "rims=((ExtendedRational(1, 0), ExtendedRational(1, 1), ExtendedRational(1, 2), "
     "ExtendedRational(1, 3)),))"),
    (fb.all_geodesics(INF, sl("1/3")),
     "GeodesicSet(source=ExtendedRational(1, 0), target=ExtendedRational(1, 3), length=2, "
     "paths=(FareyPath(vertices=(ExtendedRational(1, 0), ExtendedRational(0, 1), "
     "ExtendedRational(1, 3))),))"),
    (fb.TwoBridgeLink(33, 10), "TwoBridgeLink(q=33, p=10)"),
    (fb.CompositeLink((fb.TwoBridgeLink(3, 1),)),
     "CompositeLink(summands=(TwoBridgeLink(q=3, p=1),))"),
    (fb.classify_02(fb.TwoBridgeLink(3, 1)),
     "SplittingReport(subject='S(3,1)', splitting='02', distance=2, case='02', keen=True, "
     "strongly_keen=True, exact=True, note='each side of a (0,2)-splitting carries exactly "
     "one essential disk class, so a single pair realizes the distance', "
     "geodesics=GeodesicSet(source=ExtendedRational(1, 0), target=ExtendedRational(1, 3), "
     "length=2, paths=(FareyPath(vertices=(ExtendedRational(1, 0), ExtendedRational(0, 1), "
     "ExtendedRational(1, 3))),)))"),
    (fb.SplittingReport(**_report()),
     "SplittingReport(subject='S(3,1)', splitting='03', distance=1, case='ii', keen=False, "
     "strongly_keen=False, exact=True, note='', geodesics=None)"),
    (BoundedSubgraph(5), "BoundedSubgraph(bound=5)"),
], ids=IDS[:-2] + ["SplittingReport-02", "SplittingReport-03", "BoundedSubgraph"])
def test_repr(value, text):
    assert repr(value) == text


def test_splitting_report_defaults_and_geodesics_left_out_of_equality():
    r = fb.SplittingReport("S(3,1)", "03", 1, "ii", False, False)
    assert (r.exact, r.note, r.geodesics) == (True, "", None)
    gs = fb.all_geodesics(INF, sl("1/3"))
    with_gs = fb.SplittingReport(**_report(geodesics=gs))
    assert with_gs == r and hash(with_gs) == hash(r)
    assert with_gs.geodesics is gs
    assert pickle.loads(pickle.dumps(with_gs)).geodesics == gs
    assert copy.deepcopy(with_gs).geodesics == gs
    assert fb.SplittingReport(**_report(exact=False)) != r


def test_continued_fraction_keeps_entries_as_a_tuple():
    cf = fb.ContinuedFraction([2, 3])
    assert cf.entries == (2, 3) and type(cf.entries) is tuple
    assert cf == fb.ContinuedFraction((2, 3))


def test_trusted_construction_equals_the_validated_one():
    for cls, fields, _, _ in CASES:
        trusted, checked = _trusted(cls, *fields.values()), cls(**fields)
        assert type(trusted) is cls
        assert trusted == checked and hash(trusted) == hash(checked), cls
        assert repr(trusted) == repr(checked)

