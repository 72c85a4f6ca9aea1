"""The contract of the package's value types: frozen, compared and hashed by
their fields, printed in field=value form, and rebuilt exactly by pickle and
copy, with every constructor still validating its input."""

from __future__ import annotations

import copy
import pickle

import pytest

import fareybridge as fb
from fareybridge import render
from fareybridge.errors import DomainError
from fareybridge.oracle import (
    BoundedSubgraph,
    bounded_distance,
    bruteforce_geodesics,
    stabilized_distance,
)
from fareybridge.rationals import _int_text, _trusted

sl = fb.parse_slope
INF, ZERO = fb.INFINITY, fb.ZERO


def _ladder_fields(y: str, **changes) -> dict:
    """The fields of the ladder from 1/0 to y, each named in changes mapped by it."""
    l = fb.ladder(INF, sl(y))
    fields = {name: getattr(l, name) for name in ("x", "y", "runs", "pivots", "rims")}
    return {name: changes.get(name, lambda v: v)(v) for name, v in fields.items()}


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
    # The hash is the hash of the compared fields' tuple (_compared, all the
    # fields by default), so sets and dicts of values iterate in a fixed order.
    compared = tuple(fields[k] for k in cls._compared or fields)
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


@pytest.mark.parametrize("call, kind", [
    (lambda: fb.ExtendedRational(2.5, 1), "float"),
    (lambda: fb.ExtendedRational(1, True), "bool"),
    (lambda: fb.reduce(2.5, 1), "float"),
    (lambda: fb.reduce(4, "6"), "str"),
    (lambda: fb.MobiusMap(1, 2.5, 0, 1), "float"),
    (lambda: fb.MobiusMap(True, 0, 0, 1), "bool"),
    (lambda: fb.TwoBridgeLink(3.0, 1), "float"),
    (lambda: fb.TwoBridgeLink(True, 1), "bool"),
    (lambda: fb.make_strongly_keen_example(2.5), "float"),
    (lambda: fb.make_strongly_keen_example(True), "bool"),
    (lambda: BoundedSubgraph("5"), "str"),
    (lambda: BoundedSubgraph(True), "bool"),
    (lambda: bounded_distance(INF, ZERO, 10.5), "float"),
    (lambda: bounded_distance(INF, ZERO, True), "bool"),
    (lambda: stabilized_distance(INF, sl("1/3"), max_bound="9"), "str"),
    (lambda: stabilized_distance(INF, sl("1/3"), max_bound=True), "bool"),
], ids=["ExtendedRational(2.5, 1)", "ExtendedRational(1, True)", "reduce(2.5, 1)",
        "reduce(4, '6')", "MobiusMap(1, 2.5, 0, 1)", "MobiusMap(True, 0, 0, 1)",
        "TwoBridgeLink(3.0, 1)", "TwoBridgeLink(True, 1)", "make_strongly_keen_example(2.5)",
        "make_strongly_keen_example(True)", "BoundedSubgraph('5')", "BoundedSubgraph(True)",
        "bounded_distance(INF, ZERO, 10.5)", "bounded_distance(INF, ZERO, True)",
        "stabilized_distance(max_bound='9')", "stabilized_distance(max_bound=True)"])
def test_integer_fields_must_be_exact_ints(call, kind):
    # a bool is refused, as the caps refuse it
    with pytest.raises(DomainError, match=f"must be an int, got {kind}$"):
        call()


LINK = fb.TwoBridgeLink(3, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: fb.distance("1/2", INF), "each slope must be ExtendedRational, got str"),
    (lambda: fb.all_geodesics(INF, 3), "each slope must be ExtendedRational, got int"),
    (lambda: fb.is_unique_geodesic(INF, None),
     "each slope must be ExtendedRational, got NoneType"),
    (lambda: fb.ladder(INF, (1, 3)), "each slope must be ExtendedRational, got tuple"),
    (lambda: fb.spine(None), "the ladder must be Ladder, got NoneType"),
    (lambda: fb.ladder_type(fb.spine(fb.ladder(INF, sl("3/10")))),
     "the ladder must be Ladder, got FareyPath"),
    (lambda: fb.classify_02(5), "the link must be TwoBridgeLink, got int"),
    (lambda: fb.classify_03([LINK]), "the composite must be CompositeLink, got list"),
    (lambda: fb.components("S(3,1)"), "the link must be TwoBridgeLink, got str"),
    (lambda: fb.splitting_distance_02(sl("1/3")),
     "the link must be TwoBridgeLink, got ExtendedRational"),
    (lambda: fb.is_keen_02(None), "the link must be TwoBridgeLink, got NoneType"),
    (lambda: fb.is_strongly_keen_02((3, 1)), "the link must be TwoBridgeLink, got tuple"),
    (lambda: fb.FareyPath([INF]), "vertices must be tuple, got list"),
    (lambda: fb.FareyPath((INF, "0/1")), "each vertex must be ExtendedRational, got str"),
    (lambda: fb.GeodesicSet(INF, INF, 0, [fb.FareyPath((INF,))]), "paths must be tuple, got list"),
    (lambda: fb.GeodesicSet(INF, INF, 0, ((INF,),)), "each path must be FareyPath, got tuple"),
    (lambda: fb.cf_expand("1/3"), "the slope must be ExtendedRational, got str"),
    (lambda: fb.normalize_pair(1, 2), "each slope must be ExtendedRational, got int"),
    (lambda: fb.parse_slope(5), "the slope text must be str, got int"),
    (lambda: fb.det(1, 2), "each slope must be ExtendedRational, got int"),
    (lambda: fb.is_adjacent(None, None), "each slope must be ExtendedRational, got NoneType"),
    (lambda: fb.mediant(1, 2), "each slope must be ExtendedRational, got int"),
    (lambda: fb.mobius_apply(None, ZERO), "the map must be MobiusMap, got NoneType"),
    (lambda: render.render_ascii(None), "the ladder must be Ladder, got NoneType"),
    (lambda: render.render_svg(None), "the ladder must be Ladder, got NoneType"),
    (lambda: fb.CompositeLink((3, 1)), "each summand must be TwoBridgeLink, got int"),
    (lambda: hash(fb.CompositeLink([LINK])), "summands must be tuple, got list"),
    (lambda: hash(fb.FareyTriangle([ZERO, INF, fb.reduce(1, 1)], "L")),
     "vertices must be tuple, got list"),
    (lambda: fb.FareyTriangle((ZERO, INF, "1/1"), "L"),
     "each vertex must be ExtendedRational, got str"),
    (lambda: fb.Ladder(**_ladder_fields("3/10", runs=list)), "runs must be tuple, got list"),
    (lambda: fb.Ladder(**_ladder_fields("3/10", pivots=list)), "pivots must be tuple, got list"),
    (lambda: fb.Ladder(**_ladder_fields("3/10", rims=list)), "rims must be tuple, got list"),
    (lambda: fb.Ladder(**_ladder_fields("3/10", rims=lambda rims: (list(rims[0]), *rims[1:]))),
     "each rim must be tuple, got list"),
    (lambda: fb.Ladder(**_ladder_fields("3/10", pivots=lambda ps: ("0/1", *ps[1:]))),
     "each vertex must be ExtendedRational, got str"),
    (lambda: fb.cf_eval(None), "entries must be a sequence, got NoneType"),
    (lambda: fb.convergents(5), "entries must be a sequence, got int"),
    (lambda: fb.ContinuedFraction(5), "entries must be a sequence, got int"),
    (lambda: fb.make_strongly_keen_example(3, 5), "entries must be a sequence, got int"),
    (lambda: fb.MobiusMap(1, 0, 0, 1).apply(None),
     "the slope must be ExtendedRational, got NoneType"),
    (lambda: fb.MobiusMap(1, 0, 0, 1).compose(None), "the map must be MobiusMap, got NoneType"),
], ids=["distance('1/2', INF)", "all_geodesics(INF, 3)", "is_unique_geodesic(INF, None)",
        "ladder(INF, (1, 3))", "spine(None)", "ladder_type(path)", "classify_02(5)",
        "classify_03([link])", "components(str)", "splitting_distance_02(slope)",
        "is_keen_02(None)", "is_strongly_keen_02(tuple)", "FareyPath([v])",
        "FareyPath(str vertex)", "GeodesicSet([path])", "GeodesicSet(tuple path)",
        "cf_expand(str)", "normalize_pair(1, 2)", "parse_slope(5)", "det(1, 2)",
        "is_adjacent(None, None)", "mediant(1, 2)", "mobius_apply(None, ZERO)",
        "render_ascii(None)", "render_svg(None)", "CompositeLink((3, 1))",
        "CompositeLink([link])", "FareyTriangle([v, v, v])", "FareyTriangle(str vertex)",
        "Ladder(runs=list)", "Ladder(pivots=list)", "Ladder(rims=list)", "Ladder(list rim)",
        "Ladder(str pivot)", "cf_eval(None)", "convergents(5)", "ContinuedFraction(5)",
        "make_strongly_keen_example(3, 5)", "MobiusMap.apply(None)", "MobiusMap.compose(None)"])
def test_public_calls_and_constructors_refuse_wrong_types(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("other", [3, None, "1/2", 0.5, (1, 0)],
                         ids=["int", "None", "str", "float", "tuple"])
def test_slopes_do_not_order_against_other_types(other):
    # NotImplemented lets Python try the reflected comparison, then refuse
    for compare in (INF.__lt__, INF.__le__, INF.__gt__, INF.__ge__):
        assert compare(other) is NotImplemented
    with pytest.raises(TypeError, match="not supported between instances"):
        INF < other
    assert INF != other


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
     "Ladder(x=ExtendedRational(1, 0), y=ExtendedRational(1, 3), "
     "runs=(3,), pivots=(ExtendedRational(0, 1),), "
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


# Past sys.int_max_str_digits (4,300 by default), where str(int) raises ValueError.
BIG = 10**5000
DIGITS = _int_text(BIG)
# m = BIG // 4: 3/(3m + 2) and 1/m lie in the box of bound BIG at distance 2,
# through their two common neighbors 2/(2m + 1) and 1/(m + 1).  Each of the
# four has a denominator past BIG / 4, so a handful of neighbors in the box,
# and the search stays small.
M = BIG // 4


@pytest.mark.parametrize("call, error, shown", [
    (lambda: fb.ExtendedRational(BIG, -1), DomainError, BIG),
    (lambda: fb.ExtendedRational(BIG, 0), DomainError, BIG),
    (lambda: fb.ExtendedRational(BIG, 10), DomainError, BIG),
    (lambda: fb.MobiusMap(BIG, 0, 0, 1), DomainError, BIG),
    (lambda: fb.ladder(INF, fb.reduce(1, 10 * BIG), vertex_cap=BIG), fb.LadderTooLarge, BIG),
    (lambda: BoundedSubgraph(-BIG), DomainError, -BIG),
    (lambda: bounded_distance(fb.reduce(1, 10 * BIG), ZERO, BIG), fb.OutOfBound, BIG),
    (lambda: stabilized_distance(INF, fb.reduce(1, BIG)), fb.OracleBudget, 4 * BIG),
    (lambda: bruteforce_geodesics(fb.reduce(3, 3 * M + 2), fb.reduce(1, M), BIG, cap=1),
     fb.EnumerationOverflow, BIG),
], ids=["ExtendedRational(BIG, -1)", "ExtendedRational(BIG, 0)", "ExtendedRational(BIG, 10)",
        "MobiusMap(BIG, 0, 0, 1)", "ladder(vertex_cap=BIG)", "BoundedSubgraph(-BIG)",
        "bounded_distance(outside BIG)", "stabilized_distance(INF, 1/BIG)",
        "bruteforce_geodesics(cap=1)"])
def test_errors_are_typed_and_exact_at_any_int_size(call, error, shown):
    with pytest.raises(error) as info:
        call()
    assert _int_text(shown) in str(info.value)


@pytest.mark.parametrize("text, want", [
    (lambda: repr(fb.TwoBridgeLink(BIG + 1, 1)), f"TwoBridgeLink(q={DIGITS[:-1]}1, p=1)"),
    (lambda: repr(fb.CompositeLink((fb.TwoBridgeLink(BIG + 1, 1),))),
     f"CompositeLink(summands=(TwoBridgeLink(q={DIGITS[:-1]}1, p=1),))"),
    (lambda: repr(fb.ContinuedFraction((BIG, 2))), f"ContinuedFraction(entries=({DIGITS}, 2))"),
    (lambda: repr(fb.ContinuedFraction((BIG,))), f"ContinuedFraction(entries=({DIGITS},))"),
    (lambda: repr(fb.MobiusMap(1, BIG, 0, 1)), f"MobiusMap(a=1, b={DIGITS}, c=0, d=1)"),
    (lambda: str(fb.MobiusMap(1, BIG, 0, 1)), f"MobiusMap(a=1, b={DIGITS}, c=0, d=1)"),
    (lambda: str(fb.FareyTriangle((INF, fb.reduce(BIG, 1), fb.reduce(BIG + 1, 1)), "L")),
     f"{{1/0, {DIGITS}/1, {DIGITS[:-1]}1/1}}:L"),
], ids=["repr(TwoBridgeLink)", "repr(CompositeLink)", "repr(ContinuedFraction)",
        "repr(ContinuedFraction, one entry)", "repr(MobiusMap)", "str(MobiusMap)",
        "str(FareyTriangle)"])
def test_reprs_are_exact_at_any_int_size(text, want):
    assert text() == want


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

