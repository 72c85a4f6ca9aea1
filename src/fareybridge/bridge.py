"""2-bridge links S(q, p) and the distances of their bridge splittings.

S(q, p) is presented by two rational tangles of slopes 1/0 and p/q, so the
distance of its (0,2)-splitting is the Farey distance between those two
slopes.  Every (0,2)-splitting is keen (each side has exactly one essential
disk class, so only one pair can realize the distance), and it is strongly
keen exactly when the geodesic is unique.

For connected sums the (0,3)-splitting of the composite presentation has
distance 0 precisely when a summand is the 2-component trivial link
S(0, 1); otherwise the distance is 1 and the splitting is never keen.
"""

from __future__ import annotations

import math

from . import farey
from .errors import DomainError, ResourceLimit
from .farey import GeodesicSet
from .rationals import (
    INFINITY,
    ContinuedFraction,
    ExtendedRational,
    _checked_entries,
    _Frozen,
    _int_text,
    _list_text,
    _set,
    _trusted,
    cf_eval,
)

__all__ = [
    "TwoBridgeLink",
    "CompositeLink",
    "SplittingReport",
    "components",
    "splitting_distance_02",
    "is_keen_02",
    "is_strongly_keen_02",
    "classify_02",
    "classify_03",
    "make_strongly_keen_example",
    "KEEN_02_NOTE",
]

# Recorded on every (0,2) report; the reason the splitting is always keen.
KEEN_02_NOTE = (
    "each side of a (0,2)-splitting carries exactly one essential disk class, "
    "so a single pair realizes the distance"
)

_NOT_KEEN_03_NOTE = (
    "more than one disjoint disk pair realizes distance one, "
    "so no (0,3)-splitting of distance one is keen"
)

_DISTANCE0_03_NOTE = (
    "a summand is the 2-component trivial link, so the disk sets already share "
    "a boundary curve; keenness is not determined by this model"
)


class TwoBridgeLink(_Frozen):
    """S(q, p) with 0 <= p <= q coprime; S(0, 1) and S(1, 0) are allowed.

    q = 1 encodes the trivial knot; q = 0 the 2-component trivial link;
    q >= 2 the genuine 2-bridge links.
    """

    __slots__ = ("q", "p")

    def __init__(self, q: int, p: int):
        _set(self, "q", q)
        _set(self, "p", p)
        if q < 0:
            raise DomainError(f"q must be non-negative, got {_int_text(q)}")
        if q == 0:
            if p != 1:
                raise DomainError(f"S(0, p) requires p = 1, got p = {_int_text(p)}")
            return
        if not 0 <= p <= q:
            raise DomainError(f"need 0 <= p <= q, got S({_int_text(q)}, {_int_text(p)})")
        if math.gcd(p, q) != 1:
            raise DomainError(f"p, q must be coprime, got S({_int_text(q)}, {_int_text(p)})")

    @property
    def slope(self) -> ExtendedRational:
        """The tangle slope p/q; 1/0 for S(0, 1)."""
        return _trusted(ExtendedRational, self.p, self.q) if self.q else INFINITY

    @property
    def is_trivial_knot(self) -> bool:
        return self.q == 1

    @property
    def is_trivial_2component(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return f"S({_int_text(self.q)},{_int_text(self.p)})"


def components(link: TwoBridgeLink) -> int:
    """Number of components: 2 when q is even (including q = 0), else 1."""
    return 2 if link.q % 2 == 0 else 1


class CompositeLink(_Frozen):
    """A connected sum of one or two 2-bridge summands."""

    __slots__ = ("summands",)

    def __init__(self, summands: tuple[TwoBridgeLink, ...]):
        _set(self, "summands", summands)
        if not 1 <= len(summands) <= 2:
            raise DomainError(f"composite needs 1 or 2 summands, got {len(summands)}")

    def __str__(self) -> str:
        return "#".join(str(s) for s in self.summands)


class SplittingReport(_Frozen):
    """Outcome of classifying one bridge splitting.

    keen/strongly_keen are None when the in-scope results give no verdict
    (only the distance-0 composite case).  exact=False would mark a
    lower-bound distance; no current code path emits it.  The geodesics
    are carried along but are not part of ==.
    """

    __slots__ = (
        "subject", "splitting", "distance", "case", "keen", "strongly_keen",
        "exact", "note", "geodesics",
    )
    _compared = __slots__[:-1]

    def __init__(
        self,
        subject: str,
        splitting: str,  # "02" or "03"
        distance: int,
        case: str,
        keen: bool | None,
        strongly_keen: bool | None,
        exact: bool = True,
        note: str = "",
        geodesics: GeodesicSet | None = None,
    ):
        values = (subject, splitting, distance, case, keen, strongly_keen, exact, note, geodesics)
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)
        if distance < 0:
            raise DomainError("distance must be non-negative")
        if strongly_keen and not keen:
            raise DomainError("strongly keen implies keen")
        if distance == 1 and keen is True and strongly_keen is not True:
            raise DomainError("a keen splitting of distance 1 is strongly keen")


def splitting_distance_02(link: TwoBridgeLink) -> int:
    """Distance of the (0,2)-splitting: Farey distance from 1/0 to p/q.

    S(1, 0) gives the unknot's value 1; S(0, 1) gives 0.
    """
    return farey.distance(INFINITY, link.slope)


def is_keen_02(link: TwoBridgeLink) -> bool:
    """Always true; see KEEN_02_NOTE for the reason."""
    return True


def is_strongly_keen_02(link: TwoBridgeLink) -> bool:
    """True when exactly one geodesic realizes the splitting distance.

    Distance <= 1 forces uniqueness.
    """
    return farey.is_unique_geodesic(INFINITY, link.slope)


def classify_02(
    link: TwoBridgeLink,
    *,
    include_geodesics: bool = True,
    cap: int | None = None,
) -> SplittingReport:
    """Full (0,2)-splitting report for one 2-bridge link.

    Without geodesics the report is read off the geodesic count alone, so
    the enumeration cap does not apply.
    """
    if include_geodesics:
        gs = farey.all_geodesics(INFINITY, link.slope, cap=cap)
        length, count = gs.length, len(gs)
    else:
        gs = None
        length, count = farey._length_and_count(INFINITY, link.slope)
    # subject, splitting, distance, case, keen, strongly_keen, exact, note, geodesics
    return _trusted(
        SplittingReport, str(link), "02", length, "02", True, count == 1, True, KEEN_02_NOTE, gs
    )


def classify_03(composite: CompositeLink) -> SplittingReport:
    """Classify the (0,3)-splitting of a 1- or 2-summand composite.

    Distance 0 iff some summand is S(0, 1).  Otherwise distance 1 with
    case (i) trivial knot, (ii) one nontrivial summand, (iii) connected
    sum of two nontrivial summands; such splittings are never keen.
    """
    # subject, splitting, distance, case, keen, strongly_keen, exact, note, geodesics
    subject = str(composite)
    if any(s.is_trivial_2component for s in composite.summands):
        return _trusted(
            SplittingReport, subject, "03", 0, "0", None, None, True, _DISTANCE0_03_NOTE, None
        )
    nontrivial = [s for s in composite.summands if not s.is_trivial_knot]
    case = ("i", "ii", "iii")[len(nontrivial)]
    return _trusted(
        SplittingReport, subject, "03", 1, case, False, False, True, _NOT_KEEN_03_NOTE, None
    )


def make_strongly_keen_example(
    n: int, entries: tuple[int, ...] | list[int] | None = None
) -> TwoBridgeLink:
    """A 2-bridge link whose (0,2)-splitting has distance n, n >= 2, and a
    unique geodesic: slope [a1, ..., a_{n-1}] with every entry >= 3.

    Default entries are all 3s: n = 2 gives S(3,1), n = 3 gives S(10,3).
    Raises ResourceLimit when n - 1 default entries do not fit in memory.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {_int_text(n)}")
    if entries is None:
        try:
            entries = (3,) * (n - 1)
        except (MemoryError, OverflowError):
            raise ResourceLimit(
                f"{_int_text(n - 1)} default entries do not fit in memory"
            ) from None
    entries = tuple(entries)
    if len(entries) != n - 1:
        raise DomainError(
            f"need {_int_text(n - 1)} entries for distance {_int_text(n)}, "
            f"got {len(entries)}"
        )
    if any(a < 3 for a in _checked_entries(entries)):
        raise DomainError(f"entries must all be >= 3, got {_list_text(entries)}")
    # Entries >= 3 are a canonical expansion, and p/q in (0, 1) is coprime.
    slope = cf_eval(_trusted(ContinuedFraction, entries))
    return _trusted(TwoBridgeLink, slope.q, slope.p)
