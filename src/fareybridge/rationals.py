"""Exact arithmetic on extended rationals p/q, including 1/0.

Slopes are kept in canonical form (gcd(p, q) = 1, q >= 0, and p = 1 when
q = 0) so that equality and hashing are structural.  Continued fractions
here always mean the "reciprocal" form

    [a1, ..., an] = 1 / (a1 + 1 / (a2 + ... + 1 / an))

which parametrizes slopes in [0, 1): the empty sequence is 0/1, and the
positive-remainder Euclidean algorithm produces the canonical expansion
(all entries >= 1, last entry >= 2 when there are two or more).
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from functools import total_ordering
from itertools import islice, starmap, zip_longest
from operator import attrgetter

from .errors import DomainError

__all__ = [
    "ExtendedRational",
    "ContinuedFraction",
    "MobiusMap",
    "reduce",
    "parse_slope",
    "det",
    "is_adjacent",
    "mediant",
    "cf_expand",
    "cf_eval",
    "convergents",
    "mobius_apply",
    "normalize_pair",
    "INFINITY",
    "ZERO",
]

_SLOPE_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")
_INT_RE = re.compile(r"[+-]?\d+")


def _int_text(n: int) -> str:
    """str(n), also past sys.int_max_str_digits, where str raises ValueError.

    decimal is imported only on that path, here and in _parse_int: at
    module level it would add about 1.5 ms to every process start.
    """
    try:
        return str(n)
    except ValueError:
        import decimal

        return str(decimal.Decimal(n))


def _slope_text(p: int, q: int) -> str:
    """The text p/q of a slope, also past sys.int_max_str_digits."""
    try:
        return f"{p}/{q}"
    except ValueError:
        return f"{_int_text(p)}/{_int_text(q)}"


def _list_text(ns) -> str:
    """str(list(ns)) for ints, also past sys.int_max_str_digits."""
    return "[" + ", ".join(map(_int_text, ns)) + "]"


def _parse_int(text: str) -> int:
    """int(text), also past sys.int_max_str_digits for plain decimal digits.

    Anything else int() refuses still raises its ValueError.

    >>> _parse_int("-12")
    -12
    """
    try:
        return int(text)
    except ValueError:
        if not _INT_RE.fullmatch(text.strip()):
            raise
        import decimal

        return int(decimal.Decimal(text))


_set = object.__setattr__


def _getter(names: tuple[str, ...]):
    """obj -> the tuple of obj's attributes `names`; a 1-tuple for one name."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda obj: (get(obj),)


class _Frozen:
    """Base of the package's value types: immutable, equal and hashed by
    their fields, printed as Name(field=value, ...) with ints exact at any
    size, and pickled and copied through the constructor, so a rebuilt
    value is validated like a new one.  These rules are written here only;
    a subclass overrides one only where it means something else.

    A subclass lists its fields in __slots__, in constructor order, and sets
    them in its own __init__ with object.__setattr__.  == and hash read the
    fields named in _compared, all of them by default.  A slot whose name
    starts with "_" holds data derived from the fields, which the
    constructor rebuilds: it is no field, so ==, hash, repr, pickle and copy
    leave it out.  A subclass may name its fields in _fields instead, in
    constructor order; a field named there may be a property that reads
    such slots.
    """

    __slots__ = ()
    _fields: tuple[str, ...] | None = None
    _compared: tuple[str, ...] | None = None

    def __init_subclass__(cls):
        fields = cls._fields or tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls.__match_args__ = fields
        cls._values = staticmethod(_getter(fields))
        cls._key = staticmethod(_getter(cls._compared or fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{n}={_repr_text(v)}" for n, v in zip(self.__match_args__, self._values(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


def _repr_text(v) -> str:
    """repr(v), with ints, also in tuples, printed past sys.int_max_str_digits."""
    if type(v) is int:
        return _int_text(v)
    if type(v) is tuple:
        return "(" + ", ".join(map(_repr_text, v)) + ("," if len(v) == 1 else "") + ")"
    return repr(v)


def _trusted(cls, *values):
    """An instance of a value type built without its __init__, so without
    validation, from its slots' values in __slots__ order, derived ones
    included; derived slots left off the end are None, as the constructor
    leaves them.  For values the library built from checked values, which
    hold the type's invariants already."""
    obj = object.__new__(cls)
    for name, value in zip_longest(cls.__slots__, values):
        _set(obj, name, value)
    return obj


def _check_type(what: str, cls: type, *values) -> None:
    """DomainError unless every value is exactly a cls."""
    for v in values:
        if type(v) is not cls:
            raise DomainError(f"{what} must be {cls.__name__}, got {type(v).__name__}")


def _check_ints(what: str, *values) -> None:
    """DomainError unless every value is an exact int, so not a bool."""
    for v in values:
        if type(v) is not int:
            raise DomainError(f"{what} must be an int, got {type(v).__name__}")


def _entry_tuple(entries) -> tuple:
    """entries as a tuple, or DomainError when they cannot be iterated."""
    try:
        return tuple(entries)
    except TypeError:
        raise DomainError(f"entries must be a sequence, got {type(entries).__name__}") from None


def _checked_entries(entries) -> tuple[int, ...]:
    """entries as a tuple, or DomainError unless each one is an exact int
    (so not a bool) >= 1."""
    es = _entry_tuple(entries)
    for a in es:
        if type(a) is not int:
            raise DomainError(f"entries must be integers, got {a!r}")
        if a < 1:
            raise DomainError(f"entries must be positive: {_list_text(es)}")
    return es


@total_ordering
class ExtendedRational(_Frozen):
    """A slope p/q in lowest terms; q = 0 encodes the point at infinity.

    The constructor rejects non-canonical input; use reduce() to normalize
    arbitrary integer pairs.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        _set(self, "p", p)
        _set(self, "q", q)
        _check_ints("each of p, q", p, q)
        if q < 0:
            raise DomainError(f"denominator must be non-negative: {_int_text(p)}/{_int_text(q)}")
        if q == 0:
            if p != 1:
                raise DomainError(f"infinity must be written 1/0, got {_int_text(p)}/0")
        elif math.gcd(p, q) != 1:
            raise DomainError(f"not in lowest terms: {_int_text(p)}/{_int_text(q)}")

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return _slope_text(self.p, self.q)

    def __repr__(self) -> str:
        return f"ExtendedRational({_int_text(self.p)}, {_int_text(self.q)})"

    def __lt__(self, other: "ExtendedRational") -> bool:
        # Cross-multiplication is valid because q, s >= 0; 1/0 sorts above
        # every finite slope, giving a total order on the vertex set.  Equal
        # slopes give equal products, so neither is below the other.
        if other.__class__ is not ExtendedRational:
            return NotImplemented
        return self.p * other.q < other.p * self.q

    def floor(self) -> int:
        """Integer part, finite slopes only.

        >>> reduce(-3, 10).floor()
        -1
        """
        if self.is_infinity:
            raise DomainError("floor of 1/0 is undefined")
        return self.p // self.q


INFINITY = ExtendedRational(1, 0)
ZERO = ExtendedRational(0, 1)


def reduce(p: int, q: int) -> ExtendedRational:
    """Normalize an integer pair to a canonical slope.

    >>> reduce(4, 6)
    ExtendedRational(2, 3)
    >>> reduce(-3, 0)
    ExtendedRational(1, 0)
    """
    _check_ints("each of p, q", p, q)
    return _reduce(p, q)


def _reduce(p: int, q: int) -> ExtendedRational:
    """reduce, for ints the library holds."""
    if p == 0 and q == 0:
        raise DomainError("0/0 is not a slope")
    g = math.gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    if q == 0:
        p = 1
    return _slope(p, q)


# The setters of ExtendedRational's slots, which skip the attribute lookup
# that _set makes: _slope builds with them in 0.30 us, against 0.37 us
# through _set and 0.73 us through _trusted (CPython 3.11).
_set_p, _set_q = ExtendedRational.p.__set__, ExtendedRational.q.__set__


def _slope(p: int, q: int) -> ExtendedRational:
    """The slope p/q of a canonical pair, built without validation: the
    one-slope case of _trusted, which builds every slope the library makes
    unchecked (parses, evaluations, normal forms, paths, _signed_slope)."""
    v = object.__new__(ExtendedRational)
    _set_p(v, p)
    _set_q(v, q)
    return v


def parse_slope(text: str) -> ExtendedRational:
    """Parse 'p/q' (or a bare integer) into a canonical slope."""
    _check_type("the slope text", str, text)
    m = _SLOPE_RE.match(text.strip())
    if not m:
        raise DomainError(f"cannot parse slope: {text!r}")
    return _reduce(_parse_int(m.group(1)), _parse_int(m.group(2) or "1"))


def det(x: ExtendedRational, y: ExtendedRational) -> int:
    """Determinant p*s - q*r of the pair (p/q, r/s).

    >>> det(reduce(79, 182), ExtendedRational(1, 0))
    -182
    """
    _check_type("each slope", ExtendedRational, x, y)
    return _det(x, y)


def _det(x: ExtendedRational, y: ExtendedRational) -> int:
    """det, for slopes the library holds."""
    return x.p * y.q - x.q * y.p


def is_adjacent(x: ExtendedRational, y: ExtendedRational) -> bool:
    """Farey adjacency: |det| = 1."""
    _check_type("each slope", ExtendedRational, x, y)
    return _is_adjacent(x, y)


def _is_adjacent(x: ExtendedRational, y: ExtendedRational) -> bool:
    """is_adjacent, for slopes the library holds."""
    return abs(_det(x, y)) == 1


def mediant(x: ExtendedRational, y: ExtendedRational) -> ExtendedRational:
    """Mediant (p+r)/(q+s); already reduced when x, y are Farey-adjacent."""
    _check_type("each slope", ExtendedRational, x, y)
    return reduce(x.p + y.p, x.q + y.q)


class ContinuedFraction(_Frozen):
    """Canonical expansion [a1, ..., an] of a slope in [0, 1).

    Invariant: every entry >= 1 and the last entry >= 2, so distinct
    canonical sequences evaluate to distinct slopes in [0, 1).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        es = _checked_entries(entries)
        _set(self, "entries", es)
        if es and es[-1] < 2:
            raise DomainError(f"canonical form requires last entry >= 2: {_list_text(es)}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return "[" + ",".join(map(_int_text, self.entries)) + "]"


def cf_expand(x: ExtendedRational) -> ContinuedFraction:
    """Canonical continued fraction of a slope in [0, 1).

    Positive-remainder Euclid: the quotient sequence of (q, p) is exactly
    the expansion, and it lands in canonical form automatically.

    >>> cf_expand(reduce(79, 182)).entries
    (2, 3, 3, 2, 3)
    >>> cf_expand(reduce(3, 10)).entries
    (3, 3)
    >>> cf_expand(ExtendedRational(0, 1)).entries
    ()
    """
    _check_type("the slope", ExtendedRational, x)
    return _cf_expand(x)


def _cf_expand(x: ExtendedRational) -> ContinuedFraction:
    """cf_expand, for a slope the library holds."""
    if x.is_infinity or x.p < 0 or x.p >= x.q:
        raise DomainError(f"cf_expand requires 0 <= p/q < 1, got {x}")
    return _trusted(ContinuedFraction, tuple(_quotients(x.p, x.q)))


def _quotients(p: int, q: int):
    """The entries of p/q = [a1, ..., an], 0 <= p < q, one at a time: the
    quotients of positive-remainder Euclid on (q, p)."""
    while p:
        a, r = divmod(q, p)
        yield a
        p, q = r, p


def cf_eval(entries: ContinuedFraction | Sequence[int]) -> ExtendedRational:
    """Evaluate [a1, ..., an] exactly; the empty sequence is 0/1.

    Accepts any positive-entry sequence, canonical or not (e.g. [3, 1]
    evaluates to the same slope as [4]).

    >>> cf_eval([2, 4, 1, 3])
    ExtendedRational(19, 42)
    >>> cf_eval([2, 3, 3, 2, 3])
    ExtendedRational(79, 182)
    """
    es = entries.entries if isinstance(entries, ContinuedFraction) else _checked_entries(entries)
    p, q = 0, 1
    for a in reversed(es):
        p, q = q, a * q + p
    return _slope(p, q)


def convergents(entries: ContinuedFraction | Sequence[int]) -> tuple[ExtendedRational, ...]:
    """Prefix evaluations [a1], [a1,a2], ..., ending at the slope itself.

    Consecutive convergents are Farey-adjacent, which is what makes them
    the skeleton of the geodesic machinery downstream.

    >>> [str(c) for c in convergents([2, 3, 3, 2, 3])]
    ['1/2', '3/7', '10/23', '23/53', '79/182']
    """
    es = entries.entries if isinstance(entries, ContinuedFraction) else _checked_entries(entries)
    return tuple(starmap(_slope, islice(_convergent_pairs(es), 2, None)))


def _convergent_pairs(entries, a: int = 1, b: int = 0, c: int = 0, d: int = 1):
    """The skeleton c_{-1} = 1/0, c_0 = 0/1, c_1, ..., c_n of [a1, ..., an]
    as integer pairs, or its images under the linear map (a, b, c, d),
    unnormalized, one at a time: the map's columns c_{-1} = (a, c) and
    c_0 = (b, d), then c_k = a_k c_{k-1} + c_{k-2}."""
    h0, k0, h1, k1 = a, c, b, d
    yield h0, k0
    yield h1, k1
    for a in entries:
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        yield h1, k1


class MobiusMap(_Frozen):
    """Unimodular map x -> (a x + b) / (c x + d) with det = ad - bc = +-1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)
        _check_ints("each Mobius map entry", a, b, c, d)
        if a * d - b * c not in (1, -1):
            a, b, c, d = map(_int_text, (a, b, c, d))
            raise DomainError(f"matrix [[{a},{b}],[{c},{d}]] is not unimodular")

    @classmethod
    def identity(cls) -> "MobiusMap":
        return _trusted(cls, 1, 0, 0, 1)

    @classmethod
    def translation(cls, k: int) -> "MobiusMap":
        """x -> x + k; fixes 1/0."""
        _check_ints("the translation", k)
        return _trusted(cls, 1, k, 0, 1)

    def apply(self, x: ExtendedRational) -> ExtendedRational:
        """Projective action on slopes.

        >>> MobiusMap(1, 1, 0, 1).apply(reduce(1, 2))
        ExtendedRational(3, 2)
        >>> MobiusMap(0, 1, 1, 0).apply(ExtendedRational(1, 0))
        ExtendedRational(0, 1)
        """
        _check_type("the slope", ExtendedRational, x)
        return _map_coprime(self.a, self.b, self.c, self.d, x.p, x.q)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """Matrix product: (self.compose(other))(x) = self(other(x))."""
        _check_type("the map", MobiusMap, other)
        return _trusted(
            MobiusMap,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        # [[d,-b],[-c,a]] inverts up to the +-1 determinant, which acts
        # trivially on slopes.
        return _trusted(MobiusMap, self.d, -self.b, -self.c, self.a)


def _map_coprime(a: int, b: int, c: int, d: int, p: int, q: int) -> ExtendedRational:
    """(a p + b q) / (c p + d q) for a unimodular (a, b, c, d) and a coprime
    pair (p, q), built without validation.

    A unimodular map keeps a pair coprime, so only the sign is fixed and
    no gcd is taken.
    """
    return _signed_slope(a * p + b * q, c * p + d * q)


def _signed_slope(r: int, s: int) -> ExtendedRational:
    """The slope of the coprime pair (r, s) or (-r, -s), whichever is
    canonical, built without validation: the sign rule of every pair the
    library maps back (_map_coprime, ladders)."""
    if s < 0 or (s == 0 and r < 0):
        r, s = -r, -s
    return _slope(r, s)


def mobius_apply(m: MobiusMap, x: ExtendedRational) -> ExtendedRational:
    """Function form of MobiusMap.apply."""
    _check_type("the map", MobiusMap, m)
    return m.apply(x)


def normalize_pair(
    x: ExtendedRational, y: ExtendedRational
) -> tuple[MobiusMap, ExtendedRational]:
    """Unimodular m with m(x) = 1/0 and m(y) in [0, 1); returns (m, m(y)).

    The image m(y) does not depend on which gcd cofactors are picked: maps
    fixing 1/0 are integer translations and [0, 1) is a fundamental domain
    for them.  Everything computed downstream is invariant under the
    simultaneous action, so any valid normalizer gives the same answers.

    >>> m, y1 = normalize_pair(reduce(1, 3), reduce(2, 5))
    >>> str(m.apply(reduce(1, 3))), str(y1)
    ('1/0', '0/1')
    """
    _check_type("each slope", ExtendedRational, x, y)
    a, b, c, d, p, q = _normal_form(x, y)
    return _trusted(MobiusMap, d, -b, -c, a), _slope(p, q)


def _normal_form(x: ExtendedRational, y: ExtendedRational) -> tuple[int, int, int, int, int, int]:
    """normalize_pair as ints, for slopes the library holds: (a, b, c, d, p, q)
    where p/q = m(y) and (a, b, c, d) are the entries of m's inverse, the
    map that sends 1/0 to x and p/q to y.  No map and no slope is built.

    m sends x = a/c to 1/0 by rows (u, v) and (-c, a), where u a + v c = 1
    (the identity when x = 1/0), then translates by -floor(m(y)).  So its
    inverse's first column is (a, c), and its second is (-v, u) plus that
    floor times (a, c).  The translation makes m unique among maps of
    determinant 1, so which cofactors u, v are taken does not show:
    u = a^-1 mod c is taken, by the C-level pow.
    """
    if x == y:
        raise DomainError("normalize_pair requires distinct slopes")
    a, c = x.p, x.q
    if c:
        u = pow(a, -1, c)
        b, d = (u * a - 1) // c, u
        # m(y) is finite, as m is a bijection and m(x) = 1/0
        p, q = u * y.p - b * y.q, a * y.q - c * y.p
        if q < 0:
            p, q = -p, -q
    else:
        b, d, p, q = 0, 1, y.p, y.q
    k = p // q
    if k:
        b += k * a
        d += k * c
        p -= k * q
    return a, b, c, d, p, q
