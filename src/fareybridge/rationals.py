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
    their fields, printed as Name(field=value, ...), and pickled and copied
    through the constructor, so a rebuilt value is validated like a new one.

    A subclass lists its fields in __slots__, in constructor order, and sets
    them in its own __init__ with object.__setattr__.  == and hash read the
    fields named in _compared, all of them by default.
    """

    __slots__ = ()
    _compared: tuple[str, ...] | None = None

    def __init_subclass__(cls):
        fields = cls.__slots__
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
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


def _trusted(cls, *values):
    """An instance of a value type built without its __init__, so without
    validation, from its fields in __slots__ order.  For values the library
    built from checked values, which hold the type's invariants already."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _set(obj, name, value)
    return obj


def _checked_entries(entries) -> tuple[int, ...]:
    """entries as a tuple, or DomainError unless each one is an int >= 1."""
    es = tuple(entries)
    for a in es:
        if not isinstance(a, int):
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
        if q < 0:
            raise DomainError(f"denominator must be non-negative: {p}/{q}")
        if q == 0:
            if p != 1:
                raise DomainError(f"infinity must be written 1/0, got {p}/0")
        elif math.gcd(p, q) != 1:
            raise DomainError(f"not in lowest terms: {p}/{q}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.q) == (other.p, other.q)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q))

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        try:
            return f"{self.p}/{self.q}"
        except ValueError:  # past sys.int_max_str_digits
            return f"{_int_text(self.p)}/{_int_text(self.q)}"

    def __repr__(self) -> str:
        return f"ExtendedRational({_int_text(self.p)}, {_int_text(self.q)})"

    def __lt__(self, other: "ExtendedRational") -> bool:
        # Cross-multiplication is valid because q, s >= 0; 1/0 sorts above
        # every finite slope, giving a total order on the vertex set.
        if self == other:
            return False
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
    if p == 0 and q == 0:
        raise DomainError("0/0 is not a slope")
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    if q == 0:
        p = 1
    return _trusted(ExtendedRational, p, q)


def parse_slope(text: str) -> ExtendedRational:
    """Parse 'p/q' (or a bare integer) into a canonical slope."""
    m = _SLOPE_RE.match(text.strip())
    if not m:
        raise DomainError(f"cannot parse slope: {text!r}")
    return reduce(_parse_int(m.group(1)), _parse_int(m.group(2) or "1"))


def det(x: ExtendedRational, y: ExtendedRational) -> int:
    """Determinant p*s - q*r of the pair (p/q, r/s).

    >>> det(reduce(79, 182), ExtendedRational(1, 0))
    -182
    """
    return x.p * y.q - x.q * y.p


def is_adjacent(x: ExtendedRational, y: ExtendedRational) -> bool:
    """Farey adjacency: |det| = 1."""
    return abs(det(x, y)) == 1


def mediant(x: ExtendedRational, y: ExtendedRational) -> ExtendedRational:
    """Mediant (p+r)/(q+s); already reduced when x, y are Farey-adjacent."""
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
    if x.is_infinity or x.p < 0 or x.p >= x.q:
        raise DomainError(f"cf_expand requires 0 <= p/q < 1, got {x}")
    entries = []
    p, q = x.p, x.q
    while p:
        a, r = divmod(q, p)
        entries.append(a)
        p, q = r, p
    return _trusted(ContinuedFraction, tuple(entries))


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
    return _trusted(ExtendedRational, p, q)


def convergents(entries: ContinuedFraction | Sequence[int]) -> tuple[ExtendedRational, ...]:
    """Prefix evaluations [a1], [a1,a2], ..., ending at the slope itself.

    Consecutive convergents are Farey-adjacent, which is what makes them
    the skeleton of the geodesic machinery downstream.

    >>> [str(c) for c in convergents([2, 3, 3, 2, 3])]
    ['1/2', '3/7', '10/23', '23/53', '79/182']
    """
    es = entries.entries if isinstance(entries, ContinuedFraction) else _checked_entries(entries)
    out = []
    h0, k0, h1, k1 = 1, 0, 0, 1  # h/k pairs for c_{-1} = 1/0 and c_0 = 0/1
    for a in es:
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        out.append(_trusted(ExtendedRational, h1, k1))
    return tuple(out)


class MobiusMap(_Frozen):
    """Unimodular map x -> (a x + b) / (c x + d) with det = ad - bc = +-1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)
        if a * d - b * c not in (1, -1):
            raise DomainError(f"matrix [[{a},{b}],[{c},{d}]] is not unimodular")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    @classmethod
    def identity(cls) -> "MobiusMap":
        return _trusted(cls, 1, 0, 0, 1)

    @classmethod
    def translation(cls, k: int) -> "MobiusMap":
        """x -> x + k; fixes 1/0."""
        return _trusted(cls, 1, k, 0, 1)

    def apply(self, x: ExtendedRational) -> ExtendedRational:
        """Projective action on slopes.

        >>> MobiusMap(1, 1, 0, 1).apply(reduce(1, 2))
        ExtendedRational(3, 2)
        >>> MobiusMap(0, 1, 1, 0).apply(ExtendedRational(1, 0))
        ExtendedRational(0, 1)
        """
        return _map_coprime(self, x.p, x.q)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """Matrix product: (self.compose(other))(x) = self(other(x))."""
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


def _map_coprime(m: MobiusMap, p: int, q: int) -> ExtendedRational:
    """m(p/q) for a coprime pair (p, q), built without validation.

    A unimodular map keeps a pair coprime, so only the sign is fixed and
    no gcd is taken.
    """
    r, s = m.a * p + m.b * q, m.c * p + m.d * q
    if s < 0 or (s == 0 and r < 0):
        r, s = -r, -s
    v = object.__new__(ExtendedRational)
    _set(v, "p", r)
    _set(v, "q", s)
    return v


def mobius_apply(m: MobiusMap, x: ExtendedRational) -> ExtendedRational:
    """Function form of MobiusMap.apply."""
    return m.apply(x)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    return old_r, old_u, old_v


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
    if x == y:
        raise DomainError("normalize_pair requires distinct slopes")
    if x.is_infinity:
        m = MobiusMap.identity()
    else:
        g, u, v = _xgcd(x.p, x.q)
        # g = 1 because x is canonical; rows (u, v) and (-q, p) are a basis.
        m = _trusted(MobiusMap, u, v, -x.q, x.p)
    # m(x) = 1/0 and m is a bijection, so m(y) is finite.
    image = m.apply(y)
    k = image.p // image.q
    if k:
        m = MobiusMap.translation(-k).compose(m)
        image = _trusted(ExtendedRational, image.p - k * image.q, image.q)
    return m, image
