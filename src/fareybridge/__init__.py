"""Exact geodesics in the Farey graph and splitting distances of 2-bridge links.

Slopes are reduced fractions p/q (including 1/0); two slopes span an edge of
the Farey graph when |ps - qr| = 1. The package computes distances and the
complete set of geodesics between any two slopes from the convergents of a
normalized endpoint, builds the finite strip of triangles pinched between them
for drawing, and applies this to disk-complex distances of (0,2)- and
(0,3)-splittings of 2-bridge links and their connected sums.
"""

from .bridge import (
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
from .errors import (
    DegenerateLadder,
    DomainError,
    EmptyLadder,
    EnumerationOverflow,
    FareyBridgeError,
    LadderTooLarge,
    OracleBudget,
    OutOfBound,
    ResourceLimit,
    SpineUndefined,
)
from .farey import (
    FareyPath,
    FareyTriangle,
    GeodesicSet,
    Ladder,
    all_geodesics,
    distance,
    is_unique_geodesic,
    ladder,
    ladder_type,
    spine,
)
from .rationals import (
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
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # rationals
    "ExtendedRational",
    "ContinuedFraction",
    "MobiusMap",
    "INFINITY",
    "ZERO",
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
    # farey
    "FareyTriangle",
    "FareyPath",
    "Ladder",
    "GeodesicSet",
    "ladder",
    "ladder_type",
    "spine",
    "distance",
    "all_geodesics",
    "is_unique_geodesic",
    # bridge
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
    # errors
    "FareyBridgeError",
    "DomainError",
    "ResourceLimit",
    "EmptyLadder",
    "DegenerateLadder",
    "SpineUndefined",
    "OutOfBound",
    "LadderTooLarge",
    "EnumerationOverflow",
    "OracleBudget",
]
