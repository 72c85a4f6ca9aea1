"""Exact geodesics in the Farey graph and splitting distances of 2-bridge links.

Slopes are reduced fractions p/q (including 1/0); two slopes span an edge of
the Farey graph when |ps - qr| = 1. The package computes distances and the
complete set of geodesics between any two slopes from the convergents of a
normalized endpoint, builds the finite strip of triangles pinched between them
for drawing, and applies this to disk-complex distances of (0,2)- and
(0,3)-splittings of 2-bridge links and their connected sums.
"""

from . import bridge, errors, farey, rationals
from .bridge import *
from .errors import *
from .farey import *
from .rationals import *

__version__ = "0.1.0"

__all__ = ["__version__", *rationals.__all__, *farey.__all__, *bridge.__all__, *errors.__all__]
