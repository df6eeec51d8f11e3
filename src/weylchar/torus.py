"""Torus points: exact (rational multiples of pi) or floating Cartan elements.

An exact point stores the coefficient vector c with h = pi * c, one
Fraction per ambient coordinate.  A floating point stores raw radians.
Exactness is what makes degeneracy detection and stabilizer computations
decidable, so the exact representation is the default path throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


@dataclass(frozen=True)
class TorusPoint:
    """A point of the maximal torus, h = exp-preimage in the Cartan algebra.

    coords holds Fractions (units of pi) when exact, floats (radians)
    otherwise.
    """

    coords: tuple
    exact: bool

    def __post_init__(self):
        if len(self.coords) == 0:
            raise DomainError("torus point needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def radians(self) -> tuple[float, ...]:
        if self.exact:
            return tuple(math.pi * float(c) for c in self.coords)
        return tuple(float(c) for c in self.coords)

    def is_zero(self) -> bool:
        return self.exact and all(c == 0 for c in self.coords)

    def __str__(self):
        if self.exact:
            return "pi*(" + ", ".join(str(c) for c in self.coords) + ")"
        return "(" + ", ".join(f"{c!r}" for c in self.coords) + ")"


def exact_point(coeffs) -> TorusPoint:
    """Torus point h = pi * coeffs with exact rational coefficients.

    `Fraction` entries are kept as they are; any other entry goes through
    `Fraction`.
    """
    return TorusPoint(tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs), True)


def float_point(radians) -> TorusPoint:
    """Torus point from raw floating radians, read by snap-or-fail semantics:
    near a wall it stands for its snap, elsewhere for itself (`charcalc.snap_to_exact`)."""
    return TorusPoint(tuple(float(c) for c in radians), False)


def zero_point(dim: int) -> TorusPoint:
    return TorusPoint((Fraction(0),) * dim, True)
