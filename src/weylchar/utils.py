"""Shared numeric helpers: deterministic reductions and phase evaluation."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


def pairwise_sum(values):
    """Deterministic pairwise (tree) reduction of a sequence of numbers.

    The reduction order depends only on the input order, never on chunking
    or thread count, so repeated runs are bit-identical.
    """
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def unit_phase(q: Fraction) -> complex:
    """e^{i*pi*q} for exact rational q, reduced mod 2 before trigonometry."""
    num, den = q.numerator, q.denominator
    r = num % (2 * den)  # q mod 2 == r / den
    if r == 0:
        return 1 + 0j
    if r == den:
        return -1 + 0j
    if 2 * r == den:
        return 1j
    if 2 * r == 3 * den:
        return -1j
    return cmath.exp(1j * math.pi * (r / den))


def sin_half_pi(q: Fraction) -> float:
    """sin(pi*q/2) for exact rational q, reduced mod 4 first."""
    q = q % 4
    return math.sin(math.pi * float(q) / 2)


def fold_angle(x: float) -> float:
    """Fold a float angle into (-pi, pi]."""
    r = math.remainder(x, 2 * math.pi)
    # math.remainder returns values in [-pi, pi]; move -pi to +pi
    if r <= -math.pi:
        r += 2 * math.pi
    return r


def sin_half_angle(x: float) -> float:
    """sin(x/2) with x reduced mod 4*pi first (the half-angle period)."""
    return math.sin(math.remainder(x, 4 * math.pi) / 2)
