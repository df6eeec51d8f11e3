"""Exact vectors over the rationals, and integer stacks over numpy.

Vectors are tuples of `fractions.Fraction`, with the few operations the
root data need on them: sums, scalings and the bilinear form.  No
rational system is solved.  The one inverse the root data take, of the
simple roots' integer Gram matrix, is the fraction-free `adjugate`, and
root coefficients follow from it by integer products (`rootsys`).  Bulk
work (a vector against every element of a Weyl group) runs on integer
numpy arrays: rationals are scaled over one common denominator, and a
bound check picks int64 when no intermediate can overflow it, or object
arrays of Python ints otherwise, for the same code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

Vec = tuple[Fraction, ...]

#: Integer work whose magnitudes stay below this runs in int64.
INT64_SAFE = 2**62

#: Types whose values are exact rationals with `numerator` and `denominator`.
EXACT_TYPES = (Fraction, int)


def vadd(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vsub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vscale(c, x: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in x)


def vzero(n: int) -> Vec:
    return (Fraction(0),) * n


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y, strict=True)), Fraction(0))


def mat_vec(m: Sequence[Sequence], x: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, x) for row in m)


def adjugate(m) -> tuple[list[list[int]], int]:
    """adj(m) and det(m) of a positive definite integer matrix, fraction-free.

    Bareiss's elimination run Gauss-Jordan style on [m | I]: every
    division by the previous pivot is exact, the pivots are the leading
    principal minors, and the last step leaves det(m) I | adj(m).  A
    pivot that is not positive means m is not positive definite.
    """
    k = len(m)
    rows = [[int(x) for x in r] + [int(i == j) for j in range(k)] for i, r in enumerate(m)]
    prev = 1
    for p in range(k):
        piv = rows[p][p]
        if piv <= 0:
            raise AssertionError("matrix is not positive definite")
        for i in range(k):
            if i != p:
                f = rows[i][p]
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], rows[p])]
        prev = piv
    return [r[k:] for r in rows], prev


def common_denominator(v) -> tuple[list[int], int]:
    """Integers n_i and the least D > 0 with v_i = n_i / D.

    Entries that are already `Fraction` or `int` are read as they are;
    anything else (strings, floats, numpy integers) goes through `Fraction`.
    """
    v = [x if type(x) in EXACT_TYPES else Fraction(x) for x in v]
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def int_dtype(bound: int):
    """int64 when every magnitude is below `bound` < 2**62, else object (Python ints)."""
    return np.int64 if bound < INT64_SAFE else object


def int_matvec(rows: np.ndarray, y, modulus: int | None = None) -> np.ndarray:
    """rows @ y over the integers, exactly, optionally reduced mod `modulus`.

    `rows` is an integer (N, n) array and `y` a length-n sequence, for an
    (N,) result, or an (n, m) integer array, for (N, m).  The result is
    int64 when the bound max|rows| * n * max|y|, and the modulus, are below
    2**62, and an object array of Python ints otherwise.  The bound is two
    reductions of `rows` (its largest and its smallest entry, read as
    Python ints, so an int8 -128 counts as 128), and it is at least the
    largest row 1-norm times max|y|, which bounds every partial sum.  int64
    rows give one matrix product; any other dtype is accumulated a column
    at a time through one reused column of terms, so an int8 `rows` is
    never copied whole.
    """
    matrix = isinstance(y, np.ndarray) and y.ndim == 2
    cols = [[int(c) for c in col] for col in (y.T if matrix else [y])]
    entry = max(int(rows.max()), -int(rows.min())) if rows.size else 0
    bound = max(entry, 1) * rows.shape[1] * max((abs(c) for col in cols for c in col), default=0)
    dtype = int_dtype(max(bound, modulus or 0))
    if dtype is np.int64 and rows.dtype == np.int64:
        out = np.array(cols, dtype=np.int64) @ rows.T
    else:
        out = np.zeros((len(cols), len(rows)), dtype=dtype)
        term = np.empty(len(rows), dtype=dtype)
        for col, acc in zip(cols, out):
            for j, c in enumerate(col):
                if c:
                    acc += np.multiply(rows[:, j], c, out=term, dtype=dtype)
    out = out.T if matrix else out[0]
    return out if modulus is None else out % modulus
