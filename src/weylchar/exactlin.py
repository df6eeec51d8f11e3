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

#: Rows per block in which `int_matvec` casts a long narrower array (about 1 MB).
MATVEC_BLOCK = 1 << 14

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
    pairs = [(x if type(x) in EXACT_TYPES else Fraction(x)).as_integer_ratio() for x in v]
    d = math.lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def int_dtype(bound: int):
    """int64 when every magnitude is below `bound` < 2**62, else object (Python ints)."""
    return np.int64 if bound < INT64_SAFE else object


def narrowest(a: np.ndarray) -> np.ndarray:
    """An integer table in the narrowest of int8, int16, int32 that holds it, for `entry_bound`."""
    entry = max(int(a.max()), -int(a.min())) if a.dtype.kind == "i" and a.size else 2**31
    dtype = next((t for t in (np.int8, np.int16, np.int32) if entry <= np.iinfo(t).max), None)
    return a if dtype is None else a.astype(dtype)


def entry_bound(a: np.ndarray, scale: int) -> int:
    """max|a| * scale, or a bound `int_dtype` reads the same way: the width of a narrower
    dtype while that stays below 2**62, else two reductions (an int8 -128 counts as 128)."""
    width = 1 << 8 * a.dtype.itemsize - 1 if a.dtype.kind == "i" else INT64_SAFE
    if width * scale < INT64_SAFE:
        return width * scale
    return max(int(a.max()), -int(a.min()), 1) * scale if a.size else scale


def int_matvec(rows: np.ndarray, y, modulus: int | None = None) -> np.ndarray:
    """rows @ y over the integers, exactly, optionally reduced mod `modulus`.

    `rows` is an integer (N, n) array and `y` a length-n sequence, for an
    (N,) result, or an (n, m) integer array, for (N, m).  The result is
    int64 when the bound max|rows| * n * max|y| (`entry_bound`), and the
    modulus, are below 2**62, and an object array of Python ints otherwise.
    The bound is at least the largest row 1-norm times max|y|, which bounds
    every partial sum.  Rows of the result's dtype give one matrix product;
    any other dtype is cast, MATVEC_BLOCK rows at a time past that length,
    to float64 (BLAS) while the bound is below 2**53, where float64 holds
    every partial sum exactly.  Residues come from a floor division, which
    numpy runs without a hardware division per entry, unlike its remainder.
    """
    matrix = isinstance(y, np.ndarray) and y.ndim == 2
    flat = [int(c) for c in (y.ravel().tolist() if matrix else y)]
    bound = entry_bound(rows, rows.shape[1] * max(map(abs, flat), default=0))
    dtype = int_dtype(max(bound, modulus or 0))
    cast = rows.dtype != dtype
    work = np.float64 if cast and dtype is np.int64 and bound < 2**53 else dtype
    rhs = np.array(flat, dtype=work).reshape(y.shape if matrix else -1)
    if not cast:
        out = rows @ rhs
    elif len(rows) <= MATVEC_BLOCK:
        out = (rows.astype(work) @ rhs).astype(dtype, copy=False)
    else:
        out = np.empty((len(rows), *rhs.shape[1:]), dtype=dtype)
        for lo in range(0, len(rows), MATVEC_BLOCK):
            out[lo:lo + MATVEC_BLOCK] = rows[lo:lo + MATVEC_BLOCK].astype(work) @ rhs
    if modulus is not None:
        out -= out // modulus * modulus
    return out
