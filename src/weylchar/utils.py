"""Shared numeric helpers: deterministic reductions, complex arithmetic, angles and
the physical-memory bound of the memory guards.

The float helpers work elementwise on numpy arrays (or scalars) and
reproduce, bit for bit, the Python expressions the per-point code has
always evaluated: `ordered_dot` sums left to right from 0.0 like the
builtin `sum` of CPython 3.11 (3.12 compensates float sums), `remainder`
is CPython's `math.remainder`, and `cmul` and `cquot` are CPython's
complex product and quotient written out in real arithmetic (numpy's own
complex `*` and `/` round differently).
"""

from __future__ import annotations

import math
import os

import numpy as np


def physical_memory() -> int:
    """Bytes of physical memory on this machine, the bound of the memory guards."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def pairwise_sum(values):
    """Deterministic pairwise (tree) sum of a sequence of numbers, as a Python number.

    The reduction order depends only on the input order, never on chunking
    or thread count, so repeated runs are bit-identical.
    """
    vals = np.asarray(values)
    if len(vals) == 0:
        return 0.0
    while len(vals) > 1:
        pairs = vals[0:len(vals) - 1:2] + vals[1::2]
        vals = np.concatenate([pairs, vals[-1:]]) if len(vals) % 2 else pairs
    return vals.tolist()[0]


def ordered_dot(a, b) -> np.ndarray:
    """sum(x * y for x, y in zip(a, b)) over the last axis, elementwise.

    Leading axes broadcast.  The terms are added left to right starting
    from 0.0, the order of the builtin `sum`, never by BLAS.  `a` is
    promoted to float one column at a time, before the column meets the
    broadcast, which is exact for integers below 2**53: a large int8 stack
    is never copied whole, and a small one is cast once per column rather
    than once per broadcast row.
    """
    a = np.asarray(a)
    b = np.asarray(b, dtype=float)
    out = 0.0 + a[..., 0].astype(float, copy=False) * b[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j].astype(float, copy=False) * b[..., j]
    return out


def as_complex(re, im) -> np.ndarray:
    """The complex array re + i*im, built without any arithmetic.

    Parts of different shapes are broadcast together first; parts of one
    shape are read as they are.
    """
    re, im = np.asarray(re), np.asarray(im)
    if re.shape != im.shape:
        re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def cmul(a, b) -> np.ndarray:
    """Elementwise a * b with Python's complex product (reals are x + 0j)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return as_complex(a.real * b.real - a.imag * b.imag,
                      a.real * b.imag + a.imag * b.real)


def cquot(a, b) -> np.ndarray:
    """Elementwise a / b with Python's complex quotient (Smith's algorithm).

    Raises ZeroDivisionError if any divisor is zero, as Python does.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if ((br == 0) & (bi == 0)).any():
        raise ZeroDivisionError("complex division by zero")
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return as_complex(re, im)


def sin_half_pi(num: int, den: int) -> float:
    """sin(pi*q/2) for q = num/den with integers num and den > 0, reduced mod 4 first."""
    return math.sin(math.pi * ((num % (4 * den)) / den) / 2)


def remainder(x, y: float) -> np.ndarray:
    """math.remainder(x, y) elementwise: CPython's exact fmod-based algorithm."""
    x = np.asarray(x, dtype=float)
    absx, absy = np.abs(x), abs(y)
    m = np.fmod(absx, absy)
    c = absy - m
    tie = m - 2.0 * np.fmod(0.5 * (absx - m), absy)  # the even multiple on a tie
    return np.copysign(1.0, x) * np.where(m < c, m, np.where(m > c, -c, tie))


def fold_angle(x) -> np.ndarray:
    """Fold float angles into (-pi, pi], elementwise."""
    r = remainder(x, 2 * math.pi)
    # remainder returns values in [-pi, pi]; move -pi to +pi
    return np.where(r <= -math.pi, r + 2 * math.pi, r)


def sin_half_angle(x) -> np.ndarray:
    """sin(x/2) with x reduced mod 4*pi first (the half-angle period), elementwise."""
    return np.sin(remainder(x, 4 * math.pi) / 2)
