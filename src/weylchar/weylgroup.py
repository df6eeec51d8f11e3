"""Finite reflection groups: enumeration, signs, stabilizers, transversals.

Elements are integer matrices acting on the ambient space (all Weyl
elements are integral in the ambient bases used by `rootsys`).  A group is
stored as a stacked `(|W|, n, n)` int8 array, a sign vector and an int8
positivity table, which bulk work (`charcalc`'s exponent kernel and float
Weyl sum, coset transversals) reads directly; an element is its index into
the stack.  One pass, `_closure`, enumerates the group and fills all
three, forming each element s_j w once, from the one parent w for which j
is its smallest left descent (Humphreys, Reflection Groups and Coxeter
Groups, 1.6-1.7), with no keys and no dedupe.  Elements come by length in
the simple reflections s_a = I - a c_a^T (`RootSystem._coroot_rows`), and
within a length in the order of their least reduced words, the order a
one-element-at-a-time BFS visits, which makes element order, and all
derived from it, fully deterministic.

A stabilizer is never enumerated, nor is W to find it.  It is described
by the simple roots of its degenerate subsystem and its order, both read
off the root data; the coset transversal is one positivity test of those simple roots against
the group's table of w^T G 2 rho (`WeylGroup.positivity`), which gives the
representatives as one increasing array of indices into the stack, and
every other use of the stabilizer goes through that array.

The stabilizer of a torus point is the reflection group of its degenerate
roots at every point, not only in the fundamental alcove: in a simply
connected compact group the centralizer of a torus element is connected
(Steinberg, "Torsion in reductive groups", Adv. Math. 15, 1975), so its
Weyl group, the point's stabilizer in W, is generated by the reflections
in the roots alpha with (alpha|h0) in 2*pi*Z.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ConfigError, DomainError
from .exactlin import Vec, vsub
from .rootsys import DegenerateSplit, RootSystem, check_weyl_cap, weyl_order
from .utils import physical_memory

#: Default cap on enumerated group order; admits E7, refuses E8.
DEFAULT_WEYL_CAP = 3_000_000

#: Elements per block of the coset transversal's positivity test; bounds
#: its float64 working arrays at a few MB whatever the group order.
TRANSVERSAL_BLOCK = 1 << 16


def reflect(rs: RootSystem, alpha, x) -> Vec:
    """Image of x under the reflection in root alpha (exact)."""
    alpha = tuple(Fraction(v) for v in alpha)
    if all(v == 0 for v in alpha):
        raise DomainError("cannot reflect in the zero vector")
    x = tuple(Fraction(v) for v in x)
    c = 2 * rs.inner(x, alpha) / rs.norm2(alpha)
    return vsub(x, tuple(c * a for a in alpha))


def _closure(rs: RootSystem, size: int):
    """Every element of W, each formed once, from its canonical parent.

    Generator j is s_j = I - a_j c_j^T (simple root a_j, coroot row c_j).
    Element w is walked as its pairings q_i = a_i . G w (2 rho) with the
    simple roots (G the integer gram).  s_j w is longer than w iff q_j > 0,
    and its pairings are then q - (2 q_j / a_j . G a_j) (a_i . G a_j)_i.
    It is kept only if no i < j pairs negatively with it: j is then its
    smallest left descent, the first letter of its least reduced word, so
    each element has one parent and nothing is deduplicated (Casselman,
    Invent. Math. 116, 1994; Stembridge, MSJ Memoirs 11, 2001).  Children
    come generator-major, then parent-minor: by length, then by least
    reduced word, the order a one-element-at-a-time BFS by right
    multiplication visits.

    Each child's int8 stack row s_j w = w - a_j (c_j^T w) and positivity row
    w^T G 2 rho - (a_j . G a_j) (c_j^T w)^T come from the one row c_j^T w,
    formed in int16 (exact, as checked up front) and checked to fit int8
    before they are stored.  Both arrays are allocated once, at `size` (the
    classification's order; more elements raise AssertionError).  Returns
    them and the level sizes (level k holds the elements of length k).
    """
    simple = rs._simple_index
    roots, coroots = rs._pos_rows[simple], rs._coroot_rows[simple]
    if np.abs(rs._two_rho_form).max() > 127 or 128 * (
            1 + np.abs(roots).max() * np.abs(coroots).sum(axis=1).max()) >= 2**15:
        raise AssertionError("G 2 rho does not fit int8, or s_j w is not exact in int16")
    ga = roots @ np.array(rs._gram_int, dtype=np.int64)  # rows G a_j
    cross = ga @ roots.T  # a_i . G a_j
    norms = np.diag(cross)
    n = roots.shape[1]
    gens = list(zip(roots.astype(np.int16), coroots.astype(np.int16), map(np.flatnonzero, roots)))
    stack, table = np.empty((size, n, n), np.int8), np.empty((size, n), np.int8)
    stack[0], table[0] = np.eye(n, dtype=np.int8), rs._two_rho_form
    q, lo, hi, levels = (roots @ rs._two_rho_form)[None, :], 0, 1, [1]
    while True:
        new, children = hi, []
        for j, (a, c, support) in enumerate(gens):
            par = np.flatnonzero(q[:, j] > 0)  # the w with s_j w longer
            qp = q[par]
            coef = 2 * qp[:, j] // norms[j]  # c_j . w 2 rho
            # keep s_j w when no i < j pairs negatively with it
            ok = (qp[:, :j] > coef[:, None] * cross[j, :j]).all(axis=1)
            par, qp, coef = par[ok], qp[ok], coef[ok]
            if new + len(par) > size:
                raise AssertionError(f"enumerated more than the expected {size} elements")
            w = stack[lo + par]
            cw = c @ w  # the rows c_j^T w
            rows = table[lo + par] - norms[j] * cw
            moved = w[:, support] - a[support, None] * cw[:, None, :]  # the rows s_j changes
            if max(np.abs(moved).max(initial=0), np.abs(rows).max(initial=0)) > 127:
                raise AssertionError("a Weyl group element does not fit int8")
            w[:, support] = moved
            stack[new:new + len(par)], table[new:new + len(par)] = w, rows
            children.append(qp - coef[:, None] * cross[j])
            new += len(par)
        if new == hi:
            return stack[:hi], table[:hi], levels
        q, lo, hi = np.concatenate(children), hi, new
        levels.append(len(q))


class WeylGroup:
    """Fully enumerated reflection group of a root system.

    `stack[i]` is the int8 matrix and `signs[i]` the sign of element i, in
    enumeration order.  `positivity[i]` is the int8 row w_i^T G 2 rho =
    G w_i^-1 (2 rho) that `_closure` fills (at most 34 in magnitude on E7):
    w_i a > 0 for a root a iff a . positivity[i] = (w_i a|2 rho) > 0.
    """

    def __init__(self, rs: RootSystem, stack, signs, positivity):
        self.rs = rs
        self.stack = stack
        self.signs = signs
        self.positivity = positivity
        self.order = len(stack)


def generate_weyl_group(rs: RootSystem, cap: int | None = None) -> WeylGroup:
    """The whole group, enumerated by `_closure`.

    Raises CapacityError before any work if the classification order
    exceeds the cap (default 3e6, or WEYLCHAR_CAP_WEYL from the
    environment), or if |W| (n^2 + n + 5) bytes (stack, positivity table,
    sign and per-level work; 177 MB on E7, where enumeration adds 177 MB to
    the peak RSS of `weyl`) exceed physical memory.  A WEYLCHAR_CAP_WEYL
    that is not an integer of at least 1 is a ConfigError, before any work.
    """
    if cap is None:
        text = os.environ.get("WEYLCHAR_CAP_WEYL", str(DEFAULT_WEYL_CAP))
        cap = int(text) if text.strip().isdecimal() else 0
        if cap < 1:
            raise ConfigError(f"WEYLCHAR_CAP_WEYL must be an integer of at least 1, not {text!r}",
                              field="WEYLCHAR_CAP_WEYL")
    expected = check_weyl_cap(rs.spec, cap)
    n = rs.ambient_dim
    need = expected * (n * n + n + 5)
    have = physical_memory()
    if need > have:
        raise CapacityError(
            f"enumerating the Weyl group of {rs.spec.name} takes about {need} bytes, "
            f"above the {have} bytes of physical memory"
        )
    stack, positivity, levels = _closure(rs, expected)
    if len(stack) != expected:
        raise AssertionError(
            f"enumerated {len(stack)} elements for {rs.spec.name}, expected {expected}"
        )
    # Every generator is a reflection, so the sign is the parity of the word
    # length, which is the BFS level.
    signs = np.repeat(np.array([1, -1] * len(levels), dtype=np.int8)[:len(levels)], levels)
    return WeylGroup(rs, stack, signs, positivity)


@dataclass(frozen=True)
class Stabilizer:
    """Subgroup W0 of W fixing a torus point (coordinates mod the period lattice).

    `order` is |W0| and `roots` the positions in `positive_roots` of the
    simple roots of the degenerate subsystem, whose reflections generate
    W0 at every point of a simply connected group (Steinberg, Adv. Math.
    15, 1975).
    """

    order: int
    roots: tuple


def stabilizer(rs: RootSystem, split: DegenerateSplit) -> Stabilizer:
    """Stabilizer W0 of the exact torus point of `split`, with no element of W formed.

    Read off the degenerate roots Phi0+ (those with (a|h0) in 2*pi*Z), with
    no group enumerated.  Each a in Phi0+ has the height ht0(a) = 1/2 sum_b
    c_b . a (b in Phi0+), its pairing with half the sum of Phi0+'s coroots,
    which is a's height in W0's own simple roots: the simple roots are the
    a with ht0(a) = 1.  The order is Macdonald's Poincare product at t = 1,
    |W0| = prod_a (ht0(a) + 1) / ht0(a) over Phi0+ (Macdonald, Math. Ann.
    199, 1972; Humphreys, Reflection Groups and Coxeter Groups, 3.20).
    Both come from one product of the root rows with the sum of the coroot
    rows; |W0| must divide `weyl_order`.  `split` is `rs.degenerate_split(h0)`.
    """
    if not split.torus_point.exact:
        raise DomainError("stabilizer requires an exact torus point")
    deg = split.deg_index
    ht0 = (rs._pos_rows[list(deg)] @ rs._coroot_rows[list(deg)].sum(axis=0) // 2).tolist()
    order = math.prod(h + 1 for h in ht0) // math.prod(ht0)
    if weyl_order(rs.spec) % order != 0:
        raise AssertionError("stabilizer order does not divide the group order")
    return Stabilizer(order, tuple(i for i, h in zip(deg, ht0) if h == 1))


def coset_transversal(group: WeylGroup, w0: Stabilizer) -> np.ndarray:
    """One representative per left coset b*W0, each minimal in BFS order.

    The representatives are indices into `group`, as one increasing 1-D
    `np.intp` array.  W0 is the reflection subgroup generated by its
    degenerate roots, whose positive system is those roots.  Each coset
    b*W0 then holds exactly one element of minimal length, the one mapping
    every simple root of that system (`Stabilizer.roots`) to a positive
    root (Dyer, "Reflection subgroups of Coxeter systems", J. Algebra 135,
    1990), and enumeration order is by length first, so that element is
    the coset's first.  A root beta is positive iff (beta|2 rho) > 0, and
    (w a|2 rho) = a . (w^T G 2 rho), so the test is one float64 product
    (exact: its integer terms stay far below 2**53) of those roots with the
    group's `positivity` table, filled by the closure, taken
    `TRANSVERSAL_BLOCK` rows at a time so the table is never cast whole.
    """
    roots = group.rs._pos_rows[list(w0.roots)].astype(float)
    table = group.positivity
    minimal = np.empty(group.order, dtype=bool)
    for lo in range(0, group.order, TRANSVERSAL_BLOCK):
        block = table[lo:lo + TRANSVERSAL_BLOCK].T.astype(float)
        np.logical_and.reduce(roots @ block > 0, axis=0, out=minimal[lo:lo + block.shape[1]])
    reps = np.flatnonzero(minimal)
    if len(reps) * w0.order != group.order:
        raise AssertionError("transversal does not partition the group")
    return reps
