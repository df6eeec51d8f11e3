"""Finite reflection groups: enumeration, signs, stabilizers, transversals.

Elements are integer matrices acting on the ambient space (all Weyl
elements are integral in the ambient bases used by `rootsys`).  A group is
stored as a stacked `(|W|, n, n)` int8 array, a sign vector and an int8
positivity table, which bulk work (`charcalc`'s exponent kernel and float
Weyl sum, coset transversals) reads directly; an element is its index into
the stack.  One breadth-first pass, `_closure`, enumerates the group and
fills all three: it walks the rows G w^-1 (2 rho), stepping from w to
w s_j only where that adds to the length (Humphreys, Reflection Groups and
Coxeter Groups, 1.6-1.7).  Elements come by length in the simple
reflections s_a = I - a c_a^T (`RootSystem._coroot_rows`), and within a
length in the order a one-element-at-a-time BFS visits (parent first, then
generator), which makes element order, and all derived from it, fully
deterministic.

A stabilizer is never enumerated.  It is described by the simple roots of
its degenerate subsystem and its order, both read off the root data; the
coset transversal is one positivity test of those simple roots against
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
from .exactlin import INT64_SAFE, Vec, mat_vec, vsub
from .rootsys import DegenerateSplit, RootSystem, check_weyl_cap
from .torus import TorusPoint

#: Default cap on enumerated group order; admits E7, refuses E8.
DEFAULT_WEYL_CAP = 3_000_000

#: Elements per block of the coset transversal's positivity test; bounds
#: its int64 working arrays at a few MB whatever the group order.
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
    """Breadth-first closure of the identity under right multiplication by reflections.

    Generator j is s_j = I - a_j c_j^T for the simple root a_j and its
    coroot row c_j.  Element w is walked as p = G w^-1 (2 rho), for the
    integer gram G, from G 2 rho (`RootSystem._two_rho_form`); 2 rho is
    regular, so p determines w.  w s_j is longer than w iff w a_j > 0,
    i.e. a_j . p > 0, and its row is then p - (c_j . x) G a_j for
    x = w^-1 (2 rho), c_j . x = 2 a_j . p / (a_j . G a_j).  Only those
    ascents are taken, so all candidates lie in the next level and the
    only duplicates are among them.  Candidates are taken level-major,
    generator-minor, the order a one-element-at-a-time BFS visits, and
    each new element is the first candidate with its key, sum_j M_j p_j
    for M_j = prod_{i>j} (2 B_i + 1) and |p_j| <= B_j = isqrt(G_jj
    (2 rho|2 rho)) (Cauchy-Schwarz).  Keys lie within +-offset, offset =
    sum_j M_j B_j: CapacityError, before any allocation, unless 2 * offset
    is below 2**62.

    Each level writes its rows of the int8 stack, w s_j = w - (w a_j) c_j^T
    (int8 arithmetic wraps mod 256, so it is exact while every entry fits
    int8, as on every Weyl group here), and of the int8 positivity table,
    the rows p, checked to fit.  Both are allocated once, at `size` (the
    classification's order; more elements raise AssertionError).  Returns
    the stack, the table and the BFS level sizes (level k holds the
    elements of word length k).
    """
    simple = rs._simple_index
    roots, coroots = rs._pos_rows[simple], rs._coroot_rows[simple]
    ga = roots @ np.array(rs._gram_int, dtype=np.int64)  # rows G a_j
    norms = (ga * roots).sum(axis=1)
    p = rs._two_rho_form
    vv = int(p @ rs._pos_rows.sum(axis=0))
    bounds = [math.isqrt(g * vv) for g in np.diag(rs._gram_int).tolist()]
    radix = [math.prod(2 * b + 1 for b in bounds[j + 1:]) for j in range(len(bounds))]
    offset = sum(m * b for m, b in zip(radix, bounds))
    if 2 * offset >= INT64_SAFE:
        raise CapacityError(
            f"Weyl group element keys of {rs.spec.name} need "
            f"{(2 * offset).bit_length()} bits; int64 keys allow 62",
            required=2 * offset, cap=INT64_SAFE,
        )
    radix = np.array(radix, dtype=np.int64)
    step = ga @ radix  # key(p) - key(p - G a_j)
    n = roots.shape[1]
    roots8, coroots8 = roots.astype(np.int8), coroots.astype(np.int8)
    stack, table = np.empty((size, n, n), np.int8), np.empty((size, n), np.int8)
    stack[0], rows = np.eye(n, dtype=np.int8), p[None, :]
    keys, lo, levels = rows @ radix, 0, [1]
    while True:
        if np.abs(rows).max() > np.iinfo(np.int8).max:
            raise AssertionError("G w^-1 (2 rho) does not fit int8")
        hi = lo + len(rows)
        table[lo:hi] = rows
        pair = rows @ roots.T  # a_j . p per element and generator
        parent, letter = np.nonzero(pair > 0)  # the ascents, in BFS order
        if not len(parent):
            break
        coef = 2 * pair[parent, letter] // norms[letter]  # c_j . x
        cand = keys[parent] - coef * step[letter]
        order = cand.argsort()
        ordered = cand[order]
        runs = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        new = np.sort(np.minimum.reduceat(order, runs))  # first of each key
        if hi + len(new) > size:
            raise AssertionError(f"enumerated more than the expected {size} elements")
        parent, letter, keys = parent[new], letter[new], cand[new]
        rows = rows[parent] - coef[new][:, None] * ga[letter]
        w, a, c = stack[lo + parent], roots8[letter], coroots8[letter]
        stack[hi:hi + len(new)] = w - (w @ a[:, :, None]) * c[:, None, :]
        levels.append(len(new))
        lo = hi
    return stack[:hi], table[:hi], levels


class WeylGroup:
    """Fully enumerated reflection group of a root system.

    `stack[i]` is the int8 matrix and `signs[i]` the sign of element i, in
    enumeration order.  `positivity[i]` is the int8 row w_i^T G 2 rho =
    G w_i^-1 (2 rho) that `_closure` walked (at most 34 in magnitude on E7):
    w_i a > 0 for a root a iff a . positivity[i] = (w_i a|2 rho) > 0.
    """

    def __init__(self, rs: RootSystem, stack, signs, positivity):
        self.rs = rs
        self.stack = stack
        self.signs = signs
        self.positivity = positivity
        self.order = len(stack)


def generate_weyl_group(rs: RootSystem, cap: int | None = None) -> WeylGroup:
    """Breadth-first closure of the simple reflections.

    Raises CapacityError before any work if the classification order
    exceeds the cap (default 3e6, or WEYLCHAR_CAP_WEYL from the
    environment), if |W| (n^2 + n + 5) bytes (stack, positivity table, sign
    and per-level work) exceed physical memory, or if the element keys
    would not fit in int64 (`_closure`).  A WEYLCHAR_CAP_WEYL that is not
    an integer of at least 1 is a ConfigError, also before any work.
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
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise CapacityError(
            f"enumerating the Weyl group of {rs.spec.name} takes about {need} bytes, "
            f"above the {have} bytes of physical memory",
            required=need, cap=have,
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


def fixes_torus_point(rs: RootSystem, w, h0: TorusPoint) -> bool:
    """Whether w(h0) and h0 are the same torus element.

    w is an integer matrix (a row of a group's `stack`, say), applied to
    h0's coordinates in Fractions.  Equality means the difference is a
    period of the torus, i.e. lies in 2*pi times the coroot lattice (the
    kernel of exp for the simply connected compact group, where every
    dominant integral weight is a valid highest weight).
    """
    if not h0.exact:
        raise DomainError("stabilizer computations need an exact torus point")
    diff = vsub(mat_vec(w, h0.coords), h0.coords)
    if all(x == 0 for x in diff):
        return True
    half = tuple(x / 2 for x in diff)
    return rs.in_coroot_lattice(half)


def stabilizer(
    rs: RootSystem,
    group: WeylGroup,
    h0: TorusPoint,
    *,
    split: DegenerateSplit | None = None,
) -> Stabilizer:
    """Stabilizer of an exact torus point inside an enumerated Weyl group.

    Read off the degenerate roots Phi0+ (those with (a|h0) in 2*pi*Z), with
    no element of W0 formed.  A degenerate root a is simple when s_a keeps
    every other degenerate root b positive: (s_a b|2 rho) = (b|2 rho) -
    (c_a . b)(a|2 rho) > 0, on G 2 rho (`RootSystem._two_rho_form`).  The order is
    Macdonald's Poincare product at t = 1, |W0| = prod_a (ht0(a) + 1) /
    ht0(a) over Phi0+, with ht0(a) = 1/2 sum_b c_b . a (b in Phi0+), the
    pairing of a with half the sum of Phi0+'s coroots, which is a's height
    in W0's own simple roots (Macdonald, Math. Ann. 199, 1972; Humphreys,
    Reflection Groups and Coxeter Groups, 3.20).  Both come from one
    product of the coroot rows with the root rows.  `split` is
    `rs.degenerate_split(h0)` when the caller has it.
    """
    rs.validate_point(h0)
    if not h0.exact:
        raise DomainError("stabilizer requires an exact torus point")
    if split is None:
        split = rs.degenerate_split(h0)
    deg = np.array(split.deg_index, dtype=np.intp)
    roots = rs._pos_rows[deg]
    pair = rs._coroot_rows[deg] @ roots.T  # pair[a, b] = c_a . b
    height = roots @ rs._two_rho_form
    moved = height[None, :] - pair * height[:, None]  # (s_a b|2 rho)
    simple = ((moved > 0) | np.eye(len(deg), dtype=bool)).all(axis=1)
    ht0 = (pair.sum(axis=0) // 2).tolist()
    order = math.prod(h + 1 for h in ht0) // math.prod(ht0)
    if group.order % order != 0:
        raise AssertionError("stabilizer order does not divide the group order")
    return Stabilizer(order, tuple(deg[simple].tolist()))


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
    (w a|2 rho) = a . (w^T G 2 rho), so the test is one integer product of
    those roots with the group's `positivity` table, filled by the
    closure, taken `TRANSVERSAL_BLOCK` rows at a time so the table is never
    cast to int64 whole.  When W0 = W the identity, element 0, is the one
    representative, and no scan is made.
    """
    if w0.order == group.order:
        return np.zeros(1, dtype=np.intp)
    roots = group.rs._pos_rows[list(w0.roots)].T
    table = group.positivity
    minimal = np.empty(group.order, dtype=bool)
    for lo in range(0, group.order, TRANSVERSAL_BLOCK):
        block = table[lo:lo + TRANSVERSAL_BLOCK].astype(np.int64)
        minimal[lo:lo + len(block)] = (block @ roots > 0).all(axis=1)
    reps = np.flatnonzero(minimal)
    if len(reps) * w0.order != group.order:
        raise AssertionError("transversal does not partition the group")
    return reps
