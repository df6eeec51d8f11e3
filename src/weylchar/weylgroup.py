"""Finite reflection groups: enumeration, signs, stabilizers, transversals.

Elements are integer matrices acting on the ambient space (all Weyl
elements are integral in the ambient bases used by `rootsys`).  A group is
stored as a stacked `(|W|, n, n)` int8 array with a sign vector, which
bulk work (`charcalc`'s exponent kernel and float Weyl sum) reads
directly; an element is its index into that stack.  One breadth-first
closure routine, `_closure`, enumerates the group.  It runs on int64
element keys alone (`ElementKey`: w is keyed by the integer vector
w^-1 (2 rho)), one integer product per BFS level for every generator at
once, and dedupes by sorting the keys; the matrices are then formed once
per element (`_products`).  Enumeration is breadth-first by length in the
generators, and within a level in the order a one-element-at-a-time BFS
visits (parent first, then generator), which makes element order, and
everything derived from it, fully deterministic.  Generators are the
simple reflections s_a = I - a c_a^T from the root system's coroot table
(`RootSystem._coroot_rows`).

A stabilizer is never enumerated.  It is described by the simple roots of
its degenerate subsystem and its order, both read off the root data; the
coset transversal is one positivity test of those simple roots against
the group's int8 table of w^T G 2 rho (`WeylGroup.positivity`, built on
first use and kept with the group), and every other use of the stabilizer
goes through the transversal.

The stabilizer of a torus point is the reflection group of its degenerate
roots at every point, not only in the fundamental alcove: in a simply
connected compact group the centralizer of a torus element is connected
(Steinberg, "Torsion in reductive groups", Adv. Math. 15, 1975), so its
Weyl group, the point's stabilizer in W, is generated by the reflections
in the roots alpha with (alpha|h0) in 2*pi*Z.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError
from .exactlin import INT64_SAFE, Vec, adjugate, mat_vec, vsub
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


class ElementKey:
    """Injective int64 keys of the elements of a Weyl group.

    An element w is keyed by the integer vector w^-1 v, v = 2 rho (the sum
    of the positive roots).  v is regular, so distinct elements give
    distinct vectors, and every vector lies in the orbit W v, whose
    coordinates obey |x_j| <= B_j = floor(sqrt((G^-1)_jj (v|v))) by
    Cauchy-Schwarz.  The key is the mixed-radix code sum_j M_j (x_j + B_j)
    with M_j = prod_{i>j} (2 B_i + 1), in [0, 2 * offset] for offset =
    sum_j M_j B_j; no intermediate of `_closure` exceeds 2 * offset in
    magnitude either.  Construction raises CapacityError unless 2 * offset
    is below 2**62, which leaves int64 a bit to spare.
    """

    def __init__(self, rs: RootSystem):
        self.v = rs._pos_rows.sum(axis=0)
        self.gv = np.array(rs._gram_int, dtype=np.int64) @ self.v
        adj, det = adjugate(rs._gram_int)
        vv = int(self.v @ self.gv)
        bounds = [math.isqrt(adj[j][j] * vv // det) for j in range(len(adj))]
        radix = [1]
        for b in reversed(bounds[1:]):
            radix.insert(0, radix[0] * (2 * b + 1))
        self.offset = sum(m * b for m, b in zip(radix, bounds))
        if 2 * self.offset >= INT64_SAFE:
            raise CapacityError(
                f"Weyl group element keys of {rs.spec.name} need "
                f"{(2 * self.offset).bit_length()} bits; int64 keys allow 62",
                required=2 * self.offset, cap=INT64_SAFE,
            )
        self.radix = np.array(radix, dtype=np.int64)

    def of_vectors(self, x: np.ndarray) -> np.ndarray:
        """Keys of orbit vectors x = w^-1 v, rows of an (N, n) integer array."""
        return x @ self.radix + self.offset


def _in_sorted(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether each x lies in the sorted array `table`."""
    if not len(table):
        return np.zeros(len(x), dtype=bool)
    return table.take(table.searchsorted(x), mode="clip") == x


def _closure(roots: np.ndarray, coroots: np.ndarray, key: ElementKey, size: int):
    """Breadth-first closure of the identity under right multiplication by reflections.

    Generator j is s_j = I - a_j c_j^T for the integer rows a_j = roots[j]
    and c_j = coroots[j].  BFS runs on element keys alone, with no matrix:
    the key of w s_j is that of s_j x = x - (c_j . x) a_j for x = w^-1 v,
    so a level's candidate keys are one integer product, key(w) minus
    (c_j . x) (M . a_j), for every generator at once; that difference is
    key(w) - key(w s_j), so it stays within [-2, 2] * offset.
    Candidates are taken level-major, generator-minor, which is the order
    a one-element-at-a-time BFS visits, and each new element is the first
    candidate with its key.  Since the generators are involutions, w s_j
    lies in the level of w or in one of its two neighbours, so a candidate
    is new unless its key is in the current or the previous level.
    Duplicates are found by sorting the candidate keys.

    Returns per element its parent index (int32) and generator index
    (int8), -1 for the identity, and the sizes of the BFS levels (level k
    holds the elements of word length k).  Both index arrays are allocated
    once, at `size` (the order the classification gives; finding more
    elements raises AssertionError), and filled a level at a time: they
    live beside the stack that `_products` fills, which is where
    enumeration peaks in memory, so they are narrow and not scattered over
    per-level pieces.  int32 holds every index: the largest group of rank
    <= 8, E8, has 696729600 < 2**31 elements, and an int8 stack of 2**31
    elements of rank 9 or more would take over 170 GB.
    """
    g = len(roots)
    step = roots @ key.radix  # M . a_j
    x = key.v[None, :]
    parents, letters, levels = np.empty(size, np.int32), np.empty(size, np.int8), [1]
    parents[0] = letters[0] = -1
    top = 1
    keys = key.of_vectors(x)  # of the last level
    prev, cur = keys[:0], keys
    lo = 0
    while g:  # no generators: the identity alone
        pair = x @ coroots.T  # (c_j . x) per element and generator
        cand = (keys[:, None] - pair * step).ravel()
        order = cand.argsort()
        ordered = cand[order]
        first = np.empty(len(ordered), dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        runs = np.flatnonzero(first)
        distinct = ordered[runs]
        fresh = ~(_in_sorted(prev, distinct) | _in_sorted(cur, distinct))
        if not fresh.any():
            break
        new = np.sort(np.minimum.reduceat(order, runs)[fresh])
        parent, letter = np.divmod(new, g)
        x = x[parent] - pair.ravel()[new][:, None] * roots[letter]
        if top + len(new) > size:
            raise AssertionError(f"enumerated more than the expected {size} elements")
        parents[top:top + len(new)] = lo + parent
        letters[top:top + len(new)] = letter
        top += len(new)
        keys = cand[new]
        levels.append(len(new))
        lo += len(pair)
        prev, cur = cur, distinct[fresh]
    return parents[:top], letters[:top], levels


def _products(roots, coroots, parent, letter, levels) -> np.ndarray:
    """The `(N, n, n)` int8 stack with element i = element parent[i] @ s_letter[i].

    One rank-one update per element, w s_j = w - (w a_j) c_j^T with the
    generators of `_closure`, a BFS level at a time (parents lie in
    earlier levels).  int8 arithmetic wraps mod 256, so it is exact while
    every entry fits in int8, which holds for the Weyl groups of every
    root system here.
    """
    n = roots.shape[1]
    roots, coroots = roots.astype(np.int8), coroots.astype(np.int8)
    stack = np.empty((len(parent), n, n), dtype=np.int8)
    stack[0] = np.eye(n, dtype=np.int8)
    lo = levels[0]
    for size in levels[1:]:
        w = stack[parent[lo:lo + size]]
        j = letter[lo:lo + size]
        stack[lo:lo + size] = w - (w @ roots[j][:, :, None]) * coroots[j][:, None, :]
        lo += size
    return stack


class WeylGroup:
    """Fully enumerated reflection group of a root system.

    `stack[i]` is the int8 matrix and `signs[i]` the sign of element i, in
    enumeration order; `key` is the group's `ElementKey`, and `positivity`
    the table that coset transversals test, built on first use.
    """

    def __init__(self, rs: RootSystem, stack, signs, key):
        self.rs = rs
        self.stack = stack
        self.signs = signs
        self.order = len(stack)
        self.key = key

    @functools.cached_property
    def positivity(self) -> np.ndarray:
        """The `(|W|, n)` int8 table whose row i is w_i^T G 2 rho.

        A root a has w_i a positive iff a . row i = (w_i a|2 rho) > 0.  Row
        i is G w_i^-1 (2 rho) (times the gram's denominator), the pairings of
        one element of the orbit W (2 rho) with the basis vectors: at most
        34 in magnitude on E7 and 32 on F4, and checked to fit int8.  Built
        on first use, a `TRANSVERSAL_BLOCK` of elements at a time.
        """
        n = self.rs.ambient_dim
        table = np.empty((self.order, n), dtype=np.int8)
        for lo in range(0, self.order, TRANSVERSAL_BLOCK):
            block = self.stack[lo:lo + TRANSVERSAL_BLOCK]
            rows = np.zeros((len(block), n), dtype=np.int64)
            for k, c in enumerate(self.key.gv.tolist()):  # a row of w at a time
                rows += block[:, k, :].astype(np.int64) * c
            if np.abs(rows).max() > np.iinfo(np.int8).max:
                raise AssertionError("w^T G 2 rho does not fit int8")
            table[lo:lo + len(block)] = rows
        return table


def generate_weyl_group(rs: RootSystem, cap: int | None = None) -> WeylGroup:
    """Breadth-first closure of the simple reflections.

    Raises CapacityError before doing any work if the classification order
    exceeds the cap (default 3e6, or WEYLCHAR_CAP_WEYL from the environment),
    or if the group's element keys would not fit in int64 (`ElementKey`).
    """
    if cap is None:
        cap = int(os.environ.get("WEYLCHAR_CAP_WEYL", DEFAULT_WEYL_CAP))
    expected = check_weyl_cap(rs.spec, cap)
    key = ElementKey(rs)
    gens = rs._pos_rows[rs._simple_index], rs._coroot_rows[rs._simple_index]
    parent, letter, levels = _closure(*gens, key, expected)
    if len(parent) != expected:
        raise AssertionError(
            f"enumerated {len(parent)} elements for {rs.spec.name}, expected {expected}"
        )
    stack = _products(*gens, parent, letter, levels)
    # Every generator is a reflection, so the sign is the parity of the word
    # length, which is the BFS level.
    signs = np.repeat(np.array([1, -1] * len(levels), dtype=np.int8)[:len(levels)], levels)
    return WeylGroup(rs, stack, signs, key)


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
    (c_a . b)(a|2 rho) > 0, on G 2 rho (`ElementKey.gv`).  The order is
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
    height = roots @ group.key.gv
    moved = height[None, :] - pair * height[:, None]  # (s_a b|2 rho)
    simple = ((moved > 0) | np.eye(len(deg), dtype=bool)).all(axis=1)
    ht0 = (pair.sum(axis=0) // 2).tolist()
    order = math.prod(h + 1 for h in ht0) // math.prod(ht0)
    if group.order % order != 0:
        raise AssertionError("stabilizer order does not divide the group order")
    return Stabilizer(order, tuple(deg[simple].tolist()))


@dataclass(frozen=True)
class CosetTransversal:
    """Representatives of the left cosets b*W0, as indices into `group`.

    `coset_transversal` gives each coset's first element in enumeration
    order; any other choice of representatives is a valid transversal too.
    """

    group: WeylGroup
    indices: tuple

    def __len__(self):
        return len(self.indices)


def coset_transversal(group: WeylGroup, w0: Stabilizer) -> CosetTransversal:
    """One representative per left coset of W0, each minimal in BFS order.

    W0 is the reflection subgroup generated by its degenerate roots, whose
    positive system is those roots.  Each coset b*W0 then holds exactly one
    element of minimal length, the one mapping every simple root of that
    system (`Stabilizer.roots`) to a positive root (Dyer, "Reflection
    subgroups of Coxeter systems", J. Algebra 135, 1990), and enumeration
    order is by length first, so that element is the coset's first.  A
    root beta is positive iff (beta|2 rho) > 0, and (w a|2 rho) =
    a . (w^T G 2 rho), so the test is one integer product of those roots
    with the group's `positivity` table, built once per group, taken
    `TRANSVERSAL_BLOCK` rows at a time so the table is never cast to int64
    whole.  When W0 = W the identity, element 0, is the one
    representative, and no scan is made.
    """
    if w0.order == group.order:
        return CosetTransversal(group, (0,))
    roots = group.rs._pos_rows[list(w0.roots)].T
    table = group.positivity
    reps = []
    for lo in range(0, group.order, TRANSVERSAL_BLOCK):
        block = table[lo:lo + TRANSVERSAL_BLOCK].astype(np.int64)
        reps.extend((lo + np.flatnonzero((block @ roots > 0).all(axis=1))).tolist())
    if len(reps) * w0.order != group.order:
        raise AssertionError("transversal does not partition the group")
    return CosetTransversal(group, tuple(reps))
