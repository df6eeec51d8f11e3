"""Finite reflection groups: enumeration, signs, stabilizers, transversals.

Elements are integer matrices acting on the ambient space (all Weyl
elements are integral in the ambient bases used by `rootsys`).  A group is
stored as a stacked `(|W|, n, n)` int8 array with a sign vector, which
bulk work (`charcalc`'s exponent kernel and float Weyl sum) reads
directly.  `WeylElement`s, carrying tuple matrices, signs and generator
words, are built from it only on demand: one at a time by `element(i)`,
or all at once on the first use of `elements`.  The stack comes from one
breadth-first closure routine, `_closure`, which multiplies a whole BFS
level by every generator at once and dedupes on the int8 bytes; the same
bytes key the group's element index.  Enumeration is breadth-first by
word length with ties broken lexicographically by the generator word,
which makes element order, and everything derived from it, fully
deterministic.  The reflections in all positive roots are an int8 stack
built with the group (`WeylGroup.reflections`); stabilizers and coset
transversals are tuples of element indices into the stack, computed
without rational arithmetic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError
from .exactlin import Vec, vsub
from .rootsys import DegenerateSplit, RootSystem, weyl_order
from .torus import TorusPoint

#: Default cap on enumerated group order; admits E7, refuses E8.
DEFAULT_WEYL_CAP = 3_000_000

#: Below this order the stabilizer is found by exhaustive fixed-point
#: filtering; above it by closure of the degenerate-root reflections.
FILTER_THRESHOLD = 100_000

#: Elements per block of the coset transversal's positivity test; bounds
#: its int64 working arrays at a few MB whatever the group order.
TRANSVERSAL_BLOCK = 1 << 16


@dataclass(frozen=True)
class WeylElement:
    """Orthogonal ambient transformation with cached sign (determinant)."""

    matrix: tuple  # tuple of tuple of int, rows
    sign: int
    word: tuple = field(default=(), compare=False)

    def apply(self, v) -> Vec:
        """Exact image of a rational vector."""
        return tuple(
            sum((Fraction(m) * Fraction(x) for m, x in zip(row, v)), Fraction(0))
            for row in self.matrix
        )

    def apply_point(self, h: TorusPoint) -> TorusPoint:
        if h.exact:
            return TorusPoint(self.apply(h.coords), True)
        rad = tuple(
            float(sum(m * x for m, x in zip(row, h.coords))) for row in self.matrix
        )
        return TorusPoint(rad, False)

    def compose(self, other: "WeylElement") -> "WeylElement":
        a = np.array(self.matrix, dtype=np.int64)
        b = np.array(other.matrix, dtype=np.int64)
        return WeylElement(
            _to_tuple(a @ b), self.sign * other.sign, self.word + other.word
        )

    def inverse(self) -> "WeylElement":
        m = np.array(self.matrix, dtype=np.int64)
        inv = np.rint(np.linalg.inv(m)).astype(np.int64)
        if not (m @ inv == np.eye(len(m), dtype=np.int64)).all():
            raise AssertionError("non-integral inverse of a Weyl element")
        return WeylElement(_to_tuple(inv), self.sign, tuple(reversed(self.word)))

    @property
    def is_identity(self) -> bool:
        n = len(self.matrix)
        return all(self.matrix[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def _to_tuple(arr) -> tuple:
    return tuple(tuple(int(x) for x in row) for row in arr)


def identity_element(dim: int) -> WeylElement:
    return WeylElement(_to_tuple(np.eye(dim, dtype=np.int64)), 1, ())


def reflection(rs: RootSystem, alpha) -> WeylElement:
    """Reflection in a root: s_a(x) = x - 2(x|a)/(a|a) * a."""
    alpha = tuple(Fraction(x) for x in alpha)
    if all(x == 0 for x in alpha):
        raise DomainError("cannot reflect in the zero vector")
    if not rs.is_root(alpha):
        raise DomainError(f"{alpha} is not a root of {rs.spec.name}")
    n = rs.ambient_dim
    nn = rs.norm2(alpha)
    coroot_form = [2 * g / nn for g in rs.gram_vec(alpha)]  # x -> 2(x|a)/(a|a)
    rows = []
    for k in range(n):
        row = []
        for j in range(n):
            val = (Fraction(1) if k == j else Fraction(0)) - coroot_form[j] * alpha[k]
            if val.denominator != 1:
                raise AssertionError("reflection matrix not integral")
            row.append(int(val))
        rows.append(tuple(row))
    return WeylElement(tuple(rows), -1, ())


def reflect(rs: RootSystem, alpha, x) -> Vec:
    """Image of x under the reflection in root alpha (exact)."""
    alpha = tuple(Fraction(v) for v in alpha)
    if all(v == 0 for v in alpha):
        raise DomainError("cannot reflect in the zero vector")
    x = tuple(Fraction(v) for v in x)
    c = 2 * rs.inner(x, alpha) / rs.norm2(alpha)
    return vsub(x, tuple(c * a for a in alpha))


def _key(matrix) -> bytes:
    """Index key of an element: the bytes of its int8 matrix."""
    return np.asarray(matrix, dtype=np.int8).tobytes()


def _closure(gens: np.ndarray, capacity: int):
    """Breadth-first closure of the identity under right multiplication by gens.

    `gens` is a `(g, n, n)` int8 stack.  Each BFS level is multiplied by
    every generator in one batched matmul (level-major, generator-minor,
    which is the order a one-element-at-a-time BFS visits), and products
    are deduplicated on their int8 bytes.  int8 products wrap mod 256, so
    they are exact while every entry of the closure fits in int8, which
    holds for the Weyl groups of every root system here.  Returns the
    `(N, n, n)` stack, the index of its elements by key, per element its
    parent index and generator index (-1 for the identity), and the sizes
    of the BFS levels (level k holds the elements of word length k).
    """
    n = gens.shape[1]
    step = n * n
    stack = np.empty((max(capacity, 1), n, n), dtype=np.int8)
    stack[0] = np.eye(n, dtype=np.int8)
    index = {stack[0].tobytes(): 0}
    parent, letter, levels = [-1], [-1], [1]
    lo, count = 0, 1
    while lo < count:
        prods = (stack[lo:count, None] @ gens[None]).reshape(-1, n, n)
        buf = prods.tobytes()
        new = []
        for j in range(len(prods)):
            key = buf[j * step:(j + 1) * step]
            if key not in index:
                index[key] = count + len(new)
                new.append(j)
        if count + len(new) > len(stack):
            grown = np.empty((2 * (count + len(new)), n, n), dtype=np.int8)
            grown[:count] = stack[:count]
            stack = grown
        stack[count:count + len(new)] = prods[new]
        parent.extend(lo + j // len(gens) for j in new)
        letter.extend(j % len(gens) for j in new)
        levels.append(len(new))
        lo, count = count, count + len(new)
    return stack[:count], index, parent, letter, levels[:-1]


def _reflection_stack(rs: RootSystem) -> np.ndarray:
    """The reflections in every positive root as a `(#positive, n, n)` int8 stack.

    In `rs.positive_roots` order.  s_a = I - 2 a (G a)^T / (a|a), on the
    root system's integer rows of the roots and of G a (their scales
    cancel), with the integrality of every entry checked.
    """
    rows, forms = rs._pos_rows, rs._pos_forms
    norms = (rows * forms).sum(axis=1)[:, None, None]
    outer = 2 * rows[:, :, None] * forms[:, None, :]
    if (outer % norms).any():
        raise AssertionError("reflection matrix not integral")
    mats = np.eye(rs.ambient_dim, dtype=np.int64) - outer // norms
    if np.abs(mats).max() > 127:
        raise AssertionError("reflection matrix does not fit int8")
    return mats.astype(np.int8)


class WeylGroup:
    """Fully enumerated reflection group of a root system.

    `stack[i]` is the int8 matrix and `signs[i]` the sign of element i, in
    enumeration order.  Element i is reached from element `parent[i]` by
    the simple reflection `letter[i]`, which gives its word.
    `reflections[j]` is the reflection in the j-th positive root.
    """

    def __init__(self, rs: RootSystem, stack, signs, parent, letter, reflections, index):
        self.rs = rs
        self.stack = stack
        self.signs = signs
        self.reflections = reflections
        self.order = len(stack)
        self._parent = parent
        self._letter = letter
        self._index = index
        self._built = {}  # element index -> WeylElement, built on demand
        self._rows = {}  # one tuple per distinct matrix row, shared across elements
        self._elements = None

    def element(self, i: int) -> WeylElement:
        """Element i, built (with its ancestors along its word) on first request."""
        w = self._built.get(i)
        if w is None:
            word = self.element(self._parent[i]).word + (self._letter[i],) if i else ()
            m = list(map(tuple, self.stack[i].tolist()))
            w = WeylElement(tuple(map(self._rows.setdefault, m, m)), int(self.signs[i]), word)
            self._built[i] = w
        return w

    @property
    def elements(self) -> list:
        """Every element in enumeration order, built on first use."""
        if self._elements is None:
            self._elements = [self.element(i) for i in range(self.order)]
        return self._elements

    @property
    def identity(self) -> WeylElement:
        return self.element(0)

    def index_of(self, w: WeylElement) -> int:
        try:
            return self._index[_key(w.matrix)]
        except KeyError:
            raise DomainError("element does not belong to this Weyl group") from None

    def indices_of(self, stack: np.ndarray) -> list[int]:
        """Group indices of a stack of int8 matrices (DomainError if any is outside)."""
        buf, step = stack.tobytes(), stack[0].size if len(stack) else 0
        try:
            return [self._index[buf[i * step:(i + 1) * step]] for i in range(len(stack))]
        except KeyError:
            raise DomainError("element does not belong to this Weyl group") from None

    def __contains__(self, w: WeylElement) -> bool:
        return _key(w.matrix) in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return self.order


def generate_weyl_group(rs: RootSystem, cap: int | None = None) -> WeylGroup:
    """Breadth-first closure of the simple reflections.

    Raises CapacityError before doing any work if the classification order
    exceeds the cap (default 3e6, or WEYLCHAR_CAP_WEYL from the environment).
    """
    if cap is None:
        cap = int(os.environ.get("WEYLCHAR_CAP_WEYL", DEFAULT_WEYL_CAP))
    expected = weyl_order(rs.spec)
    if expected > cap:
        raise CapacityError(
            f"Weyl group of {rs.spec.name} has order {expected}, above the cap {cap}",
            required=expected,
            cap=cap,
        )
    reflections = _reflection_stack(rs)
    stack, index, parent, letter, levels = _closure(reflections[rs._simple_index], expected)
    if len(stack) != expected:
        raise AssertionError(
            f"enumerated {len(stack)} elements for {rs.spec.name}, expected {expected}"
        )
    # Every generator is a reflection, so the sign is the parity of the word
    # length, which is the BFS level.
    signs = np.repeat(np.array([1, -1] * len(levels), dtype=np.int8)[:len(levels)], levels)
    return WeylGroup(rs, stack, signs, parent, letter, reflections, index)


@dataclass(frozen=True)
class Stabilizer:
    """Subgroup of W fixing a torus point (coordinates mod the period lattice).

    `indices` are its elements' indices into the parent group, increasing,
    and `roots` the positions in `positive_roots` of the degenerate roots,
    whose reflections generate it.  `mode` records how the elements were
    obtained: "filtered" (exhaustive fixed-point scan, ground truth) or
    "closure" (generated by reflections in the degenerate roots; coincides
    with the filtered group for points in the closed fundamental alcove).
    """

    parent: WeylGroup
    indices: tuple
    roots: tuple
    mode: str

    @property
    def elements(self) -> tuple:
        return tuple(self.parent.element(i) for i in self.indices)

    @property
    def order(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.elements)


def fixes_torus_point(rs: RootSystem, w: WeylElement, h0: TorusPoint) -> bool:
    """Whether w(h0) and h0 are the same torus element.

    Equality means the difference is a period of the torus, i.e. lies in
    2*pi times the coroot lattice (the kernel of exp for the simply
    connected compact group, where every dominant integral weight is a
    valid highest weight).
    """
    if not h0.exact:
        raise DomainError("stabilizer computations need an exact torus point")
    diff = vsub(w.apply(h0.coords), h0.coords)
    if all(x == 0 for x in diff):
        return True
    half = tuple(x / 2 for x in diff)
    return rs.in_coroot_lattice(half)


def stabilizer(
    rs: RootSystem,
    group: WeylGroup,
    h0: TorusPoint,
    mode: str = "auto",
    *,
    split: DegenerateSplit | None = None,
) -> Stabilizer:
    """Stabilizer of an exact torus point inside an enumerated Weyl group.

    mode "filtered" scans all of W for fixed points; "closure" generates
    from the reflections in degenerate roots (rows of `group.reflections`,
    so no rational arithmetic); "auto" picks "filtered" up to order 1e5
    and "closure" beyond; "crosscheck" runs both and asserts they agree
    (intended for alcove points, where the identification is a theorem).
    `split` is `rs.degenerate_split(h0)` when the caller has it.
    """
    rs.validate_point(h0)
    if not h0.exact:
        raise DomainError("stabilizer requires an exact torus point")
    if split is None:
        split = rs.degenerate_split(h0)

    def filtered():
        return tuple(i for i, w in enumerate(group.elements) if fixes_torus_point(rs, w, h0))

    def closure():
        stack = _closure(group.reflections[list(split.deg_index)], 16)[0]
        return tuple(sorted(group.indices_of(stack)))

    if mode == "auto":
        mode = "filtered" if group.order <= FILTER_THRESHOLD else "closure"
    if mode == "filtered":
        indices = filtered()
    elif mode == "closure":
        indices = closure()
    elif mode == "crosscheck":
        indices = filtered()
        if indices != closure():
            raise AssertionError(
                "point stabilizer differs from degenerate-reflection closure "
                "(point outside the fundamental alcove?)"
            )
    else:
        raise DomainError(f"unknown stabilizer mode {mode!r}")
    if group.order % len(indices) != 0:
        raise AssertionError("stabilizer order does not divide the group order")
    return Stabilizer(group, indices, split.deg_index, mode)


@dataclass(frozen=True)
class CosetTransversal:
    """Representatives of the left cosets b*W0, as indices into `group`.

    `coset_transversal` gives each coset's first element in enumeration
    order; any other choice of representatives is a valid transversal too.
    """

    group: WeylGroup
    indices: tuple

    @property
    def reps(self) -> tuple:
        return tuple(self.group.element(i) for i in self.indices)

    def __iter__(self):
        return iter(self.reps)

    def __len__(self):
        return len(self.indices)


def coset_transversal(group: WeylGroup, w0: Stabilizer) -> CosetTransversal:
    """One representative per left coset of W0, each minimal in BFS order.

    W0 is the reflection subgroup generated by its degenerate roots, whose
    positive system is those roots.  Each coset b*W0 then holds exactly one
    element of minimal length, the one mapping every degenerate root to a
    positive root (Dyer, "Reflection subgroups of Coxeter systems", J.
    Algebra 135, 1990), and enumeration order is by length first, so that
    element is the coset's first.  A root beta is positive iff
    (beta|rho) > 0, and (w a|rho) = (a|w^-1 rho) = a . (w^T G rho), so the
    test is one integer product over the whole stack.
    """
    rs = group.rs
    rho, _ = rs.int_form(rs.weyl_vector)
    roots = rs._pos_rows[list(w0.roots)].T
    reps = []
    for lo in range(0, group.order, TRANSVERSAL_BLOCK):
        block = group.stack[lo:lo + TRANSVERSAL_BLOCK]
        w_rho = np.zeros((len(block), rs.ambient_dim), dtype=np.int64)
        for k, c in enumerate(rho):  # w^T G rho, one row of w at a time
            w_rho += block[:, k, :].astype(np.int64) * c
        reps.extend((lo + np.flatnonzero((w_rho @ roots > 0).all(axis=1))).tolist())
    if len(reps) * w0.order != group.order:
        raise AssertionError("transversal does not partition the group")
    return CosetTransversal(group, tuple(reps))
