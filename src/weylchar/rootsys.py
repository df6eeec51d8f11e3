"""Root systems for the simple families A..G with exact rational arithmetic.

Classical families live in their standard ambient coordinates: A_{N-1} on
the sum-zero hyperplane of R^N with the trace form, B_n/C_n/D_n in R^n
with the Euclidean form.  Exceptional families are realized in the basis
of their own simple roots; the bilinear form is then the symmetrized
Cartan form normalized so long roots have squared length 2.  Only ratios
of pairings enter any downstream formula, so the normalization is free.
Roots have integer coordinates in both kinds of basis, so a root system
is built from integer rows with integer matrix products; its public data
are exact tuples of Fractions.  Weights given by fundamental coordinates
are formed from the integer rows of the fundamental weights: sum a_i omega_i
is one integer product of the coefficients' numerators, over their common
denominator, with those rows, and one Fraction per coordinate at the end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import mul

import numpy as np

from .errors import CapacityError, ConfigError, DomainError, StructureError
from .exactlin import (
    EXACT_TYPES, Vec, adjugate, common_denominator, dot, int_matvec, mat_vec, narrowest, vadd,
    vzero,
)
from .torus import TorusPoint
from .utils import fold_angle, ordered_dot, physical_memory, sin_half_angle, sin_half_pi

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

#: Floating pairings within this distance of 2*pi*Z count as degenerate.
EPS_SNAP = 1e-9

_NOT_FINITE = "floating torus points need finite coordinates"

#: Peak bytes a root-system build takes per entry (positive root x ambient
#: coordinate) of its root tables: 128-134 measured on A100, B100 and A150.
BUILD_BYTES_PER_ENTRY = 128

_EXCEPTIONAL_CARTAN = {
    # 2(a_i|a_j)/(a_j|a_j); rows indexed by i.
    ("G", 2): [[2, -3], [-1, 2]],
    ("F", 4): [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
}


def _e_series_cartan(rank: int) -> list[list[int]]:
    # Bourbaki numbering: chain 1-3-4-5-...-rank, with node 2 hanging off 4.
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    chain = [0] + list(range(2, rank))
    for a, b in zip(chain, chain[1:]):
        c[a][b] = c[b][a] = -1
    c[1][3] = c[3][1] = -1
    return c


@dataclass(frozen=True)
class RootSystemSpec:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        n = self.rank
        bounds = {"A": n >= 1, "B": n >= 2, "C": n >= 2, "D": n >= 2,
                  "E": n in (6, 7, 8), "F": n == 4, "G": n == 2}
        if not isinstance(n, int) or not bounds[self.family]:
            raise ConfigError(f"rank {n} out of bounds for family {self.family}")

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"


def positive_root_count(spec: RootSystemSpec) -> int:
    n = spec.rank
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "G": 6, "F": 24, "E": {6: 36, 7: 63, 8: 120}.get(n)}[spec.family]


def weyl_order(spec: RootSystemSpec) -> int:
    n = spec.rank
    if spec.family == "A":
        return math.factorial(n + 1)
    if spec.family in ("B", "C"):
        return 2**n * math.factorial(n)
    if spec.family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840,
            ("E", 7): 2903040, ("E", 8): 696729600}[(spec.family, n)]


def _beyond_float_range(what: str) -> DomainError:
    """The refusal of a finite floating point whose `what` leaves the float range."""
    return DomainError(
        f"floating torus point out of range: {what} overflows the largest float "
        f"{sys.float_info.max!r}"
    )


def _check_float_sum(coords) -> None:
    """DomainError unless the finite type A floating coordinates sum to zero within EPS_SNAP."""
    try:
        total = math.fsum(coords)
    except OverflowError:  # a partial sum left the float range
        raise _beyond_float_range("the coordinate sum") from None
    if abs(total) > EPS_SNAP:
        raise DomainError(
            "type A floating torus points must have zero coordinate sum, "
            f"to within {EPS_SNAP}; the sum is {total!r}"
        )


def check_weyl_cap(spec: RootSystemSpec, cap: int) -> int:
    """|W| from the classification, or CapacityError if it exceeds the cap."""
    order = weyl_order(spec)
    if order > cap:
        raise CapacityError(
            f"Weyl group of {spec.name} has order {order}, above the cap {cap}"
        )
    return order


@dataclass(frozen=True)
class DegenerateSplit:
    """Positive roots split by (alpha|h0) = 0 mod 2*pi versus not.

    `deg_index` holds the positions of the degenerate roots in
    `RootSystem.positive_roots` order and `sines` the sin((alpha|h0)/2) of
    the non-degenerate ones, in order.  For an exact point, (alpha_i|h0) =
    pi * pairings[i] / den for the i-th positive root; a floating point
    carries no pairings, and its degenerate roots are those within the snap
    tolerance of a wall.  The rest is a function of the point, which the
    pairings fix (the roots span the space), so they hash an exact split.
    """

    torus_point: TorusPoint
    deg: tuple[Vec, ...] = field(hash=False)
    ndeg: tuple[Vec, ...] = field(hash=False)
    deg_index: tuple[int, ...] = field(hash=False)
    sines: tuple[float, ...] = field(hash=False)
    pairings: tuple[int, ...] | None = field(hash=False)
    den: int = field(hash=False)

    def __hash__(self):
        return hash(self.torus_point if self.pairings is None else (self.pairings, self.den))


class RootSystem:
    """Immutable root-system data plus exact geometry helpers.

    Construction runs on integer rows: the positive roots, their forms
    G*alpha and G, each over one denominator, and the integral coroot rows
    c_a = 2 G a / (a|a) (s_a = I - a c_a^T).  Everything else is integer
    matrix products over those rows, and the public attributes are tuples
    of Fractions rebuilt from them.

    Positive roots are kept in increasing height, ties broken by their
    coordinates.  Heights and `root_coeffs` come from the fundamental
    coweights w_i, (w_i|a_j) = delta_ij: the coefficient of the simple
    root a_i in a root r is (w_i|r).
    """

    def __init__(self, spec: RootSystemSpec, simple_roots, positive_roots, gram):
        """`simple_roots` and `positive_roots` (in any order) are integer rows,
        `gram` the rational matrix of the form on the ambient space."""
        self.spec = spec
        self.rank = spec.rank
        simple = np.array(simple_roots, dtype=np.int64)
        pos = np.array(positive_roots, dtype=np.int64)
        self.ambient_dim = n = simple.shape[1]
        self.gram = tuple(tuple(Fraction(g) for g in row) for row in gram)
        gram_int, self._gram_den = common_denominator(x for row in self.gram for x in row)
        g = np.array(gram_int, dtype=np.int64).reshape(n, n)
        self._gram_int = tuple(map(tuple, g.tolist()))
        self._gram_is_identity = bool(self._gram_den == 1 and (g == np.eye(n)).all())
        # a = S g S^T is the form on the simple roots S times the gram's
        # denominator d, so the coweights are d a^-1 S = d adj(a) S / det(a).
        a = simple @ g @ simple.T
        norms = np.diag(a)
        adj, det = adjugate(a.tolist())
        cow, cow_den = _over_least_den(self._gram_den * np.array(adj) @ simple, det)
        # Integer forms of the positive roots, (alpha|h) = (rows @ h) / den,
        # and the coefficients (w_i|alpha) over the simple roots.
        forms, forms_den = _over_least_den(pos @ g, self._gram_den)
        coeffs, rem = np.divmod(forms @ cow.T, forms_den * cow_den)
        if rem.any() or (coeffs < 0).any() or (coeffs @ simple != pos).any():
            raise AssertionError("positive root not a nonnegative integer combination")
        heights, rows = coeffs.sum(axis=1).tolist(), pos.tolist()
        order = sorted(range(len(rows)), key=lambda i: (heights[i], rows[i]))
        self._pos_rows, self._pos_forms, self._pos_forms_den = pos[order], forms[order], forms_den
        # c_a = 2 G a / (a|a) on the integer rows of a and G a, whose scale cancels.
        norms2 = (self._pos_rows * self._pos_forms).sum(axis=1)[:, None]
        if (2 * self._pos_forms % norms2).any():
            raise AssertionError("coroot row not integral")
        self._coroot_rows = 2 * self._pos_forms // norms2
        # G 2 rho times the gram's denominator d: (a|2 rho) = a . row / d,
        # positive iff the root a is; the Weyl group's closure starts from it.
        self._two_rho_form = g @ self._pos_rows.sum(axis=0)
        # The same forms in floats, for floating points: (alpha|h) = rows . h.
        # Division of two exact floats rounds correctly, like float(Fraction).
        self._pos_forms_float = self._pos_forms / forms_den

        self.simple_roots = tuple(_fraction_rows(simple))
        self.positive_roots = tuple(_fraction_rows(self._pos_rows))
        self.root_coeffs = dict(zip(self.positive_roots, map(tuple, coeffs[order].tolist())))
        self.weyl_vector = _fraction_rows([self._pos_rows.sum(axis=0)], 2)[0]
        # (alpha|rho) = p / D, read by every Weyl dimension
        self.rho_pairings = self.root_pairings(self.weyl_vector)
        self._coweights = tuple(_fraction_rows(cow, cow_den))
        # omega_i = w_i (a_i|a_i) / 2 as integer rows over one denominator;
        # their columns give Sum_i a_i omega_i as one integer product.
        fund, self._fund_den = _over_least_den(cow * norms[:, None],
                                               2 * self._gram_den * cow_den)
        self._fund_cols = tuple(map(tuple, fund.T.tolist()))
        self._fundamental_weights = tuple(_fraction_rows(fund, self._fund_den))
        self._pos_set = frozenset(self.positive_roots)
        index = dict(zip(map(tuple, self._pos_rows.tolist()), range(len(rows))))
        self._simple_index = [index[r] for r in map(tuple, simple.tolist())]
        simple_coroots = self._coroot_rows[self._simple_index]
        # as Python ints, for the Dynkin labels of one weight at a time
        self._simple_coroots = tuple(map(tuple, simple_coroots.tolist()))
        # 2(a_i|a_j)/(a_j|a_j) = a_i . c_j
        self.cartan_matrix = tuple(map(tuple, (simple @ simple_coroots.T).tolist()))
        self._check_invariants(g)
        self._pos_forms = narrowest(self._pos_forms)  # read by every degenerate split

    # -- construction-time checks -------------------------------------------------

    def _check_invariants(self, g: np.ndarray):
        """Checks on the integer gram g and the root data built from it."""
        if len(self.positive_roots) != positive_root_count(self.spec):
            raise AssertionError(
                f"{self.spec.name}: got {len(self.positive_roots)} positive roots, "
                f"expected {positive_root_count(self.spec)}"
            )
        if (g != g.T).any():
            raise AssertionError("gram form is not symmetric")
        adjugate(g.tolist())  # positive definite: its leading minors are positive
        # c_a . 2 rho = 2 for every simple a, 2 rho the sum of the positive roots
        rho2 = self._pos_rows.sum(axis=0)
        if (self._coroot_rows[self._simple_index] @ rho2 != 2).any():
            raise AssertionError("Weyl vector pairing with a simple root is not 1")

    # -- exact geometry -----------------------------------------------------------

    def inner(self, x, y) -> Fraction:
        """Exact invariant bilinear form on the ambient space."""
        if len(x) != self.ambient_dim or len(y) != self.ambient_dim:
            raise DomainError(
                f"dimension mismatch: expected {self.ambient_dim}-vectors"
            )
        if self._gram_is_identity:
            return dot(x, y)
        return dot(x, mat_vec(self.gram, y))

    def norm2(self, x) -> Fraction:
        return self.inner(x, x)

    def is_positive_root(self, x) -> bool:
        return tuple(x) in self._pos_set

    @property
    def highest_root(self) -> Vec:
        return max(self.positive_roots, key=lambda r: (sum(self.root_coeffs[r]), r))

    def dynkin_labels(self, lam) -> tuple[list[int], int]:
        """Integers k_i and D > 0 with 2(lam|a_i)/(a_i|a_i) = k_i / D, simple a_i."""
        v, den = common_denominator(lam)
        if len(v) != self.ambient_dim:
            raise DomainError(f"dimension mismatch: expected {self.ambient_dim}-vectors")
        return [sum(map(mul, row, v)) for row in self._simple_coroots], den

    def is_dominant_integral(self, lam) -> bool:
        labels, den = self.dynkin_labels(lam)
        return all(k >= 0 and k % den == 0 for k in labels)

    def int_form(self, v) -> tuple[list[int], int]:
        """Integers y_j and D > 0 with (x|v) = sum_j x_j y_j / D for every x: G v scaled."""
        v, den = common_denominator(v)
        if self._gram_is_identity:
            return v, den
        return [sum(map(mul, row, v)) for row in self._gram_int], \
            den * self._gram_den

    def validate_weight(self, lam) -> Vec:
        """lam as a tuple of exact coordinates, checked against the ambient space.

        Coordinates that are already `Fraction` or `int` are kept as they
        are; any other entry goes through `Fraction`.
        """
        lam = tuple(x if type(x) in EXACT_TYPES else Fraction(x) for x in lam)
        if len(lam) != self.ambient_dim:
            raise DomainError(f"weight must have {self.ambient_dim} coordinates")
        if self.spec.family == "A" and sum(lam) != 0:
            raise DomainError("type A weights must have exactly zero coordinate sum")
        return lam

    def validate_point(self, h: TorusPoint) -> TorusPoint:
        if h.dim != self.ambient_dim:
            raise DomainError(
                f"torus point has {h.dim} coordinates, ambient needs {self.ambient_dim}"
            )
        if not (h.exact or all(map(math.isfinite, h.coords))):
            raise DomainError(_NOT_FINITE)
        if self.spec.family == "A":
            if h.exact:
                if sum(h.coords) != 0:
                    raise DomainError("type A exact torus points must have zero coordinate sum")
            else:
                _check_float_sum(h.coords)
        return h

    def fundamental_weights(self) -> tuple[Vec, ...]:
        """omega_i in span(simple roots) with 2(omega_i|a_j)/(a_j|a_j) = delta_ij."""
        return self._fundamental_weights

    def fundamental_coweights(self) -> tuple[Vec, ...]:
        """w_i in span(simple roots) with (w_i|a_j) = delta_ij."""
        return self._coweights

    def weight_from_fundamental(self, coeffs) -> Vec:
        """Ambient weight Sum a_i omega_i from fundamental coordinates.

        The coefficients are read like `exactlin.common_denominator` reads
        them; the result is a tuple of Fractions.
        """
        nums, den = common_denominator(coeffs)
        if len(nums) != self.rank:
            raise DomainError(f"expected {self.rank} fundamental coordinates")
        den *= self._fund_den
        return tuple(Fraction(sum(map(mul, col, nums)), den) for col in self._fund_cols)

    # -- torus pairings and degeneracy ---------------------------------------------

    def root_pairings(self, v) -> tuple[list[int], int]:
        """Integers p_i and D > 0 with (alpha_i|v) = p_i / D for the positive roots.

        One integer matvec of the scaled positive roots against the scaled
        rational vector v, in `positive_roots` order.
        """
        v, den = common_denominator(v)
        return int_matvec(self._pos_forms, v).tolist(), self._pos_forms_den * den

    def degenerate_split(self, h0: TorusPoint) -> DegenerateSplit:
        """Split positive roots by whether (alpha|h0) lies in 2*pi*Z.

        Exact points split exactly, on their integer pairings, which the
        split keeps; floating points use the snap tolerance.  Either kind
        reads its pairings in one pass, which also gives the sines.
        """
        self.validate_point(h0)
        if h0.exact:
            return self._exact_split(h0, *self.root_pairings(h0.coords))
        pairings = self.float_pairings(h0.coords)
        return self._split(h0, np.abs(fold_angle(pairings)) < EPS_SNAP,
                           sin_half_angle(pairings).tolist())

    def _exact_split(self, h0: TorusPoint, pairings, den: int) -> DegenerateSplit:
        """The split of the exact point h0 from its integer root pairings (`root_pairings`)."""
        return self._split(h0, [p % (2 * den) == 0 for p in pairings],
                           [sin_half_pi(p, den) for p in pairings], tuple(pairings), den)

    def _split(self, h0: TorusPoint, flags, sines, pairings=None, den=1) -> DegenerateSplit:
        roots, keep = self.positive_roots, [not f for f in flags]
        return DegenerateSplit(h0, tuple(compress(roots, flags)), tuple(compress(roots, keep)),
                               tuple(compress(range(len(keep)), flags)),
                               tuple(compress(sines, keep)), pairings, den)

    def float_pairings(self, coords) -> np.ndarray:
        """(alpha|h) for the floating point h of radians `coords`, per positive root alpha.

        Each pairing is the float sum of float(G alpha)_j * h_j, added in
        coordinate order.  A point with a non-finite coordinate, or with a
        pairing (or, in type A, a partial coordinate sum) beyond the float
        range, is refused with a DomainError.
        """
        point = np.asarray(coords, dtype=float)
        if point.shape != (self.ambient_dim,):
            raise DomainError(f"torus points need {self.ambient_dim} coordinates")
        if not np.isfinite(point).all():
            raise DomainError(_NOT_FINITE)
        if self.spec.family == "A":
            _check_float_sum(point.tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            pairings = ordered_dot(self._pos_forms_float, point)
        if not np.isfinite(pairings).all():
            raise _beyond_float_range("a root pairing (alpha|h)")
        return pairings

    # -- Dynkin combinatorics -------------------------------------------------------

    def _dynkin_bfs(self, start: int) -> dict:
        """{node: predecessor} over a breadth-first walk of the Dynkin diagram from `start`."""
        prev = {start: None}
        frontier = [start]
        while frontier:
            nxt = []
            for a in frontier:
                for b in range(self.rank):
                    if b not in prev and self.cartan_matrix[a][b] < 0:
                        prev[b] = a
                        nxt.append(b)
            frontier = nxt
        return prev

    @property
    def is_simple(self) -> bool:
        """Connected Dynkin diagram; only D2 among constructible specs fails."""
        return len(self._dynkin_bfs(0)) == self.rank

    def require_simple(self, op: str, reason: str = ""):
        """StructureError naming op unless simple; `reason` is appended in parentheses."""
        if not self.is_simple:
            raise StructureError(
                f"{op} requires a simple root system; {self.spec.name} has a "
                "disconnected Dynkin diagram" + (f" ({reason})" if reason else "")
            )

    def dynkin_path(self, i: int, j: int) -> list[int]:
        """Shortest chain of simple-root indices from i to j (inclusive)."""
        self.require_simple("dynkin_path")
        n = self.rank
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError(f"simple-root index out of range for rank {n}")
        prev = self._dynkin_bfs(i)
        path = [j]
        while path[-1] != i:
            path.append(prev[path[-1]])
        return path[::-1]

    def chain_sum_root(self, chain) -> Vec:
        """Sum of the simple roots along a Dynkin path; always a positive root."""
        chain = list(chain)
        if not chain:
            raise DomainError("empty chain")
        if len(set(chain)) != len(chain):
            raise DomainError("chain revisits a node")
        for a, b in zip(chain, chain[1:]):
            if self.inner(self.simple_roots[a], self.simple_roots[b]) >= 0:
                raise DomainError(
                    f"chain {chain} is not a Dynkin path: nodes {a},{b} not adjacent"
                )
        total = vzero(self.ambient_dim)
        for idx in chain:
            total = vadd(total, self.simple_roots[idx])
        if not self.is_positive_root(total):
            raise StructureError(f"chain sum {total} is not a positive root")
        return total

    # -- serialization ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        def fmt_vec(v):
            return [str(x) for x in v]

        return {
            "family": self.spec.family,
            "rank": self.spec.rank,
            "ambient_dim": self.ambient_dim,
            "simple_roots": [fmt_vec(r) for r in self.simple_roots],
            "positive_roots": [fmt_vec(r) for r in self.positive_roots],
            "cartan_matrix": [list(row) for row in self.cartan_matrix],
            "weyl_vector": fmt_vec(self.weyl_vector),
            "gram": [fmt_vec(row) for row in self.gram],
        }

    def __repr__(self):
        return f"RootSystem({self.spec.name})"

    def __hash__(self):
        return hash((self.spec.family, self.spec.rank))

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self.spec == other.spec


def _over_least_den(rows, dens) -> tuple[np.ndarray, int]:
    """Integer rows r_i / d_i (d_i > 0) over their least common denominator.

    Returns (R, D) with R_i = r_i * D / d_i: the numerators and the
    denominator that `exactlin.common_denominator` gives for the entries.
    """
    rows = np.asarray(rows, dtype=np.int64)
    dens = np.broadcast_to(np.asarray(dens, dtype=np.int64), (len(rows),))
    g = np.gcd.reduce(np.column_stack([dens, rows]), axis=1)
    reduced = dens // g
    den = math.lcm(*reduced.tolist())
    return rows // g[:, None] * (den // reduced)[:, None], den


def _fraction_rows(rows, den: int = 1) -> list[Vec]:
    """Integer rows over a denominator as tuples of Fractions."""
    rows = np.asarray(rows).tolist()
    value = {x: Fraction(x, den) for x in set().union(*rows)}
    return [tuple(map(value.__getitem__, r)) for r in rows]


def _classical_data(spec: RootSystemSpec):
    """Simple and positive roots of A..D as integer rows, and the identity gram."""
    fam, n = spec.family, spec.rank
    dim = n + 1 if fam == "A" else n
    e = np.eye(dim, dtype=np.int64)
    i, j = np.triu_indices(dim, 1)
    chain = e[:-1] - e[1:]
    if fam == "A":
        return chain, e[i] - e[j], e.tolist()
    # the last simple root, and the roots other than e_i -+ e_j: none for D
    last, short = {"B": (e[-1], e), "C": (2 * e[-1], 2 * e), "D": (e[-2] + e[-1], e[:0])}[fam]
    simple = np.vstack([chain[:n - 1], last])
    return simple, np.vstack([e[i] - e[j], e[i] + e[j], short]), e.tolist()


def _exceptional_data(spec: RootSystemSpec):
    """E, F and G in the basis of their simple roots, with integer root rows."""
    fam, n = spec.family, spec.rank
    cartan = _EXCEPTIONAL_CARTAN.get((fam, n)) or _e_series_cartan(n)
    # Symmetrize: (a_i|a_j) = d_j * C_ij with d_i = |a_i|^2 / 2; propagate the
    # length ratios over the diagram, then normalize long roots to length^2 2.
    d = [None] * n
    d[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                # symmetry of d_j C_ij forces d_j / d_i = C_ji / C_ij
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                frontier.append(j)
    top = max(d)
    d = [x / top for x in d]
    gram = [[d[j] * cartan[i][j] for j in range(n)] for i in range(n)]
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    # Positive roots: the simple roots closed under s_i beta = beta -
    # <beta, alpha_i^vee> alpha_i, keeping images with nonnegative coefficients.
    roots, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            c = sum(b * row[i] for b, row in zip(beta, cartan))  # <beta, alpha_i^vee>
            image = beta[:i] + (beta[i] - c,) + beta[i + 1:]
            if min(image) >= 0 and image not in roots:
                roots.add(image)
                todo.append(image)
    return simple, list(roots), gram


def _check_build_memory(spec: RootSystemSpec) -> None:
    """CapacityError when building `spec` would take more than physical memory.

    The estimate is BUILD_BYTES_PER_ENTRY times the entries of one root
    table, positive roots times ambient coordinates; nothing is allocated.
    """
    entries = positive_root_count(spec) * (spec.rank + 1 if spec.family == "A" else spec.rank)
    need, have = BUILD_BYTES_PER_ENTRY * entries, physical_memory()
    if need > have:
        raise CapacityError(
            f"root system {spec.name} needs about {need} bytes for its tables "
            f"({entries} root entries), above the {have} bytes of physical memory"
        )


@lru_cache(maxsize=None)
def _build_cached(family: str, rank: int) -> RootSystem:
    spec = RootSystemSpec(family, rank)
    _check_build_memory(spec)
    if family in ("A", "B", "C", "D"):
        simple, positive, gram = _classical_data(spec)
    else:
        simple, positive, gram = _exceptional_data(spec)
    return RootSystem(spec, simple, positive, gram)


def build_root_system(spec: RootSystemSpec | str) -> RootSystem:
    """Construct the root system for a family/rank specification.

    Accepts either a RootSystemSpec or a name like "A2".
    """
    if isinstance(spec, str):
        fam, num = spec[0].upper(), spec[1:]
        if not num.isdigit():
            raise ConfigError(f"cannot parse group name {spec!r}")
        spec = RootSystemSpec(fam, int(num))
    return _build_cached(spec.family, spec.rank)
