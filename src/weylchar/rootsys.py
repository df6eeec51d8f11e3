"""Root systems for the simple families A..G with exact rational arithmetic.

Classical families live in their standard ambient coordinates: A_{N-1} on
the sum-zero hyperplane of R^N with the trace form, B_n/C_n/D_n in R^n
with the Euclidean form.  Exceptional families are realized in the basis
of their own simple roots; the bilinear form is then the symmetrized
Cartan form normalized so long roots have squared length 2.  Only ratios
of pairings enter any downstream formula, so the normalization is free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import exactlin
from .errors import ConfigError, DomainError, StructureError
from .exactlin import (
    Vec, common_denominator, dot, int_matvec, mat_vec, vadd, vscale, vsub, vsum, vzero,
)
from .torus import TorusPoint
from .utils import fold_angle, ordered_dot

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

#: Floating pairings within this distance of 2*pi*Z count as degenerate.
EPS_SNAP = 1e-9

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


@dataclass(frozen=True)
class DegenerateSplit:
    """Positive roots split by (alpha|h0) = 0 mod 2*pi versus not.

    For an exact point, (alpha_i|h0) = pi * pairings[i] / den for the i-th
    positive root in `RootSystem.positive_roots` order; a floating point
    carries no pairings.  The hash is the point's: the rest is a function
    of it.
    """

    torus_point: TorusPoint
    deg: tuple[Vec, ...] = field(hash=False)
    ndeg: tuple[Vec, ...] = field(hash=False)
    pairings: tuple[int, ...] | None = field(default=None, hash=False)
    den: int = field(default=1, hash=False)

    @property
    def deg_index(self) -> tuple[int, ...]:
        """Positions of the degenerate roots in `positive_roots` (exact points)."""
        return tuple(i for i, p in enumerate(self.pairings) if p % (2 * self.den) == 0)


class RootSystem:
    """Immutable root-system data plus exact geometry helpers.

    Positive roots are kept in increasing height, ties broken by their
    coordinates.  Heights and `root_coeffs` come from one exact solve, for
    the fundamental coweights w_i, (w_i|a_j) = delta_ij: the coefficient of
    the simple root a_i in a root r is (w_i|r).
    """

    def __init__(self, spec: RootSystemSpec, simple_roots, positive_roots, gram):
        self.spec = spec
        self.simple_roots = tuple(simple_roots)
        self.gram = tuple(tuple(Fraction(g) for g in row) for row in gram)
        self.ambient_dim = len(self.simple_roots[0])
        n = self.ambient_dim
        self._gram_is_identity = all(
            self.gram[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )
        self.rank = spec.rank
        self._coweights = _coweights(self.simple_roots, self.gram)
        self._fundamental_weights = tuple(
            vscale(self.norm2(a) / 2, w) for a, w in zip(self.simple_roots, self._coweights)
        )
        # Coefficients of each positive root over the simple roots.
        coeffs = {r: self._simple_coefficients(r) for r in positive_roots}
        self.positive_roots = tuple(sorted(positive_roots, key=lambda r: (sum(coeffs[r]), r)))
        self.root_coeffs = {r: coeffs[r] for r in self.positive_roots}
        self.weyl_vector = vscale(Fraction(1, 2), vsum(self.positive_roots, self.ambient_dim))
        self.cartan_matrix = tuple(
            tuple(int(2 * self.inner(a, b) / self.inner(b, b)) for b in self.simple_roots)
            for a in self.simple_roots
        )
        self._root_set = frozenset(self.positive_roots) | frozenset(
            tuple(-x for x in r) for r in self.positive_roots
        )
        self._pos_set = frozenset(self.positive_roots)
        self._simple_index = [self.positive_roots.index(a) for a in self.simple_roots]
        # Integer forms, each over one denominator, so that per-call pairings
        # are integer products: the positive roots themselves (alpha =
        # rows / den), their rows G*alpha ((alpha|h) = (rows @ h) / den), the
        # simple coroot rows 2 G a / (a|a) (Dynkin labels) and G itself.
        roots, self._pos_rows_den = common_denominator(
            x for a in self.positive_roots for x in a
        )
        self._pos_rows = np.array(roots, dtype=np.int64).reshape(-1, n)
        forms, self._pos_forms_den = common_denominator(
            x for a in self.positive_roots for x in self.gram_vec(a)
        )
        self._pos_forms = np.array(forms, dtype=np.int64).reshape(-1, n)
        coroots, self._coroot_den = common_denominator(
            x for a in self.simple_roots for x in vscale(2 / self.norm2(a), self.gram_vec(a))
        )
        self._coroot_forms = np.array(coroots, dtype=np.int64).reshape(-1, n)
        gram_int, self._gram_den = common_denominator(x for row in self.gram for x in row)
        self._gram_int = tuple(tuple(gram_int[i * n:(i + 1) * n]) for i in range(n))
        # The same rows in floats, for floating points: (alpha|h) = rows . h.
        self._pos_forms_float = np.array(
            [[float(x) for x in self.gram_vec(a)] for a in self.positive_roots]
        )
        self._check_invariants()

    def _simple_coefficients(self, r) -> tuple[int, ...]:
        """Nonnegative integer coefficients of a positive root over the simple roots."""
        coeffs = [self.inner(w, r) for w in self._coweights]
        recon = vzero(self.ambient_dim)
        for c, a in zip(coeffs, self.simple_roots):
            recon = vadd(recon, vscale(c, a))
        if recon != tuple(r) or any(c.denominator != 1 or c < 0 for c in coeffs):
            raise AssertionError("positive root not a nonnegative integer combination")
        return tuple(int(c) for c in coeffs)

    # -- construction-time checks -------------------------------------------------

    def _check_invariants(self):
        if len(self.positive_roots) != positive_root_count(self.spec):
            raise AssertionError(
                f"{self.spec.name}: got {len(self.positive_roots)} positive roots, "
                f"expected {positive_root_count(self.spec)}"
            )
        n = self.ambient_dim
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise AssertionError("gram form is not symmetric")
        # positive definiteness via leading principal minors, exactly
        for k in range(1, n + 1):
            if _det([row[:k] for row in self.gram[:k]]) <= 0:
                raise AssertionError("gram form is not positive definite")
        for a in self.simple_roots:
            if 2 * self.inner(self.weyl_vector, a) != self.inner(a, a):
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

    def gram_vec(self, y) -> Vec:
        """G y, so that (x|y) is the plain dot product of x with it."""
        if self._gram_is_identity:
            return tuple(y)
        return mat_vec(self.gram, y)

    def norm2(self, x) -> Fraction:
        return self.inner(x, x)

    def is_root(self, x) -> bool:
        return tuple(x) in self._root_set

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
        return int_matvec(self._coroot_forms, v).tolist(), den * self._coroot_den

    def is_integral_weight(self, lam) -> bool:
        """The lattice condition 2(lam|alpha)/(alpha|alpha) in Z, simple alphas."""
        labels, den = self.dynkin_labels(lam)
        return all(k % den == 0 for k in labels)

    def is_dominant_integral(self, lam) -> bool:
        labels, den = self.dynkin_labels(lam)
        return all(k >= 0 and k % den == 0 for k in labels)

    def int_form(self, v) -> tuple[list[int], int]:
        """Integers y_j and D > 0 with (x|v) = sum_j x_j y_j / D for every x: G v scaled."""
        v, den = common_denominator(v)
        if self._gram_is_identity:
            return v, den
        return [sum(g * x for g, x in zip(row, v)) for row in self._gram_int], \
            den * self._gram_den

    def validate_weight(self, lam) -> Vec:
        lam = tuple(Fraction(x) for x in lam)
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
        if h.exact and self.spec.family == "A" and sum(h.coords) != 0:
            raise DomainError("type A exact torus points must have zero coordinate sum")
        return h

    def fundamental_weights(self) -> tuple[Vec, ...]:
        """omega_i in span(simple roots) with 2(omega_i|a_j)/(a_j|a_j) = delta_ij."""
        return self._fundamental_weights

    def fundamental_coweights(self) -> tuple[Vec, ...]:
        """w_i in span(simple roots) with (w_i|a_j) = delta_ij."""
        return self._coweights

    def weight_from_fundamental(self, coeffs) -> Vec:
        """Ambient weight Sum a_i omega_i from fundamental coordinates."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.rank:
            raise DomainError(f"expected {self.rank} fundamental coordinates")
        v = vzero(self.ambient_dim)
        for c, w in zip(coeffs, self.fundamental_weights()):
            v = vadd(v, vscale(c, w))
        return v

    def coroot(self, alpha) -> Vec:
        return vscale(2 / self.norm2(alpha), alpha)

    def in_coroot_lattice(self, v) -> bool:
        """Exact membership of v in the integer span of the simple coroots."""
        basis = tuple(self.coroot(a) for a in self.simple_roots)
        return exactlin.in_integer_span(basis, self.gram, tuple(Fraction(x) for x in v))

    # -- torus pairings and degeneracy ---------------------------------------------

    def pairing_coeff(self, mu, h: TorusPoint) -> Fraction:
        """q with (mu|h) = pi*q for an exact torus point."""
        if not h.exact:
            raise DomainError("exact pairing requires an exact torus point")
        return self.inner(tuple(Fraction(x) for x in mu), h.coords)

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
        split keeps; floating points use the snap tolerance.
        """
        self.validate_point(h0)
        deg, ndeg = [], []
        if h0.exact:
            pairings, den = self.root_pairings(h0.coords)
            for a, p in zip(self.positive_roots, pairings):
                (ndeg if p % (2 * den) else deg).append(a)
            return DegenerateSplit(h0, tuple(deg), tuple(ndeg), tuple(pairings), den)
        for a, d in zip(self.positive_roots, self.near_walls([h0.coords])[0].tolist()):
            (deg if d else ndeg).append(a)
        return DegenerateSplit(h0, tuple(deg), tuple(ndeg))

    def near_walls(self, points) -> np.ndarray:
        """Per floating point (rows of radians) and positive root alpha: whether
        (alpha|h) lies within the snap tolerance of 2*pi*Z."""
        return np.abs(fold_angle(self.float_pairings(points))) < EPS_SNAP

    def float_pairings(self, points) -> np.ndarray:
        """(alpha|h) for every floating point h (rows of radians) and positive root alpha.

        Returns an (N, #positive roots) array.  Each pairing is the float
        sum of float(G alpha)_j * h_j, added in coordinate order.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.ambient_dim:
            raise DomainError(
                f"torus points need {self.ambient_dim} coordinates"
            )
        if not np.isfinite(points).all():
            raise DomainError("floating torus points need finite coordinates")
        return ordered_dot(self._pos_forms_float, points[:, None, :])

    # -- Dynkin combinatorics -------------------------------------------------------

    @property
    def is_simple(self) -> bool:
        """Connected Dynkin diagram; only D2 among constructible specs fails."""
        n = self.rank
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if j not in seen and self.cartan_matrix[i][j] < 0:
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == n

    def require_simple(self, op: str):
        if not self.is_simple:
            raise StructureError(
                f"{op} requires a simple root system; {self.spec.name} has a "
                "disconnected Dynkin diagram (the divergence theorem does not "
                "hold for non-simple algebras)"
            )

    def dynkin_path(self, i: int, j: int) -> list[int]:
        """Shortest chain of simple-root indices from i to j (inclusive)."""
        self.require_simple("dynkin_path")
        n = self.rank
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError(f"simple-root index out of range for rank {n}")
        prev = {i: None}
        frontier = [i]
        while frontier:
            nxt = []
            for a in frontier:
                for b in range(n):
                    if b not in prev and self.cartan_matrix[a][b] < 0:
                        prev[b] = a
                        nxt.append(b)
            frontier = nxt
            if j in prev:
                break
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


def _det(m) -> Fraction:
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return out


def _unit(n, i, value=1) -> Vec:
    v = [Fraction(0)] * n
    v[i] = Fraction(value)
    return tuple(v)


def _identity_gram(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _classical_data(spec: RootSystemSpec):
    fam, n = spec.family, spec.rank
    if fam == "A":
        dim = n + 1
        simple = [vsub(_unit(dim, i), _unit(dim, i + 1)) for i in range(n)]
        positive = [
            vsub(_unit(dim, i), _unit(dim, j))
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
        return simple, positive, _identity_gram(dim)
    dim = n
    e = lambda i: _unit(dim, i)
    if fam == "B":
        simple = [vsub(e(i), e(i + 1)) for i in range(n - 1)] + [e(n - 1)]
        positive = (
            [vsub(e(i), e(j)) for i in range(n) for j in range(i + 1, n)]
            + [vadd(e(i), e(j)) for i in range(n) for j in range(i + 1, n)]
            + [e(i) for i in range(n)]
        )
    elif fam == "C":
        simple = [vsub(e(i), e(i + 1)) for i in range(n - 1)] + [vscale(2, e(n - 1))]
        positive = (
            [vsub(e(i), e(j)) for i in range(n) for j in range(i + 1, n)]
            + [vadd(e(i), e(j)) for i in range(n) for j in range(i + 1, n)]
            + [vscale(2, e(i)) for i in range(n)]
        )
    elif fam == "D":
        simple = [vsub(e(i), e(i + 1)) for i in range(n - 1)] + [vadd(e(n - 2), e(n - 1))]
        positive = [vsub(e(i), e(j)) for i in range(n) for j in range(i + 1, n)] + [
            vadd(e(i), e(j)) for i in range(n) for j in range(i + 1, n)
        ]
    else:  # pragma: no cover
        raise AssertionError(fam)
    return simple, positive, _identity_gram(dim)


def _exceptional_data(spec: RootSystemSpec):
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
    simple = [_unit(n, i) for i in range(n)]

    # Positive-root closure from the simple roots, processed by height, using
    # the root-string bound q = p - <beta, alpha_i^vee>.
    def pairing(beta, i):
        # 2(beta|a_i)/(a_i|a_i) from integer coefficients and the Cartan matrix
        return sum(int(beta[j]) * cartan[j][i] for j in range(n))

    roots = {tuple(s) for s in simple}
    by_height = {1: sorted(roots)}
    h = 1
    while by_height.get(h):
        for beta in by_height[h]:
            for i in range(n):
                p = 0
                probe = vsub(beta, simple[i])
                while tuple(probe) in roots:
                    p += 1
                    probe = vsub(probe, simple[i])
                if p - pairing(beta, i) >= 1:
                    new = vadd(beta, simple[i])
                    if new not in roots:
                        roots.add(new)
                        by_height.setdefault(h + 1, []).append(new)
        h += 1
        if h in by_height:
            by_height[h] = sorted(by_height[h])
    positive = sorted(roots, key=lambda r: (sum(r), r))
    return simple, positive, gram


def _coweights(simple, gram) -> tuple[Vec, ...]:
    """w_i in span(simple) with (w_i|a_j) = delta_ij, by one exact Gram solve each."""
    k = len(simple)
    gb = [mat_vec(gram, b) for b in simple]
    a = [[dot(gb[i], simple[j]) for j in range(k)] for i in range(k)]
    out = []
    for i in range(k):
        x = exactlin.solve(a, [Fraction(int(j == i)) for j in range(k)])
        v = vzero(len(simple[0]))
        for c, b in zip(x, simple):
            v = vadd(v, vscale(c, b))
        out.append(v)
    return tuple(out)


@lru_cache(maxsize=None)
def _build_cached(family: str, rank: int) -> RootSystem:
    spec = RootSystemSpec(family, rank)
    if family in ("A", "B", "C", "D"):
        simple, positive, gram = _classical_data(spec)
    else:
        simple, positive, gram = _exceptional_data(spec)
    return RootSystem(spec, simple, positive, gram)


def build_root_system(spec: RootSystemSpec | str, rank: int | None = None) -> RootSystem:
    """Construct the root system for a family/rank specification.

    Accepts either a RootSystemSpec or a name like "A2" / ("A", 2).
    """
    if isinstance(spec, str):
        if rank is None:
            fam, num = spec[0].upper(), spec[1:]
            if not num.isdigit():
                raise ConfigError(f"cannot parse group name {spec!r}")
            spec = RootSystemSpec(fam, int(num))
        else:
            spec = RootSystemSpec(spec.upper(), rank)
    return _build_cached(spec.family, spec.rank)
