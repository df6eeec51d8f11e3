"""High-dimension sweeps, decay exponents, and divergence certificates.

A sweep walks k*lambda0 up a dominant ray and records |chi|/dim at a
fixed torus point.  For a simple group and a non-central singular point
the ratio decays like k^{-m}, m the number of non-degenerate positive
roots not orthogonal to lambda0; the certificate machinery exhibits one
root responsible for the divergence of the dimension-ratio denominator,
either directly or as the sum of a chain in the Dynkin diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .charcalc import character, dim_irrep
from .errors import DomainError, StructureError
from .exactlin import Vec, vadd, vscale, vzero
from .rootsys import DegenerateSplit, RootSystem
from .torus import TorusPoint, exact_point


@dataclass(frozen=True)
class WeightPath:
    """A schedule of dominant weights k*base along a ray."""

    base: Vec
    schedule: tuple

    @classmethod
    def ray(cls, rs: RootSystem, lam0, ks) -> "WeightPath":
        lam0 = rs.validate_weight(lam0)
        if not rs.is_dominant_integral(lam0):
            raise DomainError("path base must be dominant integral")
        ks = tuple(int(k) for k in ks)
        if any(k <= 0 for k in ks):
            raise DomainError("ray schedule entries must be positive integers")
        return cls(lam0, ks)

    def weights(self) -> list[tuple[int, Vec]]:
        return [(k, vscale(k, self.base)) for k in self.schedule]


@dataclass(frozen=True)
class DecayReport:
    """Sweep output: (weight, dim, |chi|/dim) rows plus fitted summaries."""

    entries: tuple  # (k, weight, dim, ratio)
    fitted_slope: float | None
    bound_constant: float | None
    identity_stratum: bool = False

    def ratios(self):
        return [e[3] for e in self.entries]

    def dims(self):
        return [e[2] for e in self.entries]


@dataclass(frozen=True)
class DivergenceCertificate:
    """A non-degenerate positive root whose pairing grows along the ray."""

    root: Vec
    growth: Fraction  # (lambda0 | root), nonzero
    base_pairing: Fraction  # (lambda0 + rho | root)
    construction: str  # "direct" or "chain"
    chain: tuple  # simple-root indices when construction == "chain"


def weight_inf_norm(lam) -> float:
    return max(abs(float(x)) for x in lam)


def normalized_char_sweep(
    rs: RootSystem, path: WeightPath, h0: TorusPoint
) -> DecayReport:
    """Evaluate |chi_lambda(h0)| / dim along a weight path.

    Works at regular and singular points alike (dispatching internally).
    At the identity stratum every ratio is exactly 1 and the report is
    flagged instead of fitted.
    """
    split = rs.degenerate_split(h0)
    identity_stratum = len(split.deg) == len(rs.positive_roots)
    rows = []
    for k, lam in path.weights():
        d = dim_irrep(rs, lam)
        if identity_stratum:
            ratio = 1.0
        else:
            cv = character(rs, lam, h0)
            ratio = abs(cv.value) / d
        rows.append((k, lam, d, ratio))
    rows.sort(key=lambda r: r[2])
    report = DecayReport(tuple(rows), None, None, identity_stratum)
    if identity_stratum or len(rows) < 5:
        return report
    slope = _fit_slope(rows)
    bound = _fit_bound(rows, path)
    return DecayReport(tuple(rows), slope, bound, identity_stratum)


def _fit_slope(rows) -> float:
    """Least-squares slope of log ratio against the ray parameter.

    Fits on the last half of the schedule only, against log(k+1): the
    Weyl-vector shift makes k*lambda0 pairings affine in k with unit
    offset at lambda0 = rho, and small-k transients pollute the head.
    """
    tail = rows[len(rows) // 2:]
    pts = [(math.log(k + 1), math.log(ratio)) for k, _, _, ratio in tail if ratio > 0]
    if len(pts) < 2:
        return float("nan")
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _fit_bound(rows, path) -> float:
    """Envelope constant C with ratio_k <= C / |k lambda0|_inf.

    C is fitted on the first half of the schedule; the second half then
    provides a genuine out-of-sample check of the 1/|lambda|_inf envelope.
    """
    head = rows[: max(len(rows) // 2, 1)]
    return max(ratio * weight_inf_norm(lam) for _, lam, _, ratio in head)


def decay_exponent(report: DecayReport) -> float:
    """Fitted log-log decay slope of a ray sweep (>= 5 entries required)."""
    if len(report.entries) < 5:
        raise DomainError("decay exponent needs at least 5 sweep entries")
    if report.fitted_slope is None:
        raise DomainError("report carries no slope (identity stratum or counterexample)")
    return report.fitted_slope


def expected_decay_exponent(rs: RootSystem, split: DegenerateSplit, lam0) -> int:
    """m = number of non-degenerate positive roots not orthogonal to lambda0."""
    lam0 = rs.validate_weight(lam0)
    return sum(1 for a in split.ndeg if rs.inner(lam0, a) != 0)


def divergence_certificate(
    rs: RootSystem, split: DegenerateSplit, lam0
) -> DivergenceCertificate:
    """Certify that prod_{a ndeg} (k lam0 + rho | a) diverges along the ray.

    Searches direct simple roots first, then Dynkin chains in breadth-first
    (length, endpoints) order; the certified root is non-degenerate and
    pairs nontrivially with lam0, so its pairing is strictly increasing
    in k.  Refused for non-simple systems, where the theorem fails.
    """
    rs.require_simple(
        "divergence_certificate",
        "the divergence theorem does not hold for non-simple algebras",
    )
    lam0 = rs.validate_weight(lam0)
    if not rs.is_dominant_integral(lam0) or all(x == 0 for x in lam0):
        raise DomainError("certificate needs a nonzero dominant integral lambda0")
    if not split.ndeg:
        raise DomainError(
            "no non-degenerate roots: h0 is on the identity/central stratum, "
            "where the normalized character does not decay"
        )
    deg_set = set(split.deg)

    def is_ndeg(root):
        return root not in deg_set and rs.is_positive_root(root)

    def pairing(root):
        return rs.inner(lam0, root)

    # Direct: a non-degenerate simple root seeing lambda0.
    for a in rs.simple_roots:
        if is_ndeg(a) and pairing(a) != 0:
            return DivergenceCertificate(
                a, pairing(a), rs.inner(vadd(lam0, rs.weyl_vector), a), "direct", ()
            )
    # Chains: Dynkin diagrams are trees, so the i-j path is unique; enumerate
    # pairs by path length, then lexicographically.
    n = rs.rank
    candidates = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            chain = rs.dynkin_path(i, j)
            candidates.append((len(chain), i, j, tuple(chain)))
    for _, _, _, chain in sorted(candidates):
        total = rs.chain_sum_root(chain)
        if is_ndeg(total) and pairing(total) != 0:
            return DivergenceCertificate(
                total,
                pairing(total),
                rs.inner(vadd(lam0, rs.weyl_vector), total),
                "chain",
                chain,
            )
    raise StructureError(
        "no divergence certificate exists: every candidate root is degenerate "
        "or orthogonal to lambda0"
    )


# ---------------------------------------------------------------------------
# Non-simple (product) counterexample harness
# ---------------------------------------------------------------------------


def nonsimple_counterexample(
    rs_list,
    carrier: int,
    g: TorusPoint,
    k_max: int,
    grow_all: bool = False,
    g_parts=None,
) -> DecayReport:
    """Product-group harness showing the vanishing theorem needs all factors.

    With representations trivial on the carrier factor and k*rho on the
    first other factor, the normalized character at (g on carrier,
    identity elsewhere) is exactly 1 for every k while dimensions diverge.
    With grow_all=True every factor carries k*rho instead, and the ratio
    vanishes; g_parts may then place a nontrivial element on any factor.
    """
    rs_list = list(rs_list)
    if len(rs_list) < 2:
        raise DomainError("the counterexample needs at least two simple factors")
    if not (0 <= carrier < len(rs_list)):
        raise DomainError("carrier index out of range")
    rs_list[carrier].validate_point(g)
    if g.is_zero():
        raise DomainError("carrier element must be nontrivial")
    g_parts = list(g_parts) if g_parts is not None else [None] * len(rs_list)
    g_parts[carrier] = g

    rows = []
    for k in range(1, k_max + 1):
        ratio = 1.0  # factors at the identity or in the trivial irrep give exactly 1
        dims = 1
        lam_concat = []
        for idx, rs in enumerate(rs_list):
            if grow_all or idx == _first_noncarrier(rs_list, carrier):
                lam = vscale(k, rs.weyl_vector)
            else:
                lam = vzero(rs.ambient_dim)
            lam_concat.extend(lam)
            d = dim_irrep(rs, lam)
            dims *= d
            gi = g_parts[idx]
            if gi is not None and any(x != 0 for x in lam):
                ratio *= abs(character(rs, lam, gi).value) / d
        rows.append((k, tuple(lam_concat), dims, ratio))
    rows.sort(key=lambda r: r[2])
    return DecayReport(tuple(rows), None, None, False)


def _first_noncarrier(rs_list, carrier):
    return next(i for i in range(len(rs_list)) if i != carrier)


# ---------------------------------------------------------------------------
# Alcove strata enumeration (test and CLI support)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlcoveStratum:
    """A face of the fundamental alcove with a rational interior point."""

    walls: tuple  # active wall indices; 0..rank-1 simple, rank = the 2*pi wall
    point: TorusPoint
    deg_count: int
    central: bool  # every positive root degenerate (character has |chi| = dim)


def alcove_stratum_points(rs: RootSystem) -> list[AlcoveStratum]:
    """One exact representative per singular face of the fundamental alcove.

    The closed alcove is {(alpha_i|h) >= 0, (theta|h) <= 2*pi}; a face
    activates a nonempty proper subset of the rank+1 walls.  The interior
    point is the equal-coefficient convex combination of the inactive
    vertices, which lies in the open face; its degenerate set is constant
    across the face.  Every face has a degenerate root (alpha_i on an active
    wall i < rank, theta on the 2*pi wall), and the points are distinct (the
    vertices 0 and c_i w_i are affinely independent).  StructureError
    unless rs is simple.
    """
    rs.require_simple("alcove_stratum_points")
    rank = rs.rank
    coweights = rs.fundamental_coweights()
    theta = rs.highest_root
    vertices = [vzero(rs.ambient_dim)]
    for w in coweights:
        c = Fraction(2) / rs.inner(theta, w)
        vertices.append(vscale(c, w))

    out = []
    nwalls = rank + 1
    for mask in range(1, 2**nwalls - 1):
        active = [i for i in range(nwalls) if mask >> i & 1]
        # wall i<rank is (alpha_i|h)=0 and kills vertex i+1; the 2*pi wall
        # (index rank) kills vertex 0
        inactive_vertices = []
        for v_idx in range(nwalls):
            wall_of_vertex = rank if v_idx == 0 else v_idx - 1
            if wall_of_vertex not in active:
                inactive_vertices.append(vertices[v_idx])
        t = Fraction(1, len(inactive_vertices))
        point = vzero(rs.ambient_dim)
        for v in inactive_vertices:
            point = vadd(point, vscale(t, v))
        h = exact_point(point)
        split = rs.degenerate_split(h)
        out.append(
            AlcoveStratum(
                tuple(active),
                h,
                len(split.deg),
                len(split.deg) == len(rs.positive_roots),
            )
        )
    return out
