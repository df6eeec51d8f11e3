"""Character evaluation: dimension formula, regular and singular points.

The regular path is the plain Weyl character formula.  At a singular
point h0 the formula is an indeterminate 0/0; the value is resolved by
factoring the Weyl sum over cosets of the subgroup generated by
reflections in the degenerate roots.  Each coset contributes a phase
times the exact dimension of an effective sub-representation living on
the image of the degenerate roots, and the non-degenerate roots supply a
finite prefactor:

    chi(h0) = eps * [prod_{a ndeg} (e^{i(a|h0)/2} - e^{-i(a|h0)/2})]^{-1}
                  * sum_b sgn(b) e^{i(eta|b h0)} * subdim_b

with eta = lambda + rho, subdim_b = prod_{a deg} (b^{-1}eta|a)/(rho_deg|a),
and eps = (-1)^{sum_{a deg} (a|h0)/(2 pi)} accounting for degeneracies
reached through nonzero multiples of 2*pi (torus periodicity).

An independent ground-truth oracle evaluates the character as the
multiplicity-weighted sum over all weights (Freudenthal recursion); it is
valid at every torus point and anchors the test suite.

Every evaluation reads its point once (`read_point`) into a
`DegenerateSplit`: one pass over the positive roots gives the degenerate
ones and the sines sin((alpha|h0)/2) of the others, whose product is the
Weyl denominator or the singular prefactor (`_weyl_denominator`).  An
exact point keeps its integer pairings (alpha|h0) = pi * p / D, which give
the sines as sin(pi * ((p mod 4D) / D) / 2) and eps as a parity; a
floating point near a wall is read as its snap.  From that reading one
dispatcher (`char_at`, `_choose_path`) picks the path before any Weyl
group is enumerated: "float" (the Weyl sum over W at a floating regular
point), "regular" (the exact sum over W*h), "coset" (the coset sum),
"central" (W0 = W: the one coset is the identity's, and W is never built)
or "oracle" (a floating point whose condition, which its sines give, is
certain to fail the gate).  `_gate` keeps a Weyl-path value only if its
condition is at most TOL * max(1, |value|) and |value| <= dim * (1 +
TOL); otherwise the oracle answers at the same point (`_fallback`), or
PrecisionError refuses a dimension above its cap.

The exact sums (regular, coset, oracle) share one integer exponent
kernel, `_exponent_map`: for integer rows v_i over a common denominator,
a vector x given by its integer form G x = y / y_den
(`RootSystem.int_form`) and integer coefficients c_i, it computes every
exponent (v_i|x) mod 2 as one integer matvec reduced mod 2*D (D the
product of the denominators) and sums the coefficients of equal exponents
after one in-place sort of the packed keys r * N + i (`np.unique` only
past int64), so resonant cancellations give exact zeros.  The regular sum
feeds it W*h (from the Weyl group's int8 stack) with eta = lambda + rho
and the signs of W; the coset sum the representatives applied to h0, as
(b^{-1} eta|h0) = (eta|b h0), with sgn(b) * subdim_b; the oracle the
weights with their multiplicities.  Magnitudes are bounded before each
product, and the same code runs on int64 or, past 2**62, on Python ints
(`exactlin.int_matvec`).  Around it all is integer products over data
built once per root system: dominance checks (`RootSystem.dynkin_labels`),
the stabilizer, read off the degenerate roots with no element formed
(`weylgroup.stabilizer`), the coset transversal, one positivity test
against the group's int8 table of w^T G 2 rho
(`weylgroup.coset_transversal`), the images of h0 and the degenerate
roots under it (`_SingularEvaluator`), and the oracle's weight table
(`_multiplicities_cached`).  Int division r / D is correctly rounded, so
every float equals the one the Fraction form of the same rational gave,
and the residues r / D in {0, 1/2, 1, 3/2} give the exact phases 1, i, -1
and -i (`_phase_sum`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from .errors import (
    CapacityError, ConfigError, DomainError, PrecisionError, SingularPointError, SnapError,
)
from .exactlin import (
    INT64_SAFE, Vec, common_denominator, entry_bound, int_dtype, int_matvec, narrowest, vadd,
)
from .rootsys import (
    EPS_SNAP, DegenerateSplit, RootSystem, RootSystemSpec, _beyond_float_range, positive_root_count,
    weyl_order,
)
from .torus import TorusPoint, exact_point
from .utils import as_complex, cmul, cquot, fold_angle, ordered_dot, pairwise_sum
from .weylgroup import WeylGroup, coset_transversal, generate_weyl_group, stabilizer

_MACHINE_EPS = 2.0 ** -52

#: Largest dimension for which the weight-multiplicity oracle will run.
ORACLE_DIM_CAP = 100_000

#: A Weyl-formula value is returned only if its condition is at most
#: TOL * max(1, |value|) and |value| <= dim * (1 + TOL) (`_gate`).
TOL = 1e-8

#: Denominator bound for rationalizing snapped floating points.
SNAP_MAX_DENOMINATOR = 10**6


@dataclass(frozen=True)
class CharacterValue:
    """A character value with a crude forward-error estimate."""

    value: complex
    condition: float


@lru_cache(maxsize=None)
def cached_weyl_group(rs: RootSystem) -> WeylGroup:
    return generate_weyl_group(rs)


def dim_irrep(rs: RootSystem, lam) -> int:
    """Exact dimension of the irrep with highest weight lam (Weyl formula).

    prod_a (lam + rho|a) / (rho|a) over the positive roots, on the
    root system's integer pairings (those of rho are built with it).
    """
    return _weight(rs, lam).dim


@dataclass(frozen=True, eq=False)
class _Weight:
    """A dominant integral weight lam, the integer form G(lam + rho) = eta / eta_den
    (`RootSystem.int_form`) that every exact sum pairs with, and its dimension."""

    lam: Vec
    eta: list[int]
    eta_den: int
    dim: int


def _weight(rs: RootSystem, lam) -> _Weight:
    """The `_Weight` of lam, cached by its integers; DomainError unless it is dominant integral."""
    nums, den = common_denominator(lam)
    weight = _read_weight(rs, tuple(nums), den)
    if weight is None:
        lam = rs.validate_weight(lam)  # its DomainError, if lam is malformed
        # repr(lam) unless a coordinate of b bits may pass the int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        bits = max(max(abs(x.numerator), x.denominator).bit_length() for x in lam)
        shown = lam if not limit or int(bits * math.log10(2)) + 1 <= limit else \
            f"a weight with a coordinate of more than {limit} digits"
        raise DomainError(f"{shown} is not a dominant integral weight for {rs.spec.name}")
    return weight


# Every evaluation reads it; a sweep's weights fit many times over.
@lru_cache(maxsize=1024)
def _read_weight(rs: RootSystem, nums: tuple, den: int) -> _Weight | None:
    lam = tuple(Fraction(x, den) for x in nums)
    if len(lam) != rs.ambient_dim or (rs.spec.family == "A" and sum(nums)) \
            or not rs.is_dominant_integral(lam):
        return None
    eta = vadd(lam, rs.weyl_vector)
    pairings, den = rs.root_pairings(eta)
    rho, rho_den = rs.rho_pairings
    d = Fraction(math.prod(pairings) * rho_den ** len(pairings),
                 math.prod(rho) * den ** len(pairings))
    if d.denominator != 1 or d <= 0:
        raise AssertionError(f"dimension formula gave non-positive-integer {d}")
    return _Weight(lam, *rs.int_form(eta), int(d))


# ---------------------------------------------------------------------------
# The exact exponent kernel
# ---------------------------------------------------------------------------


def _exponent_map(
    rows: np.ndarray, den: int, y: list[int], y_den: int, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """(exps, sums, D): the exact exponents of sum_i coeffs[i] e^{i pi (v_i|x)}.

    The vectors are v_i = rows[i] / den for an integer (N, n) array `rows`,
    and x is given by its integer form G x = y / y_den (`RootSystem.int_form`),
    so (v_i|x) = (rows[i] . y) / D with D = den * y_den.  `exps` holds the
    distinct r in [0, 2D) with (v_i|x) = r / D mod 2 for some i, in
    increasing order, and sums[j] the sum of coeffs[i] over those i with
    exponent exps[j].  Each array is int64 while its magnitudes stay below
    2**62, and an object array of Python ints past that.
    """
    d = den * y_den
    exps = int_matvec(rows, y, 2 * d)
    n = len(exps)
    dtype = int_dtype(entry_bound(coeffs, n))
    if exps.dtype == object or 2 * d * n >= INT64_SAFE:
        exps, where = np.unique(exps, return_inverse=True)
        sums = np.zeros(len(exps), dtype=dtype)
        np.add.at(sums, where, coeffs.astype(dtype))
        return exps, sums, d
    # one in-place sort of the keys r * n + i groups equal r, each group in row order
    exps *= n
    exps += np.arange(n)
    exps.sort()
    order = exps % n
    exps //= n
    first = np.flatnonzero(np.concatenate(([True], exps[1:] != exps[:-1])))
    return exps[first], np.add.reduceat(coeffs[order], first, dtype=dtype), d


def _apply(mats: np.ndarray, v) -> np.ndarray:
    """(T, n) images m @ v, or (T, n, k) for an (n, k) v, under a (T, n, n) integer stack."""
    out = int_matvec(mats.reshape(-1, mats.shape[-1]), v)
    return out.reshape(*mats.shape[:2], *out.shape[1:])


#: (cos, sin) of 1, i, -1 and -i (-1j has the real part -0.0), at the residues r / d = k / 2.
_EXACT_PHASES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (-0.0, -1.0))


def _phase_sum(exps: np.ndarray, coeffs: np.ndarray, d: int) -> complex:
    """Deterministic sum of c * e^{i pi r / d} over the arrays of `_exponent_map`.

    Zero coefficients are dropped, and the terms c * (cos + i sin), with the bits
    of `cmul`'s complex product, are summed by `pairwise_sum` in exponent order.
    r / d is correctly rounded: while 2d < 2**53, int64 true division turns r and d
    into floats exactly and rounds once; past that it runs on Python ints.  The
    residues r / d = k / 2 give the exact phases i^k, found by one binary search.
    """
    if not coeffs.all():
        keep = coeffs != 0
        exps, coeffs = exps[keep], coeffs[keep]
    t = ((exps if 2 * d < 2**53 else exps.astype(object)) / d).astype(float, copy=False)
    t *= math.pi
    cos, sin = np.cos(t), np.sin(t)
    del t
    residues = [k * d // 2 for k in range(4) if k * d % 2 == 0]
    for r, i in zip(residues, np.searchsorted(exps, residues).tolist()):
        if i < len(exps) and exps[i] == r:
            cos[i], sin[i] = _EXACT_PHASES[2 * r // d]
    c = coeffs.astype(float)
    return pairwise_sum(as_complex(c * cos - 0.0 * sin, c * sin + 0.0 * cos))


# ---------------------------------------------------------------------------
# Regular points
# ---------------------------------------------------------------------------


# One entry: a sweep at one point still hits it; 64 distinct E7 orbits held ~10 GB.
@lru_cache(maxsize=1)
def _exact_orbit(rs: RootSystem, split: DegenerateSplit):
    """(O, D, signs): O[i] = D * w_i(h) as an integer (|W|, n) array, h the split's point.

    Rows and signs are in enumeration order.
    """
    group = cached_weyl_group(rs)
    h, den = common_denominator(split.torus_point.coords)
    return _apply(group.stack, h), den, group.signs


def char_regular(rs: RootSystem, lam, h: TorusPoint) -> CharacterValue:
    """Weyl character formula at a regular torus point.

    Exact points keep the numerator exponents as rational multiples of pi
    (reduced mod 2 before any trigonometry) and collect equal exponents, so
    large weights suffer no phase drift.  A point that `read_point` reads
    as singular is refused with a pointer to char_singular (one whose snap
    fails, with its SnapError); any other is evaluated by `char_at`.
    """
    _weight(rs, lam)
    split = read_point(rs, h)
    if split.deg:
        raise SingularPointError(
            f"point {h} is singular for {rs.spec.name} "
            f"({len(split.deg)} degenerate roots); use char_singular"
        )
    return char_at(rs, lam, split)


def _weyl_denominator(sines) -> complex:
    """prod 2i s over the sines s = sin((a|h)/2) of the non-degenerate positive roots a.

    The Weyl denominator at a regular point, exact or floating, and the coset
    sum's prefactor at a singular one.
    """
    out = 1 + 0j
    for s in sines:
        out *= 2j * s
    return out


def _char_regular_exact(rs: RootSystem, weight: _Weight, split: DegenerateSplit) -> CharacterValue:
    """The Weyl formula at the exact regular point of `split`, for the weight's eta = lam + rho."""
    orbit, den, signs = _exact_orbit(rs, split)
    exps, coeffs, d = _exponent_map(orbit, den, weight.eta, weight.eta_den, signs)
    num = _phase_sum(exps, coeffs, d)
    weyl_den = _weyl_denominator(split.sines)
    value = num / weyl_den
    terms_abs = int(np.abs(coeffs).sum())
    condition = terms_abs / abs(weyl_den) * _MACHINE_EPS
    return CharacterValue(value, condition)


def _float_condition(rs: RootSystem, split: DegenerateSplit) -> tuple[complex, float]:
    """The Weyl denominator at the floating point of `split`, from its sines, and the
    float path's condition |W| 2**-52 / |denominator| (inf if the product underflows to 0),
    both before W is enumerated."""
    den = _weyl_denominator(split.sines)
    return den, weyl_order(rs.spec) / abs(den) * _MACHINE_EPS if den else math.inf


def _phases_in_range(rs: RootSystem, weight: _Weight, split: DegenerateSplit) -> bool:
    """Whether the float path's phases (eta|w h), sums over n coordinates of (G eta)_i (w h)_i
    with |(w h)_i| <= 127 n max|h| (w is int8), are certain to stay below 2**1000."""
    bound = Fraction(max(map(abs, weight.eta)), weight.eta_den) * 127 * rs.ambient_dim ** 2
    return bound * Fraction(max(map(abs, split.torus_point.coords))) < 2**1000


def _char_regular_float(rs: RootSystem, weight: _Weight, split: DegenerateSplit) -> CharacterValue:
    """Weyl character formula at the regular floating point h of `split`.

    The W*h products and the phases are summed coordinate by coordinate
    (`ordered_dot`), the signed terms by `pairwise_sum` over W in
    enumeration order, and complex products and the quotient follow
    Python's arithmetic; the sines give the denominator (`_float_condition`).
    A point whose phases (eta|w h) leave the float range is refused with a
    DomainError.
    """
    point = np.array(split.torus_point.coords)
    group = cached_weyl_group(rs)
    eta_f = [float(x) for x in vadd(weight.lam, rs.weyl_vector)]
    if rs._gram_is_identity:
        geta = eta_f
    else:
        geta = ordered_dot([[float(g) for g in row] for row in rs.gram], eta_f)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = ordered_dot(geta, ordered_dot(group.stack, point))  # (eta|w h), w in W
    if not np.isfinite(phase).all():
        raise _beyond_float_range("a phase (eta|w h)")
    phase = fold_angle(phase)
    num = pairwise_sum(cmul(group.signs.astype(float), as_complex(np.cos(phase), np.sin(phase))))
    den, condition = _float_condition(rs, split)
    return CharacterValue(complex(cquot(num, den)), condition)


# ---------------------------------------------------------------------------
# Snapping floating points onto singular strata
# ---------------------------------------------------------------------------


def read_point(rs: RootSystem, h: TorusPoint) -> DegenerateSplit:
    """The one reading of a torus point: its split, from one pass over its roots.

    A floating point with no root pairing within EPS_SNAP of a wall
    (`RootSystem.degenerate_split`) stands for itself, a regular point, and
    one with some stands for its snap (`_snap`).
    """
    split = rs.degenerate_split(h)
    return _snap(rs, split) if split.deg and not h.exact else split


def snap_to_exact(rs: RootSystem, h: TorusPoint) -> TorusPoint:
    """The point h stands for (`read_point`): its snap within EPS_SNAP of a wall, else h itself."""
    return h if h.exact else read_point(rs, h).torus_point


def _snap(rs: RootSystem, split: DegenerateSplit) -> DegenerateSplit:
    """The exact split of the stratum that the floating point of `split`, near a wall, stands for.

    The point is rationalized, denominators at most SNAP_MAX_DENOMINATOR
    (type A reconstructs the last coordinate from the sum-zero constraint),
    and SnapError is raised unless that moves every coordinate by less than
    EPS_SNAP and lands every near root (`split.deg`) exactly on its wall.
    The integer pairings that check the landing give the snapped split.
    """
    h = split.torus_point
    rad = h.coords
    coeffs = [Fraction(x / math.pi).limit_denominator(SNAP_MAX_DENOMINATOR) for x in rad]
    if rs.spec.family == "A":
        coeffs[-1] = -sum(coeffs[:-1], Fraction(0))
    for c, x in zip(coeffs, rad):
        if abs(math.pi * float(c) - x) > EPS_SNAP:
            raise SnapError(
                f"cannot rationalize {h}: coordinate {x!r} is not within "
                f"{EPS_SNAP} of a rational multiple of pi with denominator "
                f"<= {SNAP_MAX_DENOMINATOR}"
            )
    snapped = exact_point(coeffs)
    pairings, den = rs.root_pairings(snapped.coords)
    for i, a in zip(split.deg_index, split.deg):
        if pairings[i] % (2 * den):
            raise SnapError(
                f"cannot rationalize {h}: near-degenerate root {a} does not "
                "land exactly on the stratum after reconstruction"
            )
    return rs._exact_split(snapped, pairings, den)


# ---------------------------------------------------------------------------
# Singular points
# ---------------------------------------------------------------------------


class _SingularEvaluator:
    """Cached per-(rs, h0) data for the assembled singular character.

    The coset sum runs over b^{-1} eta for the representatives b, given as
    an array of indices into the Weyl group (`coset_transversal`).  Since W
    preserves the form, (b^{-1} eta|x) = (eta|b x), so the representatives
    are applied once (`_apply`), to the k degenerate roots and h0 in one
    product, and each weight then costs integer products only.  b h0 is an
    integer (T, n) array, and the images b a of the k degenerate roots a
    are one root-major int8 (k, T, n) table, `b_deg` (b a is a root, so its
    entries are small; they are checked to fit int8).
    Everything else comes from the split's integer root pairings and the
    root system's integer root rows, with no rational arithmetic.
    """

    def __init__(self, rs: RootSystem, split: DegenerateSplit):
        self.rs, self.split = rs, split
        h0 = split.torus_point
        if split.ndeg:
            group = cached_weyl_group(rs)
            self.transversal = transversal = coset_transversal(group, stabilizer(rs, split))
            mats, self.b_signs = group.stack[transversal], group.signs[transversal]
        else:  # W0 = W: one coset, the identity's, of sign +1, and no group is enumerated
            self.transversal = np.zeros(1, dtype=np.intp)
            mats = np.eye(rs.ambient_dim, dtype=np.int8)[None]
            self.b_signs = np.ones(1, dtype=np.int8)
        deg = list(split.deg_index)
        # (-1)^{sum k_a}: degenerate pairings may sit at nonzero multiples of 2*pi
        k_total = sum(split.pairings[i] // (2 * split.den) for i in deg)
        self.eps = -1 if k_total % 2 else 1
        self.prefactor = _weyl_denominator(split.sines)
        roots = rs._pos_rows[deg]
        h, self.h0_den = common_denominator(h0.coords)
        # (T, n, k + 1) images: column j < k is b a_j, column k is b h0
        cols = np.array([a + [x] for a, x in zip(roots.T.tolist(), h)], dtype=object)
        images = _apply(mats, cols)
        b_deg = images[:, :, :-1]
        if max(int(b_deg.max()), -int(b_deg.min())) > 127:
            raise AssertionError("image of a degenerate root does not fit int8")
        self.b_deg = np.ascontiguousarray(b_deg.transpose(2, 0, 1), dtype=np.int8)
        self.b_h0 = np.ascontiguousarray(images[:, :, -1])
        # subdim_b = prod_a (eta|b a) / (rho_deg|a) = scale * prod_a (y . b a) / d^k
        # for G eta = y / d, on the integer root rows.  On those rows
        # (G a) . b = F R (a|b), so 2 (rho_deg|a) = s_a / (F R) with s_a = (G a)
        # . (sum of the degenerate rows), and the R of the root rows cancels.
        s = rs._pos_forms[deg] @ roots.sum(axis=0)
        self.scale = Fraction((2 * rs._pos_forms_den) ** len(deg), math.prod(s.tolist()))

    def exponents(self, weight: _Weight) -> tuple[np.ndarray, np.ndarray, int, float]:
        """The coset sum's exponents, coefficients and D (`_exponent_map`), and sum |subdim_b|.

        The pairings y . b a of every representative and degenerate root are
        one `int_matvec` of the `b_deg` table, and the subdims one product
        over k, int64 while |scale numerator| * prod_a max_b |y . b a| and
        the denominator are below 2**62, Python ints otherwise.
        """
        y, y_den = weight.eta, weight.eta_den
        k, _, n = self.b_deg.shape
        pairings = int_matvec(self.b_deg.reshape(-1, n), y).reshape(k, -1)
        denom = self.scale.denominator * y_den ** k
        bound = abs(self.scale.numerator)
        for m in np.abs(pairings).max(axis=1).tolist():
            bound *= max(int(m), 1)
        dtype = int_dtype(max(bound, denom))
        sub = pairings.astype(dtype).prod(axis=0) * self.scale.numerator
        if (sub % denom).any():
            raise AssertionError("effective dimension is not an integer")
        sub //= denom
        # summed left to right in coset order, as the condition has always been
        abs_sum = float(np.add.accumulate(np.abs(sub.astype(float)))[-1])
        # Exact integer coefficients per reduced phase, so resonant
        # cancellations across cosets produce exact zeros, not float dust.
        return (*_exponent_map(self.b_h0, self.h0_den, y, y_den, self.b_signs * sub), abs_sum)

    def evaluate(self, weight: _Weight) -> CharacterValue:
        exps, coeffs, d, abs_sum = self.exponents(weight)
        value = self.eps * _phase_sum(exps, coeffs, d) / self.prefactor
        condition = abs_sum / abs(self.prefactor) * _MACHINE_EPS
        return CharacterValue(value, condition)


# Few entries: an E7 evaluator with |W|/2 cosets holds ~110 MB; no workload reuses > 2 keys.
@lru_cache(maxsize=4)
def _cached_evaluator(rs: RootSystem, split: DegenerateSplit) -> _SingularEvaluator:
    return _SingularEvaluator(rs, split)


def char_singular(rs: RootSystem, lam, h0: TorusPoint) -> CharacterValue:
    """Exact character at a singular torus point via stabilizer factorization.

    The point is read by `read_point`, and SnapError refuses a floating one
    that stands for itself, a regular point.  Every other point is
    evaluated by `char_at`: an exact point with no degenerate root on the
    exact regular path, any other on the coset sum.
    """
    _weight(rs, lam)
    split = read_point(rs, h0)
    if not split.torus_point.exact:
        raise SnapError(f"{h0} has no root pairing within {EPS_SNAP} of 2*pi*Z: "
                        "it is a regular point; use character")
    return char_at(rs, lam, split)


def character(rs: RootSystem, lam, h: TorusPoint) -> CharacterValue:
    """Evaluate the character at any torus point: `char_at` on its `read_point` reading.

    A floating point near a wall whose snap fails is answered like a value
    the precision gate rejects (`_fallback`).
    """
    try:
        split = read_point(rs, h)
    except SnapError as exc:
        return _fallback(rs, _weight(rs, lam), h, str(exc))
    return char_at(rs, lam, split)


def char_at(rs: RootSystem, lam, split: DegenerateSplit) -> CharacterValue:
    """The character at a point that `read_point` has read: the one dispatcher.

    `_choose_path` picks the path from the reading and the weight, before
    any Weyl group is enumerated, and every value of a Weyl path passes
    `_gate`.  Callers that evaluate many weights at one point read it once
    and call this for each.
    """
    weight = _weight(rs, lam)
    path = _choose_path(rs, weight, split)
    if path == "oracle":
        why = f"the float path's condition {_float_condition(rs, split)[1]:.3g} exceeds TOL * 2 * dim"
        return _fallback(rs, weight, split.torus_point, why)
    cv = (_char_regular_float(rs, weight, split) if path == "float" else
          _char_regular_exact(rs, weight, split) if path == "regular" else
          _cached_evaluator(rs, split).evaluate(weight))  # "coset", or "central" with no group
    return _gate(rs, weight, split.torus_point, cv)


def _choose_path(rs: RootSystem, weight: _Weight, split: DegenerateSplit) -> str:
    """The path of a read point, chosen before any Weyl group is enumerated.

    A floating point takes "oracle" when its sines give the float path a
    condition above TOL * max(1, 2 dim), which `_gate` rejects whatever the
    value (one it keeps has size at most dim (1 + TOL)), unless the float
    path's phases could leave the float range, which it refuses; else
    "float".  An exact point takes "regular", "central" (every root
    degenerate) or "coset".
    """
    if not split.torus_point.exact:
        doomed = _float_condition(rs, split)[1] / TOL > max(1, 2 * weight.dim)
        return "oracle" if doomed and _phases_in_range(rs, weight, split) else "float"
    if not split.deg:
        return "regular"
    return "coset" if split.ndeg else "central"


def _gate(rs: RootSystem, weight: _Weight, h: TorusPoint, cv: CharacterValue) -> CharacterValue:
    """cv if its own estimate accepts it, else `_fallback`'s answer at h.

    Accepted: condition <= TOL * max(1, |value|), and |value| <= dim * (1 +
    TOL), since |chi| <= dim on the whole torus.  A nan fails both.
    """
    size = abs(cv.value)
    # size / (1 + TOL) <= dim compares a float with an int exactly, past 2**1024 too
    if cv.condition <= TOL * max(1.0, size) and size / (1 + TOL) <= weight.dim:
        return cv
    return _fallback(rs, weight, h, f"value {cv.value} with condition {cv.condition:.3g}")


def _fallback(rs: RootSystem, weight: _Weight, h: TorusPoint, why: str) -> CharacterValue:
    """The weight-sum oracle at h when dim <= ORACLE_DIM_CAP, else PrecisionError."""
    dim = weight.dim
    if dim > ORACLE_DIM_CAP:
        raise PrecisionError(f"no value within the precision gate at {h}: {why}, and dim "
                             f"{dim} is above the oracle cap {ORACLE_DIM_CAP}")
    return char_weightsum_oracle(rs, weight.lam, h)


# ---------------------------------------------------------------------------
# Effective subsystems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveSubsystem:
    """Root subsystem spanned by (an image of) the degenerate roots.

    `components` are its simple factors, as `RootSystemSpec`s.
    """

    components: tuple


def effective_subsystem(rs: RootSystem, image_roots) -> EffectiveSubsystem:
    """Decompose a (possibly Weyl-transported) degenerate root set.

    The input is a positive system of a closed subsystem of the roots of
    rs, e.g. b applied to the degenerate positive roots, and it is read on
    the integer root rows.  Components are the classes of the input under
    non-orthogonality, on one integer pairing matrix, largest first and
    then by their sorted roots.  A component of c roots has rank r, the
    number of its roots that are not the sum of two of its roots; r, c and
    the root lengths name its type (B2 = C2 as B2), which must have c
    positive roots.
    """
    n = len(rs._pos_rows)
    signed = np.concatenate([rs._pos_rows, -rs._pos_rows])
    index = {r: i for i, r in enumerate(map(tuple, signed.tolist()))}
    picked = set()
    for r in image_roots:
        if (i := index.get(tuple(r))) is None:
            raise DomainError(f"{tuple(r)} is not a root of {rs.spec.name}")
        picked.add(i)
    idx = sorted(picked)
    inside = {i % n for i in idx}
    if len(inside) < len(idx):
        raise DomainError("input contains a root together with its negative")
    roots = signed[idx]
    simple = np.empty(len(idx), dtype=bool)
    for k, x in enumerate(roots):
        # x + y and x - y for every input root y: the roots among them must
        # be input roots up to sign, and x is simple unless an x - y is one
        combined = np.concatenate([x + roots, x - roots]).tolist()
        cand = [index.get(c, -1) for c in map(tuple, combined)]
        for j in cand:
            if j >= 0 and j % n not in inside:
                raise DomainError(f"input not closed: {x.tolist()} and an input root "
                                  f"combine to the root {signed[j].tolist()} outside the set")
        simple[k] = picked.isdisjoint(cand[len(idx):])
    pair = roots @ np.array(rs._gram_int, dtype=np.int64) @ roots.T
    linked, left, comps = pair != 0, np.ones(len(idx), dtype=bool), []
    while left.any():
        comp = linked[np.argmax(left)]
        while (grown := linked[comp].any(axis=0)).sum() > comp.sum():
            comp = grown
        comps.append(comp)
        left &= ~comp
    comps.sort(key=lambda comp: (-comp.sum(), sorted(map(tuple, roots[comp].tolist()))))
    components = []
    for comp in comps:
        norms, r, c = pair.diagonal()[comp].tolist(), int(simple[comp].sum()), int(comp.sum())
        lo, hi = min(norms), max(norms)
        if lo == hi:
            fam = "A" if c == r * (r + 1) // 2 else "D" if c == r * (r - 1) else "E"
        else:
            fam = "G" if hi == 3 * lo else "F" if c == 24 else "B" if norms.count(lo) == r else "C"
        try:
            spec = RootSystemSpec(fam, r)
        except ConfigError:
            spec = None
        if spec is None or positive_root_count(spec) != c:
            raise AssertionError(f"unclassifiable component of rank {r} with {c} roots")
        components.append(spec)
    return EffectiveSubsystem(tuple(components))


# ---------------------------------------------------------------------------
# Weight multiplicities (Freudenthal) and the weight-sum oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _WeightTable:
    """The weights of an irrep as integer rows over one denominator.

    rows[i] / den is the i-th weight, in the order Freudenthal's recursion
    reaches it, and mults[i] its multiplicity; the length is the number of
    weights.
    """

    rows: np.ndarray
    den: int
    mults: np.ndarray

    def __len__(self) -> int:
        return len(self.mults)


@lru_cache(maxsize=128)
def _multiplicities_cached(rs: RootSystem, weight: _Weight) -> _WeightTable:
    """Freudenthal's recursion (Humphreys, GTM 9, 22.3) for the dominant weight lam.

    The weights mu = lam - sum_j c_j alpha_j are visited level by level in
    c.  Every pairing is an integer over one common denominator q: those of
    lam, lam + rho and the simple roots with the positive roots.
    """
    lam, dim = weight.lam, weight.dim
    if dim > ORACLE_DIM_CAP:
        raise CapacityError(
            f"dim {dim} exceeds the weight-multiplicity cap {ORACLE_DIM_CAP}"
        )
    rank = rs.rank
    pairings = [rs.root_pairings(v) for v in (lam, vadd(lam, rs.weyl_vector), *rs.simple_roots)]
    q = math.lcm(*(d for _, d in pairings))
    lam_dot, eta_dot, *simple_dot = [[x * (q // d) for x in p] for p, d in pairings]
    eta_simple = [eta_dot[i] for i in rs._simple_index]
    gram_simple = [[row[i] for row in simple_dot] for i in rs._simple_index]
    # Per positive root a: its coefficients c_a, their support, q (lam|a),
    # q (alpha_j|a) for each j, and q (a|a).
    roots = []
    for idx, a in enumerate(rs.positive_roots):
        coeffs = rs.root_coeffs[a]
        a_dot = [row[idx] for row in simple_dot]
        support = [j for j in range(rank) if coeffs[j]]
        roots.append((coeffs, support, lam_dot[idx], a_dot, sum(map(mul, coeffs, a_dot))))

    mult = {(0,) * rank: 1}
    level = [(0,) * rank]
    while level:
        candidates = {c[:j] + (c[j] + 1,) + c[j + 1:] for c in level for j in range(rank)}
        nxt = []
        for c in sorted(candidates):
            # q (||lam+rho||^2 - ||mu+rho||^2)
            dnm = 2 * sum(map(mul, c, eta_simple)) - sum(
                x * sum(map(mul, c, row)) for x, row in zip(c, gram_simple)
            )
            if dnm <= 0:
                continue
            total = 0  # q sum_a sum_k m(mu + k a) (mu + k a|a)
            for coeffs, support, l_dot, a_dot, norm in roots:
                kmax = min(c[j] // coeffs[j] for j in support)
                if not kmax:
                    continue
                mu_dot = l_dot - sum(map(mul, c, a_dot))
                for k in range(1, kmax + 1):
                    m_up = mult.get(tuple(x - k * y for x, y in zip(c, coeffs)), 0)
                    if m_up:
                        total += m_up * (mu_dot + k * norm)
            if total == 0:
                continue
            m, rem = divmod(2 * total, dnm)
            if rem or m < 0:
                raise AssertionError("Freudenthal recursion produced a non-integer")
            if m:
                mult[c] = m
                nxt.append(c)
        level = nxt

    lam_row, den = common_denominator(lam)
    rows = np.array(lam_row) - den * (np.array(list(mult)) @ rs._pos_rows[rs._simple_index])
    mults = narrowest(np.array(list(mult.values())))
    if sum(mult.values()) != dim:
        raise AssertionError("multiplicities do not sum to the dimension")
    return _WeightTable(narrowest(rows), den, mults)


def weight_multiplicities(rs: RootSystem, lam) -> dict:
    """Weight -> multiplicity map of the irrep, by Freudenthal recursion."""
    table = _multiplicities_cached(rs, _weight(rs, lam))
    return {
        tuple(Fraction(x, table.den) for x in row): m
        for row, m in zip(table.rows.tolist(), table.mults.tolist())
    }


def _weight_exponents(rs: RootSystem, weight: _Weight, h: TorusPoint):
    """The oracle's exponents and summed multiplicities, (mu|h) = pi r / D mod 2pi, and D."""
    table = _multiplicities_cached(rs, weight)
    return _exponent_map(table.rows, table.den, *rs.int_form(h.coords), table.mults)


def char_weightsum_oracle(rs: RootSystem, lam, h: TorusPoint) -> CharacterValue:
    """Ground-truth character: sum of mult(mu) * e^{i(mu|h)} over all weights.

    Valid at every torus point, regular or singular.  A floating point sums
    the weights in increasing order of their coordinates.
    """
    weight = _weight(rs, lam)
    rs.validate_point(h)
    if h.exact:
        value = _phase_sum(*_weight_exponents(rs, weight, h))
    else:
        table = _multiplicities_cached(rs, weight)
        order = np.lexsort(table.rows.T[::-1])
        # G mu = (rows @ G_int) / (gram_den * den); int64 / int64 rounds
        # correctly, like Python's int / int, while both are below 2**53.
        forms = table.rows[order] @ np.array(rs._gram_int, dtype=np.int64)
        den = rs._gram_den * table.den
        if max(int(np.abs(forms).max()), den) >= 2**53:
            raise AssertionError("weight forms do not fit a float mantissa")
        phase = fold_angle(ordered_dot(forms / den, h.coords))
        mults = table.mults[order]
        terms = cmul(mults, as_complex(np.cos(phase), np.sin(phase)))
        value = pairwise_sum(terms)
    return CharacterValue(value, weight.dim * _MACHINE_EPS)
