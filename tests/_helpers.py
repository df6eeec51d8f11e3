"""Shared test utilities: seeded samplers, stabilizer references and test oracles."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from weylchar import charcalc, spectral
from weylchar.charcalc import dim_irrep
from weylchar.exactlin import common_denominator
from weylchar.torus import exact_point
from weylchar.weylgroup import TRANSVERSAL_BLOCK, coset_transversal, reflect


def random_dominant_weight(rs, rng, max_dim=5000, max_coeff=6, max_draws=10_000):
    """Seeded random dominant integral weight with dim below max_dim.

    Raises ValueError after max_draws draws without one, instead of
    looping forever (dimensions grow like products of the coordinates, so
    large groups with a large max_coeff rarely land under max_dim).
    """
    for _ in range(max_draws):
        coeffs = [rng.randint(0, max_coeff) for _ in range(rs.rank)]
        if all(c == 0 for c in coeffs):
            continue
        lam = rs.weight_from_fundamental(coeffs)
        if dim_irrep(rs, lam) <= max_dim:
            return lam
    raise ValueError(
        f"no nonzero dominant weight of {rs.spec.name} with dim <= {max_dim} "
        f"in {max_draws} draws of coordinates up to {max_coeff}"
    )


def random_regular_exact_point(rs, rng, denoms=(7, 11, 13, 17, 19, 23)):
    """Seeded random exact torus point with no degenerate positive root."""
    while True:
        q = rng.choice(denoms)
        coords = [Fraction(rng.randint(-q, q), q) for _ in range(rs.ambient_dim)]
        if rs.spec.family == "A":
            coords[-1] = -sum(coords[:-1], Fraction(0))
        h = exact_point(coords)
        if not rs.degenerate_split(h).deg:
            return h


def random_rational_vector(rng, dim, denom=12):
    return tuple(Fraction(rng.randint(-denom, denom), denom) for _ in range(dim))


def apply_matrix(m, v):
    """Image of the rational vector v under the integer matrix m (a stack row), in Fractions."""
    return tuple(
        sum((int(a) * Fraction(x) for a, x in zip(row, v)), Fraction(0)) for row in m
    )


def reflection_matrix(rs, alpha):
    """Integer matrix of the reflection in alpha: column k is `reflect` of e_k."""
    n = rs.ambient_dim
    cols = [reflect(rs, alpha, [int(i == k) for i in range(n)]) for k in range(n)]
    assert all(x.denominator == 1 for col in cols for x in col)
    return [[int(cols[k][j]) for k in range(n)] for j in range(n)]


def fixed_members(rs, stack, h0):
    """Indices of the elements of a (T, n, n) integer stack fixing h0, by one integer test.

    The stabilizer reference.  w fixes the torus element of h0 iff
    w h0 - h0 is a period, 2 pi times a coroot-lattice vector (the periods
    of the simply connected compact group).  That difference lies in the
    span of the roots, where the coroot lattice is the lattice dual to the
    weights: the vectors pairing integrally with every fundamental weight.
    With coordinates in units of pi the test is (omega_i|w h0 - h0) / 2
    in Z for every i, one integer product of the stack.
    """
    y, d = common_denominator(h0.coords)
    forms = [rs.int_form(w) for w in rs.fundamental_weights()]
    den = math.lcm(*(f for _, f in forms))
    omega = np.array([[z * (den // f) for z in zs] for zs, f in forms], dtype=np.int64).T
    y = np.array(y, dtype=np.int64)
    n = rs.ambient_dim
    diff = np.asarray(stack, dtype=np.int64).reshape(-1, n, n) @ y - y
    return tuple(np.flatnonzero(((diff @ omega) % (2 * d * den) == 0).all(axis=1)).tolist())


def subsystem_simple_roots(roots):
    """The simple roots of a positive system: its roots that are not the sum of two of its roots.

    The reference for the simple degenerate roots `weylgroup.stabilizer`
    reads off the root data.
    """
    roots = set(map(tuple, roots))
    return {r for r in roots
            if not any(tuple(x - y for x, y in zip(r, s)) in roots for s in roots)}


def scan_transversal(group, w0):
    """Indices of W0's coset representatives, by a blocked scan of the int8 stack.

    The reference for `weylgroup.coset_transversal`, which reads the
    group's `positivity` table instead: per block of elements,
    w^T G 2 rho is formed from the stack a row of w at a time, and Dyer's
    test (every simple root of W0 maps to a positive root) applied to it.
    """
    if w0.order == group.order:
        return (0,)
    rs = group.rs
    roots = rs._pos_rows[list(w0.roots)].T
    reps = []
    for lo in range(0, group.order, TRANSVERSAL_BLOCK):
        block = group.stack[lo:lo + TRANSVERSAL_BLOCK]
        w_rho = np.zeros((len(block), rs.ambient_dim), dtype=np.int64)
        for k, c in enumerate(rs._two_rho_form.tolist()):
            w_rho += block[:, k, :].astype(np.int64) * c
        reps.extend((lo + np.flatnonzero((w_rho @ roots > 0).all(axis=1))).tolist())
    return tuple(reps)


def check_stabilizer(rs, group, h0, w0, members):
    """Check `weylgroup.stabilizer`'s w0 at h0 against the elements fixing h0.

    `members` are their indices (`fixed_members` of the group's stack).
    The order is their count, every reflection in w0's simple roots fixes
    h0, and the coset transversal times the members covers W exactly once.
    """
    assert w0.order == len(members)
    reflections = [reflection_matrix(rs, rs.positive_roots[i]) for i in w0.roots]
    assert len(fixed_members(rs, reflections, h0)) == len(w0.roots)
    trans = coset_transversal(group, w0)
    stack = group.stack.astype(np.int64)
    products = stack[trans][:, None] @ stack[list(members)][None]
    # products of Weyl elements are Weyl elements, whose entries fit in int8;
    # one opaque row of bytes per matrix makes np.unique a 1-d sort
    n2 = rs.ambient_dim ** 2
    rows = np.ascontiguousarray(products.astype(np.int8).reshape(-1, n2)).view(f"V{n2}")
    assert rows.size == group.order == len(np.unique(rows))


def reduce_word(word, inverse_of) -> tuple:
    """Freely reduce a formal word given the index involution g -> g^{-1}."""
    stack: list[int] = []
    for letter in word:
        if stack and inverse_of[stack[-1]] == letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def word_products(gens, m):
    """Products of all s^m words of length m, in lexicographic order, as an (N, N, s^m) stack.

    Each is the chain P_k = P_(k-1) g from the identity, one letter at a
    time by `spectral._mul`, re-unitarized after every UNITARIZE_EVERY-th
    letter: the all-words reference for the class walk of `moment_exact`,
    which forms the same chains for the least words of the cyclic classes.
    """
    mats = np.stack(gens.elements, axis=-1)
    n = gens.dim
    stack = np.eye(n, dtype=complex)[:, :, None]
    for i in range(m):
        stack = spectral._mul(stack[:, :, :, None], mats[:, :, None, :]).reshape(n, n, -1)
        if (i + 1) % spectral.UNITARIZE_EVERY == 0:
            stack = spectral._unitarize(stack)
    return stack


def generator_set_to_json(gens) -> dict:
    """The JSON document of a generator set that `spectral.load_generator_set` reads."""
    return {
        "matrices": [
            [[[z.real, z.imag] for z in row] for row in np.asarray(g)]
            for g in gens.elements
        ],
        "labels": list(gens.labels),
        "symmetric": gens.symmetric,
        "free": gens.free,
    }


def unit_phase(num: int, den: int) -> complex:
    """e^{i*pi*num/den} for integers num and den > 0, reduced mod 2 before trigonometry.

    The scalar reference for `charcalc._phase_sum`.  num/den is correctly
    rounded int division, so the phase depends only on the rational, not
    on how it is scaled.
    """
    r = num % (2 * den)  # num/den mod 2 == r / den
    if r == 0:
        return 1 + 0j
    if r == den:
        return -1 + 0j
    if 2 * r == den:
        return 1j
    if 2 * r == 3 * den:
        return -1j
    return cmath.exp(1j * math.pi * (r / den))


def spy_fallbacks(monkeypatch) -> list:
    """A list of (group name, point) that gains an entry each time `charcalc._fallback` answers.

    The precision gate's fallback, which answers with the weight-sum
    oracle, or raises: a comparison of `character` with the oracle checks
    the Weyl path only while this stays empty.
    """
    calls = []
    fallback = charcalc._fallback

    def spy(rs, lam, h, why):
        calls.append((rs.spec.name, h))
        return fallback(rs, lam, h, why)

    monkeypatch.setattr(charcalc, "_fallback", spy)
    return calls


def rng_for(name: str) -> random.Random:
    return random.Random(f"weylchar-{name}")
