"""Shared test utilities: seeded samplers for weights and torus points."""

import random
from fractions import Fraction

from weylchar.charcalc import dim_irrep
from weylchar.torus import exact_point
from weylchar.weylgroup import fixes_torus_point


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


def scan_stabilizer(rs, group, h0):
    """Indices of the elements of `group` fixing h0, by an exhaustive scan.

    The reference for `weylgroup.stabilizer`, which closes the degenerate
    reflections instead: one exact fixed-point test per element of W.
    """
    return tuple(i for i, w in enumerate(group.elements) if fixes_torus_point(rs, w, h0))


def rng_for(name: str) -> random.Random:
    return random.Random(f"weylchar-{name}")
