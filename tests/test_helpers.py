"""The shared test samplers."""

import pytest

from weylchar import build_root_system
from weylchar.charcalc import dim_irrep

from _helpers import random_dominant_weight, rng_for


def test_random_dominant_weight_gives_up_with_a_named_error():
    rs = build_root_system("E6")
    with pytest.raises(ValueError, match=r"E6.*dim <= 27"):
        random_dominant_weight(rs, rng_for("helpers"), max_dim=27, max_coeff=6,
                               max_draws=50)


def test_random_dominant_weight_draws_are_unchanged():
    rs = build_root_system("A2")
    rng = rng_for("helpers-a2")
    draws = [random_dominant_weight(rs, rng, max_dim=64) for _ in range(3)]
    # The bound changes nothing while a weight is found: same stream, same weights.
    rng = rng_for("helpers-a2")
    again = []
    for _ in range(3):
        while True:
            coeffs = [rng.randint(0, 6) for _ in range(rs.rank)]
            if any(coeffs):
                lam = rs.weight_from_fundamental(coeffs)
                if dim_irrep(rs, lam) <= 64:
                    again.append(lam)
                    break
    assert draws == again
