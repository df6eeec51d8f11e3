"""The integer exponent kernel and the stacked int8 Weyl group.

Every exact character sum (regular, singular, oracle) goes through one
integer kernel, `charcalc._exponent_map`.  These tests hold it to plain
Fraction references written out here, one per caller, and hold the
batched int8 enumeration to a one-element-at-a-time BFS.  The kernel's
integer map {r: c} over its denominator D is compared as {r/D: c}.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from weylchar import build_root_system, exact_point
from weylchar.asymptotics import alcove_stratum_points
from weylchar.charcalc import (
    _SingularEvaluator,
    _exact_orbit,
    _exponent_map,
    _weight_exponents,
    cached_weyl_group,
    char_singular,
    char_weightsum_oracle,
    character,
    dim_irrep,
    weight_multiplicities,
)
from weylchar.exactlin import int_matvec, vadd

from _helpers import (
    apply_matrix, random_dominant_weight, random_regular_exact_point, reflection_matrix,
    rng_for,
)

#: Sample of W(E6) used where a Fraction reference over all 51840 elements
#: would take half a minute.
E6_SAMPLE = 1500


def _weight(rs, rng, max_dim):
    # E6 dimensions grow fast: draw from 0/1 fundamental coordinates there.
    return random_dominant_weight(rs, rng, max_dim=max_dim, max_coeff=1 if rs.rank == 6 else 6)


def _fractions(collected, d):
    """An `_exponent_map` result as the {exponent / pi mod 2: coefficient} map."""
    return {F(r, d): c for r, c in collected.items()}


def _reference_regular(rs, eta, h, mats, signs):
    """{(eta|w h) mod 2: sum of sign(w)} in Fractions, element by element."""
    out = {}
    for w, sign in zip(mats.tolist(), signs.tolist()):
        q = rs.inner(eta, apply_matrix(w, h.coords)) % 2
        out[q] = out.get(q, 0) + sign
    return out


def _reference_singular(rs, split, transversal, lam):
    """The coset sum as it was first written: b^{-1} via an inverse per coset."""
    eta = vadd(lam, rs.weyl_vector)
    rho_deg = tuple(sum((a[i] for a in split.deg), F(0)) / 2 for i in range(rs.ambient_dim))
    group = transversal.group
    out, abs_sum = {}, 0.0
    for b in transversal.indices:
        m = group.stack[b].astype(np.int64)
        inv = np.rint(np.linalg.inv(m)).astype(np.int64)
        assert (m @ inv == np.eye(len(m), dtype=np.int64)).all()
        nu = apply_matrix(inv, eta)
        sub = F(1)
        for a in split.deg:
            sub *= rs.inner(nu, a) / rs.inner(rho_deg, a)
        assert sub.denominator == 1
        q = rs.inner(nu, split.torus_point.coords) % 2
        out[q] = out.get(q, 0) + int(group.signs[b]) * int(sub)
        abs_sum += abs(float(sub))
    return out, abs_sum


def _reference_oracle(rs, mults, h):
    out = {}
    for mu, m in mults.items():
        q = rs.inner(mu, h.coords) % 2
        out[q] = out.get(q, 0) + m
    return out


def _singular_points(rs, rng, count):
    # On E6, strata with at least 10 degenerate roots keep the transversal
    # (and the Fraction reference's loop over it) to a few hundred cosets.
    min_deg = 10 if rs.rank == 6 else 1
    strata = [s for s in alcove_stratum_points(rs) if not s.central and s.deg_count >= min_deg]
    return [rng.choice(strata).point for _ in range(count)]


@pytest.mark.parametrize("name", ["B4", "F4", "E6"])
def test_regular_map_matches_fraction_reference(name):
    rng = rng_for(f"kernel-regular-{name}")
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    idx = np.arange(group.order)
    if group.order > E6_SAMPLE:
        idx = np.sort(np.array(rng.sample(range(group.order), E6_SAMPLE)))
    for _ in range(2):
        lam = _weight(rs, rng, 5000)
        eta = vadd(lam, rs.weyl_vector)
        h = random_regular_exact_point(rs, rng)
        orbit, den, signs = _exact_orbit(rs, h.coords)
        got = _fractions(*_exponent_map(orbit[idx], den, *rs.int_form(eta), signs[idx]))
        want = _reference_regular(rs, eta, h, group.stack[idx], group.signs[idx])
        assert got == want
        assert list(got) == sorted(got)  # keys come in increasing order


@pytest.mark.parametrize("name", ["B4", "F4", "E6"])
def test_singular_map_matches_fraction_reference(name):
    rng = rng_for(f"kernel-singular-{name}")
    rs = build_root_system(name)
    for h0 in _singular_points(rs, rng, 2):
        split = rs.degenerate_split(h0)
        ev = _SingularEvaluator(rs, split)
        for _ in range(2):
            lam = _weight(rs, rng, 3000)
            collected, d, got_abs = ev.exponents(lam)
            want, want_abs = _reference_singular(rs, split, ev.transversal, lam)
            assert _fractions(collected, d) == want and got_abs == want_abs


@pytest.mark.parametrize("name", ["B4", "F4", "E6"])
def test_oracle_map_matches_fraction_reference(name):
    rng = rng_for(f"kernel-oracle-{name}")
    rs = build_root_system(name)
    lam = _weight(rs, rng, 400)
    mults = weight_multiplicities(rs, lam)
    for h in [random_regular_exact_point(rs, rng)] + _singular_points(rs, rng, 1):
        assert _fractions(*_weight_exponents(rs, lam, h)) == _reference_oracle(rs, mults, h)


def test_int_matvec_switches_to_python_ints_past_int64():
    rows = np.array([[1, -2], [3, 4]], dtype=np.int8)
    small = int_matvec(rows, [5, 7])
    assert small.dtype == np.int64 and small.tolist() == [-9, 43]
    big = int_matvec(rows, [2**61, 1])
    assert big.dtype == object and big.tolist() == [2**61 - 2, 3 * 2**61 + 4]
    reduced = int_matvec(rows, [5, 7], modulus=2**70)
    assert reduced.dtype == object and reduced.tolist() == [2**70 - 9, 43]


def test_huge_denominators_take_the_python_int_path():
    # Denominators near 1e12 put 2*D far past 2**62: every sum runs on
    # Python ints and must still agree with the Fraction references.  The
    # coordinates stay well away from the walls, so the values are
    # well conditioned.
    rs = build_root_system("B4")
    group = cached_weyl_group(rs)
    p, q, r = 999_999_999_989, 999_999_999_961, 999_999_999_959
    lam = rs.weight_from_fundamental((1, 0, 1, 1))
    eta = vadd(lam, rs.weyl_vector)
    x, y, z = F(p // 3, p), F(2 * q // 7, q), F(3 * r // 11, r)
    h = exact_point([x, y, z, F(5, 7)])
    assert not rs.degenerate_split(h).deg
    orbit, den, signs = _exact_orbit(rs, h.coords)
    assert 2 * den > 2**62
    assert _fractions(*_exponent_map(orbit, den, *rs.int_form(eta), signs)) == \
        _reference_regular(rs, eta, h, group.stack, group.signs)
    h0 = exact_point([x, x, y, z])  # e1 - e2 degenerate
    split = rs.degenerate_split(h0)
    assert split.deg
    ev = _SingularEvaluator(rs, split)
    collected, d, abs_sum = ev.exponents(lam)
    assert (_fractions(collected, d), abs_sum) == \
        _reference_singular(rs, split, ev.transversal, lam)
    mults = weight_multiplicities(rs, lam)
    for point in (h, h0):
        assert _fractions(*_weight_exponents(rs, lam, point)) == \
            _reference_oracle(rs, mults, point)
        got, want = character(rs, lam, point), char_weightsum_oracle(rs, lam, point)
        assert got.condition < 1e-9
        assert abs(got.value - want.value) <= 1e-9 * dim_irrep(rs, lam)


def _reference_bfs(rs):
    """One element at a time: (matrix as nested lists, sign) in BFS order."""
    gens = [np.array(reflection_matrix(rs, a), dtype=np.int64) for a in rs.simple_roots]
    mats, signs = [np.eye(rs.ambient_dim, dtype=np.int64)], [1]
    seen = {mats[0].tobytes()}
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            for g in gens:
                prod = mats[idx] @ g
                if prod.tobytes() not in seen:
                    seen.add(prod.tobytes())
                    mats.append(prod)
                    signs.append(-signs[idx])
                    nxt.append(len(mats) - 1)
        frontier = nxt
    return [(m.tolist(), s) for m, s in zip(mats, signs)]


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4", "E6"]
)
def test_int8_stack_matches_elements_and_reference_bfs(name):
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    assert group.stack.dtype == np.int8
    assert group.stack.shape == (group.order, rs.ambient_dim, rs.ambient_dim)
    assert list(zip(group.stack.tolist(), group.signs.tolist())) == _reference_bfs(rs)


@pytest.mark.parametrize("name", ["A1", "A2"])
def test_small_transversals_evaluate_correctly(name):
    rs = build_root_system(name)
    sizes = set()
    for st in alcove_stratum_points(rs):
        ev = _SingularEvaluator(rs, rs.degenerate_split(st.point))
        sizes.add(len(ev.transversal))
        for coeffs in ([1] * rs.rank, [3] + [0] * (rs.rank - 1), [2] * rs.rank):
            lam = rs.weight_from_fundamental(coeffs)
            got = char_singular(rs, lam, st.point)
            want = char_weightsum_oracle(rs, lam, st.point)
            assert abs(got.value - want.value) <= 1e-10 * dim_irrep(rs, lam)
    assert 1 in sizes  # central points: the identity alone
