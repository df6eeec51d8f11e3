"""The integer exponent kernel and the stacked int8 Weyl group.

Every exact character sum (regular, singular, oracle) goes through one
integer kernel, `charcalc._exponent_map`, and one phase sum,
`charcalc._phase_sum`.  These tests hold the kernel to plain Fraction
references written out here, one per caller, the phase sum to a scalar
loop over `unit_phase`, and the batched int8 enumeration to a
one-element-at-a-time BFS.  The kernel's arrays of exponents r and
coefficients c over its denominator D are compared as the map {r/D: c}.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchar import build_root_system, exact_point
from weylchar.asymptotics import alcove_stratum_points
from weylchar.charcalc import (
    _SingularEvaluator,
    _exact_orbit,
    _exponent_map,
    _phase_sum,
    _weight_exponents,
    cached_weyl_group,
    char_singular,
    char_weightsum_oracle,
    character,
    dim_irrep,
    weight_multiplicities,
)
from weylchar.exactlin import INT64_SAFE, common_denominator, int_matvec, vadd
from weylchar.utils import pairwise_sum

from _helpers import (
    apply_matrix, random_dominant_weight, random_regular_exact_point, reflection_matrix,
    rng_for, unit_phase,
)

#: Sample of W(E6) used where a Fraction reference over all 51840 elements
#: would take half a minute.
E6_SAMPLE = 1500


def _weight(rs, rng, max_dim):
    # E6 dimensions grow fast: draw from 0/1 fundamental coordinates there.
    return random_dominant_weight(rs, rng, max_dim=max_dim, max_coeff=1 if rs.rank == 6 else 6)


def _fractions(exps, coeffs, d):
    """An `_exponent_map` result as the {exponent / pi mod 2: coefficient} map."""
    return {F(r, d): c for r, c in zip(exps.tolist(), coeffs.tolist())}


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
    group = cached_weyl_group(rs)
    out, abs_sum = {}, 0.0
    for b in transversal.tolist():
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
        exps, coeffs, d = _exponent_map(orbit[idx], den, *rs.int_form(eta), signs[idx])
        want = _reference_regular(rs, eta, h, group.stack[idx], group.signs[idx])
        assert _fractions(exps, coeffs, d) == want
        assert exps.tolist() == sorted(set(exps.tolist()))  # distinct, in increasing order


@pytest.mark.parametrize("name", ["B4", "F4", "E6"])
def test_singular_map_matches_fraction_reference(name):
    rng = rng_for(f"kernel-singular-{name}")
    rs = build_root_system(name)
    for h0 in _singular_points(rs, rng, 2):
        split = rs.degenerate_split(h0)
        ev = _SingularEvaluator(rs, split)
        for _ in range(2):
            lam = _weight(rs, rng, 3000)
            exps, coeffs, d, got_abs = ev.exponents(lam)
            want, want_abs = _reference_singular(rs, split, ev.transversal, lam)
            assert _fractions(exps, coeffs, d) == want and got_abs == want_abs


@pytest.mark.parametrize("name", ["B4", "F4", "E6"])
def test_oracle_map_matches_fraction_reference(name):
    rng = rng_for(f"kernel-oracle-{name}")
    rs = build_root_system(name)
    lam = _weight(rs, rng, 400)
    mults = weight_multiplicities(rs, lam)
    for h in [random_regular_exact_point(rs, rng)] + _singular_points(rs, rng, 1):
        assert _fractions(*_weight_exponents(rs, lam, h)) == _reference_oracle(rs, mults, h)


def _phase_map(rng, d, size, dtype):
    """Distinct sorted exponents in [0, 2d), the exact residues among them, and
    coefficients with some zeros, as arrays of `dtype`."""
    exps = sorted({0, d, *(k * d // 2 for k in (1, 3) if d % 2 == 0),
                   *(rng.randrange(2 * d) for _ in range(size))})
    coeffs = [rng.choice([0, rng.randint(-10**6, 10**6)]) for _ in exps]
    return np.array(exps, dtype=dtype), np.array(coeffs, dtype=dtype)


@pytest.mark.parametrize("d, dtype", [
    (6, np.int64),  # every exact residue: r / d in {0, 1/2, 1, 3/2}
    (360, np.int64),
    (2**52 - 1, np.int64),  # 2d just below 2**53: int64 true division
    (2**52 + 1, np.int64),  # 2d just above 2**53: Python int division
    (2**60 + 3, np.int64),  # where int64 true division would round its inputs
    (2**62 + 6, object),  # past int64: Python ints throughout
])
def test_phase_sum_matches_scalar_unit_phase(d, dtype):
    rng = rng_for(f"phase-sum-{d}")
    for size in (0, 1, 50, 2000):
        exps, coeffs = _phase_map(rng, d, size, dtype)
        want = pairwise_sum([
            c * unit_phase(r, d) for r, c in zip(exps.tolist(), coeffs.tolist()) if c != 0
        ])
        assert repr(_phase_sum(exps, coeffs, d)) == repr(want)
    empty = np.array([], dtype=dtype)
    assert repr(_phase_sum(empty, empty, d)) == repr(pairwise_sum([])) == "0.0"
    assert repr(_phase_sum(exps, 0 * coeffs, d)) == "0.0"


def test_int_matvec_switches_to_python_ints_past_int64():
    rows = np.array([[1, -2], [3, 4]], dtype=np.int8)
    small = int_matvec(rows, [5, 7])
    assert small.dtype == np.int64 and small.tolist() == [-9, 43]
    big = int_matvec(rows, [2**61, 1])
    assert big.dtype == object and big.tolist() == [2**61 - 2, 3 * 2**61 + 4]
    reduced = int_matvec(rows, [5, 7], modulus=2**70)
    assert reduced.dtype == object and reduced.tolist() == [2**70 - 9, 43]


@st.composite
def _matvec_inputs(draw):
    """Integer rows (int8 over its whole range, or int64), a vector or
    matrix y near the int64 switch for those rows, and a modulus or None."""
    dtype = draw(st.sampled_from([np.int8, np.int64]))
    lo, hi = (-128, 127) if dtype is np.int8 else (-2**40, 2**40)
    n_rows, n = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    entry = st.one_of(st.sampled_from([lo, -1, 0, 1, hi]), st.integers(lo, hi))
    rows = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n_rows, max_size=n_rows)), dtype=dtype).reshape(n_rows, n)
    largest = max(int(rows.max()), -int(rows.min()), 1) if rows.size else 1
    switch = INT64_SAFE // (largest * n)  # the first max|y| that needs Python ints
    near = st.builds(lambda s, d: s * (switch + d), st.sampled_from([-1, 1]), st.integers(-2, 2))
    m = draw(st.sampled_from([None, 1, 3]))  # a vector y, or an (n, m) matrix
    y = draw(st.lists(st.one_of(near, st.integers(-2**20, 2**20), st.integers(-2**70, 2**70)),
                      min_size=n * (m or 1), max_size=n * (m or 1)))
    if m is not None:
        y = np.array(y, dtype=object).reshape(n, m)
    modulus = draw(st.one_of(st.none(), st.integers(1, 2**20), st.integers(2**61, 2**63)))
    return rows, y, modulus


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_matvec_inputs())
def test_int_matvec_matches_python_ints(inputs):
    rows, y, modulus = inputs
    cols = np.asarray(y, dtype=object).reshape(rows.shape[1], -1).T.tolist()
    want = [[sum(int(r) * c for r, c in zip(row, col)) for col in cols] for row in rows.tolist()]
    if modulus is not None:
        want = [[v % modulus for v in w] for w in want]
    if np.ndim(y) == 1:
        want = [w[0] for w in want]
    got = int_matvec(rows, y, modulus)
    assert got.tolist() == want and got.shape == (len(rows), *np.shape(y)[1:])
    # int64 exactly when max|rows| * n * max|y| and the modulus are below 2**62
    largest = max(int(rows.max()), -int(rows.min()), 1) if rows.size else 1
    bound = max(largest * rows.shape[1] * max(abs(c) for col in cols for c in col), modulus or 0)
    assert got.dtype == (np.int64 if bound < INT64_SAFE else object)


def test_int_matvec_counts_int8_minus_128_at_full_magnitude():
    # np.abs wraps int8 -128 to -128, which once sized this product for
    # int64 and let it overflow silently to 4611686018427387904
    got = int_matvec(np.array([[-128, -128]], dtype=np.int8), [2**56, 2**55])
    assert got.dtype == object and got.tolist() == [-13835058055282163712]


def _per_root_exponents(ev, lam):
    """`_SingularEvaluator.exponents` with one `int_matvec` per degenerate root.

    The images b a of the degenerate roots and their pairings with G eta
    are formed root by root, and the subdims multiplied a root at a time.
    """
    rs, split = ev.rs, ev.split
    n = rs.ambient_dim
    group, idx = cached_weyl_group(rs), ev.transversal.tolist()
    reps = group.stack[idx].reshape(-1, n)
    h, h_den = common_denominator(split.torus_point.coords)
    deg = list(split.deg_index)
    roots = rs._pos_rows[deg]
    s = (rs._pos_forms[deg] @ roots.T).sum(axis=1)
    scale = F((2 * rs._pos_forms_den) ** len(deg), math.prod(s.tolist()))
    y, y_den = rs.int_form(vadd(lam, rs.weyl_vector))
    pairings = [int_matvec(int_matvec(reps, a).reshape(-1, n), y) for a in roots.tolist()]
    sub = [scale.numerator] * len(idx)
    for p in pairings:
        sub = [x * v for x, v in zip(sub, p.tolist())]
    denom = scale.denominator * y_den ** len(deg)
    assert all(x % denom == 0 for x in sub)
    sub = [x // denom for x in sub]
    abs_sum = 0.0
    for x in sub:
        abs_sum += abs(float(x))
    signs = group.signs[idx].tolist()
    coeffs = np.array([g * x for g, x in zip(signs, sub)], dtype=object)
    b_h0 = int_matvec(reps, h).reshape(-1, n)
    return (*_exponent_map(b_h0, h_den, y, y_den, coeffs), abs_sum)


def _assert_same_exponents(ev, lam):
    got, want = ev.exponents(lam), _per_root_exponents(ev, lam)
    assert [got[0].tolist(), got[1].tolist(), *got[2:]] == \
        [want[0].tolist(), want[1].tolist(), *want[2:]]


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "E6"]
)
def test_singular_exponents_match_the_per_root_reference(name):
    # every alcove stratum and two Weyl images of each (one on E6)
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    rng = rng_for(f"evaluator-table-{name}")
    weights = [rs.weight_from_fundamental([1] * rs.rank),
               rs.weight_from_fundamental(([3] + [0] * rs.rank)[:rs.rank - 1] + [2])]
    for stratum in alcove_stratum_points(rs):
        if stratum.central:
            continue
        h0 = stratum.point
        images = [group.stack[rng.randrange(group.order)] for _ in range(1 if name == "E6" else 2)]
        for h in [h0] + [exact_point(apply_matrix(w, h0.coords)) for w in images]:
            ev = _SingularEvaluator(rs, rs.degenerate_split(h))
            assert ev.b_deg.dtype == np.int8
            _assert_same_exponents(ev, rng.choice(weights))


@pytest.mark.parametrize("q", [2**60 + 33, 10**30 + 57])
def test_singular_exponents_match_the_per_root_reference_past_int64(q):
    # 2D past 2**62 puts the exponents on Python ints; weights of 2**40 put
    # the identity's subdims (three pairings) past int64 too
    rs = build_root_system("A2")
    rng = rng_for(f"evaluator-table-object-{q}")
    huge = rs.weight_from_fundamental([2**40, 2**40 + 1])
    for _ in range(3):
        a = F(rng.randrange(1, q), q)
        for h in (exact_point([a, a, -2 * a]), exact_point([a, -2 * a, a])):
            ev = _SingularEvaluator(rs, rs.degenerate_split(h))
            for lam in (rs.weight_from_fundamental([2, 1]), huge):
                assert ev.exponents(lam)[0].dtype == object
                _assert_same_exponents(ev, lam)
    ev = _SingularEvaluator(rs, rs.degenerate_split(exact_point([0, 0, 0])))
    exps, coeffs, d, _ = ev.exponents(huge)
    assert coeffs.dtype == object and coeffs.tolist() == [dim_irrep(rs, huge)]
    _assert_same_exponents(ev, huge)


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
    exps, coeffs, d = _exponent_map(orbit, den, *rs.int_form(eta), signs)
    assert exps.dtype == object
    assert _fractions(exps, coeffs, d) == _reference_regular(rs, eta, h, group.stack, group.signs)
    h0 = exact_point([x, x, y, z])  # e1 - e2 degenerate
    split = rs.degenerate_split(h0)
    assert split.deg
    ev = _SingularEvaluator(rs, split)
    exps, coeffs, d, abs_sum = ev.exponents(lam)
    assert (_fractions(exps, coeffs, d), abs_sum) == \
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
