"""Decay sweeps, slope fits, divergence certificates, product counterexample."""

import math
from fractions import Fraction as F

import pytest

from weylchar import build_root_system, exact_point, zero_point
from weylchar.asymptotics import (
    WeightPath,
    alcove_stratum_points,
    decay_exponent,
    divergence_certificate,
    expected_decay_exponent,
    nonsimple_counterexample,
    normalized_char_sweep,
    weight_inf_norm,
)
from weylchar.charcalc import character, dim_irrep
from weylchar.errors import DomainError, StructureError
from weylchar.exactlin import vadd, vscale, vzero

from _helpers import random_dominant_weight, rng_for


def su2_point(theta_coeff: F):
    return exact_point([theta_coeff / 2, -theta_coeff / 2])


def test_su2_sweep_bound_and_rate():
    # theta = pi/2: ratio is exactly 1/(2l+1)/sin(pi/4) bounded, vanishing ~ 1/l
    rs = build_root_system("A1")
    lam0 = (F(1, 2), F(-1, 2))
    path = WeightPath.ray(rs, lam0, range(1, 41))
    rep = normalized_char_sweep(rs, path, su2_point(F(1, 2)))
    sin_q = math.sin(math.pi / 4)
    for k, lam, d, ratio in rep.entries:
        assert ratio <= 1 / (d * sin_q) + 1e-12
    # the pi/2 ray is resonant with period 8 in k; a fixed residue class
    # isolates the 1/l decay the closed form predicts
    sub = normalized_char_sweep(
        rs, WeightPath.ray(rs, lam0, range(1, 42, 8)), su2_point(F(1, 2))
    )
    assert abs(decay_exponent(sub) + 1) <= 0.1


def test_identity_point_sweep_is_flagged_constant_one():
    rs = build_root_system("A2")
    path = WeightPath.ray(rs, rs.weyl_vector, range(1, 8))
    rep = normalized_char_sweep(rs, path, zero_point(3))
    assert rep.identity_stratum
    assert all(r == 1.0 for r in rep.ratios())
    with pytest.raises(DomainError):
        decay_exponent(rep)


def test_su3_paper_stratum_decay():
    # h0 = (pi/5)(1,1,-2): two non-degenerate roots, both seeing rho
    rs = build_root_system("A2")
    h0 = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    split = rs.degenerate_split(h0)
    m = expected_decay_exponent(rs, split, rs.weyl_vector)
    assert m == 2
    rep = normalized_char_sweep(
        rs, WeightPath.ray(rs, rs.weyl_vector, range(1, 31)), h0
    )
    head = max(rep.ratios()[:5])
    tail = max(rep.ratios()[-5:])
    assert tail < head / 10
    # the ray is resonant at this representative (phases have period 10 in k);
    # fitting on a fixed residue class isolates the k^-2 decay
    sub = normalized_char_sweep(
        rs, WeightPath.ray(rs, rs.weyl_vector, range(1, 62, 10)), h0
    )
    assert abs(decay_exponent(sub) + 2) <= 0.1


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "C3", "G2"])
def test_decay_exponent_on_orthogonality_strata(name):
    # strata whose active walls are simple-root walls: (alpha|h0) = 0 exactly
    rs = build_root_system(name)
    for st in alcove_stratum_points(rs):
        if st.central or rs.rank in st.walls:
            continue
        path = WeightPath.ray(rs, rs.weyl_vector, range(1, 21))
        rep = normalized_char_sweep(rs, path, st.point)
        m = expected_decay_exponent(rs, rs.degenerate_split(st.point), rs.weyl_vector)
        assert abs(rep.fitted_slope + m) <= 0.1, (st.walls, rep.fitted_slope, m)


def test_envelope_constant_holds_out_of_sample():
    rs = build_root_system("A3")
    for st in alcove_stratum_points(rs):
        if st.central:
            continue
        path = WeightPath.ray(rs, rs.weyl_vector, range(1, 21))
        rep = normalized_char_sweep(rs, path, st.point)
        for k, lam, d, ratio in rep.entries[len(rep.entries) // 2:]:
            assert ratio <= rep.bound_constant / weight_inf_norm(lam) * (1 + 1e-12)


def test_reduced_exponent_when_lambda0_orthogonal_to_ndeg_roots():
    # A3 stratum deg = {alpha1}; lambda0 = omega1 pairs with the degenerate
    # root but is orthogonal to three non-degenerate ones, cutting the rate
    # from 5 to 2.  (lambda0 must see every degenerate root, otherwise other
    # coset terms decay slower than the representative one and the paper's
    # per-term count overstates the rate.)
    rs = build_root_system("A3")
    st = [s for s in alcove_stratum_points(rs) if s.walls == (0,)][0]
    lam0 = rs.weight_from_fundamental((1, 0, 0))
    split = rs.degenerate_split(st.point)
    assert all(rs.inner(lam0, a) != 0 for a in split.deg)
    m_full = expected_decay_exponent(rs, split, rs.weyl_vector)
    m_reduced = expected_decay_exponent(rs, split, lam0)
    assert m_reduced == 2 < m_full == 5
    # offsets (rho|alpha)/(lam0|alpha) > 1 slow the fit's convergence, so use
    # a longer ray; the bounded product r*(k+2)(k+3) pins the exponent exactly
    rep = normalized_char_sweep(rs, WeightPath.ray(rs, lam0, range(1, 61)), st.point)
    assert abs(rep.fitted_slope + m_reduced) <= 0.1
    tail = rep.entries[-12:]
    prods = [r * (k + 2) * (k + 3) for k, _, _, r in tail]
    assert 1.5 < min(prods) and max(prods) < 2.5


def test_decay_exponent_needs_five_entries():
    rs = build_root_system("A1")
    path = WeightPath.ray(rs, (F(1, 2), F(-1, 2)), range(1, 4))
    rep = normalized_char_sweep(rs, path, su2_point(F(1, 2)))
    with pytest.raises(DomainError):
        decay_exponent(rep)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def test_certificate_su3_direct():
    rs = build_root_system("A2")
    h0 = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    cert = divergence_certificate(rs, rs.degenerate_split(h0), rs.weyl_vector)
    assert cert.construction == "direct"
    assert cert.root == rs.simple_roots[1]
    assert cert.growth == 1


def test_certificate_regular_point_direct():
    rs = build_root_system("B3")
    h = exact_point([F(1, 5), F(1, 7), F(1, 11)])
    assert not rs.degenerate_split(h).deg
    cert = divergence_certificate(rs, rs.degenerate_split(h), rs.weyl_vector)
    assert cert.construction == "direct"
    assert cert.root == rs.simple_roots[0]


def test_certificate_g2_chain():
    # deg = {alpha1}, lambda0 supported on the alpha1 coefficient only:
    # no direct simple root, the chain [alpha1, alpha2] certifies alpha1+alpha2
    rs = build_root_system("G2")
    st = [s for s in alcove_stratum_points(rs) if s.walls == (0,)][0]
    split = rs.degenerate_split(st.point)
    assert split.deg == (rs.simple_roots[0],)
    lam0 = rs.weight_from_fundamental((1, 0))
    assert rs.inner(lam0, rs.simple_roots[1]) == 0
    cert = divergence_certificate(rs, split, lam0)
    assert cert.construction == "chain"
    assert list(cert.chain) == [0, 1]
    assert cert.root == vadd(rs.simple_roots[0], rs.simple_roots[1])
    assert cert.growth != 0


def test_report_ratios_in_unit_interval_and_sorted_by_dim():
    rs = build_root_system("B2")
    st = [s for s in alcove_stratum_points(rs) if not s.central][0]
    rep = normalized_char_sweep(
        rs, WeightPath.ray(rs, rs.weyl_vector, range(1, 15)), st.point
    )
    dims = rep.dims()
    assert dims == sorted(dims)
    assert all(0 <= r <= 1 + 1e-12 for r in rep.ratios())


def test_certificate_root_outside_degenerate_span():
    from weylchar.exactlin import span_coefficients

    rs = build_root_system("A3")
    st = [s for s in alcove_stratum_points(rs) if s.walls == (0, 1)][0]
    split = rs.degenerate_split(st.point)
    deg_simple = [a for a in rs.simple_roots if a in set(split.deg)]
    cert = divergence_certificate(rs, split, rs.weyl_vector)
    assert span_coefficients(tuple(deg_simple), rs.gram, cert.root) is None


def test_certificate_pairing_strictly_increasing():
    rs = build_root_system("C3")
    st = [s for s in alcove_stratum_points(rs) if not s.central][0]
    split = rs.degenerate_split(st.point)
    cert = divergence_certificate(rs, split, rs.weyl_vector)
    vals = [
        rs.inner(vadd(vscale(k, rs.weyl_vector), rs.weyl_vector), cert.root)
        for k in range(1, 12)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_certificate_refuses_d2_and_zero_weight():
    rs = build_root_system("D2")
    h0 = exact_point([F(7, 6), F(5, 6)])
    split = rs.degenerate_split(h0)
    with pytest.raises(StructureError):
        divergence_certificate(rs, split, rs.weyl_vector)
    rs2 = build_root_system("A2")
    sp2 = rs2.degenerate_split(exact_point([F(1, 5), F(1, 5), F(-2, 5)]))
    with pytest.raises(DomainError):
        divergence_certificate(rs2, sp2, vzero(3))


def test_certificate_refuses_central_stratum():
    rs = build_root_system("A1")
    central = exact_point([F(1), F(-1)])  # theta = 2*pi, all roots degenerate
    split = rs.degenerate_split(central)
    with pytest.raises(DomainError):
        divergence_certificate(rs, split, rs.weyl_vector)


def test_certificates_exist_on_all_proper_strata():
    rng = rng_for("cert-everywhere")
    for name in ("A4", "A5", "B4", "D3", "D4", "F4"):
        rs = build_root_system(name)
        for st in alcove_stratum_points(rs):
            if st.central:
                continue
            split = rs.degenerate_split(st.point)
            for lam0 in [rs.weyl_vector] + [
                random_dominant_weight(rs, rng, max_dim=10**9, max_coeff=3)
                for _ in range(2)
            ]:
                cert = divergence_certificate(rs, split, lam0)
                assert cert.root in split.ndeg
                assert rs.inner(lam0, cert.root) != 0


# ---------------------------------------------------------------------------
# Non-simple counterexample
# ---------------------------------------------------------------------------


def test_counterexample_ratio_is_exactly_one():
    a1 = build_root_system("A1")
    g = su2_point(F(1, 2))  # theta = pi/2
    rep = nonsimple_counterexample([a1, a1], 0, g, 12)
    assert all(r == 1.0 for r in rep.ratios())
    dims = rep.dims()
    assert dims == sorted(dims) and dims[-1] == 13


def test_counterexample_growing_both_factors_vanishes():
    a1 = build_root_system("A1")
    g = su2_point(F(1, 2))
    rep = nonsimple_counterexample(
        [a1, a1], 0, g, 50, grow_all=True, g_parts=[g, g]
    )
    assert rep.ratios()[-1] < 1e-2
    assert rep.ratios()[-1] < rep.ratios()[0]


def test_counterexample_needs_two_factors_and_nontrivial_g():
    a1 = build_root_system("A1")
    with pytest.raises(DomainError):
        nonsimple_counterexample([a1], 0, su2_point(F(1, 2)), 5)
    with pytest.raises(DomainError):
        nonsimple_counterexample([a1, a1], 0, zero_point(2), 5)


def test_d2_stratum_has_bounded_nonvanishing_ratio():
    # D2 with L1+L2 degenerate and lambda = (m, m): the paper's failure mode
    rs = build_root_system("D2")
    h0 = exact_point([F(7, 6), F(5, 6)])
    split = rs.degenerate_split(h0)
    assert [sum(r) % 2 == 0 for r in split.deg] == [True]
    ratios = []
    for m in range(1, 20):
        lam = (F(m), F(m))
        d = dim_irrep(rs, lam)
        assert d == 2 * m + 1
        cv = character(rs, lam, h0)
        ratios.append(abs(cv.value) / d)
    # constant, bounded away from zero: the normalized character does not decay
    assert min(ratios) > 0.4
    assert max(ratios) - min(ratios) < 1e-9


# ---------------------------------------------------------------------------
# Alcove strata enumeration
# ---------------------------------------------------------------------------


def test_alcove_points_lie_on_their_walls():
    for name in ("A2", "B2", "G2", "C3"):
        rs = build_root_system(name)
        theta = rs.highest_root
        strata = alcove_stratum_points(rs)
        # one distinct point per nonempty proper set of walls, each on a singular face
        assert len({st.point.coords for st in strata}) == len(strata) == 2 ** (rs.rank + 1) - 2
        for st in strata:
            assert st.deg_count >= 1
            c = st.point.coords
            for i in range(rs.rank):
                q = rs.inner(rs.simple_roots[i], c)
                assert (q == 0) == (i in st.walls)
                assert q >= 0
            q = rs.inner(theta, c)
            assert (q == 2) == (rs.rank in st.walls)
            assert q <= 2


def test_alcove_points_refuse_a_non_simple_system():
    # D2 = A1 x A1: theta pairs to 0 with a coweight, so there is no alcove to cut
    with pytest.raises(StructureError):
        alcove_stratum_points(build_root_system("D2"))


def test_non_simple_refusals_give_each_callers_reason():
    # Only the certificate rests on the divergence theorem; the other two
    # callers just need a connected Dynkin diagram.
    rs = build_root_system("D2")
    prefix = "requires a simple root system; D2 has a disconnected Dynkin diagram"
    split = rs.degenerate_split(exact_point([F(7, 6), F(5, 6)]))
    calls = [
        ("divergence_certificate", lambda: divergence_certificate(rs, split, rs.weyl_vector),
         " (the divergence theorem does not hold for non-simple algebras)"),
        ("alcove_stratum_points", lambda: alcove_stratum_points(rs), ""),
        ("dynkin_path", lambda: rs.dynkin_path(0, 1), ""),
    ]
    for op, call, reason in calls:
        with pytest.raises(StructureError) as err:
            call()
        assert str(err.value) == f"{op} {prefix}{reason}"


def test_alcove_central_strata_detected():
    rs = build_root_system("A1")
    strata = alcove_stratum_points(rs)
    central = {s.point.coords for s in strata if s.central}
    # the identity vertex and theta = 2*pi (the -I element of SU(2))
    assert central == {(F(0), F(0)), (F(1), F(-1))}
    b2 = build_root_system("B2")
    noncentral_vertices = [
        s for s in alcove_stratum_points(b2) if len(s.walls) == 2 and not s.central
    ]
    assert noncentral_vertices  # B2 has singular vertices that are not central
