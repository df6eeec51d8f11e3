"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when it completes; a failure surfaces
as a normal pytest failure for that criterion.  Run with `pytest -v
tests/test_acceptance.py` (add -s to see the lines on success).
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import integrate

from weylchar import build_root_system, exact_point, float_point
from weylchar.asymptotics import (
    WeightPath,
    alcove_stratum_points,
    divergence_certificate,
    expected_decay_exponent,
    nonsimple_counterexample,
    normalized_char_sweep,
    weight_inf_norm,
)
from weylchar.charcalc import (
    char_regular,
    char_singular,
    char_weightsum_oracle,
    dim_irrep,
    effective_subsystem,
    weight_multiplicities,
)
from weylchar.cli import main as cli_main
from weylchar.errors import SnapError, StructureError
from weylchar.exactlin import vadd, vscale
from weylchar.rootsys import RootSystemSpec, weyl_order
from weylchar.spectral import (
    catalog_su2_free_pair,
    delta_opt,
    km_density,
    km_moment,
    moment_exact,
    norm_estimate,
    spectrum_estimate,
)
from weylchar.weylgroup import generate_weyl_group, stabilizer

from _helpers import (
    check_stabilizer, fixed_members, random_dominant_weight, rng_for, spy_fallbacks,
)


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {n:2d}: {status} {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_su2_closed_form():
    t0 = time.time()
    rs = build_root_system("A1")
    rng = rng_for("criterion-1")
    worst = 0.0
    for l in range(0, 51):
        lam = (F(l), F(-l))
        for _ in range(25):
            theta = rng.uniform(1e-3, 2 * math.pi - 1e-3)
            h = float_point([theta / 2, -theta / 2])
            if abs(math.remainder(theta, 2 * math.pi)) < 1e-9:
                continue
            got = char_regular(rs, lam, h).value
            want = math.sin((l + 0.5) * theta) / math.sin(theta / 2)
            worst = max(worst, abs(got - want) / (2 * l + 1))
    elapsed = time.time() - t0
    report(1, worst < 1e-9 and elapsed < 1.0,
           f"(worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_su3_singular_adjoint():
    rs = build_root_system("A2")
    t0 = time.time()
    worst = 0.0
    # exact rational-multiple-of-pi strata
    for den in (7, 5):
        h0 = exact_point([F(1, den), F(1, den), F(-2, den)])
        a = math.pi / den
        got = char_singular(rs, rs.weyl_vector, h0).value
        worst = max(worst, abs(got - (4 + 4 * math.cos(3 * a))))
    # a = 1 radian goes through the snap pipeline
    h1 = float_point([1.0, 1.0, -2.0])
    got = char_singular(rs, rs.weyl_vector, h1).value
    worst = max(worst, abs(got - (4 + 4 * math.cos(3.0))))
    # the failure path: near the stratum but not rationalizable onto it
    bad = float_point([1.0 + 3e-10, 1.0, -2.0 - 3e-10])
    failed_loudly = False
    try:
        char_singular(rs, rs.weyl_vector, bad)
    except SnapError:
        failed_loudly = True
    elapsed = time.time() - t0
    report(2, worst < 1e-9 and failed_loudly and elapsed < 1.0,
           f"(worst abs err {worst:.2e}, snap failure raised: {failed_loudly})")


def test_criterion_03_oracle_equivalence(monkeypatch):
    # at these well-conditioned points the Weyl paths answer, so the oracle
    # is compared with them, never with itself
    fallbacks = spy_fallbacks(monkeypatch)
    t0 = time.time()
    worst = 0.0
    checked = 0
    for name in ("A1", "A2", "A3", "B2", "C3", "G2"):
        rs = build_root_system(name)
        rng = rng_for(f"criterion-3-{name}")
        strata = alcove_stratum_points(rs)
        for _ in range(10):
            lam = random_dominant_weight(rs, rng, max_dim=5000)
            d = dim_irrep(rs, lam)
            # one random regular point
            from _helpers import random_regular_exact_point

            h = random_regular_exact_point(rs, rng)
            a = char_regular(rs, lam, h).value
            b = char_weightsum_oracle(rs, lam, h).value
            worst = max(worst, abs(a - b) / d)
            checked += 1
            # every singular stratum's alcove representative
            for st in strata:
                a = char_singular(rs, lam, st.point).value
                b = char_weightsum_oracle(rs, lam, st.point).value
                worst = max(worst, abs(a - b) / d)
                checked += 1
    elapsed = time.time() - t0
    assert fallbacks == []
    report(3, worst < 1e-8 and elapsed < 300,
           f"({checked} comparisons, worst rel err {worst:.2e}, {elapsed:.0f}s)")


def _richardson(values):
    r1 = [2 * b - a for a, b in zip(values, values[1:])]
    return (4 * r1[1] - r1[0]) / 3


def test_criterion_04_extrapolation_consistency():
    rng = rng_for("criterion-4")
    # float cancellation in the regular Weyl sum scales like eps^-deg_count,
    # so the sampler stays on strata of codimension at most 2 (deeper strata
    # are covered exactly by the criterion-3 oracle comparisons)
    pool = []
    for name in ("A2", "A3", "B2", "C3", "G2"):
        rs = build_root_system(name)
        for st in alcove_stratum_points(rs):
            if not st.central and st.deg_count <= 2:
                pool.append((rs, st))
    worst = 0.0
    instances = 0
    while instances < 20:
        rs, st = pool[rng.randrange(len(pool))]
        lam = random_dominant_weight(rs, rng, max_dim=5000, max_coeff=4)
        if dim_irrep(rs, lam) < 150:
            continue
        d = dim_irrep(rs, lam)
        delta = [rng.uniform(0.5, 1.5) * rng.choice([-1, 1])
                 for _ in range(rs.ambient_dim)]
        if rs.spec.family == "A":
            shift = sum(delta) / len(delta)
            delta = [x - shift for x in delta]
        rad0 = st.point.radians()
        vals = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            h = float_point([x + eps * dx for x, dx in zip(rad0, delta)])
            vals.append(char_regular(rs, lam, h).value)
        want = char_singular(rs, lam, st.point).value
        worst = max(worst, abs(_richardson(vals) - want) / d)
        instances += 1
    report(4, worst < 1e-6, f"(20 instances, worst rel err {worst:.2e})")


def test_criterion_05_dimension_cross_checks():
    specs = (
        [RootSystemSpec("A", n) for n in range(1, 9)]
        + [RootSystemSpec("B", n) for n in range(2, 8)]
        + [RootSystemSpec("C", n) for n in range(2, 8)]
        + [RootSystemSpec("D", n) for n in range(3, 8)]  # D2 is not simple
        + [RootSystemSpec("G", 2), RootSystemSpec("F", 4),
           RootSystemSpec("E", 6), RootSystemSpec("E", 7)]
    )
    assert all(weyl_order(s) <= 3_000_000 for s in specs)
    ok = True
    for spec in specs:
        rs = build_root_system(spec)
        adjoint = dim_irrep(rs, rs.highest_root)
        if adjoint != 2 * len(rs.positive_roots) + rs.rank:
            ok = False
    g2 = build_root_system("G2")
    ok = ok and dim_irrep(g2, g2.highest_root) == 14
    # multiplicity sums for the criterion-3 weight sets
    for name in ("A1", "A2", "A3", "B2", "C3", "G2"):
        rs = build_root_system(name)
        rng = rng_for(f"criterion-3-{name}")
        for _ in range(10):
            lam = random_dominant_weight(rs, rng, max_dim=5000)
            mults = weight_multiplicities(rs, lam)
            if sum(mults.values()) != dim_irrep(rs, lam):
                ok = False
    report(5, ok, f"({len(specs)} adjoint checks plus 60 multiplicity sums)")


def test_criterion_06_stabilizer_centralizer_structure():
    ok = True
    for name in ("A1", "A2", "A3", "A4"):
        rs = build_root_system(name)
        group = generate_weyl_group(rs)
        for st in alcove_stratum_points(rs):
            w0 = stabilizer(rs, rs.degenerate_split(st.point))
            check_stabilizer(rs, group, st.point, w0, fixed_members(rs, group.stack, st.point))
            sub = effective_subsystem(rs, rs.degenerate_split(st.point).deg)
            expected = 1
            for comp in sub.components:
                expected *= weyl_order(comp)
            if w0.order != expected:
                ok = False
    rs = build_root_system("A4")
    group = generate_weyl_group(rs)
    h = exact_point([F(1, 7), F(1, 7), F(1, 7), F(-3, 14), F(-3, 14)])
    w0 = stabilizer(rs, rs.degenerate_split(h))
    check_stabilizer(rs, group, h, w0, fixed_members(rs, group.stack, h))
    sub = effective_subsystem(rs, rs.degenerate_split(h).deg)
    s3s2 = w0.order == 12 and [c.name for c in sub.components] == ["A2", "A1"]
    report(6, ok and s3s2, f"(A4 (a,a,a,b,b) stabilizer order {w0.order})")


def _criterion7_sweeps():
    # orthogonality strata: alcove faces whose active walls are simple-root
    # walls, where (alpha|h0) = 0 exactly; the 2*pi wall makes the rho-ray
    # exactly resonant and is certified by the envelope criterion instead
    out = []
    for name in ("A2", "A3", "B2", "C3", "G2"):
        rs = build_root_system(name)
        for st in alcove_stratum_points(rs):
            if st.central or rs.rank in st.walls:
                continue
            path = WeightPath.ray(rs, rs.weyl_vector, range(1, 21))
            rep = normalized_char_sweep(rs, path, st.point)
            m = expected_decay_exponent(
                rs, rs.degenerate_split(st.point), rs.weyl_vector
            )
            out.append((name, st, rep, m))
    return out


@pytest.fixture(scope="module")
def criterion7_sweeps():
    return _criterion7_sweeps()


def test_criterion_07_decay_exponents(criterion7_sweeps):
    t0 = time.time()
    worst = 0.0
    for name, st, rep, m in criterion7_sweeps:
        worst = max(worst, abs(rep.fitted_slope + m))
    elapsed = time.time() - t0
    report(7, worst <= 0.1 and elapsed < 600,
           f"({len(criterion7_sweeps)} strata, worst |slope+m| {worst:.3f})")


def test_criterion_08_universal_envelope(criterion7_sweeps):
    ok = True
    for name, st, rep, m in criterion7_sweeps:
        c = rep.bound_constant  # fitted on the first half of the schedule
        for k, lam, d, ratio in rep.entries:
            if ratio > c / weight_inf_norm(lam) * (1 + 1e-12):
                ok = False
    report(8, ok, f"(envelope C/|k lam0|_inf over {len(criterion7_sweeps)} sweeps)")


def test_criterion_09_divergence_certificates():
    ok = True
    produced = 0
    for name in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                 "C3", "D3", "D4", "G2", "F4"):
        rs = build_root_system(name)
        rng = rng_for(f"criterion-9-{name}")
        for st in alcove_stratum_points(rs):
            if st.central:
                continue  # no non-degenerate root exists on central strata
            split = rs.degenerate_split(st.point)
            lams = [rs.weyl_vector] + [
                random_dominant_weight(rs, rng, max_dim=10**30, max_coeff=4)
                for _ in range(5)
            ]
            for lam0 in lams:
                cert = divergence_certificate(rs, split, lam0)
                produced += 1
                pairings = [
                    rs.inner(vadd(vscale(k, lam0), rs.weyl_vector), cert.root)
                    for k in range(1, 8)
                ]
                if not all(b > a for a, b in zip(pairings, pairings[1:])):
                    ok = False
                if cert.root not in split.ndeg or rs.inner(lam0, cert.root) == 0:
                    ok = False
    # D2 is refused with the documented structural error
    d2 = build_root_system("D2")
    split = d2.degenerate_split(exact_point([F(7, 6), F(5, 6)]))
    refused = False
    try:
        divergence_certificate(d2, split, d2.weyl_vector)
    except StructureError:
        refused = True
    report(9, ok and refused, f"({produced} certificates, D2 refused: {refused})")


def test_criterion_10_nonsimple_counterexample():
    a1 = build_root_system("A1")
    g = exact_point([F(1, 4), F(-1, 4)])  # theta = pi/2
    rep = nonsimple_counterexample([a1, a1], 0, g, 20)
    exact_one = all(r == 1.0 for r in rep.ratios())
    dims = rep.dims()
    diverging = dims == sorted(dims) and dims[-1] > dims[0]
    both = nonsimple_counterexample([a1, a1], 0, g, 50, grow_all=True,
                                    g_parts=[g, g])
    final = both.ratios()[-1]
    report(10, exact_one and diverging and final < 1e-2,
           f"(trivial-factor ratio == 1 exactly; both-grown ratio {final:.2e} at k=50)")


def test_criterion_11_kesten_mckay_engine():
    s = 4
    f = km_density(s)
    r = delta_opt(s)
    worst = 0.0
    for m in range(0, 13):
        got, _ = integrate.quad(lambda x: x**m * f(x), -r, r, limit=200)
        worst = max(worst, abs(got - float(km_moment(s, m))))
    dopt_err = abs(delta_opt(4) - 0.8660254037844386)
    hankel = np.array(
        [[float(km_moment(s, i + j)) for j in range(5)] for i in range(5)]
    )
    psd = np.linalg.eigvalsh(hankel).min() > -1e-12
    report(11, worst < 1e-8 and dopt_err < 1e-12 and psd,
           f"(quadrature worst {worst:.2e}, delta_opt err {dopt_err:.1e}, PSD {psd})")


def test_criterion_12_spectral_convergence():
    t0 = time.time()
    rs = build_root_system("A1")
    gens = catalog_su2_free_pair()
    decreasing = True
    for m in (2, 4, 6):
        km = float(km_moment(4, m))
        prev = None
        for l in (5, 10, 20, 40):
            lam = (F(l), F(-l))
            gap = abs(moment_exact(rs, lam, gens, m) - km)
            if prev is not None and gap >= prev:
                decreasing = False
            prev = gap
    est = spectrum_estimate(rs, (F(40), F(-40)), gens, 6)
    ne = norm_estimate(est)
    close = abs(ne - delta_opt(4)) < 0.1
    elapsed = time.time() - t0
    report(12, decreasing and close and elapsed < 600,
           f"(gaps strictly decrease; norm estimate {ne:.4f} vs "
           f"{delta_opt(4):.4f}, {elapsed:.0f}s)")


def test_criterion_13_cli_determinism(capsys):
    runs = {}
    for threads in ("1", "5"):
        outputs = []
        for argv in (
            ["char", "--group", "A2", "--weight", "2,1",
             "--point", "pi/5:pi/5:-2pi/5", "--threads", threads],
            ["sweep", "--group", "A2", "--weight", "1,1",
             "--point", "pi/5:pi/5:-2pi/5", "--kmax", "6", "--threads", threads],
            ["spectral", "--group", "A1", "--l", "3", "--moments", "3",
             "--threads", threads],
        ):
            code = cli_main(argv)
            assert code == 0
            outputs.append(capsys.readouterr().out)
        runs[threads] = outputs
    identical = runs["1"] == runs["5"]
    report(13, identical, "(three subcommands byte-identical across --threads)")
