"""Characters: dimension formula, regular/singular WCF, Freudenthal oracle."""

import cmath
import hashlib
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from weylchar import build_root_system, exact_point, float_point, zero_point
from weylchar.charcalc import (
    ORACLE_DIM_CAP,
    _SingularEvaluator,
    _weight,
    char_regular,
    char_singular,
    char_weightsum_oracle,
    character,
    dim_irrep,
    effective_subsystem,
    snap_to_exact,
    weight_multiplicities,
)
from weylchar import charcalc
from weylchar.cli import main
from weylchar.errors import (
    CapacityError, DomainError, PrecisionError, SingularPointError, SnapError,
)
from weylchar.exactlin import vzero
from weylchar.rootsys import weyl_order
from weylchar.weylgroup import coset_transversal, generate_weyl_group, stabilizer
from weylchar.asymptotics import alcove_stratum_points

from _helpers import (
    apply_matrix, fixed_members, random_dominant_weight, random_regular_exact_point, rng_for,
    spy_fallbacks,
)


def su2_closed_form(l, theta):
    """sin((l+1/2)theta)/sin(theta/2), the classical SU(2) character."""
    return math.sin((l + 0.5) * theta) / math.sin(theta / 2)


def su2_weight(l):
    return (F(l), F(-l))


def su3_defining_oracle(coords):
    """|tr g|^2 - 1 with g = diag(e^{i c_j}): the adjoint character of SU(3)."""
    tr = sum(cmath.exp(1j * c) for c in coords)
    return abs(tr) ** 2 - 1


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------


def test_dim_su2_is_2l_plus_1():
    rs = build_root_system("A1")
    for twol in range(0, 21):
        lam = (F(twol, 2), F(-twol, 2))
        assert dim_irrep(rs, lam) == twol + 1


def test_dim_trivial_and_adjoint():
    rs = build_root_system("A2")
    assert dim_irrep(rs, vzero(3)) == 1
    # product (2*2*4)/(1*1*2) over the three positive roots
    assert dim_irrep(rs, rs.weyl_vector) == 8


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]
)
def test_adjoint_dimension_is_root_count_plus_rank(name):
    rs = build_root_system(name)
    assert dim_irrep(rs, rs.highest_root) == 2 * len(rs.positive_roots) + rs.rank


def test_dim_rejects_non_dominant():
    rs = build_root_system("A2")
    with pytest.raises(DomainError):
        dim_irrep(rs, tuple(-x for x in rs.weyl_vector))
    with pytest.raises(DomainError):
        dim_irrep(rs, (F(1, 2), F(-1, 2), F(0)))


# ---------------------------------------------------------------------------
# Regular characters
# ---------------------------------------------------------------------------


def test_su2_closed_form_float_and_exact():
    rs = build_root_system("A1")
    rng = rng_for("su2-closed-form")
    for l in (0, 1, 3, 7, F(1, 2), F(9, 2)):
        for _ in range(5):
            theta = rng.uniform(0.3, 2 * math.pi - 0.3)
            h = float_point([theta / 2, -theta / 2])
            if rs.degenerate_split(h).deg:
                continue
            got = char_regular(rs, su2_weight(l), h).value
            assert abs(got - su2_closed_form(l, theta)) < 1e-9 * (2 * l + 1)
    # exact point: theta = pi, l = 1 gives exactly -1
    h = exact_point([F(1, 2), F(-1, 2)])
    assert abs(char_regular(rs, su2_weight(1), h).value - (-1)) < 1e-12


def test_trivial_rep_character_is_one():
    rs = build_root_system("B2")
    h = exact_point([F(1, 5), F(1, 7)])
    assert abs(char_regular(rs, vzero(2), h).value - 1) < 1e-12


def test_su3_adjoint_against_defining_oracle_regular():
    rs = build_root_system("A2")
    rng = rng_for("su3-adjoint-regular")
    for _ in range(10):
        h = random_regular_exact_point(rs, rng)
        got = char_regular(rs, rs.weyl_vector, h).value
        want = su3_defining_oracle(h.radians())
        assert abs(got - want) < 1e-9 * 8


def test_char_regular_redirects_at_singular_points():
    rs = build_root_system("A2")
    h0 = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    with pytest.raises(SingularPointError) as err:
        char_regular(rs, rs.weyl_vector, h0)
    assert "char_singular" in str(err.value)


def test_weyl_invariance_of_regular_characters():
    rng = rng_for("weyl-invariance")
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        group = generate_weyl_group(rs)
        lam = random_dominant_weight(rs, rng, max_dim=400)
        h = random_regular_exact_point(rs, rng)
        ref = char_regular(rs, lam, h).value
        d = dim_irrep(rs, lam)
        for w in group.stack[rng.sample(range(group.order), 3)]:
            moved = exact_point(apply_matrix(w, h.coords))
            assert abs(char_regular(rs, lam, moved).value - ref) < 1e-9 * d


def test_character_bounded_by_dimension():
    rng = rng_for("char-bound")
    for name in ("A1", "A2", "C3"):
        rs = build_root_system(name)
        for _ in range(5):
            lam = random_dominant_weight(rs, rng, max_dim=2000)
            h = random_regular_exact_point(rs, rng)
            cv = char_regular(rs, lam, h)
            assert abs(cv.value) <= dim_irrep(rs, lam) + cv.condition


# ---------------------------------------------------------------------------
# Singular characters
# ---------------------------------------------------------------------------


def test_su3_adjoint_singular_closed_form():
    rs = build_root_system("A2")
    for den in (7, 5, 3):
        h0 = exact_point([F(1, den), F(1, den), F(-2, den)])
        a = math.pi / den
        got = char_singular(rs, rs.weyl_vector, h0).value
        assert abs(got - (4 + 4 * math.cos(3 * a))) < 1e-9


def test_singular_at_identity_is_dimension_exactly():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        lam = rs.weyl_vector
        cv = char_singular(rs, lam, zero_point(rs.ambient_dim))
        assert cv.value == complex(dim_irrep(rs, lam))


def test_singular_reduces_to_regular_when_not_degenerate():
    rs = build_root_system("A2")
    h = exact_point([F(1, 7), F(2, 7), F(-3, 7)])
    a = char_singular(rs, rs.weyl_vector, h).value
    b = char_regular(rs, rs.weyl_vector, h).value
    assert abs(a - b) < 1e-12


def test_su3_coset_subdimensions_match_paper_structure():
    # dim L' for b = e equals (lam + rho | alpha1)/(rho_su2 | alpha1) = 2 at lam = rho;
    # the coset sum's exponents, coefficients, denominator and sum |subdim_b| are pinned
    rs = build_root_system("A2")
    h0 = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    split = rs.degenerate_split(h0)
    sub = effective_subsystem(rs, split.deg)
    exps, coeffs, d, abs_sum = _SingularEvaluator(rs, split).exponents(_weight(rs, rs.weyl_vector))
    assert (exps.tolist(), coeffs.tolist(), d, abs_sum) == ([0, 4, 6], [-4, 2, 2], 5, 8.0)
    assert sub.components[0].name == "A1"


def test_singular_against_oracle_alcove_strata():
    rng = rng_for("singular-oracle")
    for name in ("A2", "A3", "B2", "G2"):
        rs = build_root_system(name)
        for st in alcove_stratum_points(rs):
            lam = random_dominant_weight(rs, rng, max_dim=1500)
            got = char_singular(rs, lam, st.point)
            want = char_weightsum_oracle(rs, lam, st.point)
            d = dim_irrep(rs, lam)
            assert abs(got.value - want.value) < 1e-8 * d


def test_e7_singular_evaluator_matches_the_oracle(monkeypatch):
    # a face of E7's alcove on wall 0 alone: one degenerate root, |W|/2 cosets
    from weylchar import charcalc

    rs = build_root_system("E7")
    group = generate_weyl_group(rs)
    # the group is dropped with the test rather than held by the session's cache
    monkeypatch.setattr(charcalc, "cached_weyl_group", lambda _: group)
    h0 = exact_point([F(12, 7), F(109, 42), F(24, 7), F(106, 21), 4, F(20, 7), F(11, 7)])
    split = rs.degenerate_split(h0)
    assert len(split.deg) == 1
    ev = _SingularEvaluator(rs, split)
    trans = ev.transversal
    assert len(trans) == group.order // 2 == 1_451_520
    assert trans.dtype == np.intp and (np.diff(trans) > 0).all()
    lam = rs.fundamental_weights()[6]
    d = dim_irrep(rs, lam)
    assert d == 56
    got = ev.evaluate(_weight(rs, lam))
    want = char_weightsum_oracle(rs, lam, h0)
    assert abs(got.value - want.value) <= 1e-8 * d


def test_transversal_independence(monkeypatch):
    from weylchar import charcalc

    rng = rng_for("transversal-independence")
    rs = build_root_system("A3")
    group = generate_weyl_group(rs)
    h0 = exact_point([F(1, 5), F(1, 5), F(-1, 10), F(-3, 10)])
    w0 = stabilizer(rs, h0)
    trans = coset_transversal(group, w0)
    # twist every non-identity representative by a random stabilizer element
    index = {m.tobytes(): i for i, m in enumerate(group.stack)}
    members = fixed_members(rs, group.stack, h0)
    twisted = np.array([trans[0]] + [
        index[(group.stack[b] @ group.stack[members[rng.randrange(len(members))]]).tobytes()]
        for b in trans[1:]
    ])
    lam = random_dominant_weight(rs, rng, max_dim=2000)
    d = dim_irrep(rs, lam)
    a = char_singular(rs, lam, h0).value
    monkeypatch.setattr(charcalc, "coset_transversal", lambda group, w0: twisted)
    b = _SingularEvaluator(rs, rs.degenerate_split(h0)).evaluate(_weight(rs, lam)).value
    assert abs(a - b) < 1e-12 * d


def test_effective_weight_integrality_over_all_cosets():
    # every coset's image of the degenerate roots is a subsystem isomorphic to W0's
    for name in ("A2", "A3", "B2", "B3", "C3", "G2"):
        rs = build_root_system(name)
        group = generate_weyl_group(rs)
        strata = [s for s in alcove_stratum_points(rs) if not s.central]
        for st in strata:
            split = rs.degenerate_split(st.point)
            w0 = stabilizer(rs, st.point)
            trans = coset_transversal(group, w0)
            for b in trans.tolist():
                image = [apply_matrix(group.stack[b], a) for a in split.deg]
                sub = effective_subsystem(rs, image)
                assert math.prod(weyl_order(c) for c in sub.components) == w0.order
                assert sum(c.rank for c in sub.components) == len(w0.roots)


@pytest.mark.parametrize("name", ["A1", "A5", "B5", "C5", "D5", "D6", "B8", "C8", "D8",
                                  "G2", "F4", "E6", "E7", "E8"])
def test_effective_subsystem_orders_are_the_stabilizer_orders_on_every_alcove_stratum(name):
    # reaches E, F, D5+ and rank >= 5 B and C components; the stabilizer
    # needs no enumerated group, so none is enumerated
    rs = build_root_system(name)
    for st in alcove_stratum_points(rs):
        split = rs.degenerate_split(st.point)
        w0 = stabilizer(rs, st.point, split=split)
        sub = effective_subsystem(rs, split.deg)
        assert math.prod(weyl_order(c) for c in sub.components) == w0.order
        assert sum(c.rank for c in sub.components) == len(w0.roots)


def test_effective_subsystem_decomposition_su5():
    rs = build_root_system("A4")
    h = exact_point([F(1, 7), F(1, 7), F(1, 7), F(-3, 14), F(-3, 14)])
    sub = effective_subsystem(rs, rs.degenerate_split(h).deg)
    assert [c.name for c in sub.components] == ["A2", "A1"]


def test_effective_subsystem_rejects_unclosed_input():
    rs = build_root_system("A2")
    a1, a2 = rs.simple_roots
    with pytest.raises(DomainError):
        effective_subsystem(rs, [a1, a2])  # a1 + a2 is a root but missing


def test_effective_subsystem_empty():
    rs = build_root_system("A2")
    sub = effective_subsystem(rs, [])
    assert sub.components == ()
    assert math.prod(weyl_order(c) for c in sub.components) == 1


# ---------------------------------------------------------------------------
# Oracle: multiplicities and weight sums
# ---------------------------------------------------------------------------


def test_su2_multiplicities_are_flat():
    rs = build_root_system("A1")
    for twol in (2, 5, 9):
        lam = (F(twol, 2), F(-twol, 2))
        mults = weight_multiplicities(rs, lam)
        assert len(mults) == twol + 1
        assert set(mults.values()) == {1}


def test_trivial_rep_multiplicities():
    rs = build_root_system("A2")
    assert weight_multiplicities(rs, vzero(3)) == {vzero(3): 1}


def test_adjoint_multiplicities_structure():
    rs = build_root_system("A2")
    mults = weight_multiplicities(rs, rs.weyl_vector)
    assert mults[vzero(3)] == 2
    nonzero = {mu for mu in mults if mu != vzero(3)}
    assert nonzero == set(rs.positive_roots) | {
        tuple(-x for x in r) for r in rs.positive_roots
    }


def test_multiplicity_sum_equals_dimension():
    rng = rng_for("mult-sum")
    for name in ("A2", "A3", "B2", "C3", "G2"):
        rs = build_root_system(name)
        lam = random_dominant_weight(rs, rng, max_dim=3000)
        mults = weight_multiplicities(rs, lam)
        assert sum(mults.values()) == dim_irrep(rs, lam)


def test_multiplicities_are_weyl_invariant():
    rng = rng_for("mult-weyl")
    rs = build_root_system("B2")
    lam = random_dominant_weight(rs, rng, max_dim=500)
    mults = weight_multiplicities(rs, lam)
    group = generate_weyl_group(rs)
    for w in group.stack.tolist():
        assert all(mults.get(apply_matrix(w, mu)) == m for mu, m in mults.items())


#: sha256 of repr(list(weight_multiplicities(rs, lam).items())) from the
#: Fraction recursion the integer one replaced: keys, values and order.
MULTIPLICITY_SHA256 = [
    ("A1", (7,), "7adb2d8b04b0461dde9ca7d4fd289ad57adc11e2195725f99ff3072e57e5d7f5"),
    ("A2", (3, 2), "e2592635a2eeaad72e89bc7554e9a3544a81dcf80960795cc85e734da4cbafa5"),
    ("A4", (1, 0, 1, 0), "e1a64520645078fabc0b3754b47c48961c781d651ab785af9b96e151b96ccf24"),
    ("B2", (3, 1), "7074386d7e4d393aa1e6ccaf017cd47956846c27b14332bc36e1ba1a024343bc"),
    ("B4", (1, 1, 0, 1), "4ff4638a1c4a51fd60b2dfd80687a80a85e0bc362ba2a020c93c6b1b19d0e044"),
    ("C3", (2, 1, 1), "a8c69db596a20c5592eb21b36724a4f6848cecf67ee97193b700caabec0a19ae"),
    ("D4", (1, 0, 1, 1), "3ad01889275359253b22f60bb1ec9117407af43280e09422f840d10f3b361a31"),
    ("D5", (0, 1, 0, 0, 1), "e8f91f6f9644f953a6525002586b468b1ef7d48a9b4305f7101f35fbcc8ca079"),
    ("G2", (3, 2), "99396c11a32b90618bdb4da610c7a1a686e33d1912eb1d10a34daedf57d8d657"),
    ("F4", (0, 0, 1, 1), "353f660c48d2bb2520f6e1d1b09ed27fac16a4ded04e2d147a79aba845f7e641"),
    ("E6", (1, 0, 0, 0, 0, 1), "1c3bad5743e97e7f1c448f2c29ac90730e8c7041ae08f686db3dd252d49f9f07"),
    ("E7", (0, 0, 0, 0, 0, 0, 1), "a94cb205c9b184387ad6037c3fad3123cdb9592ae68eaaf2d32fbca5232a03c5"),
]


@pytest.mark.parametrize("name,coeffs,want", MULTIPLICITY_SHA256)
def test_multiplicity_maps_pinned(name, coeffs, want):
    rs = build_root_system(name)
    mults = weight_multiplicities(rs, rs.weight_from_fundamental(coeffs))
    assert hashlib.sha256(repr(list(mults.items())).encode()).hexdigest() == want


def test_oracle_refuses_above_the_dimension_cap():
    # dim ~ 1e18: only a refusal before the recursion can return at all.
    rs = build_root_system("A2")
    lam = rs.weight_from_fundamental((10**6, 10**6))
    dim = dim_irrep(rs, lam)
    assert dim > ORACLE_DIM_CAP
    calls = [
        lambda: weight_multiplicities(rs, lam),
        lambda: char_weightsum_oracle(rs, lam, exact_point([F(1, 3), F(1, 5), F(-8, 15)])),
        lambda: char_weightsum_oracle(rs, lam, float_point([0.3, 0.5, -0.8])),
    ]
    for call in calls:
        with pytest.raises(CapacityError) as err:
            call()
        assert f"dim {dim} exceeds the weight-multiplicity cap {ORACLE_DIM_CAP}" in str(err.value)


def test_oracle_matches_regular_char():
    rng = rng_for("oracle-vs-wcf")
    for name in ("A1", "A2", "B2"):
        rs = build_root_system(name)
        for _ in range(8):
            lam = random_dominant_weight(rs, rng, max_dim=5000)
            h = random_regular_exact_point(rs, rng)
            d = dim_irrep(rs, lam)
            a = char_regular(rs, lam, h).value
            b = char_weightsum_oracle(rs, lam, h).value
            assert abs(a - b) < 1e-9 * d


def test_oracle_at_identity_is_dimension():
    rs = build_root_system("G2")
    lam = rs.weight_from_fundamental((1, 1))
    cv = char_weightsum_oracle(rs, lam, zero_point(2))
    assert abs(cv.value - dim_irrep(rs, lam)) < 1e-9


def test_oracle_su3_adjoint_singular():
    rs = build_root_system("A2")
    h0 = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    got = char_weightsum_oracle(rs, rs.weyl_vector, h0).value
    assert abs(got - (4 + 4 * math.cos(3 * math.pi / 5))) < 1e-12


# ---------------------------------------------------------------------------
# Snapping
# ---------------------------------------------------------------------------


def test_snap_recovers_exact_rational_point():
    rs = build_root_system("A2")
    h = float_point([math.pi / 5, math.pi / 5, -2 * math.pi / 5])
    snapped = snap_to_exact(rs, h)
    assert snapped.coords == (F(1, 5), F(1, 5), F(-2, 5))


def test_snap_irrational_coordinates_on_stratum():
    # a = 1 radian: irrational in pi units, but exactly on the (a,a,-2a) stratum
    rs = build_root_system("A2")
    h = float_point([1.0, 1.0, -2.0])
    snapped = snap_to_exact(rs, h)
    assert rs.inner(rs.simple_roots[0], snapped.coords) == 0
    got = char_singular(rs, rs.weyl_vector, h).value
    assert abs(got - (4 + 4 * math.cos(3.0))) < 1e-9


def test_snap_failure_is_loud():
    rs = build_root_system("A2")
    bad = float_point([1.0 + 3e-10, 1.0, -2.0 - 3e-10])
    with pytest.raises(SnapError):
        snap_to_exact(rs, bad)
    with pytest.raises(SnapError):
        char_singular(rs, rs.weyl_vector, bad)


def test_snap_returns_a_regular_float_point_unchanged():
    rs = build_root_system("A2")
    h = float_point([0.3, 0.2, -0.5])
    assert snap_to_exact(rs, h) is h
    assert not rs.degenerate_split(h).deg


def test_char_singular_refuses_a_regular_float_point():
    # the point stands for itself, not for a rational point near it
    rs = build_root_system("A2")
    lam = rs.weight_from_fundamental((2, 1))
    h = float_point([0.3, 0.2, -0.5])
    with pytest.raises(SnapError, match="regular point"):
        char_singular(rs, lam, h)
    assert character(rs, lam, h).value == pytest.approx(
        char_weightsum_oracle(rs, lam, h).value, abs=1e-12 * dim_irrep(rs, lam))


def _a3_point_whose_snap_does_not_land():
    """(A3, a floating point near the wall of e1 - e4 that its snap leaves).

    h0 = pi * (a/q, b/r, b/r, -(a/q + 2b/r)) with a r + b q = 1: e2 - e3 lands,
    and e1 - e4 pairs to 2 pi/(q r) = 1.46e-9, just outside the snap tolerance.
    Moving the last coordinate by 8e-10 brings e1 - e4 within it, while every
    coordinate still rationalizes back onto h0, where e1 - e4 is off its wall.
    """
    q, r = 65537, 65539
    a = pow(r, -1, q)
    b = (1 - a * r) // q
    c = [F(a, q), F(b, r), F(b, r), -F(a, q) - 2 * F(b, r)]
    on = [math.pi * float(x) for x in c]
    rs = build_root_system("A3")
    e1_e4 = rs.positive_roots.index((1, 0, 0, -1))
    assert not rs.near_walls(on)[e1_e4]
    moved = float_point(on[:3] + [on[3] + 8e-10])
    assert rs.near_walls(moved.coords)[e1_e4]
    return rs, moved


def test_snap_refuses_a_near_root_that_does_not_land(monkeypatch):
    # The snap and char_singular refuse the point; character answers there
    # with the weight-sum oracle.
    rs, moved = _a3_point_whose_snap_does_not_land()
    lam = rs.weight_from_fundamental((1, 0, 1))
    for refuse in (snap_to_exact, lambda rs, h: char_singular(rs, lam, h)):
        with pytest.raises(SnapError, match="does not land exactly"):
            refuse(rs, moved)
    fallbacks = spy_fallbacks(monkeypatch)
    cv = character(rs, lam, moved)
    assert fallbacks == [("A3", moved)]
    assert cv == char_weightsum_oracle(rs, lam, moved)
    assert repr(cv.value) == "(-0.9999999908089026+0j)"


# ---------------------------------------------------------------------------
# The precision gate
# ---------------------------------------------------------------------------

#: E7 omega_1 points where the Weyl path's value fails its own condition: the
#: exact regular path gives |value| 4179 with condition 8.7e6, the float path
#: -7.4e24-4.2e24i; |chi| <= dim = 133.
E7_REPROS = {
    "exact": ("pi/7:-3pi/11:2pi/13:5pi/17:pi/19:2pi/23:-pi/29",
              exact_point([F(1, 7), F(-3, 11), F(2, 13), F(5, 17), F(1, 19), F(2, 23),
                           F(-1, 29)])),
    "float": ("0.1137:0.2391:0.3517:0.4283:0.5651:0.6829:0.7919",
              float_point([0.1137, 0.2391, 0.3517, 0.4283, 0.5651, 0.6829, 0.7919])),
}


@pytest.mark.parametrize("kind", sorted(E7_REPROS))
def test_gate_answers_the_e7_repros_with_the_oracle(monkeypatch, capsys, kind):
    text, h = E7_REPROS[kind]
    rs = build_root_system("E7")
    lam = rs.weight_from_fundamental((1, 0, 0, 0, 0, 0, 0))
    want = char_weightsum_oracle(rs, lam, h).value
    fallbacks = spy_fallbacks(monkeypatch)
    assert abs(character(rs, lam, h).value - want) <= 1e-9 * 133
    assert main(["char", "--group", "E7", "--weight", "1,0,0,0,0,0,0", f"--point={text}"]) == 0
    value = json.loads(capsys.readouterr().out)["result"]["value"]
    assert abs(complex(value["re"], value["im"]) - want) <= 1e-9 * 133
    assert fallbacks == [("E7", h)] * 2


def test_gate_raises_precision_error_above_the_oracle_cap(monkeypatch, capsys):
    # values the gate rejects (a tiny Weyl denominator; a condition above
    # TOL * |value|) and a near-wall point that does not snap, with dims 15,
    # 8 and 20 above a lowered cap
    monkeypatch.setattr(charcalc, "ORACLE_DIM_CAP", 7)
    a2 = build_root_system("A2")
    q = 1000000007
    cases = [
        (a2, (2, 1), exact_point([F(1, q), F(2, q), F(-3, q)]),
         ["--group", "A2", "--weight", "2,1", f"--point=pi/{q}:2pi/{q}:-3pi/{q}"]),
        (a2, (1, 1), float_point([0.3, 0.30000001, -0.60000001]),
         ["--group", "A2", "--weight", "1,1", "--point", "0.3:0.30000001:-0.60000001"]),
    ]
    for rs, weight, h, argv in cases:
        with pytest.raises(PrecisionError):
            character(rs, rs.weight_from_fundamental(weight), h)
        assert main(["char", *argv]) == 4
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "PrecisionError"
    a3, moved = _a3_point_whose_snap_does_not_land()
    with pytest.raises(PrecisionError):
        character(a3, a3.weight_from_fundamental((1, 0, 1)), moved)


def test_near_singular_detection():
    rs = build_root_system("A2")
    assert rs.degenerate_split(float_point([0.3, 0.3, -0.6])).deg
    assert not rs.degenerate_split(float_point([0.3, 0.5, -0.8])).deg


def test_character_dispatcher_routes_consistently():
    rs = build_root_system("A2")
    lam = rs.weyl_vector
    exact_reg = exact_point([F(1, 7), F(2, 7), F(-3, 7)])
    assert abs(
        character(rs, lam, exact_reg).value - char_regular(rs, lam, exact_reg).value
    ) < 1e-12
    sing = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    assert abs(
        character(rs, lam, sing).value - char_singular(rs, lam, sing).value
    ) < 1e-12


# ---------------------------------------------------------------------------
# Extrapolation consistency
# ---------------------------------------------------------------------------


def richardson(values):
    """Two-level Richardson table for step halving with leading O(eps) error."""
    r1 = [2 * b - a for a, b in zip(values, values[1:])]
    return (4 * r1[1] - r1[0]) / 3


def char_at_offset(rs, lam, h0, delta, eps):
    rad = [x + eps * d for x, d in zip(h0.radians(), delta)]
    return char_regular(rs, lam, float_point(rad)).value


def generic_direction(rs, rng):
    d = [rng.uniform(0.5, 1.5) * rng.choice([-1, 1]) for _ in range(rs.ambient_dim)]
    if rs.spec.family == "A":
        shift = sum(d) / len(d)
        d = [x - shift for x in d]
    return d


def test_richardson_extrapolation_matches_singular():
    rng = rng_for("richardson")
    for name in ("A2", "B2", "A3"):
        rs = build_root_system(name)
        strata = [s for s in alcove_stratum_points(rs) if not s.central]
        for st in strata[:2]:
            lam = random_dominant_weight(rs, rng, max_dim=3000)
            d = dim_irrep(rs, lam)
            delta = generic_direction(rs, rng)
            vals = [
                char_at_offset(rs, lam, st.point, delta, eps)
                for eps in (1e-3, 5e-4, 2.5e-4)
            ]
            want = char_singular(rs, lam, st.point).value
            assert abs(richardson(vals) - want) < 1e-6 * d


def test_extrapolation_parallel_vs_generic_direction():
    # restricting delta to the span of the degenerate roots gives the same limit
    rng = rng_for("delta-split")
    rs = build_root_system("A2")
    st = [s for s in alcove_stratum_points(rs) if not s.central][0]
    split = rs.degenerate_split(st.point)
    lam = random_dominant_weight(rs, rng, max_dim=500)
    d = dim_irrep(rs, lam)
    generic = generic_direction(rs, rng)
    # a direction in the span of the degenerate roots: a combination of them
    coeffs = [rng.uniform(0.5, 1.5) * rng.choice([-1, 1]) for _ in split.deg]
    par_f = [sum(c * float(a[j]) for c, a in zip(coeffs, split.deg))
             for j in range(rs.ambient_dim)]
    want = char_singular(rs, lam, st.point).value
    for delta in (generic, par_f):
        vals = [
            char_at_offset(rs, lam, st.point, delta, eps)
            for eps in (1e-3, 5e-4, 2.5e-4)
        ]
        assert abs(richardson(vals) - want) < 1e-6 * d


def test_condition_estimate_scales_near_singularity():
    rs = build_root_system("A1")
    lam = su2_weight(10)
    mild = char_regular(rs, lam, float_point([0.5, -0.5]))
    harsh = char_regular(rs, lam, float_point([0.5e-4, -0.5e-4]))
    assert harsh.condition > mild.condition
