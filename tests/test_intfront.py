"""The fraction-free front end around the exponent kernel.

Per-call work on exact points is integer products over data built once per
root system: the positive roots and their rows G*alpha
(`RootSystem.root_pairings`, kept on the `DegenerateSplit`), the simple
coroot rows (`dynkin_labels`), G itself (`int_form`) and the reflections
s_a = I - a c_a^T in every positive root, from the coroot table.  These tests
hold each to the Fraction formula it replaces on all 33 groups A1-A8,
B2-B8, C2-C8, D2-D8, E6, E7, F4 and G2, hold the vectorized coset
transversal to a coset-by-coset scan, and pin the reprs of character and
oracle values, which must not move by a bit.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from weylchar import build_root_system, exact_point
from weylchar.asymptotics import alcove_stratum_points
from weylchar.charcalc import cached_weyl_group, char_weightsum_oracle, character, dim_irrep
from weylchar.exactlin import vadd
from weylchar.weylgroup import coset_transversal, stabilizer

from _helpers import (
    fixed_members, random_rational_vector, reflection_matrix, rng_for, spy_fallbacks,
)

GROUPS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{fam}{n}" for fam in "BCD" for n in range(2, 9)]
    + ["E6", "E7", "F4", "G2"]
)


def _points(rs, rng):
    """Random rational points, the zero point and a few alcove strata."""
    pts = []
    for denom in (1, 4, 12, 35):
        coords = list(random_rational_vector(rng, rs.ambient_dim, denom))
        if rs.spec.family == "A":
            coords[-1] = -sum(coords[:-1], F(0))
        pts.append(exact_point(coords))
    pts.append(exact_point([0] * rs.ambient_dim))
    if rs.is_simple:
        pts += [s.point for s in alcove_stratum_points(rs)[:3]]
    return pts


def _weights(rs, rng):
    """Fundamental weights, rho, their negatives and halves, and random rationals."""
    out = list(rs.fundamental_weights()) + [rs.weyl_vector]
    out += [tuple(-x for x in w) for w in out] + [tuple(x / 2 for x in w) for w in out]
    out += [random_rational_vector(rng, rs.ambient_dim, 6) for _ in range(4)]
    return out


@pytest.mark.parametrize("name", GROUPS)
def test_root_pairings_and_split_match_pairing_coeff(name):
    rs = build_root_system(name)
    rng = rng_for(f"intfront-pairings-{name}")
    for h in _points(rs, rng):
        want = [rs.inner(a, h.coords) for a in rs.positive_roots]
        p, d = rs.root_pairings(h.coords)
        assert [F(x, d) for x in p] == want
        split = rs.degenerate_split(h)
        assert (split.pairings, split.den) == (tuple(p), d)
        assert split.deg == tuple(a for a, q in zip(rs.positive_roots, want) if q % 2 == 0)
        assert tuple(rs.positive_roots[i] for i in split.deg_index) == split.deg


@pytest.mark.parametrize("name", GROUPS)
def test_int_form_matches_inner(name):
    rs = build_root_system(name)
    rng = rng_for(f"intfront-form-{name}")
    for v in _weights(rs, rng):
        y, d = rs.int_form(v)
        for x in rs.positive_roots[:10] + (random_rational_vector(rng, rs.ambient_dim),):
            assert sum(a * b for a, b in zip(x, y)) / d == rs.inner(x, v)


@pytest.mark.parametrize("name", GROUPS)
def test_dynkin_labels_and_dominance_match_fraction_formula(name):
    rs = build_root_system(name)
    rng = rng_for(f"intfront-labels-{name}")
    for lam in _weights(rs, rng):
        want = [2 * rs.inner(lam, a) / rs.inner(a, a) for a in rs.simple_roots]
        labels, d = rs.dynkin_labels(lam)
        assert [F(k, d) for k in labels] == want
        assert rs.is_dominant_integral(lam) == all(q.denominator == 1 and q >= 0 for q in want)


@pytest.mark.parametrize("name", GROUPS)
def test_reflection_stack_matches_reflect(name):
    rs = build_root_system(name)
    n = rs.ambient_dim
    stack = np.eye(n, dtype=np.int64) - rs._pos_rows[:, :, None] * rs._coroot_rows[:, None, :]
    assert stack.shape == (len(rs.positive_roots), n, n)
    for a, m in zip(rs.positive_roots, stack.tolist()):
        assert m == reflection_matrix(rs, a)


@pytest.mark.parametrize("name", GROUPS)
def test_dim_irrep_matches_fraction_formula(name):
    rs = build_root_system(name)
    rho = rs.weyl_vector
    for lam in rs.fundamental_weights() + (rho,):
        want = F(1)
        for a in rs.positive_roots:
            want *= rs.inner(vadd(lam, rho), a) / rs.inner(rho, a)
        assert dim_irrep(rs, lam) == want


def _first_of_each_coset(group, members):
    """Transversal reference: scan W in order, taking each element whose coset is new.

    `members` are the indices of the stabilizer's elements.
    """
    index = {m.tobytes(): i for i, m in enumerate(group.stack)}
    sub = group.stack[list(members)]
    assigned = set()
    reps = []
    for i in range(group.order):
        if i not in assigned:
            reps.append(i)
            assigned.update(index[m.tobytes()] for m in group.stack[i] @ sub)
    return tuple(reps)


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "E6"]
)
def test_transversal_is_first_element_of_each_coset(name):
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    strata = alcove_stratum_points(rs)
    if group.order > 10_000:
        strata = strata[::25]  # the reference scans W once per coset
    for st in strata:
        w0 = stabilizer(rs, rs.degenerate_split(st.point))
        trans = coset_transversal(group, w0)
        assert tuple(trans.tolist()) == _first_of_each_coset(
            group, fixed_members(rs, group.stack, st.point))
        assert len(trans) * w0.order == group.order


#: (group, fundamental coordinates, point, repr of character value and
#: condition, repr of oracle value and condition).  A point is a tuple of
#: coordinates, or the index of a non-central alcove stratum.  The E6 omega_1
#: point is the ill-conditioned one: its Weyl denominator is 2.4e-12, and the
#: regular path's 21.6153+0.0059i, with condition 4.44, fails the precision
#: gate, which answers with the oracle's 21.6016+0.0112i instead.
PINNED = [
    ("F4", (1, 0, 0, 1), (F(1, 7), F(-3, 11), F(2, 13), F(5, 17)),
     ("(262.78766126610424+1.1224264858322449e-11j)", "1.1087621633960263e-09"),
     ("(262.7876612661421-2.842170943040401e-14j)", "2.3381296898605797e-13")),
    ("F4", (0, 1, 0, 0), 3,
     ("(-1.3596813123521043+1.7179332150078433e-16j)", "4.5353436876207065e-15"),
     ("(-1.359681312352194-5.684341886080802e-14j)", "2.828848266744899e-13")),
    ("F4", (0, 0, 1, 1), 11,
     ("(36.113945764489564-5.6212232725181155e-15j)", "4.194837867116644e-14"),
     ("(36.113945764489415-2.842170943040401e-14j)", "9.094947017729282e-13")),
    ("B4", (1, 1, 0, 1), (F(2, 7), F(-1, 11), F(4, 13), F(3, 19)),
     ("(844.0574427040198-5.295984053449087e-12j)", "2.5420723456555614e-10"),
     ("(844.0574427040316-1.1368683772161603e-13j)", "5.684341886080801e-13")),
    ("B4", (0, 2, 0, 1), 5,
     ("0j", "2.8678258335201816e-15"),
     ("0j", "1.0942358130705543e-12")),
    ("B4", (1, 0, 1, 0), 17,
     ("(36-3.7682219008410606e-15j)", "1.1304665702523182e-14"),
     ("(36+0j)", "1.318944953254686e-13")),
    ("E6", (1, 0, 0, 0, 0, 0), (F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13), F(1, 17)),
     ("(21.601570282191105+0.011244446136905673j)", "5.995204332975845e-15"),
     ("(21.601570282191105+0.011244446136905673j)", "5.995204332975845e-15")),
    ("E6", (0, 1, 0, 0, 0, 0), 40,
     ("(4.000000000000002-6.280369834735104e-16j)", "1.2798706807739468e-14"),
     ("(3.9999999999999964+0j)", "1.7319479184152442e-14")),
    ("E6", (1, 0, 0, 0, 0, 1), 90,
     ("(1.0000000000000027-2.0258372333917433e-16j)", "3.176667093778766e-14"),
     ("(1+2.842170943040401e-14j)", "1.4432899320127035e-13")),
]


@pytest.mark.parametrize("name,coeffs,point,want_char,want_oracle", PINNED)
def test_pinned_character_and_oracle_reprs(
        monkeypatch, name, coeffs, point, want_char, want_oracle):
    fallbacks = spy_fallbacks(monkeypatch)
    rs = build_root_system(name)
    lam = rs.weight_from_fundamental(coeffs)
    if isinstance(point, int):
        h = [s for s in alcove_stratum_points(rs) if not s.central][point].point
        assert rs.degenerate_split(h).deg
    else:
        h = exact_point(point)
        assert not rs.degenerate_split(h).deg
    for cv, want in ((character(rs, lam, h), want_char),
                     (char_weightsum_oracle(rs, lam, h), want_oracle)):
        assert (repr(cv.value), repr(cv.condition)) == want
    # the Weyl path answered, except where the pinned value is the oracle's
    assert len(fallbacks) == (want_char == want_oracle)
