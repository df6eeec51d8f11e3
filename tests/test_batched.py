"""Stacked spectral evaluation: word products, eigenphases and float characters.

The stacked kernels must reproduce the per-word computation bit for bit.
The pinned `repr`s below were recorded from the per-word implementation
(one product chain, one `eigvals` and one loop over W per word), so they
also guard the order of every float operation.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchar import build_root_system, charcalc, spectral
from weylchar.charcalc import (
    SNAP_MAX_DENOMINATOR, char_singular, character, dim_irrep, snap_to_exact,
)
from weylchar.cli import main as cli_main
from weylchar.errors import DomainError, SnapError, WeylcharError
from weylchar.rootsys import EPS_SNAP
from weylchar.torus import float_point

A1 = build_root_system("A1")
A2 = build_root_system("A2")
LAM1 = A1.weight_from_fundamental((20,))
LAM2 = A2.weight_from_fundamental((2, 1))


def _a2_set(seed):
    haar = spectral.haar_generator_set(3, 2, seed)
    inverses = tuple(g.conj().T for g in haar.elements)
    return spectral.generator_set(haar.elements + inverses, symmetric=True)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


def _product(gens, word):
    """One word's product, letter by letter from the identity (the reference chain)."""
    out = np.eye(gens.dim, dtype=complex)
    for i, idx in enumerate(word):
        out = out @ gens.elements[idx]
        if (i + 1) % spectral.UNITARIZE_EVERY == 0:
            u, _, vh = np.linalg.svd(out)
            out = u @ vh
    return out


# ---------------------------------------------------------------------------
# values pinned from the per-word implementation
# ---------------------------------------------------------------------------

A1_EXACT = ["1.0", "-0.0024286621741537273", "0.27250482532901776", "0.006372763127392699",
            "0.1247698623318555", "0.0026853498764941256", "0.07600883394477212"]

#: character() at floating points: (group, fundamental weight, point) -> repr of
#: (value, condition), or the exception class for points that cannot be snapped.
FLOAT_CHARACTERS = {
    ("A1", (20,), (0.7, -0.7)): ("(1.312827710101177+0j)", "3.4467325148603936e-16"),
    ("A1", (20,), (2.9, -2.9)): ("(-3.9102472730984834-0j)", "9.280887250740696e-16"),
    ("A1", (20,), (0.2500000003, -0.2500000003)):
        ("(-3.4717895856615817-0j)", "8.97498186097007e-16"),
    ("A1", (20,), (1e-11, -1e-11)): ("(21+0j)", "4.6629367034256575e-15"),
    ("A1", (3,), (math.pi / 2, -math.pi / 2)): ("0j", "2.220446049250313e-16"),
    ("A2", (2, 1), (0.3, 0.5, -0.8)):
        ("(7.270165648509128+0.6024784639854983j)", "5.2734459805271615e-15"),
    ("A2", (2, 1), (-0.4, 0.1, 0.3)):
        ("(12.558342936553581+0.0770861591798474j)", "1.9663200191741115e-14"),
    ("A2", (2, 1), (0.6283185311179587, 0.6283185307179586, -1.2566370618359173)):
        ("(1.663118960624632+1.4858412054516439j)", "8.481349206281966e-16"),
    ("A2", (0, 3), (1.0471975511965976, 1.0471975511865976, -2.0943951023831953)):
        ("(-2-0j)", "5.551115123125783e-16"),
    ("A2", (0, 3), (2.0, -1.0, -1.0)): SnapError,
    ("B2", (1, 2), (1.3, -0.45)): ("(9.042854150065393-0j)", "2.5981898805816924e-15"),
    ("B2", (1, 2), (1.0471975511975977, 0.6283185307179586)):
        ("(12.708203932478433+0j)", "4.6505625816811335e-15"),
    ("G2", (1, 1), (1.9, -0.25)): ("(-2.1753171811633023+0j)", "2.162328615987746e-15"),
    ("C3", (1, 0, 1), (0.2, 0.9, -1.4)): ("(9.964260281963915+0j)", "8.279862056635933e-15"),
    ("F4", (0, 0, 0, 1), (1.3, 0.2, -0.7, 0.45)):
        ("(15.358928674021175+2.557846657573654e-12j)", "4.911065582541416e-10"),
    ("E6", (1, 0, 0, 0, 0, 0), (0.61, -0.23, 0.37, 0.91, 1.7, -0.4)):
        ("(12.194925338906506-0.021741494151914592j)", "1.1114049628792705e-07"),
}


@pytest.mark.parametrize("chunk", [spectral.WORD_CHUNK, 16])
def test_moment_exact_pinned_a1(monkeypatch, chunk):
    monkeypatch.setattr(spectral, "WORD_CHUNK", chunk)
    gens = spectral.catalog_su2_free_pair()
    got = [repr(spectral.moment_exact(A1, LAM1, gens, m)) for m in range(7)]
    assert got == A1_EXACT


def test_moment_exact_pinned_a2():
    assert repr(spectral.moment_exact(A2, LAM2, _a2_set(1234), 4)) == "0.1061996051766678"


def test_moment_sampled_pinned_across_reunitarization():
    # m = 17 crosses the re-unitarization after letter 16.
    got = spectral.moment_sampled(A2, LAM2, _a2_set(1234), 17, 256, 99)
    assert repr(got) == "(0.0014995132046144925, 0.002483763470899381)"
    got = spectral.moment_sampled(A1, LAM1, spectral.catalog_su2_free_pair(), 17, 256, 5)
    assert repr(got) == "(-0.002384697655624866, 0.0023512565303157817)"


@pytest.mark.parametrize("key", list(FLOAT_CHARACTERS), ids=lambda k: f"{k[0]}{k[1]}")
def test_float_character_pinned(key):
    name, weight, point = key
    rs = build_root_system(name)
    lam = rs.weight_from_fundamental(weight)
    want = FLOAT_CHARACTERS[key]
    if isinstance(want, type):
        with pytest.raises(want):
            character(rs, lam, float_point(point))
        return
    cv = character(rs, lam, float_point(point))
    assert (repr(cv.value), repr(cv.condition)) == want


def test_spectral_cli_documents_pinned(capsys):
    cases = {
        ("spectral", "--group", "A1", "--l", "20"): (
            ["1.0", "-0.022511476987514628", "0.23863192628515312", "-0.019379065977175505",
             "0.10368880019891988", "-0.012587455707841236", "0.051049893862402065"],
            "0.8524945279415942"),
        ("spectral", "--group", "A1", "--l", "3", "--moments", "3"): (
            ["1.0", "-0.180341524364848", "0.2765488281273716", "-0.15192977441156935"],
            "0.8945827491937212"),
    }
    import json

    for argv, (moments, norm) in cases.items():
        assert cli_main(list(argv)) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        assert [repr(row["moment"]) for row in doc["moments"]] == moments
        assert repr(doc["norm_estimate"]) == norm


# ---------------------------------------------------------------------------
# a stack of N equals N stacks of one
# ---------------------------------------------------------------------------


def _all_words(gens, m):
    return list(itertools.product(range(gens.size), repeat=m))


def test_word_blocks_are_lexicographic_chains(monkeypatch):
    monkeypatch.setattr(spectral, "WORD_CHUNK", 8)  # 4^3 words over several blocks
    gens = spectral.catalog_su2_free_pair()
    blocks = list(spectral._word_blocks(gens, 3))
    assert len(blocks) > 1 and all(len(b) <= 8 for b in blocks)
    stacked = np.concatenate(blocks)
    singles = np.stack([_product(gens, w) for w in _all_words(gens, 3)])
    assert (_bits(stacked) == _bits(singles)).all()


def test_conjugacy_phases_stack_equals_rows():
    gens = _a2_set(7)
    words = _all_words(gens, 4)  # includes identity-reducing words like (0, 2, 0, 2)
    mats = np.stack([_product(gens, w) for w in words])
    stacked = spectral.conjugacy_phases(mats)
    assert stacked.shape == (len(words), 3)
    for row, g in zip(stacked, mats):
        single = spectral.conjugacy_phases(g)
        assert row.tolist() == list(single.coords)
        assert np.array_equal(row.view(np.uint64), np.array(single.coords).view(np.uint64))


def test_float_character_stack_equals_rows(monkeypatch):
    gens = spectral.catalog_su2_free_pair()
    words = _all_words(gens, 4)
    phases = spectral.conjugacy_phases(np.stack([_product(gens, w) for w in words]))
    snaps, snap = [], charcalc.snap_to_exact

    def counted_snap(*args, **kwargs):
        snaps.append(snap(*args, **kwargs))
        return snaps[-1]

    monkeypatch.setattr(charcalc, "snap_to_exact", counted_snap)
    stacked = character(A1, LAM1, phases)
    monkeypatch.undo()
    # one snap per distinct snapped point, not one per near-wall row
    assert len(snaps) == len(set(snaps)) == 1
    singles = [character(A1, LAM1, float_point(row)) for row in phases]
    assert (_bits(stacked.value) == _bits([cv.value for cv in singles])).all()
    assert stacked.condition.tolist() == [cv.condition for cv in singles]
    # identity-reducing words are snapped onto h = 0, where chi = dim
    snapped = stacked.value == dim_irrep(A1, LAM1)
    assert 0 < snapped.sum() < len(words)


#: Groups and weights of the batched-snap equivalence test.
SNAP_CASES = {"A2": (1, 1), "B3": (1, 0, 1), "G2": (1, 0)}


@st.composite
def _snap_stacks(draw):
    """A float stack mixing regular rows, rows on or near several strata, rows
    EPS_SNAP * (1 +- 1e-3) off a wall, rows at the rationalization margin
    0.25/(qN), and rows that cannot snap, by displacement or by landing.

    Points are pi * sum_i t_i w_i over the fundamental coweights w_i, so the
    simple root a_j pairs to pi * t_j and t_j in 2Z puts the point on a wall.
    """
    name = draw(st.sampled_from(sorted(SNAP_CASES)))
    rs = build_root_system(name)
    w = rs.fundamental_coweights()
    w_f = np.array([[float(x) for x in v] for v in w])
    r = rs.rank

    def stratum(denoms, top):
        q = draw(st.sampled_from(denoms))
        t = [Fraction(draw(st.integers(-top, top)), q) for _ in range(r)]
        j = draw(st.integers(0, r - 1))
        t[j] = Fraction(draw(st.sampled_from((0, 2, -2))))
        c = [sum((ti * v[k] for ti, v in zip(t, w)), Fraction(0)) for k in range(rs.ambient_dim)]
        return c, j

    small = [stratum((1, 2, 3, 4, 5, 7, 12), 12) for _ in range(draw(st.integers(1, 3)))]
    big = stratum((997, 4001, 99991, 100003), 300_000)  # denominators where 0.25/(qN) binds
    generic = st.floats(-3, 3, allow_nan=False)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        # rows that cannot snap end the call, so they are drawn less often
        kind = draw(st.sampled_from(("regular", "stratum", "stratum", "wall", "wall", "margin",
                                     "margin", "margin", "moved", "unlanded")))
        c, j = big if kind == "margin" else draw(st.sampled_from(small))
        on = np.array([math.pi * float(x) for x in c])
        if kind == "regular":
            row = math.pi * (np.array([draw(generic) for _ in range(r)]) @ w_f)
        elif kind == "stratum":
            jitter = st.sampled_from((0.0, 1e-15, -1e-13, 3e-12))
            row = on + np.array([draw(jitter) for _ in on])
        elif kind == "wall":
            off = EPS_SNAP * draw(st.sampled_from((1 - 1e-3, 1 + 1e-3, -1 + 1e-3, -1 - 1e-3)))
            row = on + off * w_f[j]
        elif kind == "margin":
            f = st.sampled_from((0.0, 0.9, -0.99, 1.01, -1.1, 2.1, -2.3, 2.5))
            y = [x + draw(f) * Fraction(1, 4 * x.denominator * SNAP_MAX_DENOMINATOR) for x in c]
            row = np.array([math.pi * float(v) for v in y])
            if rs.spec.family == "A":
                row[-1] = -row[:-1].sum()
        elif kind == "moved":
            row = on + 1e-8 * w_f[(j + 1) % r]  # stays on the wall of a_j, off the rationals
        else:
            t = np.array([draw(generic) for _ in range(r)])
            t[j] = draw(st.sampled_from((3e-10, -5e-10))) / math.pi
            row = math.pi * (t @ w_f)
        rows.append(row)
    return rs, rs.weight_from_fundamental(SNAP_CASES[name]), np.array(rows)


def _outcome(call):
    try:
        return call()
    except WeylcharError as exc:
        return exc


def _per_row(rs, lam, points):
    """The reference: near-wall rows snapped and evaluated one at a time, in row order."""
    out = []
    for row, near in zip(points, rs.near_walls(points)):
        if near.any():
            out.append(char_singular(rs, lam, snap_to_exact(rs, float_point(row))))
        else:
            out.append(character(rs, lam, float_point(row)))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_snap_stacks())
def test_batched_snap_equals_a_per_row_snap(case):
    rs, lam, points = case
    want = _outcome(lambda: _per_row(rs, lam, points))
    got = _outcome(lambda: character(rs, lam, points))
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert not isinstance(got, Exception), got
    assert (_bits(got.value) == _bits([cv.value for cv in want])).all()
    assert np.array_equal(got.condition.view(np.uint64),
                          np.array([cv.condition for cv in want]).view(np.uint64))


def test_a_row_matching_the_snapped_point_with_a_near_root_off_it_still_raises():
    # h0 = pi * (a/q, b/r, b/r, -(a/q + 2b/r)) with a r + b q = 1: e2 - e3 lands,
    # and e1 - e4 pairs to 2 pi/(q r) = 1.46e-9, just outside the snap tolerance.
    # Moving the reconstructed last coordinate by 8e-10 brings e1 - e4 within it:
    # the second row matches h0 coordinate by coordinate, yet cannot snap.
    q, r = 65537, 65539
    a = pow(r, -1, q)
    b = (1 - a * r) // q
    c = [Fraction(a, q), Fraction(b, r), Fraction(b, r), -Fraction(a, q) - 2 * Fraction(b, r)]
    on = [math.pi * float(x) for x in c]
    points = np.array([on, on[:3] + [on[3] + 8e-10]])
    rs = build_root_system("A3")
    lam = rs.weight_from_fundamental((1, 0, 1))
    e1_e4 = rs.positive_roots.index((1, 0, 0, -1))
    assert rs.near_walls(points)[:, e1_e4].tolist() == [False, True]
    want = _outcome(lambda: _per_row(rs, lam, points))
    got = _outcome(lambda: character(rs, lam, points))
    assert isinstance(want, SnapError)
    assert (type(got), str(got)) == (type(want), str(want))


def test_moment_over_many_chunks_equals_per_word_sum(monkeypatch):
    monkeypatch.setattr(spectral, "WORD_CHUNK", 64)
    gens = _a2_set(3)
    m, d = 4, dim_irrep(A2, LAM2)
    ratios = [character(A2, LAM2, spectral.conjugacy_phases(_product(gens, w))).value / d
              for w in _all_words(gens, m)]
    from weylchar.utils import pairwise_sum

    want = (pairwise_sum(ratios) / len(ratios)).real
    assert spectral.moment_exact(A2, LAM2, gens, m) == want


def test_non_unitary_matrix_anywhere_in_a_stack_raises():
    gens = spectral.catalog_su2_free_pair()
    mats = np.stack([_product(gens, w) for w in _all_words(gens, 3)])
    for bad_row, bad in ((0, 2.0 * np.eye(2)), (37, np.diag([1j, 1j]))):
        broken = mats.copy()
        broken[bad_row] = bad
        with pytest.raises(DomainError):
            spectral.conjugacy_phases(broken)


def test_character_stack_checks_its_shape_and_values():
    with pytest.raises(DomainError):
        character(A2, LAM2, np.zeros((4, 2)))
    with pytest.raises(DomainError):
        character(A2, LAM2, np.array([[0.3, math.inf, -0.3]]))
    # Every row of a type A stack gets the single point's sum check: a regular
    # row, and a near-wall row that the snap of the row before it would answer.
    for rows in ([[0.1, 0.2, 0.3]], [[0.0, 0.0, 0.0], [9e-10, 9e-10, 0.0]]):
        with pytest.raises(DomainError) as want:
            character(A2, LAM2, float_point(rows[-1]))
        with pytest.raises(DomainError) as got:
            character(A2, LAM2, np.array(rows))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name, rows", [
    ("A2", [[0.1, 0.2, -0.3], [1e308, -1e308, 0.0]]),  # a pairing overflows
    ("A2", [[0.1, 0.2, -0.3], [1e308, 1e308, -1e308]]),  # a partial coordinate sum overflows
    ("B2", [[0.1, 0.2], [1e308, 1e308]]),
])
def test_stack_row_beyond_the_float_range_is_refused_like_a_single_point(name, rows):
    rs = build_root_system(name)
    lam = rs.weight_from_fundamental((1, 1))
    with pytest.raises(DomainError) as want:
        character(rs, lam, float_point(rows[-1]))
    with pytest.raises(DomainError) as got:
        character(rs, lam, np.array(rows))
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("floating torus point out of range")


def test_ordered_dot_on_an_int8_stack_equals_its_float64_form():
    # The float Weyl sum hands the int8 stack to ordered_dot unconverted;
    # promoting one column at a time must give the bits of the float64 copy.
    from weylchar.charcalc import cached_weyl_group
    from weylchar.utils import ordered_dot

    stack = cached_weyl_group(build_root_system("F4")).stack
    assert stack.dtype == np.int8
    points = np.random.default_rng(5).uniform(-math.pi, math.pi, (3, 1, 1, 4))
    got = ordered_dot(stack, points)
    want = ordered_dot(stack.astype(float), points)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape == (3, len(stack), 4)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
