"""Stacked spectral evaluation: word products and the trace kernel.

The stacked computations must reproduce the per-word computation bit for
bit.  The pinned moment `repr`s were recorded from the trace kernel
(`spectral._trace_characters`) and the float character `repr`s from the
per-point Weyl sum, so they also guard the order of every float operation.
"""

import itertools
import math

import numpy as np
import pytest

from weylchar import build_root_system, spectral
from weylchar.charcalc import character, dim_irrep
from weylchar.cli import main as cli_main
from weylchar.errors import DomainError
from weylchar.torus import float_point
from weylchar.utils import cquot, pairwise_sum

from _helpers import word_products

A1 = build_root_system("A1")
A2 = build_root_system("A2")
LAM1 = A1.weight_from_fundamental((20,))
LAM2 = A2.weight_from_fundamental((2, 1))


def _a2_set(seed):
    haar = spectral.haar_generator_set(3, 2, seed)
    inverses = tuple(g.conj().T for g in haar.elements)
    return spectral.generator_set(haar.elements + inverses, symmetric=True)


def _bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def _product(gens, word):
    """One word's product, letter by letter from the identity, as an (N, N, 1) stack
    (the reference chain)."""
    out = np.eye(gens.dim, dtype=complex)[:, :, None]
    for i, idx in enumerate(word):
        out = spectral._mul(out, gens.elements[idx][:, :, None])
        if (i + 1) % spectral.UNITARIZE_EVERY == 0:
            out = spectral._unitarize(out)
    return out


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------

A1_EXACT = ["1.0", "-0.002428662174153691", "0.27250482532901776", "0.006372763127392685",
            "0.1247698623318552", "0.002685349876494104", "0.07600883394477197"]

#: character() at floating points: (group, fundamental weight, point) -> repr of
#: (value, condition).  (2, -1, -1) is near a wall but does not snap, so the
#: precision gate answers there with the weight-sum oracle.
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
    ("A2", (0, 3), (2.0, -1.0, -1.0)):
        ("(-1.9797846929523064+0.5616555143186601j)", "2.220446049250313e-15"),
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
    assert repr(got) == "(0.0014995132046144968, 0.0024837634708993806)"
    got = spectral.moment_sampled(A1, LAM1, spectral.catalog_su2_free_pair(), 17, 256, 5)
    assert repr(got) == "(-0.0023846976556248737, 0.0023512565303157804)"


@pytest.mark.parametrize("key", list(FLOAT_CHARACTERS), ids=lambda k: f"{k[0]}{k[1]}")
def test_float_character_pinned(key):
    name, weight, point = key
    rs = build_root_system(name)
    lam = rs.weight_from_fundamental(weight)
    cv = character(rs, lam, float_point(point))
    assert (repr(cv.value), repr(cv.condition)) == FLOAT_CHARACTERS[key]


def test_spectral_cli_documents_pinned(capsys):
    cases = {
        ("spectral", "--group", "A1", "--l", "20"): (
            ["1.0", "-0.0225114769875146", "0.23863192628515317", "-0.01937906597717546",
             "0.10368880019891893", "-0.01258745570784122", "0.051049893862401406"],
            "0.8524945279415942"),
        ("spectral", "--group", "A1", "--l", "3", "--moments", "3"): (
            ["1.0", "-0.180341524364848", "0.2765488281273716", "-0.1519297744115693"],
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


def test_class_products_are_lexicographic_chains(monkeypatch):
    monkeypatch.setattr(spectral, "WORD_CHUNK", 8)  # the 70 classes of 4^4 words, several stacks
    gens = spectral.catalog_su2_free_pair()
    stacks = list(spectral._class_products(gens, 4))
    assert len(stacks) > 1 and all(p.shape[:2] == (2, 2) and p.shape[2] <= 8 for p, _ in stacks)
    classes = _classes(gens.size, 4)
    products = np.concatenate([p for p, _ in stacks], axis=-1)
    chains = np.concatenate([_product(gens, w) for w, _ in classes], axis=-1)
    assert (_bits(products) == _bits(chains)).all()
    assert np.concatenate([size for _, size in stacks]).tolist() == [k for _, k in classes]
    # the same chains as in the all-words stack
    codes = [int("".join(map(str, w)), gens.size) for w, _ in classes]
    assert (_bits(products) == _bits(word_products(gens, 4)[:, :, codes])).all()


def test_products_past_a_re_unitarization_are_chains():
    # 7712 classes of 2^17 words: more than one stack, re-unitarized after letter 16
    two = spectral.generator_set(spectral.catalog_su2_free_pair().elements[:2])  # a, a^-1
    products = np.concatenate([p for p, _ in spectral._class_products(two, 17)], axis=-1)
    least, _ = _least_rotations(2, 17)
    assert products.shape[-1] == len(least) > spectral.WORD_CHUNK
    picked = [0, 1, 100, len(least) // 2, len(least) - 1]
    words = [tuple(map(int, np.binary_repr(least[i], 17))) for i in picked]
    chains = np.concatenate([_product(two, w) for w in words], axis=-1)
    assert (_bits(products[:, :, picked]) == _bits(chains)).all()


def _classes(s, m):
    """(word, class size) for every word that is the least of its m rotations, in order."""
    out = []
    for w in itertools.product(range(s), repeat=m):
        rotations = [w[k:] + w[:k] for k in range(1, m + 1)]
        if w == min(rotations):
            out.append((w, rotations.index(w) + 1))
    return out


def _class_sum(rs, lam, gens, m):
    """The moment as the class-weighted sum of one-word chains, one kernel call a class."""
    d = dim_irrep(rs, lam)
    kernel = spectral._kernel_parts(rs, lam)
    terms = []
    for w, size in _classes(gens.size, m):
        ratio = cquot(spectral._trace_characters(_product(gens, w), *kernel), d)[0]
        terms.append(complex(size * ratio.real, size * ratio.imag))
    return (pairwise_sum(terms) / gens.size**m).real


def _word_sum(rs, lam, gens, m):
    """The moment as the plain sum over all s^m words, each with its own character."""
    d = dim_irrep(rs, lam)
    kernel = spectral._kernel_parts(rs, lam)
    words = word_products(gens, m)
    ratios = [cquot(spectral._trace_characters(words[:, :, lo:lo + 4096], *kernel), d)
              for lo in range(0, words.shape[-1], 4096)]
    return (pairwise_sum(np.concatenate(ratios)) / gens.size**m).real


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _least_rotations(s, m):
    """(codes, sizes): the base-s codes of the words that are the least of their rotations,
    in order, and the class sizes, from the rotations of all s^m codes at once."""
    code = np.arange(s**m)
    least = np.ones(s**m, dtype=bool)
    size = np.full(s**m, m)
    for k in range(m - 1, 0, -1):
        rot = code % s ** (m - k) * s**k + code // s ** (m - k)  # g_(k+1)...g_m g_1...g_k
        least &= code <= rot
        size[rot == code] = k
    return np.flatnonzero(least), size[least]


@pytest.mark.parametrize("s", [1, 2, 3, 4, 6])
def test_walk_forms_the_least_rotations_and_their_prefixes(s):
    plan = spectral._prenecklace_plan.__wrapped__  # uncached: the plans of 6^8 words are large
    for m in range(1, 9):
        parent, letter, size, start = plan(s, m)
        codes = [np.zeros(1, dtype=np.int64)]  # the words of each length, as base-s codes
        for k in range(1, m + 1):
            rows = slice(start[k - 1], start[k])
            codes.append(codes[-1][parent[rows]] * s + letter[rows])
        least, want = _least_rotations(s, m)
        assert codes[m].tolist() == least.tolist() and size.tolist() == want.tolist(), m
        count = sum(_totient(d) * s ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
        assert len(size) == count and size.sum() == s**m, m
        for k in range(1, m):
            # the prenecklaces: the prefixes of the least words of lengths k..2k-1
            if s ** (2 * k - 1) <= 10**4:
                prefixes = np.concatenate([_least_rotations(s, n)[0] // s ** (n - k)
                                           for n in range(k, 2 * k)])
                assert codes[k].tolist() == np.unique(prefixes).tolist(), (m, k)


@pytest.mark.parametrize("group, m, products", [("A1", 6, 1128), ("A2", 5, 342)])
def test_the_walk_multiplies_only_the_classes_and_their_prefixes(monkeypatch, group, m,
                                                                 products):
    # against 5460 (m = 6) and 1364 (m = 5) prefixes of all 4^m words
    gens = spectral.catalog_su2_free_pair() if group == "A1" else _a2_set(3)
    widths, mul = [], spectral._mul

    def counted(a, b):
        out = mul(a, b)
        widths.append(out.shape[-1])
        return out

    monkeypatch.setattr(spectral, "_mul", counted)
    classes = sum(len(size) for _, size in spectral._class_products(gens, m))
    assert sum(widths) == products and classes == len(_classes(4, m))


def test_importing_spectral_builds_no_plan():
    import subprocess
    import sys
    from pathlib import Path

    src = Path(spectral.__file__).resolve().parents[1]
    code = ("import weylchar.spectral as s, weylchar.cli; "
            "print(s._prenecklace_plan.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("chunk", [4096, 64, 16])
@pytest.mark.parametrize("group, m", [("A1", 6), ("A2", 4)])
def test_moment_over_many_chunks_equals_per_word_sum(monkeypatch, chunk, group, m):
    # per class: its least word's own chain and kernel call, weighted by its size
    monkeypatch.setattr(spectral, "WORD_CHUNK", chunk)
    rs, lam, gens = ((A1, LAM1, spectral.catalog_su2_free_pair()) if group == "A1"
                     else (A2, LAM2, _a2_set(3)))
    assert spectral.moment_exact(rs, lam, gens, m) == _class_sum(rs, lam, gens, m)


@pytest.mark.parametrize("group, gens, top", [
    ("A1", spectral.catalog_su2_free_pair(), 8),
    ("A1", spectral.haar_generator_set(2, 3, 7), 8),
    ("A2", _a2_set(1234), 6),
    ("A2", spectral.haar_generator_set(3, 3, 8), 6),
], ids=["A1-free-pair", "A1-haar", "A2-symmetric-haar", "A2-haar"])
def test_class_sums_agree_with_the_sum_over_every_word(group, gens, top):
    rs, lam = (A1, LAM1) if group == "A1" else (A2, LAM2)
    for m in range(1, top + 1):
        assert abs(spectral.moment_exact(rs, lam, gens, m) - _word_sum(rs, lam, gens, m)) <= 1e-14


def test_orders_zero_and_one_are_the_plain_word_sums():
    gens = spectral.catalog_su2_free_pair()
    assert spectral.moment_exact(A1, LAM1, gens, 0) == 1.0
    # at m = 1 every word is a class of its own, of size 1
    assert spectral.moment_exact(A1, LAM1, gens, 1) == _word_sum(A1, LAM1, gens, 1)
    # with one letter the only word, g^m, is a class of size 1
    one = spectral.generator_set(gens.elements[:1], symmetric=False)
    assert spectral.moment_exact(A1, LAM1, one, 5) == _word_sum(A1, LAM1, one, 5)


def _drifted_words(gens):
    """Products of 256 random 16-letter words with no re-unitarization, (N, N, 256)."""
    mats = np.stack(gens.elements, axis=-1)
    words = np.random.default_rng(3).integers(0, gens.size, size=(256, 16))
    stack = np.eye(gens.dim, dtype=complex)[:, :, None]
    for i in range(16):
        stack = spectral._mul(stack, mats[:, :, words[:, i]])
    return stack


@pytest.mark.parametrize("gens", [spectral.catalog_su2_free_pair(), _a2_set(1234)],
                         ids=["SU2", "SU3"])
def test_mul_agrees_with_matmul(gens):
    a = _drifted_words(gens)
    b = np.roll(a, 1, axis=-1)
    want = np.moveaxis(a, -1, 0) @ np.moveaxis(b, -1, 0)
    assert np.abs(np.moveaxis(spectral._mul(a, b), -1, 0) - want).max() <= 1e-15
    # a stack of one word multiplies every word of the other
    want = a[:, :, 0] @ np.moveaxis(b, -1, 0)
    assert np.abs(np.moveaxis(spectral._mul(a[:, :, :1], b), -1, 0) - want).max() <= 1e-15


@pytest.mark.parametrize("gens", [spectral.catalog_su2_free_pair(), _a2_set(1234)],
                         ids=["SU2", "SU3"])
def test_newton_schulz_step_reaches_the_polar_factor(gens):
    drifted = _drifted_words(gens)
    got = np.moveaxis(spectral._unitarize(drifted), -1, 0)
    assert np.abs(got @ got.conj().swapaxes(-1, -2) - np.eye(gens.dim)).max() <= 1e-15
    u, _, vh = np.linalg.svd(np.moveaxis(drifted, -1, 0))
    assert np.abs(got - u @ vh).max() <= 1e-14


def test_non_unitary_matrix_anywhere_in_a_stack_raises():
    gens = spectral.catalog_su2_free_pair()
    mats = np.concatenate([_product(gens, w) for w in _all_words(gens, 3)], axis=-1)
    for bad_row, bad, what in ((0, 2.0 * np.eye(2), "unitary"),
                               (37, np.diag([1j, 1j]), "determinant 1")):
        broken = mats.copy()
        broken[:, :, bad_row] = bad
        with pytest.raises(DomainError, match=what):
            spectral._trace_characters(broken, (3,))


@pytest.mark.parametrize("name, row", [
    ("A2", [1e308, -1e308, 0.0]),  # a pairing overflows
    ("A2", [1e308, 1e308, -1e308]),  # a partial coordinate sum overflows
    ("B2", [1e308, 1e308]),
])
def test_point_beyond_the_float_range_is_refused(name, row):
    rs = build_root_system(name)
    lam = rs.weight_from_fundamental((1, 1))
    with pytest.raises(DomainError, match="^floating torus point out of range"):
        character(rs, lam, float_point(row))
    with pytest.raises(DomainError, match="^floating torus point out of range"):
        rs.float_pairings(row)


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
