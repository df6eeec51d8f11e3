"""Averaging-operator moments, Kesten-McKay reference, norm estimates."""

import itertools
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import integrate

from weylchar import build_root_system, spectral
from weylchar.charcalc import character, dim_irrep
from weylchar.errors import CapacityError, DomainError
from weylchar.spectral import (
    GeneratorSet,
    SpectrumEstimate,
    catalog_su2_free_pair,
    conjugacy_phases,
    delta_opt,
    generator_set,
    haar_generator_set,
    inverse_table,
    km_density,
    km_moment,
    load_generator_set,
    moment_exact,
    moment_growth_sequence,
    moment_sampled,
    norm_estimate,
    spectrum_estimate,
)
from weylchar.utils import as_complex, cmul, cquot, pairwise_sum, physical_memory

from _helpers import generator_set_to_json, reduce_word, rng_for, word_products

RS1 = build_root_system("A1")


def su2_weight(l):
    return (F(l), F(-l))


def random_su(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return q * np.linalg.det(q) ** (-1.0 / n)


# ---------------------------------------------------------------------------
# conjugacy phases
# ---------------------------------------------------------------------------


def test_phases_of_identity_and_diagonal():
    h = conjugacy_phases(np.eye(3))
    assert max(abs(c) for c in h.coords) < 1e-12
    a = 0.7
    g = np.diag([np.exp(1j * a), np.exp(1j * a), np.exp(-2j * a)])
    h = conjugacy_phases(g)
    assert max(abs(c - e) for c, e in zip(h.coords, (a, a, -2 * a))) < 1e-12


def test_phases_sum_to_zero_and_sorted():
    for seed in range(5):
        g = random_su(4, seed)
        h = conjugacy_phases(g)
        assert abs(sum(h.coords)) < 1e-12
        assert list(h.coords) == sorted(h.coords, reverse=True)


def test_phases_conjugation_invariant():
    rng = rng_for("phase-conj")
    for seed in range(5):
        g = random_su(3, seed)
        v = random_su(3, seed + 100)
        a = conjugacy_phases(g)
        b = conjugacy_phases(v @ g @ v.conj().T)
        assert max(abs(x - y) for x, y in zip(a.coords, b.coords)) < 1e-9


def test_phases_near_minus_identity_branch():
    # eigenphases straddle the branch cut; the sum must still vanish
    g = -np.eye(2)
    h = conjugacy_phases(g)
    assert abs(sum(h.coords)) < 1e-12
    # the center acts by (-1)^{2l}: chi_l(-I) = +-(2l+1) by spin parity
    rs = build_root_system("A1")
    assert abs(character(rs, su2_weight(1), h).value - 3.0) < 1e-9
    assert abs(character(rs, su2_weight(F(1, 2)), h).value - (-2.0)) < 1e-9


def test_phases_reject_bad_matrices():
    with pytest.raises(DomainError):
        conjugacy_phases(np.eye(2) * 2.0)
    with pytest.raises(DomainError):
        conjugacy_phases(np.diag([1j, 1j]))  # det = -1


# ---------------------------------------------------------------------------
# the trace kernel
# ---------------------------------------------------------------------------


def _dim_a(parts, n):
    """dim of the SU(n) irrep of a partition: prod_{i<j} (l_i - l_j + j - i) / (j - i)."""
    lam = list(parts) + [0] * (n - len(parts))
    pairs = list(itertools.combinations(range(n), 2))
    return math.prod(lam[i] - lam[j] + j - i for i, j in pairs) // math.prod(j - i
                                                                             for i, j in pairs)


def _schur_mp(g, parts):
    """s_lambda of the eigenvalues of g in 40-digit arithmetic: eigenvalues by
    mpmath.eig, h_k by adding one variable at a time, then Jacobi-Trudi."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        eigs, _ = mpmath.eig(mpmath.matrix(g.tolist()))
        h = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (parts[0] + len(parts))
        for x in eigs:
            for k in range(1, len(h)):
                h[k] += x * h[k - 1]
        ell = len(parts)
        mat = mpmath.matrix(ell, ell)
        for i in range(ell):
            for j in range(ell):
                k = parts[i] - i + j
                mat[i, j] = h[k] if k >= 0 else 0
        return complex(mpmath.det(mat))


def _accuracy_words(n, seed):
    """Haar words, identity-reducing words and words within 1e-8 of a wall, in SU(n)."""
    gens = haar_generator_set(n, 4, seed)
    g = gens.elements
    haar = [g[0], g[1] @ g[2], g[0] @ g[1] @ g[2] @ g[3]]
    reducing = [g[0] @ g[0].conj().T, g[1] @ g[2] @ g[2].conj().T @ g[1].conj().T,
                g[3] @ g[0] @ g[3].conj().T @ g[0].conj().T @ g[0] @ g[3] @ g[0].conj().T
                @ g[3].conj().T]
    rng = np.random.default_rng(seed)
    walls = []
    for gap in (1e-8, -3e-9, 1e-12):
        theta = rng.uniform(-3, 3, n)
        theta[1] = theta[0] + gap
        theta -= theta.mean()
        walls.append(g[0] @ np.diag(np.exp(1j * theta)) @ g[0].conj().T)
    return np.array(haar + reducing + walls)


@pytest.mark.parametrize("n, partitions", [
    (2, [(1,), (20,), (77,), (200,)]),
    (3, [(1,), (2, 1), (20, 7), (200,), (200, 100), (200, 200)]),
    (4, [(1,), (3, 2, 1), (20, 20, 20), (200,), (200, 150, 3), (200, 200, 200)]),
    (5, [(1,), (5, 3), (60, 30), (20, 16, 12, 8)]),
    (7, [(1,), (1, 1, 1, 1, 1, 1), (20, 11), (60, 50, 40, 30)]),
    (9, [(1,), (5, 4, 3, 2), (58, 29), (60,)]),
])
def test_trace_kernel_within_its_bound_of_40_digit_arithmetic(n, partitions):
    words = _accuracy_words(n, 11 * n)
    for parts in partitions:
        got = spectral._trace_characters(np.moveaxis(words, 0, -1), parts)
        bound = spectral._kernel_error(n, parts)
        dim = _dim_a(parts, n)
        for g, value in zip(words, got):
            assert abs(value - _schur_mp(g, parts)) / dim <= bound, (n, parts)


def test_kernel_error_of_a_single_su2_row_is_its_closed_form():
    # strips of size j leave (k - j), of dim k - j + 1; h_j = j + 1 at the identity
    for k in (1, 7, 200):
        strips = sum((j + 1) * (k - j + 1) for j in range(1, k + 1)) / (k + 1)
        assert spectral._kernel_error(2, (k,)) == pytest.approx((8 * strips + 1) * 2.0**-52)
    assert spectral._kernel_error(3, ()) == spectral._kernel_error(600, ()) == 0.0
    assert spectral._kernel_error(2, (10**6 + 1,)) == math.inf
    assert spectral._kernel_error(1100, (1,)) == math.inf  # n 2**(n - 52) past the float range


@pytest.mark.parametrize("n, most", [(2, 581177), (3, 10399), (4, 1553), (5, 524), (6, 261),
                                     (7, 161), (8, 112), (9, 85)])
def test_longest_admitted_single_rows(n, most):
    bound = spectral._kernel_error
    assert bound(n, (most,)) <= spectral.KERNEL_TOL < bound(n, (most + 1,))


@pytest.mark.parametrize("name, most", [("A1", 581177), ("A2", 10399)])
def test_trace_kernel_at_the_largest_admitted_weight(name, most):
    # identity-reducing words come closest to the bound, and there chi = dim
    n = int(name[1:]) + 1
    assert spectral._kernel_error(n, (most,)) <= spectral.KERNEL_TOL
    assert spectral._kernel_error(n, (most + 1,)) > spectral.KERNEL_TOL
    words = _accuracy_words(n, 11 * n)[3:6]
    bound, dim = spectral._kernel_error(n, (most,)), _dim_a((most,), n)
    for value in spectral._trace_characters(np.moveaxis(words, 0, -1), (most,)):
        assert abs(value - dim) / dim <= bound


#: The benchmark's weights: the A1 catalog-pair weight and the A2 Haar-set weights.
BENCH_WEIGHTS = [("A1", (20,)), ("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 0)), ("A2", (2, 1))]


@pytest.mark.parametrize("name, weight", BENCH_WEIGHTS)
def test_trace_kernel_agrees_with_the_eigenphase_character(name, weight):
    rs = build_root_system(name)
    lam = rs.weight_from_fundamental(weight)
    if name == "A1":
        gens = catalog_su2_free_pair()
    else:
        haar = haar_generator_set(3, 2, 5)
        gens = generator_set(haar.elements + tuple(g.conj().T for g in haar.elements))
    words = np.moveaxis(word_products(gens, 4), -1, 0)
    got = spectral._trace_characters(np.moveaxis(words, 0, -1), *spectral._kernel_parts(rs, lam))
    dim = dim_irrep(rs, lam)
    for w, value in zip(words, got):
        assert abs(value - character(rs, lam, conjugacy_phases(w)).value) <= 1e-12 * dim


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_small_weights_of_su5_to_su9_agree_with_the_eigenphase_character(n):
    rs = build_root_system(f"A{n - 1}")
    haar = haar_generator_set(n, 2, 3 * n)
    gens = generator_set(haar.elements + tuple(g.conj().T for g in haar.elements))
    words = np.moveaxis(word_products(gens, 2), -1, 0)
    words = words[1::3]  # g g^-1 at 7, 13
    for weight in ((1,), (0, 1), (2,), (0,) * (n - 2) + (1,), (1,) + (0,) * (n - 3) + (1,)):
        lam = rs.weight_from_fundamental(weight + (0,) * (n - 1 - len(weight)))
        kernel = spectral._kernel_parts(rs, lam)
        tol = (spectral._kernel_error(n, kernel[0]) + 1e-12) * dim_irrep(rs, lam)
        want = [character(rs, lam, conjugacy_phases(w)).value for w in words]
        got = spectral._trace_characters(np.moveaxis(words, 0, -1), *kernel)
        assert np.abs(got - want).max() <= tol, weight


def test_the_dual_partition_is_evaluated_when_its_bound_is_smaller():
    a2, a8 = build_root_system("A2"), build_root_system("A8")
    assert spectral._kernel_parts(a2, a2.weight_from_fundamental((2, 1))) == ((3, 1), False)
    assert spectral._kernel_parts(a2, a2.weight_from_fundamental((0, 5))) == ((5,), True)
    # (60^8) is refused as eight rows, but its dual is one row
    lam = a8.weight_from_fundamental((0,) * 7 + (60,))
    assert spectral._kernel_error(9, (60,) * 8) > spectral.KERNEL_TOL
    assert spectral._kernel_parts(a8, lam) == ((60,), True)
    lam = a2.weight_from_fundamental((0, 5))
    words = _accuracy_words(3, 33)[:3]  # Haar words
    got = spectral._trace_characters(np.moveaxis(words, 0, -1), *spectral._kernel_parts(a2, lam))
    want = [character(a2, lam, conjugacy_phases(w)).value for w in words]
    assert np.abs(got - want).max() <= 1e-12 * dim_irrep(a2, lam)


def _loop_characters(stack, parts):
    """chi for a partition of at most two rows, with the h recurrence as a loop over its
    terms, each term's real and imaginary parts added one array at a time (the reference)."""
    n, w = stack.shape[0], stack.shape[-1]
    power, p = stack, [np.einsum("iin->n", stack)]
    for _ in range(2, n):
        power = spectral._mul(power, stack)
        p.append(np.einsum("iin->n", power))
    p.append(np.einsum("ijn,jin->n", power, stack))
    signed_p = [x if k % 2 else -x for k, x in enumerate(p, 1)]
    e = [np.ones(w, dtype=complex)]
    for k in range(1, n + 1):
        acc = sum(map(cmul, e[::-1], signed_p[:k]))
        e.append(as_complex(acc.real / k, acc.imag / k))
    h, hr, hi = [e[0]], [np.ones(w)], [np.zeros(w)]  # h_(k-1), h_(k-2), ..., at most N
    for k in range(1, parts[0] + len(parts)):
        re, im = np.zeros(w), np.zeros(w)
        for i, (br, bi) in enumerate(zip(hr, hi), 1):
            a = e[i] if i % 2 else -e[i]
            re += a.real * br - a.imag * bi
            im += a.real * bi + a.imag * br
        hr, hi = [re] + hr[:n - 1], [im] + hi[:n - 1]
        h.append(as_complex(re, im))
    if len(parts) == 1:
        return h[parts[0]]
    (a, b), (c, d) = [[h[k] if k >= 0 else 0j for k in (x - i, x - i + 1)]
                      for i, x in enumerate(parts)]
    return cmul(a, d) - cmul(b, c)


@pytest.mark.parametrize("n", range(2, 10))
def test_trace_kernel_has_the_bits_of_the_term_by_term_recurrence(n):
    # more than 16 steps move the last N values of h back to the top of its buffer
    words = np.ascontiguousarray(np.moveaxis(_accuracy_words(n, 5 * n), 0, -1))
    words = np.concatenate([np.eye(n, dtype=complex)[:, :, None], words], axis=-1)
    for parts in ((1,), (2,), (n + 1,), (40,), (1, 1), (20, 7)):
        got = spectral._trace_characters(words, parts)
        assert np.array_equal(got.view(np.uint64), _loop_characters(words, parts).view(np.uint64))
    # and whatever the memory layout of the stack
    got = spectral._trace_characters(np.asfortranarray(words), (20, 7))
    assert np.array_equal(got.view(np.uint64), _loop_characters(words, (20, 7)).view(np.uint64))


def _loop_kernel_error(n, parts):
    """_kernel_error with each bead's product taken one factor at a time (the reference)."""
    beta = [x + n - 1 - i for i, x in enumerate(list(parts) + [0] * (n - len(parts)))]
    h_one = np.ones(beta[0] + 1)
    for _ in range(n - 1):
        h_one = np.cumsum(h_one)
    strips = 0.0
    for i, b in enumerate(beta):
        j = np.arange(1, b + 1)
        ratio = np.ones(b)
        for a, c in enumerate(beta):
            if a != i:
                ratio *= np.abs(b - j - c) / abs(b - c)
        strips += h_one[j] @ ratio
    return float(np.ldexp(n * strips, n - 52))


@pytest.mark.parametrize("n, parts", [
    (2, (581177,)), (2, (581178,)), (3, (10399,)), (3, (10400,)), (4, (1553,)), (5, (524,)),
    (6, (261,)), (7, (161,)), (8, (112,)), (9, (85,)), (9, (86,)), (3, (200, 100)),
    (4, (200, 150, 3)), (9, (60,) * 8), (33, (1,)), (33, (5000,)),  # 2 slices of j
])
def test_kernel_error_has_the_bits_of_the_factor_by_factor_product(n, parts):
    assert spectral._kernel_error(n, parts) == _loop_kernel_error(n, parts)


def test_kernel_error_refuses_past_n_33_without_the_sums():
    # n 2**(n - 52) bounds the error bound from below from n = 34 on, and the
    # full sums there exceed KERNEL_TOL too, so the early refusal refuses no
    # weight the sums would admit
    start = time.perf_counter()
    assert spectral._kernel_error(1065, (1,)) == math.inf
    assert time.perf_counter() - start < 0.1
    assert spectral._kernel_error(33, (1,)) <= spectral.KERNEL_TOL
    for n in range(34, 41):
        assert spectral._kernel_error(n, (1,)) == math.inf
        for parts in ((1,), (2, 1), (7,), (1,) * (n - 1)):
            assert _loop_kernel_error(n, parts) > spectral.KERNEL_TOL


def test_trace_kernel_of_the_trivial_weight_is_one():
    words = np.stack(catalog_su2_free_pair().elements)
    assert spectral._trace_characters(np.moveaxis(words, 0, -1), ()).tolist() == [1.0] * 4


@pytest.mark.parametrize("name", ["B2", "C2", "G2", "A2"])
def test_moments_need_the_type_a_group_of_the_generators(name):
    rs = build_root_system(name)
    gens = catalog_su2_free_pair()  # SU(2): only A1 fits
    lam = rs.weight_from_fundamental((1,) + (0,) * (rs.rank - 1))
    for call in (lambda: moment_exact(rs, lam, gens, 2),
                 lambda: moment_sampled(rs, lam, gens, 2, 500, seed=1),
                 lambda: spectrum_estimate(rs, lam, gens, 2)):
        with pytest.raises(DomainError, match=f"root system A1, not {name}"):
            call()


def test_weights_past_the_kernel_bound_are_refused():
    gens = catalog_su2_free_pair()
    assert spectral._kernel_parts(RS1, (F(581177, 2), F(-581177, 2))) == ((581177,), False)
    for l in (F(581178, 2), F(10**300), F(10**5000)):
        with pytest.raises(DomainError, match="error bound exceeds 0.0001 of the dimension$"):
            moment_exact(RS1, su2_weight(l), gens, 2)


# ---------------------------------------------------------------------------
# Kesten-McKay reference
# ---------------------------------------------------------------------------


def test_km_moments_small_cases():
    assert km_moment(4, 0) == 1
    assert km_moment(4, 2) == F(1, 4)
    assert km_moment(4, 4) == F(7, 64)
    for m in (1, 3, 5, 7, 11):
        assert km_moment(4, m) == 0
    with pytest.raises(DomainError):
        km_moment(1, 2)


def test_km_moments_match_density_quadrature():
    s = 4
    f = km_density(s)
    r = delta_opt(s)
    assert f(0.0) > 0 and f(1.0) == 0.0
    for m in range(0, 13):
        want = float(km_moment(s, m))
        got, err = integrate.quad(lambda x: x**m * f(x), -r, r, limit=200)
        assert abs(got - want) < 1e-8


def test_km_even_moments_positive_and_bounded_by_support():
    for s in (2, 3, 4, 9):
        r = delta_opt(s)
        for m in range(2, 13, 2):
            v = km_moment(s, m)
            assert 0 < v <= F(r).limit_denominator(10**9) ** m * F(
                1001, 1000
            ), (s, m)


def test_km_hankel_matrix_is_psd():
    s = 4
    h = np.array(
        [[float(km_moment(s, i + j)) for j in range(5)] for i in range(5)]
    )
    eigs = np.linalg.eigvalsh(h)
    assert eigs.min() > -1e-12


def test_delta_opt_values_and_monotonicity():
    assert delta_opt(2) == 1.0
    assert abs(delta_opt(4) - math.sqrt(3) / 2) < 1e-15
    vals = [delta_opt(s) for s in (4, 9, 16, 25)]
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(DomainError):
        delta_opt(1)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moment_zero_is_one_and_trivial_rep_is_one():
    gens = catalog_su2_free_pair()
    assert moment_exact(RS1, su2_weight(0), gens, 0) == 1.0
    for m in range(1, 4):
        assert abs(moment_exact(RS1, su2_weight(0), gens, m) - 1.0) < 1e-12


def test_first_moment_bound():
    gens = catalog_su2_free_pair()
    l = 20
    val = moment_exact(RS1, su2_weight(l), gens, 1)
    worst = max(
        abs(character(RS1, su2_weight(l), conjugacy_phases(g)).value)
        for g in gens.elements
    )
    assert abs(val) <= worst / (2 * l + 1) + 1e-12


def test_word_cap_raises_capacity_error():
    gens = catalog_su2_free_pair()
    with pytest.raises(CapacityError) as err:
        moment_exact(RS1, su2_weight(1), gens, 12)
    assert "moment_sampled" in str(err.value)


def test_sampled_agrees_with_exact_within_3_sigma():
    gens = catalog_su2_free_pair()
    lam = su2_weight(10)
    exact = moment_exact(RS1, lam, gens, 4)
    val, err = moment_sampled(RS1, lam, gens, 4, 10_000, seed=7)
    assert abs(val - exact) < 3 * err


def test_sampled_seed_determinism_and_m0():
    gens = catalog_su2_free_pair()
    lam = su2_weight(5)
    a = moment_sampled(RS1, lam, gens, 3, 500, seed=123)
    b = moment_sampled(RS1, lam, gens, 3, 500, seed=123)
    assert a == b
    assert moment_sampled(RS1, lam, gens, 0, 500, seed=1) == (1.0, 0.0)
    with pytest.raises(DomainError):
        moment_sampled(RS1, lam, gens, 2, 50, seed=1)


def test_negative_orders_and_seeds_are_domain_errors():
    # numpy's Philox refuses a negative seed with a bare ValueError, and a
    # negative max_moment once returned no moments and no error
    gens = catalog_su2_free_pair()
    lam = su2_weight(2)
    with pytest.raises(DomainError, match="nonnegative"):
        moment_sampled(RS1, lam, gens, -1, 500, seed=1)
    with pytest.raises(DomainError, match="nonnegative"):
        moment_sampled(RS1, lam, gens, 3, 500, seed=-1)
    with pytest.raises(DomainError, match="moment order"):
        spectrum_estimate(RS1, lam, gens, -1)


@pytest.mark.parametrize("m", [3, 17, 18])
def test_sampled_words_drawn_per_block_are_the_one_shot_draw(m):
    # Three blocks, the last of 5 words.  The documented stream is one (n, m)
    # draw from Philox(seed); each word is multiplied two letters at a time,
    # after its first letter when m is odd, and re-unitarized once its letter
    # count passes 16 (at 17 letters for m = 17, at 16 for m = 18).
    gens = catalog_su2_free_pair()
    lam = su2_weight(3)
    n = 2 * spectral.WORD_CHUNK + 5
    rng = np.random.Generator(np.random.Philox(21))
    words = rng.integers(0, gens.size, size=(n, m))
    letters = [g[:, :, None] for g in gens.elements]
    pairs = {(a, b): spectral._mul(x, y) for (a, x), (b, y)
             in itertools.product(enumerate(letters), repeat=2)}
    first = 2 - m % 2
    vals = []
    for lo in range(0, n, spectral.WORD_CHUNK):
        chains = []  # each word's product, a one-word stack built on its own
        for word in words[lo:lo + spectral.WORD_CHUNK]:
            chain = letters[word[0]] if first == 1 else pairs[word[0], word[1]]
            for i in range(first, m, 2):
                chain = spectral._mul(chain, pairs[word[i], word[i + 1]])
                if (i + 2) // spectral.UNITARIZE_EVERY > i // spectral.UNITARIZE_EVERY:
                    chain = spectral._unitarize(chain)
            chains.append(chain)
        kernel = spectral._kernel_parts(RS1, lam)
        d = dim_irrep(RS1, lam)
        stack = np.concatenate(chains, axis=-1)
        vals += cquot(spectral._trace_characters(stack, *kernel), d).real.tolist()
    mean = pairwise_sum(vals) / n
    var = pairwise_sum([(v - mean) ** 2 for v in vals]) / (n - 1)
    assert moment_sampled(RS1, lam, gens, m, n, seed=21) == (mean, math.sqrt(var / n))


def test_samples_past_physical_memory_refuse_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("words were drawn")

    monkeypatch.setattr(spectral.np.random, "Philox", no_draw)
    # the ratios (8 bytes a sample), their squared deviations and the pairwise
    # sums' partial sums
    n = physical_memory() // 24 + 1
    with pytest.raises(CapacityError, match="physical memory") as err:
        moment_sampled(RS1, su2_weight(1), catalog_su2_free_pair(), 12, n, seed=1)
    assert f"about {24 * n} bytes, above the {physical_memory()} bytes" in str(err.value)


def test_each_seed_and_sampled_order_has_its_own_stream():
    # seed + m gave seed 5 at m = 12 the letters of seed 6 at m = 11
    streams = {spectral._stream_seed(seed, m) for seed in range(31) for m in range(10, 41)}
    assert len(streams) == 31 * 31


def test_moment_invariant_under_simultaneous_conjugation():
    gens = catalog_su2_free_pair()
    v = random_su(2, 42)
    conj = generator_set(
        [v @ g @ v.conj().T for g in gens.elements], gens.labels, True
    )
    lam = su2_weight(8)
    for m in (2, 3, 4):
        a = moment_exact(RS1, lam, gens, m)
        b = moment_exact(RS1, lam, conj, m)
        assert abs(a - b) < 1e-8


def test_word_level_identity_against_reduction_oracle():
    # moment - km equals the word sum restricted to non-identity-reduced words
    gens = catalog_su2_free_pair()
    inv = inverse_table(gens)
    lam = su2_weight(12)
    d = dim_irrep(RS1, lam)
    for m in (2, 3, 4):
        total = 0.0 + 0j
        reducing = 0
        for word in itertools.product(range(4), repeat=m):
            if reduce_word(word, inv):
                mat = np.eye(2, dtype=complex)
                for i in word:
                    mat = mat @ gens.elements[i]
                total += character(RS1, lam, conjugacy_phases(mat)).value / d
            else:
                reducing += 1
        assert F(reducing, 4**m) == km_moment(4, m)
        got = moment_exact(RS1, lam, gens, m)
        assert abs(got - (float(km_moment(4, m)) + total.real / 4**m)) < 1e-10


def test_haar_baseline_first_moment_vanishes():
    # many Haar samples: the trivial-rep-free average tends to zero at 3 sigma
    gens = haar_generator_set(2, 64, seed=2024)
    lam = su2_weight(3)
    d = dim_irrep(RS1, lam)
    vals = [
        (character(RS1, lam, conjugacy_phases(g)).value / d).real
        for g in gens.elements
    ]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean) < 3 * stderr + 1e-12


# ---------------------------------------------------------------------------
# spectrum estimates / norm
# ---------------------------------------------------------------------------


def test_norm_estimate_trivial_rep_is_one():
    est = spectrum_estimate(RS1, su2_weight(0), catalog_su2_free_pair(), 4)
    assert norm_estimate(est) == 1.0


def test_norm_estimate_on_exact_km_moments():
    rows = tuple(
        (m, float(km_moment(4, m)), None) for m in range(0, 13)
    )
    est = SpectrumEstimate(rows)
    seq = [g for _, g in moment_growth_sequence(est)]
    assert seq == sorted(seq)  # increasing toward the edge
    assert all(g <= delta_opt(4) + 0.05 for g in seq)
    assert abs(norm_estimate(est) - delta_opt(4)) < 0.01


def test_norm_estimate_range_and_requirements():
    est = SpectrumEstimate(((0, 1.0, None), (2, 0.2, None)))
    assert 0.0 <= norm_estimate(est) <= 1.0
    with pytest.raises(DomainError):
        norm_estimate(SpectrumEstimate(((1, 0.1, None),)))


def test_generator_set_validation():
    good = catalog_su2_free_pair()
    assert good.symmetric and good.free == "asserted" and good.size == 4
    with pytest.raises(DomainError):
        generator_set([np.eye(2) * 1.5])
    with pytest.raises(DomainError):
        generator_set([np.diag([1j, 1j])])  # det -1
    rot = good.elements[0]
    with pytest.raises(DomainError):
        GeneratorSet((rot,), ("a",), symmetric=True)  # inverse missing


def test_generator_set_json_roundtrip(tmp_path):
    import json

    gens = catalog_su2_free_pair()
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(generator_set_to_json(gens)))
    loaded = load_generator_set(path)
    assert loaded.labels == gens.labels
    assert loaded.free == "asserted"
    for a, b in zip(loaded.elements, gens.elements):
        assert np.abs(a - b).max() < 1e-15


def test_reduce_word_examples():
    inv = [1, 0, 3, 2]
    assert reduce_word((0, 1), inv) == ()
    assert reduce_word((0, 2, 3, 1), inv) == ()
    assert reduce_word((0, 0, 1), inv) == (0,)
    assert reduce_word((2, 0, 1, 3), inv) == ()
    assert reduce_word((0, 2), inv) == (0, 2)
